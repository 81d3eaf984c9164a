//! The cycle-driven simulation engine.
//!
//! Two execution paths drive a round:
//!
//! * [`Engine::run_round`] — the sequential reference semantics: every live
//!   node runs [`Protocol::on_round`] in a fresh random order, exchanges
//!   applied immediately.
//! * [`Engine::run_round_parallel`] — a phase-split path for protocols that
//!   opt in via the `par_*` methods of [`Protocol`]: a *plan* phase where
//!   every node concurrently does its local work and picks its gossip
//!   partner using a counter-based per-node RNG stream, and an *apply*
//!   phase where the planned exchanges are bucketed into slot-disjoint
//!   batches and applied conflict-free across threads (with a sequential
//!   fallback for small, contended batches). Results are bit-identical for
//!   every thread count.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt as _;

use crate::churn::{ChurnModel, ChurnState};
use crate::executor;
use crate::faults::{
    ActiveAdversary, DriftOp, FaultHost, FaultRuntime, FaultScenario, FaultTrace, PlannedAttack,
};
use crate::node::{NodeId, NodeSlab};
use crate::overlay::{Overlay, OverlayConfig};
use crate::rng::{derive_seed, par_stream_rng, seeded_rng};
use crate::stats::{NetShard, NetStats};
use crate::telemetry::{SimTelemetry, TelemetryHandle};

/// Error returned when a simulator configuration is invalid (see
/// [`EngineConfig::validate`] and [`FaultScenario::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfigError {
    message: String,
}

impl SimConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid simulator configuration: {}", self.message)
    }
}

impl std::error::Error for SimConfigError {}

/// Stream tag separating the parallel path's per-node RNG streams from the
/// main engine RNG (both derive from the master seed).
const PAR_SEED_STREAM: u64 = 0x7061_7261; // "para"

/// RNG phase counters for [`par_stream_rng`]: local work vs. planning.
const PAR_PHASE_LOCAL: u64 = 0;
const PAR_PHASE_PLAN: u64 = 1;

/// Batches smaller than this are applied inline on the driving thread: the
/// contended tail of the batch schedule is typically a handful of pairs,
/// where spawn overhead would dwarf the work.
const PAR_APPLY_MIN_BATCH: usize = 64;

/// A gossip protocol driven by the [`Engine`].
///
/// One protocol instance is shared across all nodes (it plays the role of
/// PeerSim's protocol class); per-node state lives in [`Protocol::Node`].
pub trait Protocol {
    /// Per-node protocol state.
    type Node;

    /// Creates the state of a fresh node (initial population and churn
    /// replacements).
    fn make_node(&mut self, rng: &mut StdRng) -> Self::Node;

    /// Executes one round step for node `id`: typically one push–pull
    /// gossip exchange with a random neighbour plus local bookkeeping.
    ///
    /// The node is guaranteed to be live when called. Implementations use
    /// [`Ctx::random_neighbour`] to pick a partner and
    /// [`NodeSlab::pair_mut`] for the symmetric exchange.
    fn on_round(&mut self, id: NodeId, ctx: &mut Ctx<'_, Self::Node>);

    /// Called after a node joined a running system (churn replacement),
    /// with the node already registered in the overlay. The default does
    /// nothing; protocols can use it to bootstrap the newcomer from its
    /// neighbours.
    fn on_join(&mut self, id: NodeId, ctx: &mut Ctx<'_, Self::Node>) {
        let _ = (id, ctx);
    }

    /// Called when a node leaves (churn). The default drops the state.
    fn on_leave(&mut self, id: NodeId, node: Self::Node) {
        let _ = (id, node);
    }

    /// Applies one attribute-drift operation to a live node (fault
    /// injection under a [`crate::FaultEvent::Drift`] window). `rng` is the
    /// scenario-seeded drift stream — implementations must draw any
    /// randomness (e.g. a replacement value) from it, never from shared
    /// state, so replay stays bit-identical. The default ignores drift
    /// (protocols without a drifting attribute).
    fn drift_node(&mut self, id: NodeId, node: &mut Self::Node, op: DriftOp, rng: &mut StdRng) {
        let _ = (id, node, op, rng);
    }

    /// Whether this protocol implements the plan/apply parallel round API
    /// (`par_local` / `par_absorb` / `par_apply`).
    ///
    /// The default is `false`, in which case
    /// [`Engine::run_round_parallel`] transparently adapts to the
    /// sequential [`on_round`](Protocol::on_round) path.
    fn parallel_capable(&self) -> bool {
        false
    }

    /// Parallel phase 1 — purely local per-node work (e.g. finalising due
    /// aggregation instances and drawing scheduling decisions).
    ///
    /// Called concurrently for every live node with exclusive access to
    /// that node only; implementations must not touch shared protocol
    /// state (hence `&self`) — shared effects are deferred to
    /// [`par_absorb`](Protocol::par_absorb) via the returned [`ParLocal`].
    /// `rng` is a deterministic stream unique to `(seed, round, node slot)`.
    fn par_local(
        &self,
        id: NodeId,
        node: &mut Self::Node,
        round: u64,
        rng: &mut StdRng,
    ) -> ParLocal {
        let _ = (id, node, round, rng);
        ParLocal::default()
    }

    /// Parallel phase 2 — sequential absorption of one node's [`ParLocal`]
    /// report into shared protocol state, in deterministic slot order.
    ///
    /// This is where work that genuinely needs `&mut self` or the full
    /// [`Ctx`] happens (counters, starting new aggregation instances, ...).
    /// Implementations must not remove nodes — liveness is fixed for the
    /// rest of the round.
    fn par_absorb(&mut self, id: NodeId, report: &ParLocal, ctx: &mut Ctx<'_, Self::Node>) {
        let _ = (id, report, ctx);
    }

    /// Parallel phase 3 — applies one planned exchange between `initiator`
    /// and `partner`, both exclusively borrowed.
    ///
    /// Called concurrently for slot-disjoint pairs; shared state access is
    /// `&self` only. Returns the wire traffic, which the engine charges to
    /// [`NetStats`] through per-thread shards.
    fn par_apply(
        &self,
        plan: &PlannedExchange,
        round: u64,
        initiator: &mut Self::Node,
        partner: &mut Self::Node,
    ) -> ExchangeTraffic {
        let _ = (plan, round, initiator, partner);
        ExchangeTraffic::default()
    }
}

/// Result of one node's [`Protocol::par_local`] step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParLocal {
    /// Locally completed events (for Adam2: finalised instances that
    /// produced an estimate), summed into shared state by `par_absorb`.
    pub completions: u64,
    /// Locally failed events (for Adam2: instances that expired without
    /// reaching all-values mode).
    pub failures: u64,
    /// Locally restarted events (for Adam2: self-healing instances that
    /// voted to re-enter averaging instead of finalising).
    pub restarts: u64,
    /// Whether the engine must invoke [`Protocol::par_absorb`]-side
    /// sequential work beyond counter sums (for Adam2: start a new
    /// aggregation instance at this node).
    pub wants_sequential: bool,
    /// Whether this node initiates a gossip exchange this round.
    pub initiates: bool,
}

/// One gossip exchange scheduled by the parallel plan phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedExchange {
    /// The node that initiates the push–pull exchange.
    pub initiator: NodeId,
    /// Its chosen gossip partner (always a distinct live node).
    pub partner: NodeId,
    /// The sampled fate of the exchange under the engine's loss rate and
    /// repair policy.
    pub fate: ExchangeFate,
    /// Number of request transmissions (> 1 under retransmission).
    pub request_msgs: u32,
    /// Number of response transmissions (> 1 under retransmission).
    pub response_msgs: u32,
    /// Adversarial corruption planned for this exchange, when a Byzantine
    /// window of the attached [`FaultScenario`] covers this round and at
    /// least one endpoint is Byzantine. `None` on honest exchanges.
    pub attack: Option<PlannedAttack>,
}

/// Wire traffic of one applied exchange, as reported by
/// [`Protocol::par_apply`].
///
/// `request` is charged initiator → partner, `response` partner →
/// initiator; `None` means the message was never sent (e.g. the response
/// after a lost request).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeTraffic {
    /// Bytes of the request message, if sent.
    pub request: Option<usize>,
    /// Bytes of the response message, if sent.
    pub response: Option<usize>,
    /// Bitmask of estimate bootstraps this exchange performed: bit 0 = the
    /// initiator adopted its partner's completed estimate, bit 1 = the
    /// partner adopted the initiator's. Purely observational (telemetry
    /// counts the set bits); zero for protocols without bootstrap.
    pub bootstraps: u32,
    /// Partner contributions rejected outright by the robust merge path's
    /// plausibility screen (zero for vanilla protocols).
    pub robust_rejects: u32,
    /// Per-component contributions trimmed or influence-capped by the
    /// robust merge path (zero for vanilla protocols).
    pub robust_trims: u32,
}

/// What happened to the two messages of one push–pull exchange.
///
/// Sampled by [`Ctx::sample_exchange_fate`] according to the engine's
/// configured loss rate. Protocols that ignore it behave as on a lossless
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeFate {
    /// Both messages delivered.
    Complete,
    /// The request never reached the partner: no state changes anywhere,
    /// but the sender paid for the request.
    RequestLost,
    /// The partner processed the request but its response was lost: only
    /// the partner's state changes (an *asymmetric* exchange). Never
    /// produced when [`ExchangeRepair`] is enabled — the retransmission
    /// path converts it into `Complete` or `Aborted`.
    ResponseLost,
    /// Repair-path outcome: retransmissions were exhausted after the
    /// partner had received at least one request, so the partner rolled
    /// back its staged half of the exchange. No state changes anywhere,
    /// but every transmission was paid for.
    Aborted,
}

/// Push–pull atomicity repair policy.
///
/// When enabled, an exchange becomes a two-phase commit: the partner
/// *stages* its half of the merge when a request arrives and resends the
/// cached response idempotently for re-requests carrying the same sequence
/// number; the initiator commits on receipt. If all `1 + max_retries`
/// attempts fail, the partner rolls the staged state back on timeout and
/// the exchange aborts with no state change anywhere — the asymmetric
/// [`ExchangeFate::ResponseLost`] mass leak cannot occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeRepair {
    /// Whether the two-phase repair path is active.
    pub enabled: bool,
    /// Retransmission attempts after the first (so `1 + max_retries`
    /// request transmissions in total before aborting).
    pub max_retries: u32,
}

impl Default for ExchangeRepair {
    fn default() -> Self {
        Self {
            enabled: false,
            max_retries: 2,
        }
    }
}

impl ExchangeRepair {
    /// An enabled policy with the default retry budget.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// Sampled outcome of one exchange: its fate plus how many times each of
/// the two messages was actually transmitted (for byte accounting under
/// retransmission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeOutcome {
    /// What happened to the exchange.
    pub fate: ExchangeFate,
    /// Request transmissions (initiator → partner).
    pub request_msgs: u32,
    /// Response transmissions (partner → initiator).
    pub response_msgs: u32,
}

/// Per-round execution context handed to [`Protocol`] callbacks.
///
/// Fields are public so a protocol can split-borrow them (e.g. hold a
/// [`NodeSlab::pair_mut`] result while charging [`NetStats`]).
pub struct Ctx<'a, N> {
    /// Current round number (starts at 0).
    pub round: u64,
    /// All live nodes.
    pub nodes: &'a mut NodeSlab<N>,
    /// The overlay (read-only during a round).
    pub overlay: &'a Overlay,
    /// Engine RNG.
    pub rng: &'a mut StdRng,
    /// Network accounting.
    pub net: &'a mut NetStats,
    /// Per-message loss probability (0 by default).
    pub loss_rate: f64,
    /// Exchange repair policy (disabled by default).
    pub repair: ExchangeRepair,
    /// Telemetry sink; a zero-cost no-op unless the engine has telemetry
    /// attached (see [`Engine::attach_telemetry`]).
    pub telemetry: TelemetryHandle<'a>,
    /// The Byzantine adversary active this round, if the attached
    /// [`FaultScenario`] has an adversary window covering it. Protocols use
    /// it to plan per-exchange corruption (see [`ActiveAdversary::plan`]).
    pub adversary: Option<ActiveAdversary>,
}

impl<N> Ctx<'_, N> {
    /// Samples the fate of one request/response exchange under the
    /// engine's loss rate: each of the two messages is lost independently
    /// with probability `loss_rate`.
    pub fn sample_exchange_fate(&mut self) -> ExchangeFate {
        sample_fate(self.rng, self.loss_rate)
    }

    /// Samples the full outcome of one exchange under the engine's loss
    /// rate and repair policy, including transmission counts.
    pub fn sample_exchange(&mut self) -> ExchangeOutcome {
        sample_exchange(self.rng, self.loss_rate, self.repair)
    }

    /// Draws a random live neighbour of `of`.
    ///
    /// When a targeted-partner adversary is active and `of` is Byzantine,
    /// the draw is overridden: the attacker deterministically aims at the
    /// round's victim (the lowest live slot) instead of sampling the
    /// overlay, concentrating its poison on one node. No engine RNG is
    /// consumed by the override.
    pub fn random_neighbour(&mut self, of: NodeId) -> Option<NodeId> {
        if let Some(victim) = targeted_victim(&self.adversary, self.nodes, of) {
            return Some(victim);
        }
        self.overlay.random_neighbour(of, self.nodes, self.rng)
    }

    /// Samples up to `count` distinct live neighbours of `of`.
    pub fn neighbour_sample(&mut self, of: NodeId, count: usize) -> Vec<NodeId> {
        self.overlay
            .neighbour_sample(of, self.nodes, count, self.rng)
    }

    /// Number of live nodes (the simulator's ground truth, *not* available
    /// to a real decentralised node — protocols must estimate it).
    pub fn live_count(&self) -> usize {
        self.nodes.len()
    }

    /// Charges the traffic of one applied exchange to [`NetStats`] and
    /// records it in telemetry (when attached) — the sequential-path
    /// counterpart of the engine's parallel apply accounting, using the
    /// identical arithmetic.
    pub fn charge_planned(&mut self, plan: &PlannedExchange, traffic: ExchangeTraffic) {
        charge_traffic(self.net, plan, traffic);
        self.telemetry.record_exchange(self.round, plan, &traffic);
    }
}

/// Samples the fate of one request/response exchange: each of the two
/// messages is lost independently with probability `loss_rate`. Shared by
/// the sequential [`Ctx::sample_exchange_fate`] and the parallel plan
/// phase (which draws from per-node streams).
/// Charges the traffic of one applied exchange directly to [`NetStats`]
/// (the inline/contended apply path; the threaded path goes through
/// [`NetShard`]s with identical arithmetic).
fn charge_traffic(net: &mut NetStats, plan: &PlannedExchange, traffic: ExchangeTraffic) {
    if let Some(bytes) = traffic.request {
        for _ in 0..plan.request_msgs.max(1) {
            net.charge_message(plan.initiator, plan.partner, bytes);
        }
    }
    if let Some(bytes) = traffic.response {
        for _ in 0..plan.response_msgs.max(1) {
            net.charge_message(plan.partner, plan.initiator, bytes);
        }
    }
}

/// The deterministic victim of a targeted-partner attack launched by `of`:
/// the lowest live slot other than the attacker itself. `None` when no
/// targeted adversary is active, `of` is honest, or no other node is live —
/// callers then fall through to the normal random draw.
fn targeted_victim<N>(
    adversary: &Option<ActiveAdversary>,
    nodes: &NodeSlab<N>,
    of: NodeId,
) -> Option<NodeId> {
    let adv = adversary.as_ref()?;
    if !adv.model.targets_partner() || !adv.is_byzantine(of.slot()) {
        return None;
    }
    let mut ids = nodes.ids();
    let first = ids.next()?;
    if first == of {
        ids.next()
    } else {
        Some(first)
    }
}

fn sample_fate(rng: &mut StdRng, loss_rate: f64) -> ExchangeFate {
    if loss_rate <= 0.0 {
        return ExchangeFate::Complete;
    }
    if rng.random::<f64>() < loss_rate {
        ExchangeFate::RequestLost
    } else if rng.random::<f64>() < loss_rate {
        ExchangeFate::ResponseLost
    } else {
        ExchangeFate::Complete
    }
}

/// Samples one exchange under `loss_rate` and the `repair` policy.
///
/// With repair disabled this is [`sample_fate`] plus the trivial
/// transmission counts (a lost request still costs one request message, a
/// lost response costs both). With repair enabled the exchange is retried
/// up to `1 + max_retries` times: each attempt transmits a request, and the
/// partner (once it has received any request) retransmits its staged
/// response for every request that arrives. Exhausting the budget yields
/// [`ExchangeFate::Aborted`] (partner received something, rolls back) or
/// [`ExchangeFate::RequestLost`] (partner never heard from the initiator).
fn sample_exchange(rng: &mut StdRng, loss_rate: f64, repair: ExchangeRepair) -> ExchangeOutcome {
    if loss_rate <= 0.0 {
        return ExchangeOutcome {
            fate: ExchangeFate::Complete,
            request_msgs: 1,
            response_msgs: 1,
        };
    }
    if !repair.enabled {
        let fate = sample_fate(rng, loss_rate);
        let response_msgs = match fate {
            ExchangeFate::RequestLost => 0,
            _ => 1,
        };
        return ExchangeOutcome {
            fate,
            request_msgs: 1,
            response_msgs,
        };
    }
    let mut request_msgs = 0u32;
    let mut response_msgs = 0u32;
    let mut partner_received = false;
    for _ in 0..=repair.max_retries {
        request_msgs += 1;
        if rng.random::<f64>() < loss_rate {
            continue; // request lost; initiator times out and retries
        }
        partner_received = true;
        response_msgs += 1;
        if rng.random::<f64>() < loss_rate {
            continue; // response lost; re-request resends the staged reply
        }
        return ExchangeOutcome {
            fate: ExchangeFate::Complete,
            request_msgs,
            response_msgs,
        };
    }
    ExchangeOutcome {
        fate: if partner_received {
            ExchangeFate::Aborted
        } else {
            ExchangeFate::RequestLost
        },
        request_msgs,
        response_msgs,
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Initial number of nodes.
    pub n: usize,
    /// Master seed; all engine randomness derives from it.
    pub seed: u64,
    /// Overlay configuration.
    pub overlay: OverlayConfig,
    /// Churn model.
    pub churn: ChurnModel,
    /// Per-message loss probability in `[0, 1]` (see
    /// [`Ctx::sample_exchange_fate`]).
    pub loss_rate: f64,
    /// Exchange repair policy (two-phase commit with retransmission);
    /// disabled by default.
    pub repair: ExchangeRepair,
    /// Worker threads for [`Engine::run_round_parallel`]: `0` means "use
    /// [`std::thread::available_parallelism`]", `1` runs the parallel
    /// semantics inline. Thread count never affects results.
    pub threads: usize,
}

impl EngineConfig {
    /// Creates a configuration for `n` nodes with the default oracle
    /// overlay and no churn.
    ///
    /// Invariants (checked by [`validate`](EngineConfig::validate), which
    /// [`Engine::try_new`] calls): `n > 0`; `loss_rate` finite and in
    /// `[0, 1]` (NaN rejected); churn rates finite and valid for their
    /// model.
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            n,
            seed,
            overlay: OverlayConfig::default(),
            churn: ChurnModel::None,
            loss_rate: 0.0,
            repair: ExchangeRepair::default(),
            threads: 1,
        }
    }

    /// Replaces the overlay configuration.
    pub fn with_overlay(mut self, overlay: OverlayConfig) -> Self {
        self.overlay = overlay;
        self
    }

    /// Replaces the churn model.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the per-message loss probability. Must be finite and in
    /// `[0, 1]`; violations are reported by
    /// [`validate`](EngineConfig::validate) rather than panicking here.
    pub fn with_loss_rate(mut self, loss_rate: f64) -> Self {
        self.loss_rate = loss_rate;
        self
    }

    /// Replaces the exchange repair policy.
    pub fn with_repair(mut self, repair: ExchangeRepair) -> Self {
        self.repair = repair;
        self
    }

    /// Sets the worker-thread count for [`Engine::run_round_parallel`]
    /// (`0` = auto-detect).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the configuration, collecting every rate/size invariant
    /// in one place instead of scattered panics:
    ///
    /// * `n > 0`,
    /// * `loss_rate` finite and in `[0, 1]` — NaN is rejected explicitly
    ///   (NaN comparisons would silently disable loss sampling),
    /// * churn rates finite and within their model's domain.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.n == 0 {
            return Err(SimConfigError::new("n must be positive"));
        }
        if !self.loss_rate.is_finite() || !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(SimConfigError::new(format!(
                "loss_rate must be finite and in [0, 1], got {}",
                self.loss_rate
            )));
        }
        match self.churn {
            ChurnModel::None => {}
            ChurnModel::Uniform { rate } => {
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    return Err(SimConfigError::new(format!(
                        "uniform churn rate must be finite and in [0, 1], got {rate}"
                    )));
                }
            }
            ChurnModel::Sessions { mean_rounds } => {
                if !mean_rounds.is_finite() || mean_rounds <= 0.0 {
                    return Err(SimConfigError::new(format!(
                        "session churn mean_rounds must be finite and positive, got {mean_rounds}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The cycle-driven simulator.
///
/// Each [`run_round`](Engine::run_round):
///
/// 1. applies churn (replacing departed nodes with fresh ones),
/// 2. runs overlay maintenance (view shuffling, if configured),
/// 3. calls [`Protocol::on_round`] once per live node, in a fresh random
///    order.
pub struct Engine<P: Protocol> {
    protocol: P,
    nodes: NodeSlab<P::Node>,
    overlay: Overlay,
    churn: ChurnModel,
    churn_state: ChurnState,
    rng: StdRng,
    /// Base of the counter-based per-node streams used by the parallel
    /// path; independent of `rng` so both paths share one master seed.
    par_seed: u64,
    threads: usize,
    round: u64,
    net: NetStats,
    /// Effective loss rate this round (fault bursts may override the base).
    loss_rate: f64,
    /// Configured loss rate, restored when no burst is active.
    base_loss_rate: f64,
    repair: ExchangeRepair,
    faults: Option<FaultRuntime>,
    /// Adversary window covering the round about to run (resolved by
    /// `begin_round_faults`); `None` outside Byzantine windows.
    adversary: Option<ActiveAdversary>,
    /// Reused per-round shuffle buffer (avoids one allocation per round).
    order_buf: Vec<NodeId>,
    /// Reused per-round live-id buffer for the parallel path.
    ids_buf: Vec<NodeId>,
    /// Attached telemetry store; `None` (the default) records nothing.
    telemetry: Option<Box<SimTelemetry>>,
}

impl<P: Protocol> std::fmt::Debug for Engine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("round", &self.round)
            .field("live_nodes", &self.nodes.len())
            .field("churn", &self.churn)
            .finish()
    }
}

impl<P: Protocol> Engine<P> {
    /// Builds an engine with `config.n` fresh nodes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`try_new`](Engine::try_new) for a fallible build.
    pub fn new(config: EngineConfig, protocol: P) -> Self {
        Self::try_new(config, protocol).expect("invalid engine configuration")
    }

    /// Builds an engine with `config.n` fresh nodes, validating the
    /// configuration first.
    pub fn try_new(config: EngineConfig, mut protocol: P) -> Result<Self, SimConfigError> {
        config.validate()?;
        let mut rng = seeded_rng(config.seed);
        let mut nodes = NodeSlab::with_capacity(config.n);
        let mut overlay = Overlay::new(config.overlay);
        let mut churn_state = ChurnState::new();
        let mut net = NetStats::new();
        for _ in 0..config.n {
            let state = protocol.make_node(&mut rng);
            let id = nodes.insert(state);
            churn_state.on_insert(&config.churn, id, 0, &mut rng);
        }
        net.ensure_slots(nodes.slot_count());
        // Register views only after the whole population exists so initial
        // views are uniform over it.
        for id in nodes.id_vec() {
            overlay.register_node(id, &nodes, &mut rng);
        }
        Ok(Self {
            protocol,
            nodes,
            overlay,
            churn: config.churn,
            churn_state,
            rng,
            par_seed: derive_seed(config.seed, PAR_SEED_STREAM),
            threads: config.threads,
            round: 0,
            net,
            loss_rate: config.loss_rate,
            base_loss_rate: config.loss_rate,
            repair: config.repair,
            faults: None,
            adversary: None,
            order_buf: Vec::new(),
            ids_buf: Vec::new(),
            telemetry: None,
        })
    }

    /// Attaches a telemetry store; subsequent rounds record metrics,
    /// events, and per-round snapshots into it. Recording never touches
    /// any engine RNG, so an instrumented run is bit-identical to an
    /// uninstrumented one.
    pub fn attach_telemetry(&mut self, telemetry: SimTelemetry) {
        self.telemetry = Some(Box::new(telemetry));
    }

    /// Detaches and returns the telemetry store, if one was attached.
    pub fn detach_telemetry(&mut self) -> Option<SimTelemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// The attached telemetry store, if any.
    pub fn telemetry(&self) -> Option<&SimTelemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable access to the attached telemetry store, if any (e.g. for
    /// bench harnesses to annotate rounds with error measurements).
    pub fn telemetry_mut(&mut self) -> Option<&mut SimTelemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Attaches a [`FaultScenario`] to replay from the next round on,
    /// validating it first. Replaces any previously attached scenario and
    /// clears its trace.
    pub fn set_fault_scenario(&mut self, scenario: FaultScenario) -> Result<(), SimConfigError> {
        scenario.validate()?;
        self.faults = Some(FaultRuntime::new(scenario));
        Ok(())
    }

    /// The trace of injected faults, if a scenario is attached.
    pub fn fault_trace(&self) -> Option<&FaultTrace> {
        self.faults.as_ref().map(|rt| &rt.trace)
    }

    /// Runs a single round.
    pub fn run_round(&mut self) {
        self.net.begin_round();
        self.begin_round_faults();
        self.apply_churn();
        self.overlay.maintain(&self.nodes, &mut self.rng);
        let mut order = std::mem::take(&mut self.order_buf);
        order.clear();
        order.extend(self.nodes.ids());
        order.shuffle(&mut self.rng);
        for &id in &order {
            if !self.nodes.contains(id) {
                continue;
            }
            self.with_ctx(|protocol, ctx| protocol.on_round(id, ctx));
        }
        self.order_buf = order;
        self.end_round_telemetry();
        self.round += 1;
    }

    /// Closes the telemetry round (if attached) with the engine-known
    /// totals. Must run after all round work, before `round` advances.
    fn end_round_telemetry(&mut self) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.end_round(
                self.round,
                self.nodes.len() as u64,
                self.net.round_bytes(),
                self.net.round_msgs(),
            );
        }
    }

    /// Runs `n` rounds.
    pub fn run_rounds(&mut self, n: u64) {
        for _ in 0..n {
            self.run_round();
        }
    }

    /// Runs a single round on the phase-split parallel path.
    ///
    /// Falls back to [`run_round`](Engine::run_round) when the protocol is
    /// not [`parallel_capable`](Protocol::parallel_capable). Otherwise the
    /// round proceeds in phases:
    ///
    /// 1. churn + overlay maintenance (sequential, engine RNG — identical
    ///    to the sequential path),
    /// 2. **plan** — concurrently for every live node: local work
    ///    ([`Protocol::par_local`]) and partner/fate selection, each node
    ///    drawing from its own counter-based RNG stream,
    /// 3. **absorb** — sequential slot-order fold of the local reports
    ///    into shared protocol state ([`Protocol::par_absorb`]),
    /// 4. **apply** — the planned exchanges are greedily coloured into
    ///    slot-disjoint batches; big batches run conflict-free across
    ///    threads ([`Protocol::par_apply`]) with traffic accumulated in
    ///    per-thread [`NetShard`]s, small contended batches run inline.
    ///
    /// Because every random draw is keyed by `(seed, round, slot)` and all
    /// stat reductions are commutative sums, the outcome is bit-identical
    /// for every thread count (including 1).
    pub fn run_round_parallel(&mut self)
    where
        P: Sync,
        P::Node: Send + Sync,
    {
        if !self.protocol.parallel_capable() {
            self.run_round();
            return;
        }
        let threads = self.resolved_threads();
        self.net.begin_round();
        self.begin_round_faults();
        self.apply_churn();
        self.overlay.maintain(&self.nodes, &mut self.rng);

        let round = self.round;
        let par_seed = self.par_seed;
        let loss_rate = self.loss_rate;
        let repair = self.repair;
        let slot_count = self.nodes.slot_count();
        self.net.ensure_slots(slot_count);

        // Phase 2a: local work, exclusive per-node access, slot-chunked.
        let mut reports: Vec<Option<ParLocal>> = vec![None; slot_count];
        {
            let protocol = &self.protocol;
            self.nodes
                .par_for_each_live_mut(threads, &mut reports, |id, node| {
                    let mut rng =
                        par_stream_rng(par_seed, round, id.slot() as u64, PAR_PHASE_LOCAL);
                    protocol.par_local(id, node, round, &mut rng)
                });
        }

        // Phase 2b: partner + fate selection, shared slab/overlay access.
        let mut ids = std::mem::take(&mut self.ids_buf);
        self.nodes.collect_ids(&mut ids);
        let mut plans: Vec<Option<PlannedExchange>> = vec![None; ids.len()];
        {
            let nodes = &self.nodes;
            let overlay = &self.overlay;
            let reports = &reports;
            let adversary = self.adversary;
            executor::par_zip(&mut ids, &mut plans, threads, |_, id_chunk, plan_chunk| {
                for (id, plan) in id_chunk.iter().zip(plan_chunk.iter_mut()) {
                    let initiates = reports[id.slot()].is_some_and(|r| r.initiates);
                    if !initiates {
                        continue;
                    }
                    let mut rng = par_stream_rng(par_seed, round, id.slot() as u64, PAR_PHASE_PLAN);
                    // Mirror of `Ctx::random_neighbour`: a targeted
                    // attacker aims at the deterministic victim without
                    // consuming its plan stream.
                    let partner = match targeted_victim(&adversary, nodes, *id) {
                        Some(victim) => victim,
                        None => {
                            let Some(partner) = overlay.random_neighbour(*id, nodes, &mut rng)
                            else {
                                continue;
                            };
                            partner
                        }
                    };
                    let outcome = sample_exchange(&mut rng, loss_rate, repair);
                    let attack = adversary
                        .as_ref()
                        .and_then(|adv| adv.plan(round, id.slot(), partner.slot()));
                    *plan = Some(PlannedExchange {
                        initiator: *id,
                        partner,
                        fate: outcome.fate,
                        request_msgs: outcome.request_msgs,
                        response_msgs: outcome.response_msgs,
                        attack,
                    });
                }
            });
        }

        // Phase 3: absorb local reports sequentially, in slot order.
        for &id in &ids {
            let Some(report) = reports[id.slot()] else {
                continue;
            };
            self.with_ctx(|protocol, ctx| protocol.par_absorb(id, &report, ctx));
        }
        self.ids_buf = ids;

        // Phase 4: colour the exchanges into slot-disjoint batches. The
        // greedy rule assigns each exchange the earliest batch after the
        // last batch touching either endpoint, so within one batch every
        // slot appears at most once.
        let plans: Vec<PlannedExchange> = plans.into_iter().flatten().collect();
        // Plan-derived telemetry (started/repaired/aborted events and
        // counters) is emitted here, in deterministic slot order, for every
        // planned exchange — identical at any thread count. The
        // traffic-derived half is recorded at apply time below.
        if let Some(t) = self.telemetry.as_deref_mut() {
            for p in &plans {
                t.record_exchange_plan(round, p);
            }
        }
        let mut next_batch = vec![0u32; slot_count];
        let mut num_batches = 0u32;
        let mut batch_of = Vec::with_capacity(plans.len());
        for p in &plans {
            let b = next_batch[p.initiator.slot()].max(next_batch[p.partner.slot()]);
            batch_of.push(b);
            next_batch[p.initiator.slot()] = b + 1;
            next_batch[p.partner.slot()] = b + 1;
            num_batches = num_batches.max(b + 1);
        }
        let mut batches: Vec<Vec<PlannedExchange>> = vec![Vec::new(); num_batches as usize];
        for (p, b) in plans.iter().zip(&batch_of) {
            batches[*b as usize].push(*p);
        }

        for batch in &batches {
            // A batch is slot-disjoint, so its exchanges apply
            // concurrently: its width is the round's in-flight peak.
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_inflight_exchanges(batch.len() as u64);
            }
            if threads <= 1 || batch.len() < PAR_APPLY_MIN_BATCH {
                // Contended / tiny tail: apply inline, charging NetStats
                // directly (same commutative sums as the shard path).
                for p in batch {
                    let Some((a, b)) = self.nodes.pair_mut(p.initiator, p.partner) else {
                        continue;
                    };
                    let traffic = self.protocol.par_apply(p, round, a, b);
                    charge_traffic(&mut self.net, p, traffic);
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.record_exchange_traffic(&traffic);
                    }
                }
            } else {
                let protocol = &self.protocol;
                let raw = self.nodes.raw_slots();
                // Telemetry traffic recording shards like NetStats does: a
                // clone of an empty shard per chunk, merged in chunk order.
                let tshard_seed = self.telemetry.as_deref().map(|t| t.shard());
                let histograms = self.telemetry.as_deref().map(|t| t.traffic_histograms());
                let shards = executor::par_chunks_map(batch, threads, |chunk| {
                    let mut shard = NetShard::with_slots(slot_count);
                    let mut tshard = tshard_seed.clone();
                    for p in chunk {
                        // Safety: slots within one batch are pairwise
                        // distinct by construction, and batches are applied
                        // one at a time, so these two borrows are the only
                        // live references to their slots.
                        let (Some(a), Some(b)) = (unsafe { raw.get_mut(p.initiator) }, unsafe {
                            raw.get_mut(p.partner)
                        }) else {
                            continue;
                        };
                        let traffic = protocol.par_apply(p, round, a, b);
                        if let (Some(ts), Some((hreq, hresp))) = (tshard.as_mut(), histograms) {
                            ts.record_traffic(&traffic, hreq, hresp);
                        }
                        if let Some(bytes) = traffic.request {
                            for _ in 0..p.request_msgs.max(1) {
                                shard.charge_message(p.initiator, p.partner, bytes);
                            }
                        }
                        if let Some(bytes) = traffic.response {
                            for _ in 0..p.response_msgs.max(1) {
                                shard.charge_message(p.partner, p.initiator, bytes);
                            }
                        }
                    }
                    (shard, tshard)
                });
                for (shard, tshard) in &shards {
                    self.net.merge_shard(shard);
                    if let (Some(t), Some(ts)) = (self.telemetry.as_deref_mut(), tshard.as_ref()) {
                        t.merge_shard(ts);
                    }
                }
            }
        }
        self.end_round_telemetry();
        self.round += 1;
    }

    /// Runs `n` rounds on the parallel path.
    pub fn run_rounds_parallel(&mut self, n: u64)
    where
        P: Sync,
        P::Node: Send + Sync,
    {
        for _ in 0..n {
            self.run_round_parallel();
        }
    }

    /// Replaces the worker-thread count (`0` = auto-detect) used by
    /// [`run_round_parallel`](Engine::run_round_parallel).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The configured worker-thread count (`0` = auto-detect).
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Applies the attached fault scenario for the round about to run (see
    /// [`FaultRuntime::begin_round`]). All fault randomness comes from
    /// scenario-seeded streams (never the engine RNG), so the injected
    /// faults are identical under the sequential and parallel paths at any
    /// thread count.
    fn begin_round_faults(&mut self) {
        self.adversary = None;
        if let Some(mut rt) = self.faults.take() {
            self.adversary = rt.begin_round(self.round, self.base_loss_rate, self);
            self.faults = Some(rt);
        }
    }

    fn apply_churn(&mut self) {
        let victims: Vec<NodeId> = match self.churn {
            ChurnModel::None => return,
            ChurnModel::Uniform { rate } => {
                let k = self
                    .churn_state
                    .uniform_replacements(rate, self.nodes.len());
                let mut picked = Vec::with_capacity(k);
                let mut seen = std::collections::HashSet::with_capacity(k);
                for _ in 0..k {
                    if let Some(id) = self.nodes.random_id(&mut self.rng) {
                        if seen.insert(id) {
                            picked.push(id);
                        }
                    }
                }
                picked
            }
            ChurnModel::Sessions { .. } => self.churn_state.due_deaths(self.round),
        };
        if victims.is_empty() {
            return;
        }
        // Count only *successful* removals: a session victim may already be
        // gone (crashed by a fault wave, or scheduled twice after
        // `set_churn` re-registered the population), and replacing a node
        // that never left would grow the population.
        let mut count = 0;
        let mut seen = std::collections::HashSet::with_capacity(victims.len());
        for id in victims {
            if !seen.insert(id) {
                continue;
            }
            if let Some(state) = self.nodes.remove(id) {
                self.overlay.remove_node(id);
                self.protocol.on_leave(id, state);
                count += 1;
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.record_churn_leave(self.round, id.slot() as u32);
                }
            }
        }
        if count == 0 {
            return;
        }
        // Replace departures to keep the population size constant, as the
        // paper's churn model does.
        let mut joined = Vec::with_capacity(count);
        for _ in 0..count {
            let state = self.protocol.make_node(&mut self.rng);
            let id = self.nodes.insert(state);
            self.net.reset_slot(id.slot());
            self.churn_state
                .on_insert(&self.churn, id, self.round, &mut self.rng);
            self.overlay.register_node(id, &self.nodes, &mut self.rng);
            joined.push(id);
        }
        for id in joined {
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_churn_join(self.round, id.slot() as u32);
            }
            self.with_ctx(|protocol, ctx| protocol.on_join(id, ctx));
        }
    }

    /// Current round number (number of completed rounds).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The live nodes.
    pub fn nodes(&self) -> &NodeSlab<P::Node> {
        &self.nodes
    }

    /// Mutable access to the live nodes (for test/experiment setup).
    pub fn nodes_mut(&mut self) -> &mut NodeSlab<P::Node> {
        &mut self.nodes
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol instance (e.g. to trigger an
    /// aggregation instance from the experiment harness).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Network statistics.
    pub fn net(&self) -> &NetStats {
        &self.net
    }

    /// Mutable network statistics (e.g. to reset between phases).
    pub fn net_mut(&mut self) -> &mut NetStats {
        &mut self.net
    }

    /// The overlay.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Engine RNG (e.g. for experiment-level sampling decisions that
    /// should be reproducible with the run).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Splits the network into `k` uniformly random partition groups from
    /// the next round on: gossip partners are only drawn within a node's
    /// group. Churn replacements land in group 0. Use
    /// [`heal_partition`](Engine::heal_partition) to reconnect.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn partition_into(&mut self, k: u32) {
        assert!(k > 0, "k must be positive");
        let mut groups = vec![0u32; self.nodes.slot_count()];
        for id in self.nodes.id_vec() {
            groups[id.slot()] = self.rng.random_range(0..k);
        }
        self.overlay.set_partition(groups);
    }

    /// Heals a network partition.
    pub fn heal_partition(&mut self) {
        self.overlay.clear_partition();
    }

    /// The partition group of a node (0 when unpartitioned).
    pub fn partition_group(&self, id: NodeId) -> u32 {
        self.overlay.group_of(id)
    }

    /// Replaces the churn model from the next round on.
    pub fn set_churn(&mut self, churn: ChurnModel) {
        self.churn = churn;
        self.churn_state.clear();
        if let ChurnModel::Sessions { .. } = churn {
            // (Re)schedule sessions for the existing population.
            for id in self.nodes.id_vec() {
                self.churn_state
                    .on_insert(&churn, id, self.round, &mut self.rng);
            }
        }
    }

    /// Invokes `f` with an execution context outside a round (used by
    /// experiment harnesses to trigger protocol actions deterministically).
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut P, &mut Ctx<'_, P::Node>) -> R) -> R {
        let mut ctx = Ctx {
            round: self.round,
            nodes: &mut self.nodes,
            overlay: &self.overlay,
            rng: &mut self.rng,
            net: &mut self.net,
            loss_rate: self.loss_rate,
            repair: self.repair,
            telemetry: TelemetryHandle::new(self.telemetry.as_deref_mut()),
            adversary: self.adversary,
        };
        f(&mut self.protocol, &mut ctx)
    }
}

/// The cycle engine's side of the shared fault schedule.
impl<P: Protocol> FaultHost for Engine<P> {
    fn live_ids(&self) -> Vec<NodeId> {
        self.nodes.id_vec()
    }

    fn set_loss_rate(&mut self, loss_rate: f64) {
        self.loss_rate = loss_rate;
    }

    fn set_partition(&mut self, groups: Option<Vec<u32>>) {
        match groups {
            Some(groups) => self.overlay.set_partition(groups),
            None => self.overlay.clear_partition(),
        }
    }

    /// State wiped, removed from the overlay.
    fn crash(&mut self, id: NodeId) -> bool {
        let Some(state) = self.nodes.remove(id) else {
            return false;
        };
        self.overlay.remove_node(id);
        self.protocol.on_leave(id, state);
        true
    }

    /// Fresh nodes rejoin via peer sampling. Their initial state comes
    /// from the scenario stream so it is execution-path independent; the
    /// `on_join` bootstrap uses the engine RNG like any churn join.
    fn admit(&mut self, round: u64, count: u32, rng: &mut StdRng) {
        let mut joined = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let state = self.protocol.make_node(rng);
            let id = self.nodes.insert(state);
            self.net.reset_slot(id.slot());
            self.churn_state.on_insert(&self.churn, id, round, rng);
            self.overlay.register_node(id, &self.nodes, rng);
            joined.push(id);
        }
        for id in joined {
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_recovery(round, id.slot() as u32);
            }
            self.with_ctx(|protocol, ctx| protocol.on_join(id, ctx));
        }
    }

    fn drift(&mut self, id: NodeId, op: DriftOp, rng: &mut StdRng) -> bool {
        let Some(node) = self.nodes.get_mut(id) else {
            return false;
        };
        self.protocol.drift_node(id, node, op, rng);
        true
    }

    fn telemetry(&mut self) -> Option<&mut SimTelemetry> {
        self.telemetry.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::OverlayKind;

    /// Test protocol: push–pull averaging of a per-node value.
    struct Averaging {
        next_value: f64,
    }

    impl Protocol for Averaging {
        type Node = f64;

        fn make_node(&mut self, _rng: &mut StdRng) -> f64 {
            self.next_value += 1.0;
            self.next_value
        }

        fn on_round(&mut self, id: NodeId, ctx: &mut Ctx<'_, f64>) {
            let Some(partner) = ctx.random_neighbour(id) else {
                return;
            };
            let Some((a, b)) = ctx.nodes.pair_mut(id, partner) else {
                return;
            };
            let mean = (*a + *b) / 2.0;
            *a = mean;
            *b = mean;
            ctx.net.charge_exchange(id, partner, 8, 8);
        }

        fn parallel_capable(&self) -> bool {
            true
        }

        fn par_local(
            &self,
            _id: NodeId,
            _node: &mut f64,
            _round: u64,
            _rng: &mut StdRng,
        ) -> ParLocal {
            ParLocal {
                initiates: true,
                ..ParLocal::default()
            }
        }

        fn par_apply(
            &self,
            plan: &PlannedExchange,
            _round: u64,
            a: &mut f64,
            b: &mut f64,
        ) -> ExchangeTraffic {
            match plan.fate {
                ExchangeFate::Complete => {
                    let mean = (*a + *b) / 2.0;
                    *a = mean;
                    *b = mean;
                    ExchangeTraffic {
                        request: Some(8),
                        response: Some(8),
                        ..ExchangeTraffic::default()
                    }
                }
                ExchangeFate::RequestLost => ExchangeTraffic {
                    request: Some(8),
                    response: None,
                    ..ExchangeTraffic::default()
                },
                ExchangeFate::ResponseLost => {
                    *b = (*a + *b) / 2.0;
                    ExchangeTraffic {
                        request: Some(8),
                        response: Some(8),
                        ..ExchangeTraffic::default()
                    }
                }
                ExchangeFate::Aborted => ExchangeTraffic {
                    request: Some(8),
                    response: Some(8),
                    ..ExchangeTraffic::default()
                },
            }
        }
    }

    /// Full observable state of an engine run, for bit-exact comparisons.
    #[allow(clippy::type_complexity)]
    fn snapshot(engine: &Engine<Averaging>) -> (Vec<(usize, u64)>, u64, u64, Vec<(u64, u64)>) {
        let values: Vec<(usize, u64)> = engine
            .nodes()
            .iter()
            .map(|(id, v)| (id.slot(), v.to_bits()))
            .collect();
        let traffic: Vec<(u64, u64)> = engine
            .nodes()
            .iter()
            .map(|(id, _)| {
                let t = engine.net().node(id);
                (t.total_bytes(), t.total_msgs())
            })
            .collect();
        (
            values,
            engine.net().total_bytes(),
            engine.net().total_msgs(),
            traffic,
        )
    }

    #[test]
    fn averaging_converges_to_global_mean() {
        let mut engine = Engine::new(EngineConfig::new(128, 42), Averaging { next_value: 0.0 });
        engine.run_rounds(60);
        let expected = 129.0 / 2.0;
        for (_, v) in engine.nodes().iter() {
            assert!((v - expected).abs() < 1e-9, "value {v} far from {expected}");
        }
    }

    #[test]
    fn averaging_conserves_mass_every_round() {
        let mut engine = Engine::new(EngineConfig::new(64, 7), Averaging { next_value: 0.0 });
        let initial: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        for _ in 0..20 {
            engine.run_round();
            let sum: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
            assert!(
                (sum - initial).abs() < 1e-6,
                "mass leaked: {sum} vs {initial}"
            );
        }
    }

    #[test]
    fn averaging_converges_on_shuffle_overlay_too() {
        let config = EngineConfig::new(128, 42).with_overlay(OverlayConfig {
            kind: OverlayKind::Shuffle,
            degree: 10,
            shuffle_len: 3,
        });
        let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
        engine.run_rounds(60);
        let expected = 129.0 / 2.0;
        for (_, v) in engine.nodes().iter() {
            assert!((v - expected).abs() < 1e-6, "value {v} far from {expected}");
        }
    }

    #[test]
    fn churn_keeps_population_constant() {
        let config = EngineConfig::new(100, 1).with_churn(ChurnModel::uniform(0.05));
        let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
        for _ in 0..50 {
            engine.run_round();
            assert_eq!(engine.nodes().len(), 100);
        }
    }

    #[test]
    fn session_churn_keeps_population_constant() {
        let config = EngineConfig::new(100, 2).with_churn(ChurnModel::sessions(10.0));
        let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
        for _ in 0..100 {
            engine.run_round();
            assert_eq!(engine.nodes().len(), 100);
        }
    }

    #[test]
    fn network_traffic_is_recorded() {
        let mut engine = Engine::new(EngineConfig::new(10, 3), Averaging { next_value: 0.0 });
        engine.run_round();
        // Every node initiates one exchange of 8+8 bytes.
        assert_eq!(engine.net().total_msgs(), 20);
        assert_eq!(engine.net().total_bytes(), 160);
    }

    #[test]
    fn rounds_advance() {
        let mut engine = Engine::new(EngineConfig::new(4, 4), Averaging { next_value: 0.0 });
        assert_eq!(engine.round(), 0);
        engine.run_rounds(5);
        assert_eq!(engine.round(), 5);
    }

    #[test]
    fn partitions_prevent_cross_group_averaging() {
        let mut engine = Engine::new(EngineConfig::new(200, 8), Averaging { next_value: 0.0 });
        engine.partition_into(2);
        engine.run_rounds(40);
        // Each group converges to its own mean; the two means must differ
        // (groups hold different value subsets with probability ~1).
        let mut groups: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for (id, v) in engine.nodes().iter() {
            groups[engine.partition_group(id) as usize].push(*v);
        }
        assert!(!groups[0].is_empty() && !groups[1].is_empty());
        for g in &groups {
            let mean = g.iter().sum::<f64>() / g.len() as f64;
            for v in g {
                assert!((v - mean).abs() < 1e-6, "group not internally converged");
            }
        }
        let m0 = groups[0].iter().sum::<f64>() / groups[0].len() as f64;
        let m1 = groups[1].iter().sum::<f64>() / groups[1].len() as f64;
        assert!((m0 - m1).abs() > 1e-6, "groups should disagree while split");

        // Healing reconnects: everyone converges to the global mean.
        engine.heal_partition();
        engine.run_rounds(60);
        let expected = 201.0 / 2.0;
        for (_, v) in engine.nodes().iter() {
            assert!((v - expected).abs() < 1e-6, "post-heal value {v}");
        }
    }

    struct JoinTracker {
        joins: usize,
        leaves: usize,
    }

    impl Protocol for JoinTracker {
        type Node = ();

        fn make_node(&mut self, _rng: &mut StdRng) {}

        fn on_round(&mut self, _id: NodeId, _ctx: &mut Ctx<'_, ()>) {}

        fn on_join(&mut self, _id: NodeId, _ctx: &mut Ctx<'_, ()>) {
            self.joins += 1;
        }

        fn on_leave(&mut self, _id: NodeId, _node: ()) {
            self.leaves += 1;
        }
    }

    #[test]
    fn parallel_averaging_converges_to_global_mean() {
        let config = EngineConfig::new(128, 42).with_threads(4);
        let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
        engine.run_rounds_parallel(60);
        let expected = 129.0 / 2.0;
        for (_, v) in engine.nodes().iter() {
            assert!((v - expected).abs() < 1e-9, "value {v} far from {expected}");
        }
    }

    #[test]
    fn parallel_conserves_mass_every_round() {
        let config = EngineConfig::new(300, 7).with_threads(4);
        let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
        let initial: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        for _ in 0..20 {
            engine.run_round_parallel();
            let sum: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
            assert!(
                (sum - initial).abs() < 1e-6,
                "mass leaked: {sum} vs {initial}"
            );
        }
    }

    #[test]
    fn parallel_records_same_message_count_as_sequential() {
        // Lossless network: both paths carry exactly one exchange per node
        // per round, so the counters must agree exactly.
        let mut seq = Engine::new(EngineConfig::new(10, 3), Averaging { next_value: 0.0 });
        seq.run_round();
        let config = EngineConfig::new(10, 3).with_threads(2);
        let mut par = Engine::new(config, Averaging { next_value: 0.0 });
        par.run_round_parallel();
        assert_eq!(par.net().total_msgs(), seq.net().total_msgs());
        assert_eq!(par.net().total_bytes(), seq.net().total_bytes());
        assert_eq!(par.net().round_msgs(), 20);
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        // Churn + shuffle overlay + loss: the full feature surface must be
        // thread-count invariant, including per-node traffic tables.
        let base = EngineConfig::new(300, 11)
            .with_overlay(OverlayConfig {
                kind: OverlayKind::Shuffle,
                degree: 10,
                shuffle_len: 3,
            })
            .with_churn(ChurnModel::uniform(0.02))
            .with_loss_rate(0.05);
        let mut reference = None;
        for threads in [1, 2, 4, 7] {
            let config = base.with_threads(threads);
            let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
            engine.run_rounds_parallel(25);
            let snap = snapshot(&engine);
            match &reference {
                None => reference = Some(snap),
                Some(r) => assert_eq!(&snap, r, "threads={threads} diverged"),
            }
        }
    }

    #[test]
    fn telemetry_attach_leaves_simulation_bit_identical() {
        // Tentpole invariant: recording is purely observational — it never
        // consumes engine RNG or touches simulation state, so runs with and
        // without an attached store are bit-identical under both engine
        // paths at any thread count.
        let base = EngineConfig::new(300, 11)
            .with_overlay(OverlayConfig {
                kind: OverlayKind::Shuffle,
                degree: 10,
                shuffle_len: 3,
            })
            .with_churn(ChurnModel::uniform(0.02))
            .with_loss_rate(0.05);
        let run = |parallel: bool, threads: usize, with_telemetry: bool| {
            let config = base.with_threads(threads);
            let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
            if with_telemetry {
                engine.attach_telemetry(SimTelemetry::new());
            }
            if parallel {
                engine.run_rounds_parallel(25);
            } else {
                engine.run_rounds(25);
            }
            snapshot(&engine)
        };
        for (parallel, threads) in [(false, 1), (true, 1), (true, 4)] {
            assert_eq!(
                run(parallel, threads, true),
                run(parallel, threads, false),
                "parallel={parallel} threads={threads}"
            );
        }
    }

    #[test]
    fn telemetry_output_is_thread_count_invariant() {
        // The recorded telemetry itself must not depend on the thread
        // count: plan-derived events are emitted on the driver in slot
        // order, and shard merges are commutative sums.
        let base = EngineConfig::new(300, 11)
            .with_churn(ChurnModel::uniform(0.02))
            .with_loss_rate(0.05);
        let run = |threads: usize| {
            let mut engine = Engine::new(base.with_threads(threads), Averaging { next_value: 0.0 });
            engine.attach_telemetry(SimTelemetry::new());
            engine.run_rounds_parallel(25);
            let t = engine.detach_telemetry().unwrap();
            let counters: Vec<(&str, u64)> = t.telemetry().metrics.counters().collect();
            let rounds: Vec<String> = t
                .telemetry()
                .snapshots()
                .iter()
                .map(|s| s.jsonl())
                .collect();
            let events: Vec<String> = t.telemetry().events.iter().map(|e| e.jsonl()).collect();
            (counters, rounds, events)
        };
        let single = run(1);
        assert!(!single.2.is_empty(), "events recorded");
        assert_eq!(single.1.len(), 25, "one snapshot per round");
        assert_eq!(single, run(4));
    }

    #[test]
    fn parallel_same_config_twice_is_identical() {
        let config = EngineConfig::new(200, 9)
            .with_churn(ChurnModel::uniform(0.01))
            .with_threads(4);
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
                engine.run_rounds_parallel(30);
                snapshot(&engine)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn sequential_same_config_twice_is_identical() {
        let config = EngineConfig::new(200, 9).with_churn(ChurnModel::uniform(0.01));
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
                engine.run_rounds(30);
                snapshot(&engine)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn parallel_falls_back_for_non_capable_protocols() {
        // JoinTracker does not implement the parallel API; the parallel
        // entry point must behave exactly like the sequential path.
        let config = EngineConfig::new(100, 5)
            .with_churn(ChurnModel::uniform(0.02))
            .with_threads(4);
        let mut seq = Engine::new(
            config,
            JoinTracker {
                joins: 0,
                leaves: 0,
            },
        );
        seq.run_rounds(20);
        let mut par = Engine::new(
            config,
            JoinTracker {
                joins: 0,
                leaves: 0,
            },
        );
        par.run_rounds_parallel(20);
        assert_eq!(par.protocol().joins, seq.protocol().joins);
        assert_eq!(par.protocol().leaves, seq.protocol().leaves);
    }

    #[test]
    fn sample_fate_zero_loss_is_complete_without_consuming_rng() {
        let mut rng = seeded_rng(5);
        let mut fresh = seeded_rng(5);
        for _ in 0..16 {
            assert_eq!(sample_fate(&mut rng, 0.0), ExchangeFate::Complete);
            assert_eq!(sample_fate(&mut rng, -1.0), ExchangeFate::Complete);
        }
        // No draws were consumed: the stream is still aligned with a fresh
        // generator.
        assert_eq!(rng.random::<u64>(), fresh.random::<u64>());
    }

    #[test]
    fn sample_fate_full_loss_always_drops_request() {
        let mut rng = seeded_rng(6);
        for _ in 0..64 {
            assert_eq!(sample_fate(&mut rng, 1.0), ExchangeFate::RequestLost);
        }
    }

    #[test]
    fn sample_exchange_repair_full_loss_exhausts_retries() {
        let repair = ExchangeRepair {
            enabled: true,
            max_retries: 3,
        };
        let mut rng = seeded_rng(7);
        let outcome = sample_exchange(&mut rng, 1.0, repair);
        assert_eq!(outcome.fate, ExchangeFate::RequestLost);
        assert_eq!(outcome.request_msgs, 4);
        assert_eq!(outcome.response_msgs, 0);
        // Lossless: single attempt, both messages.
        let outcome = sample_exchange(&mut rng, 0.0, repair);
        assert_eq!(
            outcome,
            ExchangeOutcome {
                fate: ExchangeFate::Complete,
                request_msgs: 1,
                response_msgs: 1,
            }
        );
    }

    #[test]
    fn sample_exchange_repair_never_yields_response_lost() {
        let repair = ExchangeRepair {
            enabled: true,
            max_retries: 2,
        };
        let mut rng = seeded_rng(8);
        let mut aborted = 0;
        for _ in 0..2000 {
            let outcome = sample_exchange(&mut rng, 0.3, repair);
            assert_ne!(outcome.fate, ExchangeFate::ResponseLost);
            if outcome.fate == ExchangeFate::Aborted {
                aborted += 1;
                assert!(outcome.response_msgs > 0, "abort implies partner heard us");
            }
        }
        assert!(aborted > 0, "30% loss should produce some aborts");
    }

    #[test]
    fn config_validation_rejects_bad_rates() {
        assert!(EngineConfig::new(10, 0).validate().is_ok());
        let mut zero_n = EngineConfig::new(10, 0);
        zero_n.n = 0;
        assert!(zero_n.validate().is_err());
        assert!(EngineConfig::new(10, 0)
            .with_loss_rate(f64::NAN)
            .validate()
            .is_err());
        assert!(EngineConfig::new(10, 0)
            .with_loss_rate(1.5)
            .validate()
            .is_err());
        assert!(EngineConfig::new(10, 0)
            .with_loss_rate(-0.1)
            .validate()
            .is_err());
        let mut bad_churn = EngineConfig::new(10, 0);
        bad_churn.churn = ChurnModel::Uniform { rate: f64::NAN };
        assert!(bad_churn.validate().is_err());
        let mut bad_sessions = EngineConfig::new(10, 0);
        bad_sessions.churn = ChurnModel::Sessions { mean_rounds: 0.0 };
        assert!(bad_sessions.validate().is_err());
        assert!(
            Engine::try_new(bad_sessions, Averaging { next_value: 0.0 }).is_err(),
            "try_new must surface validation errors"
        );
    }

    #[test]
    fn session_churn_rescheduling_does_not_grow_population() {
        // `set_churn` re-registers every node's session; duplicate heap
        // entries for the same node must not cause double replacement.
        let config = EngineConfig::new(100, 3).with_churn(ChurnModel::sessions(5.0));
        let mut engine = Engine::new(config, Averaging { next_value: 0.0 });
        for round in 0..60 {
            if round % 10 == 0 {
                engine.set_churn(ChurnModel::sessions(5.0));
            }
            engine.run_round();
            assert_eq!(engine.nodes().len(), 100, "round {round}");
        }
    }

    fn crash_scenario() -> crate::faults::FaultScenario {
        crate::faults::FaultScenario::new(99)
            .with_burst_loss(3, 8, 0.4)
            .with_partition(5, 12, crate::faults::PartitionKind::Bisect)
            .with_crash_recover(2, 9, 0.2)
    }

    #[test]
    fn crash_recover_restores_population() {
        let mut engine = Engine::new(EngineConfig::new(100, 21), Averaging { next_value: 0.0 });
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(5).with_crash_recover(2, 5, 0.2))
            .unwrap();
        engine.run_rounds(2);
        assert_eq!(engine.nodes().len(), 100);
        engine.run_round(); // round 2: crash fires
        assert_eq!(engine.nodes().len(), 80);
        engine.run_rounds(2); // rounds 3, 4
        assert_eq!(engine.nodes().len(), 80);
        engine.run_round(); // round 5: recovery
        assert_eq!(engine.nodes().len(), 100);
        let trace = engine.fault_trace().unwrap();
        assert_eq!(trace.total_crashed(), 20);
        assert_eq!(trace.total_recovered(), 20);
    }

    #[test]
    fn fault_partition_applies_and_heals() {
        let mut engine = Engine::new(EngineConfig::new(64, 22), Averaging { next_value: 0.0 });
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(4).with_partition(
                1,
                3,
                crate::faults::PartitionKind::Islands(4),
            ))
            .unwrap();
        engine.run_round();
        assert!(!engine.overlay().is_partitioned());
        engine.run_round();
        assert!(engine.overlay().is_partitioned());
        let groups: std::collections::HashSet<u32> = engine
            .nodes()
            .id_vec()
            .into_iter()
            .map(|id| engine.partition_group(id))
            .collect();
        assert!(groups.len() > 1, "expected several islands, got {groups:?}");
        engine.run_rounds(2);
        assert!(!engine.overlay().is_partitioned(), "window closed");
    }

    #[test]
    fn fault_burst_overrides_and_restores_loss_rate() {
        let mut engine = Engine::new(
            EngineConfig::new(50, 23).with_loss_rate(0.01),
            Averaging { next_value: 0.0 },
        );
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(6).with_burst_loss(1, 3, 0.9))
            .unwrap();
        engine.run_rounds(4);
        let trace = engine.fault_trace().unwrap();
        let rates: Vec<(u64, f64)> = trace
            .records
            .iter()
            .map(|r| (r.round, r.loss_rate))
            .collect();
        assert_eq!(rates, vec![(1, 0.9), (2, 0.9)]);
    }

    #[test]
    fn fault_trace_is_identical_across_engine_paths_and_threads() {
        // The injector draws only from scenario-seeded streams, so the
        // sequential path and the parallel path at any thread count must
        // inject byte-identical faults (no churn: uniform churn victims
        // come from the engine RNG, whose draw sequence legitimately
        // differs between paths).
        let config = EngineConfig::new(200, 31).with_loss_rate(0.05);
        let mut seq = Engine::new(config, Averaging { next_value: 0.0 });
        seq.set_fault_scenario(crash_scenario()).unwrap();
        for _ in 0..15 {
            seq.run_round();
        }
        let reference = seq.fault_trace().unwrap().clone();
        assert!(!reference.is_empty());
        for threads in [1, 2, 4] {
            let mut par = Engine::new(config.with_threads(threads), Averaging { next_value: 0.0 });
            par.set_fault_scenario(crash_scenario()).unwrap();
            par.run_rounds_parallel(15);
            assert_eq!(
                par.fault_trace().unwrap(),
                &reference,
                "threads={threads} trace diverged"
            );
        }
    }

    #[test]
    fn parallel_faulted_run_is_bit_identical_across_thread_counts() {
        let base = EngineConfig::new(300, 17)
            .with_loss_rate(0.05)
            .with_repair(ExchangeRepair::enabled());
        let mut reference = None;
        for threads in [1, 2, 4, 7] {
            let mut engine = Engine::new(base.with_threads(threads), Averaging { next_value: 0.0 });
            engine.set_fault_scenario(crash_scenario()).unwrap();
            engine.run_rounds_parallel(20);
            let snap = snapshot(&engine);
            match &reference {
                None => reference = Some(snap),
                Some(r) => assert_eq!(&snap, r, "threads={threads} diverged"),
            }
        }
    }

    #[test]
    fn repair_conserves_mass_under_loss() {
        // With repair enabled an exchange either completes on both sides
        // or aborts with no state change, so the global sum is exact even
        // at 30% loss; without repair the asymmetric ResponseLost path
        // leaks mass almost surely.
        let repaired = EngineConfig::new(200, 13)
            .with_loss_rate(0.3)
            .with_repair(ExchangeRepair::enabled())
            .with_threads(2);
        let mut engine = Engine::new(repaired, Averaging { next_value: 0.0 });
        let initial: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        engine.run_rounds_parallel(30);
        let sum: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        assert!(
            (sum - initial).abs() < 1e-6,
            "repaired path leaked mass: {sum} vs {initial}"
        );

        let unrepaired = EngineConfig::new(200, 13)
            .with_loss_rate(0.3)
            .with_threads(2);
        let mut engine = Engine::new(unrepaired, Averaging { next_value: 0.0 });
        let initial: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        engine.run_rounds_parallel(30);
        let sum: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        assert!(
            (sum - initial).abs() > 1e-3,
            "unrepaired path should visibly drift: {sum} vs {initial}"
        );
    }

    #[test]
    fn join_and_leave_hooks_fire_under_churn() {
        let config = EngineConfig::new(200, 5).with_churn(ChurnModel::uniform(0.01));
        let mut engine = Engine::new(
            config,
            JoinTracker {
                joins: 0,
                leaves: 0,
            },
        );
        engine.run_rounds(50);
        let p = engine.protocol();
        assert_eq!(p.joins, p.leaves);
        // 1%/round * 200 nodes * 50 rounds = ~100 replacements.
        assert!((80..=120).contains(&p.joins), "joins {}", p.joins);
    }
}
