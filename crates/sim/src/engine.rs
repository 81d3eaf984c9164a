//! The cycle-driven simulation engine.
//!
//! A round ([`Engine::run_round`]) is churn and overlay maintenance
//! followed by four phases over the live nodes:
//!
//! 1. **local** — every node does its own bookkeeping
//!    ([`Protocol::local`]) and says whether it initiates an exchange,
//! 2. **plan** — every initiator picks its partner and the fate of its
//!    exchange from the state at the start of the round, drawing from a
//!    counter-based RNG stream keyed by `(seed, round, slot)`,
//! 3. **absorb** — the local reports are folded into shared protocol
//!    state in slot order ([`Protocol::absorb`]),
//! 4. **apply** — the planned exchanges are applied *in slot order*
//!    ([`Protocol::apply`]).
//!
//! That serial order is the round's definition, and with
//! [`EngineConfig::threads`] ≤ 1 it is executed literally: one loop over
//! the plan. With more threads the same plan is coloured into
//! slot-disjoint batches and each batch is applied concurrently. The
//! greedy colouring gives two exchanges that share a node increasing
//! batch numbers in slot order, and exchanges that share no node commute
//! (`apply` takes `&self`, traffic counters are integer sums) — so
//! batch-major order is a parallel schedule of slot order, and results are
//! bit-identical for every thread count.

use rand::rngs::StdRng;
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

/// Stream tag separating the per-node RNG streams of the local and plan
/// phases from the main engine RNG (both derive from the master seed).
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
/// A round calls [`local`](Protocol::local), [`absorb`](Protocol::absorb)
/// and [`apply`](Protocol::apply), in that order, whatever the thread
/// count; a plain averaging protocol implements only `apply`. The `Sync`
/// and `Send` bounds are what lets the engine run `local` and `apply` on
/// worker threads.
pub trait Protocol: Sync {
    /// Per-node protocol state.
    type Node: Send + Sync;

    /// Creates the state of a fresh node (initial population and churn
    /// replacements).
    fn make_node(&mut self, rng: &mut StdRng) -> Self::Node;

    /// Round phase 1 — purely local per-node work (e.g. finalising due
    /// aggregation instances and drawing scheduling decisions).
    ///
    /// Called for every live node with exclusive access to that node only,
    /// possibly concurrently; implementations must not touch shared
    /// protocol state (hence `&self`) — shared effects are deferred to
    /// [`absorb`](Protocol::absorb) via the returned [`LocalReport`]. `rng`
    /// is a deterministic stream unique to `(seed, round, node slot)`. The
    /// default does nothing and initiates one exchange.
    fn local(
        &self,
        id: NodeId,
        node: &mut Self::Node,
        round: u64,
        rng: &mut StdRng,
    ) -> LocalReport {
        let _ = (id, node, round, rng);
        LocalReport {
            initiates: true,
            ..LocalReport::default()
        }
    }

    /// Round phase 3 — sequential absorption of one node's [`LocalReport`]
    /// into shared protocol state, in deterministic slot order.
    ///
    /// This is where work that genuinely needs `&mut self` or the full
    /// [`Ctx`] happens (counters, starting new aggregation instances, ...).
    /// Implementations must not remove nodes — liveness is fixed for the
    /// rest of the round. The default does nothing.
    fn absorb(&mut self, id: NodeId, report: &LocalReport, ctx: &mut Ctx<'_, Self::Node>) {
        let _ = (id, report, ctx);
    }

    /// Round phase 4 — applies one planned exchange between `initiator`
    /// and `partner`, both exclusively borrowed.
    ///
    /// Possibly called concurrently for slot-disjoint pairs; shared state
    /// access is `&self` only. Returns the wire traffic, which the engine
    /// charges to [`NetStats`] (once per transmission recorded in the
    /// plan). A protocol that ignores [`PlannedExchange::fate`] behaves as
    /// on a lossless network.
    fn apply(
        &self,
        plan: &PlannedExchange,
        round: u64,
        initiator: &mut Self::Node,
        partner: &mut Self::Node,
    ) -> ExchangeTraffic;

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
}

/// Result of one node's [`Protocol::local`] step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalReport {
    /// Locally completed events (for Adam2: finalised instances that
    /// produced an estimate), summed into shared state by `absorb`.
    pub completions: u64,
    /// Locally failed events (for Adam2: instances that expired without
    /// reaching all-values mode).
    pub failures: u64,
    /// Locally restarted events (for Adam2: self-healing instances that
    /// voted to re-enter averaging instead of finalising).
    pub restarts: u64,
    /// Whether [`Protocol::absorb`] has sequential work beyond counter
    /// sums for this node (for Adam2: start a new aggregation instance
    /// here).
    pub wants_sequential: bool,
    /// Whether this node initiates a gossip exchange this round.
    pub initiates: bool,
}

/// One gossip exchange scheduled by the plan phase.
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
/// [`Protocol::apply`].
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
/// Sampled in the plan phase according to the engine's loss rate and
/// repair policy. Protocols that ignore it behave as on a lossless network.
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
struct ExchangeOutcome {
    fate: ExchangeFate,
    /// Request transmissions (initiator → partner).
    request_msgs: u32,
    /// Response transmissions (partner → initiator).
    response_msgs: u32,
}

/// Execution context handed to the [`Protocol`] callbacks that run on the
/// driving thread ([`absorb`](Protocol::absorb), [`on_join`](Protocol::on_join))
/// and to [`Engine::with_ctx`].
///
/// Fields are public so a protocol can split-borrow them (e.g. read
/// [`Ctx::nodes`] while drawing from [`Ctx::rng`]).
pub struct Ctx<'a, N> {
    /// Current round number (starts at 0).
    pub round: u64,
    /// All live nodes.
    pub nodes: &'a mut NodeSlab<N>,
    /// The overlay (read-only during a round).
    pub overlay: &'a Overlay,
    /// Engine RNG.
    pub rng: &'a mut StdRng,
    /// Telemetry sink; a zero-cost no-op unless the engine has telemetry
    /// attached (see [`Engine::attach_telemetry`]).
    pub telemetry: TelemetryHandle<'a>,
    /// The Byzantine adversary active this round, if the attached
    /// [`FaultScenario`] has an adversary window covering it (see
    /// [`Ctx::random_neighbour`]).
    pub adversary: Option<ActiveAdversary>,
}

impl<N> Ctx<'_, N> {
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
}

/// Charges the traffic of one applied exchange through `charge(from, to,
/// bytes)` — [`NetStats::charge_message`] on the driving thread, a
/// [`NetShard`]'s on a worker — once per transmission recorded in the plan.
fn charge_traffic(
    plan: &PlannedExchange,
    traffic: ExchangeTraffic,
    mut charge: impl FnMut(NodeId, NodeId, usize),
) {
    if let Some(bytes) = traffic.request {
        for _ in 0..plan.request_msgs.max(1) {
            charge(plan.initiator, plan.partner, bytes);
        }
    }
    if let Some(bytes) = traffic.response {
        for _ in 0..plan.response_msgs.max(1) {
            charge(plan.partner, plan.initiator, bytes);
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

/// Samples the fate of one request/response exchange: each of the two
/// messages is lost independently with probability `loss_rate`.
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
    /// Per-message loss probability in `[0, 1]`: each of the two messages
    /// of an exchange is lost independently (see [`ExchangeFate`]).
    pub loss_rate: f64,
    /// Exchange repair policy (two-phase commit with retransmission);
    /// disabled by default.
    pub repair: ExchangeRepair,
    /// Worker threads a round runs on: `0` means "use
    /// [`std::thread::available_parallelism`]", `1` (the default) runs
    /// every phase inline on the calling thread. Thread count never
    /// affects results.
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

    /// Sets the worker-thread count (`0` = auto-detect); see
    /// [`EngineConfig::threads`].
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

/// Working memory of a round, owned by the engine and reused from round to
/// round: once the population is stable a round allocates nothing, and its
/// pages are touched for the first time only once per run.
#[derive(Default)]
struct RoundBuffers {
    /// Live ids in slot order.
    ids: Vec<NodeId>,
    /// [`Protocol::local`] reports, indexed by slot.
    reports: Vec<Option<LocalReport>>,
    /// The round's plan, aligned with `ids`: `plans[i]` is the exchange
    /// `ids[i]` initiates, if any. Never copied: batches refer to it by
    /// index.
    plans: Vec<Option<PlannedExchange>>,
    /// Colouring scratch: the first batch still free at each slot.
    next_batch: Vec<u32>,
    /// Batch of `plans[i]` ([`NO_BATCH`] where there is no exchange).
    batch_of: Vec<u32>,
    /// Width of each batch after [`colour`](RoundBuffers::colour); its end
    /// offset in `order` after [`sort_by_batch`](RoundBuffers::sort_by_batch).
    batches: Vec<u32>,
    /// Indices into `plans`, sorted by batch and by slot within a batch.
    order: Vec<u32>,
}

/// `batch_of` entry of a node that initiates no exchange.
const NO_BATCH: u32 = u32::MAX;

impl RoundBuffers {
    /// Greedily colours the plan into slot-disjoint batches: each exchange
    /// gets the earliest batch after the last one touching either
    /// endpoint. Within one batch every slot appears at most once, and two
    /// exchanges that share a slot get increasing batch numbers in slot
    /// order. Returns the widest batch.
    fn colour(&mut self, slot_count: usize) -> u32 {
        self.next_batch.clear();
        self.next_batch.resize(slot_count, 0);
        self.batch_of.clear();
        self.batches.clear();
        for plan in &self.plans {
            self.batch_of.push(match plan {
                None => NO_BATCH,
                Some(p) => {
                    let (i, j) = (p.initiator.slot(), p.partner.slot());
                    let b = self.next_batch[i].max(self.next_batch[j]);
                    self.next_batch[i] = b + 1;
                    self.next_batch[j] = b + 1;
                    if b as usize == self.batches.len() {
                        self.batches.push(0);
                    }
                    self.batches[b as usize] += 1;
                    b
                }
            });
        }
        self.batches.iter().copied().max().unwrap_or(0)
    }

    /// Counting sort of the coloured plan indices into `order`; stable, so
    /// a batch keeps slot order. Batch `b` is then
    /// `order[batches[b - 1]..batches[b]]`.
    fn sort_by_batch(&mut self) {
        let mut total = 0;
        for width in &mut self.batches {
            total += std::mem::replace(width, total);
        }
        self.order.clear();
        self.order.resize(total as usize, 0);
        for (i, &b) in self.batch_of.iter().enumerate() {
            if b != NO_BATCH {
                let at = &mut self.batches[b as usize];
                self.order[*at as usize] = i as u32;
                *at += 1;
            }
        }
    }
}

/// The cycle-driven simulator.
///
/// Each [`run_round`](Engine::run_round):
///
/// 1. applies churn (replacing departed nodes with fresh ones),
/// 2. runs overlay maintenance (view shuffling, if configured),
/// 3. runs the local, plan, absorb and apply phases described in the
///    module documentation: every live node that initiates picks one
///    partner from the state at the start of the round, and the planned
///    exchanges are applied in slot order.
pub struct Engine<P: Protocol> {
    protocol: P,
    nodes: NodeSlab<P::Node>,
    overlay: Overlay,
    churn: ChurnModel,
    churn_state: ChurnState,
    rng: StdRng,
    /// Base of the counter-based per-node streams of the local and plan
    /// phases; independent of `rng`, both derive from the master seed.
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
    buffers: RoundBuffers,
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
            buffers: RoundBuffers::default(),
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

    /// Runs a single round: churn and overlay maintenance (sequential,
    /// engine RNG), then the local, plan, absorb and apply phases of the
    /// module documentation.
    ///
    /// With one thread every phase runs inline and apply is a loop over
    /// the plan. With more, local and plan run slot-chunked across threads
    /// and apply runs the plan's colouring batch by batch: wide batches
    /// conflict-free across threads with traffic accumulated in per-thread
    /// [`NetShard`]s, narrow contended ones inline. The outcome is the
    /// serial one, bit for bit, at every thread count.
    pub fn run_round(&mut self) {
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
        let mut buf = std::mem::take(&mut self.buffers);

        // Local: exclusive per-node access, slot-chunked. Every live slot's
        // report is overwritten and only live slots' reports are read, so
        // the buffer only ever grows.
        buf.reports.resize(slot_count, None);
        {
            let protocol = &self.protocol;
            self.nodes
                .par_for_each_live_mut(threads, &mut buf.reports, |id, node| {
                    let mut rng =
                        par_stream_rng(par_seed, round, id.slot() as u64, PAR_PHASE_LOCAL);
                    protocol.local(id, node, round, &mut rng)
                });
        }

        // Plan: partner + fate selection, shared slab/overlay access.
        self.nodes.collect_ids(&mut buf.ids);
        buf.plans.resize(buf.ids.len(), None);
        {
            let nodes = &self.nodes;
            let overlay = &self.overlay;
            let reports = &buf.reports;
            let adversary = self.adversary;
            let plan = |id: NodeId| {
                if !reports[id.slot()].is_some_and(|r| r.initiates) {
                    return None;
                }
                let mut rng = par_stream_rng(par_seed, round, id.slot() as u64, PAR_PHASE_PLAN);
                // As in `Ctx::random_neighbour`, a targeted attacker aims
                // at the deterministic victim without consuming its stream.
                let partner = match targeted_victim(&adversary, nodes, id) {
                    Some(victim) => victim,
                    None => overlay.random_neighbour(id, nodes, &mut rng)?,
                };
                let outcome = sample_exchange(&mut rng, loss_rate, repair);
                Some(PlannedExchange {
                    initiator: id,
                    partner,
                    fate: outcome.fate,
                    request_msgs: outcome.request_msgs,
                    response_msgs: outcome.response_msgs,
                    attack: adversary
                        .as_ref()
                        .and_then(|adv| adv.plan(round, id.slot(), partner.slot())),
                })
            };
            executor::par_zip(&mut buf.ids, &mut buf.plans, threads, |_, ids, plans| {
                for (id, slot) in ids.iter().zip(plans) {
                    *slot = plan(*id);
                }
            });
        }

        // Absorb: local reports, sequentially, in slot order.
        self.with_ctx(|protocol, ctx| {
            for &id in &buf.ids {
                if let Some(report) = &buf.reports[id.slot()] {
                    protocol.absorb(id, report, ctx);
                }
            }
        });

        // Plan-derived telemetry (started/repaired/aborted events and
        // counters) in slot order, and the in-flight gauge: the widest
        // slot-disjoint batch, whether or not batches are what runs.
        let coloured = threads > 1 || self.telemetry.is_some();
        let widest = if coloured { buf.colour(slot_count) } else { 0 };
        if let Some(t) = self.telemetry.as_deref_mut() {
            for p in buf.plans.iter().flatten() {
                t.record_exchange_plan(round, p);
            }
            t.record_inflight_exchanges(u64::from(widest));
        }

        // Apply.
        if threads <= 1 {
            for p in buf.plans.iter().flatten() {
                self.apply_one(p);
            }
        } else {
            buf.sort_by_batch();
            let mut start = 0;
            for &end in &buf.batches {
                let batch = &buf.order[start as usize..end as usize];
                start = end;
                if batch.len() < PAR_APPLY_MIN_BATCH {
                    for &i in batch {
                        self.apply_one(buf.plans[i as usize].as_ref().expect("coloured"));
                    }
                } else {
                    self.apply_batch(&buf.plans, batch, threads);
                }
            }
        }
        self.buffers = buf;

        if let Some(t) = self.telemetry.as_deref_mut() {
            t.end_round(
                round,
                self.nodes.len() as u64,
                self.net.round_bytes(),
                self.net.round_msgs(),
            );
        }
        self.round += 1;
    }

    /// Applies one planned exchange on the driving thread.
    fn apply_one(&mut self, p: &PlannedExchange) {
        let Some((a, b)) = self.nodes.pair_mut(p.initiator, p.partner) else {
            return;
        };
        let traffic = self.protocol.apply(p, self.round, a, b);
        charge_traffic(p, traffic, |from, to, bytes| {
            self.net.charge_message(from, to, bytes)
        });
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.record_exchange_traffic(&traffic);
        }
    }

    /// Applies one slot-disjoint batch (indices into `plans`) across
    /// `threads` threads, accumulating traffic and telemetry in per-chunk
    /// shards merged in chunk order.
    fn apply_batch(&mut self, plans: &[Option<PlannedExchange>], batch: &[u32], threads: usize) {
        let round = self.round;
        let slot_count = self.nodes.slot_count();
        let protocol = &self.protocol;
        let raw = self.nodes.raw_slots();
        let tshard_seed = self.telemetry.as_deref().map(|t| t.shard());
        let histograms = self.telemetry.as_deref().map(|t| t.traffic_histograms());
        let shards = executor::par_chunks_map(batch, threads, |chunk| {
            let mut shard = NetShard::with_slots(slot_count);
            let mut tshard = tshard_seed.clone();
            for &i in chunk {
                let p = plans[i as usize].as_ref().expect("coloured");
                // SAFETY: slots within one batch are pairwise distinct by
                // construction, and batches are applied one at a time, so
                // these two borrows are the only live references to their
                // slots.
                let (Some(a), Some(b)) = (unsafe { raw.get_mut(p.initiator) }, unsafe {
                    raw.get_mut(p.partner)
                }) else {
                    continue;
                };
                let traffic = protocol.apply(p, round, a, b);
                if let (Some(ts), Some((hreq, hresp))) = (tshard.as_mut(), histograms) {
                    ts.record_traffic(&traffic, hreq, hresp);
                }
                charge_traffic(p, traffic, |from, to, bytes| {
                    shard.charge_message(from, to, bytes)
                });
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

    /// Runs `n` rounds.
    pub fn run_rounds(&mut self, n: u64) {
        for _ in 0..n {
            self.run_round();
        }
    }

    /// Alias of [`run_rounds`](Engine::run_rounds) from when the engine had
    /// a second, sequential round path; kept because `benchmark/` calls it.
    #[doc(hidden)]
    pub fn run_rounds_parallel(&mut self, n: u64) {
        self.run_rounds(n);
    }

    /// Replaces the worker-thread count (`0` = auto-detect); see
    /// [`EngineConfig::threads`].
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
    /// scenario-seeded streams (never the engine RNG).
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
    use crate::faults::{AdversaryModel, PartitionKind};
    use crate::overlay::OverlayKind;
    use crate::stats::NodeTraffic;

    /// Test protocol: push–pull averaging of a per-node value.
    struct Averaging {
        next_value: f64,
    }

    fn averaging(config: EngineConfig) -> Engine<Averaging> {
        Engine::new(config, Averaging { next_value: 0.0 })
    }

    impl Protocol for Averaging {
        type Node = f64;

        fn make_node(&mut self, _rng: &mut StdRng) -> f64 {
            self.next_value += 1.0;
            self.next_value
        }

        fn apply(
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
                }
                ExchangeFate::ResponseLost => *b = (*a + *b) / 2.0,
                ExchangeFate::RequestLost | ExchangeFate::Aborted => {}
            }
            ExchangeTraffic {
                request: Some(8),
                response: (plan.fate != ExchangeFate::RequestLost).then_some(8),
                ..ExchangeTraffic::default()
            }
        }
    }

    /// What a run leaves in the engine, for bit-exact comparisons.
    #[derive(Debug, PartialEq)]
    struct Observed {
        values: Vec<(usize, u64)>,
        totals: (u64, u64),
        per_node: Vec<NodeTraffic>,
        trace: Option<FaultTrace>,
    }

    /// Exported telemetry: counters, round snapshots, events.
    type Exported = (Vec<(String, u64)>, Vec<String>, Vec<String>);

    fn observe(
        config: EngineConfig,
        scenario: Option<&FaultScenario>,
        with_telemetry: bool,
        rounds: u64,
    ) -> (Observed, Option<Exported>) {
        let mut engine = averaging(config);
        if let Some(scenario) = scenario {
            engine.set_fault_scenario(scenario.clone()).unwrap();
        }
        if with_telemetry {
            engine.attach_telemetry(SimTelemetry::new());
        }
        engine.run_rounds(rounds);
        let exported = engine.detach_telemetry().map(|t| {
            let t = t.telemetry();
            (
                t.metrics
                    .counters()
                    .map(|(name, v)| (name.to_string(), v))
                    .collect(),
                t.snapshots().iter().map(|s| s.jsonl()).collect(),
                t.events.iter().map(|e| e.jsonl()).collect(),
            )
        });
        let observed = Observed {
            values: engine
                .nodes()
                .iter()
                .map(|(id, v)| (id.slot(), v.to_bits()))
                .collect(),
            totals: (engine.net().total_bytes(), engine.net().total_msgs()),
            per_node: engine
                .nodes()
                .ids()
                .map(|id| engine.net().node(id))
                .collect(),
            trace: engine.fault_trace().cloned(),
        };
        (observed, exported)
    }

    /// The serial slot-order loop (1 thread) and its coloured schedule
    /// (2 and 3 threads) leave the same node state, traffic tables, fault
    /// trace and exported telemetry, and attaching telemetry changes none
    /// of the first three. Returns the serial run.
    fn assert_serial_equals_coloured(
        config: EngineConfig,
        scenario: Option<&FaultScenario>,
        rounds: u64,
    ) -> (Observed, Exported) {
        let serial = observe(config.with_threads(1), scenario, true, rounds);
        for threads in [2, 3] {
            let coloured = observe(config.with_threads(threads), scenario, true, rounds);
            assert_eq!(coloured, serial, "threads={threads} diverged");
        }
        let bare = observe(config.with_threads(1), scenario, false, rounds);
        assert_eq!(bare.0, serial.0, "attaching telemetry changed the run");
        (serial.0, serial.1.expect("telemetry was attached"))
    }

    #[test]
    fn averaging_converges_to_global_mean() {
        for threads in [1, 4] {
            let mut engine = averaging(EngineConfig::new(128, 42).with_threads(threads));
            engine.run_rounds(60);
            let expected = 129.0 / 2.0;
            for (_, v) in engine.nodes().iter() {
                assert!((v - expected).abs() < 1e-9, "value {v} far from {expected}");
            }
        }
    }

    #[test]
    fn averaging_conserves_mass_every_round() {
        for threads in [1, 4] {
            let mut engine = averaging(EngineConfig::new(300, 7).with_threads(threads));
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
    }

    #[test]
    fn averaging_converges_on_shuffle_overlay_too() {
        let config = EngineConfig::new(128, 42).with_overlay(OverlayConfig {
            kind: OverlayKind::Shuffle,
            degree: 10,
            shuffle_len: 3,
        });
        let mut engine = averaging(config);
        engine.run_rounds(60);
        let expected = 129.0 / 2.0;
        for (_, v) in engine.nodes().iter() {
            assert!((v - expected).abs() < 1e-6, "value {v} far from {expected}");
        }
    }

    #[test]
    fn churn_keeps_population_constant() {
        let config = EngineConfig::new(100, 1).with_churn(ChurnModel::uniform(0.05));
        let mut engine = averaging(config);
        for _ in 0..50 {
            engine.run_round();
            assert_eq!(engine.nodes().len(), 100);
        }
    }

    #[test]
    fn session_churn_keeps_population_constant() {
        let config = EngineConfig::new(100, 2).with_churn(ChurnModel::sessions(10.0));
        let mut engine = averaging(config);
        for _ in 0..100 {
            engine.run_round();
            assert_eq!(engine.nodes().len(), 100);
        }
    }

    #[test]
    fn lossless_round_carries_one_exchange_per_node_at_any_thread_count() {
        for threads in [1, 2] {
            let mut engine = averaging(EngineConfig::new(10, 3).with_threads(threads));
            engine.run_round();
            // Every node initiates one exchange of 8+8 bytes.
            assert_eq!(engine.net().round_msgs(), 20);
            assert_eq!(engine.net().total_msgs(), 20);
            assert_eq!(engine.net().total_bytes(), 160);
        }
    }

    #[test]
    fn rounds_advance() {
        let mut engine = averaging(EngineConfig::new(4, 4));
        assert_eq!(engine.round(), 0);
        engine.run_rounds(5);
        assert_eq!(engine.round(), 5);
    }

    #[test]
    fn partitions_prevent_cross_group_averaging() {
        let mut engine = averaging(EngineConfig::new(200, 8));
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

    /// Implements only the required methods plus the membership hooks;
    /// a node's state counts the exchanges it initiated.
    #[derive(Default)]
    struct ApplyOnly {
        joins: usize,
        leaves: usize,
    }

    impl Protocol for ApplyOnly {
        type Node = u64;

        fn make_node(&mut self, _rng: &mut StdRng) -> u64 {
            0
        }

        fn apply(&self, _: &PlannedExchange, _: u64, a: &mut u64, _: &mut u64) -> ExchangeTraffic {
            *a += 1;
            ExchangeTraffic {
                request: Some(1),
                response: Some(1),
                ..ExchangeTraffic::default()
            }
        }

        fn on_join(&mut self, _id: NodeId, _ctx: &mut Ctx<'_, u64>) {
            self.joins += 1;
        }

        fn on_leave(&mut self, _id: NodeId, _node: u64) {
            self.leaves += 1;
        }
    }

    #[test]
    fn apply_only_protocol_initiates_one_exchange_per_live_node_per_round() {
        for threads in [1, 3] {
            let config = EngineConfig::new(150, 5).with_threads(threads);
            let mut engine = Engine::new(config, ApplyOnly::default());
            for round in 1..=10 {
                engine.run_round();
                assert_eq!(engine.net().round_msgs(), 300);
                assert!(engine.nodes().iter().all(|(_, n)| *n == round));
            }
        }
    }

    #[test]
    fn join_and_leave_hooks_fire_under_churn_at_any_thread_count() {
        let config = EngineConfig::new(200, 5).with_churn(ChurnModel::uniform(0.01));
        let counts = [1, 4].map(|threads| {
            let mut engine = Engine::new(config.with_threads(threads), ApplyOnly::default());
            engine.run_rounds(50);
            (engine.protocol().joins, engine.protocol().leaves)
        });
        let (joins, leaves) = counts[0];
        assert_eq!(joins, leaves);
        // 1%/round * 200 nodes * 50 rounds = ~100 replacements.
        assert!((80..=120).contains(&joins), "joins {joins}");
        assert_eq!(counts[1], counts[0]);
    }

    #[test]
    fn serial_order_equals_coloured_schedule_under_maximal_conflict() {
        // 30 % of the nodes are attackers and every one of them targets
        // slot 0, so their exchanges chain through one node: one batch per
        // attacker, narrow ones applied inline between the wide honest
        // batches that go to the workers.
        let model = AdversaryModel::TargetedPartner { magnitude: 5.0 };
        let scenario = FaultScenario::new(77).with_adversary(2, 12, 0.3, model);
        let config = EngineConfig::new(300, 19).with_loss_rate(0.05);
        let (serial, _) = assert_serial_equals_coloured(config, Some(&scenario), 15);
        let attackers = serial.trace.unwrap().records[0].byzantine as usize;
        assert!(attackers > 60, "{attackers} attackers");

        let mut engine = averaging(config.with_threads(2));
        engine.set_fault_scenario(scenario).unwrap();
        engine.run_rounds(3);
        let batches = engine.buffers.batches.len();
        assert!(
            batches >= attackers,
            "{batches} batches, {attackers} attackers"
        );
        // Everyone an attacker: the whole round is one chain through slot 0.
        let all = FaultScenario::new(78).with_adversary(0, 10, 1.0, model);
        assert_serial_equals_coloured(EngineConfig::new(80, 20), Some(&all), 10);
    }

    fn crash_scenario() -> FaultScenario {
        FaultScenario::new(99)
            .with_burst_loss(3, 8, 0.4)
            .with_partition(5, 12, PartitionKind::Bisect)
            .with_crash_recover(2, 9, 0.2)
    }

    #[test]
    fn serial_order_equals_coloured_schedule_under_loss_repair_crashes_and_churn() {
        let shuffle = OverlayConfig {
            kind: OverlayKind::Shuffle,
            degree: 10,
            shuffle_len: 3,
        };
        let config = EngineConfig::new(300, 11)
            .with_churn(ChurnModel::uniform(0.02))
            .with_loss_rate(0.05);
        for config in [
            config.with_repair(ExchangeRepair::enabled()),
            config.with_overlay(shuffle),
        ] {
            let (serial, exported) =
                assert_serial_equals_coloured(config, Some(&crash_scenario()), 20);
            assert!(!serial.trace.unwrap().is_empty());
            assert_eq!(exported.1.len(), 20, "one snapshot per round");
            assert!(!exported.2.is_empty(), "events recorded");
        }
    }

    #[test]
    fn serial_order_equals_coloured_schedule_at_degenerate_sizes() {
        // n = 1: no neighbour, so every round's plan is empty.
        let (lone, _) = assert_serial_equals_coloured(EngineConfig::new(1, 3), None, 5);
        assert_eq!(lone.totals, (0, 0));
        for n in [2, 3] {
            let config = EngineConfig::new(n, 3).with_loss_rate(0.2);
            let (run, _) = assert_serial_equals_coloured(config, None, 10);
            assert!(run.totals.1 > 0);
            let everyone = AdversaryModel::TargetedPartner { magnitude: 1.0 };
            let scenario = FaultScenario::new(5).with_adversary(0, 10, 1.0, everyone);
            assert_serial_equals_coloured(config, Some(&scenario), 10);
        }
    }

    #[test]
    fn same_config_twice_is_identical() {
        for threads in [1, 4] {
            let config = EngineConfig::new(200, 9)
                .with_churn(ChurnModel::uniform(0.01))
                .with_threads(threads);
            assert_eq!(
                observe(config, None, false, 30),
                observe(config, None, false, 30)
            );
        }
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
        let mut engine = averaging(config);
        for round in 0..60 {
            if round % 10 == 0 {
                engine.set_churn(ChurnModel::sessions(5.0));
            }
            engine.run_round();
            assert_eq!(engine.nodes().len(), 100, "round {round}");
        }
    }

    #[test]
    fn crash_recover_restores_population() {
        let mut engine = averaging(EngineConfig::new(100, 21));
        engine
            .set_fault_scenario(FaultScenario::new(5).with_crash_recover(2, 5, 0.2))
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
        let mut engine = averaging(EngineConfig::new(64, 22));
        engine
            .set_fault_scenario(FaultScenario::new(4).with_partition(
                1,
                3,
                PartitionKind::Islands(4),
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
        let mut engine = averaging(EngineConfig::new(50, 23).with_loss_rate(0.01));
        engine
            .set_fault_scenario(FaultScenario::new(6).with_burst_loss(1, 3, 0.9))
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
    fn repair_conserves_mass_under_loss() {
        // With repair enabled an exchange either completes on both sides
        // or aborts with no state change, so the global sum is exact even
        // at 30% loss; without repair the asymmetric ResponseLost path
        // leaks mass almost surely.
        let repaired = EngineConfig::new(200, 13)
            .with_loss_rate(0.3)
            .with_repair(ExchangeRepair::enabled())
            .with_threads(2);
        let mut engine = averaging(repaired);
        let initial: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        engine.run_rounds(30);
        let sum: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        assert!(
            (sum - initial).abs() < 1e-6,
            "repaired path leaked mass: {sum} vs {initial}"
        );

        let unrepaired = EngineConfig::new(200, 13)
            .with_loss_rate(0.3)
            .with_threads(2);
        let mut engine = averaging(unrepaired);
        let initial: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        engine.run_rounds(30);
        let sum: f64 = engine.nodes().iter().map(|(_, v)| *v).sum();
        assert!(
            (sum - initial).abs() > 1e-3,
            "unrepaired path should visibly drift: {sum} vs {initial}"
        );
    }
}
