//! Event-driven simulation: asynchronous messages with latency.
//!
//! The cycle-driven [`Engine`](crate::Engine) models PeerSim's synchronous
//! rounds where a push–pull exchange is *atomic*. Real networks are not
//! synchronous: a request and its response are separate messages with
//! latency, gossip timers drift, and concurrent exchanges interleave. This
//! module provides PeerSim's *other* execution model — an event queue with
//! per-message latencies — so protocols can be validated against the
//! asynchrony the cycle model hides (e.g. the mass-conservation variance
//! of non-atomic push–pull averaging, Jelasity et al. 2005, §4).
//!
//! Time is measured in abstract *ticks* (1 tick ≈ 1 ms at the paper's 1 s
//! gossip period with `gossip_period = 1000`).
//!
//! # Execution
//!
//! Future events live in a sharded [`TimerWheel`] (O(1) push/pop, buckets
//! per tick, shards by destination slot range).
//! [`EventEngine::run_until_parallel`] is the one driver that drains it;
//! `threads = 1` is simply the sequential case. Time advances in
//! *lookahead windows*, each processed as one batch in three phases
//! mirroring `Engine::run_round`: a sequential pre-pass (drop
//! events for dead nodes, suppress fault-injected duplicate copies,
//! canonical delivery accounting), a parallel compute phase over the
//! slot-disjoint wheel shards (per-event RNG streams derived from `(seed,
//! tick, slot, seq)` counters, never from the thread), and a sequential
//! merge that applies sends, faults, and timer reschedules in canonical
//! `(tick, shard, seq)` order. Every mutation order is
//! thread-count-invariant, so results are bit-identical for any `threads`
//! setting (asserted by tests below).
//!
//! # Lookahead windows
//!
//! A window starting at tick `t` covers `[t, min(t + L, next gossip-period
//! boundary, until + 1))` with `L = max(1, minimum sampled latency)`.
//! Nothing processed inside a window can schedule into it: a send lands at
//! least `L` ticks after the tick that sent it (fault-injected delay only
//! adds), a timer reschedules one whole period later, and crashes,
//! admissions and drift happen only when a new period is entered — always
//! a window's first tick, before the window is drained. The whole window
//! can therefore be taken off the wheel up front: the pre-pass runs
//! tick-major over it, each worker runs its shards' buckets tick by tick
//! (one walk per shard and window, see below; one fork–join per window
//! instead of one per tick — at 95 µs per
//! two-spawn scope and ≈ 300 events per tick that was a fifth of the wall
//! time, and made a second thread a loss), and the merge replays the
//! recorded effects tick by tick with `now` set to each tick in turn. The
//! engine-RNG draws, wheel stamps, send stamps, dedup decisions and
//! counters are exactly those of processing every tick as its own batch,
//! which is what `L = 1` (e.g. `Fixed(1)`) degenerates to; how a run is
//! cut into `run_until_parallel` calls does not matter either, as long as
//! every period boundary tick carries an event (any run dense enough to
//! be interesting; a sparse run enters a new period at its first event).
//! Debug builds assert that no merge-phase push lands at or before the
//! last drained tick.
//!
//! # Phase 2: hiding memory latency
//!
//! At 10⁵ nodes an event's state is cold, and each load depends on the one
//! before: the target's slab payload, then its instance buffer, then its
//! fraction vectors; the message's entry buffer, then its fraction
//! vectors. The window is drained before phase 2 starts, so every address
//! a worker will read is known ahead. Each worker therefore hands each of
//! its shards' windows to the cycle engine's apply walker
//! (`walk_prefetched`, through `walk_window`) as one sequence of events
//! in `(tick, seq)` order across the window's buckets — a bucket holds only
//! ≈ 40 events at 10⁵ nodes, so a walk restarted in each bucket would
//! spend half of it priming. Just before event `k` is handled, event
//! `k + 3 D` gets its target's slab payload and its message's entry buffer
//! hinted, `k + 2 D` the target's instance buffer and the message's
//! fraction vectors ([`AsyncProtocol::prefetch`] /
//! [`prefetch_message`](AsyncProtocol::prefetch_message)), and `k + D` the
//! target's fraction vectors (`D` = 6). Below 8 192 live nodes
//! (`PREFETCH_MIN_NODES`, the cycle engine's gate) the state stays cached
//! and the walk is the plain loop. A hint has no architectural
//! effect and the hooks only read, and the walk hands the events over in
//! exactly the plain loop's order, so hinting changes no result.
//!
//! Duplicate suppression lives here and only here: a send the fault
//! injector duplicated has exactly two copies in flight under one stamp,
//! the pre-pass delivers the first to arrive and drops the second, and
//! protocols never see the same send twice.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::RngExt as _;

use crate::engine::{
    prefetch, walk_prefetched, PrefetchStage, SimConfigError, WalkStep, PREFETCH_MIN_NODES,
};
use crate::faults::{ActiveAdversary, DriftOp, FaultHost, FaultRuntime, FaultScenario, FaultTrace};
use crate::node::{NodeId, NodeSlab, PeerView, RawSlots};
use crate::rng::{derive_seed, par_stream_rng, seeded_rng};
use crate::stats::NetStats;
use crate::telemetry::SimTelemetry;
use crate::wheel::TimerWheel;

/// Destination-slot shards in the timer wheel; also the unit of parallel
/// work in [`EventEngine::run_until_parallel`].
const EVENT_SHARDS: usize = 8;

/// Seed stream separating batch-mode per-event RNGs from the engine RNG
/// (ASCII "evnt").
const EVENT_PAR_STREAM: u64 = 0x65766e74;

/// Message latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks.
    Fixed(u64),
    /// Uniform latency in `[min, max]` ticks.
    Uniform {
        /// Minimum latency.
        min: u64,
        /// Maximum latency.
        max: u64,
    },
}

impl LatencyModel {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            LatencyModel::Fixed(t) => *t,
            LatencyModel::Uniform { min, max } => {
                if min == max {
                    *min
                } else {
                    rng.random_range(*min..=*max)
                }
            }
        }
    }

    /// Lower bound on a sampled latency (the lookahead of a window).
    fn min_ticks(&self) -> u64 {
        match self {
            LatencyModel::Fixed(t) => *t,
            LatencyModel::Uniform { min, .. } => *min,
        }
    }

    /// Upper bound on a sampled latency (used to size the wheel horizon).
    fn max_ticks(&self) -> u64 {
        match self {
            LatencyModel::Fixed(t) => *t,
            LatencyModel::Uniform { max, .. } => *max,
        }
    }
}

/// Configuration of the event-driven engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// Initial number of nodes.
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Gossip timer period in ticks (each node fires once per period, with
    /// a random initial phase).
    pub gossip_period: u64,
    /// Message latency model.
    pub latency: LatencyModel,
    /// Probability that any individual message is lost in transit.
    pub loss_rate: f64,
    /// Worker threads for [`EventEngine::run_until_parallel`]. Results are
    /// bit-identical for every value; `<= 1` runs inline.
    pub threads: usize,
}

impl EventConfig {
    /// A configuration with 1000-tick periods and 10–150-tick uniform
    /// latency (a wide-area network at a 1 s gossip period).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "n must be positive");
        Self {
            n,
            seed,
            gossip_period: 1000,
            latency: LatencyModel::Uniform { min: 10, max: 150 },
            loss_rate: 0.0,
            threads: 1,
        }
    }

    /// Replaces the gossip period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_gossip_period(mut self, period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        self.gossip_period = period;
        self
    }

    /// Replaces the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the message loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1]`.
    pub fn with_loss_rate(mut self, loss_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_rate),
            "loss_rate must be in [0, 1]"
        );
        self.loss_rate = loss_rate;
        self
    }

    /// Sets the worker-thread count for the parallel batch driver.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the configuration. [`EventEngine::try_new`] calls this;
    /// use it directly to vet configs built by struct literal. In
    /// particular a `Uniform` latency with `min > max` is rejected here
    /// rather than silently degrading to `min` at sample time.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.n == 0 {
            return Err(SimConfigError::new("n must be positive"));
        }
        if self.gossip_period == 0 {
            return Err(SimConfigError::new("gossip_period must be positive"));
        }
        if !self.loss_rate.is_finite() || !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(SimConfigError::new(format!(
                "loss_rate {} must be in [0, 1]",
                self.loss_rate
            )));
        }
        if let LatencyModel::Uniform { min, max } = self.latency {
            if min > max {
                return Err(SimConfigError::new(format!(
                    "uniform latency min {min} exceeds max {max}"
                )));
            }
        }
        Ok(())
    }
}

/// An asynchronous protocol driven by the [`EventEngine`].
///
/// Handlers take `&self` (they run concurrently on slot-disjoint node
/// chunks) and a `&mut` to exactly the node the event targets.
/// Whole-protocol mutations are deferred: handlers accumulate them into a
/// per-shard [`Report`](AsyncProtocol::Report), which the engine feeds to
/// [`absorb_report`](AsyncProtocol::absorb_report) sequentially in
/// canonical shard order after the parallel phase joins — once per shard
/// per lookahead window, so one report may span several ticks.
///
/// Implementations must derive any randomness from the per-event RNG in
/// [`BatchCtx`] (a counter-based stream keyed on `(tick, slot, seq)`),
/// never from shared state — that is what makes runs bit-identical across
/// thread counts.
pub trait AsyncProtocol {
    /// Per-node protocol state.
    type Node;
    /// Message type exchanged between nodes. `Clone` lets the engine's
    /// fault injector deliver duplicates.
    type Message: Clone;
    /// Per-shard accumulator for deferred whole-protocol mutations
    /// (completion counts, robust-merge statistics, ...).
    type Report: Default + Send;

    /// Creates the state of a fresh node.
    fn make_node(&mut self, rng: &mut StdRng) -> Self::Node;

    /// The node's gossip timer fired.
    fn on_timer(
        &self,
        id: NodeId,
        node: &mut Self::Node,
        ctx: &mut BatchCtx<'_, '_, Self::Message>,
        report: &mut Self::Report,
    );

    /// A message arrived. The engine has already suppressed fault-injected
    /// duplicate copies, so the handler never sees the same send twice.
    fn on_message(
        &self,
        id: NodeId,
        node: &mut Self::Node,
        from: NodeId,
        message: Self::Message,
        ctx: &mut BatchCtx<'_, '_, Self::Message>,
        report: &mut Self::Report,
    );

    /// Calls [`prefetch`](crate::prefetch) on the part of an event's target
    /// `node` that `stage` names, a few events before a handler reads it,
    /// on the thread that will handle the event, once the population
    /// outgrows a core's caches; mirrors `Protocol::prefetch` on the cycle
    /// engine. It only reads; the event may be skipped, or earlier ones
    /// change `node` first. The default does nothing.
    fn prefetch(&self, node: &Self::Node, stage: PrefetchStage) {
        let _ = (node, stage);
    }

    /// The same for the part of a delivered `message` that `stage` names.
    /// A message sits in its drained bucket, so its headers are hinted
    /// together with the target's slot and its bodies with the target's
    /// headers. The default does nothing.
    fn prefetch_message(&self, message: &Self::Message, stage: PrefetchStage) {
        let _ = (message, stage);
    }

    /// Folds one shard's report into the protocol, in canonical shard
    /// order. Runs sequentially after the parallel phase, once per shard
    /// per lookahead window: a report accumulates every tick of its window
    /// (one tick when the latency model allows no lookahead), so folding
    /// must not depend on how ticks are grouped.
    fn absorb_report(&mut self, report: Self::Report);

    /// Applies one attribute-drift operation to a live node (fault
    /// injection under a [`crate::FaultEvent::Drift`] window), mirroring
    /// `Protocol::drift_node` on the cycle engine. `rng` is the
    /// scenario-seeded drift stream. The default ignores drift.
    fn drift_node(&mut self, id: NodeId, node: &mut Self::Node, op: DriftOp, rng: &mut StdRng) {
        let _ = (id, node, op, rng);
    }
}

/// Execution context of [`EventEngine::with_ctx`]: whole-slab access
/// between events, for drivers that set protocol state up deterministically
/// (e.g. enrolling an instance's initiator).
pub struct EventCtx<'a, N> {
    /// Current simulation time in ticks.
    pub now: u64,
    /// The gossip-period window (fault *round*) containing `now`.
    pub round: u64,
    /// All live nodes.
    pub nodes: &'a mut NodeSlab<N>,
    /// Engine RNG.
    pub rng: &'a mut StdRng,
}

/// Execution context for [`AsyncProtocol`] event handlers.
///
/// It exposes no slab access (workers own disjoint node chunks through the
/// engine, not the context) and no engine RNG: randomness comes from a
/// private per-event stream seeded by `(seed, tick, slot, seq)`, and sends
/// are buffered for the sequential merge phase where network accounting
/// and fault injection happen in canonical order.
pub struct BatchCtx<'a, 'o, M> {
    now: u64,
    round: u64,
    adversary: Option<ActiveAdversary>,
    stamp: u64,
    rng: StdRng,
    peers: PeerView<'a>,
    ops: &'o mut VecDeque<MergeOp<M>>,
}

impl<M> BatchCtx<'_, '_, M> {
    /// Current simulation time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The gossip-period window (fault *round*) containing `now`.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The Byzantine adversary active in this window, if any.
    pub fn adversary(&self) -> Option<ActiveAdversary> {
        self.adversary
    }

    /// The globally unique, thread-count-invariant sequence stamp of the
    /// event being handled. Protocols needing a deterministic nonce (e.g.
    /// a message sequence number) use this instead of a shared counter.
    pub fn event_stamp(&self) -> u64 {
        self.stamp
    }

    /// The per-event RNG stream.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Number of live nodes.
    pub fn live_len(&self) -> usize {
        self.peers.len()
    }

    /// Whether `id` refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.peers.contains(id)
    }

    /// Sends `message` of `bytes` from `from` to `to`. The send is applied
    /// (charged, fault-checked, scheduled) during the sequential merge.
    pub fn send(&mut self, from: NodeId, to: NodeId, message: M, bytes: usize) {
        self.ops.push_back(MergeOp::Send {
            from,
            to,
            message,
            bytes,
        });
    }

    /// Draws a uniformly random live node other than `of` (the idealised
    /// peer-sampling service).
    ///
    /// Mirrors `Ctx::random_neighbour` on the cycle engine: a Byzantine
    /// `of` under a targeted-partner adversary deterministically aims at
    /// the lowest live slot instead of sampling, consuming no RNG.
    pub fn random_neighbour(&mut self, of: NodeId) -> Option<NodeId> {
        if let Some(adv) = &self.adversary {
            if adv.model.targets_partner() && adv.is_byzantine(of.slot()) {
                if let Some(victim) = self.peers.lowest_other(of) {
                    return Some(victim);
                }
            }
        }
        self.peers.random_other(of, &mut self.rng)
    }
}

#[derive(Debug)]
enum Event<M> {
    Timer(NodeId),
    Deliver {
        from: NodeId,
        to: NodeId,
        message: M,
        /// Per-send stamp shared by fault-injected duplicate copies, so
        /// the pre-pass can suppress redelivery without protocol
        /// cooperation.
        send_seq: u64,
    },
}

/// A deferred effect recorded by a batch worker, applied in the merge
/// phase. Per-shard op queues preserve each event's own ordering (sends
/// first, then the timer reschedule) and each window tick's ops end with a
/// [`MergeOp::TickEnd`], so the merge can interleave the shards tick by
/// tick.
enum MergeOp<M> {
    Send {
        from: NodeId,
        to: NodeId,
        message: M,
        bytes: usize,
    },
    Timer(NodeId),
    TickEnd,
}

impl<M> Event<M> {
    /// The node the event is handled at.
    fn target(&self) -> NodeId {
        match self {
            Event::Timer(id) => *id,
            Event::Deliver { to, .. } => *to,
        }
    }
}

/// One drained wheel bucket: `(seq stamp, event)` in stamp order.
type Bucket<M> = VecDeque<(u64, Event<M>)>;

/// One shard's batch-phase output: recorded effects in `(tick, seq)` order
/// plus the shard's protocol report, accumulated over the window; and the
/// shard's bucket lengths, scratch of [`walk_window`].
type ShardBatch<M, R> = (VecDeque<MergeOp<M>>, R, Vec<usize>);

/// One step of [`walk_window`].
enum WindowStep<'e, M> {
    /// A hint step ([`WalkStep::Payloads`] or [`WalkStep::Hint`]) for an
    /// event ahead.
    Hint(&'e Event<M>, WalkStep),
    /// Handle this event, with its tick and stamp.
    Handle(u64, u64, Event<M>),
    /// The next bucket of the window, in order, is done.
    TickEnd,
}

/// Walks one shard's window, its bucket of each of `ticks` in turn,
/// through [`walk_prefetched`]: one walk across bucket boundaries, so the
/// hints run ahead into the next tick's bucket instead of priming again in
/// each one. Every event is handed over by value in `(tick, seq)` order,
/// and every bucket, empty or not, ends with its tick end. Leaves the
/// buckets empty; `lens` is scratch.
fn walk_window<M>(
    ticks: &[u64],
    buckets: &mut [Bucket<M>],
    lens: &mut Vec<usize>,
    hint: bool,
    mut step: impl FnMut(WindowStep<'_, M>),
) {
    let buckets = &mut buckets[..ticks.len()];
    lens.clear();
    lens.extend(buckets.iter().map(VecDeque::len));
    let positions = lens
        .iter()
        .enumerate()
        .flat_map(|(nth, &len)| (0..len).map(move |i| (nth, i)));
    let mut ended = 0;
    walk_prefetched(positions, hint, |(nth, i), walk| {
        let (seq, event) = &mut buckets[nth][i];
        if walk != WalkStep::Apply {
            return step(WindowStep::Hint(event, walk));
        }
        (ended..nth).for_each(|_| step(WindowStep::TickEnd));
        ended = nth;
        // A timer of the same target holds the place: the bucket is
        // cleared below, and the hints never look behind the walk.
        let event = std::mem::replace(event, Event::Timer(event.target()));
        step(WindowStep::Handle(ticks[nth], *seq, event));
    });
    (ended..buckets.len()).for_each(|_| step(WindowStep::TickEnd));
    buckets.iter_mut().for_each(VecDeque::clear);
}

/// One hint step for an event ahead: its target's slot and its message's
/// headers, or the target's headers and the message's bodies, or the
/// target's bodies.
///
/// # Safety
///
/// No exclusive borrow of the target's slot may be alive.
unsafe fn hint_event<P: AsyncProtocol>(
    protocol: &P,
    event: &Event<P::Message>,
    step: WalkStep,
    nodes: &RawSlots<'_, P::Node>,
) {
    use PrefetchStage::*;
    let slot = nodes.peek_slot(event.target().slot());
    let message = match event {
        Event::Deliver { message, .. } => Some(message),
        Event::Timer(_) => None,
    };
    match step {
        WalkStep::Payloads => {
            prefetch(std::slice::from_ref(slot));
            if let Some(message) = message {
                protocol.prefetch_message(message, Headers);
            }
        }
        WalkStep::Hint(Headers) => {
            if let Some(node) = slot {
                protocol.prefetch(node, Headers);
            }
            if let Some(message) = message {
                protocol.prefetch_message(message, Bodies);
            }
        }
        WalkStep::Hint(Bodies) => {
            if let Some(node) = slot {
                protocol.prefetch(node, Bodies);
            }
        }
        WalkStep::Apply => {}
    }
}

/// Per-window state of [`EventEngine::run_until_parallel`], reused from
/// window to window so a steady-state window allocates nothing.
struct WindowScratch<M, R> {
    /// The window's non-empty ticks, ascending.
    ticks: Vec<u64>,
    /// Per wheel shard, its bucket of each drained tick (`ticks` order).
    /// Empty between windows; the drain swaps them with ring buckets, so
    /// the capacity they grew goes back into the wheel.
    buckets: Vec<Vec<Bucket<M>>>,
    /// Per wheel shard, the compute phase's output.
    batches: Vec<ShardBatch<M, R>>,
}

impl<M, R> Default for WindowScratch<M, R> {
    fn default() -> Self {
        Self {
            ticks: Vec::new(),
            buckets: Vec::new(),
            batches: Vec::new(),
        }
    }
}

/// Exclusive end of the lookahead window that starts at tick `start`: at
/// most `lookahead` ticks, never across a gossip-period boundary (faults
/// and telemetry windows change there) and never past `until`.
fn window_end(start: u64, lookahead: u64, period: u64, until: u64) -> u64 {
    let boundary = (start / period + 1) * period;
    (start + lookahead)
        .min(boundary)
        .min(until.saturating_add(1))
}

/// The event-driven engine: a sharded timer wheel over the same node slab
/// and accounting as the cycle-driven engine.
pub struct EventEngine<P: AsyncProtocol> {
    protocol: P,
    nodes: NodeSlab<P::Node>,
    config: EventConfig,
    rng: StdRng,
    now: u64,
    wheel: TimerWheel<Event<P::Message>>,
    /// Stamp for the next send (shared by a message and its duplicates).
    send_seq: u64,
    /// Stamps of duplicated sends with a copy still in flight, mapped to
    /// whether the first copy has been delivered. An entry is forgotten
    /// when the second copy arrives or a copy finds its target dead, so
    /// the map is bounded by the duplicates actually in flight.
    dup_in_flight: HashMap<u64, bool>,
    dup_dropped: u64,
    net: NetStats,
    /// Effective loss rate of the current fault round (bursts override the
    /// configured rate).
    loss_rate: f64,
    delivered: u64,
    lost: u64,
    duplicated: u64,
    faults: Option<FaultRuntime>,
    /// First fault round (gossip-period window) not yet processed by
    /// `advance_faults`.
    next_fault_round: u64,
    telemetry: Option<Box<SimTelemetry>>,
    /// First window (gossip period) not yet snapshotted.
    next_window: u64,
    /// Traffic totals at the last window boundary.
    win_bytes: u64,
    win_msgs: u64,
    window: WindowScratch<P::Message, P::Report>,
}

impl<P: AsyncProtocol> EventEngine<P> {
    /// Builds the engine, creating `config.n` nodes and scheduling their
    /// first gossip timers at random phases within one period.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`EventConfig::validate`]);
    /// use [`EventEngine::try_new`] for a `Result`.
    pub fn new(config: EventConfig, protocol: P) -> Self {
        Self::try_new(config, protocol).expect("invalid event-engine config")
    }

    /// Builds the engine, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the [`EventConfig::validate`] error for an invalid config.
    pub fn try_new(config: EventConfig, mut protocol: P) -> Result<Self, SimConfigError> {
        config.validate()?;
        let mut rng = seeded_rng(config.seed);
        let mut nodes = NodeSlab::with_capacity(config.n);
        for _ in 0..config.n {
            let state = protocol.make_node(&mut rng);
            nodes.insert(state);
        }
        // Horizon covering one period plus the worst regular latency: only
        // fault-injected delays overflow to the wheel's slow level.
        let horizon = config.gossip_period + config.latency.max_ticks() + 2;
        let mut engine = Self {
            protocol,
            nodes,
            config,
            rng,
            now: 0,
            wheel: TimerWheel::new(horizon, EVENT_SHARDS),
            send_seq: 0,
            dup_in_flight: HashMap::new(),
            dup_dropped: 0,
            net: NetStats::new(),
            loss_rate: config.loss_rate,
            delivered: 0,
            lost: 0,
            duplicated: 0,
            faults: None,
            next_fault_round: 0,
            telemetry: None,
            next_window: 0,
            win_bytes: 0,
            win_msgs: 0,
            window: WindowScratch::default(),
        };
        for id in engine.nodes.id_vec() {
            let phase = engine.rng.random_range(0..engine.config.gossip_period);
            engine.schedule_timer(phase, id);
        }
        Ok(engine)
    }

    fn schedule_timer(&mut self, at: u64, id: NodeId) {
        self.wheel.push(at, id.slot() as u32, Event::Timer(id));
    }

    /// Schedules an effect of the merge phase. Everything a window produces
    /// lands after the window (module docs); an event pushed at or before
    /// the last drained tick would silently run out of order.
    fn schedule_from_merge(&mut self, at: u64, slot: usize, event: Event<P::Message>) {
        debug_assert!(
            at > self.wheel.cursor(),
            "merge-phase push at tick {at} lands inside the window drained up to tick {}",
            self.wheel.cursor()
        );
        self.wheel.push(at, slot as u32, event);
    }

    /// Attaches a [`FaultScenario`] (validated first): burst-loss windows
    /// override the configured loss rate, delay windows add delivery
    /// latency, duplication windows deliver extra message copies,
    /// partitions drop cross-group messages, crash waves remove nodes and
    /// recoveries re-insert them, and adversary windows activate Byzantine
    /// behaviour. Fault round windows are mapped to ticks via the gossip
    /// period. Replaces any previous scenario and clears its trace.
    pub fn set_fault_scenario(&mut self, scenario: FaultScenario) -> Result<(), SimConfigError> {
        scenario.validate()?;
        self.faults = Some(FaultRuntime::new(scenario));
        self.next_fault_round = self.now / self.config.gossip_period;
        Ok(())
    }

    /// The trace of injected round-windowed faults, if a scenario is
    /// attached. Identical at any thread count.
    pub fn fault_trace(&self) -> Option<&FaultTrace> {
        self.faults.as_ref().map(|rt| &rt.trace)
    }

    /// Messages duplicated by the fault injector so far.
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated
    }

    /// Duplicate copies suppressed so far: the second copy of every
    /// duplicated send whose target was still live.
    pub fn dup_dropped_count(&self) -> u64 {
        self.dup_dropped
    }

    /// Attaches a telemetry store. The engine records delivery/loss/
    /// duplication counters into it and emits one
    /// [`RoundSnapshot`](adam2_telemetry::RoundSnapshot) per elapsed
    /// gossip period; recording is purely observational and never consumes
    /// engine RNG, so attaching telemetry leaves the simulation
    /// bit-identical.
    pub fn attach_telemetry(&mut self, telemetry: SimTelemetry) {
        self.next_window = self.now / self.config.gossip_period;
        self.win_bytes = self.net.total_bytes();
        self.win_msgs = self.net.total_msgs();
        self.telemetry = Some(Box::new(telemetry));
    }

    /// Detaches and returns the telemetry store, if any.
    pub fn detach_telemetry(&mut self) -> Option<SimTelemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// The attached telemetry store, if any.
    pub fn telemetry(&self) -> Option<&SimTelemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable access to the attached telemetry store, if any.
    pub fn telemetry_mut(&mut self) -> Option<&mut SimTelemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Emits snapshots for every gossip-period window that has fully
    /// elapsed. Windows carry per-window traffic deltas; window `w` covers
    /// ticks `[w * period, (w + 1) * period)`. A no-op without telemetry.
    fn roll_windows(&mut self) {
        if self.telemetry.is_none() {
            return;
        }
        let period = self.config.gossip_period;
        while (self.next_window + 1) * period <= self.now {
            let bytes = self.net.total_bytes();
            let msgs = self.net.total_msgs();
            let live = self.nodes.len() as u64;
            let t = self.telemetry.as_deref_mut().expect("checked above");
            t.end_round(
                self.next_window,
                live,
                bytes - self.win_bytes,
                msgs - self.win_msgs,
            );
            self.win_bytes = bytes;
            self.win_msgs = msgs;
            self.next_window += 1;
        }
    }

    /// Emits a [`RoundSnapshot`](adam2_telemetry::RoundSnapshot) for the
    /// current *partial* window (full windows are emitted automatically as
    /// time advances). Useful at the end of a run to capture the tail. A
    /// no-op without telemetry.
    pub fn snapshot_telemetry(&mut self) {
        if self.telemetry.is_none() {
            return;
        }
        self.roll_windows();
        let bytes = self.net.total_bytes();
        let msgs = self.net.total_msgs();
        let live = self.nodes.len() as u64;
        let window = self.next_window;
        let t = self.telemetry.as_deref_mut().expect("checked above");
        t.end_round(window, live, bytes - self.win_bytes, msgs - self.win_msgs);
        self.win_bytes = bytes;
        self.win_msgs = msgs;
        self.next_window = window + 1;
    }

    /// Fault-adjusted (loss, extra delay, duplication) parameters for the
    /// current tick's round.
    fn fault_params(&self) -> (f64, u64, f64) {
        let round = self.now / self.config.gossip_period;
        let (extra_delay, dup_rate) = match &self.faults {
            Some(rt) => (
                rt.scenario.extra_delay_at(round),
                rt.scenario.duplication_rate_at(round),
            ),
            None => (0, 0.0),
        };
        (self.loss_rate, extra_delay, dup_rate)
    }

    /// The Byzantine adversary covering the current tick's round, if any.
    fn current_adversary(&self) -> Option<ActiveAdversary> {
        let round = self.now / self.config.gossip_period;
        self.faults
            .as_ref()
            .and_then(|rt| rt.scenario.adversary_at(round))
    }

    /// Applies the round-windowed faults (see
    /// [`FaultRuntime::begin_round`]) of every gossip-period window
    /// entered since the last call. Runs at sequential points of the
    /// driver and draws only from scenario-seeded streams, so the injected
    /// faults — and the resulting [`FaultTrace`] — are identical at any
    /// thread count.
    fn advance_faults(&mut self) {
        let current = self.now / self.config.gossip_period;
        while self.next_fault_round <= current {
            let Some(mut rt) = self.faults.take() else {
                return;
            };
            rt.begin_round(self.next_fault_round, self.config.loss_rate, self);
            self.faults = Some(rt);
            self.next_fault_round += 1;
        }
    }

    /// Decides the fate of one sent message — loss, latency, duplication —
    /// and schedules the surviving copies. Draws from the engine RNG in a
    /// fixed order (loss, latency, duplication, duplicate latency), so any
    /// caller that presents sends in canonical order gets deterministic
    /// fates.
    fn route(
        &mut self,
        from: NodeId,
        to: NodeId,
        message: P::Message,
        loss_rate: f64,
        extra_delay: u64,
        dup_rate: f64,
    ) {
        // Partition cut: cross-group sends are dropped while a window is
        // active. Group membership is a pure function of the scenario seed
        // and the check consumes no engine RNG, so downstream draws are
        // unaffected by whether a partition is configured.
        if self.partition_cut(from, to) {
            self.lost += 1;
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_async_loss();
            }
            return;
        }
        if loss_rate > 0.0 && self.rng.random::<f64>() < loss_rate {
            self.lost += 1;
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_async_loss();
            }
            return;
        }
        let latency = self.config.latency.sample(&mut self.rng).max(1) + extra_delay;
        let at = self.now + latency;
        self.send_seq += 1;
        let send_seq = self.send_seq;
        if dup_rate > 0.0 && self.rng.random::<f64>() < dup_rate {
            self.duplicated += 1;
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_async_duplicate();
            }
            let dup_latency = self.config.latency.sample(&mut self.rng).max(1) + extra_delay;
            self.dup_in_flight.insert(send_seq, false);
            self.schedule_from_merge(
                self.now + dup_latency,
                to.slot(),
                Event::Deliver {
                    from,
                    to,
                    message: message.clone(),
                    send_seq,
                },
            );
        }
        self.schedule_from_merge(
            at,
            to.slot(),
            Event::Deliver {
                from,
                to,
                message,
                send_seq,
            },
        );
    }

    /// Whether an active partition separates `from` and `to` at the
    /// current tick's round.
    fn partition_cut(&self, from: NodeId, to: NodeId) -> bool {
        let Some(rt) = &self.faults else {
            return false;
        };
        let round = self.now / self.config.gossip_period;
        let Some((start, kind)) = rt.scenario.active_partition(round) else {
            return false;
        };
        let k = kind.groups();
        rt.scenario.partition_group(start, from.slot(), k)
            != rt.scenario.partition_group(start, to.slot(), k)
    }

    /// Current simulation time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events pending in the timer wheel.
    pub fn pending_events(&self) -> usize {
        self.wheel.len()
    }

    /// The live nodes.
    pub fn nodes(&self) -> &NodeSlab<P::Node> {
        &self.nodes
    }

    /// Mutable node access.
    pub fn nodes_mut(&mut self) -> &mut NodeSlab<P::Node> {
        &mut self.nodes
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable protocol access.
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Network statistics.
    pub fn net(&self) -> &NetStats {
        &self.net
    }

    /// Engine RNG.
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Messages lost in transit so far.
    pub fn lost_count(&self) -> u64 {
        self.lost
    }

    /// Invokes `f` with an execution context outside an event (used by
    /// drivers to trigger protocol actions deterministically).
    pub fn with_ctx<R>(&mut self, f: impl FnOnce(&mut P, &mut EventCtx<'_, P::Node>) -> R) -> R {
        let mut ctx = EventCtx {
            now: self.now,
            round: self.now / self.config.gossip_period,
            nodes: &mut self.nodes,
            rng: &mut self.rng,
        };
        f(&mut self.protocol, &mut ctx)
    }
}

impl<P> EventEngine<P>
where
    P: AsyncProtocol + Sync,
    P::Node: Send,
    P::Message: Send,
{
    /// Runs until simulation time reaches `until` ticks, processing each
    /// lookahead window as one batch. See the module docs for the window
    /// rule, the three-phase structure and the determinism argument.
    /// Results are bit-identical for every `config.threads` value.
    pub fn run_until_parallel(&mut self, until: u64) {
        let period = self.config.gossip_period;
        let threads = self.config.threads.max(1);
        let lookahead = self.config.latency.min_ticks().max(1);
        let batch_base = derive_seed(self.config.seed, EVENT_PAR_STREAM);
        let mut window = std::mem::take(&mut self.window);
        let WindowScratch {
            ticks,
            buckets,
            batches,
        } = &mut window;
        buckets.resize_with(EVENT_SHARDS, Vec::new);
        batches.resize_with(EVENT_SHARDS, Default::default);
        while let Some(start) = self.wheel.next_tick() {
            if start > until {
                break;
            }
            // A new period is only ever entered at a window's first tick:
            // crashes, admissions (whose first timer may fall inside this
            // window) and drift are applied before the window is drained.
            self.now = start;
            self.roll_windows();
            self.advance_faults();
            let fault_round = start / period;
            let adversary = self.current_adversary();
            let end = window_end(start, lookahead, period, until);
            ticks.clear();
            while let Some(tick) = self.wheel.next_tick().filter(|tick| *tick < end) {
                let nth = ticks.len();
                ticks.push(tick);
                let drained = buckets.iter_mut().map(|shard| {
                    if shard.len() == nth {
                        shard.push(VecDeque::new());
                    }
                    &mut shard[nth]
                });
                self.wheel.drain_tick_into(tick, drained);
            }

            // Phase 1 (sequential pre-pass): drop events for dead nodes,
            // suppress fault-duplicate redeliveries, and count deliveries
            // — all in canonical (tick, shard, seq) order so counters and
            // dedup decisions are thread-count-invariant.
            {
                let nodes = &self.nodes;
                let dup_in_flight = &mut self.dup_in_flight;
                let dup_dropped = &mut self.dup_dropped;
                let delivered = &mut self.delivered;
                let telemetry = &mut self.telemetry;
                let mut keep = |(_, event): &(u64, Event<P::Message>)| match event {
                    Event::Timer(id) => nodes.contains(*id),
                    Event::Deliver { to, send_seq, .. } => {
                        if !nodes.contains(*to) {
                            // The twin targets the same dead node.
                            dup_in_flight.remove(send_seq);
                            return false;
                        }
                        if !dup_in_flight.is_empty() {
                            if let Entry::Occupied(mut twin) = dup_in_flight.entry(*send_seq) {
                                if std::mem::replace(twin.get_mut(), true) {
                                    twin.remove();
                                    *dup_dropped += 1;
                                    return false;
                                }
                            }
                        }
                        *delivered += 1;
                        if let Some(t) = telemetry.as_deref_mut() {
                            t.record_async_delivery();
                        }
                        true
                    }
                };
                for nth in 0..ticks.len() {
                    for shard in buckets.iter_mut() {
                        shard[nth].retain(&mut keep);
                    }
                }
            }

            // Phase 2 (parallel): shards are slot-disjoint, so workers may
            // mutate their nodes through `RawSlots` without locks. Each
            // worker walks each of its shards' windows ([`walk_window`]),
            // hinting state a few events ahead once the population outgrows
            // the caches; each event gets a counter-based RNG stream;
            // effects are recorded as per-shard op queues instead of being
            // applied.
            {
                let hint = self.nodes.len() >= PREFETCH_MIN_NODES;
                let (view, raw) = self.nodes.batch_split();
                let protocol = &self.protocol;
                let ticks = ticks.as_slice();
                crate::executor::par_zip(buckets, batches, threads, |_base, work, out| {
                    for (shard, (ops, report, lens)) in work.iter_mut().zip(out.iter_mut()) {
                        walk_window(ticks, shard, lens, hint, |step| match step {
                            // SAFETY: no borrow by a handler outlives it, and
                            // this worker alone owns the shard's slots.
                            WindowStep::Hint(event, walk) => unsafe {
                                hint_event(protocol, event, walk, &raw)
                            },
                            WindowStep::Handle(tick, seq, event) => {
                                let target = event.target();
                                // SAFETY: this worker exclusively owns every
                                // slot of its shards; the pre-pass kept only
                                // live targets.
                                let Some(node) = (unsafe { raw.get_mut(target) }) else {
                                    return;
                                };
                                let mut ctx = BatchCtx {
                                    now: tick,
                                    round: fault_round,
                                    adversary,
                                    stamp: seq,
                                    rng: par_stream_rng(
                                        batch_base,
                                        tick,
                                        target.slot() as u64,
                                        seq,
                                    ),
                                    peers: view,
                                    ops,
                                };
                                match event {
                                    Event::Timer(id) => {
                                        protocol.on_timer(id, node, &mut ctx, report);
                                        ops.push_back(MergeOp::Timer(id));
                                    }
                                    Event::Deliver {
                                        from, to, message, ..
                                    } => protocol
                                        .on_message(to, node, from, message, &mut ctx, report),
                                }
                            }
                            WindowStep::TickEnd => ops.push_back(MergeOp::TickEnd),
                        });
                    }
                });
            }

            // Phase 3 (sequential merge): apply ops in (tick, shard, seq)
            // order with `now` set per tick. Fault fates draw from the
            // engine RNG here, in canonical order, so they are identical
            // at any thread count. Fault parameters are per period, hence
            // per window.
            let (loss_rate, extra_delay, dup_rate) = self.fault_params();
            for &tick in ticks.iter() {
                self.now = tick;
                for (ops, _, _) in batches.iter_mut() {
                    while let Some(op) = ops.pop_front() {
                        match op {
                            MergeOp::Send {
                                from,
                                to,
                                message,
                                bytes,
                            } => {
                                self.net.charge_message(from, to, bytes);
                                self.route(from, to, message, loss_rate, extra_delay, dup_rate);
                            }
                            MergeOp::Timer(id) => {
                                self.schedule_from_merge(
                                    tick + period,
                                    id.slot(),
                                    Event::Timer(id),
                                );
                            }
                            MergeOp::TickEnd => break,
                        }
                    }
                }
            }
            for (_, report, _) in batches.iter_mut() {
                self.protocol.absorb_report(std::mem::take(report));
            }
        }
        self.window = window;
        self.now = self.now.max(until);
        self.roll_windows();
        self.advance_faults();
    }
}

/// The event engine's side of the shared fault schedule.
impl<P: AsyncProtocol> FaultHost for EventEngine<P> {
    fn live_ids(&self) -> Vec<NodeId> {
        self.nodes.id_vec()
    }

    fn set_loss_rate(&mut self, loss_rate: f64) {
        self.loss_rate = loss_rate;
    }

    /// Nothing to install: `route` cuts cross-group messages one by one
    /// from the scenario's pure group function, which also covers nodes
    /// admitted after the round's groups were computed.
    fn set_partition(&mut self, _groups: Option<Vec<u32>>) {}

    /// State dropped; the driver's liveness pre-pass filters the victim's
    /// pending events.
    fn crash(&mut self, id: NodeId) -> bool {
        self.nodes.remove(id).is_some()
    }

    /// Fresh nodes rejoin and schedule their first gossip timer within
    /// one period of `now` (the batch tick — thread-count-invariant).
    fn admit(&mut self, round: u64, count: u32, rng: &mut StdRng) {
        for _ in 0..count {
            let state = self.protocol.make_node(rng);
            let id = self.nodes.insert(state);
            self.net.reset_slot(id.slot());
            let phase = rng.random_range(0..self.config.gossip_period);
            self.schedule_timer(self.now + 1 + phase, id);
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_recovery(round, id.slot() as u32);
            }
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

impl<P: AsyncProtocol> std::fmt::Debug for EventEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventEngine")
            .field("now", &self.now)
            .field("live_nodes", &self.nodes.len())
            .field("pending_events", &self.wheel.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    /// Asynchronous push–pull averaging: the classic non-atomic variant.
    #[derive(Default)]
    struct AsyncAveraging {
        next: f64,
    }

    #[derive(Clone)]
    enum Msg {
        Request(f64),
        Response(f64),
    }

    impl AsyncProtocol for AsyncAveraging {
        type Node = f64;
        type Message = Msg;
        type Report = ();

        fn make_node(&mut self, _rng: &mut StdRng) -> f64 {
            self.next += 1.0;
            self.next
        }

        fn on_timer(
            &self,
            id: NodeId,
            node: &mut f64,
            ctx: &mut BatchCtx<'_, '_, Msg>,
            _report: &mut (),
        ) {
            let Some(partner) = ctx.random_neighbour(id) else {
                return;
            };
            ctx.send(id, partner, Msg::Request(*node), 8);
        }

        fn on_message(
            &self,
            id: NodeId,
            node: &mut f64,
            from: NodeId,
            message: Msg,
            ctx: &mut BatchCtx<'_, '_, Msg>,
            _report: &mut (),
        ) {
            match message {
                Msg::Request(theirs) => {
                    ctx.send(id, from, Msg::Response(*node), 8);
                    *node = (*node + theirs) / 2.0;
                }
                Msg::Response(theirs) => {
                    *node = (*node + theirs) / 2.0;
                }
            }
        }

        fn absorb_report(&mut self, _report: ()) {}
    }

    #[test]
    fn async_averaging_converges_near_the_mean() {
        let config = EventConfig::new(128, 5)
            .with_gossip_period(100)
            .with_latency(LatencyModel::Uniform { min: 5, max: 30 });
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.run_until_parallel(100 * 60);
        let expected = 129.0 / 2.0;
        // Non-atomic push-pull does not conserve mass exactly, but with
        // short latencies relative to the period the drift is small.
        let mean: f64 =
            engine.nodes().iter().map(|(_, v)| *v).sum::<f64>() / engine.nodes().len() as f64;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs {expected}"
        );
        for (_, v) in engine.nodes().iter() {
            assert!((v - mean).abs() < 1.0, "value {v} not converged to {mean}");
        }
    }

    #[test]
    fn timers_fire_once_per_period() {
        struct TimerCounter {
            fires: u64,
        }
        impl AsyncProtocol for TimerCounter {
            type Node = ();
            type Message = ();
            type Report = u64;
            fn make_node(&mut self, _rng: &mut StdRng) {}
            fn on_timer(
                &self,
                _id: NodeId,
                _node: &mut (),
                _ctx: &mut BatchCtx<'_, '_, ()>,
                fires: &mut u64,
            ) {
                *fires += 1;
            }
            fn on_message(
                &self,
                _: NodeId,
                _: &mut (),
                _: NodeId,
                _: (),
                _: &mut BatchCtx<'_, '_, ()>,
                _: &mut u64,
            ) {
            }
            fn absorb_report(&mut self, fires: u64) {
                self.fires += fires;
            }
        }
        let config = EventConfig::new(10, 6).with_gossip_period(100);
        let mut engine = EventEngine::new(config, TimerCounter { fires: 0 });
        engine.run_until_parallel(1000);
        // 10 nodes x ~10 periods (random phases make it 90..110).
        let fires = engine.protocol().fires;
        assert!((90..=110).contains(&fires), "fires = {fires}");
    }

    #[test]
    fn message_loss_is_applied_and_counted() {
        let config = EventConfig::new(64, 7)
            .with_gossip_period(50)
            .with_loss_rate(0.5);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.run_until_parallel(50 * 40);
        let lost = engine.lost_count();
        let delivered = engine.delivered_count();
        let total = lost + delivered;
        let loss_frac = lost as f64 / total as f64;
        assert!((loss_frac - 0.5).abs() < 0.05, "loss fraction {loss_frac}");
        // Averaging still roughly works under 50% loss.
        let expected = 65.0 / 2.0;
        let mean: f64 =
            engine.nodes().iter().map(|(_, v)| *v).sum::<f64>() / engine.nodes().len() as f64;
        assert!((mean - expected).abs() / expected < 0.25, "mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let config = EventConfig::new(32, seed).with_gossip_period(80);
            let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
            engine.run_until_parallel(2000);
            engine.nodes().iter().map(|(_, v)| *v).collect::<Vec<f64>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn fixed_latency_model() {
        let mut rng = seeded_rng(1);
        assert_eq!(LatencyModel::Fixed(42).sample(&mut rng), 42);
        let l = LatencyModel::Uniform { min: 5, max: 5 }.sample(&mut rng);
        assert_eq!(l, 5);
        for _ in 0..100 {
            let l = LatencyModel::Uniform { min: 3, max: 9 }.sample(&mut rng);
            assert!((3..=9).contains(&l));
        }
    }

    #[test]
    fn uniform_latency_with_min_above_max_is_rejected() {
        let config = EventConfig::new(8, 1).with_latency(LatencyModel::Uniform { min: 9, max: 3 });
        assert!(config.validate().is_err());
        assert!(EventEngine::try_new(config, AsyncAveraging { next: 0.0 }).is_err());
        // Degenerate (min == max) stays legal.
        let config = EventConfig::new(8, 1).with_latency(LatencyModel::Uniform { min: 4, max: 4 });
        assert!(config.validate().is_ok());
    }

    #[test]
    fn fault_burst_loss_applies_only_inside_the_window() {
        // Lossless base config; a full-loss burst over rounds [2, 4) (ticks
        // 100..200 at a 50-tick period... gossip_period 50 -> rounds are
        // 50-tick windows).
        let config = EventConfig::new(32, 13).with_gossip_period(50);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(1).with_burst_loss(2, 4, 1.0))
            .unwrap();
        engine.run_until_parallel(50 * 2 - 1);
        assert_eq!(engine.lost_count(), 0, "no loss before the burst");
        engine.run_until_parallel(50 * 4);
        let lost_in_burst = engine.lost_count();
        assert!(lost_in_burst > 0, "burst drops everything sent inside it");
        engine.run_until_parallel(50 * 8);
        let sent_after = engine.delivered_count();
        assert!(sent_after > 0, "loss stops when the burst ends");
    }

    #[test]
    fn fault_duplication_delivers_each_send_once() {
        let config = EventConfig::new(32, 14).with_gossip_period(50);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        // Every send of rounds 0..6 gets a twin; the last copies land
        // well before the run ends at round 10.
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(2).with_duplication(0, 6, 1.0))
            .unwrap();
        engine.run_until_parallel(50 * 10);
        assert!(engine.duplicated_count() > 0);
        assert_eq!(
            engine.dup_dropped_count(),
            engine.duplicated_count(),
            "the second copy of every duplicated send is dropped"
        );
        assert_eq!(
            engine.delivered_count() + engine.lost_count(),
            engine.net().total_msgs() - in_flight_messages(&engine),
            "protocols see every send exactly once"
        );
        assert!(engine.dup_in_flight.is_empty(), "bookkeeping drained");
    }

    /// Messages (not timers) still pending in the wheel: one timer per
    /// live node is always pending.
    fn in_flight_messages(engine: &EventEngine<AsyncAveraging>) -> u64 {
        (engine.pending_events() - engine.nodes().len()) as u64
    }

    /// Regression: suppression used to be a 16 384-entry FIFO, so with
    /// more duplicated sends than that in flight (40 000 nodes, latency
    /// 0.9 periods, every send duplicated) the oldest stamps were evicted
    /// before their copies arrived and both copies reached the protocol.
    #[test]
    fn duplicate_suppression_is_exact_with_many_copies_in_flight() {
        let config = EventConfig::new(40_000, 3)
            .with_gossip_period(1000)
            .with_latency(LatencyModel::Fixed(900))
            .with_threads(2);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(2).with_duplication(0, 3, 1.0))
            .unwrap();
        engine.run_until_parallel(8000);
        assert!(engine.duplicated_count() > 1 << 14);
        assert_eq!(engine.dup_dropped_count(), engine.duplicated_count());
        assert!(engine.dup_in_flight.is_empty(), "bookkeeping drained");
    }

    #[test]
    fn fault_delay_postpones_delivery() {
        // Fixed 5-tick latency, +200-tick delay window over the whole run:
        // nothing sent in round 0 can arrive before tick 205.
        let config = EventConfig::new(16, 15)
            .with_gossip_period(100)
            .with_latency(LatencyModel::Fixed(5));
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine
            .set_fault_scenario(crate::faults::FaultScenario::new(3).with_delay(0, 1, 200))
            .unwrap();
        engine.run_until_parallel(100);
        assert_eq!(engine.delivered_count(), 0, "deliveries pushed past t=205");
        engine.run_until_parallel(400);
        assert!(engine.delivered_count() > 0);
    }

    #[test]
    fn telemetry_counts_async_deliveries_and_losses() {
        let run = |attach: bool| {
            let config = EventConfig::new(32, 17)
                .with_gossip_period(50)
                .with_loss_rate(0.3);
            let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
            if attach {
                engine.attach_telemetry(SimTelemetry::new());
            }
            engine.run_until_parallel(50 * 20);
            engine.snapshot_telemetry();
            engine
        };
        let mut engine = run(true);
        let t = engine.detach_telemetry().expect("telemetry attached");
        let counter = |name| {
            let (_, v) = t
                .telemetry()
                .metrics
                .counters()
                .find(|(n, _)| *n == name)
                .unwrap();
            v
        };
        assert_eq!(counter("async_delivered"), engine.delivered_count());
        assert_eq!(counter("async_lost"), engine.lost_count());
        // One snapshot per elapsed gossip-period window (0..=19), plus the
        // explicit partial window 20 at the end.
        let snaps = t.telemetry().snapshots();
        assert_eq!(snaps.len(), 21);
        assert_eq!(snaps[0].round, 0);
        assert_eq!(snaps[20].round, 20);
        assert!(snaps.iter().all(|s| s.live_nodes == 32));
        // Window traffic is a per-window delta; the windows partition the
        // run, so the deltas sum back to the cumulative total.
        let windowed: u64 = snaps.iter().map(|s| s.round_bytes).sum();
        assert_eq!(windowed, engine.net().total_bytes());
        let windowed_msgs: u64 = snaps.iter().map(|s| s.round_msgs).sum();
        assert_eq!(windowed_msgs, engine.net().total_msgs());

        // Attaching telemetry must not perturb the simulation.
        let bare = run(false);
        let values = |e: &EventEngine<AsyncAveraging>| {
            e.nodes()
                .iter()
                .map(|(_, v)| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(values(&engine), values(&bare));
        assert_eq!(engine.delivered_count(), bare.delivered_count());
    }

    #[test]
    fn network_bytes_are_charged_even_for_lost_messages() {
        let config = EventConfig::new(16, 11)
            .with_gossip_period(50)
            .with_loss_rate(1.0);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.run_until_parallel(500);
        assert!(
            engine.net().total_bytes() > 0,
            "senders still pay for lost messages"
        );
        assert_eq!(engine.delivered_count(), 0);
    }

    #[test]
    fn parallel_batch_averaging_converges() {
        let config = EventConfig::new(128, 5)
            .with_gossip_period(100)
            .with_latency(LatencyModel::Uniform { min: 5, max: 30 })
            .with_threads(4);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.run_until_parallel(100 * 60);
        let expected = 129.0 / 2.0;
        let mean: f64 =
            engine.nodes().iter().map(|(_, v)| *v).sum::<f64>() / engine.nodes().len() as f64;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs {expected}"
        );
        for (_, v) in engine.nodes().iter() {
            assert!((v - mean).abs() < 1.0, "value {v} not converged to {mean}");
        }
    }

    /// The satellite-mandated bit-identity check: batch runs must agree
    /// exactly — node state, counters, and traffic — at 1, 2, and 4
    /// worker threads.
    #[test]
    fn parallel_batch_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let config = EventConfig::new(96, 23)
                .with_gossip_period(60)
                .with_loss_rate(0.1)
                .with_threads(threads);
            let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
            engine.run_until_parallel(60 * 30);
            (
                engine
                    .nodes()
                    .iter()
                    .map(|(_, v)| v.to_bits())
                    .collect::<Vec<_>>(),
                engine.delivered_count(),
                engine.lost_count(),
                engine.net().total_bytes(),
                engine.net().total_msgs(),
            )
        };
        let base = run(1);
        assert_eq!(base, run(2), "threads=2 diverged from threads=1");
        assert_eq!(base, run(4), "threads=4 diverged from threads=1");
    }

    #[test]
    fn parallel_batch_emits_windowed_snapshots() {
        let config = EventConfig::new(32, 19)
            .with_gossip_period(50)
            .with_threads(2);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.attach_telemetry(SimTelemetry::new());
        engine.run_until_parallel(50 * 10);
        let t = engine.detach_telemetry().expect("telemetry attached");
        let snaps = t.telemetry().snapshots();
        assert_eq!(snaps.len(), 10, "one snapshot per elapsed window");
        let windowed: u64 = snaps.iter().map(|s| s.round_bytes).sum();
        assert_eq!(windowed, engine.net().total_bytes());
    }

    /// The PR 2 fault matrix: burst loss, a bisecting partition, and a
    /// crash wave with delayed recovery, all overlapping.
    fn fault_matrix_scenario() -> crate::faults::FaultScenario {
        crate::faults::FaultScenario::new(99)
            .with_burst_loss(3, 8, 0.4)
            .with_partition(5, 12, crate::faults::PartitionKind::Bisect)
            .with_crash_recover(2, 9, 0.2)
    }

    fn faulted_engine(threads: usize) -> EventEngine<AsyncAveraging> {
        let config = EventConfig::new(10_000, 4242)
            .with_gossip_period(50)
            .with_latency(LatencyModel::Uniform { min: 5, max: 30 })
            .with_threads(threads);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        engine.set_fault_scenario(fault_matrix_scenario()).unwrap();
        engine
    }

    fn faulted_fingerprint(engine: &EventEngine<AsyncAveraging>) -> (Vec<u64>, u64, u64, u64) {
        let mut bits: Vec<u64> = engine.nodes().iter().map(|(_, v)| v.to_bits()).collect();
        bits.push(engine.nodes().len() as u64);
        (
            bits,
            engine.delivered_count(),
            engine.lost_count(),
            engine.net().total_bytes(),
        )
    }

    /// Satellite check: the batch driver under the full fault matrix is
    /// bit-identical (states, counters, trace) at 1, 2, and 4 threads.
    #[test]
    fn batch_faulted_run_is_bit_identical_across_thread_counts() {
        let until = 50 * 16;
        let run = |threads: usize| {
            let mut engine = faulted_engine(threads);
            engine.run_until_parallel(until);
            let trace = engine.fault_trace().expect("scenario attached").clone();
            (faulted_fingerprint(&engine), trace)
        };
        let base = run(1);
        assert_eq!(base, run(2), "threads=2 diverged from threads=1");
        assert_eq!(base, run(4), "threads=4 diverged from threads=1");
    }

    #[test]
    fn a_window_never_spans_a_period_boundary_or_until() {
        for period in [1, 7, 37, 100] {
            for lookahead in [1, 2, 7, 40, 1000] {
                for start in 0..3 * period {
                    for until in start..start + 2 * period + 2 {
                        let end = window_end(start, lookahead, period, until);
                        assert!(end > start, "a window holds its first tick");
                        assert!(end <= start + lookahead, "nothing sent inside lands inside");
                        assert_eq!((end - 1) / period, start / period, "one fault round");
                        assert!(end - 1 <= until, "ticks past `until` stay on the wheel");
                    }
                }
            }
        }
        assert_eq!(window_end(5, 10, 100, u64::MAX), 15);
    }

    /// Everything a run leaves behind that the window rule could disturb.
    #[derive(Debug, PartialEq)]
    struct RunState {
        now: u64,
        /// FNV hash over every live node's slot and value.
        nodes: u64,
        counters: [u64; 5],
        /// FNV hash over every live node's `NodeTraffic`.
        traffic: u64,
        net_totals: (u64, u64),
        trace: FaultTrace,
    }

    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, mix)
    }

    /// How a run to `until` is cut into `run_until_parallel` calls.
    #[derive(Debug, Clone, Copy)]
    enum Calls {
        One,
        PerTick,
        /// Random sizes from this seed, so calls end mid-window, mid-period
        /// and on boundaries.
        Random(u64),
    }

    const CHUNK_PERIOD: u64 = 37;
    const CHUNK_UNTIL: u64 = CHUNK_PERIOD * 10 + 11;

    /// 2500 nodes — three wheel shards, so the merge has shards to
    /// interleave — on a 37-tick period (a prime, so no lookahead divides
    /// it): ≈ 50 timers per tick even after the crash wave, so every
    /// boundary tick carries an event and a new fault round is entered at
    /// the same tick however the run is cut.
    fn chunked_run(
        latency: LatencyModel,
        threads: usize,
        calls: Calls,
        telemetry: bool,
    ) -> (RunState, Vec<(u64, u64, u64, u64)>) {
        let config = EventConfig::new(2500, 77)
            .with_gossip_period(CHUNK_PERIOD)
            .with_latency(latency)
            .with_loss_rate(0.02)
            .with_threads(threads);
        let mut engine = EventEngine::new(config, AsyncAveraging { next: 0.0 });
        let scenario = crate::faults::FaultScenario::new(8)
            .with_burst_loss(3, 6, 0.4)
            .with_delay(4, 6, 9)
            .with_duplication(2, 7, 0.3)
            .with_crash_recover(2, 5, 0.2);
        engine.set_fault_scenario(scenario).unwrap();
        if telemetry {
            engine.attach_telemetry(SimTelemetry::new());
        }
        match calls {
            Calls::One => engine.run_until_parallel(CHUNK_UNTIL),
            Calls::PerTick => (0..=CHUNK_UNTIL).for_each(|t| engine.run_until_parallel(t)),
            Calls::Random(seed) => {
                let mut rng = seeded_rng(seed);
                while engine.now() < CHUNK_UNTIL {
                    let step = rng.random_range(1..=2 * CHUNK_PERIOD);
                    engine.run_until_parallel((engine.now() + step).min(CHUNK_UNTIL));
                }
            }
        }
        let snapshots = engine.detach_telemetry().map_or_else(Vec::new, |t| {
            let snaps = t.telemetry().snapshots().iter();
            snaps
                .map(|s| (s.round, s.live_nodes, s.round_bytes, s.round_msgs))
                .collect()
        });
        let state = RunState {
            now: engine.now(),
            nodes: fnv(engine
                .nodes()
                .iter()
                .flat_map(|(id, v)| [id.slot() as u64, v.to_bits()])),
            counters: [
                engine.delivered_count(),
                engine.lost_count(),
                engine.duplicated_count(),
                engine.dup_dropped_count(),
                engine.pending_events() as u64,
            ],
            traffic: fnv(engine.nodes().iter().flat_map(|(id, _)| {
                let t = engine.net().node(id);
                [t.sent_bytes, t.recv_bytes, t.sent_msgs, t.recv_msgs]
            })),
            net_totals: (engine.net().total_bytes(), engine.net().total_msgs()),
            trace: engine.fault_trace().expect("scenario attached").clone(),
        };
        (state, snapshots)
    }

    /// The window rule must be invisible: for lookaheads of 1 (today's
    /// per-tick batch), 7, 1 (`Uniform`) and 5 ticks against a 37-tick
    /// period, under loss, delay, duplication and a crash–recover wave, the
    /// run is the same whether it is one call, one call per tick or
    /// randomly sized calls, at 1, 2 and 3 threads, with and without
    /// telemetry (whose per-period snapshots must not move either).
    #[test]
    fn windows_and_call_chunking_do_not_change_the_run() {
        for latency in [
            LatencyModel::Fixed(1),
            LatencyModel::Fixed(7),
            LatencyModel::Uniform { min: 1, max: 3 },
            LatencyModel::Uniform { min: 5, max: 40 },
        ] {
            let (base, _) = chunked_run(latency, 1, Calls::One, false);
            let (_, base_snapshots) = chunked_run(latency, 1, Calls::One, true);
            assert!(base.counters.iter().all(|c| *c > 0), "every axis fired");
            assert_eq!(base_snapshots.len(), 10, "one snapshot per full period");
            for threads in [1, 2, 3] {
                for calls in [Calls::One, Calls::PerTick, Calls::Random(threads as u64)] {
                    for telemetry in [false, true] {
                        let (state, snapshots) = chunked_run(latency, threads, calls, telemetry);
                        let case = format!("{latency:?} threads={threads} {calls:?}");
                        assert_eq!(state, base, "{case} telemetry={telemetry}");
                        if telemetry {
                            assert_eq!(snapshots, base_snapshots, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// A hand-built window: buckets of `lens` events in order, event `j`
    /// (counted across buckets) targeting slot `j`, stamped `j`; even ones
    /// deliveries carrying `j`, odd ones timers.
    fn hand_built_window(lens: &[usize]) -> Vec<Bucket<usize>> {
        let mut events = 0..;
        let mut event = |_| {
            let j = events.next().unwrap();
            let id = NodeId::for_tests(j as u32, 0);
            let event = match j % 2 {
                0 => Event::Deliver {
                    from: id,
                    to: id,
                    message: j,
                    send_seq: j as u64,
                },
                _ => Event::Timer(id),
            };
            (j as u64, event)
        };
        lens.iter()
            .map(|&len| (0..len).map(&mut event).collect())
            .collect()
    }

    /// Walks a hand-built window with and without hints and checks that
    /// both hand over its events once each, by value, in the plain loop's
    /// order, each bucket's tick end after its events and before the next
    /// bucket's; that only the hinted walk hints; and that it hints event
    /// `j` at each stage exactly once, when `j - 3 D` (slot), `j - 2 D`
    /// (headers) or `j - D` (bodies) events, but at least none, have been
    /// handled — across bucket boundaries, empty buckets included.
    #[test]
    fn the_window_walk_handles_the_plain_loop_and_hints_each_event_at_its_distances() {
        use crate::engine::PREFETCH_DISTANCE as D;
        let lens = [0, 1, D - 1, 0, 3 * D + 1, 1, 0, 0, D - 1, 3 * D + 1, 1, 0];
        let ticks: Vec<u64> = (0..lens.len() as u64).map(|nth| 100 + 3 * nth).collect();
        let mut plain = Vec::new();
        let mut j = 0;
        for (&tick, &len) in ticks.iter().zip(&lens) {
            plain.extend((j..j + len).map(|j| Some((tick, j))));
            plain.push(None);
            j += len;
        }
        let events = j;
        for hint in [false, true] {
            // A shard keeps the buckets of longer windows past `ticks`.
            let mut buckets = hand_built_window(&lens);
            buckets.push(VecDeque::new());
            let mut handled = Vec::new();
            let mut hinted = vec![[None; 3]; events];
            let mut done = 0;
            walk_window(
                &ticks,
                &mut buckets,
                &mut Vec::new(),
                hint,
                |step| match step {
                    WindowStep::Hint(event, walk) => {
                        assert!(hint, "hinted without `hint`");
                        let j = event.target().slot();
                        let stage = match walk {
                            WalkStep::Payloads => 0,
                            WalkStep::Hint(PrefetchStage::Headers) => 1,
                            WalkStep::Hint(PrefetchStage::Bodies) => 2,
                            WalkStep::Apply => panic!("an apply step handed over as a hint"),
                        };
                        assert_eq!(hinted[j][stage], None, "event {j} hinted twice at {walk:?}");
                        hinted[j][stage] = Some(done);
                    }
                    WindowStep::Handle(tick, seq, event) => {
                        let j = event.target().slot();
                        assert_eq!(seq, j as u64, "event {j}: wrong stamp");
                        if let Event::Deliver { message, .. } = event {
                            assert_eq!(message, j, "event {j}: wrong message");
                        }
                        handled.push(Some((tick, j)));
                        done += 1;
                    }
                    WindowStep::TickEnd => handled.push(None),
                },
            );
            assert_eq!(handled, plain, "hint={hint}: not the plain loop's order");
            assert!(buckets.iter().all(VecDeque::is_empty), "buckets left full");
            for (j, at) in hinted.iter().enumerate() {
                let lead = [3 * D, 2 * D, D].map(|d| Some(j.saturating_sub(d)).filter(|_| hint));
                assert_eq!(
                    *at, lead,
                    "hint={hint}: event {j} of {events}: hinted after"
                );
            }
        }
    }

    /// [`AsyncAveraging`] with hint hooks that count their calls per stage
    /// and handlers that count the events and messages they handle. With
    /// `ordered`, each count checks that it never overtakes the stage that
    /// runs before it: headers before bodies, bodies before handling.
    #[derive(Default)]
    struct HintCounting {
        inner: AsyncAveraging,
        ordered: bool,
        events: AtomicU64,
        messages: AtomicU64,
        node_hints: [AtomicU64; 2],
        message_hints: [AtomicU64; 2],
    }

    impl HintCounting {
        /// Counts one call in `count`; with `ordered`, no more of them may
        /// have run than of `before`.
        fn count(&self, count: &AtomicU64, before: Option<&AtomicU64>) {
            let n = count.fetch_add(1, Ordering::SeqCst) + 1;
            if let Some(before) = before.filter(|_| self.ordered) {
                let ran = before.load(Ordering::SeqCst);
                assert!(n <= ran, "a stage ran ahead of the one before it");
            }
        }
    }

    impl AsyncProtocol for HintCounting {
        type Node = f64;
        type Message = Msg;
        type Report = ();

        fn make_node(&mut self, rng: &mut StdRng) -> f64 {
            self.inner.make_node(rng)
        }

        fn on_timer(
            &self,
            id: NodeId,
            node: &mut f64,
            ctx: &mut BatchCtx<'_, '_, Msg>,
            report: &mut (),
        ) {
            self.count(&self.events, Some(&self.node_hints[1]));
            self.inner.on_timer(id, node, ctx, report);
        }

        fn on_message(
            &self,
            id: NodeId,
            node: &mut f64,
            from: NodeId,
            message: Msg,
            ctx: &mut BatchCtx<'_, '_, Msg>,
            report: &mut (),
        ) {
            self.count(&self.events, Some(&self.node_hints[1]));
            self.count(&self.messages, Some(&self.message_hints[1]));
            self.inner.on_message(id, node, from, message, ctx, report);
        }

        fn prefetch(&self, _node: &f64, stage: PrefetchStage) {
            let before = (stage == PrefetchStage::Bodies).then_some(&self.node_hints[0]);
            self.count(&self.node_hints[stage as usize], before);
        }

        fn prefetch_message(&self, _message: &Msg, stage: PrefetchStage) {
            let before = (stage == PrefetchStage::Bodies).then_some(&self.message_hints[0]);
            self.count(&self.message_hints[stage as usize], before);
        }

        fn absorb_report(&mut self, _report: ()) {}
    }

    /// Node values, counters and every live node's traffic of `engine`.
    fn run_state<P: AsyncProtocol<Node = f64>>(engine: &EventEngine<P>) -> [u64; 6] {
        let values = engine.nodes().iter();
        let traffic = engine.nodes().iter().flat_map(|(id, _)| {
            let t = engine.net().node(id);
            [t.sent_bytes, t.recv_bytes, t.sent_msgs, t.recv_msgs]
        });
        [
            fnv(values.flat_map(|(id, v)| [id.slot() as u64, v.to_bits()])),
            fnv(traffic),
            engine.net().total_bytes(),
            engine.net().total_msgs(),
            engine.delivered_count(),
            engine.lost_count(),
        ]
    }

    /// The hooks at threads 1 and 3 against a run without them, under loss
    /// and the fault matrix's crash wave: the same node values, counters
    /// and traffic; above the gate every handled event (message) meets each
    /// node (message) stage once, in stage order, and below it none.
    #[test]
    fn the_hint_hooks_run_at_every_thread_count_and_change_nothing() {
        // Twice the threshold, so that the crash wave of the fault matrix
        // (20 %) leaves the population hinted; and a population below it.
        for (n, hinted) in [(2 * PREFETCH_MIN_NODES, true), (300, false)] {
            let config = EventConfig::new(n, 31)
                .with_gossip_period(50)
                .with_latency(LatencyModel::Uniform { min: 5, max: 30 })
                .with_loss_rate(0.1);
            let until = 50 * 5;
            let mut plain = EventEngine::new(config, AsyncAveraging::default());
            plain.set_fault_scenario(fault_matrix_scenario()).unwrap();
            plain.run_until_parallel(until);
            for threads in [1, 3] {
                let config = config.with_threads(threads);
                let protocol = HintCounting {
                    ordered: hinted,
                    ..HintCounting::default()
                };
                let mut engine = EventEngine::new(config, protocol);
                engine.set_fault_scenario(fault_matrix_scenario()).unwrap();
                engine.run_until_parallel(until);
                assert_eq!(
                    run_state(&engine),
                    run_state(&plain),
                    "n={n} threads={threads}: the hooks changed the run"
                );
                let p = engine.protocol();
                let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
                let (events, messages) = (count(&p.events), count(&p.messages));
                assert!(messages > 0 && events > messages, "n={n}: nothing ran");
                let expected = |handled| if hinted { handled } else { 0 };
                for (hints, handled) in [(&p.node_hints, events), (&p.message_hints, messages)] {
                    for stage in hints {
                        let hints = count(stage);
                        assert_eq!(hints, expected(handled), "n={n} threads={threads}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;

    struct Ping;
    impl AsyncProtocol for Ping {
        type Node = ();
        type Message = u64;
        type Report = ();
        fn make_node(&mut self, _rng: &mut StdRng) {}
        fn on_timer(
            &self,
            id: NodeId,
            _node: &mut (),
            ctx: &mut BatchCtx<'_, '_, u64>,
            _: &mut (),
        ) {
            if let Some(p) = ctx.random_neighbour(id) {
                ctx.send(id, p, ctx.now(), 8);
            }
        }
        fn on_message(
            &self,
            _: NodeId,
            _: &mut (),
            _: NodeId,
            _: u64,
            _: &mut BatchCtx<'_, '_, u64>,
            _: &mut (),
        ) {
        }
        fn absorb_report(&mut self, _: ()) {}
    }

    #[test]
    fn event_store_is_bounded_by_pending_events() {
        let config = EventConfig::new(64, 21).with_gossip_period(10);
        let mut engine = EventEngine::new(config, Ping);
        // Long run: thousands of events scheduled and consumed.
        engine.run_until_parallel(10 * 2_000);
        // The wheel must hold only the *pending* events (one timer per
        // node plus in-flight messages), not the total ever scheduled
        // (~192k here).
        let pending = engine.pending_events();
        assert!(
            pending < 64 * 20,
            "event store grew unboundedly: {pending} pending"
        );
    }
}
