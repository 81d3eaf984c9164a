//! Adam2 over an asynchronous network (event-driven execution).
//!
//! The paper evaluates Adam2 in PeerSim's cycle-driven mode, where a
//! push–pull exchange is atomic. This module runs the *same node state*
//! ([`Adam2Node`]) over [`adam2_sim::EventEngine`]: a gossip exchange is
//! two real messages ([`wire::GossipMessage`] payloads) with latency, and
//! concurrent exchanges interleave. Non-atomic push–pull averaging no
//! longer conserves mass exactly — if node *p* averages with a snapshot of
//! *q* while *q* is concurrently averaging with someone else, a little
//! mass is duplicated or dropped — so the error at the interpolation
//! points floors at a small value instead of decaying to machine epsilon.
//! Quantifying that gap (see the `exp_async` experiment) validates how
//! much the paper's numbers owe to the cycle-model idealisation: the
//! floor sits far below the interpolation error, so the headline results
//! survive asynchrony.
//!
//! This is an extension beyond the paper, flagged in DESIGN.md.
//!
//! # One buffer per exchange
//!
//! A simulated message never crosses a process boundary, so it is not
//! encoded: an [`Adam2Message`] carries in-memory snapshots
//! ([`InstanceLocal`] clones that share the sender's `Arc<InstanceMeta>`;
//! the thresholds are not copied) and is *charged*
//! [`wire::message_len`], which a unit test pins to the real encoder's
//! output. The initiator's timer makes the exchange's only allocation —
//! the snapshot list and its fraction vectors. The responder owns the
//! request it is handed, merges against it directly and rewrites it into
//! the response ([`InstanceLocal::merge_and_reply`]: pre-merge own state
//! out, pair mean in), and the initiator frees the buffers when it has
//! absorbed them — on the shard, hence the thread, that allocated them.
//! Only the cases that are not a plain merge (robust mode, an epoch
//! mismatch, an expired or unknown instance) copy the pre-merge state
//! first; an integration test pins ≤ 3 allocations per exchange.

use std::sync::Arc;

use rand::rngs::StdRng;

use adam2_sim::{ActiveAdversary, AsyncProtocol, BatchCtx, DriftOp, EventCtx, NodeId};

use crate::config::RobustPolicy;
use crate::instance::{AttrValue, InstanceLocal, InstanceMeta};
use crate::protocol::{corrupt_node, Adam2Node};
use crate::wire;

/// A gossip message of the asynchronous protocol, in memory: the sender's
/// state for every instance it is running, as snapshots that share the
/// sender's instance metadata (a snapshot's `initiator` flag is not wire
/// state; receivers ignore it). The request carries the initiator's
/// states, the response the responder's *pre-merge* states.
#[derive(Debug, Clone)]
pub enum Adam2Message {
    /// Push half of the exchange.
    Request {
        /// Per-exchange sequence number ([`BatchCtx::event_stamp`] of the
        /// initiator's timer).
        seq: u64,
        /// One snapshot per instance the initiator runs.
        instances: Vec<InstanceLocal>,
    },
    /// Pull half of the exchange, in the request's buffers.
    Response {
        /// The request's sequence number, echoed.
        seq: u64,
        /// One snapshot per instance the responder runs.
        instances: Vec<InstanceLocal>,
    },
}

impl Adam2Message {
    /// Wire size of the message: what [`wire::GossipMessage::encoded_len`]
    /// is for the same instances.
    pub fn encoded_len(&self) -> usize {
        match self {
            Adam2Message::Request { instances, .. } | Adam2Message::Response { instances, .. } => {
                wire::message_len(instances)
            }
        }
    }

    /// Per-exchange sequence number: the initiator's timer stamps the
    /// request with [`BatchCtx::event_stamp`] and the response echoes it.
    pub fn seq(&self) -> u64 {
        match self {
            Adam2Message::Request { seq, .. } | Adam2Message::Response { seq, .. } => *seq,
        }
    }
}

/// Event-driven Adam2: one gossip exchange per timer fire, with join and
/// merge driven entirely by decoded wire payloads.
pub struct AsyncAdam2 {
    source: Box<dyn FnMut(&mut StdRng) -> AttrValue + Send + Sync>,
    /// Gossip timer ticks per protocol round; instance `end_round`s are
    /// interpreted against `now / ticks_per_round`.
    ticks_per_round: u64,
    robust: Option<RobustPolicy>,
    completed: u64,
    robust_rejects: u64,
    robust_trims: u64,
}

impl std::fmt::Debug for AsyncAdam2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncAdam2")
            .field("ticks_per_round", &self.ticks_per_round)
            .field("completed", &self.completed)
            .finish()
    }
}

impl AsyncAdam2 {
    /// Creates the protocol. `ticks_per_round` must equal the engine's
    /// gossip period so that instance TTLs measured in rounds line up.
    ///
    /// # Panics
    ///
    /// Panics if `ticks_per_round` is zero.
    pub fn new(
        ticks_per_round: u64,
        source: impl FnMut(&mut StdRng) -> AttrValue + Send + Sync + 'static,
    ) -> Self {
        assert!(ticks_per_round > 0, "ticks_per_round must be positive");
        Self {
            source: Box::new(source),
            ticks_per_round,
            robust: None,
            completed: 0,
            robust_rejects: 0,
            robust_trims: 0,
        }
    }

    /// Enables robust aggregation: every one-sided absorption is
    /// plausibility-checked and merged through the trimmed,
    /// influence-capped merge (see [`RobustPolicy`]).
    pub fn with_robust(mut self, policy: RobustPolicy) -> Self {
        self.robust = Some(policy);
        self
    }

    /// Convenience constructor mirroring
    /// [`Adam2Protocol::with_population`](crate::Adam2Protocol::with_population).
    pub fn with_population(
        ticks_per_round: u64,
        initial: Vec<f64>,
        mut fresh: impl FnMut(&mut StdRng) -> f64 + Send + Sync + 'static,
    ) -> Self {
        let mut queue = std::collections::VecDeque::from(initial);
        Self::new(ticks_per_round, move |rng| {
            AttrValue::Single(match queue.pop_front() {
                Some(v) => v,
                None => fresh(rng),
            })
        })
    }

    /// Number of per-node instance completions so far.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Snapshots rejected by the robust plausibility screen so far (0 in
    /// vanilla mode).
    pub fn robust_rejects(&self) -> u64 {
        self.robust_rejects
    }

    /// Components trimmed or influence-capped by the robust merge so far
    /// (0 in vanilla mode).
    pub fn robust_trims(&self) -> u64 {
        self.robust_trims
    }

    /// Enrols `initiator` in a new instance with explicit metadata (the
    /// async driver selects thresholds itself or reuses
    /// [`select_thresholds`](crate::select_thresholds)).
    pub fn start_instance(
        &mut self,
        initiator: NodeId,
        meta: Arc<InstanceMeta>,
        ctx: &mut EventCtx<'_, Adam2Node>,
    ) -> bool {
        match ctx.nodes.get_mut(initiator) {
            Some(node) => {
                node.begin_instance(meta);
                true
            }
            None => false,
        }
    }

    fn round_of(&self, now: u64) -> u64 {
        now / self.ticks_per_round
    }

    /// One-sided averaging with a received snapshot, which is consumed as
    /// the merge's other side. When `allow_join` is set an unknown
    /// instance is joined first; otherwise it is skipped before anything
    /// of the snapshot (its metadata's refcount included) is touched.
    ///
    /// Joins are only allowed while handling a *request*: the joiner's
    /// response then carries its pre-merge initial state, so the requester
    /// debits the same mass the joiner credited and `Σw = 1` is preserved.
    /// Joining from a response would credit mass the sender never debits
    /// and inflate the weight sum (collapsing the `N = 1/w` estimate).
    fn absorb(
        &self,
        node: &mut Adam2Node,
        snapshot: &mut InstanceLocal,
        round: u64,
        allow_join: bool,
        report: &mut AsyncBatchReport,
    ) {
        if round >= snapshot.meta.end_round
            || (!allow_join && node.active_instance(snapshot.meta.id).is_none())
        {
            return;
        }
        let (rejects, trims) = node.absorb_snapshot_with(snapshot, round, self.robust.as_ref());
        report.robust_rejects += u64::from(rejects);
        report.robust_trims += u64::from(trims);
    }

    /// Absorbs a request and rewrites it, in its own buffers, into the
    /// response: this node's *pre-merge* state for every instance it runs.
    /// The plain case — vanilla merge, same epoch — is
    /// [`InstanceLocal::merge_and_reply`]; every other case saves the
    /// pre-merge state, absorbs as a response would be absorbed, and puts
    /// the saved state in the snapshot's place.
    fn absorb_and_reply(
        &self,
        node: &mut Adam2Node,
        instances: &mut Vec<InstanceLocal>,
        round: u64,
        report: &mut AsyncBatchReport,
    ) {
        instances.retain_mut(|snapshot| {
            let own = node.find_index(snapshot.meta.id);
            if let Some(own) = own.map(|idx| &mut node.instances[idx]) {
                if self.robust.is_none()
                    && round < snapshot.meta.end_round
                    && own.epoch == snapshot.epoch
                {
                    InstanceLocal::merge_and_reply(own, snapshot);
                    return true;
                }
            }
            let before = own.map(|idx| node.instances[idx].clone());
            self.absorb(node, snapshot, round, true, report);
            match before {
                Some(before) if !before.is_due(round) => {
                    *snapshot = before;
                    true
                }
                // Not an instance this node runs: nothing to answer.
                _ => false,
            }
        });
        // Instances only this node runs ride along untouched.
        for own in node.instances.iter().filter(|i| !i.is_due(round)) {
            if !instances.iter().any(|s| s.meta.id == own.meta.id) {
                instances.push(own.clone());
            }
        }
    }

    /// Applies the active adversary's corruption to `node`'s own state just
    /// before it contributes to an exchange with `partner_slot`. A no-op
    /// for honest nodes. Corruption streams are pure functions of the
    /// scenario seed, so the attack replays bit-identically at any thread
    /// count.
    fn corrupt_if_byzantine(
        adversary: &Option<ActiveAdversary>,
        node: &mut Adam2Node,
        fault_round: u64,
        slot: usize,
        partner_slot: usize,
        round: u64,
    ) {
        if let Some(adv) = adversary {
            if adv.is_byzantine(slot) {
                let seed = adv.corruption_seed(fault_round, slot, partner_slot);
                corrupt_node(node, adv.model, seed, round);
            }
        }
    }

    /// Joins (without merging) every active instance in `snapshots` that
    /// the node does not know yet.
    fn join_unknown(node: &mut Adam2Node, snapshots: &[InstanceLocal], round: u64) {
        for snapshot in snapshots {
            if round < snapshot.meta.end_round && node.active_instance(snapshot.meta.id).is_none() {
                node.join_instance_passively(snapshot.meta.clone());
            }
        }
    }

    /// The node's state for every instance still running at `round`, as
    /// the snapshots a message carries.
    fn snapshots(node: &Adam2Node, round: u64) -> Vec<InstanceLocal> {
        let mut instances = Vec::with_capacity(node.active_instances().len());
        let running = node.active_instances().iter().filter(|i| !i.is_due(round));
        instances.extend(running.cloned());
        instances
    }
}

/// Per-shard report of the event driver: whole-protocol counters that
/// handlers cannot update directly (they only hold `&self`).
#[derive(Debug, Default)]
pub struct AsyncBatchReport {
    /// Instance completions observed while handling the shard's events.
    pub completed: u64,
    /// Snapshots rejected by the robust plausibility screen.
    pub robust_rejects: u64,
    /// Components trimmed or influence-capped by the robust merge.
    pub robust_trims: u64,
}

/// Handlers hold no shared mutable state — exchange sequence numbers come
/// from [`BatchCtx::event_stamp`] and duplicate deliveries are suppressed
/// by the engine — which is what makes runs bit-identical at any thread
/// count.
impl AsyncProtocol for AsyncAdam2 {
    type Node = Adam2Node;
    type Message = Adam2Message;
    type Report = AsyncBatchReport;

    fn make_node(&mut self, rng: &mut StdRng) -> Adam2Node {
        Adam2Node::new((self.source)(rng), 100.0)
    }

    fn drift_node(&mut self, _id: NodeId, node: &mut Adam2Node, op: DriftOp, rng: &mut StdRng) {
        match op {
            DriftOp::Shift(delta) => node.shift_value(delta),
            DriftOp::Replace => node.set_value((self.source)(rng)),
        }
    }

    fn on_timer(
        &self,
        id: NodeId,
        node: &mut Adam2Node,
        ctx: &mut BatchCtx<'_, '_, Adam2Message>,
        report: &mut AsyncBatchReport,
    ) {
        let round = self.round_of(ctx.now());
        report.completed += node.finalize_due_instances(round).0;
        let Some(partner) = ctx.random_neighbour(id) else {
            return;
        };
        Self::corrupt_if_byzantine(
            &ctx.adversary(),
            node,
            ctx.round(),
            id.slot(),
            partner.slot(),
            round,
        );
        let request = Adam2Message::Request {
            seq: ctx.event_stamp(),
            instances: Self::snapshots(node, round),
        };
        let bytes = request.encoded_len();
        ctx.send(id, partner, request, bytes);
    }

    fn on_message(
        &self,
        id: NodeId,
        node: &mut Adam2Node,
        from: NodeId,
        message: Adam2Message,
        ctx: &mut BatchCtx<'_, '_, Adam2Message>,
        report: &mut AsyncBatchReport,
    ) {
        let round = self.round_of(ctx.now());
        report.completed += node.finalize_due_instances(round).0;
        match message {
            Adam2Message::Request { seq, mut instances } => {
                // Join unknown instances first so the response carries the
                // pre-merge *initial* state (the requester will debit
                // exactly the mass we are about to credit ourselves with),
                // then absorb and reply in one pass. A Byzantine responder
                // corrupts its own state before replying, so the poison
                // rides the pull half of the exchange.
                Self::join_unknown(node, &instances, round);
                Self::corrupt_if_byzantine(
                    &ctx.adversary(),
                    node,
                    ctx.round(),
                    id.slot(),
                    from.slot(),
                    round,
                );
                self.absorb_and_reply(node, &mut instances, round, report);
                let response = Adam2Message::Response { seq, instances };
                let bytes = response.encoded_len();
                ctx.send(id, from, response, bytes);
            }
            Adam2Message::Response { mut instances, .. } => {
                for snapshot in &mut instances {
                    self.absorb(node, snapshot, round, false, report);
                }
            }
        }
    }

    fn absorb_report(&mut self, report: AsyncBatchReport) {
        self.completed += report.completed;
        self.robust_rejects += report.robust_rejects;
        self.robust_trims += report.robust_trims;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf::StepCdf;
    use crate::instance::InstanceId;
    use crate::metrics::point_errors;
    use adam2_sim::{EventConfig, EventEngine, LatencyModel};

    fn run_async_instance(
        values: Vec<f64>,
        latency: LatencyModel,
        rounds: u64,
    ) -> (EventEngine<AsyncAdam2>, Arc<InstanceMeta>, StepCdf) {
        let n = values.len();
        let truth = StepCdf::from_values(values.clone());
        let period = 100;
        let proto = AsyncAdam2::with_population(period, values, |_| 1.0);
        let config = EventConfig::new(n, 77)
            .with_gossip_period(period)
            .with_latency(latency);
        let mut engine = EventEngine::new(config, proto);
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 1),
            thresholds: vec![25.0, 50.0, 75.0].into(),
            verify_thresholds: Vec::new().into(),
            start_round: 0,
            end_round: rounds,
            multi: false,
        });
        engine.with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.start_instance(initiator, meta.clone(), ctx)
        });
        engine.run_until_parallel(period * (rounds + 2));
        (engine, meta, truth)
    }

    #[test]
    fn async_instance_spreads_and_converges() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (engine, _meta, truth) = run_async_instance(values, LatencyModel::Fixed(10), 40);
        let mut with_estimate = 0;
        for (_, node) in engine.nodes().iter() {
            if let Some(est) = node.estimate() {
                with_estimate += 1;
                let (max_err, _) = point_errors(&truth, &est.thresholds, &est.fractions);
                // Asynchrony floors the accuracy above machine epsilon but
                // far below the interpolation error.
                assert!(max_err < 0.05, "async point error {max_err}");
            }
        }
        assert!(with_estimate >= 99, "only {with_estimate} nodes finished");
    }

    #[test]
    fn short_latency_beats_long_latency() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let errs: Vec<f64> = [
            LatencyModel::Fixed(2),
            LatencyModel::Uniform { min: 40, max: 95 },
        ]
        .into_iter()
        .map(|latency| {
            let (engine, _, truth) = run_async_instance(values.clone(), latency, 40);
            let mut worst = 0.0f64;
            for (_, node) in engine.nodes().iter() {
                if let Some(est) = node.estimate() {
                    let (m, _) = point_errors(&truth, &est.thresholds, &est.fractions);
                    worst = worst.max(m);
                } else {
                    worst = 1.0;
                }
            }
            worst
        })
        .collect();
        assert!(
            errs[0] <= errs[1] * 2.0 + 1e-9,
            "short latency ({}) should not be much worse than long ({})",
            errs[0],
            errs[1]
        );
    }

    /// Sum of the instance's weights over all nodes (1 while it is live
    /// and mass is conserved).
    fn weight_mass(engine: &EventEngine<AsyncAdam2>, id: InstanceId) -> f64 {
        let nodes = engine.nodes().iter();
        nodes
            .filter_map(|(_, node)| node.active_instance(id))
            .map(|inst| inst.weight)
            .sum()
    }

    #[test]
    fn duplicated_messages_are_dropped_by_the_engine() {
        use adam2_sim::FaultScenario;
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let truth = StepCdf::from_values(values.clone());
        let period = 100;
        let id = InstanceId::derive(0, 0, 1);
        let run = |duplication: Option<FaultScenario>| {
            let proto = AsyncAdam2::with_population(period, values.clone(), |_| 1.0);
            let config = EventConfig::new(100, 77)
                .with_gossip_period(period)
                .with_latency(LatencyModel::Fixed(10));
            let mut engine = EventEngine::new(config, proto);
            if let Some(scenario) = duplication {
                engine.set_fault_scenario(scenario).expect("valid scenario");
            }
            let meta = Arc::new(InstanceMeta {
                id,
                thresholds: vec![25.0, 50.0, 75.0].into(),
                verify_thresholds: Vec::new().into(),
                start_round: 0,
                end_round: 40,
                multi: false,
            });
            engine.with_ctx(|proto, ctx| {
                let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
                proto.start_instance(initiator, meta.clone(), ctx)
            });
            // Sample the mass between exchanges (latency 10 < period/2),
            // late enough that every node has joined.
            engine.run_until_parallel(period * 30 + 50);
            let mass = weight_mass(&engine, id);
            engine.run_until_parallel(period * 42);
            (engine, mass)
        };
        let (clean, clean_mass) = run(None);
        let (engine, mass) = run(Some(FaultScenario::new(5).with_duplication(0, 40, 0.5)));
        assert_eq!(clean.duplicated_count(), 0);
        assert!(
            engine.duplicated_count() > 0,
            "fault injected no duplicates"
        );
        // Engine-level suppression: every twin is dropped, none reaches
        // the protocol.
        assert_eq!(engine.dup_dropped_count(), engine.duplicated_count());
        // So no weight is absorbed twice: the instance carries the mass of
        // the duplication-free run, 1 up to the async defect (measured
        // 0.995 vs 1.029; 1.46 when both copies are absorbed).
        assert!(
            (mass - clean_mass).abs() < 0.1 && (mass - 1.0).abs() < 0.15,
            "weight mass {mass} under duplication vs {clean_mass} without"
        );
        let mut sizes = Vec::new();
        for (_, node) in engine.nodes().iter() {
            if let Some(est) = node.estimate() {
                let (max_err, _) = point_errors(&truth, &est.thresholds, &est.fractions);
                assert!(max_err < 0.05, "point error {max_err} under duplication");
                if let Some(n) = est.n_hat {
                    sizes.push(n);
                }
            }
        }
        assert!(!sizes.is_empty());
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        assert!(
            (mean - 100.0).abs() / 100.0 < 0.2,
            "N estimate drifted under duplication: {mean}"
        );
    }

    fn run_batch_instance(
        threads: usize,
        loss: f64,
        rounds: u64,
    ) -> (EventEngine<AsyncAdam2>, StepCdf) {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let truth = StepCdf::from_values(values.clone());
        let period = 100;
        let proto = AsyncAdam2::with_population(period, values, |_| 1.0);
        let config = EventConfig::new(100, 77)
            .with_gossip_period(period)
            .with_latency(LatencyModel::Uniform { min: 10, max: 60 })
            .with_loss_rate(loss)
            .with_threads(threads);
        let mut engine = EventEngine::new(config, proto);
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 1),
            thresholds: vec![25.0, 50.0, 75.0].into(),
            verify_thresholds: Vec::new().into(),
            start_round: 0,
            end_round: rounds,
            multi: false,
        });
        engine.with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.start_instance(initiator, meta.clone(), ctx)
        });
        engine.run_until_parallel(period * (rounds + 2));
        (engine, truth)
    }

    #[test]
    fn batch_driver_completes_an_instance() {
        let (engine, truth) = run_batch_instance(2, 0.0, 40);
        let mut with_estimate = 0;
        for (_, node) in engine.nodes().iter() {
            if let Some(est) = node.estimate() {
                with_estimate += 1;
                let (max_err, _) = point_errors(&truth, &est.thresholds, &est.fractions);
                assert!(max_err < 0.05, "batch point error {max_err}");
            }
        }
        assert!(with_estimate >= 99, "only {with_estimate} nodes finished");
        assert!(engine.protocol().completed_count() >= 99);
    }

    /// The acceptance-criterion bit-identity check: the full Adam2
    /// protocol under the batch driver must produce byte-for-byte equal
    /// node estimates, counters, and traffic at 1, 2, and 4 threads.
    #[test]
    fn batch_driver_is_bit_identical_across_thread_counts() {
        let fingerprint = |threads: usize| {
            let (engine, _) = run_batch_instance(threads, 0.05, 40);
            let mut bits = Vec::new();
            for (_, node) in engine.nodes().iter() {
                match node.estimate() {
                    Some(est) => {
                        bits.push(1);
                        bits.extend(est.fractions.iter().map(|f| f.to_bits()));
                        bits.push(est.n_hat.map_or(0, f64::to_bits));
                    }
                    None => bits.push(0),
                }
            }
            (
                bits,
                engine.delivered_count(),
                engine.lost_count(),
                engine.net().total_bytes(),
                engine.net().total_msgs(),
                engine.protocol().completed_count(),
            )
        };
        let base = fingerprint(1);
        assert_eq!(base, fingerprint(2), "threads=2 diverged from threads=1");
        assert_eq!(base, fingerprint(4), "threads=4 diverged from threads=1");
    }

    /// Every field of a snapshot that goes on the wire, bit for bit.
    fn wire_bits(inst: &InstanceLocal) -> Vec<u64> {
        let mut bits = vec![inst.meta.id.as_u64(), u64::from(inst.epoch)];
        bits.extend(inst.fractions.iter().map(|f| f.to_bits()));
        bits.extend(inst.verify_fractions.iter().map(|f| f.to_bits()));
        bits.extend([inst.count, inst.weight, inst.min, inst.max].map(f64::to_bits));
        bits
    }

    fn sorted_bits(instances: &[InstanceLocal]) -> Vec<Vec<u64>> {
        let mut bits: Vec<_> = instances.iter().map(wire_bits).collect();
        bits.sort();
        bits
    }

    /// Serves `request` at `node` twice — through the in-place
    /// `absorb_and_reply` and through the sequence it replaces (copy the
    /// pre-merge state into a fresh response, then absorb a copy of each
    /// request snapshot) — and requires the same response, node state and
    /// robust counters. Returns the response and the robust reject count.
    fn served_both_ways(
        proto: &AsyncAdam2,
        node: &Adam2Node,
        request: &[InstanceLocal],
        round: u64,
    ) -> (Vec<InstanceLocal>, u64) {
        let mut reference = node.clone();
        let mut reference_report = AsyncBatchReport::default();
        AsyncAdam2::join_unknown(&mut reference, request, round);
        let reference_response = AsyncAdam2::snapshots(&reference, round);
        for snapshot in request {
            let copy = &mut snapshot.clone();
            proto.absorb(&mut reference, copy, round, true, &mut reference_report);
        }

        let mut node = node.clone();
        let mut report = AsyncBatchReport::default();
        let mut response = request.to_vec();
        AsyncAdam2::join_unknown(&mut node, &response, round);
        proto.absorb_and_reply(&mut node, &mut response, round, &mut report);

        assert_eq!(sorted_bits(&response), sorted_bits(&reference_response));
        assert_eq!(
            sorted_bits(node.active_instances()),
            sorted_bits(reference.active_instances())
        );
        assert_eq!(
            (report.robust_rejects, report.robust_trims),
            (
                reference_report.robust_rejects,
                reference_report.robust_trims
            )
        );
        (response, report.robust_rejects)
    }

    #[test]
    fn in_place_response_equals_copy_then_merge() {
        let meta = |nonce: u64, verify: &[f64]| {
            Arc::new(InstanceMeta {
                id: InstanceId::derive(0, 0, nonce),
                thresholds: vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0].into(),
                verify_thresholds: verify.to_vec().into(),
                start_round: 2,
                end_round: 32,
                multi: false,
            })
        };
        let (shared, other) = (meta(1, &[15.0, 45.0]), meta(2, &[]));
        // A mid-run state: a few merges in, so no component is 0 or 1.
        let seasoned = |meta: &Arc<InstanceMeta>, value: f64, initiator: bool| {
            let mut inst = InstanceLocal::join(meta.clone(), &AttrValue::Single(value), initiator);
            for v in [5.0, 33.0, 58.0] {
                let mut peer = InstanceLocal::join(meta.clone(), &AttrValue::Single(v), false);
                InstanceLocal::merge_symmetric(&mut inst, &mut peer);
            }
            inst
        };
        let request = vec![seasoned(&shared, 25.0, true), seasoned(&other, 25.0, true)];
        let responder = |instances: Vec<InstanceLocal>| {
            let mut node = Adam2Node::new(AttrValue::Single(44.0), 100.0);
            node.instances = instances;
            node
        };
        let vanilla = AsyncAdam2::with_population(100, Vec::new(), |_| 1.0);
        let robust = AsyncAdam2::with_population(100, Vec::new(), |_| 1.0)
            .with_robust(RobustPolicy::new().with_trim_fraction(0.25));
        let knows_shared = responder(vec![seasoned(&shared, 44.0, false)]);

        for proto in [&vanilla, &robust] {
            // Plain: one instance known (merged), one unknown (joined, then
            // merged from its initial state); the response answers both.
            let (response, rejects) = served_both_ways(proto, &knows_shared, &request, 10);
            assert_eq!((response.len(), rejects), (2, 0));

            // An instance only the responder runs rides along.
            let runs_third = responder(vec![
                seasoned(&meta(3, &[]), 44.0, false),
                seasoned(&shared, 44.0, false),
            ]);
            let (response, _) = served_both_ways(proto, &runs_third, &request, 10);
            assert_eq!(response.len(), 3);

            // Epoch mismatch, both ways: a newer request epoch makes the
            // responder re-enter first (its response still carries the old
            // epoch); a stale one is answered but not merged.
            for (ours, theirs) in [(0, 2), (3, 1)] {
                let mut node = knows_shared.clone();
                node.instances[0].epoch = ours;
                let mut request = request.clone();
                request[0].epoch = theirs;
                let (response, _) = served_both_ways(proto, &node, &request, 10);
                assert!(response.iter().any(|s| s.epoch == ours));
            }

            // Late joiner: it runs nothing and may join nothing.
            let mut late = responder(Vec::new());
            late.joined_round = 5;
            assert!(served_both_ways(proto, &late, &request, 10).0.is_empty());

            // Unknown instances that expired in flight are not joined; a
            // known one the responder still runs (restart epoch) is answered
            // unmerged.
            let (response, _) = served_both_ways(proto, &responder(Vec::new()), &request, 32);
            assert!(response.is_empty());
            let mut restarted = knows_shared.clone();
            restarted.instances[0].epoch = 1;
            let (response, _) = served_both_ways(proto, &restarted, &request, 40);
            assert_eq!(response.len(), 1);

            // Poison, from either side: robust mode rejects it (and counts
            // the reject even where the late joiner runs nothing), vanilla
            // merges it.
            let rejecting = u64::from(proto.robust.is_some());
            let mut poisoned = request.clone();
            poisoned[0].fractions[2] = 7.5;
            poisoned[1].weight = 40.0;
            let (_, rejects) = served_both_ways(proto, &knows_shared, &poisoned, 10);
            assert_eq!(rejects, 2 * rejecting);
            let (_, rejects) = served_both_ways(proto, &late, &poisoned, 10);
            assert_eq!(rejects, 2 * rejecting);
            let mut corrupted = knows_shared.clone();
            corrupted.instances[0].fractions[0] = -3.0;
            let (_, rejects) = served_both_ways(proto, &corrupted, &request, 10);
            assert_eq!(rejects, rejecting);
        }
    }

    #[test]
    fn system_size_estimate_survives_asynchrony() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let (engine, _, _) = run_async_instance(values, LatencyModel::Fixed(10), 40);
        let mut sizes = Vec::new();
        for (_, node) in engine.nodes().iter() {
            if let Some(est) = node.estimate() {
                if let Some(n) = est.n_hat {
                    sizes.push(n);
                }
            }
        }
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        assert!(
            (mean - 200.0).abs() / 200.0 < 0.2,
            "async N estimate drifted: {mean}"
        );
    }
}
