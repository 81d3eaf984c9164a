//! Adam2 over an asynchronous network (event-driven execution).
//!
//! The paper evaluates Adam2 in PeerSim's cycle-driven mode, where a
//! push–pull exchange is atomic. This module runs the *same node state*
//! ([`Adam2Node`]) over [`adam2_sim::EventEngine`]: a gossip exchange is
//! two real messages (each a [`GossipMessage`]) with latency, and
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
//! encoded: an [`Adam2Message`] wraps the [`GossipMessage`] every driver
//! exchanges, whose entries are [`InstanceLocal`] clones sharing the
//! sender's `Arc<InstanceMeta>` (the thresholds are not copied), and is
//! *charged* [`GossipMessage::encoded_len`], which a unit test pins to the
//! real encoder's output. The initiator's timer makes the exchange's only
//! allocation — the entry list and its fraction vectors. The responder
//! owns the request it is handed and serves it through [`Adam2Node`]'s one
//! responder — [`join_announced`](Adam2Node::join_announced), the
//! Byzantine corruption hook, [`merge_in_place`](Adam2Node::merge_in_place)
//! (pre-merge own state out, pair mean in), then
//! [`append_own`](Adam2Node::append_own) — which rewrites the request into
//! the response in its own buffers. The initiator runs the merge step
//! alone on the response and frees the buffers — on the shard, hence the
//! thread, that allocated them. Only the cases that are not a plain merge
//! (robust mode, an epoch mismatch or a rejected entry) copy state; an
//! integration test pins ≤ 3 allocations per exchange.

use std::sync::Arc;

use rand::rngs::StdRng;

use adam2_sim::{
    ActiveAdversary, AsyncProtocol, BatchCtx, DriftOp, EventCtx, NodeId, PrefetchStage,
};

use crate::config::RobustPolicy;
use crate::instance::{AttrValue, InstanceLocal, InstanceMeta};
use crate::protocol::{corrupt_node, prefetch_instances, Adam2Node, ExchangeOutcome};
use crate::wire::GossipMessage;

/// A gossip message of the asynchronous protocol, in memory (entries keep
/// the sender's `initiator` flag, which is not wire state; receivers
/// ignore it).
#[derive(Debug, Clone)]
pub enum Adam2Message {
    /// Push half of the exchange: the initiator's state for every instance
    /// it runs, stamped with its timer's [`BatchCtx::event_stamp`].
    Request(GossipMessage),
    /// Pull half of the exchange, in the request's buffers: the
    /// responder's *pre-merge* state, the request's `seq` echoed.
    Response(GossipMessage),
}

/// Event-driven Adam2: one gossip exchange per timer fire, served by
/// [`Adam2Node`]'s one responder.
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

    /// Enables robust aggregation: every announced instance is
    /// plausibility-checked before a join and every entry before it is
    /// merged through the trimmed, influence-capped merge (see
    /// [`RobustPolicy`]).
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

    /// The node's state for every instance still running at `round`, as
    /// the entries a message carries.
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
        let request = GossipMessage {
            seq: ctx.event_stamp(),
            instances: Self::snapshots(node, round),
        };
        let bytes = request.encoded_len();
        ctx.send(id, partner, Adam2Message::Request(request), bytes);
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
        let robust = self.robust.as_ref();
        let mut outcome = ExchangeOutcome::default();
        match message {
            Adam2Message::Request(mut msg) => {
                // Join first so the response carries a joiner's *initial*
                // state (the requester debits exactly the mass this node
                // credits itself with); robust mode screens before it
                // joins. A Byzantine responder corrupts its state between
                // join and merge, so the poison rides the pull half of the
                // exchange.
                node.join_announced(&msg.instances, round, robust, &mut outcome);
                Self::corrupt_if_byzantine(
                    &ctx.adversary(),
                    node,
                    ctx.round(),
                    id.slot(),
                    from.slot(),
                    round,
                );
                node.merge_in_place(&mut msg.instances, round, robust, &mut outcome);
                node.append_own(&mut msg.instances, round);
                let bytes = msg.encoded_len();
                ctx.send(id, from, Adam2Message::Response(msg), bytes);
            }
            // Merge only: joining from a response would credit mass its
            // sender never debits and inflate Σw (collapsing N = 1/w).
            Adam2Message::Response(mut msg) => {
                node.merge_in_place(&mut msg.instances, round, robust, &mut outcome);
            }
        }
        report.robust_rejects += u64::from(outcome.robust_rejects);
        report.robust_trims += u64::from(outcome.robust_trims);
    }

    fn prefetch(&self, node: &Adam2Node, stage: PrefetchStage) {
        prefetch_instances(&node.instances, stage);
    }

    fn prefetch_message(&self, message: &Adam2Message, stage: PrefetchStage) {
        let (Adam2Message::Request(msg) | Adam2Message::Response(msg)) = message;
        prefetch_instances(&msg.instances, stage);
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

    /// The sequence the in-place responder replaces: join, reconcile
    /// epochs, copy the node's running state into a fresh response, then
    /// average with a copy of each request entry through `merge_symmetric`
    /// / `merge_symmetric_robust`. Returns the response and the robust
    /// `(rejects, trims)`.
    fn copy_then_merge(
        proto: &AsyncAdam2,
        node: &mut Adam2Node,
        request: &[InstanceLocal],
        round: u64,
    ) -> (Vec<InstanceLocal>, (u64, u64)) {
        let robust = proto.robust.as_ref();
        let plausible = |s: &InstanceLocal| {
            robust.is_none_or(|policy| s.contribution_plausible(policy.weight_cap))
        };
        let mut joins = ExchangeOutcome::default();
        node.join_announced(request, round, robust, &mut joins);
        let (mut rejects, mut trims) = (u64::from(joins.robust_rejects), 0);
        let live = || request.iter().filter(|s| !s.is_due(round));
        for theirs in live().filter(|s| plausible(s)) {
            let mut ours = node.instances.iter_mut();
            if let Some(own) = ours.find(|i| i.meta.id == theirs.meta.id) {
                if own.epoch < theirs.epoch {
                    own.adopt_epoch(theirs.epoch, &node.value);
                }
            }
        }
        let response = AsyncAdam2::snapshots(node, round);
        for theirs in live() {
            let Some(own) = node
                .instances
                .iter_mut()
                .find(|i| i.meta.id == theirs.meta.id)
            else {
                continue;
            };
            if !plausible(theirs) {
                rejects += 1;
                continue;
            }
            if own.epoch != theirs.epoch {
                continue;
            }
            let mut copy = theirs.clone();
            match robust {
                Some(policy) => {
                    let merged = InstanceLocal::merge_symmetric_robust(own, &mut copy, policy);
                    rejects += u64::from(merged.rejected);
                    trims += u64::from(merged.limited);
                }
                None => InstanceLocal::merge_symmetric(own, &mut copy),
            }
        }
        (response, (rejects, trims))
    }

    /// Serves `request` at `node` twice — in place, as `on_message` does
    /// (join, merge in place, append own), and through
    /// [`copy_then_merge`] — and requires the same response, node state and
    /// robust counters. Returns the response and the robust reject count.
    fn served_both_ways(
        proto: &AsyncAdam2,
        node: &Adam2Node,
        request: &[InstanceLocal],
        round: u64,
    ) -> (Vec<InstanceLocal>, u64) {
        let mut reference = node.clone();
        let (reference_response, reference_counts) =
            copy_then_merge(proto, &mut reference, request, round);

        let mut node = node.clone();
        let robust = proto.robust.as_ref();
        let mut outcome = ExchangeOutcome::default();
        let mut response = request.to_vec();
        node.join_announced(&response, round, robust, &mut outcome);
        node.merge_in_place(&mut response, round, robust, &mut outcome);
        node.append_own(&mut response, round);

        assert_eq!(sorted_bits(&response), sorted_bits(&reference_response));
        assert_eq!(
            sorted_bits(node.active_instances()),
            sorted_bits(reference.active_instances())
        );
        let rejects = u64::from(outcome.robust_rejects);
        let trims = u64::from(outcome.robust_trims);
        assert_eq!((rejects, trims), reference_counts);
        (response, rejects)
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
            // responder re-enter first (its response carries the new epoch,
            // so the initiator's delta is against the state it merged); a
            // stale one is answered but not merged.
            for (ours, theirs) in [(0, 2), (3, 1)] {
                let mut node = knows_shared.clone();
                node.instances[0].epoch = ours;
                let mut request = request.clone();
                request[0].epoch = theirs;
                let (response, _) = served_both_ways(proto, &node, &request, 10);
                assert!(response.iter().any(|s| s.epoch == ours.max(theirs)));
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
    fn robust_responder_does_not_join_a_poisoned_announcement() {
        // One node announces an instance whose state no honest node can
        // hold; its robust partner must reject the announcement, not
        // enrol in it.
        let period = 100;
        let proto = AsyncAdam2::with_population(period, vec![10.0, 20.0], |_| 1.0)
            .with_robust(RobustPolicy::new());
        let config = EventConfig::new(2, 5)
            .with_gossip_period(period)
            .with_latency(LatencyModel::Fixed(10));
        let mut engine = EventEngine::new(config, proto);
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 1),
            thresholds: vec![5.0, 15.0, 25.0].into(),
            verify_thresholds: Vec::new().into(),
            start_round: 0,
            end_round: 30,
            multi: false,
        });
        let ids: Vec<NodeId> = engine.nodes().iter().map(|(id, _)| id).collect();
        let poisoner = engine.nodes_mut().get_mut(ids[0]).expect("live");
        poisoner.begin_instance(meta.clone());
        poisoner.instances[0].fractions[1] = 7.5;
        engine.run_until_parallel(period * 3);
        let partner = engine.nodes().get(ids[1]).expect("live");
        assert!(
            partner.active_instance(meta.id).is_none(),
            "enrolled in a poisoned announcement"
        );
        assert!(engine.protocol().robust_rejects() > 0);
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
