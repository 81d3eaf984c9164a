//! Network-traffic accounting and streaming statistics.
//!
//! Section VII-I of the paper evaluates Adam2's communication cost: with
//! λ = 50 interpolation points a gossip message is ≈800 B, each peer sends
//! about 40 kB per 25-round instance, and three instances cost ≈120 kB per
//! node *independent of system size*. [`NetStats`] records exactly the
//! quantities needed to reproduce that table: per-node and global message
//! and byte counters, with per-round deltas.

use crate::node::NodeId;

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Bytes sent by this node.
    pub sent_bytes: u64,
    /// Bytes received by this node.
    pub recv_bytes: u64,
    /// Messages sent by this node.
    pub sent_msgs: u64,
    /// Messages received by this node.
    pub recv_msgs: u64,
}

impl NodeTraffic {
    /// Sum of sent and received bytes.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes + self.recv_bytes
    }

    /// Sum of sent and received messages.
    pub fn total_msgs(&self) -> u64 {
        self.sent_msgs + self.recv_msgs
    }
}

/// Global and per-node network statistics.
///
/// The engine resizes the per-slot table as nodes are inserted; counters of
/// a recycled slot are reset so they always describe the *current* occupant.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    per_slot: Vec<NodeTraffic>,
    total_bytes: u64,
    total_msgs: u64,
    round_bytes: u64,
    round_msgs: u64,
}

impl NetStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the per-slot table covers `slots` entries.
    pub(crate) fn ensure_slots(&mut self, slots: usize) {
        if self.per_slot.len() < slots {
            self.per_slot.resize(slots, NodeTraffic::default());
        }
    }

    /// Resets the counters of `slot` (called when a slot is reused by a
    /// fresh node).
    pub(crate) fn reset_slot(&mut self, slot: usize) {
        self.ensure_slots(slot + 1);
        self.per_slot[slot] = NodeTraffic::default();
    }

    /// Marks the beginning of a round, resetting the per-round deltas.
    pub(crate) fn begin_round(&mut self) {
        self.round_bytes = 0;
        self.round_msgs = 0;
    }

    /// Records one symmetric push–pull exchange: `from` sends a request of
    /// `request_bytes` to `to`, which replies with `response_bytes`.
    ///
    /// Charges two messages (one in each direction), as in the paper's cost
    /// model.
    pub fn charge_exchange(
        &mut self,
        from: NodeId,
        to: NodeId,
        request_bytes: usize,
        response_bytes: usize,
    ) {
        self.charge_message(from, to, request_bytes);
        self.charge_message(to, from, response_bytes);
    }

    /// Records a single one-way message of `bytes` from `from` to `to`.
    pub fn charge_message(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        let bytes = bytes as u64;
        self.ensure_slots(from.slot().max(to.slot()) + 1);
        self.per_slot[from.slot()].sent_bytes += bytes;
        self.per_slot[from.slot()].sent_msgs += 1;
        self.per_slot[to.slot()].recv_bytes += bytes;
        self.per_slot[to.slot()].recv_msgs += 1;
        self.total_bytes += bytes;
        self.total_msgs += 1;
        self.round_bytes += bytes;
        self.round_msgs += 1;
    }

    /// Traffic counters for a node.
    pub fn node(&self, id: NodeId) -> NodeTraffic {
        self.per_slot.get(id.slot()).copied().unwrap_or_default()
    }

    /// Total bytes carried by the network so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total messages carried by the network so far.
    pub fn total_msgs(&self) -> u64 {
        self.total_msgs
    }

    /// Bytes carried during the current round so far.
    pub fn round_bytes(&self) -> u64 {
        self.round_bytes
    }

    /// Messages carried during the current round so far.
    pub fn round_msgs(&self) -> u64 {
        self.round_msgs
    }

    /// Summary (count / mean / min / max) of *sent bytes* across the given
    /// nodes — the paper's "each node sends on average 120 kB" metric.
    pub fn sent_bytes_summary<I>(&self, ids: I) -> Accumulator
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut acc = Accumulator::new();
        for id in ids {
            acc.add(self.node(id).sent_bytes as f64);
        }
        acc
    }

    /// Clears all counters (used between experiment phases).
    pub fn reset(&mut self) {
        self.per_slot
            .iter_mut()
            .for_each(|t| *t = NodeTraffic::default());
        self.total_bytes = 0;
        self.total_msgs = 0;
        self.round_bytes = 0;
        self.round_msgs = 0;
    }

    /// Folds a per-thread [`NetShard`] into these statistics, crediting its
    /// traffic to the current round.
    pub fn merge_shard(&mut self, shard: &NetShard) {
        self.ensure_slots(shard.per_slot.len());
        for (mine, theirs) in self.per_slot.iter_mut().zip(&shard.per_slot) {
            mine.sent_bytes += theirs.sent_bytes;
            mine.recv_bytes += theirs.recv_bytes;
            mine.sent_msgs += theirs.sent_msgs;
            mine.recv_msgs += theirs.recv_msgs;
        }
        self.total_bytes += shard.total_bytes;
        self.total_msgs += shard.total_msgs;
        self.round_bytes += shard.total_bytes;
        self.round_msgs += shard.total_msgs;
    }
}

/// A thread-local slice of [`NetStats`], accumulated during a threaded
/// apply phase and folded back with [`NetStats::merge_shard`] at round end.
///
/// Every field is a plain sum, so shards merge commutatively: the totals
/// are identical no matter how the work was distributed over threads — the
/// property the engines' thread-count invariance rests on.
#[derive(Debug, Clone, Default)]
pub struct NetShard {
    per_slot: Vec<NodeTraffic>,
    total_bytes: u64,
    total_msgs: u64,
}

impl NetShard {
    /// Creates a shard covering `slots` node slots.
    pub fn with_slots(slots: usize) -> Self {
        Self {
            per_slot: vec![NodeTraffic::default(); slots],
            total_bytes: 0,
            total_msgs: 0,
        }
    }

    /// Records a single one-way message of `bytes` from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if either slot is outside the range this shard was sized for.
    pub fn charge_message(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        let bytes = bytes as u64;
        self.per_slot[from.slot()].sent_bytes += bytes;
        self.per_slot[from.slot()].sent_msgs += 1;
        self.per_slot[to.slot()].recv_bytes += bytes;
        self.per_slot[to.slot()].recv_msgs += 1;
        self.total_bytes += bytes;
        self.total_msgs += 1;
    }

    /// Records one symmetric push–pull exchange (two messages), mirroring
    /// [`NetStats::charge_exchange`].
    pub fn charge_exchange(
        &mut self,
        from: NodeId,
        to: NodeId,
        request_bytes: usize,
        response_bytes: usize,
    ) {
        self.charge_message(from, to, request_bytes);
        self.charge_message(to, from, response_bytes);
    }
}

/// Tracks conserved quantities ("mass") across rounds and reports drift.
///
/// Push–pull averaging only converges to the correct result if the global
/// sum of estimates is conserved; an interrupted exchange (request applied,
/// response lost) silently destroys mass. The auditor captures a baseline
/// the first time each component is observed and reports the signed drift
/// of every later observation, so tests and benches can assert the
/// invariant `Σ xᵢ = const` (or the fraction-mass defect for protocols
/// with churn) to floating-point tolerance.
///
/// # Examples
///
/// ```
/// let mut auditor = adam2_sim::MassAuditor::new();
/// auditor.observe(0, 10.0); // baseline
/// auditor.observe(0, 10.0 + 1e-12);
/// assert!(auditor.max_drift() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MassAuditor {
    components: std::collections::HashMap<u64, MassComponent>,
}

#[derive(Debug, Clone, Copy)]
struct MassComponent {
    baseline: f64,
    last: f64,
    max_abs_drift: f64,
    /// Most negative signed drift ever observed (≤ 0).
    min_drift: f64,
    /// Most positive signed drift ever observed (≥ 0).
    max_drift: f64,
    observations: u64,
}

impl MassAuditor {
    /// Creates an auditor with no observed components.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the current value of component `key`. The first
    /// observation becomes the component's baseline; later ones update the
    /// drift statistics.
    pub fn observe(&mut self, key: u64, value: f64) {
        let entry = self.components.entry(key).or_insert(MassComponent {
            baseline: value,
            last: value,
            max_abs_drift: 0.0,
            min_drift: 0.0,
            max_drift: 0.0,
            observations: 0,
        });
        entry.observations += 1;
        entry.last = value;
        let signed = value - entry.baseline;
        entry.min_drift = entry.min_drift.min(signed);
        entry.max_drift = entry.max_drift.max(signed);
        let drift = signed.abs();
        if drift > entry.max_abs_drift {
            entry.max_abs_drift = drift;
        }
    }

    /// Largest absolute drift from baseline seen on any component (0 when
    /// nothing was observed).
    pub fn max_drift(&self) -> f64 {
        self.components
            .values()
            .map(|c| c.max_abs_drift)
            .fold(0.0, f64::max)
    }

    /// Signed drift of component `key`'s latest observation from its
    /// baseline, if the component was observed.
    pub fn drift_of(&self, key: u64) -> Option<f64> {
        self.components.get(&key).map(|c| c.last - c.baseline)
    }

    /// Largest absolute drift ever seen on component `key`.
    pub fn max_drift_of(&self, key: u64) -> Option<f64> {
        self.components.get(&key).map(|c| c.max_abs_drift)
    }

    /// The *signed* drift of component `key`'s worst excursion — the
    /// observation farthest from baseline in either direction. Unlike
    /// [`drift_of`](Self::drift_of) this does not forgive a violation
    /// that later returns to baseline (e.g. an instance completing and
    /// leaving the accounting scope): the excursion already corrupted
    /// every estimate derived while it was live.
    pub fn worst_drift_of(&self, key: u64) -> Option<f64> {
        self.components.get(&key).map(|c| {
            if -c.min_drift > c.max_drift {
                c.min_drift
            } else {
                c.max_drift
            }
        })
    }

    /// Classifies component `key`'s *worst excursion* against `tolerance`
    /// — the transient-intolerant counterpart of
    /// [`violation_of`](Self::violation_of).
    pub fn worst_violation_of(&self, key: u64, tolerance: f64) -> Option<MassViolation> {
        let drift = self.worst_drift_of(key)?;
        if drift > tolerance {
            Some(MassViolation::Inflation)
        } else if drift < -tolerance {
            Some(MassViolation::Leakage)
        } else {
            None
        }
    }

    /// Number of observed components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Forgets everything (e.g. between experiment phases).
    pub fn reset(&mut self) {
        self.components.clear();
    }

    /// Classifies component `key`'s latest observation against its
    /// baseline: `None` while the signed drift stays within `tolerance`,
    /// otherwise which *direction* the conservation broke in. Weight
    /// inflation (a Byzantine node claiming aggregation weight it was
    /// never assigned) and leakage (an interrupted exchange destroying
    /// mass) are different attacks with different defenses, so they are
    /// reported as distinct kinds.
    pub fn violation_of(&self, key: u64, tolerance: f64) -> Option<MassViolation> {
        let drift = self.drift_of(key)?;
        if drift > tolerance {
            Some(MassViolation::Inflation)
        } else if drift < -tolerance {
            Some(MassViolation::Leakage)
        } else {
            None
        }
    }

    /// Every component currently in violation, as `(key, kind, signed
    /// drift)` sorted by key.
    pub fn violations(&self, tolerance: f64) -> Vec<(u64, MassViolation, f64)> {
        let mut out: Vec<(u64, MassViolation, f64)> = self
            .components
            .keys()
            .filter_map(|&key| {
                let kind = self.violation_of(key, tolerance)?;
                Some((key, kind, self.drift_of(key).expect("component observed")))
            })
            .collect();
        out.sort_by_key(|&(key, _, _)| key);
        out
    }
}

/// The direction a conservation invariant broke in, as classified by
/// [`MassAuditor::violation_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MassViolation {
    /// The sum rose above its baseline: mass was created, e.g. a Byzantine
    /// node inflating its aggregation weight or a double-absorbed message.
    Inflation,
    /// The sum fell below its baseline: mass was destroyed, e.g. a
    /// response lost after the request side already merged.
    Leakage,
}

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// let mut acc = adam2_sim::Accumulator::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     acc.add(v);
/// }
/// assert_eq!(acc.count(), 4);
/// assert!((acc.mean() - 2.5).abs() < 1e-12);
/// assert_eq!(acc.max(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSlab;

    #[test]
    fn exchange_charges_both_directions() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(());
        let b = slab.insert(());
        let mut net = NetStats::new();
        net.begin_round();
        net.charge_exchange(a, b, 100, 50);
        assert_eq!(net.total_msgs(), 2);
        assert_eq!(net.total_bytes(), 150);
        assert_eq!(net.round_bytes(), 150);
        let ta = net.node(a);
        let tb = net.node(b);
        assert_eq!(ta.sent_bytes, 100);
        assert_eq!(ta.recv_bytes, 50);
        assert_eq!(tb.sent_bytes, 50);
        assert_eq!(tb.recv_bytes, 100);
        assert_eq!(ta.total_msgs(), 2);
    }

    #[test]
    fn round_deltas_reset() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(());
        let b = slab.insert(());
        let mut net = NetStats::new();
        net.begin_round();
        net.charge_message(a, b, 10);
        assert_eq!(net.round_bytes(), 10);
        net.begin_round();
        assert_eq!(net.round_bytes(), 0);
        assert_eq!(net.total_bytes(), 10);
    }

    #[test]
    fn slot_reset_clears_old_traffic() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(());
        let b = slab.insert(());
        let mut net = NetStats::new();
        net.charge_message(a, b, 10);
        net.reset_slot(a.slot());
        assert_eq!(net.node(a).sent_bytes, 0);
        assert_eq!(net.total_bytes(), 10, "global counters unaffected");
    }

    #[test]
    fn shard_merge_matches_direct_charging() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(());
        let b = slab.insert(());
        let c = slab.insert(());

        let mut direct = NetStats::new();
        direct.ensure_slots(slab.slot_count());
        direct.begin_round();
        direct.charge_exchange(a, b, 100, 50);
        direct.charge_message(c, a, 30);

        // Same traffic split across two shards, merged in either order.
        let mut sharded = NetStats::new();
        sharded.ensure_slots(slab.slot_count());
        sharded.begin_round();
        let mut s1 = NetShard::with_slots(slab.slot_count());
        let mut s2 = NetShard::with_slots(slab.slot_count());
        s1.charge_exchange(a, b, 100, 50);
        s2.charge_message(c, a, 30);
        sharded.merge_shard(&s2);
        sharded.merge_shard(&s1);

        assert_eq!(sharded.total_bytes(), direct.total_bytes());
        assert_eq!(sharded.total_msgs(), direct.total_msgs());
        assert_eq!(sharded.round_bytes(), direct.round_bytes());
        assert_eq!(sharded.round_msgs(), direct.round_msgs());
        for id in [a, b, c] {
            assert_eq!(sharded.node(id), direct.node(id));
        }
    }

    #[test]
    fn accumulator_mean_and_variance() {
        let mut acc = Accumulator::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            acc.add(v);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        assert!((acc.variance() - 4.0).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
    }

    #[test]
    fn accumulator_merge_matches_sequential() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Accumulator::new();
        values.iter().for_each(|v| all.add(*v));
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        values[..37].iter().for_each(|v| left.add(*v));
        values[37..].iter().for_each(|v| right.add(*v));
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let acc = Accumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
    }

    #[test]
    fn mass_auditor_empty_round_reports_zero_drift() {
        // A round in which no instance has any participant (e.g. settle
        // rounds after completion) produces no observations: the invariant
        // check `max_drift() <= tol` must hold vacuously, not panic or
        // return NaN.
        let auditor = MassAuditor::new();
        assert_eq!(auditor.max_drift(), 0.0);
        assert_eq!(auditor.component_count(), 0);
        assert_eq!(auditor.drift_of(0), None);
        assert_eq!(auditor.max_drift_of(0), None);
    }

    #[test]
    fn mass_auditor_single_node_instance_is_baseline_only() {
        // A single-node instance never gossips, so each round observes the
        // same (weight, fraction) pair: the first observation sets the
        // baseline and all drift statistics stay exactly zero.
        let mut auditor = MassAuditor::new();
        for _ in 0..5 {
            auditor.observe(42, 1.0);
        }
        assert_eq!(auditor.drift_of(42), Some(0.0));
        assert_eq!(auditor.max_drift_of(42), Some(0.0));
        assert_eq!(auditor.max_drift(), 0.0);
        assert_eq!(auditor.component_count(), 1);
    }

    #[test]
    fn mass_auditor_post_abort_rollback_round_keeps_peak_drift() {
        // An aborted exchange rolls state back before the next round, so
        // the *latest* drift returns to the baseline — but the auditor must
        // remember the mid-abort excursion in `max_drift_of` so the
        // invariant check still flags transiently destroyed mass.
        let mut auditor = MassAuditor::new();
        auditor.observe(3, 50.0); // baseline
        auditor.observe(3, 47.5); // abort destroyed mass mid-round
        auditor.observe(3, 50.0); // rollback round restored it
        assert_eq!(auditor.drift_of(3), Some(0.0), "rollback restores mass");
        assert_eq!(auditor.max_drift_of(3), Some(2.5), "excursion remembered");
        assert_eq!(auditor.max_drift(), 2.5);
    }

    #[test]
    fn mass_auditor_tracks_drift_per_component() {
        let mut auditor = MassAuditor::new();
        auditor.observe(0, 100.0);
        auditor.observe(1, 1.0);
        auditor.observe(0, 100.0);
        assert_eq!(auditor.max_drift(), 0.0);
        auditor.observe(0, 99.5);
        auditor.observe(0, 100.25);
        assert_eq!(auditor.drift_of(0), Some(0.25));
        assert_eq!(auditor.max_drift_of(0), Some(0.5));
        assert_eq!(auditor.drift_of(1), Some(0.0));
        assert_eq!(auditor.max_drift(), 0.5);
        assert_eq!(auditor.component_count(), 2);
        assert_eq!(auditor.drift_of(7), None);
        auditor.reset();
        assert_eq!(auditor.component_count(), 0);
        assert_eq!(auditor.max_drift(), 0.0);
    }

    #[test]
    fn mass_auditor_flags_weight_inflation_as_inflation() {
        // A Byzantine node claiming weight it was never assigned pushes the
        // global sum *above* baseline — distinct from leakage, which the
        // repair layer (not the robust merge) defends against.
        let mut auditor = MassAuditor::new();
        auditor.observe(0, 1.0); // Σw baseline of one instance
        auditor.observe(0, 5.0); // adversary set w = 5 somewhere
        assert_eq!(
            auditor.violation_of(0, 1e-9),
            Some(MassViolation::Inflation)
        );
        assert_eq!(auditor.drift_of(0), Some(4.0));
    }

    #[test]
    fn mass_auditor_flags_destroyed_mass_as_leakage() {
        let mut auditor = MassAuditor::new();
        auditor.observe(0, 1.0);
        auditor.observe(0, 0.75); // response lost after request applied
        assert_eq!(auditor.violation_of(0, 1e-9), Some(MassViolation::Leakage));
        assert_eq!(auditor.drift_of(0), Some(-0.25));
    }

    #[test]
    fn mass_auditor_worst_drift_remembers_transient_excursions() {
        // An instance that completes drops out of the accounting scope,
        // so the *last* observation returns to baseline — but the leak
        // while it was live corrupted every estimate derived from it.
        let mut auditor = MassAuditor::new();
        auditor.observe(0, 0.0);
        auditor.observe(0, -0.04); // leak while the instance runs
        auditor.observe(0, 0.0); // instance due: defect reads 0 again
        assert_eq!(auditor.drift_of(0), Some(0.0));
        assert_eq!(auditor.violation_of(0, 1e-9), None, "last-value forgives");
        assert_eq!(auditor.worst_drift_of(0), Some(-0.04));
        assert_eq!(
            auditor.worst_violation_of(0, 1e-9),
            Some(MassViolation::Leakage)
        );
        // The positive direction wins when it is the larger excursion.
        auditor.observe(0, 0.1);
        auditor.observe(0, 0.0);
        assert_eq!(auditor.worst_drift_of(0), Some(0.1));
        assert_eq!(
            auditor.worst_violation_of(0, 1e-9),
            Some(MassViolation::Inflation)
        );
        assert_eq!(auditor.worst_violation_of(0, 1.0), None, "tolerance");
        assert_eq!(auditor.worst_drift_of(5), None, "unknown component");
    }

    #[test]
    fn mass_auditor_violations_respect_tolerance_and_sort_by_key() {
        let mut auditor = MassAuditor::new();
        auditor.observe(2, 1.0);
        auditor.observe(2, 1.0 + 5e-13); // float noise, inside tolerance
        auditor.observe(9, 1.0);
        auditor.observe(9, 0.5);
        auditor.observe(4, 1.0);
        auditor.observe(4, 2.0);
        assert_eq!(auditor.violation_of(2, 1e-12), None);
        assert_eq!(auditor.violation_of(77, 1e-12), None, "unknown component");
        assert_eq!(
            auditor.violations(1e-12),
            vec![
                (4, MassViolation::Inflation, 1.0),
                (9, MassViolation::Leakage, -0.5),
            ]
        );
    }
}
