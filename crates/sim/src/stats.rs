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

    /// A shared handle over the per-slot table only (see [`RawTraffic`]);
    /// its users credit the totals with [`add_totals`](NetStats::add_totals).
    pub(crate) fn raw_per_slot(&mut self) -> RawTraffic<'_> {
        RawTraffic {
            ptr: self.per_slot.as_mut_ptr(),
            len: self.per_slot.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Credits `bytes` and `msgs` already charged per slot through a
    /// [`RawTraffic`] to the global and current-round totals.
    pub(crate) fn add_totals(&mut self, bytes: u64, msgs: u64) {
        self.total_bytes += bytes;
        self.total_msgs += msgs;
        self.round_bytes += bytes;
        self.round_msgs += msgs;
    }
}

/// Shared handle that charges [`NetStats`]'s per-slot counters by raw
/// pointer, for the apply phase (the traffic twin of the node
/// slab's raw payload handle). It never grows the table.
pub(crate) struct RawTraffic<'a> {
    ptr: *mut NodeTraffic,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut NodeTraffic>,
}

// One RawTraffic is shared across the scoped workers of an apply phase on
// more than one thread; the engine guarantees that the slots they charge
// concurrently are disjoint.
unsafe impl Sync for RawTraffic<'_> {}
unsafe impl Send for RawTraffic<'_> {}

impl RawTraffic<'_> {
    /// Charges one message of `bytes` from `from` to `to` to their per-slot
    /// counters only.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no other thread charges either slot
    /// for the duration of the call.
    ///
    /// # Panics
    ///
    /// Panics if either slot lies beyond the table.
    pub(crate) unsafe fn charge_message(&self, from: NodeId, to: NodeId, bytes: u64) {
        assert!(from.slot().max(to.slot()) < self.len, "slot out of range");
        let sender = &mut *self.ptr.add(from.slot());
        sender.sent_bytes += bytes;
        sender.sent_msgs += 1;
        let receiver = &mut *self.ptr.add(to.slot());
        receiver.recv_bytes += bytes;
        receiver.recv_msgs += 1;
    }

    /// The counters of `slot`, shared (for cache hints). Panics past the
    /// table.
    ///
    /// # Safety
    ///
    /// Nothing may charge `slot` while the result is alive.
    pub(crate) unsafe fn peek_slot(&self, slot: usize) -> &NodeTraffic {
        assert!(slot < self.len, "slot out of range");
        &*self.ptr.add(slot)
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
    max_abs_drift: f64,
    /// Most negative signed drift ever observed (≤ 0).
    min_drift: f64,
    /// Most positive signed drift ever observed (≥ 0).
    max_drift: f64,
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
            max_abs_drift: 0.0,
            min_drift: 0.0,
            max_drift: 0.0,
        });
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

    /// Largest absolute drift ever seen on component `key`.
    pub fn max_drift_of(&self, key: u64) -> Option<f64> {
        self.components.get(&key).map(|c| c.max_abs_drift)
    }

    /// The *signed* drift of component `key`'s worst excursion — the
    /// observation farthest from baseline in either direction. A violation
    /// that later returns to baseline (e.g. an instance completing and
    /// leaving the accounting scope) is not forgiven: the excursion
    /// already corrupted every estimate derived while it was live.
    pub fn worst_drift_of(&self, key: u64) -> Option<f64> {
        self.components.get(&key).map(|c| {
            if -c.min_drift > c.max_drift {
                c.min_drift
            } else {
                c.max_drift
            }
        })
    }

    /// Classifies component `key`'s *worst excursion* against `tolerance`:
    /// `None` while it stays within `tolerance`, otherwise which
    /// *direction* the conservation broke in. Weight inflation (a
    /// Byzantine node claiming aggregation weight it was never assigned)
    /// and leakage (an interrupted exchange destroying mass) are different
    /// attacks with different defenses, so they are reported as distinct
    /// kinds.
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
}

/// The direction a conservation invariant broke in, as classified by
/// [`MassAuditor::worst_violation_of`].
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
        net.charge_message(a, b, 100);
        net.charge_message(b, a, 50);
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
    fn raw_charging_plus_totals_matches_direct_charging() {
        let mut slab = NodeSlab::new();
        let a = slab.insert(());
        let b = slab.insert(());
        let c = slab.insert(());

        let mut direct = NetStats::new();
        direct.ensure_slots(slab.slot_count());
        direct.begin_round();
        direct.charge_message(a, b, 100);
        direct.charge_message(b, a, 50);
        direct.charge_message(c, a, 30);

        let mut raw = NetStats::new();
        raw.ensure_slots(slab.slot_count());
        raw.begin_round();
        {
            let handle = raw.raw_per_slot();
            // SAFETY: one thread, no other borrow of the table.
            unsafe {
                handle.charge_message(c, a, 30);
                handle.charge_message(a, b, 100);
                handle.charge_message(b, a, 50);
            }
        }
        raw.add_totals(180, 3);

        assert_eq!(raw.total_bytes(), direct.total_bytes());
        assert_eq!(raw.total_msgs(), direct.total_msgs());
        assert_eq!(raw.round_bytes(), direct.round_bytes());
        assert_eq!(raw.round_msgs(), direct.round_msgs());
        for id in [a, b, c] {
            assert_eq!(raw.node(id), direct.node(id));
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
        assert_eq!(auditor.worst_drift_of(0), None);
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
        assert_eq!(auditor.worst_drift_of(42), Some(0.0));
        assert_eq!(auditor.max_drift_of(42), Some(0.0));
        assert_eq!(auditor.max_drift(), 0.0);
    }

    #[test]
    fn mass_auditor_post_abort_rollback_round_keeps_peak_drift() {
        // An aborted exchange rolls state back before the next round, so
        // the *latest* drift returns to the baseline — but the auditor must
        // remember the mid-abort excursion so the invariant check still
        // flags transiently destroyed mass.
        let mut auditor = MassAuditor::new();
        auditor.observe(3, 50.0); // baseline
        auditor.observe(3, 47.5); // abort destroyed mass mid-round
        auditor.observe(3, 50.0); // rollback round restored it
        assert_eq!(auditor.max_drift_of(3), Some(2.5), "excursion remembered");
        assert_eq!(auditor.worst_drift_of(3), Some(-2.5));
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
        assert_eq!(auditor.max_drift_of(0), Some(0.5));
        assert_eq!(auditor.worst_drift_of(0), Some(-0.5));
        assert_eq!(auditor.max_drift_of(1), Some(0.0));
        assert_eq!(auditor.max_drift(), 0.5);
        assert_eq!(auditor.max_drift_of(7), None);
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
            auditor.worst_violation_of(0, 1e-9),
            Some(MassViolation::Inflation)
        );
        assert_eq!(auditor.worst_drift_of(0), Some(4.0));
    }

    #[test]
    fn mass_auditor_flags_destroyed_mass_as_leakage() {
        let mut auditor = MassAuditor::new();
        auditor.observe(0, 1.0);
        auditor.observe(0, 0.75); // response lost after request applied
        assert_eq!(
            auditor.worst_violation_of(0, 1e-9),
            Some(MassViolation::Leakage)
        );
        assert_eq!(auditor.worst_drift_of(0), Some(-0.25));
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
}
