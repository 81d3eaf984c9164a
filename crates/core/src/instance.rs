//! Aggregation instances: the unit of Adam2's gossip averaging.
//!
//! An *aggregation instance* (Section IV) is a sequence of gossip rounds
//! that produces one new CDF approximation at every node. The initiating
//! peer picks a set of thresholds `t_i`; every participating peer `p`
//! enters the push–pull averaging protocol with the indicator values
//! `1 if A(p) <= t_i else 0`, so the gossip average of component `i`
//! converges to the fraction `f_i = F(t_i)`. The same averaging run carries
//!
//! * a *weight* `w` (1 at the initiator, 0 elsewhere) whose average
//!   converges to `1/N`, yielding the system-size estimate,
//! * optional *verification points* for self-assessment of accuracy
//!   (Section VI),
//! * the running global minimum/maximum attribute value, merged by
//!   min/max instead of averaging ("Extreme CDF Values").
//!
//! The multi-value extension (Section IV) is supported through
//! [`AttrValue::Multi`]: indicators become per-threshold value *counts* and
//! an extra averaged component tracks the mean number of values per node;
//! the fraction is recovered at finalisation as `f_i = avg_i / avg`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngExt as _;

use crate::aggregation::robust_pair_merge;
use crate::cdf::InterpCdf;
use crate::config::RobustPolicy;
use crate::error::CdfError;
use crate::estimate::DistributionEstimate;

/// Slack for plausibility bounds: honest values can exceed their exact
/// bound by a rounding error after long averaging chains.
const PLAUSIBLE_EPS: f64 = 1e-9;

/// Unique identifier of an aggregation instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(u64);

impl InstanceId {
    /// Derives an id from the start round, the initiator's slot and a
    /// protocol-level nonce (SplitMix64 finalizer, collision probability
    /// negligible).
    pub fn derive(start_round: u64, initiator_slot: u64, nonce: u64) -> Self {
        let mut z = start_round
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(initiator_slot.rotate_left(32))
            .wrapping_add(nonce.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self(z ^ (z >> 31))
    }

    /// Raw id value (for wire encoding).
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw value (wire decoding).
    pub fn from_u64(raw: u64) -> Self {
        Self(raw)
    }
}

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inst-{:016x}", self.0)
    }
}

/// A node's attribute value(s).
///
/// `Single` is the main model of the paper; `Multi` is the Section IV
/// extension where each node contributes a *set* of values (e.g. the sizes
/// of all its files).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// One attribute value.
    Single(f64),
    /// A (possibly empty) set of attribute values.
    Multi(Vec<f64>),
}

impl AttrValue {
    /// The indicator contribution for threshold `t`: for `Single`, `1` if
    /// the value is `<= t`; for `Multi`, the number of values `<= t`.
    pub fn indicator(&self, t: f64) -> f64 {
        match self {
            AttrValue::Single(v) => {
                if *v <= t {
                    1.0
                } else {
                    0.0
                }
            }
            AttrValue::Multi(vs) => vs.iter().filter(|v| **v <= t).count() as f64,
        }
    }

    /// The value-count contribution (`1` for `Single`, `|A(p)|` for
    /// `Multi`).
    pub fn count(&self) -> f64 {
        match self {
            AttrValue::Single(_) => 1.0,
            AttrValue::Multi(vs) => vs.len() as f64,
        }
    }

    /// The local minimum (`+inf` for an empty `Multi`, so min-merging
    /// ignores it).
    pub fn local_min(&self) -> f64 {
        match self {
            AttrValue::Single(v) => *v,
            AttrValue::Multi(vs) => vs.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// The local maximum (`-inf` for an empty `Multi`).
    pub fn local_max(&self) -> f64 {
        match self {
            AttrValue::Single(v) => *v,
            AttrValue::Multi(vs) => vs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// One representative value for neighbour-based threshold bootstrap
    /// (`None` for an empty `Multi`).
    pub fn representative(&self, rng: &mut StdRng) -> Option<f64> {
        match self {
            AttrValue::Single(v) => Some(*v),
            AttrValue::Multi(vs) => {
                if vs.is_empty() {
                    None
                } else {
                    Some(vs[rng.random_range(0..vs.len())])
                }
            }
        }
    }

    /// Whether this is a multi-value attribute.
    pub fn is_multi(&self) -> bool {
        matches!(self, AttrValue::Multi(_))
    }
}

/// Immutable, instance-wide metadata, fixed by the initiator and flooded
/// with the instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceMeta {
    /// Unique instance identifier.
    pub id: InstanceId,
    /// Interpolation-point thresholds `t_i`, sorted ascending.
    pub thresholds: Arc<[f64]>,
    /// Verification-point thresholds `t'_i` (empty when confidence
    /// estimation is disabled), sorted ascending.
    pub verify_thresholds: Arc<[f64]>,
    /// Round in which the instance started.
    pub start_round: u64,
    /// First round in which the instance is finalised (start + duration).
    pub end_round: u64,
    /// Whether nodes contribute multi-value counts.
    pub multi: bool,
}

impl InstanceMeta {
    /// Number of interpolation points (λ).
    pub fn lambda(&self) -> usize {
        self.thresholds.len()
    }

    /// Number of gossip rounds the instance runs.
    pub fn duration(&self) -> u64 {
        self.end_round.saturating_sub(self.start_round)
    }
}

/// Outcome of one robust pairwise instance merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustMergeOutcome {
    /// The partner contribution failed the plausibility check and the
    /// merge was skipped entirely (neither side changed).
    pub rejected: bool,
    /// Components whose influence was limited (trimmed or capped).
    pub limited: u32,
}

/// A peer's local averaging state for one aggregation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceLocal {
    /// Shared instance metadata.
    pub meta: Arc<InstanceMeta>,
    /// Running averages of the indicator contributions, one per threshold.
    pub fractions: Vec<f64>,
    /// Running averages at the verification thresholds.
    pub verify_fractions: Vec<f64>,
    /// Running average of the per-node value count (multi-value mode).
    pub count: f64,
    /// System-size weight: the average converges to `1/N`.
    pub weight: f64,
    /// Running global minimum attribute value (min-merged).
    pub min: f64,
    /// Running global maximum attribute value (max-merged).
    pub max: f64,
    /// Restart epoch (self-healing, Section VI): 0 for the original
    /// averaging run; incremented each time the swarm votes to restart the
    /// instance with fresh indicators. Reconciled epidemically — the
    /// highest epoch wins and lower-epoch peers re-enter from their own
    /// value.
    pub epoch: u32,
    /// Whether this peer initiated the instance (it re-contributes weight 1
    /// on every restart, keeping the global weight mass exactly 1).
    pub initiator: bool,
}

impl InstanceLocal {
    /// Initialises a peer's state when it starts or joins an instance.
    ///
    /// The initiator contributes weight 1; every other peer weight 0, so
    /// the weight mass over the whole system is exactly 1 and its average
    /// converges to `1/N`.
    pub fn join(meta: Arc<InstanceMeta>, value: &AttrValue, initiator: bool) -> Self {
        let fractions = meta
            .thresholds
            .iter()
            .map(|t| value.indicator(*t))
            .collect();
        let verify_fractions = meta
            .verify_thresholds
            .iter()
            .map(|t| value.indicator(*t))
            .collect();
        Self {
            fractions,
            verify_fractions,
            count: value.count(),
            weight: if initiator { 1.0 } else { 0.0 },
            min: value.local_min(),
            max: value.local_max(),
            epoch: 0,
            initiator,
            meta,
        }
    }

    /// Re-enters the averaging run at `epoch`, resetting every averaged
    /// component from this peer's own value — the state a fresh joiner of
    /// that epoch would have. The initiator re-contributes weight 1 so the
    /// global weight mass of the new epoch is exactly 1 again.
    pub fn adopt_epoch(&mut self, epoch: u32, value: &AttrValue) {
        self.epoch = epoch;
        self.fractions = self
            .meta
            .thresholds
            .iter()
            .map(|t| value.indicator(*t))
            .collect();
        self.verify_fractions = self
            .meta
            .verify_thresholds
            .iter()
            .map(|t| value.indicator(*t))
            .collect();
        self.count = value.count();
        self.weight = if self.initiator { 1.0 } else { 0.0 };
        self.min = value.local_min();
        self.max = value.local_max();
    }

    /// Votes to restart the instance: bumps the epoch and resets the local
    /// state ([`adopt_epoch`](InstanceLocal::adopt_epoch)); gossip spreads
    /// the new epoch epidemically.
    pub fn restart(&mut self, value: &AttrValue) {
        self.adopt_epoch(self.epoch + 1, value);
    }

    /// First round at which this instance may be finalised: each restart
    /// epoch extends the deadline by one instance duration so the new
    /// averaging run gets the same number of rounds as the original.
    /// Saturating: a decoded peer state may carry any rounds and epoch.
    pub fn due_round(&self) -> u64 {
        let extension = u64::from(self.epoch).saturating_mul(self.meta.duration());
        self.meta.end_round.saturating_add(extension)
    }

    /// Performs the symmetric push–pull merge of two peers' states:
    /// averaged components are replaced by their mean on *both* sides
    /// (conserving total mass exactly); extrema are min/max-merged.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the two states belong to different
    /// instances.
    pub fn merge_symmetric(a: &mut InstanceLocal, b: &mut InstanceLocal) {
        debug_assert_eq!(a.meta.id, b.meta.id, "instance id mismatch");
        debug_assert_eq!(a.epoch, b.epoch, "epochs must be reconciled before merging");
        for (fa, fb) in a.fractions.iter_mut().zip(&mut b.fractions) {
            let mean = (*fa + *fb) / 2.0;
            *fa = mean;
            *fb = mean;
        }
        for (fa, fb) in a.verify_fractions.iter_mut().zip(&mut b.verify_fractions) {
            let mean = (*fa + *fb) / 2.0;
            *fa = mean;
            *fb = mean;
        }
        let count = (a.count + b.count) / 2.0;
        a.count = count;
        b.count = count;
        let weight = (a.weight + b.weight) / 2.0;
        a.weight = weight;
        b.weight = weight;
        let min = a.min.min(b.min);
        let max = a.max.max(b.max);
        a.min = min;
        b.min = min;
        a.max = max;
        b.max = max;
    }

    /// The responder's half of a non-atomic push–pull exchange, in place:
    /// `own` moves exactly where [`merge_symmetric`](Self::merge_symmetric)
    /// would move it, and `request` — the initiator's snapshot — leaves
    /// holding `own`'s *pre-merge* averaging state, i.e. the response. No
    /// buffer is allocated, copied or freed: the response travels back in
    /// the allocation the request arrived in.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the two states belong to different
    /// instances or epochs.
    pub fn merge_and_reply(own: &mut InstanceLocal, request: &mut InstanceLocal) {
        debug_assert_eq!(own.meta.id, request.meta.id, "instance id mismatch");
        debug_assert_eq!(
            own.epoch, request.epoch,
            "epochs must be reconciled before merging"
        );
        /// `own` to the pair mean (operands in `merge_symmetric`'s order),
        /// `request` to what `own` held.
        fn mean_out(own: &mut f64, request: &mut f64) {
            let before = *own;
            *own = (before + *request) / 2.0;
            *request = before;
        }
        for (fo, fr) in own.fractions.iter_mut().zip(&mut request.fractions) {
            mean_out(fo, fr);
        }
        let verify = own.verify_fractions.iter_mut();
        for (fo, fr) in verify.zip(&mut request.verify_fractions) {
            mean_out(fo, fr);
        }
        mean_out(&mut own.count, &mut request.count);
        mean_out(&mut own.weight, &mut request.weight);
        let (min, max) = (own.min, own.max);
        own.min = min.min(request.min);
        own.max = max.max(request.max);
        request.min = min;
        request.max = max;
    }

    /// Whether this state is a *plausible* honest contribution: every
    /// averaged component finite and non-negative, fractions and count
    /// within the bounds honest averaging can produce (`[0, 1]` per
    /// indicator in single-value mode, unbounded in multi-value mode),
    /// claimed weight at most `weight_cap`, and extrema free of NaNs
    /// (`±inf` is the legitimate empty multi-value pattern).
    ///
    /// Honest states always pass; the bounds only exclude values that no
    /// sequence of joins and symmetric merges can reach. Every component
    /// is screened, without an early exit: honest states, the common case,
    /// are read in full anyway, and the loops stay branch-free.
    pub fn contribution_plausible(&self, weight_cap: f64) -> bool {
        // Two comparisons also reject NaN and ±inf: the upper bound is
        // finite in both modes.
        let component_bound = if self.meta.multi {
            f64::MAX
        } else {
            1.0 + PLAUSIBLE_EPS
        };
        let in_bounds = |v: f64| (v >= -PLAUSIBLE_EPS) & (v <= component_bound);
        let all_in_bounds = |vs: &[f64]| vs.iter().fold(true, |ok, &v| ok & in_bounds(v));
        all_in_bounds(&self.fractions)
            & all_in_bounds(&self.verify_fractions)
            & in_bounds(self.count)
            & self.weight.is_finite()
            & (self.weight >= -PLAUSIBLE_EPS)
            & (self.weight <= weight_cap + PLAUSIBLE_EPS)
            & !self.min.is_nan()
            & !self.max.is_nan()
    }

    /// Robust variant of [`merge_symmetric`](InstanceLocal::merge_symmetric):
    /// both contributions are plausibility-checked (an implausible side
    /// causes the whole pairwise merge of this instance to be *rejected* —
    /// neither side changes), then fractions merge through the trimmed,
    /// influence-capped [`robust_pair_merge`] and the count/weight scalars
    /// through the same symmetric influence cap. Extrema still min/max
    /// merge (NaN-free by the plausibility check).
    ///
    /// With `trim_fraction = 0` and an infinite `influence_cap` the result
    /// is bit-identical to the vanilla merge.
    pub fn merge_symmetric_robust(
        a: &mut InstanceLocal,
        b: &mut InstanceLocal,
        policy: &RobustPolicy,
    ) -> RobustMergeOutcome {
        debug_assert_eq!(a.meta.id, b.meta.id, "instance id mismatch");
        debug_assert_eq!(a.epoch, b.epoch, "epochs must be reconciled before merging");
        if !a.contribution_plausible(policy.weight_cap)
            || !b.contribution_plausible(policy.weight_cap)
        {
            return RobustMergeOutcome {
                rejected: true,
                limited: 0,
            };
        }
        let trim = policy.trim_fraction;
        let cap = policy.influence_cap;
        let mut limited = 0u32;
        limited += robust_pair_merge(&mut a.fractions, &mut b.fractions, trim, cap).limited();
        limited += robust_pair_merge(&mut a.verify_fractions, &mut b.verify_fractions, trim, cap)
            .limited();
        limited += u32::from(Self::capped_scalar_merge(&mut a.count, &mut b.count, cap));
        limited += u32::from(Self::capped_scalar_merge(&mut a.weight, &mut b.weight, cap));
        let min = a.min.min(b.min);
        let max = a.max.max(b.max);
        a.min = min;
        b.min = min;
        a.max = max;
        b.max = max;
        RobustMergeOutcome {
            rejected: false,
            limited,
        }
    }

    /// Symmetric mean of two scalars with the movement clamped to
    /// ±`cap` (conserves `x + y` to rounding); returns whether the cap
    /// bit. Uncapped movement uses the vanilla mean formula.
    fn capped_scalar_merge(x: &mut f64, y: &mut f64, cap: f64) -> bool {
        let delta = (*y - *x) / 2.0;
        if delta.abs() > cap {
            let step = cap.copysign(delta);
            *x += step;
            *y -= step;
            true
        } else {
            let mean = (*x + *y) / 2.0;
            *x = mean;
            *y = mean;
            false
        }
    }

    /// Whether the instance should be finalised at `round` (epoch-aware:
    /// see [`due_round`](InstanceLocal::due_round)).
    pub fn is_due(&self, round: u64) -> bool {
        round >= self.due_round()
    }

    /// The current CDF fractions, normalised for multi-value mode
    /// (`f_i = avg_i / avg`).
    pub fn normalised_fractions(&self) -> Vec<f64> {
        if self.meta.multi {
            if self.count > 0.0 {
                self.fractions.iter().map(|f| f / self.count).collect()
            } else {
                vec![0.0; self.fractions.len()]
            }
        } else {
            self.fractions.clone()
        }
    }

    /// Normalised fractions at the verification thresholds.
    pub fn normalised_verify_fractions(&self) -> Vec<f64> {
        if self.meta.multi {
            if self.count > 0.0 {
                self.verify_fractions
                    .iter()
                    .map(|f| f / self.count)
                    .collect()
            } else {
                vec![0.0; self.verify_fractions.len()]
            }
        } else {
            self.verify_fractions.clone()
        }
    }

    /// Finalises the instance at `round`, producing this peer's
    /// [`DistributionEstimate`]: the interpolated CDF, the system-size
    /// estimate `N = 1/w`, and — if verification points were carried — the
    /// self-assessed accuracy `EstErr_a` / `EstErr_m` (Section VI).
    ///
    /// # Errors
    ///
    /// Returns [`CdfError`] if no valid CDF can be built (e.g. the global
    /// extrema never converged because the peer exchanged no messages).
    pub fn finalize(&self, round: u64) -> Result<DistributionEstimate, CdfError> {
        if !self.min.is_finite() || !self.max.is_finite() || self.min > self.max {
            return Err(CdfError::BadRange {
                min: self.min,
                max: self.max,
            });
        }
        let fractions = self.normalised_fractions();
        let cdf = InterpCdf::from_points(self.min, self.max, &self.meta.thresholds, &fractions)?;
        let n_hat = (self.weight > 0.0).then(|| 1.0 / self.weight);

        let (est_err_avg, est_err_max) = if self.meta.verify_thresholds.is_empty() {
            (None, None)
        } else {
            let verify = self.normalised_verify_fractions();
            let mut sum = 0.0f64;
            let mut max = 0.0f64;
            for (t, f) in self.meta.verify_thresholds.iter().zip(&verify) {
                let e = (cdf.eval(*t) - f).abs();
                sum += e;
                max = max.max(e);
            }
            (
                Some(sum / self.meta.verify_thresholds.len() as f64),
                Some(max),
            )
        };

        Ok(DistributionEstimate {
            cdf,
            n_hat,
            min: self.min,
            max: self.max,
            est_err_avg,
            est_err_max,
            instance: self.meta.id,
            completed_round: round,
            thresholds: self.meta.thresholds.to_vec(),
            fractions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn meta(thresholds: &[f64], multi: bool) -> Arc<InstanceMeta> {
        Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 0),
            thresholds: thresholds.to_vec().into(),
            verify_thresholds: Vec::new().into(),
            start_round: 0,
            end_round: 25,
            multi,
        })
    }

    #[test]
    fn instance_ids_are_distinct() {
        let a = InstanceId::derive(1, 2, 3);
        let b = InstanceId::derive(1, 2, 4);
        let c = InstanceId::derive(2, 2, 3);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, InstanceId::from_u64(a.as_u64()));
    }

    #[test]
    fn single_value_indicators() {
        let v = AttrValue::Single(5.0);
        assert_eq!(v.indicator(4.9), 0.0);
        assert_eq!(v.indicator(5.0), 1.0);
        assert_eq!(v.count(), 1.0);
        assert_eq!(v.local_min(), 5.0);
        assert_eq!(v.local_max(), 5.0);
    }

    #[test]
    fn multi_value_indicators() {
        let v = AttrValue::Multi(vec![1.0, 3.0, 5.0]);
        assert_eq!(v.indicator(0.5), 0.0);
        assert_eq!(v.indicator(3.0), 2.0);
        assert_eq!(v.indicator(10.0), 3.0);
        assert_eq!(v.count(), 3.0);
        assert_eq!(v.local_min(), 1.0);
        assert_eq!(v.local_max(), 5.0);
    }

    #[test]
    fn empty_multi_value_is_neutral() {
        let v = AttrValue::Multi(vec![]);
        assert_eq!(v.indicator(100.0), 0.0);
        assert_eq!(v.count(), 0.0);
        assert_eq!(v.local_min(), f64::INFINITY);
        assert_eq!(v.local_max(), f64::NEG_INFINITY);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(v.representative(&mut rng), None);
    }

    #[test]
    fn join_initialises_indicators_and_weight() {
        let m = meta(&[2.0, 6.0], false);
        let initiator = InstanceLocal::join(m.clone(), &AttrValue::Single(3.0), true);
        assert_eq!(initiator.fractions, vec![0.0, 1.0]);
        assert_eq!(initiator.weight, 1.0);
        let joiner = InstanceLocal::join(m, &AttrValue::Single(1.0), false);
        assert_eq!(joiner.fractions, vec![1.0, 1.0]);
        assert_eq!(joiner.weight, 0.0);
    }

    #[test]
    fn merge_conserves_mass_and_tracks_extrema() {
        let m = meta(&[5.0], false);
        let mut a = InstanceLocal::join(m.clone(), &AttrValue::Single(3.0), true);
        let mut b = InstanceLocal::join(m, &AttrValue::Single(8.0), false);
        let mass_before = a.fractions[0] + b.fractions[0];
        let weight_before = a.weight + b.weight;
        InstanceLocal::merge_symmetric(&mut a, &mut b);
        assert_eq!(a.fractions[0] + b.fractions[0], mass_before);
        assert_eq!(a.weight + b.weight, weight_before);
        assert_eq!(a.fractions[0], 0.5);
        assert_eq!(a.weight, 0.5);
        assert_eq!(a.min, 3.0);
        assert_eq!(a.max, 8.0);
        assert_eq!(b.min, 3.0);
        assert_eq!(b.max, 8.0);
    }

    #[test]
    fn finalize_produces_estimate_with_n() {
        let m = meta(&[5.0], false);
        let mut a = InstanceLocal::join(m.clone(), &AttrValue::Single(3.0), true);
        let mut b = InstanceLocal::join(m, &AttrValue::Single(8.0), false);
        InstanceLocal::merge_symmetric(&mut a, &mut b);
        let est = a.finalize(25).unwrap();
        // Two nodes, one below 5.0 => F(5) = 0.5; weight 0.5 => N = 2.
        assert_eq!(est.cdf.eval(5.0), 0.5);
        assert_eq!(est.n_hat, Some(2.0));
        assert_eq!(est.min, 3.0);
        assert_eq!(est.max, 8.0);
        assert!(est.est_err_avg.is_none());
    }

    #[test]
    fn finalize_rejects_unconverged_extrema() {
        let m = meta(&[5.0], true);
        let a = InstanceLocal::join(m, &AttrValue::Multi(vec![]), false);
        assert!(a.finalize(25).is_err());
    }

    #[test]
    fn multi_value_fractions_are_normalised() {
        let m = meta(&[2.0], true);
        // Node a: 2 of 3 values <= 2; node b: 0 of 1.
        let mut a = InstanceLocal::join(m.clone(), &AttrValue::Multi(vec![1.0, 2.0, 9.0]), true);
        let mut b = InstanceLocal::join(m, &AttrValue::Multi(vec![7.0]), false);
        InstanceLocal::merge_symmetric(&mut a, &mut b);
        // avg_1 = (2+0)/2 = 1; avg = (3+1)/2 = 2 => f = 0.5 = 2/4 true.
        assert_eq!(a.normalised_fractions(), vec![0.5]);
    }

    #[test]
    fn verification_points_yield_confidence() {
        let m = Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 1),
            thresholds: vec![5.0].into(),
            verify_thresholds: vec![3.0, 7.0].into(),
            start_round: 0,
            end_round: 25,
            multi: false,
        });
        let mut a = InstanceLocal::join(m.clone(), &AttrValue::Single(3.0), true);
        let mut b = InstanceLocal::join(m, &AttrValue::Single(8.0), false);
        InstanceLocal::merge_symmetric(&mut a, &mut b);
        let est = a.finalize(25).unwrap();
        assert!(est.est_err_avg.is_some());
        assert!(est.est_err_max.is_some());
        assert!(est.est_err_max.unwrap() >= est.est_err_avg.unwrap());
    }

    #[test]
    fn is_due_matches_end_round() {
        let m = meta(&[1.0], false);
        let a = InstanceLocal::join(m, &AttrValue::Single(1.0), false);
        assert!(!a.is_due(24));
        assert!(a.is_due(25));
        assert!(a.is_due(26));
    }

    #[test]
    fn restart_bumps_epoch_and_extends_deadline() {
        let m = meta(&[5.0], false);
        let value = AttrValue::Single(3.0);
        let mut a = InstanceLocal::join(m.clone(), &value, true);
        let mut b = InstanceLocal::join(m, &AttrValue::Single(8.0), false);
        InstanceLocal::merge_symmetric(&mut a, &mut b);
        assert_eq!(a.due_round(), 25);
        a.restart(&value);
        assert_eq!(a.epoch, 1);
        // Deadline extended by one 25-round duration.
        assert_eq!(a.due_round(), 50);
        assert!(!a.is_due(25));
        assert!(a.is_due(50));
        // State reset to a fresh initiator contribution.
        assert_eq!(a.fractions, vec![1.0]);
        assert_eq!(a.weight, 1.0);
        assert_eq!(a.min, 3.0);
        assert_eq!(a.max, 3.0);
    }

    #[test]
    fn plausibility_accepts_honest_and_rejects_poison() {
        let m = meta(&[2.0, 6.0], false);
        let honest = InstanceLocal::join(m.clone(), &AttrValue::Single(3.0), true);
        assert!(honest.contribution_plausible(1.0));
        // Empty multi-value ±inf extrema are legitimate.
        let empty = InstanceLocal::join(meta(&[2.0], true), &AttrValue::Multi(vec![]), false);
        assert!(empty.contribution_plausible(1.0));
        // Poisoned variants all fail.
        let mut poisoned = honest.clone();
        poisoned.fractions[0] = 7.5;
        assert!(!poisoned.contribution_plausible(1.0));
        let mut nan = honest.clone();
        nan.fractions[1] = f64::NAN;
        assert!(!nan.contribution_plausible(1.0));
        let mut negative = honest.clone();
        negative.fractions[0] = -0.5;
        assert!(!negative.contribution_plausible(1.0));
        let mut inflated = honest.clone();
        inflated.weight = 10.0;
        assert!(!inflated.contribution_plausible(1.0));
        let mut bad_min = honest.clone();
        bad_min.min = f64::NAN;
        assert!(!bad_min.contribution_plausible(1.0));
        // Multi-value components are unbounded above, but finite.
        let values = AttrValue::Multi(vec![1.0, 3.0]);
        let mut multi = InstanceLocal::join(meta(&[2.0], true), &values, false);
        multi.fractions[0] = 1e300;
        assert!(multi.contribution_plausible(1.0));
        multi.count = f64::INFINITY;
        assert!(!multi.contribution_plausible(1.0));
    }

    #[test]
    fn robust_merge_rejects_implausible_partner() {
        let m = meta(&[5.0], false);
        let mut a = InstanceLocal::join(m.clone(), &AttrValue::Single(3.0), true);
        let mut b = InstanceLocal::join(m, &AttrValue::Single(8.0), false);
        b.weight = 50.0; // inflated claim
        let (a0, b0) = (a.clone(), b.clone());
        let outcome = InstanceLocal::merge_symmetric_robust(&mut a, &mut b, &RobustPolicy::new());
        assert!(outcome.rejected);
        // Neither side moved.
        assert_eq!(a, a0);
        assert_eq!(b, b0);
    }

    #[test]
    fn robust_merge_degrades_to_vanilla() {
        let m = meta(&[2.0, 6.0], false);
        let mut a = InstanceLocal::join(m.clone(), &AttrValue::Single(3.0), true);
        let mut b = InstanceLocal::join(m.clone(), &AttrValue::Single(8.0), false);
        let mut va = a.clone();
        let mut vb = b.clone();
        let policy = RobustPolicy::new()
            .with_trim_fraction(0.0)
            .with_influence_cap(f64::INFINITY);
        let outcome = InstanceLocal::merge_symmetric_robust(&mut a, &mut b, &policy);
        InstanceLocal::merge_symmetric(&mut va, &mut vb);
        assert!(!outcome.rejected);
        assert_eq!(outcome.limited, 0);
        assert_eq!(a, va);
        assert_eq!(b, vb);
    }

    #[test]
    fn robust_merge_conserves_mass_while_limiting() {
        let m = meta(&[1.0, 2.0, 3.0, 4.0], false);
        let mut a = InstanceLocal::join(m.clone(), &AttrValue::Single(2.5), true);
        let mut b = InstanceLocal::join(m, &AttrValue::Single(0.5), false);
        let mass_before: f64 = a.fractions.iter().sum::<f64>() + b.fractions.iter().sum::<f64>();
        let weight_before = a.weight + b.weight;
        let policy = RobustPolicy::new()
            .with_trim_fraction(0.25)
            .with_influence_cap(0.1);
        let outcome = InstanceLocal::merge_symmetric_robust(&mut a, &mut b, &policy);
        assert!(!outcome.rejected);
        assert!(outcome.limited > 0);
        let mass_after: f64 = a.fractions.iter().sum::<f64>() + b.fractions.iter().sum::<f64>();
        assert!((mass_before - mass_after).abs() < 1e-12);
        assert!((weight_before - (a.weight + b.weight)).abs() < 1e-12);
    }

    #[test]
    fn adopt_epoch_resets_non_initiator_weight() {
        let m = meta(&[5.0], false);
        let value = AttrValue::Single(8.0);
        let mut b = InstanceLocal::join(m.clone(), &value, false);
        let mut a = InstanceLocal::join(m, &AttrValue::Single(3.0), true);
        InstanceLocal::merge_symmetric(&mut a, &mut b);
        assert_eq!(b.weight, 0.5);
        b.adopt_epoch(2, &value);
        assert_eq!(b.epoch, 2);
        assert_eq!(b.weight, 0.0, "only the initiator re-seeds weight");
        assert_eq!(b.fractions, vec![0.0]);
    }
}
