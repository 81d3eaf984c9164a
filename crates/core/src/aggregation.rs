//! Classic gossip aggregation primitives (Jelasity, Montresor & Babaoglu,
//! TOCS 2005) — the substrate Adam2 builds on.
//!
//! Adam2's averaging of indicator vectors is the vector generalisation of
//! these scalar protocols. They are provided as standalone
//! [`Protocol`](adam2_sim::Protocol)s both for direct use ("future
//! large-scale applications will ... pick the needed mechanisms from
//! standard libraries", the paper concludes) and as independently tested
//! references for the convergence behaviour Adam2 inherits:
//!
//! * [`MeanAggregation`] — push–pull averaging; every node converges to
//!   the global mean at an exponential rate.
//! * [`ExtremaAggregation`] — epidemic min/max; converges in O(log N)
//!   rounds.
//! * [`CountAggregation`] — system-size estimation via the weight trick
//!   (one initiator holds 1, everyone else 0; the average is `1/N`).

use rand::rngs::StdRng;

use adam2_sim::{Ctx, ExchangeTraffic, NodeId, PlannedExchange, Protocol};

/// The push–pull averaging step on one scalar, 8 bytes each way.
fn average_pair(a: &mut f64, b: &mut f64) -> ExchangeTraffic {
    let mean = (*a + *b) / 2.0;
    *a = mean;
    *b = mean;
    symmetric_traffic(8)
}

/// A request and a response of `bytes` each. These protocols ignore the
/// planned fate, i.e. they run as on a lossless network.
fn symmetric_traffic(bytes: usize) -> ExchangeTraffic {
    ExchangeTraffic {
        request: Some(bytes),
        response: Some(bytes),
        ..ExchangeTraffic::default()
    }
}

/// Push–pull averaging of one scalar per node.
pub struct MeanAggregation {
    source: Box<dyn FnMut(&mut StdRng) -> f64 + Send + Sync>,
}

impl MeanAggregation {
    /// Creates the protocol with a per-node value source.
    pub fn new(source: impl FnMut(&mut StdRng) -> f64 + Send + Sync + 'static) -> Self {
        Self {
            source: Box::new(source),
        }
    }
}

impl std::fmt::Debug for MeanAggregation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeanAggregation").finish_non_exhaustive()
    }
}

impl Protocol for MeanAggregation {
    type Node = f64;

    fn make_node(&mut self, rng: &mut StdRng) -> f64 {
        (self.source)(rng)
    }

    fn apply(&self, _: &PlannedExchange, _round: u64, a: &mut f64, b: &mut f64) -> ExchangeTraffic {
        average_pair(a, b)
    }
}

/// Epidemic minimum/maximum dissemination.
pub struct ExtremaAggregation {
    source: Box<dyn FnMut(&mut StdRng) -> f64 + Send + Sync>,
}

impl std::fmt::Debug for ExtremaAggregation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtremaAggregation").finish_non_exhaustive()
    }
}

/// Per-node state of [`ExtremaAggregation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extrema {
    /// The node's own value.
    pub value: f64,
    /// Smallest value heard of so far.
    pub min: f64,
    /// Largest value heard of so far.
    pub max: f64,
}

impl ExtremaAggregation {
    /// Creates the protocol with a per-node value source.
    pub fn new(source: impl FnMut(&mut StdRng) -> f64 + Send + Sync + 'static) -> Self {
        Self {
            source: Box::new(source),
        }
    }
}

impl Protocol for ExtremaAggregation {
    type Node = Extrema;

    fn make_node(&mut self, rng: &mut StdRng) -> Extrema {
        let value = (self.source)(rng);
        Extrema {
            value,
            min: value,
            max: value,
        }
    }

    fn apply(
        &self,
        _: &PlannedExchange,
        _round: u64,
        a: &mut Extrema,
        b: &mut Extrema,
    ) -> ExchangeTraffic {
        let min = a.min.min(b.min);
        let max = a.max.max(b.max);
        a.min = min;
        b.min = min;
        a.max = max;
        b.max = max;
        symmetric_traffic(16)
    }
}

/// System-size estimation: the gossip COUNT protocol.
///
/// Exactly one node (the initiator) starts with weight 1, everyone else
/// with 0; push–pull averaging conserves the total weight of 1, so every
/// node's weight converges to `1/N` and `1/weight` estimates the system
/// size.
#[derive(Debug, Default)]
pub struct CountAggregation {
    initiated: bool,
}

impl CountAggregation {
    /// Creates the protocol; call [`designate_initiator`] after engine
    /// construction.
    ///
    /// [`designate_initiator`]: CountAggregation::designate_initiator
    pub fn new() -> Self {
        Self::default()
    }

    /// Gives `initiator` the unit weight. Must be called exactly once.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn designate_initiator(&mut self, initiator: NodeId, ctx: &mut Ctx<'_, f64>) {
        assert!(!self.initiated, "initiator already designated");
        if let Some(w) = ctx.nodes.get_mut(initiator) {
            *w = 1.0;
            self.initiated = true;
        }
    }

    /// The size estimate implied by a node's weight (`None` while the
    /// node has not received any weight mass).
    pub fn estimate(weight: f64) -> Option<f64> {
        (weight > 0.0).then(|| 1.0 / weight)
    }
}

impl Protocol for CountAggregation {
    type Node = f64;

    fn make_node(&mut self, _rng: &mut StdRng) -> f64 {
        0.0
    }

    fn apply(&self, _: &PlannedExchange, _round: u64, a: &mut f64, b: &mut f64) -> ExchangeTraffic {
        average_pair(a, b)
    }
}

/// Per-pair outcome of a [`robust_pair_merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustMergeStats {
    /// Components excluded from the merge by the trim rule.
    pub trimmed: u32,
    /// Components whose movement was clamped by the influence cap.
    pub capped: u32,
}

impl RobustMergeStats {
    /// Total components whose influence was limited (trimmed or capped).
    pub fn limited(self) -> u32 {
        self.trimmed + self.capped
    }
}

/// Trimmed mean of `values`: drop the `⌊trim_fraction·n⌋` smallest and the
/// same number of largest values, average the rest. `trim_fraction = 0`
/// is the plain mean; an empty slice yields 0.
pub fn trimmed_mean(values: &[f64], trim_fraction: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let t = (trim_fraction.clamp(0.0, 0.5) * values.len() as f64).floor() as usize;
    if 2 * t >= values.len() {
        // Everything trimmed: fall back to the median-like middle.
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        return sorted[sorted.len() / 2];
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[t..sorted.len() - t];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median-of-means of `values`: split (in order) into `groups` contiguous
/// blocks, average each, return the median of the block means. Robust to
/// a minority of arbitrarily corrupted values while staying close to the
/// mean on clean data. `groups ≤ 1` or a short slice degrade to the plain
/// mean; an empty slice yields 0.
pub fn median_of_means(values: &[f64], groups: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let groups = groups.max(1).min(values.len());
    if groups == 1 {
        return values.iter().sum::<f64>() / values.len() as f64;
    }
    let mut means: Vec<f64> = values
        .chunks(values.len().div_ceil(groups))
        .map(|chunk| chunk.iter().sum::<f64>() / chunk.len() as f64)
        .collect();
    means.sort_by(f64::total_cmp);
    let mid = means.len() / 2;
    if means.len() % 2 == 1 {
        means[mid]
    } else {
        (means[mid - 1] + means[mid]) / 2.0
    }
}

/// Symmetric trimmed, influence-capped pairwise merge of two component
/// vectors (the robust counterpart of the `(a+b)/2` push–pull step).
///
/// The `⌊trim_fraction·n⌋` components with the largest absolute
/// disagreement `|b−a|` are left untouched on both sides; every other
/// component moves to the pairwise mean, except that movement is clamped
/// to ±`influence_cap` (applied symmetrically, so `a+b` is conserved to
/// rounding in every case). With `trim_fraction = 0` and an infinite cap
/// the result is bit-identical to the vanilla merge.
///
/// Nothing is allocated: the trim set is found in one pass over the pair
/// per 16 trimmed components, and every component computes both its capped
/// and its mean value and selects one without branching on the data.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn robust_pair_merge(
    a: &mut [f64],
    b: &mut [f64],
    trim_fraction: f64,
    influence_cap: f64,
) -> RobustMergeStats {
    assert_eq!(a.len(), b.len(), "robust merge needs equal-length vectors");
    // `as` truncates, which is the floor of a non-negative product (and
    // maps NaN to 0) without a libm call.
    let t = (trim_fraction.clamp(0.0, 0.5) * a.len() as f64) as usize;
    let cut = trim_cut(a, b, t);
    let mut capped = 0u32;
    for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
        let (x0, y0) = (*x, *y);
        // `t > 0` first, so an untrimmed merge never computes a rank.
        let trimmed = t > 0 && trim_rank(x0, y0, i) >= cut;
        let delta = (y0 - x0) / 2.0;
        let bites = delta.abs() > influence_cap;
        let step = influence_cap.copysign(delta);
        // Vanilla formula so trim=0 + no cap degrades bit-identically.
        let mean = (x0 + y0) / 2.0;
        let (moved_x, moved_y) = if bites {
            (x0 + step, y0 - step)
        } else {
            (mean, mean)
        };
        *x = if trimmed { x0 } else { moved_x };
        *y = if trimmed { y0 } else { moved_y };
        capped += u32::from(bites & !trimmed);
    }
    RobustMergeStats {
        trimmed: t as u32,
        capped,
    }
}

/// Component `i`'s place in trim order as one integer, larger first: its
/// disagreement `|y−x|`, then its index, lower first (so both sides of an
/// exchange trim the same set). Non-negative floats, NaN included, order
/// by bit pattern as [`f64::total_cmp`] orders them.
fn trim_rank(x: f64, y: f64, i: usize) -> u128 {
    (u128::from((y - x).abs().to_bits()) << 64) | u128::from(!(i as u64))
}

/// The rank of the `t`-th component in trim order: the trimmed components
/// are exactly those ranked at or above it. Each pass keeps, on the stack,
/// the next (up to) 16 ranks below the previous pass's last one.
fn trim_cut(a: &[f64], b: &[f64], t: usize) -> u128 {
    const BATCH: usize = 16;
    let (mut cut, mut left) = (u128::MAX, t);
    while left > 0 {
        let want = left.min(BATCH);
        // Descending; every rank is above 0, so a 0 is a free place.
        let mut top = [0u128; BATCH];
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let rank = trim_rank(x, y, i);
            if rank < cut && rank > top[want - 1] {
                let at = top[..want].partition_point(|&r| r > rank);
                top.copy_within(at..want - 1, at + 1);
                top[at] = rank;
            }
        }
        cut = top[want - 1];
        left -= want;
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use adam2_sim::{Engine, EngineConfig};
    use rand::RngExt as _;

    #[test]
    fn mean_converges_exponentially() {
        let mut next = 0.0;
        let proto = MeanAggregation::new(move |_| {
            next += 1.0;
            next
        });
        let mut engine = Engine::new(EngineConfig::new(256, 61), proto);
        let expected = 257.0 / 2.0;
        let variance_at = |engine: &Engine<MeanAggregation>| {
            engine
                .nodes()
                .iter()
                .map(|(_, v)| (v - expected).powi(2))
                .sum::<f64>()
                / engine.nodes().len() as f64
        };
        let v0 = variance_at(&engine);
        engine.run_rounds(10);
        let v10 = variance_at(&engine);
        engine.run_rounds(10);
        let v20 = variance_at(&engine);
        // Jelasity et al.: variance decays by ~1/(2*sqrt(e)) per round;
        // ten rounds must shrink it by orders of magnitude.
        assert!(v10 < v0 / 100.0, "v0={v0} v10={v10}");
        assert!(v20 < v10 / 100.0, "v10={v10} v20={v20}");
    }

    #[test]
    fn extrema_converge_in_log_rounds() {
        let proto = ExtremaAggregation::new(|rng| rng.random_range(0.0..1e6));
        let mut engine = Engine::new(EngineConfig::new(1024, 62), proto);
        let true_min = engine
            .nodes()
            .iter()
            .map(|(_, e)| e.value)
            .fold(f64::INFINITY, f64::min);
        let true_max = engine
            .nodes()
            .iter()
            .map(|(_, e)| e.value)
            .fold(f64::NEG_INFINITY, f64::max);
        engine.run_rounds(20); // ~2 log2(1024)
        for (_, e) in engine.nodes().iter() {
            assert_eq!(e.min, true_min);
            assert_eq!(e.max, true_max);
        }
    }

    #[test]
    fn count_estimates_system_size() {
        let mut engine = Engine::new(EngineConfig::new(500, 63), CountAggregation::new());
        engine.with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.designate_initiator(initiator, ctx);
        });
        engine.run_rounds(40);
        for (_, w) in engine.nodes().iter() {
            let n = CountAggregation::estimate(*w).expect("weight spread");
            assert!((n - 500.0).abs() < 0.5, "estimate {n}");
        }
    }

    #[test]
    fn count_weight_mass_is_invariant() {
        let mut engine = Engine::new(EngineConfig::new(100, 64), CountAggregation::new());
        engine.with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.designate_initiator(initiator, ctx);
        });
        for _ in 0..20 {
            engine.run_round();
            let mass: f64 = engine.nodes().iter().map(|(_, w)| *w).sum();
            assert!((mass - 1.0).abs() < 1e-12, "mass {mass}");
        }
    }

    #[test]
    fn estimate_requires_weight() {
        assert_eq!(CountAggregation::estimate(0.0), None);
        assert_eq!(CountAggregation::estimate(0.01), Some(100.0));
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let values = [1.0, 2.0, 3.0, 4.0, 1000.0];
        assert_eq!(trimmed_mean(&values, 0.0), 202.0);
        // 20% of 5 = 1 from each tail: mean of {2, 3, 4}.
        assert_eq!(trimmed_mean(&values, 0.2), 3.0);
        assert_eq!(trimmed_mean(&[], 0.2), 0.0);
        // Degenerate over-trim falls back to the middle element.
        assert_eq!(trimmed_mean(&[5.0, 7.0], 0.5), 7.0);
    }

    #[test]
    fn median_of_means_resists_outliers() {
        let clean = [2.0; 12];
        assert_eq!(median_of_means(&clean, 4), 2.0);
        let mut poisoned = clean;
        poisoned[0] = 1e12;
        // One poisoned block cannot move the median of four block means.
        assert_eq!(median_of_means(&poisoned, 4), 2.0);
        // groups=1 degrades to the mean.
        let v = [1.0, 2.0, 3.0];
        assert_eq!(median_of_means(&v, 1), 2.0);
        assert_eq!(median_of_means(&[], 4), 0.0);
    }

    /// The sort-based trim the in-place version replaced: rank every
    /// component by `|b−a|` descending, ties by index, and mask the first
    /// `⌊trim_fraction·n⌋`.
    fn robust_pair_merge_reference(
        a: &mut [f64],
        b: &mut [f64],
        trim_fraction: f64,
        influence_cap: f64,
    ) -> RobustMergeStats {
        assert_eq!(a.len(), b.len(), "robust merge needs equal-length vectors");
        let n = a.len();
        let t = (trim_fraction.clamp(0.0, 0.5) * n as f64).floor() as usize;
        let mut stats = RobustMergeStats::default();
        let mut trimmed = vec![false; n];
        if t > 0 {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&i, &j| {
                (b[j] - a[j])
                    .abs()
                    .total_cmp(&(b[i] - a[i]).abs())
                    .then(i.cmp(&j))
            });
            for &i in order.iter().take(t) {
                trimmed[i] = true;
            }
            stats.trimmed = t as u32;
        }
        for i in 0..n {
            if trimmed[i] {
                continue;
            }
            let delta = (b[i] - a[i]) / 2.0;
            if delta.abs() > influence_cap {
                let step = influence_cap.copysign(delta);
                a[i] += step;
                b[i] -= step;
                stats.capped += 1;
            } else {
                let mean = (a[i] + b[i]) / 2.0;
                a[i] = mean;
                b[i] = mean;
            }
        }
        stats
    }

    #[test]
    fn robust_pair_merge_matches_the_sort_based_reference() {
        let mut rng = adam2_sim::seeded_rng(0x7217);
        for n in [1, 2, 20, 50, 200] {
            for trim in [0.0, 0.1, 0.25, 0.49] {
                for cap in [0.25, f64::INFINITY] {
                    for _ in 0..50 {
                        let mut a: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
                        let mut b: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
                        // Force ties in |b−a|: most components take
                        // eighths, whose gaps are exact and repeat with
                        // either sign, zero included.
                        for i in 0..n {
                            if rng.random_range(0..4) > 0 {
                                a[i] = f64::from(rng.random_range(0..8u8)) / 8.0;
                                b[i] = f64::from(rng.random_range(0..8u8)) / 8.0;
                            }
                        }
                        let (mut ra, mut rb) = (a.clone(), b.clone());
                        let stats = robust_pair_merge(&mut a, &mut b, trim, cap);
                        let expected = robust_pair_merge_reference(&mut ra, &mut rb, trim, cap);
                        assert_eq!(stats, expected, "n={n} trim={trim} cap={cap}");
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&a), bits(&ra), "a: n={n} trim={trim} cap={cap}");
                        assert_eq!(bits(&b), bits(&rb), "b: n={n} trim={trim} cap={cap}");
                    }
                }
            }
        }
    }

    #[test]
    fn robust_pair_merge_degrades_to_vanilla() {
        let mut a = [0.1, 0.5, 0.9, 0.3];
        let mut b = [0.2, 0.4, 0.1, 0.7];
        let (mut va, mut vb) = (a, b);
        let stats = robust_pair_merge(&mut a, &mut b, 0.0, f64::INFINITY);
        assert_eq!(stats, RobustMergeStats::default());
        for i in 0..va.len() {
            let mean = (va[i] + vb[i]) / 2.0;
            va[i] = mean;
            vb[i] = mean;
        }
        assert_eq!(a.to_vec(), va.to_vec());
        assert_eq!(b.to_vec(), vb.to_vec());
    }

    #[test]
    fn robust_pair_merge_trims_largest_disagreement() {
        let mut a = [0.0, 0.0, 0.0, 0.0];
        let mut b = [0.1, 100.0, 0.2, 0.3];
        let stats = robust_pair_merge(&mut a, &mut b, 0.25, f64::INFINITY);
        assert_eq!(stats.trimmed, 1);
        // The poisoned component is untouched on both sides.
        assert_eq!(a[1], 0.0);
        assert_eq!(b[1], 100.0);
        // The rest met in the middle.
        assert_eq!(a[0], 0.05);
        assert_eq!(b[0], 0.05);
    }

    #[test]
    fn robust_pair_merge_caps_influence_and_conserves_mass() {
        let mut a = [0.0, 0.0];
        let mut b = [10.0, 0.2];
        let sum_before: f64 = a.iter().chain(b.iter()).sum();
        let stats = robust_pair_merge(&mut a, &mut b, 0.0, 0.5);
        assert_eq!(stats.capped, 1);
        assert_eq!(a[0], 0.5);
        assert_eq!(b[0], 9.5);
        assert_eq!(a[1], 0.1);
        assert_eq!(b[1], 0.1);
        let sum_after: f64 = a.iter().chain(b.iter()).sum();
        assert!((sum_before - sum_after).abs() < 1e-12);
    }
}
