//! Metric registry: counters, gauges, and log-bucketed histograms.
//!
//! Metrics are registered once by name and then addressed by typed index
//! handles ([`CounterId`], [`GaugeId`], [`HistogramId`]), so the hot path
//! never hashes strings. The parallel engine records into per-worker
//! [`MetricShard`]s and merges them in deterministic (worker) order at
//! round end. Counter
//! and histogram merges are commutative sums, so the merged totals are
//! identical for any shard partitioning; gauges are last-write-wins and are
//! therefore only settable on the single-threaded driver, never in shards.

/// Index handle for a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Index handle for a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) usize);

/// Index handle for a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(pub(crate) usize);

/// Number of buckets in a log-bucketed histogram: one for zero plus one per
/// possible `u64` bit length.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram over `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `b >= 1` holds values whose bit
/// length is `b`, i.e. the half-open range `[2^(b-1), 2^b)`. Count, sum,
/// min, and max are tracked exactly alongside the buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a sample value.
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Occupancy of one bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Folds another histogram into this one. Commutative and associative,
    /// so shard merges yield the same result in any order.
    pub fn absorb(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

/// Registry of named counters, gauges, and histograms.
///
/// Registration is idempotent: registering an existing name returns the
/// original handle. Lookups on the record path are by index only.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<f64>,
    histogram_names: Vec<&'static str>,
    histograms: Vec<Histogram>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| *n == name) {
            return CounterId(i);
        }
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a gauge by name.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| *n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name);
        self.gauges.push(0.0);
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram by name.
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        if let Some(i) = self.histogram_names.iter().position(|n| *n == name) {
            return HistogramId(i);
        }
        self.histogram_names.push(name);
        self.histograms.push(Histogram::new());
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0] += delta;
    }

    /// Reads a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Sets a gauge to its latest observation.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0] = value;
    }

    /// Reads a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0]
    }

    /// Records a histogram sample.
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].record(value);
    }

    /// Reads a histogram.
    pub fn histogram_value(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0]
    }

    /// Creates a worker-local shard compatible with this registry's current
    /// counter and histogram layout.
    pub fn shard(&self) -> MetricShard {
        MetricShard {
            counters: vec![0; self.counters.len()],
            histograms: vec![Histogram::new(); self.histograms.len()],
        }
    }

    /// Folds a worker shard into the registry. Gauges are not shardable and
    /// are untouched.
    ///
    /// # Panics
    ///
    /// Panics if the shard was created before additional metrics were
    /// registered (layout mismatch).
    pub fn merge_shard(&mut self, shard: &MetricShard) {
        assert_eq!(
            shard.counters.len(),
            self.counters.len(),
            "metric shard layout mismatch (counters)"
        );
        assert_eq!(
            shard.histograms.len(),
            self.histograms.len(),
            "metric shard layout mismatch (histograms)"
        );
        for (c, s) in self.counters.iter_mut().zip(shard.counters.iter()) {
            *c += s;
        }
        for (h, s) in self.histograms.iter_mut().zip(shard.histograms.iter()) {
            h.absorb(s);
        }
    }

    /// Zeroes all counters, gauges, and histograms while keeping the
    /// registered names and handles valid.
    pub fn reset_values(&mut self) {
        for c in &mut self.counters {
            *c = 0;
        }
        for g in &mut self.gauges {
            *g = 0.0;
        }
        for h in &mut self.histograms {
            h.reset();
        }
    }

    /// Iterates `(name, value)` over all counters.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counter_names
            .iter()
            .copied()
            .zip(self.counters.iter().copied())
    }

    /// Iterates `(name, value)` over all gauges.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauge_names
            .iter()
            .copied()
            .zip(self.gauges.iter().copied())
    }

    /// Iterates `(name, histogram)` over all histograms.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histogram_names
            .iter()
            .copied()
            .zip(self.histograms.iter())
    }
}

/// Worker-local slice of counters and histograms for lock-free recording on
/// the parallel apply path. Merged into the owning [`MetricRegistry`] in
/// deterministic chunk order via [`MetricRegistry::merge_shard`].
#[derive(Debug, Clone)]
pub struct MetricShard {
    counters: Vec<u64>,
    histograms: Vec<Histogram>,
}

impl MetricShard {
    /// Adds to a sharded counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0] += delta;
    }

    /// Records a sharded histogram sample.
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut reg = MetricRegistry::new();
        let a = reg.counter("exchanges");
        let b = reg.counter("repairs");
        let a2 = reg.counter("exchanges");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        reg.add(a, 3);
        reg.add(a2, 2);
        assert_eq!(reg.counter_value(a), 5);
    }

    #[test]
    fn gauges_hold_latest_value() {
        let mut reg = MetricRegistry::new();
        let g = reg.gauge("err_a");
        reg.set(g, 0.25);
        reg.set(g, 0.125);
        assert_eq!(reg.gauge_value(g), 0.125);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(7), 1); // 100 ∈ [64, 128)
    }

    #[test]
    fn shard_merge_is_order_independent() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("bytes");
        let h = reg.histogram("msg_size");

        let mut s1 = reg.shard();
        let mut s2 = reg.shard();
        s1.add(c, 10);
        s1.record(h, 8);
        s2.add(c, 32);
        s2.record(h, 1024);
        s2.record(h, 0);

        let mut forward = MetricRegistry::new();
        let fc = forward.counter("bytes");
        let fh = forward.histogram("msg_size");
        forward.merge_shard(&s1);
        forward.merge_shard(&s2);

        let mut backward = MetricRegistry::new();
        let bc = backward.counter("bytes");
        let bh = backward.histogram("msg_size");
        backward.merge_shard(&s2);
        backward.merge_shard(&s1);

        assert_eq!(forward.counter_value(fc), 42);
        assert_eq!(backward.counter_value(bc), 42);
        let (f, b) = (forward.histogram_value(fh), backward.histogram_value(bh));
        assert_eq!(f.count(), b.count());
        assert_eq!(f.sum(), b.sum());
        assert_eq!(f.min(), b.min());
        assert_eq!(f.max(), b.max());
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(f.bucket(i), b.bucket(i));
        }
    }

    #[test]
    #[should_panic(expected = "layout mismatch")]
    fn stale_shard_layout_panics() {
        let mut reg = MetricRegistry::new();
        reg.counter("a");
        let shard = reg.shard();
        reg.counter("b");
        reg.merge_shard(&shard);
    }

    #[test]
    fn reset_values_keeps_handles() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("n");
        let g = reg.gauge("x");
        let h = reg.histogram("s");
        reg.add(c, 7);
        reg.set(g, 1.5);
        reg.record(h, 9);
        reg.reset_values();
        assert_eq!(reg.counter_value(c), 0);
        assert_eq!(reg.gauge_value(g), 0.0);
        assert_eq!(reg.histogram_value(h).count(), 0);
        assert_eq!(reg.counters().count(), 1);
    }
}
