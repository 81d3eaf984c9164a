//! Sharded hierarchical timer wheel for the event-driven engine.
//!
//! The event engine used to keep its future events in one global
//! `BinaryHeap`, paying O(log n) per push/pop with cache-hostile sift
//! paths once millions of events are in flight. [`TimerWheel`] replaces it
//! with the classic two-level design: a ring of per-tick buckets covering
//! a sliding `horizon` window (O(1) push/pop), backed by a `BTreeMap`
//! overflow level for events scheduled beyond the window (rare: only
//! fault-injected delays outrun a horizon sized to the gossip period plus
//! the maximum latency).
//!
//! Buckets are additionally *sharded by destination slot range*: slot `s`
//! lands in shard `(s / SHARD_RANGE) % shards`. Within one tick the shards
//! partition events into slot-disjoint groups, which is exactly the unit
//! of work the parallel batch executor hands to its workers — draining a
//! tick per shard needs no regrouping pass.
//!
//! # Ordering
//!
//! Every push is stamped with a globally monotonic sequence number, and
//! [`TimerWheel::pop_at_or_before`] merges the shard buckets of the
//! current tick by that stamp. The drain order is therefore exactly
//! `(tick, seq)` — bit-identical to the `BinaryHeap<Reverse<(at, seq)>>`
//! it replaces (asserted by the equivalence test below). Within a bucket
//! pushes arrive in increasing `seq` order because the engine only ever
//! schedules into the future while time advances monotonically, so no
//! sorting is ever needed.

use std::collections::{BTreeMap, VecDeque};

/// Number of contiguous node slots mapped to the same shard. Coarse
/// ranges keep each shard's bucket cache-local for slot-ordered state.
const SHARD_RANGE: u32 = 1024;

/// One shard: a ring of per-tick buckets plus the beyond-horizon overflow.
/// Buckets are deques so the sequential path pops the front in O(1) while
/// pushes append at the back in seq order.
#[derive(Debug)]
struct Shard<T> {
    /// `ring[tick % horizon]` holds the events of exactly one tick in the
    /// window `[cursor, cursor + horizon)`, in push (= seq) order.
    ring: Vec<VecDeque<(u64, T)>>,
    /// Events at ticks `>= cursor + horizon`, spilled into the ring as the
    /// cursor reaches them.
    overflow: BTreeMap<u64, Vec<(u64, T)>>,
}

impl<T> Shard<T> {
    fn new(horizon: u64) -> Self {
        Self {
            ring: (0..horizon).map(|_| VecDeque::new()).collect(),
            overflow: BTreeMap::new(),
        }
    }
}

/// A sharded two-level timer wheel; see the module docs.
#[derive(Debug)]
pub struct TimerWheel<T> {
    shards: Vec<Shard<T>>,
    /// Ring size in ticks (power of two).
    horizon: u64,
    /// Current tick: no event earlier than this remains.
    cursor: u64,
    /// Globally monotonic push stamp.
    seq: u64,
    /// Pending events across all shards and levels.
    len: usize,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel with at least `horizon_hint` ring ticks and
    /// `shards` destination-slot shards.
    pub fn new(horizon_hint: u64, shards: usize) -> Self {
        let horizon = horizon_hint.max(16).next_power_of_two();
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Shard::new(horizon)).collect(),
            horizon,
            cursor: 0,
            seq: 0,
            len: 0,
        }
    }

    /// The shard a destination slot maps to.
    pub fn shard_of(&self, slot: u32) -> usize {
        ((slot / SHARD_RANGE) as usize) % self.shards.len()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` for destination slot `slot` at tick `at`,
    /// returning its sequence stamp. Scheduling before the cursor clamps
    /// to the cursor tick (the engine never does; the clamp keeps the
    /// wheel total even under misuse).
    pub fn push(&mut self, at: u64, slot: u32, item: T) -> u64 {
        let at = at.max(self.cursor);
        self.seq += 1;
        let seq = self.seq;
        let shard_idx = self.shard_of(slot);
        let shard = &mut self.shards[shard_idx];
        if at < self.cursor + self.horizon {
            shard.ring[(at % self.horizon) as usize].push_back((seq, item));
        } else {
            shard.overflow.entry(at).or_default().push((seq, item));
        }
        self.len += 1;
        seq
    }

    /// The earliest pending tick, or `None` if the wheel is empty. Does
    /// not advance the cursor.
    pub fn next_tick(&self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let mut best: Option<u64> = None;
        for shard in &self.shards {
            if let Some((&t, _)) = shard.overflow.first_key_value() {
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        }
        // Scan the ring window; stop early once a candidate beats the
        // remaining window.
        for t in self.cursor..self.cursor + self.horizon {
            if best.is_some_and(|b| b <= t) {
                break;
            }
            let idx = (t % self.horizon) as usize;
            if self.shards.iter().any(|s| !s.ring[idx].is_empty()) {
                return Some(t);
            }
        }
        best
    }

    /// Pops the globally next `(tick, seq, item)` if its tick is `<=
    /// until`; otherwise leaves the wheel untouched and returns `None`.
    pub fn pop_at_or_before(&mut self, until: u64) -> Option<(u64, u64, T)> {
        let tick = self.next_tick()?;
        if tick > until {
            return None;
        }
        self.advance_to(tick);
        // K-way merge of the shard buckets at `tick` by seq stamp: each
        // bucket is seq-sorted, so comparing heads suffices.
        let idx = (tick % self.horizon) as usize;
        let mut best: Option<(u64, usize)> = None;
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(&(seq, _)) = shard.ring[idx].front() {
                if best.is_none_or(|(b, _)| seq < b) {
                    best = Some((seq, s));
                }
            }
        }
        let (_, s) = best.expect("next_tick found a non-empty bucket");
        let (seq, item) = self.shards[s].ring[idx]
            .pop_front()
            .expect("head bucket non-empty");
        self.len -= 1;
        Some((tick, seq, item))
    }

    /// Advances the cursor to `tick`, spilling due overflow entries into
    /// the ring.
    ///
    /// # Panics
    ///
    /// Panics (debug) if undrained events exist before `tick`.
    pub fn advance_to(&mut self, tick: u64) {
        if tick <= self.cursor {
            return;
        }
        debug_assert!(
            self.next_tick().is_none_or(|t| t >= tick),
            "advancing past pending events"
        );
        self.cursor = tick;
        let window_end = self.cursor + self.horizon;
        for shard in &mut self.shards {
            // Spill every overflow tick now inside the window. Overflow
            // stamps predate any ring stamp for the same tick (the cursor
            // is monotone), so they splice in *front* to keep seq order.
            while let Some((&t, _)) = shard.overflow.first_key_value() {
                if t >= window_end {
                    break;
                }
                let spilled = shard.overflow.remove(&t).expect("first key exists");
                let bucket = &mut shard.ring[(t % self.horizon) as usize];
                for entry in spilled.into_iter().rev() {
                    bucket.push_front(entry);
                }
            }
        }
    }

    /// The tick the wheel last advanced to — after a drain, the last
    /// drained tick. The event engine asserts that nothing a window
    /// produces is scheduled at or before it.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Takes every shard bucket of `tick` at once, swapping each with the
    /// (empty) deque `out` yields for that shard, in shard order — the
    /// zero-allocation drain of the parallel batch path: the ring keeps the
    /// capacity `out` brought, `out` leaves with the events. Each taken
    /// bucket is in `(seq)` order and slot-disjoint from the others.
    ///
    /// # Panics
    ///
    /// Panics if `out` yields fewer deques than the wheel has shards, and
    /// (debug) if undrained events exist before `tick` or a yielded deque
    /// is not empty.
    pub fn drain_tick_into<'a>(
        &mut self,
        tick: u64,
        out: impl IntoIterator<Item = &'a mut VecDeque<(u64, T)>>,
    ) where
        T: 'a,
    {
        self.advance_to(tick);
        let idx = (tick % self.horizon) as usize;
        let mut out = out.into_iter();
        for shard in &mut self.shards {
            let out = out.next().expect("one drain bucket per wheel shard");
            debug_assert!(out.is_empty(), "drain scratch must be empty");
            std::mem::swap(&mut shard.ring[idx], out);
            self.len -= out.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng as _};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_tick_then_seq_order() {
        let mut wheel: TimerWheel<&'static str> = TimerWheel::new(8, 4);
        wheel.push(5, 0, "a");
        wheel.push(3, 4096, "b");
        wheel.push(5, 2048, "c");
        wheel.push(3, 1, "d");
        let mut order = Vec::new();
        while let Some((tick, _, item)) = wheel.pop_at_or_before(u64::MAX) {
            order.push((tick, item));
        }
        assert_eq!(order, vec![(3, "b"), (3, "d"), (5, "a"), (5, "c")]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn respects_the_until_bound() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(8, 2);
        wheel.push(10, 0, 1);
        assert_eq!(wheel.pop_at_or_before(9), None);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop_at_or_before(10), Some((10, 1, 1)));
    }

    #[test]
    fn overflow_spills_keep_seq_order() {
        // Horizon 16: tick 100 starts in overflow. A later push to the
        // same tick lands in the ring once the cursor is close enough; the
        // overflow entry must still drain first (smaller seq).
        let mut wheel: TimerWheel<&'static str> = TimerWheel::new(16, 2);
        wheel.push(100, 0, "early-push");
        wheel.push(90, 0, "stepping-stone");
        assert_eq!(
            wheel.pop_at_or_before(u64::MAX).unwrap().2,
            "stepping-stone"
        );
        // Cursor now at 90, window covers 100.
        wheel.push(100, 0, "late-push");
        assert_eq!(wheel.pop_at_or_before(u64::MAX).unwrap().2, "early-push");
        assert_eq!(wheel.pop_at_or_before(u64::MAX).unwrap().2, "late-push");
    }

    #[test]
    fn drain_tick_partitions_by_slot_shard() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(8, 4);
        // Two slots in shard 0's first range, one in shard 1's.
        wheel.push(2, 0, 10);
        wheel.push(2, 1023, 11);
        wheel.push(2, 1024, 20);
        wheel.push(4, 0, 30);
        let mut buckets = vec![VecDeque::new(); 4];
        wheel.drain_tick_into(2, &mut buckets);
        let items: Vec<Vec<u32>> = buckets
            .iter()
            .map(|b| b.iter().map(|(_, v)| *v).collect())
            .collect();
        assert_eq!(items[0], vec![10, 11]);
        assert_eq!(items[1], vec![20]);
        assert!(items[2].is_empty() && items[3].is_empty());
        assert_eq!(wheel.len(), 1, "tick-4 event remains");
        assert_eq!(wheel.cursor(), 2);
    }

    /// The drain swaps instead of taking, so a deque that comes back empty
    /// carries its capacity into the ring: steady-state pushes reallocate
    /// nothing.
    #[test]
    fn drained_buckets_recycle_their_capacity_into_the_ring() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(16, 1);
        let mut scratch = [VecDeque::new()];
        for _ in 0..100 {
            wheel.push(1, 0, 7);
        }
        wheel.drain_tick_into(1, &mut scratch);
        let grown = scratch[0].capacity();
        assert!(grown >= 100);
        scratch[0].clear();
        // Tick 17 shares tick 1's ring slot; draining it hands the grown
        // (and emptied) deque to that slot.
        wheel.push(17, 0, 8);
        wheel.drain_tick_into(17, &mut scratch);
        scratch[0].clear();
        assert_eq!(wheel.shards[0].ring[1].capacity(), grown);
    }

    /// The satellite-mandated equivalence check: a random interleaving of
    /// pushes and pops must drain in exactly the order the old
    /// `BinaryHeap<Reverse<(at, seq)>>` queue produced.
    #[test]
    fn matches_binary_heap_order_on_random_schedules() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wheel: TimerWheel<u64> = TimerWheel::new(32, 4);
            let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut heap_seq = 0u64;
            let mut now = 0u64;
            let mut wheel_order = Vec::new();
            let mut heap_order = Vec::new();
            for step in 0..2000u64 {
                if rng.random_range(0..3) < 2 {
                    // Schedule strictly in the future, as the engine does;
                    // occasionally far beyond the horizon.
                    let delay: u64 = if rng.random_range(0..10) == 0 {
                        rng.random_range(100..500)
                    } else {
                        rng.random_range(1..40)
                    };
                    let slot = rng.random_range(0..8192u32);
                    wheel.push(now + delay, slot, step);
                    heap_seq += 1;
                    heap.push(Reverse((now + delay, heap_seq, step)));
                } else {
                    if let Some((tick, _, item)) = wheel.pop_at_or_before(u64::MAX) {
                        now = tick;
                        wheel_order.push((tick, item));
                    }
                    if let Some(Reverse((at, _, item))) = heap.pop() {
                        heap_order.push((at, item));
                    }
                }
            }
            while let Some((tick, _, item)) = wheel.pop_at_or_before(u64::MAX) {
                wheel_order.push((tick, item));
            }
            while let Some(Reverse((at, _, item))) = heap.pop() {
                heap_order.push((at, item));
            }
            assert_eq!(wheel_order, heap_order, "diverged for seed {seed}");
        }
    }
}
