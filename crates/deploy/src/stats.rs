//! Per-node runtime counters.
//!
//! The reactor shard running a node increments lock-free atomics here; the
//! cluster driver samples them once per tick, diffs against the previous
//! sample, and feeds the deltas into `adam2-telemetry` round snapshots.
//! Peaks (in-flight exchanges, live exchanges per node) use
//! `fetch_max` so the driver reads the high-water mark since its last reset.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shared counter block for one node. All methods are callable from any
/// thread; relaxed ordering is enough because readers only need eventually
/// consistent totals, not synchronisation edges.
#[derive(Debug, Default)]
pub struct NodeStats {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    malformed_frames: AtomicU64,
    frames_rejected_invalid: AtomicU64,
    shim_dropped: AtomicU64,
    exchanges_started: AtomicU64,
    exchanges_completed: AtomicU64,
    exchanges_aborted: AtomicU64,
    retransmissions: AtomicU64,
    backpressure_drops: AtomicU64,
    connections_accepted: AtomicU64,
    inflight: AtomicU64,
    inflight_peak: AtomicU64,
    queue_depth_peak: AtomicU64,
    latencies_us: Mutex<Vec<u64>>,
}

macro_rules! bump {
    ($($method:ident => $field:ident),+ $(,)?) => {
        $(
            #[doc = concat!("Increment `", stringify!($field), "` by one.")]
            pub fn $method(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )+
    };
}

impl NodeStats {
    bump! {
        record_malformed_frame => malformed_frames,
        record_invalid_frame => frames_rejected_invalid,
        record_shim_drop => shim_dropped,
        record_exchange_started => exchanges_started,
        record_exchange_completed => exchanges_completed,
        record_exchange_aborted => exchanges_aborted,
        record_retransmission => retransmissions,
        record_backpressure_drop => backpressure_drops,
        record_connection_accepted => connections_accepted,
    }

    /// Record one outbound frame of `bytes` length.
    pub fn record_frame_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record one inbound frame of `bytes` length.
    pub fn record_frame_received(&self, bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Mark an exchange as entering flight; updates the concurrent peak.
    pub fn enter_flight(&self) {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Mark an exchange as leaving flight (completed or aborted).
    pub fn leave_flight(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Report the node's live-exchange count observed after starting one
    /// (its use of the `queue_capacity` budget).
    pub fn record_queue_depth(&self, depth: usize) {
        self.queue_depth_peak
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Record one round-trip exchange latency in microseconds.
    pub fn record_latency_us(&self, us: u64) {
        self.latencies_us.lock().expect("latency lock").push(us);
    }

    /// Drain the latency samples accumulated since the last call.
    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut *self.latencies_us.lock().expect("latency lock"))
    }

    /// Reset the peak gauges; the driver calls this after each sample so a
    /// peak describes one sampling interval, not the whole run.
    pub fn reset_peaks(&self) {
        let inflight_now = self.inflight.load(Ordering::Relaxed);
        self.inflight_peak.store(inflight_now, Ordering::Relaxed);
        self.queue_depth_peak.store(0, Ordering::Relaxed);
    }

    /// Copy every counter into a plain value.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            frames_rejected_invalid: self.frames_rejected_invalid.load(Ordering::Relaxed),
            shim_dropped: self.shim_dropped.load(Ordering::Relaxed),
            exchanges_started: self.exchanges_started.load(Ordering::Relaxed),
            exchanges_completed: self.exchanges_completed.load(Ordering::Relaxed),
            exchanges_aborted: self.exchanges_aborted.load(Ordering::Relaxed),
            retransmissions: self.retransmissions.load(Ordering::Relaxed),
            backpressure_drops: self.backpressure_drops.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            inflight_peak: self.inflight_peak.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`NodeStats`] block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub frames_sent: u64,
    pub frames_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub malformed_frames: u64,
    pub frames_rejected_invalid: u64,
    pub shim_dropped: u64,
    pub exchanges_started: u64,
    pub exchanges_completed: u64,
    pub exchanges_aborted: u64,
    pub retransmissions: u64,
    pub backpressure_drops: u64,
    pub connections_accepted: u64,
    pub inflight: u64,
    pub inflight_peak: u64,
    pub queue_depth_peak: u64,
}

impl StatsSnapshot {
    /// Per-field difference `self - earlier`, saturating at zero so a reset
    /// between samples cannot produce wrap-around garbage.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            frames_received: self.frames_received.saturating_sub(earlier.frames_received),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            malformed_frames: self
                .malformed_frames
                .saturating_sub(earlier.malformed_frames),
            frames_rejected_invalid: self
                .frames_rejected_invalid
                .saturating_sub(earlier.frames_rejected_invalid),
            shim_dropped: self.shim_dropped.saturating_sub(earlier.shim_dropped),
            exchanges_started: self
                .exchanges_started
                .saturating_sub(earlier.exchanges_started),
            exchanges_completed: self
                .exchanges_completed
                .saturating_sub(earlier.exchanges_completed),
            exchanges_aborted: self
                .exchanges_aborted
                .saturating_sub(earlier.exchanges_aborted),
            retransmissions: self.retransmissions.saturating_sub(earlier.retransmissions),
            backpressure_drops: self
                .backpressure_drops
                .saturating_sub(earlier.backpressure_drops),
            connections_accepted: self
                .connections_accepted
                .saturating_sub(earlier.connections_accepted),
            // Gauges, not counters: carry the later value through.
            inflight: self.inflight,
            inflight_peak: self.inflight_peak,
            queue_depth_peak: self.queue_depth_peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_across_threads() {
        let stats = Arc::new(NodeStats::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_frame_sent(10);
                        s.record_frame_received(20);
                        s.record_exchange_started();
                        s.record_exchange_completed();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.frames_sent, 4000);
        assert_eq!(snap.bytes_sent, 40_000);
        assert_eq!(snap.frames_received, 4000);
        assert_eq!(snap.bytes_received, 80_000);
        assert_eq!(snap.exchanges_started, 4000);
        assert_eq!(snap.exchanges_completed, 4000);
    }

    #[test]
    fn flight_tracking_records_the_peak() {
        let stats = NodeStats::default();
        stats.enter_flight();
        stats.enter_flight();
        stats.enter_flight();
        stats.leave_flight();
        let snap = stats.snapshot();
        assert_eq!(snap.inflight, 2);
        assert_eq!(snap.inflight_peak, 3);

        stats.reset_peaks();
        let snap = stats.snapshot();
        assert_eq!(snap.inflight_peak, 2, "peak resets to the current level");
    }

    #[test]
    fn deltas_subtract_counters_but_carry_gauges() {
        let stats = NodeStats::default();
        stats.record_frame_sent(100);
        let first = stats.snapshot();
        stats.record_frame_sent(50);
        stats.record_queue_depth(7);
        let second = stats.snapshot();
        let delta = second.delta(&first);
        assert_eq!(delta.frames_sent, 1);
        assert_eq!(delta.bytes_sent, 50);
        assert_eq!(delta.queue_depth_peak, 7);
    }

    #[test]
    fn latencies_drain_once() {
        let stats = NodeStats::default();
        stats.record_latency_us(120);
        stats.record_latency_us(250);
        assert_eq!(stats.take_latencies(), vec![120, 250]);
        assert!(stats.take_latencies().is_empty());
    }
}
