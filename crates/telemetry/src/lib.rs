//! Observability layer for the Adam2 reproduction: metric registry,
//! structured event tracing, per-round snapshots, and run manifests.
//!
//! The crate is dependency-free (std only) so simulation crates can use it
//! without pulling anything into the hot path. Three design rules keep the
//! instrumentation honest:
//!
//! 1. **Never touch simulation randomness.** Recording a metric or event
//!    draws nothing from any engine RNG, so a run with telemetry attached
//!    is bit-identical to one without.
//! 2. **Shard, then merge in deterministic order.** Parallel workers write
//!    into [`MetricShard`]s (plain memory, no locks); the driver merges
//!    them in worker order at round end. Counter and histogram merges are
//!    commutative sums, so totals are independent of the thread count.
//! 3. **Fixed export schema.** [`RoundSnapshot`] is a closed struct, not a
//!    bag of labels; the JSONL/CSV column set is documented in DESIGN.md
//!    and validated by CI.
//!
//! [`Telemetry`] bundles the three stores and knows how to export them as
//! `manifest.json` + `rounds.jsonl` + `rounds.csv` + `events.jsonl`.

mod events;
mod manifest;
mod metrics;
mod snapshot;

pub use events::{Event, EventKind, EventTrace};
pub use manifest::{fnv1a, git_dirty, git_revision, RunManifest, MANIFEST_SCHEMA_VERSION};
pub use metrics::{
    CounterId, GaugeId, Histogram, HistogramId, MetricRegistry, MetricShard, HISTOGRAM_BUCKETS,
};
pub use snapshot::{json_f64, RoundSnapshot};

use std::io::Write as _;
use std::path::Path;

/// Default event-ring capacity when none is requested.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Aggregate telemetry store: metrics + event trace + per-round snapshots.
#[derive(Debug)]
pub struct Telemetry {
    /// Named counters, gauges, and histograms.
    pub metrics: MetricRegistry,
    /// Ring-buffered structured events.
    pub events: EventTrace,
    snapshots: Vec<RoundSnapshot>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl Telemetry {
    /// Creates an empty store whose event ring retains `event_capacity`
    /// events.
    pub fn new(event_capacity: usize) -> Self {
        Self {
            metrics: MetricRegistry::new(),
            events: EventTrace::new(event_capacity),
            snapshots: Vec::new(),
        }
    }

    /// Appends a completed round snapshot.
    pub fn push_snapshot(&mut self, snapshot: RoundSnapshot) {
        self.snapshots.push(snapshot);
    }

    /// Mutable access to the snapshot for `round`, if one was recorded —
    /// used by bench drivers to annotate engine-recorded rounds with
    /// measurements (Err_m/Err_a, mass defects) only the harness can take.
    pub fn snapshot_mut(&mut self, round: u64) -> Option<&mut RoundSnapshot> {
        // Snapshots are pushed in round order; search from the back since
        // annotation nearly always targets the latest round.
        self.snapshots.iter_mut().rev().find(|s| s.round == round)
    }

    /// All recorded snapshots, in round order.
    pub fn snapshots(&self) -> &[RoundSnapshot] {
        &self.snapshots
    }

    /// Writes `manifest.json`, `rounds.jsonl`, `rounds.csv`, and
    /// `events.jsonl` under `dir` (created if missing).
    pub fn export(&self, dir: &Path, manifest: &RunManifest) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("manifest.json"), manifest.to_json())?;

        let mut jsonl = std::fs::File::create(dir.join("rounds.jsonl"))?;
        for s in &self.snapshots {
            writeln!(jsonl, "{}", s.jsonl())?;
        }

        let mut csv = std::fs::File::create(dir.join("rounds.csv"))?;
        writeln!(csv, "{}", RoundSnapshot::CSV_HEADER)?;
        for s in &self.snapshots {
            writeln!(csv, "{}", s.csv_row())?;
        }

        let mut events = std::fs::File::create(dir.join("events.jsonl"))?;
        for e in self.events.iter() {
            writeln!(events, "{}", e.jsonl())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_all_four_files() {
        let dir = std::env::temp_dir().join(format!(
            "adam2-telemetry-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut t = Telemetry::new(16);
        let c = t.metrics.counter("exchanges");
        t.metrics.add(c, 5);
        t.events.push(Event {
            round: 1,
            slot: 0,
            instance: 0,
            kind: EventKind::FaultCrash,
            detail: 0,
        });
        let mut snap = RoundSnapshot::empty(1);
        snap.exchanges = 5;
        t.push_snapshot(snap);

        let manifest = RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            experiment: "unit".to_string(),
            config_hash: 1,
            seed: 2,
            threads: 1,
            detected_cores: 1,
            git_rev: "none".to_string(),
            dirty: true,
        };
        t.export(&dir, &manifest).expect("export succeeds");

        let rounds = std::fs::read_to_string(dir.join("rounds.jsonl")).unwrap();
        assert_eq!(rounds.lines().count(), 1);
        assert!(rounds.contains("\"exchanges\":5"));
        let csv = std::fs::read_to_string(dir.join("rounds.csv")).unwrap();
        assert!(csv.starts_with("round,"));
        assert_eq!(csv.lines().count(), 2);
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert!(events.contains("\"kind\":\"fault_crash\""));
        let manifest_json = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest_json.contains("\"experiment\": \"unit\""));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_mut_finds_latest_round() {
        let mut t = Telemetry::default();
        t.push_snapshot(RoundSnapshot::empty(0));
        t.push_snapshot(RoundSnapshot::empty(1));
        t.snapshot_mut(1).expect("round 1 present").err_avg = 0.5;
        assert_eq!(t.snapshots()[1].err_avg, 0.5);
        assert!(t.snapshot_mut(9).is_none());
    }
}
