//! What one workload run hands back to `main`: the samples behind the
//! end-to-end metrics, the per-layer values of a traced run, and the
//! correctness checks.

use std::collections::BTreeMap;

/// One measured unit of work: a full aggregation instance.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Completed push–pull exchanges.
    pub exchanges: f64,
    /// Bytes charged to the network (deploy: sent, retransmissions included).
    pub bytes: f64,
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Per-layer metric values gathered by a traced run, by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "layer metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    /// Takes from `other` every metric this table does not hold yet.
    pub fn fill_missing(&mut self, other: Layers) {
        for (name, value) in other.0 {
            self.0.entry(name).or_insert(value);
        }
    }
}

#[derive(Default)]
pub struct Outcome {
    /// One sample per set-up performed; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    pub units: Vec<Unit>,
    /// `VmHWM` when the measured section ended: scoring, legs and replays
    /// allocate after it and are the harness's, not the program's.
    pub peak_rss_mb: f64,
    /// Mean Err_a of the sampled peers after the last instance.
    pub err_a: f64,
    /// Peers that should hold an estimate of the scored instance.
    pub attempted: u64,
    /// Those that do not.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Simulator workloads: result fingerprint after each unit.
    pub fingerprints: Vec<u64>,
    pub layers: Layers,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    fn total(&self, f: impl Fn(&Unit) -> f64) -> f64 {
        self.units.iter().map(f).sum()
    }

    /// Wall seconds per instance. A mean, not a median: the bootstrap and
    /// the refinements of one run are different operations (a refinement
    /// carries other thresholds and costs up to 30 % more), not repeated
    /// samples of one.
    pub fn wall_s(&self) -> f64 {
        self.total(|u| u.wall_s) / self.units.len() as f64
    }

    pub fn cpu_s(&self) -> f64 {
        self.total(|u| u.cpu_s) / self.units.len() as f64
    }

    pub fn exchanges_per_s(&self) -> f64 {
        self.total(|u| u.exchanges) / self.total(|u| u.wall_s)
    }

    pub fn wire_bytes_per_exchange(&self) -> f64 {
        self.total(|u| u.bytes) / self.total(|u| u.exchanges)
    }
}
