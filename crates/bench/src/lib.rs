//! Experiment harness regenerating every figure of the Adam2 paper.
//!
//! Each figure of Section VII has a binary in `src/bin/` (see DESIGN.md's
//! experiment index and EXPERIMENTS.md for paper-vs-measured results):
//!
//! | binary | paper figure |
//! |---|---|
//! | `fig04_distributions` | Fig. 4 — true attribute CDFs |
//! | `fig05_bootstrap` | Fig. 5 — uniform vs neighbour bootstrap |
//! | `fig06_single_instance` | Fig. 6 — per-round error, Adam2 vs EquiDepth |
//! | `fig07_heuristics` | Fig. 7 — HCut vs MinMax vs LCut |
//! | `fig08_equidepth` | Fig. 8 — EquiDepth across phases |
//! | `fig09_sampling` | Fig. 9 — random sampling vs sample count |
//! | `fig10_points` | Fig. 10 — accuracy vs number of points |
//! | `fig11_scalability` | Fig. 11 — accuracy vs system size |
//! | `fig12_churn_instance` | Fig. 12 — single instance under churn |
//! | `fig13_churn_rate` | Fig. 13 — accuracy vs churn rate |
//! | `fig14_confidence` | Fig. 14 — confidence-estimation error |
//! | `cost_table` | Section VII-I — communication cost |
//!
//! All binaries accept `--nodes N --seed S --full --csv PATH` (see
//! [`Args`]); defaults are sized to finish in seconds, `--full` runs the
//! paper's 100 000-node scale.

pub mod args;
pub mod report;
pub mod runner;

pub use args::Args;
pub use report::{fmt_err, AsciiChart, Table};
pub use runner::{
    adam2_engine, adam2_engine_with, complete_instance, current_truth, equidepth_engine,
    equidepth_truth, evaluate_equidepth_estimates, evaluate_estimates, evaluate_peer_estimates,
    export_telemetry, mass_defect, maybe_attach_telemetry, run_instance_audited,
    run_instance_tracked, setup, start_instance, start_phase, ErrorReport, ExperimentSetup,
    MassDefect, PeerEstimate, RoundSample, AUDIT_FRACTION, AUDIT_WEIGHT,
};
