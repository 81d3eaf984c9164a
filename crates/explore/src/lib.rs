//! Coverage-guided adversarial fault-scenario explorer for Adam2.
//!
//! The repo's reliability claims were checked against a handful of
//! hand-picked [`adam2_sim::FaultScenario`]s; the interesting failures
//! live in the compound-fault space nobody enumerated. This crate fuzzes
//! that space:
//!
//! * [`mutate`] — weighted, adaptive mutation tables over every fault
//!   axis (burst loss, partitions, crash–recover, delay/duplication, the
//!   four Byzantine adversary models), bounded to a calibrated envelope;
//! * [`oracle`] — runs a candidate on the cycle engine and judges it
//!   against mass-conservation, convergence, and Err_a-regression
//!   invariants (panics are caught and reported);
//! * [`coverage`] — a feature map over scenario parameters × telemetry
//!   behaviour signatures that decides which candidates earn corpus
//!   energy;
//! * [`mod@shrink`] — delta-debugs a violation to a minimal scenario that
//!   still violates the same invariant;
//! * [`campaign`] — the scheduler tying it together, fully deterministic
//!   from one master seed;
//! * [`corpus`] — JSON persistence + bit-identical replay, turning every
//!   find into a committed regression test (`tests/corpus_replay.rs`
//!   re-runs the committed corpus in CI).
//!
//! The `bench_explore` binary drives campaigns and writes
//! `BENCH_explore.json`; see the repo README for the workflow.

pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod mutate;
pub mod oracle;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, FoundViolation};
pub use corpus::{load_dir, replay, CorpusEntry, ReplayResult};
pub use coverage::{behaviour_signature, scenario_features, CoverageMap};
pub use mutate::Mutator;
pub use oracle::{ConfigKind, Oracle, OracleConfig, RunOutcome, Verdict};
pub use shrink::{shrink, strictly_smaller, ShrinkOutcome};
