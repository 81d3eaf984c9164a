//! The campaign scheduler: coverage-guided traversal of the fault space.
//!
//! One iteration = pick a parent from the energy-weighted pool, mutate
//! it, judge the child with the oracle, fold its features into the
//! coverage map. Novel children enter the pool with energy proportional
//! to how much coverage they added, and the operator that produced them
//! is rewarded in the mutation table. Violations are delta-debugged to
//! minimal form and recorded; the campaign can stop early after
//! `max_violations` finds.
//!
//! Everything derives from `master_seed` — per-iteration RNGs are
//! `seeded_rng(derive_seed(master_seed, ITER_STREAM + i))` — so a
//! campaign re-run with the same seed and iteration budget replays
//! bit-identically, which is what `bench_explore --check` asserts.
//!
//! Oracle runs are the campaign's entire cost, and they are judged on a
//! worker pool: iterations are scheduled in fixed batches of `BATCH` (8).
//! Each batch draws its parents and mutations sequentially against the
//! pool state at batch start (pure RNG work, microseconds), judges the
//! batch's deduplicated candidates concurrently, then folds the
//! outcomes back in iteration order — coverage, operator rewards, pool
//! energy, and shrinking all stay sequential. Because the batch size is
//! a constant of the schedule and never derives from the worker count,
//! a campaign replays bit-identically under *any* `workers` setting;
//! `campaign_is_worker_count_invariant` pins that down.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use adam2_sim::{derive_seed, seeded_rng, FaultScenario};
use rand::rngs::StdRng;
use rand::RngExt as _;

use crate::coverage::{scenario_features, CoverageMap};
use crate::mutate::Mutator;
use crate::oracle::{Oracle, RunOutcome};
use crate::shrink::{shrink, ShrinkOutcome};

/// Stream tag separating campaign RNG streams from engine/fault streams.
const ITER_STREAM: u64 = 0xEC5_0000;

/// Iterations scheduled per judging batch. Part of the deterministic
/// schedule (never derived from the worker count): parents for a whole
/// batch are drawn against the pool state at batch start, so novel
/// children only earn energy at batch boundaries.
const BATCH: usize = 8;

/// One drawn batch slot: the iteration number plus, unless the child
/// deduplicated away, `(candidate, mutation op, index into the judged
/// batch)`.
type DrawnSlot = (usize, Option<(FaultScenario, usize, usize)>);

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Single seed the whole campaign derives from.
    pub master_seed: u64,
    /// Mutation iterations (an iteration that dedups to an already-run
    /// scenario costs no oracle run).
    pub iterations: usize,
    /// Oracle-run budget per shrink.
    pub shrink_budget: usize,
    /// Stop after this many violations (0 = never stop early).
    pub max_violations: usize,
    /// Worker threads judging each batch's candidates (min 1). Purely an
    /// execution knob: any value replays the identical campaign.
    pub workers: usize,
}

impl CampaignConfig {
    pub fn new(master_seed: u64) -> Self {
        Self {
            master_seed,
            iterations: 60,
            shrink_budget: 60,
            max_violations: 1,
            workers: 1,
        }
    }

    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    pub fn with_max_violations(mut self, max_violations: usize) -> Self {
        self.max_violations = max_violations;
        self
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// One violation found and shrunk.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// Iteration that produced the first hit.
    pub iteration: usize,
    /// The first (unshrunk) violating scenario.
    pub first: FaultScenario,
    pub first_outcome: RunOutcome,
    /// The delta-debugged minimal scenario.
    pub minimal: FaultScenario,
    pub minimal_outcome: RunOutcome,
    /// Oracle runs the shrink spent.
    pub shrink_runs: usize,
}

/// What a campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// Iterations actually executed (early stop truncates).
    pub iterations_run: usize,
    /// Oracle runs executed (excludes dedup hits, includes shrinking).
    pub oracle_runs: usize,
    /// Distinct coverage features reached.
    pub features: usize,
    /// Violations found, in discovery order.
    pub violations: Vec<FoundViolation>,
    /// A representative cleared scenario (the last judged non-violating
    /// candidate) for determinism checks when nothing violated.
    pub cleared: Option<(FaultScenario, RunOutcome)>,
    /// Final operator weights, name-aligned with `Mutator::op_names()`.
    pub op_weights: Vec<f64>,
}

struct PoolEntry {
    scenario: FaultScenario,
    energy: f64,
}

/// Judges `candidates` on up to `workers` threads. Results come back in
/// candidate order whatever the interleaving, and `Oracle::run` is a
/// pure function of the scenario, so the outcome vector is independent
/// of the worker count.
fn judge_batch(oracle: &Oracle, candidates: &[FaultScenario], workers: usize) -> Vec<RunOutcome> {
    let workers = workers.max(1).min(candidates.len());
    if workers <= 1 {
        return candidates.iter().map(|c| oracle.run(c)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunOutcome>>> =
        candidates.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= candidates.len() {
                    break;
                }
                let outcome = oracle.run(&candidates[idx]);
                *slots[idx].lock().expect("result slot") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every candidate judged")
        })
        .collect()
}

fn pick_parent<'a>(pool: &'a [PoolEntry], rng: &mut StdRng) -> &'a FaultScenario {
    let total: f64 = pool.iter().map(|e| e.energy).sum();
    let mut x = rng.random::<f64>() * total;
    for entry in pool {
        x -= entry.energy;
        if x < 0.0 {
            return &entry.scenario;
        }
    }
    &pool.last().expect("pool is never empty").scenario
}

/// Runs a campaign against `oracle`. `progress` is called once per
/// iteration with (iteration, coverage features, violations so far).
pub fn run_campaign(
    config: &CampaignConfig,
    oracle: &Oracle,
    mut progress: impl FnMut(usize, usize, usize),
) -> CampaignReport {
    let mut mutator = Mutator::new();
    let mut coverage = CoverageMap::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut violations: Vec<FoundViolation> = Vec::new();
    let mut cleared: Option<(FaultScenario, RunOutcome)> = None;
    let mut oracle_runs = 0usize;

    // Seed the pool and the map with the empty scenario (its features
    // are the "no faults" baseline) without spending an oracle run: the
    // oracle's own baseline already judged it.
    let root = FaultScenario::new(derive_seed(config.master_seed, ITER_STREAM));
    seen.insert(root.to_json());
    coverage.observe(scenario_features(&root));
    coverage.observe(oracle.baseline().signature.iter().copied());
    let mut pool = vec![PoolEntry {
        scenario: root,
        energy: 1.0,
    }];

    let mut iterations_run = 0usize;
    let mut batch_start = 0usize;
    'campaign: while batch_start < config.iterations {
        let batch_end = (batch_start + BATCH).min(config.iterations);

        // Draw phase (sequential): parents and mutations for the whole
        // batch, against the pool and mutation table at batch start.
        // `None` marks an iteration whose child deduplicated away.
        let mut drawn: Vec<DrawnSlot> = Vec::new();
        let mut to_judge: Vec<FaultScenario> = Vec::new();
        for iteration in batch_start..batch_end {
            let mut rng = seeded_rng(derive_seed(
                config.master_seed,
                ITER_STREAM + 1 + iteration as u64,
            ));
            let parent = pick_parent(&pool, &mut rng).clone();
            let (candidate, op) = mutator.mutate(&parent, &mut rng);
            if seen.insert(candidate.to_json()) {
                let judge_idx = to_judge.len();
                to_judge.push(candidate.clone());
                drawn.push((iteration, Some((candidate, op, judge_idx))));
            } else {
                drawn.push((iteration, None));
            }
        }

        // Judge phase: the batch's unique candidates, concurrently. The
        // whole batch is judged even if an early member turns out to
        // violate, so the run count never depends on judging order.
        let outcomes = judge_batch(oracle, &to_judge, config.workers);
        oracle_runs += to_judge.len();

        // Fold phase (sequential, iteration order): coverage, rewards,
        // pool energy, shrinking, early stop.
        for (iteration, slot) in drawn {
            iterations_run = iteration + 1;
            let Some((candidate, op, judge_idx)) = slot else {
                progress(iteration, coverage.len(), violations.len());
                continue;
            };
            let outcome = outcomes[judge_idx].clone();

            let mut features = scenario_features(&candidate);
            features.extend(outcome.signature.iter().copied());
            let novel = coverage.observe(features);
            if novel > 0 {
                mutator.reward(op);
                pool.push(PoolEntry {
                    scenario: candidate.clone(),
                    energy: 1.0 + novel as f64,
                });
            }

            if outcome.verdict.is_violation() {
                let ShrinkOutcome {
                    scenario: minimal,
                    outcome: minimal_outcome,
                    runs,
                } = shrink(oracle, &candidate, &outcome, config.shrink_budget);
                oracle_runs += runs;
                violations.push(FoundViolation {
                    iteration,
                    first: candidate,
                    first_outcome: outcome,
                    minimal,
                    minimal_outcome,
                    shrink_runs: runs,
                });
                if config.max_violations > 0 && violations.len() >= config.max_violations {
                    progress(iteration, coverage.len(), violations.len());
                    break 'campaign;
                }
            } else {
                cleared = Some((candidate, outcome));
            }
            progress(iteration, coverage.len(), violations.len());
        }
        batch_start = batch_end;
    }

    CampaignReport {
        iterations_run,
        oracle_runs,
        features: coverage.len(),
        violations,
        cleared,
        op_weights: mutator.weights().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ConfigKind, OracleConfig, Verdict};
    use crate::shrink::strictly_smaller;

    fn oracle(kind: ConfigKind) -> Oracle {
        Oracle::new(OracleConfig::new(kind).with_nodes(200))
    }

    #[test]
    fn vanilla_campaign_finds_and_shrinks_a_violation() {
        let oracle = oracle(ConfigKind::Vanilla);
        let config = CampaignConfig::new(1234).with_iterations(40);
        let report = run_campaign(&config, &oracle, |_, _, _| {});
        assert!(
            !report.violations.is_empty(),
            "vanilla config must violate within 40 iterations (features {})",
            report.features
        );
        let v = &report.violations[0];
        assert!(v.first_outcome.verdict.is_violation());
        assert_eq!(v.minimal_outcome.verdict, v.first_outcome.verdict);
        assert!(
            v.minimal == v.first || strictly_smaller(&v.first, &v.minimal),
            "shrink never grows the scenario"
        );
        assert!(report.features > 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let oracle = oracle(ConfigKind::Vanilla);
        let config = CampaignConfig::new(99).with_iterations(12);
        let a = run_campaign(&config, &oracle, |_, _, _| {});
        let b = run_campaign(&config, &oracle, |_, _, _| {});
        assert_eq!(a.iterations_run, b.iterations_run);
        assert_eq!(a.oracle_runs, b.oracle_runs);
        assert_eq!(a.features, b.features);
        assert_eq!(a.violations.len(), b.violations.len());
        for (va, vb) in a.violations.iter().zip(&b.violations) {
            assert_eq!(va.minimal, vb.minimal);
            assert_eq!(
                va.minimal_outcome.fingerprint,
                vb.minimal_outcome.fingerprint
            );
        }
        assert_eq!(
            a.cleared
                .as_ref()
                .map(|(sc, o)| (sc.clone(), o.fingerprint)),
            b.cleared
                .as_ref()
                .map(|(sc, o)| (sc.clone(), o.fingerprint))
        );
    }

    #[test]
    fn campaign_is_worker_count_invariant() {
        let oracle = oracle(ConfigKind::Vanilla);
        let config = CampaignConfig::new(99).with_iterations(12);
        let serial = run_campaign(&config, &oracle, |_, _, _| {});
        let pooled = run_campaign(&config.with_workers(4), &oracle, |_, _, _| {});
        assert_eq!(serial.iterations_run, pooled.iterations_run);
        assert_eq!(serial.oracle_runs, pooled.oracle_runs);
        assert_eq!(serial.features, pooled.features);
        assert_eq!(serial.op_weights, pooled.op_weights);
        assert_eq!(serial.violations.len(), pooled.violations.len());
        for (a, b) in serial.violations.iter().zip(&pooled.violations) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.first, b.first);
            assert_eq!(a.minimal, b.minimal);
            assert_eq!(a.minimal_outcome.fingerprint, b.minimal_outcome.fingerprint);
            assert_eq!(a.shrink_runs, b.shrink_runs);
        }
        assert_eq!(
            serial
                .cleared
                .as_ref()
                .map(|(sc, o)| (sc.clone(), o.fingerprint)),
            pooled
                .cleared
                .as_ref()
                .map(|(sc, o)| (sc.clone(), o.fingerprint))
        );
    }

    #[test]
    fn hardened_short_campaign_stays_clear() {
        let oracle = oracle(ConfigKind::Hardened);
        assert_eq!(oracle.baseline().verdict, Verdict::Clear);
        let config = CampaignConfig::new(77)
            .with_iterations(6)
            .with_max_violations(0);
        let report = run_campaign(&config, &oracle, |_, _, _| {});
        assert!(
            report.violations.is_empty(),
            "hardened config cleared the envelope, got {:?}",
            report
                .violations
                .iter()
                .map(|v| (v.minimal_outcome.verdict, v.minimal.clone()))
                .collect::<Vec<_>>()
        );
        assert!(report.cleared.is_some());
    }
}
