//! Coverage-guided fault-space exploration: campaigns, corpus, replay.
//!
//! Default mode runs one bounded campaign per [`ConfigKind`] — `vanilla`
//! (the paper's plain protocol, expected to fall over somewhere in the
//! fault envelope) and `hardened` (repair + robust merge + self-healing,
//! expected to clear it) — and writes `BENCH_explore.json` at the
//! repository root (override with `--out PATH`).
//!
//! Flags beyond the standard `--nodes/--seed/--lambda` set:
//!
//! * `--iters N` — mutation iterations per campaign (default 60);
//! * `--workers N` — oracle-judging threads per batch (default: cores,
//!   capped at 8; any value replays the identical campaign);
//! * `--check` — re-run both campaigns from the same master seed at a
//!   *different* worker count and fail unless they replay
//!   bit-identically, the vanilla campaign found and shrank a
//!   violation, and the hardened campaign stayed clear;
//! * `--emit-corpus DIR` — also write the seed corpus (the canned
//!   `bench_faults` scenarios under vanilla, the four `bench_byzantine`
//!   f=10% attacks under hardened, the drift trio exercising the
//!   streaming oracle path) plus the vanilla campaign's minimal
//!   violation, as replayable JSON entries;
//! * `--corpus DIR` — replay an existing corpus instead of exploring;
//!   exits non-zero if any entry's verdict or fingerprint changed.
//!
//! The recommended exploration scale is `--nodes 400`: one judged run
//! stays in the low milliseconds, so a 60-iteration campaign (plus
//! shrinking) finishes in seconds. The committed `BENCH_explore.json`
//! and `corpus/` were produced at that scale.

use std::path::Path;
use std::process::exit;

use adam2_bench::scenario::{
    adversary_name, adversary_scenario, fault_scenario, ADVERSARIES, FAULT_SCENARIOS, ROUNDS,
};
use adam2_bench::{take_flag, Args, BenchReport};
use adam2_explore::campaign::{run_campaign, CampaignConfig, CampaignReport};
use adam2_explore::corpus::{load_dir, replay, CorpusEntry};
use adam2_explore::oracle::{ConfigKind, Oracle, OracleConfig, Verdict};
use adam2_explore::shrink::strictly_smaller;
use adam2_sim::{
    AdversaryModel, DriftModel, FaultEvent, FaultScenario, PartitionKind, RunManifest,
};

/// Byzantine fraction for the corpus attack seeds.
const BYZANTINE_FRACTION: f64 = 0.1;

struct ConfigResult {
    config: &'static str,
    iterations: usize,
    oracle_runs: usize,
    features: usize,
    violations: usize,
    verdict: String,
    first_hit_axes: usize,
    minimal_axes: usize,
    minimal_desc: String,
    detail: f64,
    fingerprint: u64,
    shrink_runs: usize,
}

/// One-line scenario description for the `minimal_desc` column.
fn describe(scenario: &FaultScenario) -> String {
    if scenario.events.is_empty() {
        return format!("seed {} no faults", scenario.seed);
    }
    let events: Vec<String> = scenario
        .events
        .iter()
        .map(|event| match *event {
            FaultEvent::BurstLoss {
                from_round,
                to_round,
                loss_rate,
            } => format!("burst {from_round}..{to_round} rate {loss_rate:.2}"),
            FaultEvent::Partition {
                from_round,
                to_round,
                kind,
            } => {
                let shape = match kind {
                    PartitionKind::Bisect => "bisect".to_string(),
                    PartitionKind::Islands(k) => format!("islands{k}"),
                };
                format!("partition {from_round}..{to_round} {shape}")
            }
            FaultEvent::CrashRecover {
                at_round,
                recover_round,
                fraction,
            } => format!("crash {at_round} recover {recover_round} frac {fraction:.2}"),
            FaultEvent::Delay {
                from_round,
                to_round,
                extra_ticks,
            } => format!("delay {from_round}..{to_round} ticks {extra_ticks}"),
            FaultEvent::Duplicate {
                from_round,
                to_round,
                rate,
            } => format!("dup {from_round}..{to_round} rate {rate:.2}"),
            FaultEvent::Adversary {
                from_round,
                to_round,
                fraction,
                model,
            } => {
                let strength = match model {
                    AdversaryModel::WeightInflation { factor } => format!("factor {factor:.1}"),
                    AdversaryModel::ValuePoisoning { magnitude }
                    | AdversaryModel::TargetedPartner { magnitude }
                    | AdversaryModel::Equivocation { magnitude } => format!("mag {magnitude:.1}"),
                };
                let name = adversary_name(model);
                format!("adversary {from_round}..{to_round} frac {fraction:.2} {name} {strength}")
            }
            FaultEvent::Drift {
                from_round,
                to_round,
                model,
            } => {
                let shape = match model {
                    DriftModel::LinearRamp { per_round } => format!("ramp {per_round:.1}"),
                    DriftModel::Step { shift } => format!("step {shift:.1}"),
                    DriftModel::Jitter { sigma } => format!("jitter {sigma:.1}"),
                    DriftModel::Replacement { rate } => format!("replace {rate:.2}"),
                };
                format!("drift {from_round}..{to_round} {shape}")
            }
        })
        .collect();
    format!("seed {} {}", scenario.seed, events.join("; "))
}

fn summarise(kind: ConfigKind, report: &CampaignReport) -> ConfigResult {
    match report.violations.first() {
        Some(v) => ConfigResult {
            config: kind.as_str(),
            iterations: report.iterations_run,
            oracle_runs: report.oracle_runs,
            features: report.features,
            violations: report.violations.len(),
            verdict: v.minimal_outcome.verdict.as_str().to_string(),
            first_hit_axes: v.first.events.len(),
            minimal_axes: v.minimal.events.len(),
            minimal_desc: describe(&v.minimal),
            detail: v.minimal_outcome.detail,
            fingerprint: v.minimal_outcome.fingerprint,
            shrink_runs: v.shrink_runs,
        },
        None => ConfigResult {
            config: kind.as_str(),
            iterations: report.iterations_run,
            oracle_runs: report.oracle_runs,
            features: report.features,
            violations: 0,
            verdict: Verdict::Clear.as_str().to_string(),
            first_hit_axes: 0,
            minimal_axes: 0,
            minimal_desc: "none".to_string(),
            detail: 0.0,
            fingerprint: report
                .cleared
                .as_ref()
                .map_or(0, |(_, outcome)| outcome.fingerprint),
            shrink_runs: 0,
        },
    }
}

fn render(args: &Args, iters: usize, workers: usize, results: &[ConfigResult]) -> BenchReport {
    let manifest = RunManifest::new(
        "bench_explore",
        &format!(
            "nodes={} lambda={} rounds={ROUNDS} iters={iters}",
            args.nodes, args.lambda
        ),
        args.seed,
        workers,
    );
    let mut report = BenchReport::new(
        "scenario_explorer",
        &manifest,
        vec![
            ("nodes", args.nodes.into()),
            ("seed", args.seed.into()),
            ("lambda", args.lambda.into()),
            ("iters", iters.into()),
        ],
    );
    for r in results {
        report.row(
            "results",
            vec![
                ("config", r.config.into()),
                ("iterations", r.iterations.into()),
                ("oracle_runs", r.oracle_runs.into()),
                ("features", r.features.into()),
                ("violations", r.violations.into()),
                ("verdict", r.verdict.as_str().into()),
                ("first_hit_axes", r.first_hit_axes.into()),
                ("minimal_axes", r.minimal_axes.into()),
                ("minimal_desc", r.minimal_desc.as_str().into()),
                ("detail", r.detail.into()),
                ("fingerprint", r.fingerprint.into()),
                ("shrink_runs", r.shrink_runs.into()),
            ],
        );
    }
    report
}

/// The canned seed scenarios: `bench_faults`' matrix judged vanilla (the
/// engine they historically broke) and `bench_byzantine`'s four f=10%
/// attacks judged hardened (the config that must shrug them off).
///
/// Every entry must replay to its own fingerprint, so two windows are
/// placed where they still change the run: the targeted-partner attack
/// ends at round 30, before the self-heal restart at round 35 would wipe
/// it (a window through the restart replays as value poisoning), and the
/// drift ramp starts at round 4, while the instance is still spreading
/// (a later ramp replays as the fault-free run).
fn seed_corpus_scenarios(seed: u64) -> Vec<(String, ConfigKind, Option<FaultScenario>)> {
    let faults = FAULT_SCENARIOS.iter().map(|name| {
        (
            format!("vanilla_{name}"),
            ConfigKind::Vanilla,
            fault_scenario(name, seed),
        )
    });
    let attacks = ADVERSARIES.iter().map(|&model| {
        let attack = match model {
            AdversaryModel::TargetedPartner { .. } => {
                FaultScenario::new(seed).with_adversary(0, 30, BYZANTINE_FRACTION, model)
            }
            _ => adversary_scenario(seed, BYZANTINE_FRACTION, model),
        };
        let name = format!("hardened_{}", adversary_name(model));
        (name, ConfigKind::Hardened, Some(attack))
    });
    let drifts = [
        // The streaming oracle path: drifted attributes waive the
        // fraction audit (estimates go stale by design) while weight
        // conservation stays a hard invariant.
        (
            "vanilla_drift_ramp".into(),
            ConfigKind::Vanilla,
            Some(FaultScenario::new(seed).with_drift(
                4,
                15,
                DriftModel::LinearRamp { per_round: 10.0 },
            )),
        ),
        (
            "vanilla_drift_burst".into(),
            ConfigKind::Vanilla,
            Some(
                FaultScenario::new(seed)
                    .with_burst_loss(5, 15, 0.3)
                    .with_drift(5, 15, DriftModel::LinearRamp { per_round: 10.0 }),
            ),
        ),
        (
            "hardened_drift_step".into(),
            ConfigKind::Hardened,
            Some(FaultScenario::new(seed).with_drift(10, 11, DriftModel::Step { shift: 500.0 })),
        ),
    ];
    faults.chain(attacks).chain(drifts).collect()
}

fn entry_for(name: String, oracle: &Oracle, scenario: FaultScenario) -> CorpusEntry {
    let outcome = oracle.run(&scenario);
    let config = oracle.config();
    CorpusEntry {
        name,
        config: config.kind,
        nodes: config.nodes,
        lambda: config.lambda,
        seed: config.seed,
        sample_peers: config.sample_peers,
        verdict: outcome.verdict,
        detail: outcome.detail,
        fingerprint: outcome.fingerprint,
        scenario,
    }
}

fn emit_corpus(
    dir: &Path,
    args: &Args,
    oracles: &[(ConfigKind, &Oracle)],
    vanilla_report: &CampaignReport,
) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut entries = Vec::new();
    for (name, kind, scenario) in seed_corpus_scenarios(args.seed) {
        let oracle = oracles
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, o)| *o)
            .expect("both configs present");
        let scenario = scenario.unwrap_or(FaultScenario::new(args.seed));
        entries.push(entry_for(name, oracle, scenario));
    }
    if let Some(v) = vanilla_report.violations.first() {
        let oracle = oracles
            .iter()
            .find(|(k, _)| *k == ConfigKind::Vanilla)
            .map(|(_, o)| *o)
            .expect("vanilla oracle present");
        entries.push(entry_for(
            "vanilla_campaign_minimal".into(),
            oracle,
            v.minimal.clone(),
        ));
    }
    let count = entries.len();
    for entry in entries {
        std::fs::write(dir.join(format!("{}.json", entry.name)), entry.to_json())?;
    }
    Ok(count)
}

fn replay_corpus(dir: &Path) -> i32 {
    let entries = match load_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("bench_explore: corpus load failed: {e}");
            return 1;
        }
    };
    if entries.is_empty() {
        eprintln!("bench_explore: {} holds no corpus entries", dir.display());
        return 1;
    }
    let results = replay(&entries);
    let mut failures = 0;
    for r in &results {
        let status = if r.ok() { "ok" } else { "CHANGED" };
        println!(
            "replay {:<32} expected {:<15} got {:<15} fingerprint {} [{status}]",
            r.name,
            r.expected.as_str(),
            r.got.as_str(),
            if r.fingerprint_matched {
                "match"
            } else {
                "MISMATCH"
            },
        );
        if !r.ok() {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!(
            "bench_explore: {failures}/{} corpus entries changed",
            results.len()
        );
        return 1;
    }
    println!("corpus replay: {} entries bit-identical", results.len());
    0
}

fn campaign_pair(
    args: &Args,
    iters: usize,
    workers: usize,
) -> (Oracle, CampaignReport, Oracle, CampaignReport) {
    let vanilla = Oracle::new(
        OracleConfig::new(ConfigKind::Vanilla)
            .with_nodes(args.nodes)
            .with_seed(args.seed),
    );
    let hardened = Oracle::new(
        OracleConfig::new(ConfigKind::Hardened)
            .with_nodes(args.nodes)
            .with_seed(args.seed),
    );
    let vanilla_report = run_campaign(
        &CampaignConfig::new(args.seed)
            .with_iterations(iters)
            .with_workers(workers),
        &vanilla,
        |i, features, violations| {
            if (i + 1) % 10 == 0 {
                eprintln!(
                    "vanilla campaign: iter {:>3} features {features} violations {violations}",
                    i + 1
                );
            }
        },
    );
    let hardened_report = run_campaign(
        &CampaignConfig::new(args.seed)
            .with_iterations(iters)
            .with_max_violations(0)
            .with_workers(workers),
        &hardened,
        |i, features, violations| {
            if (i + 1) % 10 == 0 {
                eprintln!(
                    "hardened campaign: iter {:>3} features {features} violations {violations}",
                    i + 1
                );
            }
        },
    );
    (vanilla, vanilla_report, hardened, hardened_report)
}

fn run_checks(
    vanilla: &CampaignReport,
    hardened: &CampaignReport,
    rerun_vanilla: &CampaignReport,
    rerun_hardened: &CampaignReport,
) -> Vec<String> {
    let mut failures = Vec::new();
    if vanilla.violations.is_empty() {
        failures.push("vanilla campaign found no violation".to_string());
    }
    for v in &vanilla.violations {
        if !(v.minimal == v.first || strictly_smaller(&v.first, &v.minimal)) {
            failures.push(format!(
                "shrink grew the scenario: first {:?} minimal {:?}",
                v.first, v.minimal
            ));
        }
        if v.minimal_outcome.verdict != v.first_outcome.verdict {
            failures.push("shrink changed the verdict kind".to_string());
        }
    }
    if !hardened.violations.is_empty() {
        let v = &hardened.violations[0];
        failures.push(format!(
            "hardened config violated {} on {}",
            v.minimal_outcome.verdict.as_str(),
            describe(&v.minimal)
        ));
    }
    // Determinism: the same master seed must replay bit-identically.
    for (name, a, b) in [
        ("vanilla", vanilla, rerun_vanilla),
        ("hardened", hardened, rerun_hardened),
    ] {
        if a.oracle_runs != b.oracle_runs
            || a.features != b.features
            || a.violations.len() != b.violations.len()
        {
            failures.push(format!("{name} campaign replay diverged in shape"));
            continue;
        }
        for (va, vb) in a.violations.iter().zip(&b.violations) {
            if va.minimal != vb.minimal
                || va.minimal_outcome.fingerprint != vb.minimal_outcome.fingerprint
            {
                failures.push(format!("{name} campaign replay diverged in violations"));
            }
        }
    }
    failures
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let check = take_flag(&mut raw, "--check");
    let args = match Args::try_parse(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_explore: {e}");
            exit(2);
        }
    };
    if let Some(dir) = args.extra("corpus") {
        exit(replay_corpus(Path::new(dir)));
    }
    let iters = match args.extra_parsed::<usize>("iters") {
        Ok(v) => v.unwrap_or(60),
        Err(e) => {
            eprintln!("bench_explore: {e}");
            exit(2);
        }
    };
    let workers = match args.extra_parsed::<usize>("workers") {
        Ok(v) => v.unwrap_or_else(default_workers).max(1),
        Err(e) => {
            eprintln!("bench_explore: {e}");
            exit(2);
        }
    };
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    let out = args.extra("out").unwrap_or(default_out).to_string();

    let (vanilla, vanilla_report, _hardened, hardened_report) =
        campaign_pair(&args, iters, workers);
    let results = [
        summarise(ConfigKind::Vanilla, &vanilla_report),
        summarise(ConfigKind::Hardened, &hardened_report),
    ];
    for r in &results {
        println!(
            "{:<9} iterations {:>3} oracle_runs {:>4} features {:>4} violations {} \
             verdict {} minimal [{}]",
            r.config,
            r.iterations,
            r.oracle_runs,
            r.features,
            r.violations,
            r.verdict,
            r.minimal_desc
        );
    }

    if let Some(dir) = args.extra("emit-corpus") {
        let oracles: Vec<(ConfigKind, &Oracle)> = vec![
            (ConfigKind::Vanilla, &vanilla),
            (ConfigKind::Hardened, &_hardened),
        ];
        match emit_corpus(Path::new(dir), &args, &oracles, &vanilla_report) {
            Ok(count) => println!("corpus: wrote {count} entries to {dir}"),
            Err(e) => {
                eprintln!("bench_explore: corpus write failed: {e}");
                exit(1);
            }
        }
    }

    render(&args, iters, workers, &results).write(&out, "bench_explore");
    println!("wrote {out}");

    if check {
        // Replay at a *different* worker count: the rerun asserts both
        // seed-determinism and worker-count invariance in one pass.
        let other_workers = if workers == 1 { 2 } else { 1 };
        eprintln!(
            "check: replaying both campaigns from master seed {} at workers {other_workers} \
             (first pass used {workers})",
            args.seed
        );
        let (_, rerun_vanilla, _, rerun_hardened) = campaign_pair(&args, iters, other_workers);
        let failures = run_checks(
            &vanilla_report,
            &hardened_report,
            &rerun_vanilla,
            &rerun_hardened,
        );
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("CHECK FAILED: {f}");
            }
            exit(1);
        }
        println!("checks passed: deterministic, vanilla violates + shrinks, hardened clear");
    }
}

/// Default judging pool: the machine's cores, capped — oracle runs are
/// milliseconds each, so a huge pool only buys scheduling overhead.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}
