//! Fault-injection matrix: Err_a and mass-conservation drift per scenario.
//!
//! Replays the four canned [`FAULT_SCENARIOS`] — fault-free, a 20 % burst loss,
//! burst loss plus a 10-round overlay bisection, and a crash–recover wave —
//! against one 35-round Adam2 instance, each with the two-phase exchange
//! repair off and on, plus one self-healing run (restart-on-bad-verify)
//! under the combined scenario. Results go to `BENCH_faults.json` at the
//! repository root (override with `--out PATH`).
//!
//! Extra flags: `--out PATH`, `--check 1` (assert the robustness
//! invariants and exit non-zero on violation — used by CI's fault-matrix
//! job). The standard `--nodes` / `--seed` / `--lambda` flags also apply.

use adam2_bench::scenario::{fault_scenario, telemetry_counter, FAULT_SCENARIOS, ROUNDS};
use adam2_bench::{
    adam2_engine_with, evaluate_estimates, export_telemetry, run_instance_audited, setup,
    start_instance, Args, BenchReport, AUDIT_FRACTION, AUDIT_WEIGHT,
};
use adam2_core::Adam2Config;
use adam2_sim::{Engine, ExchangeRepair, RunManifest, SimTelemetry};
use adam2_traces::Attribute;

/// Extra fault-free rounds after finalisation so crash-recovered
/// (estimate-less) nodes can bootstrap their estimate from the completed
/// snapshot of a gossip partner. Two rounds cover the unlucky case of a
/// recovered node first pairing with another recovered node.
const SETTLE_ROUNDS: u64 = 2;

struct ScenarioResult {
    name: &'static str,
    repair: bool,
    self_heal: bool,
    avg_cdf: f64,
    max_cdf: f64,
    weight_drift: f64,
    fraction_drift: f64,
    peers_without_estimate: usize,
    healed: u64,
    bootstraps: u64,
}

fn main() {
    let args = Args::parse("bench_faults");
    // Extras are `--key value`; `--check 1` (any value) turns checking on.
    let check = args.extra("check").is_some();
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    let out = args.extra("out").unwrap_or(default_out).to_string();

    let nodes = args.nodes;
    let s = setup(Attribute::Ram, nodes, args.seed);
    let base_config = Adam2Config::new()
        .with_lambda(args.lambda)
        .with_rounds_per_instance(ROUNDS);

    println!("== bench_faults — Err_a and mass drift per fault scenario ==");
    println!("nodes={} seed={} lambda={}", nodes, args.seed, args.lambda);
    println!();

    let mut results: Vec<ScenarioResult> = Vec::new();
    for name in FAULT_SCENARIOS {
        for repair in [false, true] {
            let mut engine = adam2_engine_with(&s, base_config, args.seed, |c| {
                if repair {
                    c.with_repair(ExchangeRepair::enabled())
                } else {
                    c
                }
            });
            if let Some(scenario) = fault_scenario(name, args.seed) {
                engine
                    .set_fault_scenario(scenario)
                    .expect("canned scenario is valid");
            }
            results.push(run_one(name, repair, false, engine, &s, &args));
        }
    }
    // Self-healing run: a threshold below the interpolation error floor
    // forces every verification vote to demand a restart, demonstrating the
    // restart epoch end-to-end — the healed instance must still finalise
    // (one duration later) with fault-free accuracy.
    {
        let heal_config = base_config.with_verify_points(10).with_self_heal(1e-15, 1);
        let mut engine = adam2_engine_with(&s, heal_config, args.seed, |c| {
            c.with_repair(ExchangeRepair::enabled())
        });
        engine
            .set_fault_scenario(fault_scenario("burst20_partition10", args.seed).unwrap())
            .expect("valid");
        results.push(run_one(
            "burst20_partition10",
            true,
            true,
            engine,
            &s,
            &args,
        ));
    }

    for r in &results {
        println!(
            "{:<22} repair={:<5} heal={:<5} Err_a={:.3e} Err_m={:.3e} w-drift={:.3e} f-drift={:.3e} healed={} bootstraps={}",
            r.name, r.repair, r.self_heal, r.avg_cdf, r.max_cdf, r.weight_drift, r.fraction_drift, r.healed, r.bootstraps
        );
    }

    render(&args, nodes, &results).write(&out, "bench_faults");
    println!("\nwrote {out}");

    if check {
        run_checks(&results, nodes);
        println!("all fault-matrix checks passed");
    }
}

fn run_one(
    name: &'static str,
    repair: bool,
    self_heal: bool,
    mut engine: Engine<adam2_core::Adam2Protocol>,
    s: &adam2_bench::ExperimentSetup,
    args: &Args,
) -> ScenarioResult {
    // Telemetry is always attached here (it is observation-only, so the
    // results are identical either way) — it supplies the bootstrap count;
    // the full export happens only under `--telemetry DIR`.
    engine.attach_telemetry(SimTelemetry::new());
    let meta = start_instance(&mut engine);
    // One extra healing epoch when self-healing is on: a restarted
    // instance needs its extended deadline to pass before finalising.
    // SETTLE_ROUNDS more let crash-recovered nodes bootstrap estimates.
    let rounds = if self_heal {
        2 * ROUNDS + 1
    } else {
        ROUNDS + 1
    } + SETTLE_ROUNDS;
    let auditor = run_instance_audited(&mut engine, &meta, rounds);
    let report = evaluate_estimates(&engine, &s.truth, args.sample_peers, args.seed);
    let last_round = engine.round() - 1;
    // Stamp the headline errors onto the final exported round so the
    // JSONL series reproduces the BENCH_faults.json numbers.
    engine
        .telemetry_mut()
        .expect("telemetry attached above")
        .annotate_round(
            last_round,
            report.max_cdf,
            report.avg_cdf,
            f64::NAN,
            f64::NAN,
        );
    let bootstraps = telemetry_counter(&engine, "estimate_bootstraps");
    if let Some(dir) = &args.telemetry {
        let label = format!(
            "{name}_{}{}",
            if repair { "repair" } else { "norepair" },
            if self_heal { "_heal" } else { "" }
        );
        let config_desc = format!(
            "nodes={} lambda={} rounds={ROUNDS} scenario={name} repair={repair} heal={self_heal}",
            args.nodes, args.lambda
        );
        export_telemetry(
            &mut engine,
            dir,
            &label,
            "bench_faults",
            &config_desc,
            args.seed,
        );
    }
    ScenarioResult {
        name,
        repair,
        self_heal,
        avg_cdf: report.avg_cdf,
        max_cdf: report.max_cdf,
        weight_drift: auditor.max_drift_of(AUDIT_WEIGHT).unwrap_or(0.0),
        fraction_drift: auditor.max_drift_of(AUDIT_FRACTION).unwrap_or(0.0),
        peers_without_estimate: report.peers_without_estimate,
        healed: engine.protocol().healed_count(),
        bootstraps,
    }
}

fn render(args: &Args, nodes: usize, results: &[ScenarioResult]) -> BenchReport {
    // The matrix runs on the engine's default single thread.
    let manifest = RunManifest::new(
        "bench_faults",
        &format!("nodes={nodes} lambda={} rounds={ROUNDS}", args.lambda),
        args.seed,
        1,
    );
    let mut report = BenchReport::new(
        "fault_matrix",
        &manifest,
        vec![
            ("nodes", nodes.into()),
            ("seed", args.seed.into()),
            ("lambda", args.lambda.into()),
            ("rounds", ROUNDS.into()),
        ],
    );
    for r in results {
        report.row(
            "results",
            vec![
                ("scenario", r.name.into()),
                ("repair", r.repair.into()),
                ("self_heal", r.self_heal.into()),
                ("err_a", r.avg_cdf.into()),
                ("err_m", r.max_cdf.into()),
                ("weight_drift", r.weight_drift.into()),
                ("fraction_drift", r.fraction_drift.into()),
                ("peers_without_estimate", r.peers_without_estimate.into()),
                ("healed", r.healed.into()),
                ("bootstraps", r.bootstraps.into()),
            ],
        );
    }
    report
}

fn find<'a>(
    results: &'a [ScenarioResult],
    name: &str,
    repair: bool,
    self_heal: bool,
) -> &'a ScenarioResult {
    results
        .iter()
        .find(|r| r.name == name && r.repair == repair && r.self_heal == self_heal)
        .expect("scenario present")
}

fn run_checks(results: &[ScenarioResult], nodes: usize) {
    let mut failures = Vec::new();
    let clean = find(results, "fault_free", false, false);

    // Conservation: every repaired loss/partition run must keep the mass
    // auditor flat; the unrepaired burst runs must show a measurable leak.
    for name in ["fault_free", "burst20", "burst20_partition10"] {
        let r = find(results, name, true, false);
        if r.weight_drift.abs() > 1e-9 || r.fraction_drift > 1e-6 {
            failures.push(format!(
                "{name}+repair leaked mass (w {:.3e}, f {:.3e})",
                r.weight_drift, r.fraction_drift
            ));
        }
    }
    for name in ["burst20", "burst20_partition10"] {
        let r = find(results, name, false, false);
        if r.weight_drift.abs() < 1e-4 {
            failures.push(format!(
                "{name} without repair should measurably drift, got {:.3e}",
                r.weight_drift
            ));
        }
    }

    // Accuracy: the repaired faulted runs stay within 2x of fault-free
    // Err_a, and nobody is left without an estimate.
    for name in ["burst20", "burst20_partition10"] {
        let r = find(results, name, true, false);
        if r.avg_cdf > clean.avg_cdf * 2.0 + 1e-9 {
            failures.push(format!(
                "{name}+repair Err_a {:.3e} exceeds 2x fault-free {:.3e}",
                r.avg_cdf, clean.avg_cdf
            ));
        }
        if r.peers_without_estimate > 0 {
            failures.push(format!(
                "{name}+repair left {} peers without an estimate",
                r.peers_without_estimate
            ));
        }
    }

    // Crash–recover: recovered nodes re-joined after the start round and
    // cannot participate in the instance, but during the settle rounds
    // each must bootstrap its estimate from a completed partner snapshot —
    // nobody may end estimate-less, and the bootstraps must be recorded.
    let crash = find(results, "crash_recover", true, false);
    let wave = (nodes as f64 * 0.1).ceil() as usize;
    if crash.peers_without_estimate > 0 {
        failures.push(format!(
            "crash_recover+repair left {} peers without an estimate despite \
             recovery bootstraps (wave {wave})",
            crash.peers_without_estimate
        ));
    }
    if crash.bootstraps < wave as u64 {
        failures.push(format!(
            "crash_recover+repair recorded only {} estimate bootstraps for a \
             recovered wave of {wave}",
            crash.bootstraps
        ));
    }

    // Self-healing: the forced-restart run must actually restart, and the
    // healed epoch must still converge to fault-free accuracy.
    let heal = find(results, "burst20_partition10", true, true);
    if heal.healed == 0 {
        failures.push("self-heal run recorded no restarts".to_string());
    }
    if heal.avg_cdf > clean.avg_cdf * 2.0 + 1e-9 {
        failures.push(format!(
            "healed Err_a {:.3e} exceeds 2x fault-free {:.3e}",
            heal.avg_cdf, clean.avg_cdf
        ));
    }
    if heal.peers_without_estimate > 0 {
        failures.push(format!(
            "self-heal run left {} peers without an estimate",
            heal.peers_without_estimate
        ));
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_faults check FAILED: {f}");
        }
        std::process::exit(1);
    }
}
