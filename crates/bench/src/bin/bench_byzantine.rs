//! Byzantine-resilience matrix: honest-peer Err_a versus adversary
//! fraction, vanilla versus robust aggregation, on both engines.
//!
//! Sweeps the Byzantine fraction f ∈ {0, 1 %, 5 %, 10 %, 20 %} under a
//! consistent value-poisoning adversary and runs each point twice — with
//! the vanilla merge and with the robust (trimmed, plausibility-screened)
//! merge — on the cycle-driven engine and on the event-driven engine. A
//! second section pins all four adversary models at f = 10 % on the cycle
//! engine. Accuracy is evaluated over the *honest* peers only (a Byzantine
//! node's own report is meaningless; the question is how much damage the
//! lies do to everyone else). Results go to `BENCH_byzantine.json` at the
//! repository root (override with `--out PATH`).
//!
//! Extra flags: `--out PATH`, `--threads T`, `--check` (assert the
//! resilience invariants — robust stays within 2x of fault-free accuracy
//! up to f = 10 % while vanilla diverges — plus bit-identical replay
//! across thread counts; CI's byzantine-smoke job runs this). The
//! standard `--nodes` / `--seed` / `--lambda` flags also apply.

use adam2_bench::scenario::{
    adversary_name, adversary_scenario, robust_policy, run_cycle_scenario, run_event_scenario,
    ADVERSARIES, INFLATION, MAGNITUDE, ROUNDS,
};
use adam2_bench::{
    adam2_engine_with, assert_thread_invariant, setup, take_flag, Args, BenchReport,
    ExperimentSetup,
};
use adam2_core::Adam2Config;
use adam2_sim::{AdversaryModel, RunManifest};
use adam2_traces::Attribute;

/// Extra rounds after finalisation (as in `bench_faults`).
const SETTLE_ROUNDS: u64 = 2;

/// The swept Byzantine fractions.
const FRACTIONS: &[f64] = &[0.0, 0.01, 0.05, 0.10, 0.20];

/// One matrix point reduced to the reported numbers.
struct ByzResult {
    engine: &'static str,
    model: &'static str,
    fraction: f64,
    robust: bool,
    /// Err_a over the honest peers (absent estimates count as 1.0).
    err_a: f64,
    /// Err_m over the honest peers.
    err_m: f64,
    /// Mean relative error of the honest peers' `n_hat` (weight-inflation
    /// damage shows up here, not in the CDF error).
    n_hat_rel_err: f64,
    honest_without_estimate: usize,
    byzantine: u32,
    robust_rejects: u64,
    robust_trims: u64,
    /// Bit-exact digest over every node's final estimate.
    fingerprint: u64,
}

/// One matrix point on `engine` ("cycle" or "event"). The adversary
/// window covers the whole instance including the settle rounds; there
/// is none at f = 0.
fn run(
    s: &ExperimentSetup,
    args: &Args,
    engine: &'static str,
    model: AdversaryModel,
    fraction: f64,
    robust: bool,
    threads: usize,
) -> ByzResult {
    let scenario = (fraction > 0.0).then(|| adversary_scenario(args.seed, fraction, model));
    let rounds = ROUNDS + 1 + SETTLE_ROUNDS;
    let policy = robust.then(robust_policy);
    let run = if engine == "cycle" {
        let mut config = Adam2Config::new()
            .with_lambda(args.lambda)
            .with_rounds_per_instance(ROUNDS);
        if let Some(policy) = policy {
            config = config.with_robust(policy);
        }
        let mut e = adam2_engine_with(s, config, args.seed, |c| c.with_threads(threads));
        run_cycle_scenario(&mut e, scenario.as_ref(), rounds)
    } else {
        let (lambda, seed) = (args.lambda, args.seed);
        run_event_scenario(s, lambda, seed, policy, scenario.as_ref(), threads, rounds)
    };
    let report = run.peers.score(&s.truth, args.sample_peers, args.seed);
    ByzResult {
        engine,
        model: adversary_name(model),
        fraction,
        robust,
        err_a: report.avg_cdf,
        err_m: report.max_cdf,
        n_hat_rel_err: run.peers.n_hat_rel_err(s.population.len()),
        honest_without_estimate: report.peers_without_estimate,
        byzantine: run.peers.byzantine(),
        robust_rejects: run.robust_rejects,
        robust_trims: run.robust_trims,
        fingerprint: run.peers.fingerprint(),
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let check = take_flag(&mut raw, "--check");
    let args = match Args::try_parse(raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_byzantine: {msg}");
            eprintln!(
                "usage: bench_byzantine [--nodes N] [--seed S] [--lambda L] [--threads T] \
                 [--out PATH] [--check]"
            );
            std::process::exit(if msg == "help requested" { 0 } else { 2 });
        }
    };
    let threads = args.threads();
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_byzantine.json");
    let out = args.extra("out").unwrap_or(default_out).to_string();
    let nodes = args.nodes;

    println!("== bench_byzantine — honest-peer Err_a vs Byzantine fraction ==");
    println!(
        "nodes={nodes} seed={} lambda={} threads={threads}",
        args.seed, args.lambda
    );
    println!();

    let s = setup(Attribute::Ram, nodes, args.seed);
    let poisoning = ADVERSARIES[0];

    let mut results: Vec<ByzResult> = Vec::new();
    for &fraction in FRACTIONS {
        for robust in [false, true] {
            for engine in ["cycle", "event"] {
                results.push(run(&s, &args, engine, poisoning, fraction, robust, threads));
            }
        }
    }
    // The other adversary models pinned at f = 10 % on the cycle engine.
    for model in &ADVERSARIES[1..] {
        for robust in [false, true] {
            results.push(run(&s, &args, "cycle", *model, 0.10, robust, threads));
        }
    }

    for r in &results {
        println!(
            "{:<5} {:<16} f={:<4} robust={:<5} Err_a={:.3e} Err_m={:.3e} n_hat_err={:.3e} \
             byz={} rejects={} trims={} no_est={}",
            r.engine,
            r.model,
            r.fraction,
            r.robust,
            r.err_a,
            r.err_m,
            r.n_hat_rel_err,
            r.byzantine,
            r.robust_rejects,
            r.robust_trims,
            r.honest_without_estimate
        );
    }

    render(&args, nodes, threads, &results).write(&out, "bench_byzantine");
    println!("\nwrote {out}");

    if check {
        run_checks(&results);
        run_determinism_checks(&s, &args, poisoning, threads, &results);
        println!("all byzantine-resilience checks passed");
    }
}

fn render(args: &Args, nodes: usize, threads: usize, results: &[ByzResult]) -> BenchReport {
    let manifest = RunManifest::new(
        "bench_byzantine",
        &format!(
            "nodes={nodes} lambda={} rounds={ROUNDS} magnitude={MAGNITUDE}",
            args.lambda
        ),
        args.seed,
        threads,
    );
    let mut report = BenchReport::new(
        "byzantine_resilience",
        &manifest,
        vec![
            ("nodes", nodes.into()),
            ("seed", args.seed.into()),
            ("lambda", args.lambda.into()),
            ("rounds", ROUNDS.into()),
            ("magnitude", MAGNITUDE.into()),
            ("inflation", INFLATION.into()),
            ("detected_cores", manifest.detected_cores.into()),
        ],
    );
    for r in results {
        report.row(
            "results",
            vec![
                ("engine", r.engine.into()),
                ("model", r.model.into()),
                ("fraction", r.fraction.into()),
                ("robust", r.robust.into()),
                ("err_a", r.err_a.into()),
                ("err_m", r.err_m.into()),
                ("n_hat_rel_err", r.n_hat_rel_err.into()),
                ("honest_without_estimate", r.honest_without_estimate.into()),
                ("byzantine", u64::from(r.byzantine).into()),
                ("robust_rejects", r.robust_rejects.into()),
                ("robust_trims", r.robust_trims.into()),
                ("fingerprint", r.fingerprint.into()),
            ],
        );
    }
    report
}

fn find<'a>(
    results: &'a [ByzResult],
    engine: &str,
    model: &str,
    fraction: f64,
    robust: bool,
) -> &'a ByzResult {
    results
        .iter()
        .find(|r| {
            r.engine == engine && r.model == model && r.fraction == fraction && r.robust == robust
        })
        .expect("matrix point present")
}

fn run_checks(results: &[ByzResult]) {
    let mut failures = Vec::new();
    for engine in ["cycle", "event"] {
        let clean = find(results, engine, "value_poisoning", 0.0, false);

        // Robust mode at f = 0 must not cost accuracy: the influence cap
        // only binds while disagreement is large, so the fault-free run
        // reaches the same interpolation floor (on the cycle engine it is
        // bit-identical once the cap stops binding; 2x is the safe band).
        let clean_robust = find(results, engine, "value_poisoning", 0.0, true);
        if clean_robust.err_a > clean.err_a * 2.0 + 1e-9 {
            failures.push(format!(
                "{engine}: robust fault-free Err_a {:.3e} exceeds 2x vanilla {:.3e}",
                clean_robust.err_a, clean.err_a
            ));
        }

        for &f in &[0.01, 0.05, 0.10] {
            // Vanilla diverges: already at 1 % Byzantine the poisoned
            // components drag honest estimates ≥ 10x off the floor.
            let vanilla = find(results, engine, "value_poisoning", f, false);
            if vanilla.err_a < clean.err_a * 10.0 {
                failures.push(format!(
                    "{engine} f={f}: vanilla Err_a {:.3e} did not diverge 10x from \
                     fault-free {:.3e}",
                    vanilla.err_a, clean.err_a
                ));
            }
            // Robust holds: within 2x of its own fault-free baseline up
            // to f = 10 % (the paper-style criterion — the adversary must
            // not degrade the robust mode's accuracy).
            let robust = find(results, engine, "value_poisoning", f, true);
            if robust.err_a > clean_robust.err_a * 2.0 + 1e-9 {
                failures.push(format!(
                    "{engine} f={f}: robust Err_a {:.3e} exceeds 2x fault-free {:.3e}",
                    robust.err_a, clean_robust.err_a
                ));
            }
            if robust.robust_rejects == 0 {
                failures.push(format!(
                    "{engine} f={f}: robust run rejected nothing despite {} byzantine nodes",
                    robust.byzantine
                ));
            }
            if robust.honest_without_estimate > 0 {
                failures.push(format!(
                    "{engine} f={f}: robust run left {} honest peers without an estimate",
                    robust.honest_without_estimate
                ));
            }
        }
    }

    // Weight inflation does not move the CDF but wrecks n_hat (the lie
    // injects weight mass, so every honest n_hat collapses by roughly the
    // inflation factor). The robust screen caps claimed weight at 1 and
    // rejects the liars outright; what remains is the honest-subpopulation
    // bias of rejection — weight captured by Byzantine nodes before their
    // first lie is trapped — which stays well below the vanilla collapse.
    let inflated = find(results, "cycle", "weight_inflation", 0.10, false);
    let guarded = find(results, "cycle", "weight_inflation", 0.10, true);
    if inflated.n_hat_rel_err < 0.5 {
        failures.push(format!(
            "weight inflation barely moved vanilla n_hat ({:.3e})",
            inflated.n_hat_rel_err
        ));
    }
    if guarded.n_hat_rel_err > 0.5 || guarded.n_hat_rel_err > inflated.n_hat_rel_err * 0.5 {
        failures.push(format!(
            "robust n_hat error {:.3e} under weight inflation should stay below 0.5 \
             and under half the vanilla collapse {:.3e}",
            guarded.n_hat_rel_err, inflated.n_hat_rel_err
        ));
    }

    // The remaining poisoning variants must also be contained.
    let clean_robust = find(results, "cycle", "value_poisoning", 0.0, true);
    for model in ["targeted_partner", "equivocation"] {
        let robust = find(results, "cycle", model, 0.10, true);
        if robust.err_a > clean_robust.err_a * 2.0 + 1e-9 {
            failures.push(format!(
                "{model} f=0.10: robust Err_a {:.3e} exceeds 2x fault-free {:.3e}",
                robust.err_a, clean_robust.err_a
            ));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_byzantine check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// Re-runs the f = 10 % robust point on both engines at another worker
/// count and requires the exact same estimate fingerprint.
fn run_determinism_checks(
    s: &ExperimentSetup,
    args: &Args,
    poisoning: AdversaryModel,
    threads: usize,
    results: &[ByzResult],
) {
    let cycle = find(results, "cycle", "value_poisoning", 0.10, true);
    let other = assert_thread_invariant(
        "cycle engine under adversary",
        threads,
        cycle.fingerprint,
        |other| run(s, args, "cycle", poisoning, 0.10, true, other).fingerprint,
    );
    let event = find(results, "event", "value_poisoning", 0.10, true);
    assert_thread_invariant(
        "event engine under adversary",
        threads,
        event.fingerprint,
        |other| run(s, args, "event", poisoning, 0.10, true, other).fingerprint,
    );
    println!(
        "determinism OK: threads {threads} == threads {other} on both engines \
         (cycle {:016x}, event {:016x})",
        cycle.fingerprint, event.fingerprint
    );
}
