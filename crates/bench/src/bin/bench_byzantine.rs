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

use std::sync::Arc;

use adam2_bench::{
    adam2_engine_with, evaluate_peer_estimates, setup, Args, ExperimentSetup, PeerEstimate,
};
use adam2_core::{uniform_points, Adam2Config, AsyncAdam2, InstanceId, InstanceMeta, RobustPolicy};
use adam2_sim::{
    ActiveAdversary, AdversaryModel, EventConfig, EventEngine, FaultScenario, LatencyModel, NodeId,
    RunManifest, SimTelemetry,
};
use adam2_traces::Attribute;

/// Gossip rounds per instance. Long enough that fault-free Err_a reaches
/// its interpolation floor, so adversarial damage is cleanly visible.
const ROUNDS: u64 = 35;

/// Extra rounds after finalisation (mirrors `bench_faults`).
const SETTLE_ROUNDS: u64 = 2;

/// Poisoned components are drawn from `[0, MAGNITUDE)`; honest fractions
/// live in `[0, 1]`, so the lies sit far outside the plausible band.
const MAGNITUDE: f64 = 5.0;

/// Weight claimed by inflating nodes (honest claims are ≤ 1).
const INFLATION: f64 = 8.0;

/// The swept Byzantine fractions.
const FRACTIONS: &[f64] = &[0.0, 0.01, 0.05, 0.10, 0.20];

/// Per-component influence cap of the benchmarked robust policy. The
/// heavy lifting against out-of-range poison is the plausibility screen
/// (reject any contribution no honest node could produce); the cap bounds
/// what an in-range lie can move per exchange. Trimming is off in the
/// headline sweep — with a trim every merge skips its most-divergent
/// component, which freezes the slowest-converging component of
/// late-joining peers (property tests cover the trimmed merge instead).
const INFLUENCE_CAP: f64 = 0.25;

/// The robust policy every robust-mode run uses.
fn bench_policy() -> RobustPolicy {
    RobustPolicy::new()
        .with_trim_fraction(0.0)
        .with_influence_cap(INFLUENCE_CAP)
}

/// Event-engine gossip period in ticks.
const PERIOD: u64 = 200;

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

/// FNV-1a over the little-endian bytes of `v`, folded into `h`.
fn mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn model_name(model: AdversaryModel) -> &'static str {
    match model {
        AdversaryModel::ValuePoisoning { .. } => "value_poisoning",
        AdversaryModel::WeightInflation { .. } => "weight_inflation",
        AdversaryModel::TargetedPartner { .. } => "targeted_partner",
        AdversaryModel::Equivocation { .. } => "equivocation",
    }
}

/// The scenario for one matrix point: the adversary window covers the
/// whole instance including the settle rounds. `None` at f = 0.
fn scenario_for(seed: u64, fraction: f64, model: AdversaryModel) -> Option<FaultScenario> {
    (fraction > 0.0)
        .then(|| FaultScenario::new(seed).with_adversary(0, ROUNDS + 3, fraction, model))
}

/// Scores the honest peers' estimates against `truth`, returning the
/// error report, the honest `n_hat` mean relative error, and a bit-exact
/// fingerprint over *all* peers (determinism must cover Byzantine state
/// too). `peers` is `(slot, estimate)` in deterministic slot order.
fn score_honest(
    peers: &[(usize, Option<PeerEstimate>)],
    n_hats: &[(usize, Option<f64>)],
    adversary: Option<&ActiveAdversary>,
    s: &ExperimentSetup,
    args: &Args,
) -> (adam2_bench::ErrorReport, f64, u64) {
    let is_honest = |slot: usize| adversary.is_none_or(|adv| !adv.is_byzantine(slot));
    let honest: Vec<Option<PeerEstimate>> = peers
        .iter()
        .filter(|(slot, _)| is_honest(*slot))
        .map(|(_, est)| est.clone())
        .collect();
    let report = evaluate_peer_estimates(&honest, &s.truth, args.sample_peers, args.seed);

    let truth_n = s.population.len() as f64;
    let (mut sum, mut count) = (0.0f64, 0usize);
    for (slot, n_hat) in n_hats {
        if !is_honest(*slot) {
            continue;
        }
        if let Some(n) = n_hat {
            sum += (n - truth_n).abs() / truth_n;
            count += 1;
        }
    }
    let n_hat_rel_err = if count > 0 {
        sum / count as f64
    } else {
        f64::NAN
    };

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (slot, est) in peers {
        h = mix(h, *slot as u64);
        let Some(est) = est else { continue };
        for f in &est.fractions {
            h = mix(h, f.to_bits());
        }
        h = mix(h, est.min.to_bits());
        h = mix(h, est.max.to_bits());
    }
    for (_, n_hat) in n_hats {
        if let Some(n) = n_hat {
            h = mix(h, n.to_bits());
        }
    }
    (report, n_hat_rel_err, h)
}

/// Lowest honest slot: the instance initiator is assumed honest (a
/// Byzantine initiator is the degenerate everything-is-poison case), and
/// picking the lowest slot doubles as the worst case for the
/// targeted-partner model, whose victim is exactly the lowest live slot.
fn honest_initiator(ids: &[NodeId], adversary: Option<&ActiveAdversary>) -> NodeId {
    *ids.iter()
        .filter(|id| adversary.is_none_or(|adv| !adv.is_byzantine(id.slot())))
        .min_by_key(|id| id.slot())
        .expect("at least one honest node")
}

/// One cycle-engine run.
fn run_cycle(
    s: &ExperimentSetup,
    args: &Args,
    model: AdversaryModel,
    fraction: f64,
    robust: bool,
    threads: usize,
) -> ByzResult {
    let mut config = Adam2Config::new()
        .with_lambda(args.lambda)
        .with_rounds_per_instance(ROUNDS);
    if robust {
        config = config.with_robust(bench_policy());
    }
    let mut engine = adam2_engine_with(s, config, args.seed, |c| c.with_threads(threads));
    engine.attach_telemetry(SimTelemetry::new());
    let scenario = scenario_for(args.seed, fraction, model);
    let adversary = scenario.as_ref().and_then(|sc| sc.adversary_at(0));
    if let Some(sc) = scenario {
        engine.set_fault_scenario(sc).expect("valid scenario");
    }
    let ids: Vec<NodeId> = engine.nodes().iter().map(|(id, _)| id).collect();
    let initiator = honest_initiator(&ids, adversary.as_ref());
    engine
        .with_ctx(|proto, ctx| proto.start_instance(initiator, ctx))
        .expect("instance start");
    engine.run_rounds(ROUNDS + 1 + SETTLE_ROUNDS);

    let peers: Vec<(usize, Option<PeerEstimate>)> = engine
        .nodes()
        .iter()
        .map(|(id, node)| {
            let est = node.estimate().map(|est| PeerEstimate {
                instance: est.instance.as_u64(),
                thresholds: est.thresholds.clone(),
                fractions: est.fractions.clone(),
                min: est.min,
                max: est.max,
            });
            (id.slot(), est)
        })
        .collect();
    let n_hats: Vec<(usize, Option<f64>)> = engine
        .nodes()
        .iter()
        .map(|(id, node)| (id.slot(), node.estimate().and_then(|est| est.n_hat)))
        .collect();
    let (report, n_hat_rel_err, fingerprint) =
        score_honest(&peers, &n_hats, adversary.as_ref(), s, args);
    let mut counter = |name: &str| {
        engine
            .telemetry_mut()
            .expect("telemetry attached above")
            .telemetry()
            .metrics
            .counters()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| v)
    };
    let (rejects, trims) = (counter("robust_rejects"), counter("robust_trims"));
    let byzantine = adversary
        .as_ref()
        .map_or(0, |adv| adv.count_byzantine(ids.iter().map(|id| id.slot())));
    ByzResult {
        engine: "cycle",
        model: model_name(model),
        fraction,
        robust,
        err_a: report.avg_cdf,
        err_m: report.max_cdf,
        n_hat_rel_err,
        honest_without_estimate: report.peers_without_estimate,
        byzantine,
        robust_rejects: rejects,
        robust_trims: trims,
        fingerprint,
    }
}

/// One event-engine run on the batch-parallel driver.
fn run_event(
    s: &ExperimentSetup,
    args: &Args,
    model: AdversaryModel,
    fraction: f64,
    robust: bool,
    threads: usize,
) -> ByzResult {
    let mut proto = AsyncAdam2::with_population(PERIOD, s.population.values().to_vec(), {
        let pop = s.population.clone();
        move |rng| pop.draw_fresh(rng)
    });
    if robust {
        proto = proto.with_robust(bench_policy());
    }
    let config = EventConfig::new(s.population.len(), args.seed)
        .with_gossip_period(PERIOD)
        .with_latency(LatencyModel::Uniform { min: 5, max: 40 })
        .with_threads(threads);
    let mut engine = EventEngine::new(config, proto);
    let scenario = scenario_for(args.seed, fraction, model);
    let adversary = scenario.as_ref().and_then(|sc| sc.adversary_at(0));
    if let Some(sc) = scenario {
        engine.set_fault_scenario(sc).expect("valid scenario");
    }
    let thresholds = uniform_points(s.truth.min(), s.truth.max(), args.lambda);
    let meta = Arc::new(InstanceMeta {
        id: InstanceId::derive(0, 0, 1),
        thresholds: thresholds.into(),
        verify_thresholds: Vec::new().into(),
        start_round: 0,
        end_round: ROUNDS,
        multi: false,
    });
    let ids: Vec<NodeId> = engine.nodes().iter().map(|(id, _)| id).collect();
    let initiator = honest_initiator(&ids, adversary.as_ref());
    engine.with_ctx(|proto, ctx| proto.start_instance(initiator, meta.clone(), ctx));
    engine.run_until_parallel(PERIOD * (ROUNDS + 1 + SETTLE_ROUNDS));

    let peers: Vec<(usize, Option<PeerEstimate>)> = engine
        .nodes()
        .iter()
        .map(|(id, node)| {
            let est = node.estimate().map(|est| PeerEstimate {
                instance: est.instance.as_u64(),
                thresholds: est.thresholds.clone(),
                fractions: est.fractions.clone(),
                min: est.min,
                max: est.max,
            });
            (id.slot(), est)
        })
        .collect();
    let n_hats: Vec<(usize, Option<f64>)> = engine
        .nodes()
        .iter()
        .map(|(id, node)| (id.slot(), node.estimate().and_then(|est| est.n_hat)))
        .collect();
    let (report, n_hat_rel_err, fingerprint) =
        score_honest(&peers, &n_hats, adversary.as_ref(), s, args);
    let byzantine = adversary
        .as_ref()
        .map_or(0, |adv| adv.count_byzantine(ids.iter().map(|id| id.slot())));
    ByzResult {
        engine: "event",
        model: model_name(model),
        fraction,
        robust,
        err_a: report.avg_cdf,
        err_m: report.max_cdf,
        n_hat_rel_err,
        honest_without_estimate: report.peers_without_estimate,
        byzantine,
        robust_rejects: engine.protocol().robust_rejects(),
        robust_trims: engine.protocol().robust_trims(),
        fingerprint,
    }
}

fn take_flag(raw: &mut Vec<String>, name: &str) -> bool {
    let before = raw.len();
    raw.retain(|a| a != name);
    raw.len() != before
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
    let threads: usize = args
        .extra_parsed("threads")
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(0);
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_byzantine.json");
    let out = args.extra("out").unwrap_or(default_out).to_string();
    let detected = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let effective_threads = if threads == 0 { detected } else { threads };
    let nodes = args.nodes;

    println!("== bench_byzantine — honest-peer Err_a vs Byzantine fraction ==");
    println!(
        "nodes={nodes} seed={} lambda={} threads={effective_threads}",
        args.seed, args.lambda
    );
    println!();

    let s = setup(Attribute::Ram, nodes, args.seed);
    let poisoning = AdversaryModel::ValuePoisoning {
        magnitude: MAGNITUDE,
    };

    let mut results: Vec<ByzResult> = Vec::new();
    for &fraction in FRACTIONS {
        for robust in [false, true] {
            results.push(run_cycle(&s, &args, poisoning, fraction, robust, threads));
            results.push(run_event(&s, &args, poisoning, fraction, robust, threads));
        }
    }
    // All four adversary models pinned at f = 10 % on the cycle engine.
    let models = [
        AdversaryModel::WeightInflation { factor: INFLATION },
        AdversaryModel::TargetedPartner {
            magnitude: MAGNITUDE,
        },
        AdversaryModel::Equivocation {
            magnitude: MAGNITUDE,
        },
    ];
    for model in models {
        for robust in [false, true] {
            results.push(run_cycle(&s, &args, model, 0.10, robust, threads));
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

    let json = render_json(&args, nodes, effective_threads, detected, &results);
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("bench_byzantine: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }

    if check {
        run_checks(&results);
        run_determinism_checks(&s, &args, poisoning, effective_threads, &results);
        println!("all byzantine-resilience checks passed");
    }
}

fn render_json(
    args: &Args,
    nodes: usize,
    threads: usize,
    detected: usize,
    results: &[ByzResult],
) -> String {
    let manifest = RunManifest::new(
        "bench_byzantine",
        &format!(
            "nodes={nodes} lambda={} rounds={ROUNDS} magnitude={MAGNITUDE}",
            args.lambda
        ),
        args.seed,
        threads,
    );
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"byzantine_resilience\",\n");
    json.push_str(&format!("  \"manifest\": {},\n", manifest.to_inline_json()));
    json.push_str(&format!("  \"nodes\": {nodes},\n"));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!("  \"lambda\": {},\n", args.lambda));
    json.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    json.push_str(&format!("  \"magnitude\": {MAGNITUDE},\n"));
    json.push_str(&format!("  \"inflation\": {INFLATION},\n"));
    json.push_str(&format!("  \"detected_cores\": {detected},\n"));
    // `{:.6e}` would print NaN/inf verbatim, which is not JSON.
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v:.6e}")
        } else {
            "null".to_string()
        }
    };
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"model\": \"{}\", \"fraction\": {}, \"robust\": {}, \
             \"err_a\": {}, \"err_m\": {}, \"n_hat_rel_err\": {}, \
             \"honest_without_estimate\": {}, \"byzantine\": {}, \"robust_rejects\": {}, \
             \"robust_trims\": {}, \"fingerprint\": {}}}{}\n",
            r.engine,
            r.model,
            r.fraction,
            r.robust,
            num(r.err_a),
            num(r.err_m),
            num(r.n_hat_rel_err),
            r.honest_without_estimate,
            r.byzantine,
            r.robust_rejects,
            r.robust_trims,
            r.fingerprint,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
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

/// Re-runs the f = 10 % robust point on both engines at a different
/// worker count and requires the exact same estimate fingerprint.
fn run_determinism_checks(
    s: &ExperimentSetup,
    args: &Args,
    poisoning: AdversaryModel,
    effective_threads: usize,
    results: &[ByzResult],
) {
    let other = if effective_threads == 2 { 1 } else { 2 };
    let cycle = find(results, "cycle", "value_poisoning", 0.10, true);
    let cycle_rerun = run_cycle(s, args, poisoning, 0.10, true, other);
    assert_eq!(
        cycle.fingerprint, cycle_rerun.fingerprint,
        "cycle engine not bit-identical under adversary (threads {effective_threads} vs {other})"
    );
    let event = find(results, "event", "value_poisoning", 0.10, true);
    let event_rerun = run_event(s, args, poisoning, 0.10, true, other);
    assert_eq!(
        event.fingerprint, event_rerun.fingerprint,
        "event engine not bit-identical under adversary (threads {effective_threads} vs {other})"
    );
    println!(
        "determinism OK: threads {effective_threads} == threads {other} on both engines \
         (cycle {:016x}, event {:016x})",
        cycle.fingerprint, event.fingerprint
    );
}
