//! Deploy-runtime benchmark: the socket-based cluster vs the sequential
//! simulator on an identical trace.
//!
//! Runs the sequential simulator once to get the ground-truth accuracy of
//! one aggregation instance, then launches real N-node loopback clusters
//! (`adam2-deploy`, on the reactor's default thread count), injects an
//! instance with the *same thresholds* over a control socket, lets the
//! nodes gossip over TCP to convergence, collects every node's estimate
//! back over the control sockets, and scores everything through the same
//! [`evaluate_peer_estimates`] pipeline. Two scenarios run: clean, and a
//! 10 % socket-loss shim exercising the retransmit/seq-cache repair path.
//! Every run reports gossip throughput (completed exchanges/sec) and p99
//! exchange latency.
//!
//! A separate *scale sweep* (`--scale N`) boots an N-node reactor cluster
//! — ten thousand nodes on one host — with the round length stretched to
//! what one machine can actually gossip (`max(tick, N/5 ms)`), and matches
//! its Err_a against the simulator on the same population. Results go to
//! `BENCH_deploy.json` at the repository root (override with `--out
//! PATH`).
//!
//! Extra flags: `--out PATH`, `--check 1` (assert convergence — deploy
//! Err_a within 2x of the simulator — plus full estimate coverage and a
//! clean shutdown; CI's deploy jobs use this), `--tick-ms T` (gossip round
//! length, default 40), `--scale N` (reactor scale sweep, default off).
//! The standard `--nodes` / `--seed` / `--lambda` / `--telemetry` flags
//! also apply; `--nodes` is clamped to 256 because the scenario runs keep
//! the fixed `--tick-ms` round, which a larger cluster cannot gossip in on
//! one host (`--scale` is the large-cluster run: it stretches the round).
//! The scale sweep is additionally clamped to what `ulimit -n` leaves room
//! for (every node holds a listener fd).

use std::sync::Arc;
use std::time::{Duration, Instant};

use adam2_bench::{
    adam2_engine, complete_instance, evaluate_estimates, evaluate_peer_estimates, setup,
    start_instance, Args, ErrorReport, PeerEstimate,
};
use adam2_core::{Adam2Config, AttrValue, InstanceMeta};
use adam2_deploy::{Cluster, ClusterConfig, ClusterTelemetry, EstimateWire, LossShim, NodeConfig};
use adam2_sim::{ChurnModel, RunManifest};
use adam2_traces::Attribute;

/// Gossip rounds per instance, simulator and deploy alike.
const ROUNDS: u64 = 30;

/// Rounds between cluster launch and the instance's start round: enough
/// for the injected `StartInstance` to land before gossip begins.
const WARMUP_ROUNDS: u64 = 3;

/// Node cap for the scenario runs: the scale sweep's own rule gives one
/// host about five nodes per millisecond of round, so past ~200 nodes the
/// default 40 ms round falls behind its clock. `--scale` stretches the
/// round instead.
const MAX_DEPLOY_NODES: usize = 256;

/// File descriptors reserved for everything that is not a node listener:
/// in-flight exchange sockets, inbound connections, driver workers.
const FD_SLACK: usize = 2048;

struct ScenarioResult {
    name: &'static str,
    nodes: usize,
    tick_ms: u64,
    outcome: DeployOutcome,
}

struct DeployOutcome {
    report: ErrorReport,
    mean_n_hat: f64,
    exchanges: u64,
    completed: u64,
    repairs: u64,
    aborts: u64,
    shim_drops: u64,
    malformed: u64,
    backpressure_drops: u64,
    throughput_eps: f64,
    p99_latency_us: u64,
    duration_s: f64,
    clean_shutdown: bool,
}

fn main() {
    let args = Args::parse("bench_deploy");
    let check = args.extra("check").is_some();
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_deploy.json");
    let out = args.extra("out").unwrap_or(default_out).to_string();
    let tick_ms: u64 = parse_extra(&args, "tick-ms").unwrap_or(40);
    let scale: usize = parse_extra(&args, "scale").unwrap_or(0);

    let nodes = args.nodes.clamp(2, MAX_DEPLOY_NODES);
    if nodes != args.nodes {
        println!(
            "note: --nodes {} clamped to {nodes} (use --scale for larger clusters)",
            args.nodes
        );
    }
    let scale = clamp_to_fd_limit(scale);

    println!("== bench_deploy — socket runtime vs sequential simulator ==");
    println!(
        "nodes={nodes} seed={} lambda={} rounds={ROUNDS} tick={tick_ms}ms scale={scale}",
        args.seed, args.lambda
    );
    println!();

    // Ground truth: the sequential simulator on the same population.
    let sim_report = simulator_report(nodes, &args);
    println!(
        "simulator     Err_a={:.3e} Err_m={:.3e}",
        sim_report.1.avg_cdf, sim_report.1.max_cdf
    );

    // Scenario runs: same population, same thresholds, real sockets.
    let node_config = NodeConfig {
        tick: Duration::from_millis(tick_ms),
        io_timeout: Duration::from_millis((tick_ms / 2).clamp(10, 50)),
        retries: 2,
        queue_capacity: 4,
        view_size: 12,
        seed: args.seed,
    };
    node_config.validate().expect("bench node config is valid");
    let scenarios = [
        ("clean", LossShim::none()),
        ("loss10", LossShim::flat(args.seed, 0.10)),
    ];
    let mut results = Vec::new();
    for (scenario, shim) in scenarios {
        let outcome = run_deploy(scenario, shim, nodes, &sim_report.0, &node_config, &args);
        println!(
            "deploy/{scenario:<7} Err_a={:.3e} Err_m={:.3e} \
             peers_without={} exchanges={} throughput={:.0}/s p99={}us clean_shutdown={}",
            outcome.report.avg_cdf,
            outcome.report.max_cdf,
            outcome.report.peers_without_estimate,
            outcome.exchanges,
            outcome.throughput_eps,
            outcome.p99_latency_us,
            outcome.clean_shutdown,
        );
        results.push(ScenarioResult {
            name: scenario,
            nodes,
            tick_ms,
            outcome,
        });
    }

    // Scale sweep: an N-node reactor cluster with the round length
    // stretched to what one host can gossip, Err_a matched against the
    // simulator on the same population.
    let scale_result = if scale > 0 {
        let scale_tick = tick_ms.max(scale as u64 / 5);
        let scale_config = NodeConfig {
            tick: Duration::from_millis(scale_tick),
            io_timeout: Duration::from_millis((scale_tick / 4).clamp(10, 500)),
            retries: 2,
            queue_capacity: 4,
            view_size: 12,
            seed: args.seed,
        };
        scale_config.validate().expect("scale node config is valid");
        let scale_sim = simulator_report(scale, &args);
        println!(
            "\nscale sweep: {scale} reactor nodes, tick={scale_tick}ms \
             (simulator Err_a={:.3e})",
            scale_sim.1.avg_cdf
        );
        let outcome = run_deploy(
            "scale",
            LossShim::none(),
            scale,
            &scale_sim.0,
            &scale_config,
            &args,
        );
        println!(
            "deploy/scale    Err_a={:.3e} peers_without={} throughput={:.0}/s p99={}us \
             duration={:.1}s clean_shutdown={}",
            outcome.report.avg_cdf,
            outcome.report.peers_without_estimate,
            outcome.throughput_eps,
            outcome.p99_latency_us,
            outcome.duration_s,
            outcome.clean_shutdown,
        );
        Some((scale, scale_tick, scale_sim.1, outcome))
    } else {
        None
    };

    let json = render_json(
        &args,
        nodes,
        tick_ms,
        &sim_report.1,
        &results,
        &scale_result,
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("bench_deploy: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }

    if check {
        run_checks(&sim_report.1, &results, &scale_result);
        println!("all deploy checks passed");
    }
}

fn parse_extra<T: std::str::FromStr>(args: &Args, key: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    args.extra_parsed(key).unwrap_or_else(|e| {
        eprintln!("bench_deploy: {e}");
        std::process::exit(2);
    })
}

/// Clamps the scale sweep to the fd budget: every node holds a listener
/// fd, plus [`FD_SLACK`] for live connections.
fn clamp_to_fd_limit(scale: usize) -> usize {
    if scale == 0 {
        return 0;
    }
    let Some(limit) = fd_soft_limit() else {
        return scale;
    };
    let budget = limit.saturating_sub(FD_SLACK);
    if scale > budget {
        println!(
            "note: --scale {scale} clamped to {budget} \
             (ulimit -n {limit}, {FD_SLACK} fds reserved for connections)"
        );
        return budget.max(2);
    }
    scale
}

fn fd_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// One simulator run at `nodes`: the instance meta (for its thresholds)
/// and the ground-truth error report.
fn simulator_report(nodes: usize, args: &Args) -> (SimTrace, ErrorReport) {
    let s = setup(Attribute::Ram, nodes, args.seed);
    let config = Adam2Config::new()
        .with_lambda(args.lambda)
        .with_rounds_per_instance(ROUNDS);
    let mut engine = adam2_engine(&s, config, args.seed, ChurnModel::None);
    let meta = start_instance(&mut engine);
    complete_instance(&mut engine, ROUNDS);
    let report = evaluate_estimates(&engine, &s.truth, args.sample_peers, args.seed);
    (
        SimTrace {
            meta,
            population: s.population,
        },
        report,
    )
}

/// The parts of a simulator run a deploy cluster replays: the population
/// (one attribute value per node) and the instance it aggregated.
struct SimTrace {
    meta: Arc<InstanceMeta>,
    population: adam2_traces::Population,
}

fn run_deploy(
    label: &str,
    shim: LossShim,
    nodes: usize,
    trace: &SimTrace,
    node_config: &NodeConfig,
    args: &Args,
) -> DeployOutcome {
    let values: Vec<AttrValue> = trace
        .population
        .values()
        .iter()
        .take(nodes)
        .map(|v| AttrValue::Single(*v))
        .collect();
    let n = values.len();
    // Bootstrap round-trips traverse the reactor's rate-limited accept
    // sweep, so the join timeout scales with the round length at scale.
    let bootstrap_timeout =
        Duration::from_millis((node_config.tick.as_millis() as u64 / 2).max(50));
    let config = ClusterConfig::try_new(node_config.clone())
        .expect("validated above")
        .with_bootstrap(10, bootstrap_timeout)
        .expect("nonzero bootstrap budget")
        .with_shim(shim);
    let cluster = Cluster::launch(values, config).expect("cluster launch");
    let mut sampler = ClusterTelemetry::new(n);

    // Same instance, rebased onto the deploy clock: identical thresholds
    // (and verify thresholds), identical duration.
    let start_round = cluster.current_round() + WARMUP_ROUNDS;
    let meta = Arc::new(InstanceMeta {
        id: trace.meta.id,
        thresholds: trace.meta.thresholds.clone(),
        verify_thresholds: trace.meta.verify_thresholds.clone(),
        start_round,
        end_round: start_round + ROUNDS,
        multi: trace.meta.multi,
    });
    cluster
        .start_instance(0, Arc::clone(&meta))
        .expect("start instance");

    // Throughput window: from instance injection to the end of sampling.
    let window_start = Instant::now();
    let completed_before: u64 = cluster
        .nodes()
        .iter()
        .map(|node| node.stats.snapshot().exchanges_completed)
        .sum();

    // Drive the sampler once per completed round until one round past the
    // instance deadline (the finalisation round).
    let mut last = cluster.current_round();
    while last <= meta.end_round + 1 {
        std::thread::sleep(node_config.tick / 4);
        let now = cluster.current_round();
        if now > last {
            sampler.sample(&cluster, now - 1);
            last = now;
        }
    }
    sampler.sample(&cluster, last); // drain the tail of the latency series
    let duration_s = window_start.elapsed().as_secs_f64();
    let completed: u64 = cluster
        .nodes()
        .iter()
        .map(|node| node.stats.snapshot().exchanges_completed)
        .sum::<u64>()
        .saturating_sub(completed_before);
    let throughput_eps = completed as f64 / duration_s.max(1e-9);
    let p99_latency_us = percentile_us(sampler.latency_samples(), 0.99);

    // Estimate collection scales its deadline with the cluster's round
    // length (collection itself traverses the accept sweep at scale).
    let collect_deadline = Duration::from_secs(10).max(8 * node_config.tick);
    let estimates = cluster.collect_estimates(collect_deadline);
    let peers: Vec<Option<PeerEstimate>> = estimates
        .iter()
        .map(|e| e.as_ref().map(peer_estimate))
        .collect();
    let truth = adam2_core::StepCdf::from_values(
        trace
            .population
            .values()
            .iter()
            .take(nodes)
            .copied()
            .collect(),
    );
    let report = evaluate_peer_estimates(&peers, &truth, args.sample_peers, args.seed);
    let n_hats: Vec<f64> = estimates.iter().flatten().filter_map(|e| e.n_hat).collect();
    let mean_n_hat = if n_hats.is_empty() {
        f64::NAN
    } else {
        n_hats.iter().sum::<f64>() / n_hats.len() as f64
    };

    let mut exchanges = 0;
    let mut repairs = 0;
    let mut aborts = 0;
    let mut shim_drops = 0;
    let mut malformed = 0;
    let mut backpressure_drops = 0;
    for node in cluster.nodes() {
        let snap = node.stats.snapshot();
        exchanges += snap.exchanges_started;
        repairs += snap.retransmissions;
        aborts += snap.exchanges_aborted;
        shim_drops += snap.shim_dropped;
        malformed += snap.malformed_frames;
        backpressure_drops += snap.backpressure_drops;
    }

    if let Some(dir) = &args.telemetry {
        let manifest = RunManifest::new(
            &format!("bench_deploy_{label}"),
            &format!(
                "nodes={n} lambda={} rounds={ROUNDS} tick_ms={} scenario={label}",
                args.lambda,
                node_config.tick.as_millis()
            ),
            args.seed,
            1,
        );
        let path = std::path::Path::new(dir).join(format!("deploy_{label}"));
        if let Err(e) = sampler.export(&path, &manifest) {
            eprintln!(
                "bench_deploy: telemetry export to {} failed: {e}",
                path.display()
            );
        }
    }

    let shutdown = cluster.shutdown();
    DeployOutcome {
        report,
        mean_n_hat,
        exchanges,
        completed,
        repairs,
        aborts,
        shim_drops,
        malformed,
        backpressure_drops,
        throughput_eps,
        p99_latency_us,
        duration_s,
        clean_shutdown: shutdown.clean,
    }
}

/// The `q`-quantile of the latency series, in microseconds (0 when no
/// exchange completed).
fn percentile_us(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn peer_estimate(e: &EstimateWire) -> PeerEstimate {
    PeerEstimate {
        instance: e.instance,
        thresholds: e.thresholds.clone(),
        fractions: e.fractions.clone(),
        min: e.min,
        max: e.max,
    }
}

/// `{:.4}` of a NaN would emit bare `NaN` — not valid JSON — so an empty
/// n-hat series renders as `null`.
fn json_mean(mean: f64) -> String {
    if mean.is_finite() {
        format!("{mean:.4}")
    } else {
        "null".to_string()
    }
}

type ScaleResult = Option<(usize, u64, ErrorReport, DeployOutcome)>;

fn render_json(
    args: &Args,
    nodes: usize,
    tick_ms: u64,
    sim: &ErrorReport,
    results: &[ScenarioResult],
    scale: &ScaleResult,
) -> String {
    let manifest = RunManifest::new(
        "bench_deploy",
        &format!(
            "nodes={nodes} lambda={} rounds={ROUNDS} tick_ms={tick_ms}",
            args.lambda
        ),
        args.seed,
        1,
    );
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"deploy_runtime\",\n");
    json.push_str(&format!("  \"manifest\": {},\n", manifest.to_inline_json()));
    json.push_str(&format!("  \"nodes\": {nodes},\n"));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!("  \"lambda\": {},\n", args.lambda));
    json.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    json.push_str(&format!("  \"tick_ms\": {tick_ms},\n"));
    json.push_str(&format!(
        "  \"simulator\": {{\"err_a\": {:.6e}, \"err_m\": {:.6e}}},\n",
        sim.avg_cdf, sim.max_cdf
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let o = &r.outcome;
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"nodes\": {}, \"tick_ms\": {}, \
             \"err_a\": {:.6e}, \"err_m\": {:.6e}, \"peers_without_estimate\": {}, \
             \"mean_n_hat\": {}, \"exchanges\": {}, \"exchanges_completed\": {}, \
             \"repairs\": {}, \"aborts\": {}, \"shim_drops\": {}, \"malformed_frames\": {}, \
             \"backpressure_drops\": {}, \"throughput_eps\": {:.2}, \"p99_latency_us\": {}, \
             \"duration_s\": {:.3}, \"clean_shutdown\": {}}}{}\n",
            r.name,
            r.nodes,
            r.tick_ms,
            o.report.avg_cdf,
            o.report.max_cdf,
            o.report.peers_without_estimate,
            json_mean(o.mean_n_hat),
            o.exchanges,
            o.completed,
            o.repairs,
            o.aborts,
            o.shim_drops,
            o.malformed,
            o.backpressure_drops,
            o.throughput_eps,
            o.p99_latency_us,
            o.duration_s,
            o.clean_shutdown,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scale\": [\n");
    if let Some((scale_nodes, scale_tick, scale_sim, o)) = scale {
        json.push_str(&format!(
            "    {{\"nodes\": {scale_nodes}, \"tick_ms\": {scale_tick}, \
             \"err_a\": {:.6e}, \"sim_err_a\": {:.6e}, \"peers_without_estimate\": {}, \
             \"mean_n_hat\": {}, \"exchanges_completed\": {}, \"throughput_eps\": {:.2}, \
             \"p99_latency_us\": {}, \"duration_s\": {:.3}, \"clean_shutdown\": {}}}\n",
            o.report.avg_cdf,
            scale_sim.avg_cdf,
            o.report.peers_without_estimate,
            json_mean(o.mean_n_hat),
            o.completed,
            o.throughput_eps,
            o.p99_latency_us,
            o.duration_s,
            o.clean_shutdown,
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn find<'a>(results: &'a [ScenarioResult], name: &str) -> &'a DeployOutcome {
    &results
        .iter()
        .find(|r| r.name == name)
        .expect("scenario present")
        .outcome
}

fn run_checks(sim: &ErrorReport, results: &[ScenarioResult], scale: &ScaleResult) {
    let mut failures = Vec::new();

    for r in results {
        let o = &r.outcome;
        let who = r.name;
        if !o.clean_shutdown {
            failures.push(format!("{who}: runtime did not shut down cleanly"));
        }
        if o.malformed > 0 {
            failures.push(format!(
                "{who}: {} malformed frames on a trusted loopback cluster",
                o.malformed
            ));
        }
        if o.report.peers_with_estimate == 0 {
            failures.push(format!("{who}: no peer produced an estimate"));
        }
        if o.report.peers_without_estimate > 0 {
            failures.push(format!(
                "{who}: {} peers without an estimate",
                o.report.peers_without_estimate
            ));
        }
        if o.completed == 0 {
            failures.push(format!("{who}: no exchange ever completed"));
        }
    }

    // Convergence: the clean cluster matches the simulator within 2x (plus
    // a tiny absolute floor for when the simulator's error is ~0), and 10%
    // socket loss still converges via the retransmit path.
    let clean = find(results, "clean");
    if clean.report.avg_cdf > sim.avg_cdf * 2.0 + 1e-3 {
        failures.push(format!(
            "clean deploy Err_a {:.3e} exceeds 2x simulator {:.3e}",
            clean.report.avg_cdf, sim.avg_cdf
        ));
    }
    let lossy = find(results, "loss10");
    if lossy.shim_drops == 0 {
        failures.push("loss10 ran but the shim never dropped a frame".into());
    }
    if lossy.report.avg_cdf > sim.avg_cdf * 2.0 + 1e-2 {
        failures.push(format!(
            "loss10 deploy Err_a {:.3e} did not converge (simulator {:.3e})",
            lossy.report.avg_cdf, sim.avg_cdf
        ));
    }

    // Scale sweep: the big reactor cluster must finish the instance with
    // near-total coverage and an Err_a in the simulator's neighbourhood.
    if let Some((scale_nodes, _, scale_sim, o)) = scale {
        if !o.clean_shutdown {
            failures.push("scale: runtime did not shut down cleanly".into());
        }
        if o.completed == 0 {
            failures.push("scale: no exchange ever completed".into());
        }
        let allowed_missing = scale_nodes / 100; // 1% stragglers
        if o.report.peers_without_estimate > allowed_missing {
            failures.push(format!(
                "scale: {} of {scale_nodes} peers without an estimate (allowed {allowed_missing})",
                o.report.peers_without_estimate
            ));
        }
        if o.report.avg_cdf > scale_sim.avg_cdf * 2.0 + 1e-2 {
            failures.push(format!(
                "scale deploy Err_a {:.3e} did not converge (simulator {:.3e})",
                o.report.avg_cdf, scale_sim.avg_cdf
            ));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_deploy check FAILED: {f}");
        }
        std::process::exit(1);
    }
}
