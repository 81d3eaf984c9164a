//! Streaming-tracker matrix: time-averaged tracking error of the
//! pipelined time-faded blend versus the naive restart-per-instance
//! baseline, on drifting populations, at equal message budget.
//!
//! Two drift scenarios (a sustained linear ramp and an abrupt step
//! change) are each run under all four [`TrackerMode`]s. Gossip exchanges
//! piggyback every active instance, so the pipelined modes pay exactly
//! the same *message* count as the baseline — overlap shows up in bytes
//! only — which makes the time-averaged error comparison an equal-budget
//! one by construction. Results go to `BENCH_streaming.json` at the
//! repository root (override with `--out PATH`).
//!
//! Extra flags: `--out PATH`, `--threads T`, `--check` (assert the
//! streaming invariants — the pipelined faded tracker beats the naive
//! baseline on both drift scenarios at equal messages, the adaptive
//! restart fires on the step change, replay is bit-identical at two
//! thread counts, and a deploy daemon-mode cluster serves blended
//! estimates end to end; CI's streaming-smoke job runs this). The
//! standard `--nodes` / `--seed` / `--lambda` / `--telemetry` flags also
//! apply; defaults are calibrated for the drift magnitudes below
//! (nodes=300, seed=11, lambda=16 over the RAM attribute).

use std::time::Duration;

use adam2_bench::{
    adam2_engine_with, assert_thread_invariant, maybe_attach_telemetry, setup, take_flag, Args,
    BenchReport, ExperimentSetup,
};
use adam2_core::{Adam2Config, AttrValue, BootstrapKind};
use adam2_deploy::{Cluster, ClusterConfig, DaemonConfig, NodeConfig, DAEMON_INSTANCE_BASE};
use adam2_sim::{DriftModel, FaultScenario, RunManifest};
use adam2_stream::{InstancePipeline, StreamConfig, StreamReport, TrackerMode};
use adam2_traces::Attribute;

/// Rounds each tracker runs (long enough for ~25 staggered instances).
const STREAM_ROUNDS: u64 = 220;

/// Initial rounds between staggered launches (the adaptive modes move it).
const LAUNCH_PERIOD: u64 = 8;

/// Gossip rounds per instance.
const INSTANCE_ROUNDS: u64 = 25;

/// Linear-ramp drift rate (MB per round on the RAM attribute, whose truth
/// spans roughly 120..8000 MB — ~0.4 %/round, fast enough that a stale
/// snapshot visibly lags).
const RAMP_PER_ROUND: f64 = 30.0;

/// Step-change magnitude (MB): an abrupt fleet-wide upgrade.
const STEP_SHIFT: f64 = 2_000.0;

/// The drift scenarios of the matrix.
const SCENARIOS: &[&str] = &["ramp30", "step2000"];

fn scenario_for(name: &str, seed: u64) -> FaultScenario {
    match name {
        "ramp30" => FaultScenario::new(seed).with_drift(
            10,
            STREAM_ROUNDS - 10,
            DriftModel::LinearRamp {
                per_round: RAMP_PER_ROUND,
            },
        ),
        "step2000" => {
            FaultScenario::new(seed).with_drift(60, 61, DriftModel::Step { shift: STEP_SHIFT })
        }
        other => panic!("unknown scenario {other}"),
    }
}

/// One matrix point reduced to the reported numbers.
struct StreamResult {
    scenario: &'static str,
    mode: &'static str,
    report: StreamReport,
}

fn run_one(
    s: &ExperimentSetup,
    args: &Args,
    scenario: &'static str,
    mode: TrackerMode,
    threads: usize,
) -> StreamResult {
    let adam2 = Adam2Config::new()
        .with_lambda(args.lambda)
        .with_rounds_per_instance(INSTANCE_ROUNDS)
        .with_bootstrap(BootstrapKind::Neighbours);
    let mut engine = adam2_engine_with(s, adam2, args.seed, |c| c.with_threads(threads));
    maybe_attach_telemetry(&mut engine, args.telemetry.as_ref());
    engine
        .set_fault_scenario(scenario_for(scenario, args.seed))
        .expect("valid drift scenario");
    let config = StreamConfig::for_mode(mode)
        .with_launch_period(LAUNCH_PERIOD)
        .with_instance_rounds(INSTANCE_ROUNDS);
    let mut pipeline = InstancePipeline::new(engine, config);
    pipeline.run(STREAM_ROUNDS);
    let report = pipeline.report();
    if let Some(dir) = &args.telemetry {
        adam2_bench::export_telemetry(
            pipeline.engine_mut(),
            dir,
            &format!("stream_{scenario}_{}", mode.label()),
            "bench_stream",
            &format!(
                "scenario={scenario} mode={} nodes={} lambda={} rounds={STREAM_ROUNDS} \
                 period={LAUNCH_PERIOD} final_period={}",
                mode.label(),
                args.nodes,
                args.lambda,
                report.final_period
            ),
            args.seed,
        );
    }
    StreamResult {
        scenario,
        mode: mode.label(),
        report,
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let check = take_flag(&mut raw, "--check");
    // Streaming defaults calibrated for the drift magnitudes above; any
    // explicitly passed flag still wins.
    for (flag, default) in [("--nodes", "300"), ("--seed", "11"), ("--lambda", "16")] {
        if !raw.iter().any(|a| a == flag) {
            raw.push(flag.to_string());
            raw.push(default.to_string());
        }
    }
    let args = match Args::try_parse(raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_stream: {msg}");
            eprintln!(
                "usage: bench_stream [--nodes N] [--seed S] [--lambda L] [--threads T] \
                 [--telemetry DIR] [--out PATH] [--check]"
            );
            std::process::exit(if msg == "help requested" { 0 } else { 2 });
        }
    };
    let threads = args.threads();
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    let out = args.extra("out").unwrap_or(default_out).to_string();
    let nodes = args.nodes;

    println!("== bench_stream — tracking error under drift, all tracker modes ==");
    println!(
        "nodes={nodes} seed={} lambda={} threads={threads} rounds={STREAM_ROUNDS} \
         period={LAUNCH_PERIOD} instance_rounds={INSTANCE_ROUNDS}",
        args.seed, args.lambda
    );
    println!();

    let s = setup(Attribute::Ram, nodes, args.seed);
    let mut results: Vec<StreamResult> = Vec::new();
    for &scenario in SCENARIOS {
        for mode in TrackerMode::ALL {
            results.push(run_one(&s, &args, scenario, mode, threads));
        }
    }

    for r in &results {
        let rep = &r.report;
        println!(
            "{:<9} {:<26} err={:.4} err_max={:.4} final={:.4} launched={:<3} completed={:<3} \
             restarts={:<2} period={:<2} msgs={} bytes={}",
            r.scenario,
            r.mode,
            rep.time_avg_err,
            rep.time_avg_err_max,
            rep.final_err,
            rep.launched,
            rep.completed,
            rep.restarts,
            rep.final_period,
            rep.messages,
            rep.bytes
        );
    }

    // Every mode spends the baseline's messages; overlap is paid in bytes.
    println!();
    for r in results.iter().filter(|r| r.mode != "restart_naive") {
        let (rep, naive) = (&r.report, find(&results, r.scenario, "restart_naive"));
        let verb = if rep.time_avg_err < naive.time_avg_err {
            "wins"
        } else {
            "loses"
        };
        println!(
            "{:<9} {:<26} {verb} at equal messages: err {:.4} vs {:.4}, {:.1} MB vs {:.1} MB \
             ({:.2}x bytes)",
            r.scenario,
            r.mode,
            rep.time_avg_err,
            naive.time_avg_err,
            rep.bytes as f64 / 1e6,
            naive.bytes as f64 / 1e6,
            rep.bytes as f64 / naive.bytes as f64
        );
    }

    render(&args, nodes, threads, &results).write(&out, "bench_stream");
    println!("\nwrote {out}");

    if check {
        run_checks(&results);
        run_determinism_check(&s, &args, threads, &results);
        run_daemon_check();
        println!("all streaming-tracker checks passed");
    }
}

fn render(args: &Args, nodes: usize, threads: usize, results: &[StreamResult]) -> BenchReport {
    let manifest = RunManifest::new(
        "bench_stream",
        &format!(
            "nodes={nodes} lambda={} rounds={STREAM_ROUNDS} period={LAUNCH_PERIOD} \
             instance_rounds={INSTANCE_ROUNDS} ramp={RAMP_PER_ROUND} step={STEP_SHIFT}",
            args.lambda
        ),
        args.seed,
        threads,
    );
    let mut report = BenchReport::new(
        "streaming_tracker",
        &manifest,
        vec![
            ("nodes", nodes.into()),
            ("seed", args.seed.into()),
            ("lambda", args.lambda.into()),
            ("rounds", STREAM_ROUNDS.into()),
            ("launch_period", LAUNCH_PERIOD.into()),
            ("instance_rounds", INSTANCE_ROUNDS.into()),
            ("detected_cores", manifest.detected_cores.into()),
        ],
    );
    for r in results {
        let rep = &r.report;
        report.row(
            "results",
            vec![
                ("scenario", r.scenario.into()),
                ("mode", r.mode.into()),
                ("time_avg_err", rep.time_avg_err.into()),
                ("time_avg_err_max", rep.time_avg_err_max.into()),
                ("final_err", rep.final_err.into()),
                ("launched", rep.launched.into()),
                ("completed", rep.completed.into()),
                ("restarts", rep.restarts.into()),
                ("mean_divergence", rep.mean_divergence.into()),
                ("final_period", rep.final_period.into()),
                ("messages", rep.messages.into()),
                ("bytes", rep.bytes.into()),
                ("fingerprint", rep.fingerprint.into()),
            ],
        );
    }
    report
}

fn find<'a>(results: &'a [StreamResult], scenario: &str, mode: &str) -> &'a StreamReport {
    &results
        .iter()
        .find(|r| r.scenario == scenario && r.mode == mode)
        .expect("matrix point present")
        .report
}

fn run_checks(results: &[StreamResult]) {
    let mut failures = Vec::new();
    for &scenario in SCENARIOS {
        let naive = find(results, scenario, "restart_naive");

        // Equal message budget: gossip piggybacks every active instance,
        // so the pipelined modes pay the identical message count.
        for mode in TrackerMode::ALL {
            let r = find(results, scenario, mode.label());
            if r.messages != naive.messages {
                failures.push(format!(
                    "{scenario}/{}: {} messages differ from the baseline's {} — the equal-budget \
                     premise is broken",
                    mode.label(),
                    r.messages,
                    naive.messages
                ));
            }
        }

        // The headline claim: the pipelined time-faded tracker beats the
        // naive restart-per-instance baseline on time-averaged tracking
        // error, at that equal message budget.
        let faded = find(results, scenario, "pipelined_fixed_fade");
        if faded.time_avg_err >= naive.time_avg_err {
            failures.push(format!(
                "{scenario}: pipelined+faded time_avg_err {:.4} does not beat naive {:.4}",
                faded.time_avg_err, naive.time_avg_err
            ));
        }
        if faded.bytes < naive.bytes {
            failures.push(format!(
                "{scenario}: pipelined run sent fewer bytes ({} < {}) — overlap never happened",
                faded.bytes, naive.bytes
            ));
        }
    }

    // The step change must trip the Spectra-style restart, and dropping
    // the poisoned pre-step history must not lose to the baseline.
    let restart = find(results, "step2000", "pipelined_adaptive_restart");
    if restart.restarts == 0 {
        failures.push("step2000: adaptive restart never fired on the step change".to_string());
    }
    let naive_step = find(results, "step2000", "restart_naive");
    if restart.time_avg_err >= naive_step.time_avg_err {
        failures.push(format!(
            "step2000: adaptive restart time_avg_err {:.4} does not beat naive {:.4}",
            restart.time_avg_err, naive_step.time_avg_err
        ));
    }

    // Sustained drift holds the adaptive launch period at/below the fixed
    // rate; it must never fall outside the controller's clamp band.
    let adaptive = find(results, "ramp30", "pipelined_adaptive_fade");
    if !(2..=40).contains(&adaptive.final_period) {
        failures.push(format!(
            "ramp30: adaptive final_period {} escaped the clamp band [2, 40]",
            adaptive.final_period
        ));
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_stream check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// Re-runs one adaptive matrix point at another worker count and
/// requires the exact same per-round fingerprint.
fn run_determinism_check(
    s: &ExperimentSetup,
    args: &Args,
    threads: usize,
    results: &[StreamResult],
) {
    let fingerprint = find(results, "ramp30", "pipelined_adaptive_fade").fingerprint;
    let other = assert_thread_invariant("streaming pipeline", threads, fingerprint, |other| {
        let mode = TrackerMode::PipelinedAdaptiveFade;
        run_one(s, args, "ramp30", mode, other).report.fingerprint
    });
    println!(
        "determinism OK: threads {threads} == threads {other} (fingerprint {fingerprint:016x})"
    );
}

/// Boots a small daemon-mode cluster and requires every node to serve a
/// blended estimate from the daemon's periodic instances — the deploy-side
/// end of the streaming subsystem, exercised over real sockets.
fn run_daemon_check() {
    let n = 8;
    let values: Vec<AttrValue> = (0..n).map(|i| AttrValue::Single(i as f64)).collect();
    let config = ClusterConfig::try_new(NodeConfig {
        tick: Duration::from_millis(25),
        io_timeout: Duration::from_millis(15),
        retries: 2,
        queue_capacity: 4,
        view_size: 10,
        seed: 7,
    })
    .expect("valid node config")
    .with_daemon(DaemonConfig {
        launch_period_rounds: 8,
        instance_rounds: 16,
        thresholds: vec![2.0, 4.0, 6.0],
        half_life_rounds: 8.0,
        max_tracked: 4,
    })
    .expect("valid daemon config");
    let cluster = Cluster::launch(values, config).expect("daemon cluster launch");
    while cluster.current_round() <= 48 {
        std::thread::sleep(Duration::from_millis(10));
    }
    let estimates = cluster.collect_estimates(Duration::from_secs(5));
    let got: Vec<_> = estimates.iter().flatten().collect();
    assert!(
        got.len() >= n - 1,
        "only {}/{n} daemon nodes served a blended estimate",
        got.len()
    );
    for est in &got {
        assert!(
            est.instance >= DAEMON_INSTANCE_BASE,
            "estimate not from the daemon id space"
        );
        for pair in est.fractions.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-9, "blended fractions not monotone");
        }
    }
    assert!(
        got.iter().any(|e| e.instance > DAEMON_INSTANCE_BASE),
        "no daemon node blended a second instance"
    );
    assert!(cluster.shutdown().clean, "daemon cluster shutdown unclean");
    println!(
        "daemon OK: {}/{n} nodes served blended estimates",
        got.len()
    );
}
