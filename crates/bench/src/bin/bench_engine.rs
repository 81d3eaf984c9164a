//! Cycle-engine throughput at one thread and at `T`, plus the event-engine
//! scaling curve.
//!
//! Part 1 measures `Engine::run_round` at 1 thread (the plan as one batch
//! in slot order) against `T` threads (the same plan as a coloured
//! schedule) on an Adam2 simulation with one spread λ=50 instance, for
//! N ∈ {1k, 10k, 100k}, and fails unless both legs end in the same
//! fingerprint. A leg whose measured rounds take under 0.5 s is timed as
//! the minimum of 9 runs, each on a fresh engine: on a shared host a slow
//! phase lasts seconds and only ever adds time, so it can carry the median
//! of five 10 ms runs (the 10³ leg's read 2 455–7 306 rounds/s across
//! processes), while the fastest run is the leg's own cost. Part 2 runs a
//! full Adam2 instance on the event-driven engine
//! (`EventEngine::run_until_parallel`) for N ∈ {10k, 100k, 1M}, reporting
//! simulated ticks/sec, delivered messages/sec, instance coverage, the
//! result fingerprint, and peak-RSS bytes per node (VmHWM from
//! `/proc/self/status`; the process high-water mark is monotone, so the
//! per-node figure is exact at the largest size and an upper bound below
//! it). Results are written as JSON to `BENCH_engine.json` at the
//! repository root (override with `--out PATH`).
//!
//! Extra flags: `--threads T` (worker threads, default 0 = auto),
//! `--out PATH`, `--event-max N` (largest event-engine size, default 1M),
//! `--event-only` (skip the cycle-driven comparison), `--check` (re-run
//! each event size at a different thread count and fail unless the result
//! fingerprint is bit-identical). The standard `--seed` / `--lambda` /
//! `--rounds` flags also apply.

use std::time::Instant;

use adam2_bench::{
    adam2_engine_with, adam2_event_engine_with, assert_thread_invariant, event_instance,
    export_telemetry, fnv_mix, maybe_attach_telemetry, setup, start_instance, take_flag, Args,
    BenchReport, ExperimentSetup,
};
use adam2_core::{Adam2Config, Adam2Protocol};
use adam2_sim::{Engine, LatencyModel, RunManifest};
use adam2_traces::Attribute;

/// One event-engine run reduced to the numbers the bench reports plus a
/// bit-exact fingerprint over every estimate and counter.
struct EventRun {
    secs: f64,
    delivered: u64,
    coverage: f64,
    completed: u64,
    fingerprint: u64,
}

fn measured_rounds(nodes: usize) -> u64 {
    // Keep each measurement in the seconds range across three decades.
    ((2_000_000 / nodes) as u64).clamp(5, 50)
}

/// Measured rounds that take less than this many seconds are timed again.
const MIN_TIMED_SECS: f64 = 0.5;

/// Fresh-engine repetitions whose minimum times a short leg.
const SHORT_LEG_REPEATS: usize = 9;

/// Runs `leg` (seconds of its measured rounds, engine) once and returns its
/// engine; the time is that run's, or, if it took under [`MIN_TIMED_SECS`],
/// the minimum over [`SHORT_LEG_REPEATS`] runs, each on a fresh engine.
fn timed_leg<E>(mut leg: impl FnMut() -> (f64, E)) -> (f64, E) {
    let (secs, engine) = leg();
    if secs >= MIN_TIMED_SECS {
        return (secs, engine);
    }
    let fastest = (1..SHORT_LEG_REPEATS).fold(secs, |fastest, _| fastest.min(leg().0));
    (fastest, engine)
}

/// Peak resident set size of this process (VmHWM), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Bit-exact fingerprint of a cycle engine: every node's running averages
/// plus the traffic totals.
fn cycle_fingerprint(engine: &Engine<Adam2Protocol>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, node) in engine.nodes().iter() {
        for inst in node.active_instances() {
            for f in &inst.fractions {
                h = fnv_mix(h, f.to_bits());
            }
            h = fnv_mix(h, inst.weight.to_bits());
        }
    }
    h = fnv_mix(h, engine.net().total_bytes());
    fnv_mix(h, engine.net().total_msgs())
}

/// Runs one full Adam2 instance on the event engine and reduces it to
/// throughput numbers and a bit-exact fingerprint.
fn run_event(
    s: &ExperimentSetup,
    args: &Args,
    period: u64,
    rounds: u64,
    threads: usize,
) -> EventRun {
    let mut engine = adam2_event_engine_with(s, period, None, args.seed, |c| {
        c.with_latency(LatencyModel::Uniform { min: 10, max: 60 })
            .with_threads(threads)
    });
    let meta = event_instance(&s.truth, args.lambda, rounds);
    engine.with_ctx(|proto, ctx| {
        let initiator = ctx.nodes.random_id(ctx.rng).expect("population non-empty");
        proto.start_instance(initiator, meta.clone(), ctx)
    });
    let t0 = Instant::now();
    engine.run_until_parallel(period * (rounds + 2));
    let secs = t0.elapsed().as_secs_f64();

    let mut with = 0usize;
    let mut total = 0usize;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, node) in engine.nodes().iter() {
        total += 1;
        let Some(est) = node.estimate() else { continue };
        with += 1;
        for f in est.fractions.iter() {
            h = fnv_mix(h, f.to_bits());
        }
        if let Some(n) = est.n_hat {
            h = fnv_mix(h, n.to_bits());
        }
    }
    h = fnv_mix(h, engine.delivered_count());
    h = fnv_mix(h, engine.lost_count());
    h = fnv_mix(h, engine.net().total_bytes());
    h = fnv_mix(h, engine.net().total_msgs());
    h = fnv_mix(h, engine.protocol().completed_count());
    EventRun {
        secs,
        delivered: engine.delivered_count(),
        coverage: with as f64 / total.max(1) as f64,
        completed: engine.protocol().completed_count(),
        fingerprint: h,
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let check = take_flag(&mut raw, "--check");
    let event_only = take_flag(&mut raw, "--event-only");
    let args = match Args::try_parse(raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_engine: {msg}");
            eprintln!(
                "usage: bench_engine [--nodes N] [--seed S] [--lambda L] [--rounds R] \
                 [--threads T] [--out PATH] [--event-max N] [--event-only] [--check]"
            );
            std::process::exit(if msg == "help requested" { 0 } else { 2 });
        }
    };
    let threads = args.threads();
    let event_max: usize = args.extra_or("event-max", 1_000_000);
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let out = args.extra("out").unwrap_or(default_out).to_string();
    let manifest = RunManifest::new(
        "bench_engine",
        &format!("lambda={} threads={threads}", args.lambda),
        args.seed,
        threads,
    );
    let detected = manifest.detected_cores;

    println!("== bench_engine — engine throughput (cycle + event drivers) ==");
    println!(
        "seed={} lambda={} threads={threads} (detected cores: {detected})",
        args.seed, args.lambda
    );
    println!();

    let config = Adam2Config::new()
        .with_lambda(args.lambda)
        .with_rounds_per_instance(1_000_000);

    let mut report = BenchReport::new(
        "engine_rounds_per_sec",
        &manifest,
        vec![
            ("seed", args.seed.into()),
            ("lambda", args.lambda.into()),
            ("threads", threads.into()),
            ("detected_cores", detected.into()),
        ],
    );
    if !event_only {
        for nodes in [1_000usize, 10_000, 100_000] {
            let rounds = measured_rounds(nodes);
            let s = setup(Attribute::Ram, nodes, args.seed);

            // One instance, spread for 10 rounds so the measured rounds
            // carry payloads. Telemetry only on the T-thread leg, and only
            // when requested: without the flag both legs run with the
            // zero-cost no-op sink.
            let leg = |threads: usize, telemetry: Option<&String>| {
                let mut engine =
                    adam2_engine_with(&s, config, args.seed, |c| c.with_threads(threads));
                maybe_attach_telemetry(&mut engine, telemetry);
                start_instance(&mut engine);
                engine.run_rounds(10);
                let t0 = Instant::now();
                engine.run_rounds(rounds);
                (t0.elapsed().as_secs_f64(), engine)
            };
            let (t1_secs, t1) = timed_leg(|| leg(1, None));
            let (tn_secs, mut tn) = timed_leg(|| leg(threads, args.telemetry.as_ref()));
            if let Some(dir) = &args.telemetry {
                export_telemetry(
                    &mut tn,
                    dir,
                    &format!("n{nodes}"),
                    "bench_engine",
                    &format!("nodes={nodes} lambda={} threads={threads}", args.lambda),
                    args.seed,
                );
            }

            // One path: the thread count must not show in the result.
            let fingerprint = cycle_fingerprint(&t1);
            assert_eq!(
                fingerprint,
                cycle_fingerprint(&tn),
                "1 thread and {threads} threads diverged at n={nodes}"
            );

            let (t1_rate, tn_rate) = (rounds as f64 / t1_secs, rounds as f64 / tn_secs);
            println!(
                "n={nodes:>7}  rounds={rounds:>3}  1 thread {t1_rate:>9.2} r/s  \
                 {threads} threads {tn_rate:>9.2} r/s  speedup {:.2}x  \
                 fingerprint {fingerprint:016x}",
                t1_secs / tn_secs,
            );
            report.row(
                "results",
                vec![
                    ("nodes", nodes.into()),
                    ("rounds", rounds.into()),
                    ("t1_rounds_per_sec", t1_rate.into()),
                    ("tn_rounds_per_sec", tn_rate.into()),
                    ("speedup", (t1_secs / tn_secs).into()),
                    ("fingerprint", format!("{fingerprint:016x}").into()),
                ],
            );
        }
        println!();
    }

    // Part 2: the event-driven engine, one full Adam2 instance per size.
    let period = 1_000u64;
    let event_rounds = args.rounds.max(20);
    for nodes in [10_000usize, 100_000, 1_000_000] {
        if nodes > event_max {
            continue;
        }
        let s = setup(Attribute::Ram, nodes, args.seed);
        let event = |threads| run_event(&s, &args, period, event_rounds, threads);
        let run = event(threads);
        assert!(
            run.coverage >= 0.99,
            "event instance incomplete at n={nodes}: coverage {:.4}",
            run.coverage
        );
        // Read before the `--check` re-run: the allocator keeps the first
        // run's per-thread arenas while the second run, at another thread
        // count, fills different ones, which would add ≈ 1 kB per node to
        // a figure meant to describe one run.
        let peak = peak_rss_bytes().unwrap_or(0);
        if check {
            // Bit-identity across thread counts: re-run with a different
            // worker count and require the exact same fingerprint.
            let other = assert_thread_invariant(
                &format!("event engine at n={nodes}"),
                threads,
                run.fingerprint,
                |other| event(other).fingerprint,
            );
            println!(
                "n={nodes:>8}  check OK: threads {threads} == threads {other} \
                 (fingerprint {:016x})",
                run.fingerprint
            );
        }
        let ticks = period * (event_rounds + 2);
        let (ticks_per_sec, msgs_per_sec) =
            (ticks as f64 / run.secs, run.delivered as f64 / run.secs);
        let rss_per_node = peak as f64 / nodes as f64;
        println!(
            "n={nodes:>8}  ticks={ticks:>6}  {ticks_per_sec:>10.0} ticks/s  {msgs_per_sec:>10.0} \
             msg/s  coverage {:.3}  rss/node {rss_per_node:.0} B  fingerprint {:016x}",
            run.coverage, run.fingerprint,
        );
        report.row(
            "event_results",
            vec![
                ("nodes", nodes.into()),
                ("rounds", event_rounds.into()),
                ("ticks", ticks.into()),
                ("secs", run.secs.into()),
                ("ticks_per_sec", ticks_per_sec.into()),
                ("msgs_per_sec", msgs_per_sec.into()),
                ("coverage", run.coverage.into()),
                ("completed", run.completed.into()),
                ("fingerprint", format!("{:016x}", run.fingerprint).into()),
                ("peak_rss_bytes", peak.into()),
                ("peak_rss_bytes_per_node", rss_per_node.into()),
            ],
        );
    }

    report.write(&out, "bench_engine");
    println!("\nwrote {out}");
}
