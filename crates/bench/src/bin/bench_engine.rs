//! Cycle-engine throughput at one thread and at `T`, plus the event-engine
//! scaling curve.
//!
//! Part 1 measures `Engine::run_round` at 1 thread (the slot-order loop)
//! against `T` threads (the same plan as a coloured schedule) on an Adam2
//! simulation with one spread λ=50 instance, for N ∈ {1k, 10k, 100k}, and
//! fails unless both legs end in the same fingerprint. Part 2 runs a full
//! Adam2 instance on the event-driven engine
//! (`EventEngine::run_until_parallel`) for N ∈ {10k, 100k, 1M}, reporting
//! simulated ticks/sec, delivered
//! messages/sec, instance coverage, and peak-RSS bytes per node (VmHWM
//! from `/proc/self/status`; the process high-water mark is monotone, so
//! the per-node figure is exact at the largest size and an upper bound
//! below it). Results are written as JSON to `BENCH_engine.json` at the
//! repository root (override with `--out PATH`).
//!
//! Extra flags: `--threads T` (worker threads, default 0 = auto),
//! `--out PATH`, `--event-max N` (largest event-engine size, default 1M),
//! `--event-only` (skip the cycle-driven comparison), `--check` (re-run
//! each event size at a different thread count and fail unless the result
//! fingerprint is bit-identical). The standard `--seed` / `--lambda` /
//! `--rounds` flags also apply.

use std::sync::Arc;
use std::time::Instant;

use adam2_bench::{
    adam2_engine_with, export_telemetry, maybe_attach_telemetry, setup, start_instance, Args,
    ExperimentSetup,
};
use adam2_core::{
    uniform_points, Adam2Config, Adam2Protocol, AsyncAdam2, InstanceId, InstanceMeta,
};
use adam2_sim::{Engine, EventConfig, EventEngine, LatencyModel, RunManifest};
use adam2_traces::Attribute;

struct SizeResult {
    nodes: usize,
    rounds: u64,
    t1_rounds_per_sec: f64,
    tn_rounds_per_sec: f64,
    speedup: f64,
    fingerprint: u64,
}

struct EventResult {
    nodes: usize,
    rounds: u64,
    ticks: u64,
    secs: f64,
    ticks_per_sec: f64,
    msgs_per_sec: f64,
    coverage: f64,
    completed: u64,
    peak_rss_bytes: u64,
    peak_rss_bytes_per_node: f64,
}

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

/// FNV-1a over the little-endian bytes of `v`, folded into `h`.
fn mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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
                h = mix(h, f.to_bits());
            }
            h = mix(h, inst.weight.to_bits());
        }
    }
    h = mix(h, engine.net().total_bytes());
    mix(h, engine.net().total_msgs())
}

/// Runs one full Adam2 instance on the event engine and reduces it to
/// throughput numbers and a bit-exact fingerprint.
fn run_event(
    s: &ExperimentSetup,
    nodes: usize,
    seed: u64,
    lambda: usize,
    period: u64,
    rounds: u64,
    threads: usize,
) -> EventRun {
    let proto = AsyncAdam2::with_population(period, s.population.values().to_vec(), {
        let pop = s.population.clone();
        move |rng| pop.draw_fresh(rng)
    });
    let config = EventConfig::new(nodes, seed)
        .with_gossip_period(period)
        .with_latency(LatencyModel::Uniform { min: 10, max: 60 })
        .with_threads(threads);
    let mut engine = EventEngine::new(config, proto);
    let thresholds = uniform_points(s.truth.min(), s.truth.max(), lambda);
    let meta = Arc::new(InstanceMeta {
        id: InstanceId::derive(0, 0, 1),
        thresholds: thresholds.into(),
        verify_thresholds: Vec::new().into(),
        start_round: 0,
        end_round: rounds,
        multi: false,
    });
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
            h = mix(h, f.to_bits());
        }
        if let Some(n) = est.n_hat {
            h = mix(h, n.to_bits());
        }
    }
    h = mix(h, engine.delivered_count());
    h = mix(h, engine.lost_count());
    h = mix(h, engine.net().total_bytes());
    h = mix(h, engine.net().total_msgs());
    h = mix(h, engine.protocol().completed_count());
    EventRun {
        secs,
        delivered: engine.delivered_count(),
        coverage: with as f64 / total.max(1) as f64,
        completed: engine.protocol().completed_count(),
        fingerprint: h,
    }
}

/// Removes every occurrence of the valueless flag `name`, reporting
/// whether it was present.
fn take_flag(raw: &mut Vec<String>, name: &str) -> bool {
    let before = raw.len();
    raw.retain(|a| a != name);
    raw.len() != before
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
    let threads: usize = args
        .extra_parsed("threads")
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(0);
    let event_max: usize = args
        .extra_parsed("event-max")
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(1_000_000);
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let out = args.extra("out").unwrap_or(default_out).to_string();
    let detected = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let effective_threads = if threads == 0 { detected } else { threads };

    println!("== bench_engine — engine throughput (cycle + event drivers) ==");
    println!(
        "seed={} lambda={} threads={} (detected cores: {})",
        args.seed, args.lambda, effective_threads, detected
    );
    println!();

    let config = Adam2Config::new()
        .with_lambda(args.lambda)
        .with_rounds_per_instance(1_000_000);

    let mut results = Vec::new();
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
            let (t1_secs, t1) = leg(1, None);
            let (tn_secs, mut tn) = leg(threads, args.telemetry.as_ref());
            if let Some(dir) = &args.telemetry {
                export_telemetry(
                    &mut tn,
                    dir,
                    &format!("n{nodes}"),
                    "bench_engine",
                    &format!(
                        "nodes={nodes} lambda={} threads={effective_threads}",
                        args.lambda
                    ),
                    args.seed,
                );
            }

            // One path: the thread count must not show in the result.
            let fingerprint = cycle_fingerprint(&t1);
            assert_eq!(
                fingerprint,
                cycle_fingerprint(&tn),
                "1 thread and {effective_threads} threads diverged at n={nodes}"
            );

            let r = SizeResult {
                nodes,
                rounds,
                t1_rounds_per_sec: rounds as f64 / t1_secs,
                tn_rounds_per_sec: rounds as f64 / tn_secs,
                speedup: t1_secs / tn_secs,
                fingerprint,
            };
            println!(
                "n={:>7}  rounds={:>3}  1 thread {:>9.2} r/s  {} threads {:>9.2} r/s  \
                 speedup {:.2}x  fingerprint {:016x}",
                r.nodes,
                r.rounds,
                r.t1_rounds_per_sec,
                effective_threads,
                r.tn_rounds_per_sec,
                r.speedup,
                r.fingerprint
            );
            results.push(r);
        }
        println!();
    }

    // Part 2: the event-driven engine, one full Adam2 instance per size.
    let period = 1_000u64;
    let event_rounds = args.rounds.max(20);
    let mut event_results: Vec<EventResult> = Vec::new();
    for nodes in [10_000usize, 100_000, 1_000_000] {
        if nodes > event_max {
            continue;
        }
        let s = setup(Attribute::Ram, nodes, args.seed);
        let run = run_event(
            &s,
            nodes,
            args.seed,
            args.lambda,
            period,
            event_rounds,
            effective_threads,
        );
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
            let other = if effective_threads == 2 { 1 } else { 2 };
            let rerun = run_event(
                &s,
                nodes,
                args.seed,
                args.lambda,
                period,
                event_rounds,
                other,
            );
            assert_eq!(
                run.fingerprint, rerun.fingerprint,
                "event engine not bit-identical at n={nodes} (threads {effective_threads} vs {other})"
            );
            println!(
                "n={nodes:>8}  check OK: threads {effective_threads} == threads {other} \
                 (fingerprint {:016x})",
                run.fingerprint
            );
        }
        let ticks = period * (event_rounds + 2);
        let r = EventResult {
            nodes,
            rounds: event_rounds,
            ticks,
            secs: run.secs,
            ticks_per_sec: ticks as f64 / run.secs,
            msgs_per_sec: run.delivered as f64 / run.secs,
            coverage: run.coverage,
            completed: run.completed,
            peak_rss_bytes: peak,
            peak_rss_bytes_per_node: peak as f64 / nodes as f64,
        };
        println!(
            "n={:>8}  ticks={:>6}  {:>10.0} ticks/s  {:>10.0} msg/s  coverage {:.3}  \
             rss/node {:.0} B",
            r.nodes,
            r.ticks,
            r.ticks_per_sec,
            r.msgs_per_sec,
            r.coverage,
            r.peak_rss_bytes_per_node
        );
        event_results.push(r);
    }

    let manifest = RunManifest::new(
        "bench_engine",
        &format!("lambda={} threads={effective_threads}", args.lambda),
        args.seed,
        effective_threads,
    );
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"engine_rounds_per_sec\",\n");
    json.push_str(&format!("  \"manifest\": {},\n", manifest.to_inline_json()));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!("  \"lambda\": {},\n", args.lambda));
    json.push_str(&format!("  \"threads\": {effective_threads},\n"));
    json.push_str(&format!("  \"detected_cores\": {detected},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"nodes\": {}, \"rounds\": {}, \"t1_rounds_per_sec\": {:.4}, \
             \"tn_rounds_per_sec\": {:.4}, \"speedup\": {:.4}, \
             \"fingerprint\": \"{:016x}\"}}{}\n",
            r.nodes,
            r.rounds,
            r.t1_rounds_per_sec,
            r.tn_rounds_per_sec,
            r.speedup,
            r.fingerprint,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"event_results\": [\n");
    for (i, r) in event_results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"nodes\": {}, \"rounds\": {}, \"ticks\": {}, \"secs\": {:.4}, \
             \"ticks_per_sec\": {:.2}, \"msgs_per_sec\": {:.2}, \"coverage\": {:.4}, \
             \"completed\": {}, \"peak_rss_bytes\": {}, \"peak_rss_bytes_per_node\": {:.1}}}{}\n",
            r.nodes,
            r.rounds,
            r.ticks,
            r.secs,
            r.ticks_per_sec,
            r.msgs_per_sec,
            r.coverage,
            r.completed,
            r.peak_rss_bytes,
            r.peak_rss_bytes_per_node,
            if i + 1 < event_results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("bench_engine: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
