//! The benchmark of the whole Adam2 stack: seven workloads, end-to-end and
//! per-layer metrics, a traced run, and an A/A-checked comparison.
//!
//! ```text
//! adam2-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!                     [--repeat R] [--out FILE] [--scale K]
//! adam2-benchmark compare A.json B.json
//! ```
//!
//! `run --workload W` measures one workload in this process and prints each
//! metric as `workload metric value unit`, then one JSON object as the last
//! line. `run` without `--workload` runs every workload, each repeat in a
//! fresh child process, then one traced child per workload.

mod cycle;
mod deploy;
mod event;
mod measure;
mod outcome;
mod peers;
mod replay;
mod spec;
mod suite;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use measure::Tracer;
use outcome::{Layers, Outcome};
use spec::{Kind, Workload};

/// Node-count divisor of the reference legs (and of the smoke test).
const REFERENCE_DIVISOR: usize = 50;

pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub out: Option<PathBuf>,
    pub scale: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: adam2-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
         [--repeat R] [--out FILE] [--scale K]\n       adam2-benchmark compare A.json B.json\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2)
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        repeat: 3,
        out: None,
        scale: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| parsed.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| parsed.seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    parsed.trace = true;
                    true
                }
                _ => false,
            },
            "--repeat" => value.parse().map(|v| parsed.repeat = v).is_ok() && parsed.repeat > 0,
            "--out" => {
                parsed.out = Some(PathBuf::from(value));
                true
            }
            "--scale" => value.parse().map(|v| parsed.scale = v).is_ok() && parsed.scale > 0,
            _ => false,
        };
        if !ok {
            eprintln!("adam2-benchmark: bad argument {flag} {value}");
            usage();
        }
    }
    parsed
}

fn main() {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run_args(&args[1..]);
            match &run.workload {
                Some(name) => match spec::workload(name) {
                    Some(w) => run_workload(w, &run, epoch),
                    None => {
                        eprintln!("adam2-benchmark: unknown workload {name}");
                        usage()
                    }
                },
                None => suite::run_all(&run),
            }
        }
        Some("compare") if args.len() == 3 => suite::compare(&args[1], &args[2]),
        _ => usage(),
    };
    std::process::exit(code);
}

/// Where traces and fingerprints go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn dispatch(w: &Workload, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    match &w.kind {
        Kind::Cycle(p) => cycle::run(p, seed, seconds, tracer),
        Kind::Event(p) => event::run(p, seed, tracer),
        Kind::Deploy(p) => deploy::run(p, seed, tracer),
    }
}

fn replay_shape(w: &Workload) -> replay::Shape {
    let base = replay::Shape {
        nodes: 0,
        verify_points: 0,
        shuffle_degree: None,
        latency: (10, 60),
        period: 1000,
    };
    match w.kind {
        Kind::Cycle(p) => replay::Shape {
            nodes: p.nodes,
            verify_points: p.verify_points,
            shuffle_degree: p.shuffle_degree,
            ..base
        },
        Kind::Event(p) => replay::Shape {
            nodes: p.nodes,
            latency: p.latency,
            period: p.period,
            ..base
        },
        Kind::Deploy(p) => replay::Shape {
            nodes: p.nodes,
            ..base
        },
    }
}

/// Every traced run reports every layer. The two engine families `w` does
/// not execute run here as reference legs: `cycle_oracle`, `event_async`
/// and `deploy_clean` at 1/50 of their nodes, traced and checked like the
/// workload itself. Their values fill only the metrics `w` left unset.
fn reference_legs(w: &Workload, seed: u64, out: &mut Outcome, tracer: &mut Tracer) {
    let family = std::mem::discriminant(&w.kind);
    for name in ["cycle_oracle", "event_async", "deploy_clean"] {
        let leg = spec::workload(name).expect("reference workload exists");
        if std::mem::discriminant(&leg.kind) == family {
            continue;
        }
        let label = match leg.kind {
            Kind::Cycle(_) => "reference.cycle",
            Kind::Event(_) => "reference.event",
            Kind::Deploy(_) => "reference.deploy",
        };
        let span = tracer.begin(label);
        let mut leg_tracer = Tracer::new(true, Instant::now());
        let result = dispatch(&leg.scaled(REFERENCE_DIVISOR), seed, 0.0, &mut leg_tracer);
        tracer.end(span);
        out.check(
            label,
            result.correct(),
            result
                .checks
                .iter()
                .filter(|c| !c.ok)
                .map(|c| format!("{}: {}", c.name, c.detail))
                .collect::<Vec<_>>()
                .join("; "),
        );
        out.layers.fill_missing(result.layers);
    }
}

/// Identifies this build of the benchmark by its executable's size and
/// modification time, so that fingerprints are only ever compared between
/// runs of the same binary.
fn build_id() -> u64 {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let modified = meta
        .as_ref()
        .ok()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos() as u64);
    measure::mix(modified, meta.map_or(0, |m| m.len()))
}

/// Compares this run's per-instance fingerprints with those an earlier run
/// of the same build, workload, seed and scale left in `out/`, and records
/// the longer list. The simulators promise bit-identical replay, so any
/// difference on the common prefix is a failed check.
fn check_against_earlier_runs(w: &Workload, run: &RunArgs, out: &mut Outcome) {
    if out.fingerprints.is_empty() {
        return;
    }
    let path = out_dir().join(format!(
        "fingerprint_{}_seed{}_scale{}_{:016x}.txt",
        w.name,
        run.seed,
        run.scale,
        build_id()
    ));
    let earlier: Vec<u64> = std::fs::read_to_string(&path)
        .map(|text| {
            text.lines()
                .filter_map(|l| u64::from_str_radix(l.trim(), 16).ok())
                .collect()
        })
        .unwrap_or_default();
    let common = earlier.len().min(out.fingerprints.len());
    let same = earlier[..common] == out.fingerprints[..common];
    out.check(
        "identical_across_runs",
        same,
        format!("{common} instance(s) compared with {}", path.display()),
    );
    if same && out.fingerprints.len() > earlier.len() {
        let text: String = out
            .fingerprints
            .iter()
            .map(|f| format!("{f:016x}\n"))
            .collect();
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&tmp, text))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            eprintln!("adam2-benchmark: cannot record {}: {e}", path.display());
        }
    }
}

/// Measures one workload in this process. Returns the exit code: 0 once a
/// result line was printed, whatever it says.
fn run_workload(w: Workload, run: &RunArgs, epoch: Instant) -> i32 {
    // The watchdog turns a hang into a failure the caller can see.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(spec::HARD_TIMEOUT_S));
        eprintln!(
            "adam2-benchmark: workload exceeded {} s, giving up",
            spec::HARD_TIMEOUT_S
        );
        std::process::exit(3);
    });
    let w = w.scaled(run.scale);
    eprintln!(
        "adam2-benchmark: {} seed={} seconds={} trace={} scale={} threads={} nproc={} \
         ulimit_n={} rev={} {}",
        w.name,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.scale,
        measure::bench_threads(),
        measure::nproc(),
        measure::fd_soft_limit().unwrap_or(0),
        suite::git_rev(),
        suite::rustc_version(),
    );

    let mut tracer = Tracer::new(run.trace, epoch);
    let mut out = dispatch(&w, run.seed, run.seconds, &mut tracer);
    if run.trace {
        let top = tracer.begin("replay");
        out.layers
            .fill_missing(replay::run(&replay_shape(&w), run.seed));
        tracer.end(top);
        let top = tracer.begin("reference");
        reference_legs(&w, run.seed, &mut out, &mut tracer);
        tracer.end(top);
    }
    check_against_earlier_runs(&w, run, &mut out);

    // In the order of `spec::END_TO_END`.
    let values = [
        measure::median(&out.setup_s),
        out.wall_s(),
        out.exchanges_per_s(),
        out.cpu_s(),
        out.peak_rss_mb,
        out.wire_bytes_per_exchange(),
    ];
    let end_to_end = spec::END_TO_END.len();
    assert_eq!(values.len(), end_to_end, "one value per end-to-end metric");
    let mut metrics: Vec<(&str, f64, &str)> = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    if run.trace {
        out.layers.set("core.metrics.err_a", out.err_a);
        metrics.extend(layer_values(&mut out));
    }
    for (name, value, _) in &mut metrics {
        if !value.is_finite() {
            out.check("finite_metrics", false, format!("{name} is {value}"));
            *value = 0.0;
        }
    }

    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", w.name);
    }
    for (i, u) in out.units.iter().enumerate() {
        println!(
            "{} instance {i} wall_s {} cpu_s {} exchanges {} bytes {}",
            w.name, u.wall_s, u.cpu_s, u.exchanges, u.bytes
        );
    }
    for c in &out.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("{} check {} {verdict} {}", w.name, c.name, c.detail);
    }
    let prints: Vec<String> = out
        .fingerprints
        .iter()
        .map(|f| format!("{f:016x}"))
        .collect();
    println!("{} fingerprint {}", w.name, prints.join(","));

    if run.trace {
        let path = out_dir().join(format!("trace_{}.jsonl", w.name));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl(w.name)));
        match written {
            Ok(()) => suite::print_span_summary(w.name, &tracer, epoch.elapsed().as_secs_f64()),
            Err(e) => eprintln!("adam2-benchmark: cannot write {}: {e}", path.display()),
        }
    }

    // A failed check fails the workload: all its operations count as failed.
    let correct = out.correct();
    let failed = if correct { 0 } else { out.attempted.max(1) };
    let reported = if run.trace {
        &metrics[end_to_end..]
    } else {
        &metrics[..end_to_end]
    };
    let body: Vec<String> = reported
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        body.join(", ")
    );
    0
}

/// The per-layer table filled from what the traced run gathered. A name
/// the run did not produce, or produced without it being in the table, is
/// a bug in the benchmark and fails the run.
fn layer_values(out: &mut Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let layers: Layers = std::mem::take(&mut out.layers);
    let unknown: Vec<&str> = layers
        .names()
        .filter(|n| !spec::PER_LAYER.iter().any(|m| m.name == *n))
        .collect();
    out.check(
        "layer_table_complete",
        unknown.is_empty(),
        unknown.join(" "),
    );
    spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = layers.get(m.name).unwrap_or_else(|| {
                out.check("layer_measured", false, m.name.to_string());
                0.0
            });
            (m.name, value, m.unit)
        })
        .collect()
}
