//! Everything that spans more than one workload process: the `run` of all
//! seven workloads in child processes, the results file it writes, and
//! `compare` between two such files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use serde::json::{self, Value};

use crate::measure::{self, median, Tracer};
use crate::spec::{self, EndToEnd};
use crate::RunArgs;

pub fn git_rev() -> String {
    adam2_sim::git_revision(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".to_string())
}

/// Prints, per span name, how often it ran, its total time and its self
/// time (duration minus the part its child spans cover), then the share of
/// the process wall time the top-level spans account for.
pub fn print_span_summary(workload: &str, tracer: &Tracer, process_wall_s: f64) {
    let spans = tracer.spans();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    // (count, total, self) by name, in first-seen order.
    let mut by_name: Vec<(&str, u64, u64, u64)> = Vec::new();
    let mut top_level_ns = 0u64;
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        if s.parent.is_none() {
            top_level_ns += dur;
        }
        let own = dur.saturating_sub(child_ns[s.id]);
        match by_name.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += dur;
                e.3 += own;
            }
            None => by_name.push((s.name, 1, dur, own)),
        }
    }
    for (name, count, total, own) in by_name {
        println!(
            "{workload} span {name} count {count} total_s {:.6} self_s {:.6}",
            total as f64 / 1e9,
            own as f64 / 1e9
        );
    }
    println!(
        "{workload} spans_cover {} ratio",
        top_level_ns as f64 / 1e9 / process_wall_s
    );
}

/// What one child process printed.
#[derive(Default)]
struct ChildReport {
    /// `(metric, value, unit)` lines, in print order.
    metrics: Vec<(String, f64, String)>,
    failed_checks: Vec<String>,
    fingerprint: String,
    correct: bool,
}

fn run_child(workload: &str, run: &RunArgs, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &run.scale.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut report = ChildReport::default();
    for line in stdout.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [w, "check", _, "ok", ..] if *w == workload => {}
            [w, "check", name, _, detail @ ..] if *w == workload => {
                report
                    .failed_checks
                    .push(format!("{name} {}", detail.join(" ")));
            }
            [w, "fingerprint", prints @ ..] if *w == workload => {
                report.fingerprint = prints.concat();
            }
            [w, name, value, unit] if *w == workload => {
                if let Ok(value) = value.parse::<f64>() {
                    report
                        .metrics
                        .push((name.to_string(), value, unit.to_string()));
                }
            }
            _ => {}
        }
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    report.correct = result.get("correct").and_then(Value::as_bool) == Some(true);
    Ok(report)
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Runs every workload: `repeat` untraced children with the same seed
/// (whose simulator fingerprints must agree), then one traced child.
pub fn run_all(run: &RunArgs) -> i32 {
    let mut failures: Vec<String> = Vec::new();
    let mut doc = String::new();
    write!(
        doc,
        "{{\n  \"manifest\": {{\"nproc\": {}, \"threads\": {}, \"ulimit_n\": {}, \"git_rev\": {}, \
         \"rustc\": {}, \"seed\": {}, \"seconds\": {}, \"repeat\": {}, \"scale\": {}}},\n  \
         \"workloads\": {{",
        measure::nproc(),
        measure::bench_threads(),
        measure::fd_soft_limit().unwrap_or(0),
        json_string(&git_rev()),
        json_string(&rustc_version()),
        run.seed,
        run.seconds,
        run.repeat,
        run.scale,
    )
    .expect("write to string");

    for (i, w) in spec::WORKLOADS.iter().enumerate() {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut fingerprints: Vec<String> = Vec::new();
        let mut correct = true;
        let mut fail = |what: String| {
            println!("{} FAILED {what}", w.name);
            failures.push(format!("{}: {what}", w.name));
        };
        for _ in 0..run.repeat {
            match run_child(w.name, run, false) {
                Ok(report) => {
                    for m in spec::END_TO_END {
                        match report.metrics.iter().find(|(name, ..)| name == m.name) {
                            Some((_, value, _)) => samples.entry(m.name).or_default().push(*value),
                            None => fail(format!("metric {} missing", m.name)),
                        }
                    }
                    for check in &report.failed_checks {
                        fail(format!("check {check}"));
                    }
                    correct &= report.correct;
                    fingerprints.push(report.fingerprint);
                }
                Err(e) => {
                    correct = false;
                    fail(e);
                }
            }
        }
        if fingerprints.windows(2).any(|p| p[0] != p[1]) {
            correct = false;
            fail(format!(
                "fingerprints differ across repeats: {fingerprints:?}"
            ));
        }
        for m in spec::END_TO_END {
            let Some(v) = samples.get(m.name) else {
                continue;
            };
            let (min, max) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(*x), hi.max(*x))
                });
            println!(
                "{} {} {} {} min {min} max {max} n {}",
                w.name,
                m.name,
                median(v),
                m.unit,
                v.len()
            );
        }

        let mut layers: Vec<(String, f64, String)> = Vec::new();
        let mut trace_overhead = f64::NAN;
        match run_child(w.name, run, true) {
            Ok(report) => {
                for check in &report.failed_checks {
                    fail(format!("traced check {check}"));
                }
                correct &= report.correct;
                if fingerprints
                    .first()
                    .is_some_and(|f| *f != report.fingerprint)
                {
                    correct = false;
                    fail(format!("traced fingerprint {} differs", report.fingerprint));
                }
                let traced_wall = report.metrics.iter().find(|(name, ..)| name == "wall_s");
                if let (Some((_, traced, _)), Some(untraced)) = (traced_wall, samples.get("wall_s"))
                {
                    trace_overhead = traced / median(untraced) - 1.0;
                    println!("{} trace_overhead {trace_overhead} ratio", w.name);
                }
                for (name, value, unit) in report.metrics {
                    if spec::PER_LAYER.iter().any(|m| m.name == name) || name == "spans_cover" {
                        println!("{} {name} {value} {unit}", w.name);
                        layers.push((name, value, unit));
                    }
                }
            }
            Err(e) => {
                correct = false;
                fail(format!("traced run: {e}"));
            }
        }

        let end_to_end: Vec<String> = spec::END_TO_END
            .iter()
            .filter_map(|m| {
                let v = samples.get(m.name)?;
                let list: Vec<String> = v.iter().map(f64::to_string).collect();
                Some(format!(
                    "{}: {{\"unit\": {}, \"samples\": [{}]}}",
                    json_string(m.name),
                    json_string(m.unit),
                    list.join(", ")
                ))
            })
            .collect();
        let per_layer: Vec<String> = layers
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"unit\": {}, \"value\": {value}}}",
                    json_string(name),
                    json_string(unit)
                )
            })
            .collect();
        write!(
            doc,
            "{}\n    {}: {{\"correct\": {correct}, \"fingerprint\": {}, \"trace_overhead\": {}, \
             \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            if i == 0 { "" } else { "," },
            json_string(w.name),
            json_string(fingerprints.first().map_or("", String::as_str)),
            if trace_overhead.is_finite() {
                trace_overhead.to_string()
            } else {
                "null".to_string()
            },
            end_to_end.join(", "),
            per_layer.join(", "),
        )
        .expect("write to string");
    }
    doc.push_str("\n  }\n}\n");

    if let Some(path) = &run.out {
        match std::fs::write(path, &doc) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
        }
    }
    for f in &failures {
        eprintln!("adam2-benchmark: FAILED {f}");
    }
    i32::from(!failures.is_empty())
}

/// The cut points Python's `statistics.quantiles(values, n=4)` returns.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

fn samples_of(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"))
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

#[derive(PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// `b` against baseline `a`: regressed when the median worsened by more
/// than the bound; unresolved when either side's quartile spread is wider
/// than the bound, unless every run of `b` reads better than every run of
/// `a`.
fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if m.lower_is_better { mb - ma } else { ma - mb } / ma;
    let spread = |v: &[f64]| quartiles(v).map_or(0.0, |q| (q[2] - q[0]) / median(v));
    let widest = spread(a).max(spread(b));
    let all_better = if m.lower_is_better {
        b.iter().fold(f64::NEG_INFINITY, |x, y| x.max(*y))
            < a.iter().fold(f64::INFINITY, |x, y| x.min(*y))
    } else {
        b.iter().fold(f64::INFINITY, |x, y| x.min(*y))
            > a.iter().fold(f64::NEG_INFINITY, |x, y| x.max(*y))
    };
    let verdict = if widest > m.bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, widest)
}

fn fingerprint_of(doc: &Value, workload: &str) -> String {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("fingerprint"))
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Prints, per workload and end-to-end metric, both medians with their
/// quartiles, the ratio B/A and the verdict against the metric's bound.
/// Exits non-zero when any metric regressed.
pub fn compare(path_a: &str, path_b: &str) -> i32 {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("adam2-benchmark: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<24} {:>12} {:>25} {:>12} {:>25} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for w in &spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (sa, sb) = (
                samples_of(&a, w.name, m.name),
                samples_of(&b, w.name, m.name),
            );
            if sa.is_empty() || sb.is_empty() {
                println!("{:<14} {:<24} missing from one side", w.name, m.name);
                unresolved += 1;
                continue;
            }
            let (verdict, _, _) = judge(m, &sa, &sb);
            let quart = |v: &[f64]| {
                quartiles(v).map_or("-".to_string(), |q| format!("{:.5e}..{:.5e}", q[0], q[2]))
            };
            println!(
                "{:<14} {:<24} {:>12.5e} {:>25} {:>12.5e} {:>25} {:>8.4} {:>7.2}  {}",
                w.name,
                m.name,
                median(&sa),
                quart(&sa),
                median(&sb),
                quart(&sb),
                median(&sb) / median(&sa),
                m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => {
                        regressed += 1;
                        "regressed"
                    }
                    Verdict::Unresolved => {
                        unresolved += 1;
                        "unresolved"
                    }
                }
            );
        }
        let (fa, fb) = (fingerprint_of(&a, w.name), fingerprint_of(&b, w.name));
        if !fa.is_empty() || !fb.is_empty() {
            println!(
                "{:<14} fingerprint {}",
                w.name,
                if fa == fb { "identical" } else { "DIFFERENT" }
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    i32::from(regressed > 0)
}
