//! Every workload at 1/50 size finishes, passes its checks and prints
//! exactly the metrics `BENCHMARK.json` names, untraced and traced.

use std::process::Command;

use serde::json::{self, Value};

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is not a string"))
}

/// `(name, unit)` of every entry of a metric list.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    field(spec, list)
        .as_array()
        .expect("metric list is an array")
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one workload at 1/50 size and returns the object on its last line.
fn run(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_adam2-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--scale", "50"])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    // The strict parser rejects duplicate keys, so a metric printed twice
    // fails here.
    let result = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    let keys: Vec<&str> = result
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        field(&result, "correct").as_bool(),
        Some(true),
        "{workload} --trace {trace} failed a check:\n{stdout}"
    );
    assert!(field(&result, "attempted").as_u64().expect("attempted") >= 1);
    assert_eq!(field(&result, "failed").as_u64(), Some(0));
    result
}

fn assert_metrics(workload: &str, result: &Value, expected: &[(String, String)]) {
    let metrics = field(result, "metrics")
        .as_object()
        .expect("metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(printed, names, "{workload} metric names");
    for ((name, unit), (_, metric)) in expected.iter().zip(metrics) {
        assert_eq!(text(metric, "unit"), unit, "{workload} unit of {name}");
        let value = field(metric, "value").as_f64().expect("numeric value");
        assert!(value.is_finite(), "{workload} {name} = {value}");
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let spec = json::parse(&std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses strictly");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let workloads = declared_workloads(&spec);
    assert_eq!(workloads.len(), 7);
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let mut all: Vec<&str> = end_to_end
        .iter()
        .chain(&per_layer)
        .map(|(n, _)| n.as_str())
        .chain(workloads.iter().map(String::as_str))
        .collect();
    for name in &all {
        assert!(valid_name(name), "name {name:?}");
    }
    all.sort_unstable();
    assert!(all.windows(2).all(|w| w[0] != w[1]), "a name is used twice");

    for w in &workloads {
        let untraced = run(w, "0");
        assert_metrics(w, &untraced, &end_to_end);
        for (name, metric) in field(&untraced, "metrics").as_object().expect("metrics") {
            let value = field(metric, "value").as_f64().expect("numeric value");
            assert!(value > 0.0, "{w} end-to-end metric {name} is {value}");
        }
        let traced = run(w, "1");
        assert_metrics(w, &traced, &per_layer);
    }
}

fn declared_workloads(spec: &Value) -> Vec<String> {
    field(spec, "workloads")
        .as_array()
        .expect("workloads is an array")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect()
}
