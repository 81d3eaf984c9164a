//! Validates telemetry export directories against the documented schema.
//!
//! Usage: `telemetry_check DIR...` where each `DIR` either contains a
//! single export (`manifest.json`, `rounds.jsonl`, `rounds.csv`,
//! `events.jsonl`) or is a parent whose subdirectories are exports (the
//! layout `--telemetry DIR` produces for multi-scenario binaries).
//!
//! `telemetry_check --bench FILE...` instead validates benchmark result
//! files (`BENCH_*.json`) with [`BenchReport::validate`], against the
//! layout their `benchmark` field names in [`adam2_bench::BENCH_LAYOUTS`].
//!
//! Every record must carry exactly the documented fields — unknown and
//! missing fields both fail — with the documented types, and every event
//! `kind` must be one of the known wire names (see DESIGN.md's telemetry
//! section). CI runs this against a faulted smoke run so schema drift in
//! either the exporter or the docs breaks the build.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use adam2_bench::{check_fields, check_manifest, take_flag, BenchReport, Field, Ty};
use adam2_sim::json::{self, Value};

/// `rounds.jsonl` / `rounds.csv` schema: the 22 per-round fields.
const ROUND_FIELDS: &[Field] = &[
    ("round", Ty::Uint),
    ("live_nodes", Ty::Uint),
    ("err_max", Ty::Num),
    ("err_avg", Ty::Num),
    ("mass_weight_defect", Ty::Num),
    ("mass_fraction_defect", Ty::Num),
    ("round_bytes", Ty::Uint),
    ("round_msgs", Ty::Uint),
    ("exchanges", Ty::Uint),
    ("repairs", Ty::Uint),
    ("aborts", Ty::Uint),
    ("faults", Ty::Uint),
    ("crashes", Ty::Uint),
    ("recoveries", Ty::Uint),
    ("joins", Ty::Uint),
    ("leaves", Ty::Uint),
    ("heal_bumps", Ty::Uint),
    ("bootstraps", Ty::Uint),
    ("robust_rejects", Ty::Uint),
    ("robust_trims", Ty::Uint),
    ("inflight_exchanges", Ty::Uint),
    ("queue_depth_max", Ty::Uint),
];

/// `events.jsonl` schema.
const EVENT_FIELDS: &[Field] = &[
    ("round", Ty::Uint),
    ("slot", Ty::Uint),
    ("instance", Ty::Uint),
    ("kind", Ty::Str),
    ("detail", Ty::Uint),
];

/// Known event wire names.
const EVENT_KINDS: &[&str] = &[
    "exchange_started",
    "exchange_repaired",
    "exchange_aborted",
    "fault_loss",
    "fault_partition",
    "fault_crash",
    "fault_recovery",
    "self_heal_bump",
    "churn_join",
    "churn_leave",
    "instance_started",
];

/// Parses one JSON document with the workspace's strict parser (duplicate
/// keys, truncated input and trailing content are all errors).
fn parse(text: &str) -> Result<Value, String> {
    json::parse(text).map_err(|e| e.to_string())
}

fn check_event(obj: &Value) -> Result<(), String> {
    check_fields(obj, EVENT_FIELDS)?;
    match obj.get("kind") {
        Some(Value::String(kind)) if EVENT_KINDS.contains(&kind.as_str()) => Ok(()),
        Some(Value::String(kind)) => Err(format!("unknown event kind '{kind}'")),
        _ => unreachable!("check_fields enforces kind is a string"),
    }
}

/// The documented CSV header, derived from the same field list the JSONL
/// check uses so the two cannot drift apart.
fn expected_csv_header() -> String {
    ROUND_FIELDS
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(",")
}

/// Validates one export directory; returns its round and event counts.
fn validate_export(dir: &Path) -> Result<String, String> {
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("{}: {e}", dir.join(name).display()))
    };

    let manifest = parse(&read("manifest.json")?).map_err(|e| format!("manifest.json: {e}"))?;
    check_manifest(&manifest).map_err(|e| format!("manifest.json: {e}"))?;

    let rounds_text = read("rounds.jsonl")?;
    let mut rounds = 0usize;
    for (i, line) in rounds_text.lines().enumerate() {
        let obj = parse(line).map_err(|e| format!("rounds.jsonl line {}: {e}", i + 1))?;
        check_fields(&obj, ROUND_FIELDS)
            .map_err(|e| format!("rounds.jsonl line {}: {e}", i + 1))?;
        rounds += 1;
    }

    let csv_text = read("rounds.csv")?;
    let mut csv_lines = csv_text.lines();
    let header = csv_lines.next().unwrap_or_default();
    if header != expected_csv_header() {
        return Err(format!(
            "rounds.csv: header mismatch\n  expected: {}\n  found:    {header}",
            expected_csv_header()
        ));
    }
    let csv_rows = csv_lines.count();
    if csv_rows != rounds {
        return Err(format!(
            "rounds.csv has {csv_rows} rows but rounds.jsonl has {rounds} records"
        ));
    }

    let events_text = read("events.jsonl")?;
    let mut events = 0usize;
    for (i, line) in events_text.lines().enumerate() {
        let obj = parse(line).map_err(|e| format!("events.jsonl line {}: {e}", i + 1))?;
        check_event(&obj).map_err(|e| format!("events.jsonl line {}: {e}", i + 1))?;
        events += 1;
    }

    Ok(format!("{rounds} rounds, {events} events"))
}

/// Validates one benchmark result file (`--bench` mode); returns its row
/// count as a summary.
fn validate_bench(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    BenchReport::validate(&parse(&text)?).map(|rows| format!("{rows} results"))
}

/// Expands an argument directory into export directories: itself when it
/// holds `rounds.jsonl` directly, otherwise its matching subdirectories.
fn collect_exports(dir: &Path) -> Result<Vec<PathBuf>, String> {
    if dir.join("rounds.jsonl").is_file() {
        return Ok(vec![dir.to_path_buf()]);
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut exports: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("rounds.jsonl").is_file())
        .collect();
    exports.sort();
    if exports.is_empty() {
        return Err(format!(
            "{}: no telemetry exports found (no rounds.jsonl here or in subdirectories)",
            dir.display()
        ));
    }
    Ok(exports)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench_mode = take_flag(&mut args, "--bench");
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: telemetry_check DIR...");
        eprintln!("       telemetry_check --bench FILE...");
        eprintln!("validates telemetry exports (manifest.json, rounds.jsonl/.csv, events.jsonl)");
        eprintln!("or, with --bench, benchmark result files (BENCH_*.json)");
        return if args.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let mut failed = false;
    for arg in &args {
        let targets = if bench_mode {
            Ok(vec![PathBuf::from(arg)])
        } else {
            collect_exports(Path::new(arg))
        };
        let targets = match targets {
            Ok(found) => found,
            Err(e) => {
                eprintln!("telemetry_check: {e}");
                failed = true;
                continue;
            }
        };
        for target in targets {
            let checked = if bench_mode {
                validate_bench(&target)
            } else {
                validate_export(&target)
            };
            match checked {
                Ok(summary) => println!("ok: {} ({summary})", target.display()),
                Err(e) => {
                    eprintln!("FAIL: {}: {e}", target.display());
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let obj = parse(r#"{"a":1,"b":2.5,"c":"x","d":null}"#).unwrap();
        assert_eq!(obj.get("a"), Some(&Value::Uint(1)));
        assert_eq!(obj.get("b"), Some(&Value::Number(2.5)));
        assert_eq!(obj.get("c"), Some(&Value::String("x".into())));
        assert_eq!(obj.get("d"), Some(&Value::Null));
        // Pretty-printed (manifest.json style) parses too.
        let pretty = parse("{\n  \"seed\": 42,\n  \"experiment\": \"t\"\n}").unwrap();
        assert_eq!(pretty.get("seed"), Some(&Value::Uint(42)));
        assert!(parse(r#"{"a":1"#).is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
    }

    fn valid_round_line() -> String {
        let fields: Vec<String> = ROUND_FIELDS
            .iter()
            .map(|(name, ty)| match ty {
                Ty::Num => format!("\"{name}\":null"),
                _ => format!("\"{name}\":0"),
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    #[test]
    fn round_schema_catches_unknown_and_missing_fields() {
        let good = parse(&valid_round_line()).unwrap();
        check_fields(&good, ROUND_FIELDS).unwrap();

        let unknown = valid_round_line().replace("\"bootstraps\":0", "\"bootstrapz\":0");
        let err = check_fields(&parse(&unknown).unwrap(), ROUND_FIELDS).unwrap_err();
        assert!(err.contains("unknown field 'bootstrapz'"), "{err}");

        let missing = valid_round_line().replace(",\"bootstraps\":0", "");
        let err = check_fields(&parse(&missing).unwrap(), ROUND_FIELDS).unwrap_err();
        assert!(err.contains("missing field 'bootstraps'"), "{err}");

        let wrong_type = valid_round_line().replace("\"round\":0", "\"round\":null");
        let err = check_fields(&parse(&wrong_type).unwrap(), ROUND_FIELDS).unwrap_err();
        assert!(err.contains("field 'round'"), "{err}");

        // A nested value where a scalar is required is a type error, and
        // so is a record that is not an object at all.
        let nested = valid_round_line().replace("\"round\":0", "\"round\":[0]");
        let err = check_fields(&parse(&nested).unwrap(), ROUND_FIELDS).unwrap_err();
        assert!(err.contains("field 'round'"), "{err}");
        let err = check_fields(&parse("[1]").unwrap(), ROUND_FIELDS).unwrap_err();
        assert!(err.contains("expected an object"), "{err}");
    }

    #[test]
    fn event_schema_requires_known_kind() {
        let good =
            parse(r#"{"round":3,"slot":7,"instance":9,"kind":"exchange_repaired","detail":1}"#)
                .unwrap();
        check_event(&good).unwrap();
        let bad =
            parse(r#"{"round":3,"slot":7,"instance":9,"kind":"made_up","detail":1}"#).unwrap();
        assert!(check_event(&bad)
            .unwrap_err()
            .contains("unknown event kind"));
    }

    #[test]
    fn manifest_schema_pins_version() {
        let good = parse(
            r#"{"schema_version":1,"experiment":"t","config_hash":5,"seed":1,"threads":2,"detected_cores":4,"git_rev":"abc","dirty":false}"#,
        )
        .unwrap();
        check_manifest(&good).unwrap();
        let v2 = parse(
            r#"{"schema_version":2,"experiment":"t","config_hash":5,"seed":1,"threads":2,"detected_cores":4,"git_rev":"abc","dirty":false}"#,
        )
        .unwrap();
        assert!(check_manifest(&v2).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn csv_header_tracks_round_fields() {
        assert_eq!(expected_csv_header().split(',').count(), ROUND_FIELDS.len());
        assert_eq!(ROUND_FIELDS.len(), 22);
    }
}
