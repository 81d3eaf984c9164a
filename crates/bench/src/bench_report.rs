//! Benchmark result files (`BENCH_*.json`): one layout table, one writer,
//! one validator.
//!
//! Every `bench_*` binary writes its results through [`BenchReport`], and
//! `telemetry_check --bench` checks a file with [`BenchReport::validate`].
//! Both read [`BENCH_LAYOUTS`], which gives each benchmark's scalar params
//! and tables with their columns in file order. Nothing here reads a
//! committed file, so a verdict does not depend on the checkout a binary
//! was built in.

use adam2_sim::json::Value;
use adam2_sim::{RunManifest, MANIFEST_SCHEMA_VERSION};

/// The type of one field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ty {
    /// Non-negative integer.
    Uint,
    /// Number, or `null` for a non-finite or unmeasured one.
    Num,
    /// String.
    Str,
    /// Boolean.
    Bool,
    /// Object with exactly these fields.
    Obj(&'static [Field]),
    /// Array of objects, each with exactly these fields (a table).
    Rows(&'static [Field]),
}

/// A field name and its type.
pub type Field = (&'static str, Ty);

/// One table of a result file: an array of rows.
#[derive(Debug)]
pub struct TableLayout {
    /// The table's key in the file.
    pub name: &'static str,
    /// Columns in file order.
    pub columns: &'static [Field],
    /// What the rows must hold.
    pub rule: Rule,
}

/// What a table's rows must hold.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// Nothing: the table may be empty.
    Optional,
    /// At least one row.
    Required,
    /// `(column, values)`: each value in that column of some row.
    Covers(&'static str, &'static [&'static str]),
}

/// The layout of one benchmark's result file: `benchmark`, `manifest`,
/// the params, then the tables.
#[derive(Debug)]
pub struct BenchLayout {
    /// The file's `benchmark` value.
    pub benchmark: &'static str,
    /// Scalar params, in file order.
    pub params: &'static [Field],
    /// Tables, in file order.
    pub tables: &'static [TableLayout],
}

use Ty::{Bool, Num, Str, Uint};

/// The run manifest every result file and telemetry export carries.
pub const MANIFEST_FIELDS: &[Field] = &[
    ("schema_version", Uint),
    ("experiment", Str),
    ("config_hash", Uint),
    ("seed", Uint),
    ("threads", Uint),
    ("detected_cores", Uint),
    ("git_rev", Str),
    ("dirty", Bool),
];

/// The layout of every benchmark result file.
pub const BENCH_LAYOUTS: &[BenchLayout] = &[
    BenchLayout {
        benchmark: "engine_rounds_per_sec",
        params: &[
            ("seed", Uint),
            ("lambda", Uint),
            ("threads", Uint),
            ("detected_cores", Uint),
        ],
        tables: &[
            TableLayout {
                name: "results",
                columns: &[
                    ("nodes", Uint),
                    ("rounds", Uint),
                    ("t1_rounds_per_sec", Num),
                    ("tn_rounds_per_sec", Num),
                    ("speedup", Num),
                    ("fingerprint", Str),
                ],
                // `--event-only` skips the cycle-engine rows.
                rule: Rule::Optional,
            },
            TableLayout {
                name: "event_results",
                columns: &[
                    ("nodes", Uint),
                    ("rounds", Uint),
                    ("ticks", Uint),
                    ("secs", Num),
                    ("ticks_per_sec", Num),
                    ("msgs_per_sec", Num),
                    ("coverage", Num),
                    ("completed", Uint),
                    ("fingerprint", Str),
                    ("peak_rss_bytes", Uint),
                    ("peak_rss_bytes_per_node", Num),
                ],
                rule: Rule::Required,
            },
        ],
    },
    BenchLayout {
        benchmark: "fault_matrix",
        params: &[
            ("nodes", Uint),
            ("seed", Uint),
            ("lambda", Uint),
            ("rounds", Uint),
        ],
        tables: &[TableLayout {
            name: "results",
            columns: &[
                ("scenario", Str),
                ("repair", Bool),
                ("self_heal", Bool),
                ("err_a", Num),
                ("err_m", Num),
                ("weight_drift", Num),
                ("fraction_drift", Num),
                ("peers_without_estimate", Uint),
                ("healed", Uint),
                ("bootstraps", Uint),
            ],
            rule: Rule::Required,
        }],
    },
    BenchLayout {
        benchmark: "byzantine_resilience",
        params: &[
            ("nodes", Uint),
            ("seed", Uint),
            ("lambda", Uint),
            ("rounds", Uint),
            ("magnitude", Num),
            ("inflation", Num),
            ("detected_cores", Uint),
        ],
        tables: &[TableLayout {
            name: "results",
            columns: &[
                ("engine", Str),
                ("model", Str),
                ("fraction", Num),
                ("robust", Bool),
                ("err_a", Num),
                ("err_m", Num),
                ("n_hat_rel_err", Num),
                ("honest_without_estimate", Uint),
                ("byzantine", Uint),
                ("robust_rejects", Uint),
                ("robust_trims", Uint),
                ("fingerprint", Uint),
            ],
            rule: Rule::Covers("engine", &["cycle", "event"]),
        }],
    },
    BenchLayout {
        benchmark: "deploy_runtime",
        params: &[
            ("nodes", Uint),
            ("seed", Uint),
            ("lambda", Uint),
            ("rounds", Uint),
            ("tick_ms", Uint),
            ("simulator", Ty::Obj(&[("err_a", Num), ("err_m", Num)])),
        ],
        tables: &[
            TableLayout {
                name: "results",
                columns: &[
                    ("scenario", Str),
                    ("nodes", Uint),
                    ("tick_ms", Uint),
                    ("err_a", Num),
                    ("err_m", Num),
                    ("peers_without_estimate", Uint),
                    ("mean_n_hat", Num),
                    ("exchanges", Uint),
                    ("exchanges_completed", Uint),
                    ("repairs", Uint),
                    ("aborts", Uint),
                    ("shim_drops", Uint),
                    ("malformed_frames", Uint),
                    ("backpressure_drops", Uint),
                    ("throughput_eps", Num),
                    ("p99_latency_us", Uint),
                    ("duration_s", Num),
                    ("clean_shutdown", Bool),
                ],
                rule: Rule::Covers("scenario", &["clean", "loss10"]),
            },
            TableLayout {
                name: "scale",
                columns: &[
                    ("nodes", Uint),
                    ("tick_ms", Uint),
                    ("err_a", Num),
                    ("sim_err_a", Num),
                    ("peers_without_estimate", Uint),
                    ("mean_n_hat", Num),
                    ("exchanges_completed", Uint),
                    ("throughput_eps", Num),
                    ("p99_latency_us", Uint),
                    ("duration_s", Num),
                    ("clean_shutdown", Bool),
                ],
                // Only `--scale N` runs the sweep.
                rule: Rule::Optional,
            },
        ],
    },
    BenchLayout {
        benchmark: "streaming_tracker",
        params: &[
            ("nodes", Uint),
            ("seed", Uint),
            ("lambda", Uint),
            ("rounds", Uint),
            ("launch_period", Uint),
            ("instance_rounds", Uint),
            ("detected_cores", Uint),
        ],
        tables: &[TableLayout {
            name: "results",
            columns: &[
                ("scenario", Str),
                ("mode", Str),
                ("time_avg_err", Num),
                ("time_avg_err_max", Num),
                ("final_err", Num),
                ("launched", Uint),
                ("completed", Uint),
                ("restarts", Uint),
                ("mean_divergence", Num),
                ("final_period", Uint),
                ("messages", Uint),
                ("bytes", Uint),
                ("fingerprint", Uint),
            ],
            rule: Rule::Covers(
                "mode",
                &[
                    "restart_naive",
                    "pipelined_fixed_fade",
                    "pipelined_adaptive_fade",
                    "pipelined_adaptive_restart",
                ],
            ),
        }],
    },
    BenchLayout {
        benchmark: "scenario_explorer",
        params: &[
            ("nodes", Uint),
            ("seed", Uint),
            ("lambda", Uint),
            ("iters", Uint),
        ],
        tables: &[TableLayout {
            name: "results",
            columns: &[
                ("config", Str),
                ("iterations", Uint),
                ("oracle_runs", Uint),
                ("features", Uint),
                ("violations", Uint),
                ("verdict", Str),
                ("first_hit_axes", Uint),
                ("minimal_axes", Uint),
                ("minimal_desc", Str),
                ("detail", Num),
                ("fingerprint", Uint),
                ("shrink_runs", Uint),
            ],
            rule: Rule::Covers("config", &["vanilla", "hardened"]),
        }],
    },
];

/// Checks that `obj` is an object with exactly `fields`, each of its type.
///
/// # Errors
///
/// Names the first unknown, missing or mistyped field.
pub fn check_fields(obj: &Value, fields: &[Field]) -> Result<(), String> {
    let pairs = obj.as_object().ok_or("expected an object")?;
    if let Some((key, _)) = pairs
        .iter()
        .find(|(key, _)| !fields.iter().any(|(name, _)| name == key))
    {
        return Err(format!("unknown field '{key}'"));
    }
    for (name, ty) in fields {
        let value = obj
            .get(name)
            .ok_or_else(|| format!("missing field '{name}'"))?;
        check_value(value, *ty).map_err(|e| format!("field '{name}': {e}"))?;
    }
    Ok(())
}

fn check_value(value: &Value, ty: Ty) -> Result<(), String> {
    let ok = match ty {
        Uint => matches!(value, Value::Uint(_)),
        Num => matches!(value, Value::Uint(_) | Value::Number(_) | Value::Null),
        Str => matches!(value, Value::String(_)),
        Bool => matches!(value, Value::Bool(_)),
        Ty::Obj(fields) => return check_fields(value, fields),
        Ty::Rows(columns) => {
            let rows = value.as_array().ok_or("expected an array")?;
            for (i, row) in rows.iter().enumerate() {
                check_fields(row, columns).map_err(|e| format!("row {}: {e}", i + 1))?;
            }
            return Ok(());
        }
    };
    ok.then_some(())
        .ok_or_else(|| format!("expected {ty:?}, got {value:?}"))
}

/// Checks a run manifest: exactly [`MANIFEST_FIELDS`], at
/// [`MANIFEST_SCHEMA_VERSION`].
///
/// # Errors
///
/// Names the field that does not match.
pub fn check_manifest(manifest: &Value) -> Result<(), String> {
    check_fields(manifest, MANIFEST_FIELDS)?;
    match manifest.get("schema_version").and_then(Value::as_u64) {
        Some(v) if v == u64::from(MANIFEST_SCHEMA_VERSION) => Ok(()),
        other => Err(format!("unsupported schema_version {other:?}")),
    }
}

/// `manifest` as an object whose fields are named by [`MANIFEST_FIELDS`];
/// its values are listed here in that order.
fn manifest_value(manifest: &RunManifest) -> Value {
    let values: [Value; 8] = [
        u64::from(manifest.schema_version).into(),
        manifest.experiment.as_str().into(),
        manifest.config_hash.into(),
        manifest.seed.into(),
        manifest.threads.into(),
        manifest.detected_cores.into(),
        manifest.git_rev.as_str().into(),
        manifest.dirty.into(),
    ];
    let cells = MANIFEST_FIELDS.iter().map(|(name, _)| *name).zip(values);
    Value::Object(conform(MANIFEST_FIELDS, cells.collect(), "manifest"))
}

fn layout_of(benchmark: &str) -> Option<&'static BenchLayout> {
    BENCH_LAYOUTS.iter().find(|l| l.benchmark == benchmark)
}

/// Named cells as object pairs; panics unless they name `fields` in
/// order, each with a value of its type.
fn conform(fields: &[Field], cells: Vec<(&str, Value)>, what: &str) -> Vec<(String, Value)> {
    assert_eq!(cells.len(), fields.len(), "{what}: wrong number of cells");
    cells
        .into_iter()
        .zip(fields)
        .map(|((name, value), (column, ty))| {
            assert_eq!(name, *column, "{what}: cell out of layout order");
            check_value(&value, *ty).unwrap_or_else(|e| panic!("{what}.{name}: {e}"));
            (name.to_string(), value)
        })
        .collect()
}

/// One benchmark result file, built against its [`BenchLayout`]: a param or
/// row of the wrong shape panics where it is added.
#[derive(Debug)]
pub struct BenchReport {
    /// `benchmark`, `manifest` and the params, in file order.
    head: Vec<(String, Value)>,
    /// Each table's layout and rows, in file order.
    tables: Vec<(&'static TableLayout, Vec<Value>)>,
}

impl BenchReport {
    /// Starts the file of `benchmark` with its manifest and its params,
    /// named in layout order.
    ///
    /// # Panics
    ///
    /// If `benchmark` has no layout or the params do not match it.
    pub fn new(benchmark: &str, manifest: &RunManifest, params: Vec<(&str, Value)>) -> Self {
        let layout = layout_of(benchmark)
            .unwrap_or_else(|| panic!("no layout for benchmark \"{benchmark}\""));
        let mut head = vec![
            ("benchmark".to_string(), Value::from(benchmark)),
            ("manifest".to_string(), manifest_value(manifest)),
        ];
        head.extend(conform(layout.params, params, benchmark));
        let tables = layout.tables.iter().map(|t| (t, Vec::new())).collect();
        Self { head, tables }
    }

    /// Appends a row to `table`, its cells named in column order.
    ///
    /// # Panics
    ///
    /// If the layout has no such table or the row does not match it.
    pub fn row(&mut self, table: &str, cells: Vec<(&str, Value)>) {
        let (layout, rows) = self
            .tables
            .iter_mut()
            .find(|(t, _)| t.name == table)
            .unwrap_or_else(|| panic!("no table \"{table}\" in this layout"));
        rows.push(Value::Object(conform(layout.columns, cells, table)));
    }

    /// The file's text: one top-level field per line and one table row per
    /// line, each written by [`Value::to_json`].
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = self
            .head
            .iter()
            .map(|(key, value)| format!("  \"{key}\": {}", value.to_json()))
            .collect();
        for (table, rows) in &self.tables {
            let rows: Vec<String> = rows
                .iter()
                .map(|row| format!("\n    {}", row.to_json()))
                .collect();
            fields.push(format!("  \"{}\": [{}\n  ]", table.name, rows.join(",")));
        }
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Writes the file to `path`; when it cannot, exits the process with a
    /// message naming `binary`.
    pub fn write(&self, path: &str, binary: &str) {
        if let Err(e) = std::fs::write(path, self.to_json()) {
            eprintln!("{binary}: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    /// Checks a parsed result file against the layout its `benchmark`
    /// names: the manifest, the params, every table's exact columns and
    /// types, a row in each required table and each table's coverage.
    /// Returns the number of rows.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch; unknown and missing fields fail.
    pub fn validate(doc: &Value) -> Result<usize, String> {
        let benchmark = doc
            .get("benchmark")
            .and_then(Value::as_str)
            .ok_or("missing \"benchmark\" field")?;
        let layout =
            layout_of(benchmark).ok_or_else(|| format!("unknown benchmark \"{benchmark}\""))?;
        let mut fields = vec![("benchmark", Str), ("manifest", Ty::Obj(MANIFEST_FIELDS))];
        fields.extend(layout.params);
        fields.extend(layout.tables.iter().map(|t| (t.name, Ty::Rows(t.columns))));
        check_fields(doc, &fields)?;
        check_manifest(doc.get("manifest").unwrap_or(&Value::Null))
            .map_err(|e| format!("manifest: {e}"))?;
        let mut count = 0;
        for table in layout.tables {
            let rows = doc.get(table.name).and_then(Value::as_array).unwrap_or(&[]);
            if !matches!(table.rule, Rule::Optional) && rows.is_empty() {
                return Err(format!("no {} rows", table.name));
            }
            if let Rule::Covers(column, values) = table.rule {
                let covered = |v: &&str| {
                    rows.iter()
                        .any(|r| r.get(column).and_then(Value::as_str) == Some(*v))
                };
                if let Some(value) = values.iter().find(|v| !covered(v)) {
                    return Err(format!("no {} rows for {column} '{value}'", table.name));
                }
            }
            count += rows.len();
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adam2_sim::json;

    fn manifest() -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            experiment: "test".to_string(),
            config_hash: 5,
            seed: 1,
            threads: 2,
            detected_cores: 2,
            git_rev: "abc".to_string(),
            dirty: false,
        }
    }

    fn cell(ty: Ty) -> Value {
        match ty {
            Uint => Value::Uint(3),
            Num => Value::Number(0.5),
            Str => Value::from("x"),
            Bool => Value::Bool(true),
            Ty::Obj(fields) | Ty::Rows(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(n, t)| (n.to_string(), cell(*t)))
                    .collect(),
            ),
        }
    }

    /// A valid file for `layout`, built by the writer: every table holds
    /// one row per value it must cover, or one row.
    fn sample(layout: &BenchLayout) -> Value {
        let params = layout.params.iter().map(|(n, t)| (*n, cell(*t))).collect();
        let mut report = BenchReport::new(layout.benchmark, &manifest(), params);
        for table in layout.tables {
            let (covered, values) = match table.rule {
                Rule::Covers(column, values) => (column, values),
                _ => ("", &["x"][..]),
            };
            for value in values {
                let cells = table
                    .columns
                    .iter()
                    .map(|(n, t)| {
                        (
                            *n,
                            if *n == covered {
                                Value::from(*value)
                            } else {
                                cell(*t)
                            },
                        )
                    })
                    .collect();
                report.row(table.name, cells);
            }
        }
        json::parse(&report.to_json()).expect("the writer emits JSON")
    }

    fn field<'a>(obj: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Object(pairs) = obj else {
            panic!("not an object")
        };
        &mut pairs.iter_mut().find(|(k, _)| k == key).expect("key").1
    }

    fn rows<'a>(doc: &'a mut Value, table: &str) -> &'a mut Vec<Value> {
        let Value::Array(rows) = field(doc, table) else {
            panic!("not a table")
        };
        rows
    }

    fn pairs(obj: &mut Value) -> &mut Vec<(String, Value)> {
        let Value::Object(pairs) = obj else {
            panic!("not an object")
        };
        pairs
    }

    /// Asserts that `validate` rejects `doc`, which holds `what`, with an
    /// error holding every one of `needles`.
    fn rejects(doc: &Value, what: &str, needles: &[&str]) {
        let err = BenchReport::validate(doc).expect_err(what);
        for needle in needles {
            assert!(err.contains(needle), "{what}: {err}");
        }
    }

    #[test]
    fn validate_accepts_what_the_writer_emits_and_nothing_else() {
        // Mutations of one row, applied to the first row of every table at
        // every column `i`; `{column}` in the message stands for column i.
        type RowMutation = fn(&mut Vec<(String, Value)>, usize);
        let row_cases: [(&str, RowMutation, &str); 3] = [
            (
                "an extra column",
                |row, _| row.push(("bogus".into(), Value::Uint(1))),
                "unknown field 'bogus'",
            ),
            (
                "a missing column",
                |row, i| {
                    row.remove(i);
                },
                "missing field '{column}'",
            ),
            (
                "a mistyped cell",
                |row, i| row[i].1 = Value::Array(Vec::new()),
                "field '{column}': expected",
            ),
        ];
        for layout in BENCH_LAYOUTS {
            let good = sample(layout);
            let rows_written: usize = layout
                .tables
                .iter()
                .map(|t| match t.rule {
                    Rule::Covers(_, values) => values.len(),
                    _ => 1,
                })
                .sum();
            assert_eq!(
                BenchReport::validate(&good),
                Ok(rows_written),
                "{}",
                layout.benchmark
            );
            for table in layout.tables {
                let name = table.name;
                let in_table = format!("field '{name}'");
                for (what, mutate, expected) in &row_cases {
                    for (i, (column, _)) in table.columns.iter().enumerate() {
                        let mut doc = good.clone();
                        mutate(pairs(&mut rows(&mut doc, name)[0]), i);
                        let expected = expected.replace("{column}", column);
                        rejects(&doc, what, &[&in_table, &expected]);
                    }
                }
                let mut doc = good.clone();
                rows(&mut doc, name).clear();
                match table.rule {
                    Rule::Optional => assert!(
                        BenchReport::validate(&doc).is_ok(),
                        "{}: an empty optional {name}",
                        layout.benchmark
                    ),
                    _ => rejects(
                        &doc,
                        "an empty required table",
                        &[&format!("no {name} rows")],
                    ),
                }
                if let Rule::Covers(column, values) = table.rule {
                    let mut doc = good.clone();
                    for row in rows(&mut doc, name) {
                        *field(row, column) = Value::from(values[0]);
                    }
                    let expected = format!("no {name} rows for {column} '{}'", values[1]);
                    rejects(&doc, "a missing coverage value", &[&expected]);
                }
            }
            for (key, _) in MANIFEST_FIELDS {
                let mut doc = good.clone();
                pairs(field(&mut doc, "manifest")).retain(|(k, _)| k != key);
                let expected = format!("missing field '{key}'");
                rejects(&doc, "a manifest without a field", &["manifest", &expected]);
            }
            let mut doc = good.clone();
            *field(&mut doc, "benchmark") = Value::from("nope");
            rejects(
                &doc,
                "an unknown benchmark",
                &["unknown benchmark \"nope\""],
            );
        }
    }

    #[test]
    fn the_manifest_object_matches_the_telemetry_export() {
        let manifest = manifest();
        assert_eq!(
            json::parse(&manifest.to_json()),
            Ok(manifest_value(&manifest))
        );
    }

    #[test]
    fn the_writer_keeps_layout_order() {
        let layout = &BENCH_LAYOUTS[0];
        let text = sample(layout).to_json();
        let keys: Vec<&str> = ["benchmark", "manifest"]
            .into_iter()
            .chain(layout.params.iter().map(|(n, _)| *n))
            .chain(layout.tables.iter().map(|t| t.name))
            .collect();
        let mut at = 0;
        for key in keys {
            at += text[at..].find(&format!("\"{key}\":")).expect(key);
        }
    }

    #[test]
    #[should_panic(expected = "cell out of layout order")]
    fn a_row_out_of_layout_order_panics() {
        let layout = &BENCH_LAYOUTS[0];
        let params = layout.params.iter().map(|(n, t)| (*n, cell(*t))).collect();
        let mut report = BenchReport::new(layout.benchmark, &manifest(), params);
        let mut cells: Vec<(&str, Value)> = layout.tables[0]
            .columns
            .iter()
            .map(|(n, t)| (*n, cell(*t)))
            .collect();
        cells.swap(0, 1);
        report.row(layout.tables[0].name, cells);
    }

    #[test]
    #[should_panic(expected = "expected Uint")]
    fn a_mistyped_param_panics() {
        let params = vec![
            ("seed", Value::from("42")),
            ("lambda", Value::Uint(50)),
            ("threads", Value::Uint(2)),
            ("detected_cores", Value::Uint(2)),
        ];
        BenchReport::new("engine_rounds_per_sec", &manifest(), params);
    }
}
