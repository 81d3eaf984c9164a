//! Minimal command-line parsing for the experiment binaries.
//!
//! No external CLI crate is sanctioned for this reproduction, so flags are
//! parsed by hand. Every binary shares the same vocabulary:
//!
//! ```text
//! --nodes N      population size (default 10000; --full forces 100000)
//! --seed S       master seed (default 42)
//! --lambda L     interpolation points (default 50)
//! --rounds R     rounds per instance/phase (default 30)
//! --peers P      peers sampled for Err_a aggregation (default 32)
//! --attr LIST    comma-separated attributes (default cpu,ram)
//! --csv PATH     also write the result table as CSV
//! --telemetry D  export per-round telemetry (JSONL/CSV + manifest) to D
//! --full         paper scale: 100000 nodes
//! --help         print usage
//! ```

use std::collections::HashMap;

use adam2_traces::Attribute;

/// Parsed command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Population size.
    pub nodes: usize,
    /// Master seed.
    pub seed: u64,
    /// Interpolation points λ.
    pub lambda: usize,
    /// Rounds per instance/phase.
    pub rounds: u64,
    /// Number of peers sampled for average-error aggregation.
    pub sample_peers: usize,
    /// Attributes to evaluate.
    pub attrs: Vec<Attribute>,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Optional telemetry export directory (`--telemetry DIR`): runs
    /// attach a telemetry store and export rounds/events/manifest files.
    pub telemetry: Option<String>,
    /// Paper-scale run requested.
    pub full: bool,
    extras: HashMap<String, String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            nodes: 10_000,
            seed: 42,
            lambda: 50,
            rounds: 30,
            sample_peers: 32,
            attrs: vec![Attribute::Cpu, Attribute::Ram],
            csv: None,
            telemetry: None,
            full: false,
            extras: HashMap::new(),
        }
    }
}

impl Args {
    /// Parses `std::env::args()`, printing usage and exiting on `--help`
    /// or a malformed flag.
    pub fn parse(experiment: &str) -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{experiment}: {msg}");
                eprintln!(
                    "usage: {experiment} [--nodes N] [--seed S] [--lambda L] [--rounds R] \
                     [--peers P] [--attr cpu,ram] [--csv PATH] [--telemetry DIR] [--full]"
                );
                std::process::exit(if msg == "help requested" { 0 } else { 2 });
            }
        }
    }

    /// Parses an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed flag.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value_of = |name: &str| {
                iter.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--help" | "-h" => return Err("help requested".into()),
                "--full" => out.full = true,
                "--nodes" => {
                    out.nodes = value_of("--nodes")?
                        .parse()
                        .map_err(|e| format!("--nodes: {e}"))?;
                }
                "--seed" => {
                    out.seed = value_of("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--lambda" => {
                    out.lambda = value_of("--lambda")?
                        .parse()
                        .map_err(|e| format!("--lambda: {e}"))?;
                }
                "--rounds" => {
                    out.rounds = value_of("--rounds")?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?;
                }
                "--peers" => {
                    out.sample_peers = value_of("--peers")?
                        .parse()
                        .map_err(|e| format!("--peers: {e}"))?;
                }
                "--attr" => {
                    let list = value_of("--attr")?;
                    out.attrs = list
                        .split(',')
                        .map(|name| {
                            Attribute::from_name(name.trim())
                                .ok_or_else(|| format!("unknown attribute '{name}'"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--csv" => out.csv = Some(value_of("--csv")?),
                "--telemetry" => out.telemetry = Some(value_of("--telemetry")?),
                other if other.starts_with("--") => {
                    // Experiment-specific extras: --key value.
                    let key = other.trim_start_matches("--").to_string();
                    let value = value_of(other)?;
                    out.extras.insert(key, value);
                }
                other => return Err(format!("unexpected argument '{other}'")),
            }
        }
        if out.full {
            out.nodes = 100_000;
        }
        if out.nodes == 0 {
            return Err("--nodes must be positive".into());
        }
        if out.lambda == 0 {
            return Err("--lambda must be positive".into());
        }
        Ok(out)
    }

    /// An experiment-specific extra flag (`--key value`).
    pub fn extra(&self, key: &str) -> Option<&str> {
        self.extras.get(key).map(String::as_str)
    }

    /// An experiment-specific extra parsed to a type.
    ///
    /// # Errors
    ///
    /// Returns an error string if present but unparsable.
    pub fn extra_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.extras.get(key) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|e| format!("--{key}: {e}")),
        }
    }

    /// An experiment-specific extra parsed to a type, or `default` when it
    /// is absent.
    ///
    /// # Panics
    ///
    /// If the flag is present but unparsable.
    pub fn extra_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.extra_parsed(key)
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or(default)
    }

    /// `--threads T` as the count a run uses: `T`, or every available core
    /// when `T` is 0 or absent.
    ///
    /// # Panics
    ///
    /// If `T` is not a number.
    pub fn threads(&self) -> usize {
        match self.extra_or("threads", 0) {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        }
    }

    /// Prints the standard experiment header.
    pub fn print_header(&self, experiment: &str, figure: &str) {
        println!("== {experiment} — reproduces {figure} ==");
        println!(
            "nodes={} seed={} lambda={} rounds/instance={} sample_peers={} attrs={}",
            self.nodes,
            self.seed,
            self.lambda,
            self.rounds,
            self.sample_peers,
            self.attrs
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join(",")
        );
        println!();
    }
}

/// Removes every occurrence of the valueless flag `name` from `raw`,
/// reporting whether it was present.
pub fn take_flag(raw: &mut Vec<String>, name: &str) -> bool {
    let before = raw.len();
    raw.retain(|a| a != name);
    raw.len() != before
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, String> {
        Args::try_parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.nodes, 10_000);
        assert_eq!(a.seed, 42);
        assert_eq!(a.lambda, 50);
        assert_eq!(a.attrs, vec![Attribute::Cpu, Attribute::Ram]);
    }

    #[test]
    fn flags_are_parsed() {
        let a = parse(&[
            "--nodes",
            "500",
            "--seed",
            "7",
            "--lambda",
            "20",
            "--rounds",
            "40",
            "--peers",
            "16",
            "--attr",
            "ram",
            "--csv",
            "/tmp/x.csv",
            "--telemetry",
            "/tmp/telemetry",
        ])
        .unwrap();
        assert_eq!(a.nodes, 500);
        assert_eq!(a.seed, 7);
        assert_eq!(a.lambda, 20);
        assert_eq!(a.rounds, 40);
        assert_eq!(a.sample_peers, 16);
        assert_eq!(a.attrs, vec![Attribute::Ram]);
        assert_eq!(a.csv.as_deref(), Some("/tmp/x.csv"));
        assert_eq!(a.telemetry.as_deref(), Some("/tmp/telemetry"));
    }

    #[test]
    fn full_overrides_nodes() {
        let a = parse(&["--nodes", "500", "--full"]).unwrap();
        assert_eq!(a.nodes, 100_000);
    }

    #[test]
    fn extras_are_collected() {
        let a = parse(&["--churn", "0.01"]).unwrap();
        assert_eq!(a.extra("churn"), Some("0.01"));
        assert_eq!(a.extra_parsed::<f64>("churn").unwrap(), Some(0.01));
        assert_eq!(a.extra_parsed::<f64>("missing").unwrap(), None);
        assert_eq!(a.extra_or("churn", 0.5), 0.01);
        assert_eq!(a.extra_or("missing", 0.5), 0.5);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--nodes"]).is_err());
        assert!(parse(&["--nodes", "abc"]).is_err());
        assert!(parse(&["--attr", "nope"]).is_err());
        assert!(parse(&["positional"]).is_err());
        assert!(parse(&["--nodes", "0"]).is_err());
    }

    #[test]
    fn multi_attr_list() {
        let a = parse(&["--attr", "cpu, ram ,disk"]).unwrap();
        assert_eq!(
            a.attrs,
            vec![Attribute::Cpu, Attribute::Ram, Attribute::Disk]
        );
    }
}
