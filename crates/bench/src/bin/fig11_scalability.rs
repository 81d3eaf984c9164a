//! Reproduces Fig. 11: approximation accuracy as a function of system
//! size (100 .. 100 000 nodes).
//!
//! Extra flags: `--instances K` (aggregation instances per size, default
//! 4) and `--threads T` (worker threads a round runs on, default 1, `0` =
//! auto-detect). `--threads` changes wall-clock time, not results: apart
//! from the `engine:` header line the output is the same for every `T`.

use adam2_bench::{
    adam2_engine_with, complete_instance, evaluate_estimates, fmt_err, start_instance, Args, Table,
};
use adam2_core::{Adam2Config, RefineKind};

fn main() {
    let args = Args::parse("fig11_scalability");
    args.print_header("fig11_scalability", "Fig. 11 (accuracy vs system size)");
    let instances: usize = args.extra_or("instances", 4);
    let threads: usize = args.extra_or("threads", 1);
    println!("engine: threads={threads} (0 = auto)");
    println!();
    let mut sizes: Vec<usize> = vec![100, 316, 1_000, 3_162, 10_000];
    if args.full {
        sizes.push(31_623);
        sizes.push(100_000);
    }

    let mut headers = vec!["nodes".to_string()];
    for attr in &args.attrs {
        headers.push(format!("{attr}-Err_m (minmax)"));
        headers.push(format!("{attr}-Err_a (lcut)"));
    }
    let mut rows: Vec<Vec<String>> = sizes.iter().map(|n| vec![n.to_string()]).collect();

    for attr in &args.attrs {
        for (row, n) in rows.iter_mut().zip(&sizes) {
            let setup = adam2_bench::setup(*attr, *n, args.seed);
            for refine in [RefineKind::MinMax, RefineKind::LCut] {
                let config = Adam2Config::new()
                    .with_lambda(args.lambda)
                    .with_rounds_per_instance(args.rounds)
                    .with_refine(refine);
                let mut engine =
                    adam2_engine_with(&setup, config, args.seed, |c| c.with_threads(threads));
                for _ in 0..instances {
                    start_instance(&mut engine);
                    complete_instance(&mut engine, args.rounds);
                }
                let report =
                    evaluate_estimates(&engine, &setup.truth, args.sample_peers, args.seed);
                row.push(fmt_err(if refine == RefineKind::MinMax {
                    report.max_cdf
                } else {
                    report.avg_cdf
                }));
            }
        }
    }

    let mut table = Table::new(headers);
    for row in rows {
        table.row(row);
    }
    table.print();
    println!();
    println!(
        "expected shape: Err_m stays in the same order of magnitude across sizes (random \
         variation only); Err_a *decreases* for larger systems — longer distribution tails \
         are easy to interpolate and dilute the normalised area. The only size-dependent \
         parameter is the instance TTL ({} rounds here).",
        args.rounds
    );
    table.maybe_write_csv(args.csv.as_deref());
}
