//! Reproduces Fig. 14: accuracy of the *self-assessed* error (Section VI)
//! as a function of the number of verification points — the relative
//! difference `|Err(p) - EstErr(p)| / Err(p)` averaged over peers, for the
//! maximum and average error metrics (MinMax refinement).

use adam2_bench::{adam2_engine, complete_instance, fmt_err, start_instance, Args, Table};
use adam2_core::{discrete_errors_over, Adam2Config, ErrorMetric, RefineKind};
use adam2_sim::{derive_seed, seeded_rng, ChurnModel};
use rand::RngExt as _;

fn main() {
    let args = Args::parse("fig14_confidence");
    args.print_header(
        "fig14_confidence",
        "Fig. 14 (confidence-estimation error, MinMax)",
    );
    let instances: usize = args.extra_or("instances", 4);
    let verify_counts: Vec<usize> = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

    for (metric_name, metric) in [
        ("(a) maximum error Err_m estimation", ErrorMetric::Max),
        ("(b) average error Err_a estimation", ErrorMetric::Average),
    ] {
        let mut headers = vec!["verify points".to_string()];
        for attr in &args.attrs {
            headers.push(attr.name().to_string());
        }
        let mut rows: Vec<Vec<String>> =
            verify_counts.iter().map(|v| vec![v.to_string()]).collect();

        for attr in &args.attrs {
            let setup = adam2_bench::setup(*attr, args.nodes, args.seed);
            for (row, verify) in rows.iter_mut().zip(&verify_counts) {
                let config = Adam2Config::new()
                    .with_lambda(args.lambda)
                    .with_rounds_per_instance(args.rounds)
                    .with_refine(RefineKind::MinMax)
                    .with_verify_points(*verify)
                    .with_verify_metric(metric);
                let mut engine = adam2_engine(&setup, config, args.seed, ChurnModel::None);
                for _ in 0..instances {
                    start_instance(&mut engine);
                    complete_instance(&mut engine, args.rounds);
                }

                // Relative estimation error over a deterministic peer
                // sample.
                let ids = engine.nodes().id_vec();
                let mut rng = seeded_rng(derive_seed(args.seed, 0xF14));
                let mut total = 0.0f64;
                let mut count = 0usize;
                for _ in 0..args.sample_peers.min(ids.len()) {
                    let id = ids[rng.random_range(0..ids.len())];
                    let Some(node) = engine.nodes().get(id) else {
                        continue;
                    };
                    let Some(est) = node.estimate() else { continue };
                    let (act_m, act_a) = discrete_errors_over(
                        &setup.truth,
                        &est.cdf,
                        setup.truth.min(),
                        setup.truth.max(),
                    );
                    let (actual, assessed) = match metric {
                        ErrorMetric::Max => (act_m, est.est_err_max),
                        ErrorMetric::Average => (act_a, est.est_err_avg),
                    };
                    let Some(assessed) = assessed else { continue };
                    if actual > 1e-12 {
                        total += (actual - assessed).abs() / actual;
                        count += 1;
                    }
                }
                let rel = if count > 0 {
                    total / count as f64
                } else {
                    f64::NAN
                };
                row.push(fmt_err(rel));
            }
        }

        let mut table = Table::new(headers);
        for row in rows {
            table.row(row);
        }
        println!("{metric_name}:");
        table.print();
        println!();
    }

    println!(
        "expected shape: ~20 verification points estimate Err_a within ~10% relative error \
         (costing 40% extra traffic); Err_m is a single-point property and needs many more \
         points for a rough estimate."
    );
}
