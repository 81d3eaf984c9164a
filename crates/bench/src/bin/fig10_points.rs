//! Reproduces Fig. 10: approximation accuracy after 4 instances/phases as
//! a function of the number of interpolation points (histogram bins),
//! 10 .. 100.

use adam2_baselines::EquiDepthConfig;
use adam2_bench::{
    adam2_engine, complete_instance, equidepth_engine, evaluate_equidepth_estimates,
    evaluate_estimates, fmt_err, start_instance, start_phase, Args, Table,
};
use adam2_core::{Adam2Config, RefineKind};
use adam2_sim::ChurnModel;

fn main() {
    let args = Args::parse("fig10_points");
    args.print_header(
        "fig10_points",
        "Fig. 10 (accuracy vs number of interpolation points)",
    );
    let instances: usize = args.extra_or("instances", 4);
    let point_counts: Vec<usize> = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

    for (metric_name, pick_max, refine) in [
        (
            "(a) maximum error Err_m after 4 instances (MinMax vs EquiDepth)",
            true,
            RefineKind::MinMax,
        ),
        (
            "(b) average error Err_a after 4 instances (LCut vs EquiDepth)",
            false,
            RefineKind::LCut,
        ),
    ] {
        let mut headers = vec!["points".to_string()];
        for attr in &args.attrs {
            headers.push(format!(
                "{attr}-{}",
                if pick_max { "minmax" } else { "lcut" }
            ));
            headers.push(format!("{attr}-equidepth"));
        }
        let mut rows: Vec<Vec<String>> = point_counts.iter().map(|p| vec![p.to_string()]).collect();

        for attr in &args.attrs {
            let setup = adam2_bench::setup(*attr, args.nodes, args.seed);
            for (row, lambda) in rows.iter_mut().zip(&point_counts) {
                // Adam2.
                let config = Adam2Config::new()
                    .with_lambda(*lambda)
                    .with_rounds_per_instance(args.rounds)
                    .with_refine(refine);
                let mut engine = adam2_engine(&setup, config, args.seed, ChurnModel::None);
                for _ in 0..instances {
                    start_instance(&mut engine);
                    complete_instance(&mut engine, args.rounds);
                }
                let report =
                    evaluate_estimates(&engine, &setup.truth, args.sample_peers, args.seed);
                row.push(fmt_err(if pick_max {
                    report.max_cdf
                } else {
                    report.avg_cdf
                }));

                // EquiDepth with the same number of bins.
                let mut ed = equidepth_engine(
                    &setup,
                    EquiDepthConfig::new(*lambda, args.rounds),
                    args.seed,
                    ChurnModel::None,
                );
                for _ in 0..instances {
                    start_phase(&mut ed);
                    complete_instance(&mut ed, args.rounds);
                }
                let ed_report =
                    evaluate_equidepth_estimates(&ed, &setup.truth, args.sample_peers, args.seed);
                row.push(fmt_err(if pick_max {
                    ed_report.max_cdf
                } else {
                    ed_report.avg_cdf
                }));
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
        "expected shape: more points help both systems; Adam2 beats EquiDepth at every size; \
         ~50 points reach Err_m ≈ 2% (MinMax) and Err_a ≈ 0.1% (LCut); +10 points cost only \
         ~160 B per message."
    );
}
