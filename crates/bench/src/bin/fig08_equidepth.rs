//! Reproduces Fig. 8: EquiDepth across multiple phases, compared with
//! Adam2's MinMax (Err_m) and LCut (Err_a).

use adam2_baselines::EquiDepthConfig;
use adam2_bench::{
    adam2_engine, complete_instance, equidepth_engine, evaluate_equidepth_estimates,
    evaluate_estimates, fmt_err, start_instance, start_phase, Args, Table,
};
use adam2_core::{Adam2Config, RefineKind};
use adam2_sim::ChurnModel;

fn main() {
    let args = Args::parse("fig08_equidepth");
    args.print_header("fig08_equidepth", "Fig. 8 (EquiDepth over multiple phases)");
    let instances: usize = args.extra_or("instances", 5);

    for (metric_name, pick_max, adam2_refine) in [
        (
            "(a) maximum error Err_m: EquiDepth vs MinMax",
            true,
            RefineKind::MinMax,
        ),
        (
            "(b) average error Err_a: EquiDepth vs LCut",
            false,
            RefineKind::LCut,
        ),
    ] {
        let mut headers = vec!["instance".to_string()];
        for attr in &args.attrs {
            headers.push(format!("{attr}-equidepth"));
            headers.push(format!(
                "{attr}-{}",
                if pick_max { "minmax" } else { "lcut" }
            ));
        }
        let mut rows: Vec<Vec<String>> = (1..=instances).map(|i| vec![i.to_string()]).collect();

        for attr in &args.attrs {
            let setup = adam2_bench::setup(*attr, args.nodes, args.seed);

            // EquiDepth phases.
            let mut ed = equidepth_engine(
                &setup,
                EquiDepthConfig::new(args.lambda, args.rounds),
                args.seed,
                ChurnModel::None,
            );
            let mut ed_errors = Vec::new();
            for _ in 0..instances {
                start_phase(&mut ed);
                complete_instance(&mut ed, args.rounds);
                let report =
                    evaluate_equidepth_estimates(&ed, &setup.truth, args.sample_peers, args.seed);
                ed_errors.push(if pick_max {
                    report.max_cdf
                } else {
                    report.avg_cdf
                });
            }

            // Adam2 instances.
            let config = Adam2Config::new()
                .with_lambda(args.lambda)
                .with_rounds_per_instance(args.rounds)
                .with_refine(adam2_refine);
            let mut engine = adam2_engine(&setup, config, args.seed, ChurnModel::None);
            let mut adam_errors = Vec::new();
            for _ in 0..instances {
                start_instance(&mut engine);
                complete_instance(&mut engine, args.rounds);
                let report =
                    evaluate_estimates(&engine, &setup.truth, args.sample_peers, args.seed);
                adam_errors.push(if pick_max {
                    report.max_cdf
                } else {
                    report.avg_cdf
                });
            }

            for (row, (ed_e, ad_e)) in rows.iter_mut().zip(ed_errors.iter().zip(&adam_errors)) {
                row.push(fmt_err(*ed_e));
                row.push(fmt_err(*ad_e));
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
        "expected shape: EquiDepth's error is flat across phases (no refinement); Adam2 \
         improves each instance, ending a few times better on Err_m and ~10x better on Err_a."
    );
}
