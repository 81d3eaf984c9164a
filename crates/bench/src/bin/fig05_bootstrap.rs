//! Reproduces Fig. 5: MinMax convergence with Uniform vs Neighbour-based
//! initial interpolation points, over 10 consecutive instances.

use adam2_bench::{
    adam2_engine, complete_instance, evaluate_estimates, fmt_err, start_instance, Args, AsciiChart,
    Table,
};
use adam2_core::{Adam2Config, BootstrapKind, RefineKind};
use adam2_sim::ChurnModel;

fn main() {
    let args = Args::parse("fig05_bootstrap");
    args.print_header(
        "fig05_bootstrap",
        "Fig. 5 (bootstrap comparison, Err_m, MinMax)",
    );
    let instances: usize = args.extra_or("instances", 10);

    let bootstraps = [
        (BootstrapKind::Uniform, "uniform"),
        (BootstrapKind::Neighbours, "neighbour"),
    ];

    let mut headers = vec!["instance".to_string()];
    for attr in &args.attrs {
        for (_, label) in &bootstraps {
            headers.push(format!("{attr}-{label}"));
        }
    }
    let mut table = Table::new(headers);
    let mut rows: Vec<Vec<String>> = (1..=instances).map(|i| vec![i.to_string()]).collect();
    let mut chart = AsciiChart::new(64, 16).log_y();
    let symbols = ['U', 'N', 'u', 'n'];
    let mut symbol_idx = 0;

    for attr in &args.attrs {
        let setup = adam2_bench::setup(*attr, args.nodes, args.seed);
        for (bootstrap, label) in &bootstraps {
            let mut config = Adam2Config::new()
                .with_lambda(args.lambda)
                .with_rounds_per_instance(args.rounds)
                .with_bootstrap(*bootstrap)
                .with_refine(RefineKind::MinMax);
            if *bootstrap == BootstrapKind::Uniform {
                // The paper's simulator knows the attribute domain; the
                // uniform bootstrap spreads points over it.
                config = config.with_domain_hint(setup.truth.min(), setup.truth.max());
            }
            let mut engine = adam2_engine(&setup, config, args.seed, ChurnModel::None);
            let mut series = Vec::new();
            for (i, row) in rows.iter_mut().enumerate() {
                start_instance(&mut engine);
                complete_instance(&mut engine, args.rounds);
                let report =
                    evaluate_estimates(&engine, &setup.truth, args.sample_peers, args.seed);
                row.push(fmt_err(report.max_cdf));
                series.push(((i + 1) as f64, report.max_cdf));
            }
            chart = chart.series(
                symbols[symbol_idx % symbols.len()],
                format!("{attr}-{label}"),
                series,
            );
            symbol_idx += 1;
        }
    }

    for row in rows {
        table.row(row);
    }
    table.print();
    println!();
    println!("maximum error Err_m per instance (log y):");
    chart.print();
    println!();
    println!(
        "expected shape: neighbour-based bootstrap converges in 2-4 instances; uniform needs \
         many more, especially on the stepped ram distribution."
    );
    table.maybe_write_csv(args.csv.as_deref());
}
