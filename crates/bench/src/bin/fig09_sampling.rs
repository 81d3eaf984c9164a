//! Reproduces Fig. 9: random-sampling approximation error as a function
//! of the number of samples (1 .. 100 000).

use adam2_baselines::{sample_estimate, sampling_cost_messages};
use adam2_bench::{fmt_err, Args, AsciiChart, Table};
use adam2_core::discrete_errors_over;
use adam2_sim::{derive_seed, seeded_rng};

fn main() {
    let args = Args::parse("fig09_sampling");
    args.print_header(
        "fig09_sampling",
        "Fig. 9 (random sampling error vs sample count)",
    );
    let trials: usize = args.extra_or("trials", 5);

    let sample_counts: Vec<usize> = [
        1usize, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000,
    ]
    .into_iter()
    .filter(|k| *k <= args.nodes.max(100_000))
    .collect();

    let mut headers = vec!["samples".to_string(), "walk msgs".to_string()];
    for attr in &args.attrs {
        headers.push(format!("{attr}-Err_m"));
        headers.push(format!("{attr}-Err_a"));
    }
    let mut table = Table::new(headers);
    let mut chart = AsciiChart::new(64, 16).log_x().log_y();

    let mut columns: Vec<Vec<(f64, f64)>> = Vec::new();
    for attr in &args.attrs {
        let setup = adam2_bench::setup(*attr, args.nodes, args.seed);
        let mut rng = seeded_rng(derive_seed(args.seed, 0x9A));
        let mut maxs = Vec::new();
        let mut avgs = Vec::new();
        for k in &sample_counts {
            let mut sum_m = 0.0;
            let mut sum_a = 0.0;
            for _ in 0..trials {
                let est = sample_estimate(setup.population.values(), *k, &mut rng);
                let (m, a) = discrete_errors_over(
                    &setup.truth,
                    &est.cdf,
                    setup.truth.min(),
                    setup.truth.max(),
                );
                sum_m += m;
                sum_a += a;
            }
            maxs.push((*k as f64, sum_m / trials as f64));
            avgs.push((*k as f64, sum_a / trials as f64));
        }
        chart = chart.series(
            attr.name()
                .chars()
                .next()
                .unwrap_or('?')
                .to_ascii_uppercase(),
            format!("{attr}-Err_m"),
            maxs.clone(),
        );
        columns.push(maxs);
        columns.push(avgs);
    }

    for (i, k) in sample_counts.iter().enumerate() {
        let mut row = vec![k.to_string(), sampling_cost_messages(*k, 10).to_string()];
        for col in &columns {
            row.push(fmt_err(col[i].1));
        }
        table.row(row);
    }
    table.print();
    println!();
    println!("Err_m vs samples (log-log):");
    chart.print();
    println!();
    println!(
        "expected shape: error falls like 1/sqrt(k); matching Adam2's accuracy needs \
         1 000-10 000 samples, i.e. 10 000-100 000 random-walk messages per querying node — \
         an order of magnitude above Adam2's ~150 messages."
    );
    table.maybe_write_csv(args.csv.as_deref());
}
