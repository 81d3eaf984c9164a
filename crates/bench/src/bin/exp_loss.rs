//! Extension experiment: Adam2 under message loss.
//!
//! The paper varies churn but assumes a lossless network. Here the
//! cycle-driven engine drops each message independently with probability
//! `p`: a lost request aborts an exchange harmlessly; a lost *response*
//! leaves an asymmetric half-exchange that violates mass conservation
//! (see [`gossip_exchange_response_lost`]). One instance per loss rate,
//! then four refinement instances, reporting both the averaging error at
//! the interpolation points and the end-to-end CDF error.
//!
//! [`gossip_exchange_response_lost`]: adam2_core::gossip_exchange_response_lost

use adam2_bench::{evaluate_estimates, fmt_err, start_instance, Args, Table};
use adam2_core::{Adam2Config, Adam2Protocol};
use adam2_sim::{Engine, EngineConfig};
use adam2_traces::Attribute;

fn main() {
    let mut args = Args::parse("exp_loss");
    if args.attrs.len() > 1 {
        args.attrs = vec![Attribute::Ram];
    }
    args.print_header("exp_loss", "extension (message loss; not a paper figure)");
    let attr = args.attrs[0];
    let setup = adam2_bench::setup(attr, args.nodes, args.seed);
    let instances: usize = args.extra_or("instances", 4);
    let loss_rates = [0.0, 0.01, 0.05, 0.10, 0.20, 0.40];

    let mut table = Table::new(vec![
        "loss rate",
        "max@points",
        "avg@points",
        "Err_m CDF",
        "Err_a CDF",
    ]);
    for loss in loss_rates {
        let config = Adam2Config::new()
            .with_lambda(args.lambda)
            .with_rounds_per_instance(args.rounds);
        let pop = setup.population.clone();
        let proto = Adam2Protocol::with_population(config, pop.values().to_vec(), move |rng| {
            pop.draw_fresh(rng)
        });
        let engine_config = EngineConfig::new(args.nodes, args.seed).with_loss_rate(loss);
        let mut engine = Engine::new(engine_config, proto);
        for _ in 0..instances {
            start_instance(&mut engine);
            engine.run_rounds(args.rounds + 1);
        }
        let report = evaluate_estimates(&engine, &setup.truth, args.sample_peers, args.seed);
        table.row(vec![
            format!("{loss:.2}"),
            fmt_err(report.max_points),
            fmt_err(report.avg_points),
            fmt_err(report.max_cdf),
            fmt_err(report.avg_cdf),
        ]);
    }
    table.print();
    println!();
    println!(
        "expected shape: the point error rises from ~1e-15 (lossless) with the loss rate \
         (asymmetric half-exchanges leak averaging mass), but even heavy loss leaves the \
         end-to-end CDF error near its interpolation floor — loss mostly slows the epidemic."
    );
    table.maybe_write_csv(args.csv.as_deref());
}
