//! Extension experiment: how much do Adam2's results owe to the
//! cycle-driven (atomic push–pull) idealisation?
//!
//! Runs the same single aggregation instance (identical thresholds,
//! identical population) under: (a) the cycle-driven engine, (b) the
//! event-driven engine with short message latency, (c) long latency
//! approaching the gossip period, (d) short latency plus 10 % message
//! loss. Reports the converged error at the interpolation points — the
//! quantity that is ~1e-15 in the atomic model — and over the whole CDF.

use std::sync::Arc;

use adam2_bench::{adam2_engine, fmt_err, start_instance, Args, Table};
use adam2_core::{
    discrete_errors_over, uniform_points, Adam2Config, AsyncAdam2, BootstrapKind, InstanceId,
    InstanceMeta, InterpCdf, StepCdf,
};
use adam2_sim::{ChurnModel, EventConfig, EventEngine, LatencyModel};
use adam2_traces::Attribute;

fn main() {
    let mut args = Args::parse("exp_async");
    if args.attrs.len() > 1 {
        args.attrs = vec![Attribute::Ram];
    }
    args.print_header(
        "exp_async",
        "extension (atomic vs asynchronous push-pull; not a paper figure)",
    );
    let attr = args.attrs[0];
    let setup = adam2_bench::setup(attr, args.nodes, args.seed);
    let rounds = args.rounds.max(40);
    let thresholds = uniform_points(setup.truth.min(), setup.truth.max(), args.lambda);

    let mut table = Table::new(vec![
        "execution model",
        "max@points",
        "avg@points",
        "max CDF",
        "coverage",
    ]);

    // (a) Cycle-driven (atomic).
    {
        let config = Adam2Config::new()
            .with_lambda(args.lambda)
            .with_rounds_per_instance(rounds)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(setup.truth.min(), setup.truth.max());
        let mut engine = adam2_engine(&setup, config, args.seed, ChurnModel::None);
        start_instance(&mut engine);
        engine.run_rounds(rounds + 1);
        let (maxp, avgp, maxc, cov) = cycle_errors(&engine, &setup.truth);
        table.row(vec![
            "cycle-driven (atomic)".into(),
            fmt_err(maxp),
            fmt_err(avgp),
            fmt_err(maxc),
            format!("{cov:.3}"),
        ]);
    }

    // (b)-(d) Event-driven variants.
    let period = 1000u64;
    let variants = [
        (
            "event, latency 1% of period",
            LatencyModel::Uniform { min: 5, max: 15 },
            0.0,
        ),
        (
            "event, latency ~50% of period",
            LatencyModel::Uniform { min: 300, max: 700 },
            0.0,
        ),
        (
            "event, 1% latency + 10% loss",
            LatencyModel::Uniform { min: 5, max: 15 },
            0.10,
        ),
    ];
    for (label, latency, loss) in variants {
        let proto = AsyncAdam2::with_population(period, setup.population.values().to_vec(), {
            let pop = setup.population.clone();
            move |rng| pop.draw_fresh(rng)
        });
        let config = EventConfig::new(args.nodes, args.seed)
            .with_gossip_period(period)
            .with_latency(latency)
            .with_loss_rate(loss);
        let mut engine = EventEngine::new(config, proto);
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 1),
            thresholds: thresholds.clone().into(),
            verify_thresholds: Vec::new().into(),
            start_round: 0,
            end_round: rounds,
            multi: false,
        });
        engine.with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.start_instance(initiator, meta.clone(), ctx)
        });
        engine.run_until_parallel(period * (rounds + 2));
        let (maxp, avgp, maxc, cov) = event_errors(&engine, &setup.truth);
        table.row(vec![
            label.into(),
            fmt_err(maxp),
            fmt_err(avgp),
            fmt_err(maxc),
            format!("{cov:.3}"),
        ]);
    }

    table.print();
    println!();
    println!(
        "expected shape: the atomic model reaches ~1e-15 at the points; asynchrony floors \
         the point error at a small but visible value (concurrent exchanges break exact \
         mass conservation), well below the interpolation floor — the paper's headline \
         accuracy survives realistic asynchrony."
    );
    table.maybe_write_csv(args.csv.as_deref());
}

fn cycle_errors(
    engine: &adam2_sim::Engine<adam2_core::Adam2Protocol>,
    truth: &StepCdf,
) -> (f64, f64, f64, f64) {
    let mut maxp = 0.0f64;
    let mut sump = 0.0f64;
    let mut maxc = 0.0f64;
    let mut with = 0usize;
    let mut total = 0usize;
    for (_, node) in engine.nodes().iter() {
        total += 1;
        let Some(est) = node.estimate() else { continue };
        with += 1;
        accumulate(
            truth,
            &est.thresholds,
            &est.fractions,
            &est.cdf,
            &mut maxp,
            &mut sump,
            &mut maxc,
            with,
        );
    }
    (
        maxp,
        sump / with.max(1) as f64,
        maxc,
        with as f64 / total.max(1) as f64,
    )
}

fn event_errors(engine: &EventEngine<AsyncAdam2>, truth: &StepCdf) -> (f64, f64, f64, f64) {
    let mut maxp = 0.0f64;
    let mut sump = 0.0f64;
    let mut maxc = 0.0f64;
    let mut with = 0usize;
    let mut total = 0usize;
    for (_, node) in engine.nodes().iter() {
        total += 1;
        let Some(est) = node.estimate() else { continue };
        with += 1;
        accumulate(
            truth,
            &est.thresholds,
            &est.fractions,
            &est.cdf,
            &mut maxp,
            &mut sump,
            &mut maxc,
            with,
        );
    }
    (
        maxp,
        sump / with.max(1) as f64,
        maxc,
        with as f64 / total.max(1) as f64,
    )
}

#[allow(clippy::too_many_arguments)]
fn accumulate(
    truth: &StepCdf,
    thresholds: &[f64],
    fractions: &[f64],
    cdf: &InterpCdf,
    maxp: &mut f64,
    sump: &mut f64,
    maxc: &mut f64,
    nth: usize,
) {
    let mut peer_sum = 0.0f64;
    for (t, f) in thresholds.iter().zip(fractions) {
        let e = (truth.eval(*t) - f).abs();
        *maxp = maxp.max(e);
        peer_sum += e;
    }
    *sump += peer_sum / thresholds.len().max(1) as f64;
    // Whole-CDF error on a subsample (it is dominated by interpolation and
    // nearly identical across peers).
    if nth <= 16 {
        let (m, _) = discrete_errors_over(truth, cdf, truth.min(), truth.max());
        *maxc = maxc.max(m);
    }
}
