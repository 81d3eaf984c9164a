//! Reproduces Fig. 12: approximation error per round within a single
//! instance/phase under churn (0.1 % of nodes replaced per round), RAM.

use adam2_baselines::EquiDepthConfig;
use adam2_bench::{
    adam2_engine, current_truth, equidepth_engine, equidepth_truth, export_telemetry, fmt_err,
    maybe_attach_telemetry, run_instance_tracked, start_instance, start_phase, Args, AsciiChart,
    Table,
};
use adam2_core::{discrete_errors_over, Adam2Config};
use adam2_sim::{derive_seed, seeded_rng, ChurnModel};
use adam2_traces::Attribute;
use rand::RngExt as _;

fn main() {
    let mut args = Args::parse("fig12_churn_instance");
    if args.attrs.len() > 1 {
        args.attrs = vec![Attribute::Ram];
    }
    let rounds: u64 = args.extra_or("track-rounds", 80);
    let churn_rate: f64 = args.extra_or("churn", 0.001);
    args.print_header(
        "fig12_churn_instance",
        "Fig. 12 (single-instance accuracy under churn, RAM)",
    );
    println!("churn rate: {churn_rate} per round\n");
    let attr = args.attrs[0];
    let setup = adam2_bench::setup(attr, args.nodes, args.seed);

    // ---- (a) Adam2 under churn ------------------------------------------
    let config = Adam2Config::new()
        .with_lambda(args.lambda)
        .with_rounds_per_instance(rounds);
    let mut engine = adam2_engine(&setup, config, args.seed, ChurnModel::uniform(churn_rate));
    maybe_attach_telemetry(&mut engine, args.telemetry.as_ref());
    let meta = start_instance(&mut engine);
    let series = run_instance_tracked(
        &mut engine,
        &meta,
        current_truth,
        rounds,
        args.sample_peers,
        args.seed,
    );
    if let Some(dir) = &args.telemetry {
        export_telemetry(
            &mut engine,
            dir,
            "adam2",
            "fig12_churn_instance",
            &format!(
                "nodes={} lambda={} rounds={rounds} churn={churn_rate}",
                args.nodes, args.lambda
            ),
            args.seed,
        );
    }

    let mut table = Table::new(vec![
        "round",
        "adam2 max@points",
        "adam2 avg@points",
        "adam2 max CDF",
        "adam2 avg CDF",
    ]);
    for s in &series {
        if s.round <= 10 || s.round % 5 == 0 {
            table.row(vec![
                s.round.to_string(),
                fmt_err(s.max_points),
                fmt_err(s.avg_points),
                fmt_err(s.max_cdf),
                fmt_err(s.avg_cdf),
            ]);
        }
    }
    println!("(a) Adam2, single instance under churn:");
    table.print();
    println!();
    AsciiChart::new(64, 16)
        .log_y()
        .series(
            'M',
            "max@points",
            series
                .iter()
                .map(|s| (s.round as f64, s.max_points))
                .collect(),
        )
        .series(
            'a',
            "avg@points",
            series
                .iter()
                .map(|s| (s.round as f64, s.avg_points))
                .collect(),
        )
        .print();
    println!();

    // ---- (b) EquiDepth under churn ----------------------------------------
    let mut ed = equidepth_engine(
        &setup,
        EquiDepthConfig::new(args.lambda, rounds),
        args.seed,
        ChurnModel::uniform(churn_rate),
    );
    let phase = start_phase(&mut ed);
    let mut ed_table = Table::new(vec![
        "round",
        "equidepth max@bins",
        "equidepth avg@bins",
        "equidepth max CDF",
        "equidepth avg CDF",
    ]);
    let mut rng = seeded_rng(derive_seed(args.seed, 0xEDC));
    for r in 1..=rounds {
        ed.run_round();
        let truth = equidepth_truth(&ed);
        let mut participants = Vec::new();
        let mut max_bins = 0.0f64;
        let mut sum_bins = 0.0f64;
        let mut absent = 0usize;
        for (id, node) in ed.nodes().iter() {
            if node.joined_round() > phase.start_round {
                continue;
            }
            let syn = node.synopsis();
            if syn.len() < 2 {
                absent += 1;
                continue;
            }
            participants.push(id);
            let s = syn.len();
            let mut peer_sum = 0.0f64;
            for (i, b) in syn.iter().enumerate() {
                let e = (truth.eval(*b) - i as f64 / (s - 1) as f64).abs();
                max_bins = max_bins.max(e);
                peer_sum += e;
            }
            sum_bins += peer_sum / s as f64;
        }
        if absent > 0 {
            max_bins = 1.0;
        }
        let avg_bins = (sum_bins + absent as f64) / (participants.len() + absent).max(1) as f64;

        let mut max_cdf = if absent > 0 { 1.0 } else { 0.0f64 };
        let mut sum_cdf = 0.0f64;
        let samples = args.sample_peers.min(participants.len());
        for _ in 0..samples {
            let id = participants[rng.random_range(0..participants.len())];
            if let Some(cdf) = ed.nodes().get(id).and_then(|n| n.phase_estimate()) {
                let (m, a) = discrete_errors_over(&truth, &cdf, truth.min(), truth.max());
                max_cdf = max_cdf.max(m);
                sum_cdf += a;
            } else {
                sum_cdf += 1.0;
            }
        }
        let sampled_mean = if samples > 0 {
            sum_cdf / samples as f64
        } else {
            1.0
        };
        let avg_cdf = (sampled_mean * participants.len() as f64 + absent as f64)
            / (participants.len() + absent).max(1) as f64;
        if r <= 10 || r % 5 == 0 {
            ed_table.row(vec![
                r.to_string(),
                fmt_err(max_bins),
                fmt_err(avg_bins),
                fmt_err(max_cdf),
                fmt_err(avg_cdf),
            ]);
        }
    }
    println!("(b) EquiDepth, single phase under churn:");
    ed_table.print();
    println!();
    println!(
        "expected shape: Adam2's error at the interpolation points no longer converges to \
         zero under churn (departing nodes take un-averaged mass with them) but settles \
         around 1e-4..1e-3 — plenty for interpolation; EquiDepth is largely unaffected but \
         stuck at percent-level as before."
    );
}
