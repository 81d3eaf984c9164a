//! Reproduces Section VII-I (cost evaluation): communication cost per node
//! for Adam2, EquiDepth and random sampling.
//!
//! Paper reference numbers at λ = 50, 25 rounds/instance: ≈800 B per
//! gossip message, ≈40 kB sent per node per instance (50 messages),
//! ≈120 kB / 150 messages for the 3-instance converged estimate —
//! independent of system size. Random sampling needs 1 000-10 000 samples
//! × ~10 walk hops ⇒ 10 000-100 000 messages.

use adam2_baselines::{sampling_cost_messages, EquiDepthConfig};
use adam2_bench::{
    adam2_engine, complete_instance, equidepth_engine, start_instance, start_phase, Args, Table,
};
use adam2_core::{wire, Adam2Config};
use adam2_sim::ChurnModel;

fn main() {
    let mut args = Args::parse("cost_table");
    if args.extra("rounds-set").is_none() {
        // The paper's cost accounting uses 25-round instances.
        args.rounds = args.extra_parsed("rounds").unwrap_or(None).unwrap_or(25);
    }
    args.print_header("cost_table", "Section VII-I (communication cost)");
    let instances: usize = args.extra_or("instances", 3);

    let attr = args.attrs[0];
    let setup = adam2_bench::setup(attr, args.nodes, args.seed);

    // ---- Adam2 ------------------------------------------------------------
    let config = Adam2Config::new()
        .with_lambda(args.lambda)
        .with_rounds_per_instance(args.rounds);
    let mut engine = adam2_engine(&setup, config, args.seed, ChurnModel::None);
    let mut per_instance_bytes = Vec::new();
    for _ in 0..instances {
        let before = engine.net().total_bytes();
        start_instance(&mut engine);
        complete_instance(&mut engine, args.rounds);
        let delta = engine.net().total_bytes() - before;
        per_instance_bytes.push(delta as f64 / args.nodes as f64); // one sender per message
    }
    let sent = engine.net().sent_bytes_summary(engine.nodes().ids());
    let total_msgs_per_node = engine.net().total_msgs() as f64 / args.nodes as f64;

    // ---- EquiDepth ---------------------------------------------------------
    let mut ed = equidepth_engine(
        &setup,
        EquiDepthConfig::new(args.lambda, args.rounds),
        args.seed,
        ChurnModel::None,
    );
    for _ in 0..instances {
        start_phase(&mut ed);
        complete_instance(&mut ed, args.rounds);
    }
    let ed_sent = ed.net().sent_bytes_summary(ed.nodes().ids());

    let mut table = Table::new(vec!["quantity", "measured", "paper"]);
    table.row(vec![
        format!("adam2 message size (lambda={})", args.lambda),
        format!("{} B", wire::payload_len(args.lambda, 0) + 2),
        "~800 B".into(),
    ]);
    table.row(vec![
        "adam2 sent per node per instance".into(),
        format!(
            "{:.1} kB",
            per_instance_bytes.iter().sum::<f64>() / instances as f64 / 1000.0
        ),
        "~40 kB".into(),
    ]);
    table.row(vec![
        format!("adam2 sent per node, {instances} instances"),
        format!(
            "{:.1} kB (mean; max {:.1} kB)",
            sent.mean() / 1000.0,
            sent.max() / 1000.0
        ),
        "~120 kB".into(),
    ]);
    table.row(vec![
        format!("adam2 messages per node, {instances} instances"),
        format!("{total_msgs_per_node:.0} sent"),
        "~150".into(),
    ]);
    table.row(vec![
        "adam2 bandwidth at 1 s gossip period".into(),
        format!(
            "{:.2} kB/s over {} s",
            sent.mean() / 1000.0 / (instances as f64 * (args.rounds + 1) as f64),
            instances as f64 * (args.rounds + 1) as f64
        ),
        "~1.6 kB/s over 75 s".into(),
    ]);
    table.row(vec![
        format!("equidepth sent per node, {instances} phases"),
        format!("{:.1} kB", ed_sent.mean() / 1000.0),
        "similar to adam2".into(),
    ]);
    table.row(vec![
        "random sampling, 1000 samples".into(),
        format!("{} msgs", sampling_cost_messages(1000, 10)),
        "1000 walks x hops".into(),
    ]);
    table.row(vec![
        "random sampling, 10000 samples".into(),
        format!("{} msgs", sampling_cost_messages(10_000, 10)),
        "10x more".into(),
    ]);
    table.print();
    println!();
    println!("note: cost per node is independent of system size — rerun with --nodes to verify.");
    table.maybe_write_csv(args.csv.as_deref());
}
