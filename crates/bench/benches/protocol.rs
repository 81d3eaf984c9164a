//! Macro-benchmarks: full simulation rounds of the Adam2 protocol at
//! various system sizes, with and without an active aggregation instance,
//! and against the EquiDepth baseline.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use adam2_baselines::{EquiDepthConfig, EquiDepthProtocol};
use adam2_bench::{
    adam2_engine, adam2_engine_with, equidepth_engine, setup, start_instance, start_phase,
};
use adam2_core::{
    uniform_points, Adam2Config, Adam2Protocol, AsyncAdam2, InstanceId, InstanceMeta,
};
use adam2_sim::{ChurnModel, Engine, EventConfig, EventEngine, LatencyModel};
use adam2_traces::Attribute;

fn adam2_round_engine(nodes: usize, with_instance: bool, threads: usize) -> Engine<Adam2Protocol> {
    let s = setup(Attribute::Ram, nodes, 42);
    // A duration long enough that the benchmark never finalises it.
    let config = Adam2Config::new()
        .with_lambda(50)
        .with_rounds_per_instance(1_000_000);
    let mut engine = adam2_engine_with(&s, config, 42, |c| c.with_threads(threads));
    if with_instance {
        start_instance(&mut engine);
        // Let the instance spread so rounds carry full payloads.
        engine.run_rounds(10);
    }
    engine
}

fn equidepth_round_engine(nodes: usize) -> Engine<EquiDepthProtocol> {
    let s = setup(Attribute::Ram, nodes, 42);
    let mut engine = equidepth_engine(
        &s,
        EquiDepthConfig::new(50, 1_000_000),
        42,
        ChurnModel::None,
    );
    start_phase(&mut engine);
    engine.run_rounds(10);
    engine
}

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("round");
    for nodes in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(nodes as u64));
        group.bench_with_input(BenchmarkId::new("adam2_idle", nodes), &nodes, |b, &n| {
            let mut engine = adam2_round_engine(n, false, 1);
            b.iter(|| engine.run_round());
        });
        // One thread (the slot-order loop) and the auto-detected thread
        // count (the same plan as a coloured schedule).
        for (name, threads) in [
            ("adam2_instance_lambda50", 1),
            ("adam2_instance_lambda50_auto", 0),
        ] {
            group.bench_with_input(BenchmarkId::new(name, nodes), &nodes, |b, &n| {
                let mut engine = adam2_round_engine(n, true, threads);
                b.iter(|| engine.run_round());
            });
        }
        group.bench_with_input(
            BenchmarkId::new("equidepth_bins50", nodes),
            &nodes,
            |b, &n| {
                let mut engine = equidepth_round_engine(n);
                b.iter(|| engine.run_round());
            },
        );
    }
    group.finish();
}

fn bench_event_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_round");
    for nodes in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(nodes as u64));
        group.bench_with_input(
            BenchmarkId::new("async_adam2_lambda50", nodes),
            &nodes,
            |b, &n| {
                let s = setup(Attribute::Ram, n, 42);
                let period = 1000u64;
                let pop = s.population.clone();
                let proto =
                    AsyncAdam2::with_population(period, pop.values().to_vec(), move |rng| {
                        pop.draw_fresh(rng)
                    });
                let config = EventConfig::new(n, 42)
                    .with_gossip_period(period)
                    .with_latency(LatencyModel::Uniform { min: 10, max: 150 });
                let mut engine = EventEngine::new(config, proto);
                let meta = Arc::new(InstanceMeta {
                    id: InstanceId::derive(0, 0, 1),
                    thresholds: uniform_points(s.truth.min(), s.truth.max(), 50).into(),
                    verify_thresholds: Vec::new().into(),
                    start_round: 0,
                    end_round: 1_000_000,
                    multi: false,
                });
                engine.with_ctx(|proto, ctx| {
                    let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
                    proto.start_instance(initiator, meta.clone(), ctx)
                });
                engine.run_until_parallel(period * 10);
                let mut until = engine.now();
                b.iter(|| {
                    // One gossip period of event processing per iteration.
                    until += period;
                    engine.run_until_parallel(until);
                });
            },
        );
    }
    group.finish();
}

fn bench_churn_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_churn");
    let nodes = 10_000usize;
    group.throughput(Throughput::Elements(nodes as u64));
    for (label, churn) in [
        ("none", ChurnModel::None),
        ("uniform_0.001", ChurnModel::uniform(0.001)),
        ("uniform_0.01", ChurnModel::uniform(0.01)),
    ] {
        group.bench_function(BenchmarkId::new("adam2", label), |b| {
            let s = setup(Attribute::Ram, nodes, 42);
            let config = Adam2Config::new()
                .with_lambda(50)
                .with_rounds_per_instance(1_000_000);
            let mut engine = adam2_engine(&s, config, 42, churn);
            start_instance(&mut engine);
            engine.run_rounds(10);
            b.iter(|| engine.run_round());
        });
    }
    group.finish();
}

criterion_group! {
    name = protocol;
    config = Criterion::default().sample_size(10);
    targets = bench_rounds, bench_event_engine, bench_churn_overhead
}
criterion_main!(protocol);
