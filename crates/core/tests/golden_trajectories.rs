//! Golden trajectory fingerprints, recorded at the commit before the event
//! engine's sequential driver and the engines' duplicated fault-round logic
//! were deleted (PR 13's parent, 01ac495). The two drivers that survive —
//! `run_until_parallel` and `run_rounds` — must keep producing these exact
//! values: node state, counters, traffic and the `FaultTrace`, fault-free
//! and under a scenario that exercises every fault axis at once. The cycle
//! constant is the one that commit's `run_rounds_parallel` produced: the
//! phase-split round it ran is the only cycle round since the shuffled
//! sequential `run_round` (and its `CYCLE_SEQ_HOSTILE`) was deleted.

use std::sync::Arc;

use adam2_core::{
    Adam2Config, Adam2Node, Adam2Protocol, AsyncAdam2, AttrValue, InstanceId, InstanceMeta,
};
use adam2_sim::{
    AdversaryModel, DriftModel, Engine, EngineConfig, EventConfig, EventEngine, FaultScenario,
    FaultTrace, LatencyModel, NodeSlab, PartitionKind,
};

const NODES: usize = 10_000;
const SEED: u64 = 4242;
const PERIOD: u64 = 100;
const ROUNDS: u64 = 20;
const LAMBDA: usize = 10;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

fn values() -> Vec<f64> {
    (0..NODES).map(|i| ((i * 7919) % 1000) as f64).collect()
}

/// Every fault axis, overlapping: burst loss, a bisecting partition, a
/// crash wave with delayed recovery, duplication, extra delay, two drift
/// models and one adversary window. The duplication rate keeps the
/// parent's count-bounded dedup window from overflowing, so its
/// suppression is exact there too.
fn hostile() -> FaultScenario {
    FaultScenario::new(31)
        .with_burst_loss(3, 6, 0.3)
        .with_partition(5, 9, PartitionKind::Bisect)
        .with_crash_recover(4, 10, 0.1)
        .with_duplication(2, 8, 0.2)
        .with_delay(6, 8, 30)
        .with_drift(7, 12, DriftModel::Jitter { sigma: 5.0 })
        .with_drift(9, 11, DriftModel::Replacement { rate: 0.05 })
        .with_adversary(
            10,
            14,
            0.05,
            AdversaryModel::ValuePoisoning { magnitude: 2.0 },
        )
}

fn node_fingerprint(nodes: &NodeSlab<Adam2Node>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (id, node) in nodes.iter() {
        h = mix(h, id.slot() as u64);
        if let AttrValue::Single(v) = node.value() {
            h = mix(h, v.to_bits());
        }
        for inst in node.active_instances() {
            h = mix(h, inst.weight.to_bits());
            for f in &inst.fractions {
                h = mix(h, f.to_bits());
            }
        }
        if let Some(est) = node.estimate() {
            for f in &est.fractions {
                h = mix(h, f.to_bits());
            }
            h = mix(h, est.n_hat.map_or(0, f64::to_bits));
        }
    }
    mix(h, nodes.len() as u64)
}

fn trace_fingerprint(trace: &FaultTrace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in &trace.records {
        h = mix(h, r.round);
        h = mix(h, r.loss_rate.to_bits());
        h = mix(h, u64::from(r.partition_active));
        h = mix(h, r.partition_checksum);
        for &slot in &r.crashed {
            h = mix(h, u64::from(slot));
        }
        h = mix(h, u64::from(r.recovered));
        h = mix(h, u64::from(r.byzantine));
        h = mix(h, u64::from(r.drifted));
    }
    h
}

/// Field-by-field comparison, so a divergence names the field.
fn assert_traces_equal(a: &FaultTrace, b: &FaultTrace) {
    assert_eq!(a.len(), b.len(), "record count");
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.round, y.round, "round");
        let round = x.round;
        assert_eq!(
            x.loss_rate.to_bits(),
            y.loss_rate.to_bits(),
            "loss_rate @{round}"
        );
        assert_eq!(
            x.partition_active, y.partition_active,
            "partition_active @{round}"
        );
        assert_eq!(
            x.partition_checksum, y.partition_checksum,
            "partition_checksum @{round}"
        );
        assert_eq!(x.crashed, y.crashed, "crashed @{round}");
        assert_eq!(x.recovered, y.recovered, "recovered @{round}");
        assert_eq!(x.byzantine, y.byzantine, "byzantine @{round}");
        assert_eq!(x.drifted, y.drifted, "drifted @{round}");
    }
}

/// `(nodes, counters, trace)` fingerprints plus the raw trace.
type Golden = ([u64; 3], FaultTrace);

fn event_run(threads: usize, scenario: Option<FaultScenario>) -> Golden {
    let proto = AsyncAdam2::with_population(PERIOD, values(), |_| 500.0);
    let config = EventConfig::new(NODES, SEED)
        .with_gossip_period(PERIOD)
        .with_latency(LatencyModel::Uniform { min: 5, max: 40 })
        .with_threads(threads);
    let mut engine = EventEngine::new(config, proto);
    if let Some(s) = scenario {
        engine.set_fault_scenario(s).expect("valid scenario");
    }
    let meta = Arc::new(InstanceMeta {
        id: InstanceId::derive(0, 0, 1),
        thresholds: (1..=LAMBDA)
            .map(|i| i as f64 * 1000.0 / (LAMBDA + 1) as f64)
            .collect::<Vec<_>>()
            .into(),
        verify_thresholds: Vec::new().into(),
        start_round: 0,
        end_round: ROUNDS,
        multi: false,
    });
    engine.with_ctx(|proto, ctx| {
        let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
        proto.start_instance(initiator, meta.clone(), ctx)
    });
    // Stop mid-instance once so in-flight state is fingerprinted too.
    engine.run_until_parallel(PERIOD * 12 + 37);
    let mid = node_fingerprint(engine.nodes());
    engine.run_until_parallel(PERIOD * (ROUNDS + 2));
    let mut counters = mix(mid, engine.delivered_count());
    for c in [
        engine.lost_count(),
        engine.duplicated_count(),
        engine.dup_dropped_count(),
        engine.net().total_bytes(),
        engine.net().total_msgs(),
        engine.protocol().completed_count(),
        engine.pending_events() as u64,
    ] {
        counters = mix(counters, c);
    }
    let trace = engine.fault_trace().cloned().unwrap_or_default();
    (
        [
            node_fingerprint(engine.nodes()),
            counters,
            trace_fingerprint(&trace),
        ],
        trace,
    )
}

fn cycle_run(threads: usize, through_alias: bool, scenario: FaultScenario) -> Golden {
    let config = Adam2Config::new()
        .with_lambda(LAMBDA)
        .with_rounds_per_instance(ROUNDS);
    let proto = Adam2Protocol::with_population(config, values(), |_| 500.0);
    let engine_config = EngineConfig::new(NODES, SEED)
        .with_loss_rate(0.02)
        .with_threads(threads);
    let mut engine = Engine::new(engine_config, proto);
    engine.set_fault_scenario(scenario).expect("valid scenario");
    engine.with_ctx(|proto, ctx| {
        let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
        proto.start_instance(initiator, ctx)
    });
    if through_alias {
        engine.run_rounds_parallel(ROUNDS + 2);
    } else {
        engine.run_rounds(ROUNDS + 2);
    }
    let mut counters = mix(engine.net().total_bytes(), engine.net().total_msgs());
    counters = mix(counters, engine.protocol().completed_count());
    let trace = engine.fault_trace().cloned().expect("scenario attached");
    (
        [
            node_fingerprint(engine.nodes()),
            counters,
            trace_fingerprint(&trace),
        ],
        trace,
    )
}

const EVENT_FAULT_FREE: [u64; 3] = [
    0x2dea_6454_14a4_8d6e,
    0x0348_5d31_bf9b_4407,
    0xcbf2_9ce4_8422_2325,
];
const EVENT_HOSTILE: [u64; 3] = [
    0xce2d_c08e_6bdf_04d4,
    0xaa5e_a82d_86d3_f003,
    0xaebc_f8d9_8bb2_2671,
];
const CYCLE_PAR_HOSTILE: [u64; 3] = [
    0x7199_3b7b_f4e2_7266,
    0x985c_bb7d_8a0d_39b7,
    0xcbe0_1269_788f_5d89,
];

#[test]
fn event_driver_fault_free_matches_the_parent() {
    let (t1, _) = event_run(1, None);
    let (t4, _) = event_run(4, None);
    assert_eq!(t1, t4, "thread-count invariance");
    assert_eq!(t1, EVENT_FAULT_FREE, "fingerprint moved: {t1:#x?}");
}

#[test]
fn event_driver_under_every_fault_axis_matches_the_parent() {
    let (t1, trace1) = event_run(1, Some(hostile()));
    let (t4, trace4) = event_run(4, Some(hostile()));
    assert_traces_equal(&trace1, &trace4);
    assert!(trace1.total_crashed() > 0 && trace1.total_recovered() == trace1.total_crashed());
    assert!(trace1.records.iter().any(|r| r.drifted > 0));
    assert!(trace1.records.iter().any(|r| r.byzantine > 0));
    assert_eq!(t1, t4, "thread-count invariance");
    assert_eq!(t1, EVENT_HOSTILE, "fingerprint moved: {t1:#x?}");
}

#[test]
fn cycle_engine_under_every_fault_axis_matches_the_parent() {
    let (t1, trace1) = cycle_run(1, false, hostile());
    let (t4, trace4) = cycle_run(4, false, hostile());
    let (alias, _) = cycle_run(2, true, hostile());
    assert_traces_equal(&trace1, &trace4);
    assert_eq!(t1, t4, "thread-count invariance");
    assert_eq!(alias, t1, "run_rounds_parallel is run_rounds");
    assert_eq!(t1, CYCLE_PAR_HOSTILE, "fingerprint moved: {t1:#x?}");
}
