//! The protocols that used to run only on the engine's sequential round
//! (`MeanAggregation`, `ExtremaAggregation`, `CountAggregation`, EquiDepth,
//! equi-width) on the one round path: the serial slot-order loop and its
//! coloured schedule must leave bit-equal node state and traffic.

use std::fmt::Debug;

use rand::RngExt as _;

use adam2::baselines::{EquiDepthConfig, EquiDepthProtocol, EquiWidthConfig, EquiWidthProtocol};
use adam2::core::{CountAggregation, ExtremaAggregation, MeanAggregation};
use adam2::sim::{ChurnModel, Engine, EngineConfig, NodeTraffic, OverlayConfig, Protocol};

const NODES: usize = 300;
const ROUNDS: u64 = 20;

/// Runs `build()` for [`ROUNDS`] rounds under churn on the oracle and on a
/// shuffle overlay, at 1 and at 3 threads, after `prepare` (which starts a
/// phase or designates an initiator), and asserts that every node's state
/// and the per-node and total traffic are equal. Node state is compared
/// through `Debug`, which prints an `f64` exactly.
fn assert_thread_count_invariant<P>(build: impl Fn() -> P, prepare: impl Fn(&mut Engine<P>))
where
    P: Protocol,
    P::Node: Debug,
{
    for overlay in [OverlayConfig::oracle(), OverlayConfig::shuffle(10)] {
        let run = |threads: usize| {
            let config = EngineConfig::new(NODES, 17)
                .with_overlay(overlay)
                .with_churn(ChurnModel::uniform(0.01))
                .with_threads(threads);
            let mut engine = Engine::new(config, build());
            prepare(&mut engine);
            engine.run_rounds(ROUNDS);
            let nodes: Vec<(usize, String, NodeTraffic)> = engine
                .nodes()
                .iter()
                .map(|(id, node)| (id.slot(), format!("{node:?}"), engine.net().node(id)))
                .collect();
            (nodes, engine.net().total_bytes(), engine.net().total_msgs())
        };
        let serial = run(1);
        assert!(
            serial.2 >= 2 * NODES as u64 * (ROUNDS - 1),
            "every node gossips"
        );
        assert_eq!(run(3), serial, "{overlay:?}");
    }
}

fn values(rng: &mut rand::rngs::StdRng) -> f64 {
    rng.random_range(0.0..1000.0f64).round()
}

#[test]
fn mean_aggregation_is_thread_count_invariant() {
    assert_thread_count_invariant(|| MeanAggregation::new(values), |_| {});
}

#[test]
fn extrema_aggregation_is_thread_count_invariant() {
    assert_thread_count_invariant(|| ExtremaAggregation::new(values), |_| {});
}

#[test]
fn count_aggregation_is_thread_count_invariant() {
    assert_thread_count_invariant(CountAggregation::new, |engine| {
        engine.with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.designate_initiator(initiator, ctx);
        });
    });
}

// Phases of 12 rounds: the run covers discovery, merging, finalisation in
// the local step and the idle rounds after it.

#[test]
fn equidepth_is_thread_count_invariant() {
    assert_thread_count_invariant(
        || EquiDepthProtocol::new(EquiDepthConfig::new(20, 12), values),
        |engine| {
            engine.with_ctx(|proto, ctx| {
                let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
                proto.start_phase(initiator, ctx).expect("phase started");
            });
        },
    );
}

#[test]
fn equiwidth_is_thread_count_invariant() {
    assert_thread_count_invariant(
        || EquiWidthProtocol::new(EquiWidthConfig::new(20, 12, (0.0, 1000.0)), values),
        |engine| {
            engine.with_ctx(|proto, ctx| {
                let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
                proto.start_phase(initiator, ctx).expect("phase started");
            });
        },
    );
}
