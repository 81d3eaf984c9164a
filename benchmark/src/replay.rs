//! Kernel replays of the traced run: each layer's public kernel timed
//! alone, on state shaped like the workload (its node count, λ, verify
//! points and overlay). They run only when tracing is on, after the
//! workload itself, so they cannot disturb an end-to-end metric.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::RngExt as _;

use adam2_core::runtime::{serve_exchange, PendingExchange};
use adam2_core::wire::GossipMessage;
use adam2_core::{
    select_thresholds, uniform_points, verification_thresholds, Adam2Config, Adam2Node, AttrValue,
    ErrorMetric, InstanceId, InstanceLocal, InstanceMeta, RobustPolicy, SelectionInput,
};
use adam2_deploy::frame::Frame;
use adam2_sim::peersampling::ps_exchange;
use adam2_sim::{
    derive_seed, seeded_rng, NodeId, NodeSlab, Overlay, OverlayConfig, PsView, TimerWheel,
};
use adam2_traces::{Attribute, Population};

use crate::measure::median;
use crate::outcome::Layers;
use crate::spec::{LAMBDA, ROUNDS};

/// How a workload shapes the replayed state.
pub struct Shape {
    pub nodes: usize,
    pub verify_points: usize,
    pub shuffle_degree: Option<usize>,
    /// Event delay range in ticks and the gossip period, for the wheel.
    pub latency: (u64, u64),
    pub period: u64,
}

/// Batches per kernel; the reported value is the median batch.
const BATCHES: usize = 5;
/// Random pairs merged per batch of the cold-merge replay.
const COLD_PAIRS: usize = 40_000;
/// Nodes removed from and re-registered with the overlay.
const OVERLAY_CHURN: usize = 1000;
/// Most events the wheel replay schedules.
const WHEEL_EVENTS: usize = 400_000;

/// Median over [`BATCHES`] batches of the mean nanoseconds per call of `f`.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

pub fn run(shape: &Shape, seed: u64) -> Layers {
    let mut layers = Layers::default();
    let mut rng = seeded_rng(derive_seed(seed, 0x7e_91a7));
    let population = Population::generate(Attribute::Ram, shape.nodes, &mut rng);
    let values = population.values();
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    let meta = Arc::new(InstanceMeta {
        id: InstanceId::from_u64(1),
        thresholds: uniform_points(lo, hi, LAMBDA).into(),
        verify_thresholds: verification_thresholds(
            ErrorMetric::Average,
            None,
            shape.verify_points,
            lo,
            hi,
        )
        .into(),
        start_round: 0,
        end_round: ROUNDS,
        multi: false,
    });
    let value = |i: usize| AttrValue::Single(values[i % values.len()]);

    // core.instance: the pairwise merge resident in cache, then over a
    // working set of one state per node.
    let mut a = InstanceLocal::join(meta.clone(), &value(0), true);
    let mut b = InstanceLocal::join(meta.clone(), &value(1), false);
    layers.set(
        "core.instance.merge_ns_hot",
        ns_per_call(200_000, |_| {
            InstanceLocal::merge_symmetric(black_box(&mut a), black_box(&mut b));
        }),
    );
    let mut states: Vec<InstanceLocal> = Vec::with_capacity(shape.nodes);
    layers.set("core.instance.join_ns", {
        let t0 = Instant::now();
        states
            .extend((0..shape.nodes).map(|i| InstanceLocal::join(meta.clone(), &value(i), i == 0)));
        t0.elapsed().as_nanos() as f64 / shape.nodes as f64
    });
    let pairs: Vec<(usize, usize)> = (0..COLD_PAIRS)
        .map(|_| {
            let i = rng.random_range(0..shape.nodes);
            let j = (i + rng.random_range(1..shape.nodes)) % shape.nodes;
            (i.min(j), i.max(j))
        })
        .collect();
    layers.set(
        "core.instance.merge_ns_cold",
        ns_per_call(COLD_PAIRS, |k| {
            let (i, j) = pairs[k];
            let (head, tail) = states.split_at_mut(j);
            InstanceLocal::merge_symmetric(&mut head[i], &mut tail[0]);
        }),
    );
    drop(states);
    assert!(a.finalize(ROUNDS).is_ok(), "replayed state finalises");
    layers.set(
        "core.instance.finalize_ns",
        ns_per_call(20_000, |_| {
            black_box(black_box(&a).finalize(ROUNDS).ok());
        }),
    );

    // core.aggregation: the hardened merge on the same resident pair.
    let policy = RobustPolicy::new()
        .with_trim_fraction(0.0)
        .with_influence_cap(0.25);
    layers.set(
        "core.aggregation.robust_merge_ns",
        ns_per_call(100_000, |_| {
            black_box(InstanceLocal::merge_symmetric_robust(
                black_box(&mut a),
                black_box(&mut b),
                &policy,
            ));
        }),
    );

    // core.wire: one instance's snapshot to bytes and back.
    let msg = GossipMessage::from_locals([&a]);
    let encoded = msg.encode();
    layers.set(
        "core.wire.from_locals_ns",
        ns_per_call(100_000, |_| {
            black_box(GossipMessage::from_locals([black_box(&a)]));
        }),
    );
    layers.set(
        "core.wire.encode_ns",
        ns_per_call(100_000, |_| {
            black_box(black_box(&msg).encode());
        }),
    );
    layers.set(
        "core.wire.decode_ns",
        ns_per_call(100_000, |_| {
            black_box(GossipMessage::decode(encoded.clone()).ok());
        }),
    );
    layers.set("core.wire.bytes_per_msg", encoded.len() as f64);

    // core.runtime: the sans-IO exchange on two nodes mid-instance.
    let mut initiator = Adam2Node::new(value(0), 100.0);
    let mut responder = Adam2Node::new(value(1), 100.0);
    initiator.begin_instance(meta.clone());
    responder.join_instance_passively(meta.clone());
    let round = ROUNDS / 2;
    let pending = PendingExchange::begin(&initiator, round, 1, 2);
    let (response, _) = serve_exchange(&mut responder, &pending.sent, round);
    layers.set(
        "core.runtime.serve_ns",
        ns_per_call(50_000, |_| {
            black_box(serve_exchange(
                black_box(&mut responder),
                &pending.sent,
                round,
            ));
        }),
    );
    layers.set(
        "core.runtime.absorb_ns",
        ns_per_call(50_000, |_| {
            black_box(pending.absorb(black_box(&mut initiator), &response));
        }),
    );
    layers.set(
        "core.runtime.exchange_ns",
        ns_per_call(50_000, |i| {
            let pending = PendingExchange::begin(&initiator, round, i as u64, 2);
            let (response, _) = serve_exchange(&mut responder, &pending.sent, round);
            black_box(pending.absorb(&mut initiator, &response));
        }),
    );

    // core.selection: refinement thresholds from a completed estimate.
    let prev = a.finalize(ROUNDS).expect("replayed state finalises");
    let config = Adam2Config::new();
    layers.set(
        "core.selection.thresholds_ns",
        ns_per_call(2_000, |_| {
            let input = SelectionInput {
                prev: Some(&prev),
                neighbour_values: &[],
                domain_hint: None,
            };
            black_box(select_thresholds(
                config.bootstrap,
                config.refine,
                input,
                LAMBDA,
                &mut rng,
            ));
        }),
    );

    overlay(shape, &mut rng, &mut layers);
    wheel(shape, &mut rng, &mut layers);

    // deploy.frame: the request frame around the same snapshot.
    let frame = Frame::Request {
        sender_port: 40_000,
        msg,
    };
    let framed = frame.encode();
    layers.set(
        "deploy.frame.encode_ns",
        ns_per_call(100_000, |_| {
            black_box(black_box(&frame).encode());
        }),
    );
    layers.set(
        "deploy.frame.decode_ns",
        ns_per_call(100_000, |_| {
            black_box(Frame::decode(framed.slice(4..)).ok());
        }),
    );
    layers.set("deploy.frame.bytes_per_request", framed.len() as f64);
    layers
}

/// sim.overlay / sim.peersampling at the workload's node count and overlay.
fn overlay(shape: &Shape, rng: &mut rand::rngs::StdRng, layers: &mut Layers) {
    let config = shape
        .shuffle_degree
        .map_or(OverlayConfig::oracle(), OverlayConfig::shuffle);
    let mut slab: NodeSlab<()> = NodeSlab::with_capacity(shape.nodes);
    let ids: Vec<NodeId> = (0..shape.nodes).map(|_| slab.insert(())).collect();
    let mut overlay = Overlay::new(config);
    for id in &ids {
        overlay.register_node(*id, &slab, rng);
    }
    let maintain: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            overlay.maintain(&slab, rng);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.set("sim.overlay.maintain_ms", median(&maintain));
    layers.set(
        "sim.overlay.random_neighbour_ns",
        ns_per_call(200_000, |i| {
            black_box(overlay.random_neighbour(ids[i % ids.len()], &slab, rng));
        }),
    );
    let churned = &ids[..OVERLAY_CHURN.min(ids.len())];
    let (mut remove, mut register) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for id in churned {
            overlay.remove_node(*id);
        }
        remove.push(t0.elapsed().as_nanos() as f64 / churned.len() as f64);
        let t0 = Instant::now();
        for id in churned {
            overlay.register_node(*id, &slab, rng);
        }
        register.push(t0.elapsed().as_nanos() as f64 / churned.len() as f64);
    }
    layers.set("sim.overlay.remove_ns", median(&remove));
    layers.set("sim.overlay.register_ns", median(&register));

    let policy = overlay.sampling_policy();
    let view = |of: usize, rng: &mut rand::rngs::StdRng| {
        let mut view = PsView::new();
        for _ in 0..config.degree {
            let peer = ids[rng.random_range(0..ids.len())];
            if peer != ids[of] {
                view.insert(peer, rng.random_range(0..8));
            }
        }
        view
    };
    let (mut va, mut vb) = (view(0, rng), view(1, rng));
    layers.set(
        "sim.peersampling.ps_exchange_ns",
        ns_per_call(20_000, |_| {
            ps_exchange(ids[0], &mut va, ids[1], &mut vb, &policy, rng)
        }),
    );
}

/// sim.wheel: the events of a few gossip periods (a timer fire and two
/// messages per node and period) pushed with the workload's delays, then
/// popped in order.
fn wheel(shape: &Shape, rng: &mut rand::rngs::StdRng, layers: &mut Layers) {
    let events = (3 * shape.nodes).min(WHEEL_EVENTS);
    let (min, max) = shape.latency;
    let schedule: Vec<(u64, u32)> = (0..events)
        .map(|_| {
            let at = rng.random_range(0..shape.period) + rng.random_range(min..=max);
            (at, rng.random_range(0..shape.nodes as u32))
        })
        .collect();
    let (mut push, mut pop) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(shape.period + max, 4);
        let t0 = Instant::now();
        for (at, slot) in &schedule {
            wheel.push(*at, *slot, *slot);
        }
        push.push(t0.elapsed().as_nanos() as f64 / events as f64);
        let t0 = Instant::now();
        while let Some(event) = wheel.pop_at_or_before(u64::MAX) {
            black_box(event);
        }
        pop.push(t0.elapsed().as_nanos() as f64 / events as f64);
    }
    layers.set("sim.wheel.push_ns", median(&push));
    layers.set("sim.wheel.pop_ns", median(&pop));
    layers.set("sim.wheel.events", events as f64);
}
