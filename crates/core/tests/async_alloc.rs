//! Allocation budget of one asynchronous exchange.
//!
//! The event engine's protocol layer used to spend ≈ 23 heap allocations
//! per exchange on copies nobody kept (thresholds into every message, a
//! rebuilt `Arc<InstanceMeta>` per received payload, a clone to get a
//! `&mut`). An exchange now allocates once, on the initiator's timer — the
//! snapshot list and one vector per averaged component — and the response
//! travels back in the same buffers. This test counts every allocation the
//! process makes, so it is the only test in its binary and runs the engine
//! on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adam2_core::{AsyncAdam2, InstanceId, InstanceMeta};
use adam2_sim::{EventConfig, EventEngine, LatencyModel};

struct Counting;

/// Calls that hand out memory: `alloc`, `alloc_zeroed` (through `alloc`)
/// and `realloc`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 10_000;
const PERIOD: u64 = 100;
const ROUNDS: u64 = 40;
const LAMBDA: usize = 50;

/// Allocations per completed exchange over five gossip periods in the
/// middle of an instance every node has long joined.
fn steady_state_allocations_per_exchange(verify_points: usize) -> f64 {
    let values: Vec<f64> = (0..NODES).map(|i| ((i * 7919) % 1000) as f64).collect();
    let proto = AsyncAdam2::with_population(PERIOD, values, |_| 500.0);
    let config = EventConfig::new(NODES, 9)
        .with_gossip_period(PERIOD)
        .with_latency(LatencyModel::Uniform { min: 10, max: 60 })
        .with_threads(1);
    let mut engine = EventEngine::new(config, proto);
    let points = |n: usize| -> Arc<[f64]> {
        (1..=n)
            .map(|i| i as f64 * 1000.0 / (n + 1) as f64)
            .collect::<Vec<_>>()
            .into()
    };
    let meta = Arc::new(InstanceMeta {
        id: InstanceId::derive(0, 0, 1),
        thresholds: points(LAMBDA),
        verify_thresholds: points(verify_points),
        start_round: 0,
        end_round: ROUNDS,
        multi: false,
    });
    engine.with_ctx(|proto, ctx| {
        let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
        proto.start_instance(initiator, meta.clone(), ctx)
    });
    // A node joins when a request reaches it, so the last of 10⁴ nodes
    // joins in period 26 at this seed; above 8 192 live nodes the engine
    // hints state ahead, which the measured periods must include.
    engine.run_until_parallel(PERIOD * 30);
    let nodes = engine.nodes().iter();
    let joined = nodes.filter(|(_, node)| node.active_instance(meta.id).is_some());
    assert_eq!(joined.count(), NODES, "the instance has spread");

    let (allocations, delivered) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        engine.delivered_count(),
    );
    engine.run_until_parallel(PERIOD * 35);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let exchanges = (engine.delivered_count() - delivered) / 2;
    assert!(exchanges >= 4 * NODES as u64, "{exchanges} exchanges");
    allocations as f64 / exchanges as f64
}

#[test]
fn an_exchange_allocates_once() {
    let plain = steady_state_allocations_per_exchange(0);
    let verified = steady_state_allocations_per_exchange(20);
    println!(
        "allocations per exchange: {plain:.2} without verification points, {verified:.2} with"
    );
    assert!(plain <= 3.0, "{plain:.2} allocations per exchange");
    assert!(
        verified <= 4.0,
        "{verified:.2} allocations per exchange with verification points"
    );
}
