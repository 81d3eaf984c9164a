//! Allocation budget of one cycle-engine exchange.
//!
//! A push–pull exchange in the cycle engine touches two nodes that already
//! hold every instance they share, so it has nothing to allocate: the
//! instances both sides announce are tracked by their `Copy` ids (the
//! shared `Arc<InstanceMeta>` is cloned only when a join stores it), and
//! the robust merge trims and caps in place at any trim fraction. This
//! test counts every allocation the process makes, so it is the only test
//! in its binary and runs the engine on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adam2_core::{Adam2Config, Adam2Protocol, RobustPolicy};
use adam2_sim::{Engine, EngineConfig, ExchangeRepair};

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

/// Above the population from which the engine's apply walker hints the
/// next exchanges' state, so the measured rounds run that walker.
const NODES: usize = 10_000;
const LAMBDA: usize = 50;
const VERIFY_POINTS: usize = 20;
const ROUNDS: u64 = 30;

/// Allocations per exchange over ten rounds in the middle of an instance
/// every node has joined.
fn steady_state_allocations_per_exchange(robust: Option<RobustPolicy>, lossy: bool) -> f64 {
    let mut config = Adam2Config::new()
        .with_lambda(LAMBDA)
        .with_verify_points(VERIFY_POINTS)
        .with_rounds_per_instance(ROUNDS);
    if let Some(policy) = robust {
        config = config.with_robust(policy);
    }
    let values: Vec<f64> = (0..NODES).map(|i| ((i * 7919) % 1000) as f64).collect();
    let proto = Adam2Protocol::with_population(config, values, |_| 500.0);
    let mut engine_config = EngineConfig::new(NODES, 9).with_threads(1);
    if lossy {
        engine_config = engine_config
            .with_loss_rate(0.1)
            .with_repair(ExchangeRepair::enabled());
    }
    let mut engine = Engine::new(engine_config, proto);
    let meta = engine
        .with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.start_instance(initiator, ctx)
        })
        .expect("instance started");
    engine.run_rounds(ROUNDS / 3);
    let nodes = engine.nodes().iter();
    let joined = nodes.filter(|(_, node)| node.active_instance(meta.id).is_some());
    assert_eq!(joined.count(), NODES, "the instance has spread");

    let (allocations, msgs) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        engine.net().total_msgs(),
    );
    engine.run_rounds(10);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let exchanges = (engine.net().total_msgs() - msgs) / 2;
    assert!(exchanges >= 8 * NODES as u64, "{exchanges} exchanges");
    allocations as f64 / exchanges as f64
}

#[test]
fn a_cycle_exchange_allocates_nothing() {
    let policies = [
        ("vanilla", None),
        (
            "robust trim 0",
            Some(
                RobustPolicy::new()
                    .with_trim_fraction(0.0)
                    .with_influence_cap(0.25),
            ),
        ),
        ("robust trim 0.1", Some(RobustPolicy::new())),
    ];
    let mut failures = Vec::new();
    for (name, policy) in policies {
        for lossy in [false, true] {
            let per_exchange = steady_state_allocations_per_exchange(policy, lossy);
            let network = if lossy { "10 % loss + repair" } else { "clean" };
            println!("{name}, {network}: {per_exchange:.2} allocations per exchange");
            if per_exchange != 0.0 {
                failures.push(format!("{name}, {network}: {per_exchange:.2}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "allocations per exchange: {failures:?}"
    );
}
