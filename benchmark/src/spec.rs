//! The benchmark's fixed tables: the seven workloads with their sizes and
//! the names, units and bounds of every metric. `BENCHMARK.json` repeats
//! these tables for the driver; `tests/smoke.rs` checks the two agree.

/// λ interpolation points of every instance.
pub const LAMBDA: usize = 50;
/// Gossip rounds per instance; one finalisation round follows.
pub const ROUNDS: u64 = 30;
/// Idle rounds between engine construction and the first instance (on
/// deploy: ticks between launch and the instance's start round). Part of
/// set-up; on the cycle engine they time engine + overlay overhead alone.
pub const WARMUP_ROUNDS: u64 = 3;
/// Fewest instances a cycle run measures: the bootstrap and two
/// refinements.
pub const MIN_INSTANCES: usize = 3;
/// Largest Err_a a simulator workload may end with. Converged runs sit
/// between 3e-3 and 8e-3 on these populations; an instance that failed to
/// spread or to average reads 0.1 to 1.
pub const ERR_A_LIMIT: f64 = 0.05;
/// Peers sampled for `err_a`.
pub const SAMPLE_PEERS: usize = 200;
/// Set-ups per run on the simulator workloads; `setup_s` is their median.
pub const SIM_SETUPS: usize = 5;
/// Set-ups (cluster launches) per run on the deploy workloads.
pub const DEPLOY_SETUPS: usize = 2;
/// File descriptors the driver's own sockets and files may take.
pub const DRIVER_FDS: u64 = 48;
/// Seconds after which a workload process gives up and reports failure.
pub const HARD_TIMEOUT_S: u64 = 170;

/// Which round function a cycle workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CyclePath {
    /// `Engine::run_rounds`, one thread.
    Sequential,
    /// `Engine::run_rounds_parallel` with `min(nproc, 4)` threads.
    Parallel,
}

#[derive(Debug, Clone, Copy)]
pub struct CycleParams {
    pub nodes: usize,
    /// `Some(degree)` runs `OverlayConfig::shuffle(degree)`, `None` the oracle.
    pub shuffle_degree: Option<usize>,
    pub path: CyclePath,
    /// Hardened config under churn, burst loss and crash-recover waves.
    pub hostile: bool,
    /// Verification points per instance.
    pub verify_points: usize,
    /// Wall seconds of one instance on the 2-core reference host. A run
    /// measures `--seconds` ÷ this many instances (at least
    /// [`MIN_INSTANCES`]): a count fixed by the arguments, not by how fast
    /// the host happens to be, so that runs compare instance for instance.
    pub nominal_instance_s: f64,
}

impl CycleParams {
    pub fn instances(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_instance_s) as usize).max(MIN_INSTANCES)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EventParams {
    pub nodes: usize,
    /// Gossip period in ticks.
    pub period: u64,
    /// Uniform message latency, ticks.
    pub latency: (u64, u64),
}

#[derive(Debug, Clone, Copy)]
pub struct DeployParams {
    pub nodes: usize,
    pub tick_ms: u64,
    pub io_timeout_ms: u64,
    pub bootstrap_timeout_ms: u64,
    /// Flat frame-loss probability of the socket shim.
    pub loss: f64,
}

impl DeployParams {
    /// Open files a run needs: a listener per node, as many again for
    /// connections in flight, and the driver's own (2000 + 2048 at full
    /// size).
    pub fn fds_needed(&self) -> u64 {
        2 * self.nodes as u64 + DRIVER_FDS
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Cycle(CycleParams),
    Event(EventParams),
    Deploy(DeployParams),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

const ORACLE: CycleParams = CycleParams {
    nodes: 100_000,
    shuffle_degree: None,
    path: CyclePath::Sequential,
    hostile: false,
    verify_points: 20,
    nominal_instance_s: 3.1,
};

const EVENT: EventParams = EventParams {
    nodes: 100_000,
    period: 1000,
    latency: (10, 60),
};

const DEPLOY: DeployParams = DeployParams {
    nodes: 2000,
    tick_ms: 250,
    io_timeout_ms: 62,
    bootstrap_timeout_ms: 125,
    loss: 0.0,
};

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "cycle_oracle",
        kind: Kind::Cycle(ORACLE),
    },
    Workload {
        name: "cycle_shuffle",
        kind: Kind::Cycle(CycleParams {
            nodes: 20_000,
            shuffle_degree: Some(20),
            nominal_instance_s: 4.0,
            ..ORACLE
        }),
    },
    Workload {
        name: "cycle_par",
        kind: Kind::Cycle(CycleParams {
            path: CyclePath::Parallel,
            nominal_instance_s: 2.8,
            ..ORACLE
        }),
    },
    Workload {
        name: "cycle_hostile",
        kind: Kind::Cycle(CycleParams {
            nodes: 50_000,
            hostile: true,
            nominal_instance_s: 5.3,
            ..ORACLE
        }),
    },
    Workload {
        name: "event_async",
        kind: Kind::Event(EVENT),
    },
    Workload {
        name: "deploy_clean",
        kind: Kind::Deploy(DEPLOY),
    },
    Workload {
        name: "deploy_loss10",
        kind: Kind::Deploy(DeployParams {
            loss: 0.10,
            ..DEPLOY
        }),
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload with `1/divisor` of the nodes. A shrunk deploy
    /// cluster also runs the runtime's default 40 ms tick, so that the
    /// smoke test and the reference legs take seconds, not the 8.5 s that
    /// 34 ticks of 250 ms do.
    pub fn scaled(mut self, divisor: usize) -> Workload {
        if divisor <= 1 {
            return self;
        }
        match &mut self.kind {
            Kind::Cycle(p) => p.nodes = (p.nodes / divisor).max(64),
            Kind::Event(p) => p.nodes = (p.nodes / divisor).max(64),
            Kind::Deploy(p) => {
                p.nodes = (p.nodes / divisor).max(16);
                p.tick_ms = 40;
                p.io_timeout_ms = 15;
                p.bootstrap_timeout_ms = 50;
            }
        }
        self
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

/// An end-to-end metric: which way is better, and the share of the
/// baseline's median by which it may worsen before `compare` calls it a
/// regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("wall_s", "s", true, 0.25),
    e2e("exchanges_per_s", "1/s", false, 0.25),
    e2e("cpu_s", "s", true, 0.25),
    e2e("peak_rss_mb", "MB", true, 0.20),
    e2e("wire_bytes_per_exchange", "B", true, 0.20),
];

const fn layer(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// Per-layer metrics, printed by the traced run of every workload. A
/// layer the workload does not execute is measured on a reference leg (see
/// `main::reference_legs`), so every value is a measurement.
pub const PER_LAYER: &[MetricSpec] = &[
    // Spans of the run itself, present on every workload.
    layer("traces.population.generate_s", "s"),
    layer("core.protocol.start_instance_ns", "ns"),
    layer("core.metrics.evaluate_s", "s"),
    layer("core.metrics.err_a", "ratio"),
    // Kernel replays.
    layer("core.instance.merge_ns_hot", "ns"),
    layer("core.instance.merge_ns_cold", "ns"),
    layer("core.instance.join_ns", "ns"),
    layer("core.instance.finalize_ns", "ns"),
    layer("core.aggregation.robust_merge_ns", "ns"),
    layer("core.wire.from_locals_ns", "ns"),
    layer("core.wire.encode_ns", "ns"),
    layer("core.wire.decode_ns", "ns"),
    layer("core.wire.bytes_per_msg", "B"),
    layer("core.runtime.serve_ns", "ns"),
    layer("core.runtime.absorb_ns", "ns"),
    layer("core.runtime.exchange_ns", "ns"),
    layer("core.selection.thresholds_ns", "ns"),
    layer("sim.overlay.maintain_ms", "ms"),
    layer("sim.overlay.random_neighbour_ns", "ns"),
    layer("sim.overlay.register_ns", "ns"),
    layer("sim.overlay.remove_ns", "ns"),
    layer("sim.peersampling.ps_exchange_ns", "ns"),
    layer("sim.wheel.push_ns", "ns"),
    layer("sim.wheel.pop_ns", "ns"),
    layer("sim.wheel.events", "count"),
    layer("deploy.frame.encode_ns", "ns"),
    layer("deploy.frame.decode_ns", "ns"),
    layer("deploy.frame.bytes_per_request", "B"),
    // Cycle engine.
    layer("sim.engine.new_s", "s"),
    layer("sim.engine.round_ms_idle", "ms"),
    layer("sim.engine.round_ms_p50", "ms"),
    layer("sim.engine.round_ms_p90", "ms"),
    layer("sim.engine.node_round_ns", "ns"),
    layer("sim.engine.par_speedup", "ratio"),
    layer("sim.engine.par_vs_seq", "ratio"),
    layer("core.instance.merges", "count"),
    layer("core.aggregation.robust_trims", "count"),
    layer("core.aggregation.robust_rejects", "count"),
    layer("sim.churn.replaced", "count"),
    layer("sim.faults.crashed", "count"),
    layer("sim.faults.recovered", "count"),
    layer("sim.faults.exchanges_started", "count"),
    layer("sim.faults.exchanges_repaired", "count"),
    layer("sim.faults.exchanges_aborted", "count"),
    layer("sim.faults.completion_ratio", "ratio"),
    layer("telemetry.attach_overhead", "ratio"),
    // Event engine.
    layer("sim.event.new_s", "s"),
    layer("sim.event.window_ms_p50", "ms"),
    layer("sim.event.window_ms_p90", "ms"),
    layer("sim.event.msgs_per_s", "1/s"),
    layer("sim.event.ticks_per_s", "1/s"),
    layer("sim.event.delivered", "count"),
    layer("sim.event.lost", "count"),
    layer("sim.event.dup_dropped", "count"),
    layer("sim.event.weight_drift", "ratio"),
    layer("sim.event.t1_msgs_per_s", "1/s"),
    layer("sim.event.par_speedup", "ratio"),
    layer("sim.event.msgs_per_s_10k", "1/s"),
    layer("sim.event.scale_ratio", "ratio"),
    // Deploy runtime.
    layer("deploy.cluster.launch_s", "s"),
    layer("deploy.cluster.collect_s", "s"),
    layer("deploy.cluster.shutdown_s", "s"),
    layer("deploy.cluster.err_a", "ratio"),
    layer("deploy.cluster.sim_err_a", "ratio"),
    layer("deploy.cluster.peers_without_estimate", "count"),
    layer("deploy.reactor.cpu_user_s", "s"),
    layer("deploy.reactor.cpu_sys_s", "s"),
    layer("deploy.reactor.cpu_us_per_exchange", "us"),
    layer("deploy.reactor.voluntary_ctx_switches", "count"),
    layer("deploy.reactor.probe_rtt_us_p50", "us"),
    layer("deploy.reactor.probe_rtt_us_p99", "us"),
    layer("deploy.reactor.probes", "count"),
    layer("deploy.node.exchanges_started", "count"),
    layer("deploy.node.exchanges_completed", "count"),
    layer("deploy.node.exchanges_aborted", "count"),
    layer("deploy.node.retransmissions", "count"),
    layer("deploy.node.completion_ratio", "ratio"),
    layer("deploy.node.retransmit_per_exchange", "ratio"),
    layer("deploy.node.backpressure_drops", "count"),
    layer("deploy.node.connections_accepted", "count"),
    layer("deploy.node.inflight_peak", "count"),
    layer("deploy.node.queue_depth_peak", "count"),
    layer("deploy.node.exchange_p50_us", "us"),
    layer("deploy.node.exchange_p90_us", "us"),
    layer("deploy.node.exchange_p99_us", "us"),
    layer("deploy.node.exchange_samples", "count"),
    layer("deploy.shim.drops", "count"),
];
