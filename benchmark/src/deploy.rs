//! The two deploy workloads: a loopback TCP cluster on the reactor runtime
//! and its driver in one process, one aggregation instance with the
//! thresholds the simulator chose on the same population.

use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::RngExt as _;

use adam2_bench::{
    adam2_engine_with, evaluate_estimates, setup, start_instance, ExperimentSetup, PeerEstimate,
};
use adam2_core::{Adam2Config, AttrValue, InstanceMeta};
use adam2_deploy::frame::{read_frame, write_frame, Frame};
use adam2_deploy::{Cluster, ClusterConfig, LossShim, NodeConfig, RuntimeKind, StatsSnapshot};
use adam2_sim::{derive_seed, seeded_rng};
use adam2_traces::Attribute;

use crate::measure::{
    bench_threads, cpu_times, fd_soft_limit, peak_rss_mb, percentile, set_up_repeatedly,
    voluntary_ctx_switches, Tracer,
};
use crate::outcome::{Outcome, Unit};
use crate::peers;
use crate::spec::{DeployParams, DEPLOY_SETUPS, LAMBDA, ROUNDS, SAMPLE_PEERS, WARMUP_ROUNDS};

/// Absolute slack on the Err_a comparison with the simulator, as in
/// `bench_deploy --check`: over 32 seeds at 40 and 100 nodes a cluster's
/// Err_a was 1.0 to 2.6 times the simulator's (real sockets interleave
/// exchanges the simulator runs atomically), while a cluster that failed
/// to converge reads 0.1 to 1.
const ERR_A_SLACK: f64 = 1e-2;
/// Pause between the driver's `GetEstimate` probes in the traced run.
const PROBE_INTERVAL: Duration = Duration::from_millis(50);

/// What the sequential simulator makes of the same population: the
/// instance whose thresholds the cluster reuses, and the Err_a the
/// cluster's is checked against.
struct SimReference {
    meta: Arc<InstanceMeta>,
    err_a: f64,
}

fn simulate(s: &ExperimentSetup, seed: u64) -> SimReference {
    let config = Adam2Config::new()
        .with_lambda(LAMBDA)
        .with_rounds_per_instance(ROUNDS);
    let mut engine = adam2_engine_with(s, config, seed, |c| c);
    let meta = start_instance(&mut engine);
    engine.run_rounds(ROUNDS + 1);
    let err_a = evaluate_estimates(&engine, &s.truth, SAMPLE_PEERS, seed).avg_cdf;
    SimReference { meta, err_a }
}

fn cluster_config(p: &DeployParams, seed: u64) -> ClusterConfig {
    let node = NodeConfig {
        tick: Duration::from_millis(p.tick_ms),
        io_timeout: Duration::from_millis(p.io_timeout_ms),
        retries: 2,
        queue_capacity: 4,
        view_size: 12,
        seed,
    };
    let shim = if p.loss > 0.0 {
        LossShim::flat(derive_seed(seed, 0x5_41_4d), p.loss)
    } else {
        LossShim::none()
    };
    ClusterConfig::try_new(node)
        .expect("node config is valid")
        .with_runtime(RuntimeKind::Reactor {
            threads: bench_threads(),
        })
        .expect("nonzero reactor threads")
        .with_bootstrap(10, Duration::from_millis(p.bootstrap_timeout_ms))
        .expect("nonzero bootstrap budget")
        .with_shim(shim)
}

/// Population and a launched, bootstrapped cluster.
fn set_up(p: &DeployParams, seed: u64, tracer: &mut Tracer) -> (ExperimentSetup, Cluster) {
    let span = tracer.begin("traces.population.generate");
    let s = setup(Attribute::Ram, p.nodes, seed);
    tracer.end(span);
    let span = tracer.begin("deploy.cluster.launch");
    let values = s
        .population
        .values()
        .iter()
        .map(|v| AttrValue::Single(*v))
        .collect();
    let cluster = Cluster::launch(values, cluster_config(p, seed)).expect("cluster launch");
    tracer.end(span);
    (s, cluster)
}

fn stats_total(cluster: &Cluster) -> StatsSnapshot {
    let mut total = StatsSnapshot::default();
    for node in cluster.nodes() {
        let s = node.stats.snapshot();
        total.bytes_sent += s.bytes_sent;
        total.malformed_frames += s.malformed_frames;
        total.shim_dropped += s.shim_dropped;
        total.exchanges_started += s.exchanges_started;
        total.exchanges_completed += s.exchanges_completed;
        total.exchanges_aborted += s.exchanges_aborted;
        total.retransmissions += s.retransmissions;
        total.backpressure_drops += s.backpressure_drops;
        total.connections_accepted += s.connections_accepted;
        total.inflight_peak = total.inflight_peak.max(s.inflight_peak);
        total.queue_depth_peak = total.queue_depth_peak.max(s.queue_depth_peak);
    }
    total
}

/// One `GetEstimate` round-trip as a plain TCP client: connect → reply, µs.
fn probe(port: u16, timeout: Duration) -> Option<f64> {
    let t0 = Instant::now();
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
    let mut stream = TcpStream::connect_timeout(&addr, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    let _ = stream.set_nodelay(true);
    write_frame(&mut stream, &Frame::GetEstimate).ok()?;
    match read_frame(&mut stream).ok()? {
        Ok(Frame::Estimate(_)) => Some(t0.elapsed().as_secs_f64() * 1e6),
        _ => None,
    }
}

/// Probes a random node every [`PROBE_INTERVAL`] until `stop` is set.
fn probe_loop(ports: &[u16], seed: u64, timeout: Duration, stop: &AtomicBool) -> Vec<f64> {
    let mut rng = seeded_rng(derive_seed(seed, 0x9_0b_e5));
    let mut rtts = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let port = ports[rng.random_range(0..ports.len())];
        rtts.extend(probe(port, timeout));
        std::thread::sleep(PROBE_INTERVAL);
    }
    rtts
}

pub fn run(p: &DeployParams, seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let limit = fd_soft_limit().unwrap_or(0);
    assert!(
        limit >= p.fds_needed(),
        "ulimit -n is {limit}; {} nodes need {}. Raise the limit: the benchmark never shrinks N.",
        p.nodes,
        p.fds_needed()
    );

    let top = tracer.begin("setup");
    let (s, cluster) = set_up_repeatedly(
        DEPLOY_SETUPS,
        tracer,
        &mut out.setup_s,
        |tracer| set_up(p, seed, tracer),
        |(_, cluster)| {
            cluster.shutdown();
        },
    );
    let reference = simulate(&s, seed);
    tracer.end(top);

    // Latency samples and peaks of the bootstrap are not the instance's.
    for node in cluster.nodes() {
        node.stats.take_latencies();
        node.stats.reset_peaks();
    }
    let before = stats_total(&cluster);
    let (user0, sys0) = cpu_times();
    let ctx0 = voluntary_ctx_switches();
    let tick = Duration::from_millis(p.tick_ms);
    let control_timeout = cluster_config(p, seed).control_timeout();
    let ports: Vec<u16> = (0..cluster.len()).map(|i| cluster.port(i)).collect();
    let stop_probe = AtomicBool::new(false);

    let top = tracer.begin("measure");
    let t0 = Instant::now();
    let (estimates, probe_rtts) = std::thread::scope(|scope| {
        let prober = tracer
            .enabled()
            .then(|| scope.spawn(|| probe_loop(&ports, seed, control_timeout, &stop_probe)));
        let span = tracer.begin("core.protocol.start_instance");
        let start_round = cluster.current_round() + WARMUP_ROUNDS;
        let meta = Arc::new(InstanceMeta {
            id: reference.meta.id,
            thresholds: reference.meta.thresholds.clone(),
            verify_thresholds: reference.meta.verify_thresholds.clone(),
            start_round,
            end_round: start_round + ROUNDS,
            multi: false,
        });
        cluster
            .start_instance(0, meta.clone())
            .expect("start instance");
        tracer.end(span);
        let span = tracer.begin("deploy.cluster.run");
        // One round past the deadline: the finalisation round.
        while cluster.current_round() <= meta.end_round + 1 {
            std::thread::sleep(tick / 4);
        }
        tracer.end(span);
        stop_probe.store(true, Ordering::Relaxed);
        let rtts = prober.map_or(Vec::new(), |h| h.join().expect("probe thread"));
        let span = tracer.begin("deploy.cluster.collect");
        let estimates = cluster.collect_estimates(Duration::from_secs(10).max(8 * tick));
        tracer.end(span);
        (estimates, rtts)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (user1, sys1) = cpu_times();
    tracer.end(top);
    out.peak_rss_mb = peak_rss_mb();
    let ctx_switches = voluntary_ctx_switches().saturating_sub(ctx0);
    let stats = stats_total(&cluster).delta(&before);
    let latencies: Vec<f64> = cluster
        .nodes()
        .iter()
        .flat_map(|node| node.stats.take_latencies())
        .map(|us| us as f64)
        .collect();
    let unit = Unit {
        wall_s,
        cpu_s: (user1 - user0) + (sys1 - sys0),
        exchanges: stats.exchanges_completed as f64,
        bytes: stats.bytes_sent as f64,
    };
    out.units.push(unit);

    let top = tracer.begin("score");
    let span = tracer.begin("core.metrics.evaluate");
    let peers: Vec<Option<PeerEstimate>> = estimates
        .iter()
        .map(|e| {
            e.as_ref().map(|e| PeerEstimate {
                instance: e.instance,
                thresholds: e.thresholds.clone(),
                fractions: e.fractions.clone(),
                min: e.min,
                max: e.max,
            })
        })
        .collect();
    peers::score(&peers, &s.truth, seed, &mut out);
    tracer.end(span);
    tracer.end(top);

    let top = tracer.begin("teardown");
    let span = tracer.begin("deploy.cluster.shutdown");
    let shutdown = cluster.shutdown();
    tracer.end(span);
    tracer.end(top);

    out.check(
        "err_a_within_2x_simulator",
        out.err_a <= 2.0 * reference.err_a + ERR_A_SLACK,
        format!(
            "deploy {:.3e} vs simulator {:.3e}",
            out.err_a, reference.err_a
        ),
    );
    out.check("clean_shutdown", shutdown.clean, String::new());
    out.check(
        "no_malformed_frames",
        stats.malformed_frames == 0,
        format!("{} malformed", stats.malformed_frames),
    );
    out.check(
        "exchanges_completed",
        stats.exchanges_completed > 0,
        format!("{} completed", stats.exchanges_completed),
    );

    if tracer.enabled() {
        let started = stats.exchanges_started as f64;
        let completed = stats.exchanges_completed as f64;
        let l = &mut out.layers;
        l.set(
            "traces.population.generate_s",
            tracer.total_s("traces.population.generate"),
        );
        l.set(
            "core.protocol.start_instance_ns",
            tracer.total_s("core.protocol.start_instance") * 1e9,
        );
        l.set(
            "core.metrics.evaluate_s",
            tracer.total_s("core.metrics.evaluate"),
        );
        l.set(
            "deploy.cluster.launch_s",
            tracer.total_s("deploy.cluster.launch"),
        );
        l.set(
            "deploy.cluster.collect_s",
            tracer.total_s("deploy.cluster.collect"),
        );
        l.set(
            "deploy.cluster.shutdown_s",
            tracer.total_s("deploy.cluster.shutdown"),
        );
        l.set("deploy.cluster.err_a", out.err_a);
        l.set("deploy.cluster.sim_err_a", reference.err_a);
        l.set("deploy.cluster.peers_without_estimate", out.failed as f64);
        l.set("deploy.reactor.cpu_user_s", user1 - user0);
        l.set("deploy.reactor.cpu_sys_s", sys1 - sys0);
        l.set(
            "deploy.reactor.cpu_us_per_exchange",
            unit.cpu_s * 1e6 / completed,
        );
        l.set("deploy.reactor.voluntary_ctx_switches", ctx_switches as f64);
        l.set(
            "deploy.reactor.probe_rtt_us_p50",
            percentile(&probe_rtts, 0.5),
        );
        l.set(
            "deploy.reactor.probe_rtt_us_p99",
            percentile(&probe_rtts, 0.99),
        );
        l.set("deploy.reactor.probes", probe_rtts.len() as f64);
        l.set("deploy.node.exchanges_started", started);
        l.set("deploy.node.exchanges_completed", completed);
        l.set(
            "deploy.node.exchanges_aborted",
            stats.exchanges_aborted as f64,
        );
        l.set("deploy.node.retransmissions", stats.retransmissions as f64);
        l.set("deploy.node.completion_ratio", completed / started);
        l.set(
            "deploy.node.retransmit_per_exchange",
            stats.retransmissions as f64 / started,
        );
        l.set(
            "deploy.node.backpressure_drops",
            stats.backpressure_drops as f64,
        );
        l.set(
            "deploy.node.connections_accepted",
            stats.connections_accepted as f64,
        );
        l.set("deploy.node.inflight_peak", stats.inflight_peak as f64);
        l.set(
            "deploy.node.queue_depth_peak",
            stats.queue_depth_peak as f64,
        );
        l.set("deploy.node.exchange_p50_us", percentile(&latencies, 0.5));
        l.set("deploy.node.exchange_p90_us", percentile(&latencies, 0.9));
        l.set("deploy.node.exchange_p99_us", percentile(&latencies, 0.99));
        l.set("deploy.node.exchange_samples", latencies.len() as f64);
        l.set("deploy.shim.drops", stats.shim_dropped as f64);
    }
    out
}
