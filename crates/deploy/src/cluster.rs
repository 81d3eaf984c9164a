//! Cluster driver: boots N loopback nodes, bootstraps their views through
//! introducer nodes, injects aggregation instances, samples telemetry,
//! collects estimates over the control sockets, and joins everything on
//! shutdown.
//!
//! The driver is the deploy-side analogue of the simulator's engine loop,
//! except the nodes run themselves — the driver only observes (per-tick
//! stats sampling into `adam2-telemetry`) and speaks the control frames
//! ([`Frame::StartInstance`], [`Frame::GetEstimate`]). The nodes run on a
//! reactor pool whose thread count [`ClusterConfig`] sets; the driver
//! reaches them only through their listeners, as any client would.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adam2_core::wire::GossipMessage;
use adam2_core::{AttrValue, FadeConfig, InstanceId, InstanceLocal, InstanceMeta};
use adam2_telemetry::{CounterId, GaugeId, HistogramId, RoundSnapshot, RunManifest, Telemetry};

use crate::config::{ClusterConfig, DaemonConfig, RuntimeKind};
use crate::frame::{read_frame, write_frame, EstimateWire, Frame};
use crate::node::NodeShared;
use crate::reactor::ReactorPool;
use crate::stats::StatsSnapshot;

/// Joiners bootstrapped sequentially through the seed before the parallel
/// fan-out phase; they become the introducer core the rest join through.
const BOOTSTRAP_CORE: usize = 64;

/// Control connections one driver worker thread owns during parallel
/// bootstrap and estimate collection.
const NODES_PER_WORKER: usize = 64;

/// Cap on driver worker threads.
const MAX_WORKERS: usize = 64;

/// Instance-id space the daemon scheduler launches in, disjoint from
/// harness-injected ids so the two never collide in a node's instance map.
pub const DAEMON_INSTANCE_BASE: u64 = 1 << 48;

/// Summary returned by [`Cluster::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterReport {
    /// Whether every reactor and daemon thread joined without panicking.
    pub clean: bool,
    /// Nodes the cluster ran.
    pub nodes: usize,
}

/// A running loopback cluster.
pub struct Cluster {
    /// Node state, in launch order.
    shared: Vec<Arc<NodeShared>>,
    reactor: ReactorPool,
    daemon: Option<DaemonDriver>,
    config: ClusterConfig,
}

/// The daemon-mode scheduler thread: keeps launching instances until the
/// cluster shuts down.
struct DaemonDriver {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Cluster {
    /// Spawns one node per attribute value on the reactor pool and
    /// bootstraps every view: each joiner sends a real `Join` frame to an
    /// introducer's listener and admits the `JoinAck` digest it gets back.
    ///
    /// `config` is valid by construction ([`ClusterConfig`] cannot be
    /// built otherwise), so the only failures left are socket-level.
    pub fn launch(values: Vec<AttrValue>, config: ClusterConfig) -> io::Result<Self> {
        assert!(values.len() >= 2, "a cluster needs at least two nodes");
        let epoch = Instant::now();
        let shim = Arc::new(config.shim().clone());
        let fade = config
            .daemon()
            .map(|d| FadeConfig::new(d.half_life_rounds, d.max_tracked));
        let mut shared = Vec::with_capacity(values.len());
        let mut nodes = Vec::with_capacity(values.len());
        for (i, value) in values.into_iter().enumerate() {
            let mut node_config = config.node().clone();
            node_config.seed = node_config.seed.wrapping_add(i as u64);
            let (node, listener) = NodeShared::create(
                value,
                config.initial_n_estimate(),
                node_config,
                Arc::clone(&shim),
                epoch,
                fade,
            )?;
            shared.push(Arc::clone(&node));
            nodes.push((node, listener));
        }
        let RuntimeKind::Reactor { threads } = config.runtime();
        let reactor = ReactorPool::launch(nodes, threads, epoch);
        let mut cluster = Self {
            shared,
            reactor,
            daemon: None,
            config,
        };
        cluster.bootstrap()?;
        if let Some(daemon) = cluster.config.daemon().cloned() {
            cluster.daemon = Some(cluster.spawn_daemon(daemon));
        }
        Ok(cluster)
    }

    /// Spawns the daemon scheduler: every `launch_period_rounds` it injects
    /// a fresh instance through a rotating initiator's control socket, so a
    /// long-running cluster always has completed estimates fading through
    /// every node's blended tracker.
    fn spawn_daemon(&self, daemon: DaemonConfig) -> DaemonDriver {
        let stop = Arc::new(AtomicBool::new(false));
        let nodes: Vec<Arc<NodeShared>> = self.shared.clone();
        let timeout = self.config.control_timeout();
        let tick = self.config.node().tick;
        let thread = std::thread::Builder::new()
            .name("adam2-daemon".into())
            .spawn({
                let stop = Arc::clone(&stop);
                move || daemon_loop(&nodes, &daemon, timeout, tick, &stop)
            })
            .expect("spawn daemon thread");
        DaemonDriver { stop, thread }
    }

    /// Joins every non-seed node through an introducer, with the
    /// configured attempt budget so a listener that is still starting up
    /// doesn't fail the boot.
    ///
    /// Two phases keep four-digit clusters from serialising ten thousand
    /// control round-trips through one seed: the first [`BOOTSTRAP_CORE`]
    /// joiners go through the seed sequentially (building a connected
    /// introducer core), then the rest fan out over driver worker threads,
    /// spreading their `Join` traffic across the core.
    fn bootstrap(&self) -> io::Result<()> {
        let n = self.shared.len();
        let seed_port = self.shared[0].port();
        let attempts = self.config.join_attempts();
        let timeout = self.config.bootstrap_timeout();
        let core = (n - 1).min(BOOTSTRAP_CORE);
        for node in &self.shared[1..=core] {
            join_via(seed_port, node, attempts, timeout)?;
        }
        if core + 1 >= n {
            return Ok(());
        }
        let introducers: Vec<u16> = self.shared[..=core].iter().map(|s| s.port()).collect();
        let rest = &self.shared[core + 1..];
        let workers = rest.len().div_ceil(NODES_PER_WORKER).min(MAX_WORKERS);
        let chunk = rest.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, nodes) in rest.chunks(chunk).enumerate() {
                let introducers = &introducers;
                handles.push(scope.spawn(move || {
                    for (j, node) in nodes.iter().enumerate() {
                        let intro = introducers[(w * chunk + j) % introducers.len()];
                        join_via(intro, node, attempts, timeout)?;
                    }
                    Ok::<(), io::Error>(())
                }));
            }
            for handle in handles {
                handle
                    .join()
                    .map_err(|_| io::Error::other("bootstrap worker panicked"))??;
            }
            Ok(())
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Always false — [`Cluster::launch`] requires two nodes.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty()
    }

    /// The cluster's current gossip round (all nodes share the clock).
    pub fn current_round(&self) -> u64 {
        self.shared[0].current_round()
    }

    /// Listener port of node `i`.
    pub fn port(&self, i: usize) -> u16 {
        self.shared[i].port()
    }

    /// The nodes' shared state, in launch order (driver-side observation
    /// only: stats sampling, view inspection).
    pub fn nodes(&self) -> &[Arc<NodeShared>] {
        &self.shared
    }

    /// Injects `meta` as a new aggregation instance by sending
    /// `StartInstance` to node `initiator` over its control socket. The
    /// instance then spreads epidemically through the gossip exchanges.
    pub fn start_instance(&self, initiator: usize, meta: Arc<InstanceMeta>) -> io::Result<()> {
        send_start_instance(
            self.shared[initiator].port(),
            meta,
            self.config.control_timeout(),
        )
    }

    /// Polls every node's control socket for a distribution estimate until
    /// all answered or `deadline` elapses, fanning the polling out over
    /// driver worker threads at scale. Returns one entry per node.
    pub fn collect_estimates(&self, deadline: Duration) -> Vec<Option<EstimateWire>> {
        let started = Instant::now();
        let timeout = self.config.control_timeout();
        let pause = self.config.node().tick / 2;
        let workers = self
            .shared
            .len()
            .div_ceil(NODES_PER_WORKER)
            .clamp(1, MAX_WORKERS);
        let chunk = self.shared.len().div_ceil(workers);
        let mut out: Vec<Option<EstimateWire>> = Vec::with_capacity(self.shared.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shared
                .chunks(chunk)
                .map(|nodes| {
                    scope.spawn(move || {
                        let mut slots: Vec<Option<EstimateWire>> = vec![None; nodes.len()];
                        loop {
                            for (slot, node) in slots.iter_mut().zip(nodes) {
                                if slot.is_some() {
                                    continue;
                                }
                                if let Ok(Frame::Estimate(est)) =
                                    control_request(node.port(), &Frame::GetEstimate, timeout)
                                {
                                    *slot = est;
                                }
                            }
                            if slots.iter().all(Option::is_some) || started.elapsed() >= deadline {
                                return slots;
                            }
                            std::thread::sleep(pause);
                        }
                    })
                })
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("estimate worker panicked"));
            }
        });
        out
    }

    /// Stops the daemon and the reactor pool and joins all threads; the
    /// listeners close when their shards exit.
    pub fn shutdown(mut self) -> ClusterReport {
        let nodes = self.shared.len();
        let mut clean = true;
        if let Some(daemon) = self.daemon.take() {
            daemon.stop.store(true, Ordering::Relaxed);
            clean &= daemon.thread.join().is_ok();
        }
        clean &= self.reactor.shutdown();
        ClusterReport { clean, nodes }
    }
}

/// Injects `meta` as a new aggregation instance through `port`'s control
/// socket. Only the meta fields travel; the carried indicator state is a
/// placeholder the receiving node ignores (it re-joins from its own value
/// as initiator).
fn send_start_instance(port: u16, meta: Arc<InstanceMeta>, timeout: Duration) -> io::Result<()> {
    let local = InstanceLocal::join(meta, &AttrValue::Single(0.0), false);
    let msg = GossipMessage::from_locals(std::iter::once(&local));
    match control_request(port, &Frame::StartInstance { msg }, timeout)? {
        Frame::Ack => Ok(()),
        _ => Err(io::Error::other("unexpected start reply")),
    }
}

/// The daemon scheduler loop: watches the shared gossip clock and injects
/// one instance per launch period through a rotating initiator. A launch
/// that fails its control round-trip (e.g. the initiator is briefly
/// saturated) is skipped, not retried — the next period launches again, so
/// the pipeline heals on its own cadence.
fn daemon_loop(
    nodes: &[Arc<NodeShared>],
    daemon: &DaemonConfig,
    timeout: Duration,
    tick: Duration,
    stop: &AtomicBool,
) {
    let mut launched = 0u64;
    let mut next_launch = nodes[0].current_round() + 1;
    while !stop.load(Ordering::Relaxed) {
        let round = nodes[0].current_round();
        if round >= next_launch {
            let start_round = round + 1;
            let meta = Arc::new(InstanceMeta {
                id: InstanceId::from_u64(DAEMON_INSTANCE_BASE + launched),
                thresholds: daemon.thresholds.clone().into(),
                verify_thresholds: Vec::new().into(),
                start_round,
                end_round: start_round + daemon.instance_rounds,
                multi: false,
            });
            let initiator = (launched as usize) % nodes.len();
            let _ = send_start_instance(nodes[initiator].port(), meta, timeout);
            launched += 1;
            next_launch = round + daemon.launch_period_rounds;
        }
        std::thread::sleep(POLL_DAEMON.max(tick / 4));
    }
}

/// Floor on the daemon scheduler's clock-polling interval.
const POLL_DAEMON: Duration = Duration::from_millis(1);

/// One join round-trip through `introducer` on `node`'s behalf, retried up
/// to the configured attempt budget.
fn join_via(
    introducer: u16,
    node: &Arc<NodeShared>,
    attempts: u32,
    timeout: Duration,
) -> io::Result<()> {
    let mut last_err = io::Error::other("join never attempted");
    for _ in 0..attempts {
        match control_request(introducer, &Frame::Join { port: node.port() }, timeout) {
            Ok(Frame::JoinAck { peers }) => {
                node.admit_peers(&peers);
                return Ok(());
            }
            Ok(_) => last_err = io::Error::other("unexpected join reply"),
            Err(e) => last_err = e,
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(last_err)
}

/// One control round-trip: connect, send `frame`, read the reply.
fn control_request(port: u16, frame: &Frame, timeout: Duration) -> io::Result<Frame> {
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let _ = stream.set_nodelay(true);
    write_frame(&mut stream, frame)?;
    match read_frame(&mut stream)? {
        Ok(frame) => Ok(frame),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Per-tick telemetry sampler: diffs every node's [`StatsSnapshot`] against
/// the previous sample and folds the deltas into one [`RoundSnapshot`] plus
/// the deploy gauge/counter/histogram set.
pub struct ClusterTelemetry {
    /// The backing store, exported via [`ClusterTelemetry::export`].
    pub telemetry: Telemetry,
    g_live_nodes: GaugeId,
    g_inflight: GaugeId,
    g_queue_depth: GaugeId,
    c_frames: CounterId,
    c_bytes: CounterId,
    c_malformed: CounterId,
    c_invalid: CounterId,
    c_shim_drops: CounterId,
    c_retransmissions: CounterId,
    c_backpressure: CounterId,
    c_connections: CounterId,
    h_latency: HistogramId,
    prev: Vec<StatsSnapshot>,
    latencies: Vec<u64>,
}

impl ClusterTelemetry {
    /// Registers the deploy metric set for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        let mut telemetry = Telemetry::default();
        let m = &mut telemetry.metrics;
        let g_live_nodes = m.gauge("live_nodes");
        let g_inflight = m.gauge("inflight_exchanges");
        let g_queue_depth = m.gauge("queue_depth");
        let c_frames = m.counter("deploy_frames");
        let c_bytes = m.counter("deploy_bytes");
        let c_malformed = m.counter("deploy_malformed_frames");
        let c_invalid = m.counter("deploy_frames_rejected_invalid");
        let c_shim_drops = m.counter("deploy_shim_drops");
        let c_retransmissions = m.counter("deploy_retransmissions");
        let c_backpressure = m.counter("deploy_backpressure_drops");
        let c_connections = m.counter("deploy_connections_accepted");
        let h_latency = m.histogram("exchange_latency_us");
        Self {
            telemetry,
            g_live_nodes,
            g_inflight,
            g_queue_depth,
            c_frames,
            c_bytes,
            c_malformed,
            c_invalid,
            c_shim_drops,
            c_retransmissions,
            c_backpressure,
            c_connections,
            h_latency,
            prev: vec![StatsSnapshot::default(); n],
            latencies: Vec::new(),
        }
    }

    /// Samples every node and records one snapshot for `round`. Call once
    /// per tick from the driver loop.
    pub fn sample(&mut self, cluster: &Cluster, round: u64) {
        let mut snap = RoundSnapshot::empty(round);
        snap.live_nodes = cluster.len() as u64;
        let mut latencies = Vec::new();
        for (node, prev) in cluster.nodes().iter().zip(self.prev.iter_mut()) {
            let now = node.stats.snapshot();
            let delta = now.delta(prev);
            *prev = now;
            snap.round_bytes += delta.bytes_sent;
            snap.round_msgs += delta.frames_sent;
            snap.exchanges += delta.exchanges_started;
            snap.repairs += delta.retransmissions;
            snap.aborts += delta.exchanges_aborted;
            // Cluster-wide peak concurrency is bounded by the sum of the
            // per-node peaks; the max of per-node queue peaks is exact.
            snap.inflight_exchanges += delta.inflight_peak;
            snap.queue_depth_max = snap.queue_depth_max.max(delta.queue_depth_peak);
            let m = &mut self.telemetry.metrics;
            m.add(self.c_frames, delta.frames_sent + delta.frames_received);
            m.add(self.c_bytes, delta.bytes_sent + delta.bytes_received);
            m.add(self.c_malformed, delta.malformed_frames);
            m.add(self.c_invalid, delta.frames_rejected_invalid);
            m.add(self.c_shim_drops, delta.shim_dropped);
            m.add(self.c_retransmissions, delta.retransmissions);
            m.add(self.c_backpressure, delta.backpressure_drops);
            m.add(self.c_connections, delta.connections_accepted);
            latencies.extend(node.stats.take_latencies());
            node.stats.reset_peaks();
        }
        let m = &mut self.telemetry.metrics;
        m.set(self.g_live_nodes, snap.live_nodes as f64);
        m.set(self.g_inflight, snap.inflight_exchanges as f64);
        m.set(self.g_queue_depth, snap.queue_depth_max as f64);
        for us in &latencies {
            m.record(self.h_latency, *us);
        }
        self.latencies.extend(latencies);
        self.telemetry.push_snapshot(snap);
    }

    /// Every exchange latency sample (µs) drained so far, across all
    /// sampled ticks — the raw series the bench derives its p99 from.
    pub fn latency_samples(&self) -> &[u64] {
        &self.latencies
    }

    /// Exports the standard telemetry file set under `dir`.
    pub fn export(&self, dir: &std::path::Path, manifest: &RunManifest) -> io::Result<()> {
        self.telemetry.export(dir, manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::shim::LossShim;
    use adam2_core::InstanceId;
    use std::io::Write as _;

    fn test_meta(cluster: &Cluster, duration: u64, lambda_points: &[f64]) -> Arc<InstanceMeta> {
        let start_round = cluster.current_round() + 2;
        Arc::new(InstanceMeta {
            id: InstanceId::from_u64(7),
            thresholds: lambda_points.to_vec().into(),
            verify_thresholds: Vec::new().into(),
            start_round,
            end_round: start_round + duration,
            multi: false,
        })
    }

    fn fast_config() -> ClusterConfig {
        ClusterConfig::try_new(NodeConfig {
            tick: Duration::from_millis(25),
            io_timeout: Duration::from_millis(15),
            retries: 2,
            queue_capacity: 4,
            view_size: 10,
            seed: 99,
        })
        .expect("valid test config")
    }

    fn wait_past(cluster: &Cluster, round: u64) {
        while cluster.current_round() <= round {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn loopback_cluster_converges_to_an_estimate() {
        let n = 8;
        let values: Vec<AttrValue> = (0..n).map(|i| AttrValue::Single(i as f64)).collect();
        let config = fast_config()
            .with_runtime(RuntimeKind::Reactor { threads: 2 })
            .expect("valid runtime");
        let cluster = Cluster::launch(values, config).expect("launch");
        let mut sampler = ClusterTelemetry::new(n);

        let meta = test_meta(&cluster, 24, &[2.0, 4.0, 6.0]);
        cluster.start_instance(0, meta.clone()).expect("start");
        while cluster.current_round() <= meta.end_round {
            sampler.sample(&cluster, cluster.current_round());
            std::thread::sleep(Duration::from_millis(25));
        }
        let estimates = cluster.collect_estimates(Duration::from_secs(5));
        let got = estimates.iter().flatten().count();
        assert_eq!(got, n, "every node must report an estimate");
        for est in estimates.iter().flatten() {
            assert_eq!(est.instance, 7);
            assert_eq!(est.thresholds, vec![2.0, 4.0, 6.0]);
            // 8 values 0..=7, so F(4.0) should be around 5/8.
            let f = est.fractions[1];
            assert!(
                (0.0..=1.0).contains(&f),
                "normalised fraction out of range: {f}"
            );
        }
        // Push-pull averaging keeps total weight mass at 1, so size
        // estimates land near the true N for most nodes.
        let n_hats: Vec<f64> = estimates.iter().flatten().filter_map(|e| e.n_hat).collect();
        assert!(!n_hats.is_empty(), "at least one node estimates N");
        let mean = n_hats.iter().sum::<f64>() / n_hats.len() as f64;
        assert!(
            mean > 2.0 && mean < 32.0,
            "mean N-hat {mean} implausible for an 8-node cluster"
        );

        let exchanges: u64 = sampler
            .telemetry
            .snapshots()
            .iter()
            .map(|s| s.exchanges)
            .sum();
        assert!(exchanges > 0, "telemetry must see gossip traffic");

        let report = cluster.shutdown();
        assert!(report.clean, "threads must join cleanly");
        assert_eq!(report.nodes, n);
    }

    #[test]
    fn garbage_frames_are_counted_not_fatal() {
        let values = vec![AttrValue::Single(1.0), AttrValue::Single(2.0)];
        let cluster = Cluster::launch(values, fast_config()).expect("launch");
        let port = cluster.port(0);

        // A syntactically valid length prefix followed by junk.
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
        let mut stream =
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).expect("connect");
        let mut garbage = vec![9u8; 64];
        garbage.splice(0..4, 60u32.to_le_bytes());
        stream.write_all(&garbage).expect("write garbage");
        drop(stream);

        // An oversized length prefix.
        let mut stream =
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).expect("connect");
        stream
            .write_all(&(crate::frame::MAX_FRAME as u32 + 1).to_le_bytes())
            .expect("write oversized");
        drop(stream);

        // Give the listener a moment to process both connections.
        let deadline = Instant::now() + Duration::from_secs(2);
        while cluster.nodes()[0].stats.snapshot().malformed_frames < 2 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            cluster.nodes()[0].stats.snapshot().malformed_frames,
            2,
            "both bad frames must be counted as malformed"
        );

        // The node still answers control traffic afterwards.
        let reply = control_request(port, &Frame::GetEstimate, Duration::from_millis(200))
            .expect("control after garbage");
        assert!(matches!(reply, Frame::Estimate(None)));

        assert!(cluster.shutdown().clean);
    }

    #[test]
    fn lossy_cluster_still_converges_via_repair() {
        let n = 6;
        let values: Vec<AttrValue> = (0..n).map(|i| AttrValue::Single(i as f64)).collect();
        let config = fast_config().with_shim(LossShim::flat(7, 0.10));
        let cluster = Cluster::launch(values, config).expect("launch");

        let meta = test_meta(&cluster, 24, &[1.0, 3.0]);
        cluster.start_instance(0, meta.clone()).expect("start");
        wait_past(&cluster, meta.end_round);

        let estimates = cluster.collect_estimates(Duration::from_secs(5));
        let got = estimates.iter().flatten().count();
        assert!(
            got >= n - 1,
            "only {got}/{n} nodes produced an estimate under 10% loss"
        );
        // Loss must actually have been injected for this test to mean
        // anything.
        let drops: u64 = cluster
            .nodes()
            .iter()
            .map(|node| node.stats.snapshot().shim_dropped)
            .sum();
        assert!(drops > 0, "shim never fired at 10% loss");
        assert!(cluster.shutdown().clean);
    }

    #[test]
    fn daemon_cluster_serves_blended_estimates() {
        let n = 8;
        let values: Vec<AttrValue> = (0..n).map(|i| AttrValue::Single(i as f64)).collect();
        let daemon = DaemonConfig {
            launch_period_rounds: 8,
            instance_rounds: 16,
            thresholds: vec![2.0, 4.0, 6.0],
            half_life_rounds: 8.0,
            max_tracked: 4,
        };
        let config = fast_config().with_daemon(daemon).expect("valid daemon");
        let cluster = Cluster::launch(values, config).expect("launch");
        // By round ~48 the scheduler has launched ~6 instances and at
        // least the first two have finalised everywhere.
        wait_past(&cluster, 48);
        let estimates = cluster.collect_estimates(Duration::from_secs(5));
        let got: Vec<&EstimateWire> = estimates.iter().flatten().collect();
        assert!(
            got.len() >= n - 1,
            "only {}/{n} nodes served a blended estimate",
            got.len()
        );
        for est in &got {
            assert!(
                est.instance >= DAEMON_INSTANCE_BASE,
                "served instance {} must come from the daemon id space",
                est.instance
            );
            assert_eq!(est.thresholds.len(), est.fractions.len());
            // The blend of monotone CDFs stays monotone.
            for pair in est.fractions.windows(2) {
                assert!(pair[0] <= pair[1] + 1e-9, "fractions not monotone");
            }
        }
        // The blend moves with the pipeline: some node already serves a
        // later daemon instance than the very first launch.
        assert!(
            got.iter().any(|e| e.instance > DAEMON_INSTANCE_BASE),
            "no node absorbed a second daemon instance"
        );
        assert!(cluster.shutdown().clean);
    }

    #[test]
    fn views_bootstrap_through_the_seed() {
        let values: Vec<AttrValue> = (0..4).map(|i| AttrValue::Single(i as f64)).collect();
        let cluster = Cluster::launch(values, fast_config()).expect("launch");
        // The seed learned every joiner; every joiner knows at least the
        // seed.
        let seed_view = cluster.nodes()[0].view();
        for node in &cluster.nodes()[1..] {
            assert!(seed_view.contains(&node.port()));
            assert!(node.view().contains(&cluster.port(0)));
        }
        assert!(cluster.shutdown().clean);
    }
}
