//! Integration tests for the deploy runtime against the simulator.
//!
//! The reactor executes the simulator's protocol state over real sockets,
//! so a clean run must land on the simulator's answer, and garbage on a
//! reactor socket must be a counted error — never a hang or a panic.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use adam2_bench::{
    adam2_engine, complete_instance, evaluate_estimates, evaluate_peer_estimates, setup,
    start_instance, ErrorReport, PeerEstimate,
};
use adam2_core::{Adam2Config, AttrValue, InstanceMeta, StepCdf};
use adam2_deploy::{
    read_frame, write_frame, Cluster, ClusterConfig, EstimateWire, Frame, LossShim, NodeConfig,
    RuntimeKind,
};
use adam2_sim::ChurnModel;
use adam2_traces::Attribute;

const NODES: usize = 64;
const SEED: u64 = 23;
const LAMBDA: usize = 50;
/// Generous round budget: push–pull converges geometrically, so by round
/// 40 at 64 nodes every node's estimate has collapsed onto the global
/// aggregate and Err_a is purely the λ-threshold discretisation floor —
/// the same floor the simulator reports.
const ROUNDS: u64 = 40;
const WARMUP_ROUNDS: u64 = 3;

fn node_config() -> NodeConfig {
    NodeConfig {
        tick: Duration::from_millis(30),
        io_timeout: Duration::from_millis(15),
        retries: 2,
        queue_capacity: 4,
        view_size: 12,
        seed: SEED,
    }
}

fn peer_estimate(e: &EstimateWire) -> PeerEstimate {
    PeerEstimate {
        instance: e.instance,
        thresholds: e.thresholds.clone(),
        fractions: e.fractions.clone(),
        min: e.min,
        max: e.max,
    }
}

/// The simulator's ground truth on the shared population: the instance
/// (for its thresholds) plus the converged error report.
fn simulator_truth() -> (Arc<InstanceMeta>, Vec<AttrValue>, StepCdf, ErrorReport) {
    let s = setup(Attribute::Ram, NODES, SEED);
    let config = Adam2Config::new()
        .with_lambda(LAMBDA)
        .with_rounds_per_instance(ROUNDS);
    let mut engine = adam2_engine(&s, config, SEED, ChurnModel::None);
    let meta = start_instance(&mut engine);
    complete_instance(&mut engine, ROUNDS);
    let report = evaluate_estimates(&engine, &s.truth, 0, SEED);
    let values = s
        .population
        .values()
        .iter()
        .map(|v| AttrValue::Single(*v))
        .collect();
    let truth = StepCdf::from_values(s.population.values().to_vec());
    (meta, values, truth, report)
}

/// Runs one deploy cluster over the simulator's instance and scores it
/// through the same evaluation pipeline.
fn run_cluster(meta: &InstanceMeta, values: Vec<AttrValue>, truth: &StepCdf) -> ErrorReport {
    let config = ClusterConfig::try_new(node_config())
        .unwrap()
        .with_runtime(RuntimeKind::Reactor { threads: 2 })
        .unwrap()
        .with_shim(LossShim::none());
    let cluster = Cluster::launch(values, config).expect("cluster launch");
    let start_round = cluster.current_round() + WARMUP_ROUNDS;
    let deploy_meta = Arc::new(InstanceMeta {
        id: meta.id,
        thresholds: meta.thresholds.clone(),
        verify_thresholds: meta.verify_thresholds.clone(),
        start_round,
        end_round: start_round + ROUNDS,
        multi: meta.multi,
    });
    cluster
        .start_instance(0, Arc::clone(&deploy_meta))
        .expect("start instance");
    while cluster.current_round() <= deploy_meta.end_round + 1 {
        std::thread::sleep(Duration::from_millis(10));
    }
    let estimates = cluster.collect_estimates(Duration::from_secs(10));
    let peers: Vec<Option<PeerEstimate>> = estimates
        .iter()
        .map(|e| e.as_ref().map(peer_estimate))
        .collect();
    let report = evaluate_peer_estimates(&peers, truth, 0, SEED);
    let shutdown = cluster.shutdown();
    assert!(shutdown.clean, "cluster did not shut down cleanly");
    report
}

#[test]
fn reactor_agrees_with_the_simulator_on_a_clean_run() {
    let (meta, values, truth, sim) = simulator_truth();
    let reactor = run_cluster(&meta, values, &truth);

    assert_eq!(reactor.peers_without_estimate, 0);
    // The cluster must sit on the simulator's discretisation floor. The
    // small absolute slack absorbs the handful of exchanges a node can
    // miss to wall-clock scheduling right at the deadline — convergence
    // contracts by ~2x per round, so 40 rounds leave no gossip error.
    assert!(
        (reactor.avg_cdf - sim.avg_cdf).abs() <= 1e-3,
        "reactor Err_a {:.6e} vs simulator {:.6e}",
        reactor.avg_cdf,
        sim.avg_cdf
    );
}

/// Frame-decode fuzz through the reactor's nonblocking read path: every
/// category of malformed input must end as a counter bump and a closed
/// connection, with the node still serving control frames afterwards.
#[test]
fn reactor_read_path_rejects_garbage_and_stays_responsive() {
    let config = ClusterConfig::try_new(NodeConfig {
        tick: Duration::from_millis(25),
        io_timeout: Duration::from_millis(15),
        retries: 2,
        queue_capacity: 4,
        view_size: 8,
        seed: 7,
    })
    .unwrap()
    .with_runtime(RuntimeKind::Reactor { threads: 1 })
    .unwrap();
    let cluster = Cluster::launch(
        (0..4).map(|i| AttrValue::Single(i as f64)).collect(),
        config,
    )
    .expect("cluster launch");
    let target = &cluster.nodes()[0];
    let addr = format!("127.0.0.1:{}", target.port());
    let before = target.stats.snapshot();

    // Each payload is one connection's worth of hostile bytes. The
    // reactor must never block on them: it reads nonblockingly, decodes,
    // counts, and drops the connection.
    let oversized = {
        let mut b = (adam2_deploy::MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        b.extend_from_slice(&[0u8; 16]);
        b
    };
    let unknown_kind = {
        let mut b = 1u32.to_le_bytes().to_vec();
        b.push(0xEE);
        b
    };
    let truncated_body = {
        // A complete frame whose body is internally truncated: kind says
        // Request (1) but the sender-port/message payload is one byte.
        let mut b = 2u32.to_le_bytes().to_vec();
        b.extend_from_slice(&[1u8, 0u8]);
        b
    };
    // 0xA5A5A5A5 as a length prefix is far past MAX_FRAME.
    let garbage = vec![0xA5u8; 64];
    let payloads: Vec<Vec<u8>> = vec![oversized, unknown_kind, truncated_body, garbage];
    let hostile = payloads.len();
    for payload in payloads {
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.write_all(&payload).expect("write fuzz payload");
        // Closing immediately is fine: the kernel delivers the buffered
        // bytes to the accepted socket before EOF.
        drop(conn);
    }

    // A valid frame delivered byte-by-byte exercises the partial-read
    // accumulation path: header split from body, body split in two.
    {
        let mut conn = TcpStream::connect(&addr).expect("connect");
        let frame = Frame::GetEstimate.encode();
        for chunk in frame.as_ref().chunks(3) {
            conn.write_all(chunk).expect("write chunk");
            conn.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match read_frame(&mut conn)
            .expect("read response")
            .expect("decode")
        {
            Frame::Estimate(_) => {}
            other => panic!("expected Estimate, got {other:?}"),
        }
    }

    // The counters must reflect every hostile connection, and the node
    // must still answer control traffic on a fresh socket.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let snap = target.stats.snapshot();
        let counted = (snap.malformed_frames + snap.frames_rejected_invalid)
            .saturating_sub(before.malformed_frames + before.frames_rejected_invalid);
        if counted >= hostile as u64 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "only {counted} of {hostile} hostile connections were counted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut conn = TcpStream::connect(&addr).expect("connect after fuzz");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut conn, &Frame::GetEstimate).expect("write control frame");
    match read_frame(&mut conn)
        .expect("read response")
        .expect("decode")
    {
        Frame::Estimate(_) => {}
        other => panic!("expected Estimate, got {other:?}"),
    }

    assert!(cluster.shutdown().clean);
}
