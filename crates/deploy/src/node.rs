//! The per-node actor: one `Adam2Node` behind a TCP listener.
//!
//! [`NodeShared`] is the backend-neutral heart of a deployed node: the
//! protocol state (`Adam2Node`, peer view, seq cache, RNG) behind one
//! mutex, plus the pure protocol entry points both runtimes drive:
//!
//! - `NodeShared::respond_frame` — answer one inbound frame: gossip
//!   requests go through [`adam2_core::runtime::serve_exchange`], bootstrap
//!   joins extend the peer view, and control frames (instance injection,
//!   estimate collection) service the harness. Responses to gossip
//!   requests are cached by sequence number so a retransmitted request
//!   replays the original response instead of re-applying the merge — the
//!   same dedup contract the simulator's exchange-repair path relies on.
//! - `NodeShared::plan_round` — finalise due instances and pick this
//!   round's exchange partner.
//! - `NodeShared::begin_exchange` / `NodeShared::complete_exchange` —
//!   initiator-side bookkeeping via [`adam2_core::runtime::PendingExchange`].
//!
//! The *threaded* backend in this module drives those entry points with
//! three OS threads per node (listener / clock / sender over a bounded
//! outbound queue); the *reactor* backend in `crate::reactor` drives the
//! same entry points from a shared event loop. Nothing here panics on
//! network input: malformed frames are counted and the connection dropped.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adam2_core::runtime::PendingExchange;
use adam2_core::wire::GossipMessage;
use adam2_core::{Adam2Node, AttrValue, BlendedTracker, FadeConfig};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::RngExt as _;
use rand::SeedableRng;

use crate::config::NodeConfig;
use crate::frame::{read_frame_counted, write_frame, EstimateWire, Frame, FrameError};
use crate::shim::{Direction, LossShim};
use crate::stats::NodeStats;

/// How often blocked loops (accept polling, queue waits) re-check the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(1);

/// Entries kept in the per-node response cache before the oldest sequence
/// numbers are evicted.
pub(crate) const SEQ_CACHE_CAP: usize = 256;

/// One queued exchange attempt: gossip with a peer for a given round.
struct ExchangeJob {
    peer: u16,
    round: u64,
}

/// Bounded multi-producer queue with a condvar for the sender thread.
#[derive(Default)]
struct OutboundQueue {
    jobs: Mutex<VecDeque<ExchangeJob>>,
    ready: Condvar,
}

struct CacheEntry {
    response: Bytes,
    times_seen: u32,
}

/// Bounded seq → cached-response map (FIFO eviction).
struct SeqCache {
    entries: HashMap<u64, CacheEntry>,
    order: VecDeque<u64>,
}

impl SeqCache {
    fn new() -> Self {
        Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Bumps and returns the delivery count for `seq` if cached.
    fn replay(&mut self, seq: u64) -> Option<(Bytes, u32)> {
        let entry = self.entries.get_mut(&seq)?;
        entry.times_seen += 1;
        Some((entry.response.clone(), entry.times_seen))
    }

    fn insert(&mut self, seq: u64, response: Bytes) {
        if self.entries.len() >= SEQ_CACHE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        self.order.push_back(seq);
        self.entries.insert(
            seq,
            CacheEntry {
                response,
                times_seen: 0,
            },
        );
    }
}

/// Mutable node state: everything the threads (or reactor shards) contend
/// on.
struct NodeInner {
    node: Adam2Node,
    view: Vec<u16>,
    seq_cache: SeqCache,
    next_seq: u64,
    rng: StdRng,
    /// Daemon mode only: the time-faded blend of completed estimates this
    /// node serves from `GetEstimate` instead of the newest snapshot.
    tracker: Option<BlendedTracker>,
}

/// State shared between a node's runtime (threads or reactor shard) and the
/// cluster driver.
pub struct NodeShared {
    inner: Mutex<NodeInner>,
    queue: OutboundQueue,
    /// Lock-free counters sampled by the cluster driver.
    pub stats: NodeStats,
    shutdown: AtomicBool,
    /// Cluster-wide round-zero instant; all nodes share it so their clocks
    /// agree on round numbers.
    epoch: Instant,
    config: NodeConfig,
    shim: Arc<LossShim>,
    port: u16,
}

impl NodeShared {
    /// Binds a nonblocking listener on an ephemeral loopback port and
    /// builds the shared node state around it. The node starts with an
    /// empty view; the cluster bootstraps it through an introducer
    /// afterwards. Backends take the listener and drive it however they
    /// like (blocking accept-poll thread, or a reactor sweep).
    pub(crate) fn create(
        value: AttrValue,
        initial_n_estimate: f64,
        config: NodeConfig,
        shim: Arc<LossShim>,
        epoch: Instant,
        fade: Option<FadeConfig>,
    ) -> io::Result<(Arc<Self>, TcpListener)> {
        let listener = TcpListener::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let shared = Arc::new(Self {
            inner: Mutex::new(NodeInner {
                node: Adam2Node::new(value, initial_n_estimate),
                view: Vec::new(),
                seq_cache: SeqCache::new(),
                next_seq: u64::from(port) << 40,
                rng: StdRng::seed_from_u64(config.seed ^ u64::from(port)),
                tracker: fade.map(BlendedTracker::new),
            }),
            queue: OutboundQueue::default(),
            stats: NodeStats::default(),
            shutdown: AtomicBool::new(false),
            epoch,
            config,
            shim,
            port,
        });
        Ok((shared, listener))
    }

    /// Loopback port the node's listener answers on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The node's timing/robustness configuration.
    pub(crate) fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The socket-level fault shim this node draws from.
    pub(crate) fn shim(&self) -> &LossShim {
        &self.shim
    }

    /// Current gossip round according to the shared clock.
    pub fn current_round(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / self.config.tick.as_nanos().max(1)) as u64
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Snapshot of the node's current peer view (for tests and the driver).
    pub fn view(&self) -> Vec<u16> {
        self.inner.lock().expect("node lock").view.clone()
    }

    /// Seeds the node's peer view from outside — the cluster bootstrap path
    /// feeds `JoinAck` digests here on the joiner's behalf.
    pub fn admit_peers(&self, peers: &[u16]) {
        let mut inner = self.inner.lock().expect("node lock");
        self.merge_peers(&mut inner, peers);
    }

    /// The node's current distribution estimate, if any instance completed.
    ///
    /// In daemon mode this is the time-faded blend over the node's
    /// completed instances (rendered at the newest estimate's knots so it
    /// is wire-compatible with a single snapshot); otherwise it is the
    /// newest completed instance verbatim.
    pub fn estimate_wire(&self) -> Option<EstimateWire> {
        let now = self.current_round();
        let inner = self.inner.lock().expect("node lock");
        let Some(tracker) = inner.tracker.as_ref() else {
            return inner.node.estimate().map(EstimateWire::from);
        };
        let newest = tracker.newest()?;
        let (min, max, thresholds, fractions) = tracker.snapshot_points(now)?;
        Some(EstimateWire {
            instance: newest.instance,
            completed_round: newest.completed_at,
            n_hat: inner.node.estimate().and_then(|e| e.n_hat),
            min,
            max,
            thresholds,
            fractions,
        })
    }

    fn merge_peers(&self, inner: &mut NodeInner, peers: &[u16]) {
        for &p in peers {
            if p != self.port && !inner.view.contains(&p) {
                inner.view.push(p);
            }
        }
        let cap = self.config.view_size;
        if inner.view.len() > cap {
            // Keep the freshest tail: newly learned peers displace the
            // oldest entries, a crude but serviceable view shuffle.
            let excess = inner.view.len() - cap;
            inner.view.drain(..excess);
        }
    }

    /// Sample of this node's view plus its own port, piggybacked on
    /// responses so initiators keep their views fresh.
    fn view_digest(&self, inner: &mut NodeInner) -> Vec<u16> {
        let mut digest = Vec::with_capacity(5);
        digest.push(self.port);
        let len = inner.view.len();
        for _ in 0..4.min(len) {
            let idx = inner.rng.random_range(0..len);
            let pick = inner.view[idx];
            if !digest.contains(&pick) {
                digest.push(pick);
            }
        }
        digest
    }

    // -----------------------------------------------------------------------
    // Backend-neutral protocol entry points
    // -----------------------------------------------------------------------

    /// Answers one inbound frame, returning the encoded reply to write back
    /// (or `None` when the connection should close without a reply — either
    /// the frame type never gets one, or the shim dropped the response).
    ///
    /// Gossip requests replay the cached response on a retransmit,
    /// otherwise merge and cache. The reply is subject to the shim's
    /// response-loss draw *after* the merge — reproducing exactly the
    /// "response lost" perturbation the repair path is built to heal.
    pub(crate) fn respond_frame(&self, frame: Frame) -> Option<Bytes> {
        match frame {
            Frame::Request { sender_port, msg } => {
                let round = self.current_round();
                let seq = msg.seq;
                let mut inner = self.inner.lock().expect("node lock");
                let (encoded, attempt) =
                    if let Some((cached, times_seen)) = inner.seq_cache.replay(seq) {
                        self.stats.record_retransmission();
                        (cached, times_seen)
                    } else {
                        let (response_msg, _outcome) =
                            adam2_core::runtime::serve_exchange(&mut inner.node, &msg, round);
                        let digest = self.view_digest(&mut inner);
                        let encoded = Frame::Response {
                            peers: digest,
                            msg: response_msg,
                        }
                        .encode();
                        inner.seq_cache.insert(seq, encoded.clone());
                        (encoded, 0)
                    };
                self.merge_peers(&mut inner, &[sender_port]);
                drop(inner);
                if self
                    .shim
                    .should_drop(round, seq, attempt, Direction::Response)
                {
                    self.stats.record_shim_drop();
                    return None;
                }
                Some(encoded)
            }
            Frame::Join { port } => {
                let mut inner = self.inner.lock().expect("node lock");
                self.merge_peers(&mut inner, &[port]);
                let digest = self.view_digest(&mut inner);
                Some(Frame::JoinAck { peers: digest }.encode())
            }
            Frame::StartInstance { msg } => {
                if let Some(payload) = msg.instances.first() {
                    let meta = payload.meta();
                    let mut inner = self.inner.lock().expect("node lock");
                    inner.node.begin_instance(meta);
                }
                Some(Frame::Ack.encode())
            }
            Frame::GetEstimate => Some(Frame::Estimate(self.estimate_wire()).encode()),
            // Peers never open a connection with these; ignore.
            Frame::Response { .. } | Frame::JoinAck { .. } | Frame::Estimate(_) | Frame::Ack => {
                None
            }
        }
    }

    /// Start-of-round work: finalise due instances, then pick this round's
    /// exchange partner (or `None` while the view is still empty).
    ///
    /// Gossips every round even without instances: an empty request pulls
    /// the responder's running instances back (anti-entropy), so nodes
    /// that no view currently points at still get infected, and the
    /// piggybacked peer digests keep views fresh.
    pub(crate) fn plan_round(&self, round: u64) -> Option<u16> {
        let mut inner = self.inner.lock().expect("node lock");
        inner.node.finalize_due_instances(round);
        // Daemon mode: fold any freshly finalised estimate into the blend
        // (absorb ignores instances already tracked, so re-offering the
        // newest estimate every round is idempotent).
        let NodeInner { node, tracker, .. } = &mut *inner;
        if let (Some(tracker), Some(est)) = (tracker.as_mut(), node.estimate()) {
            tracker.absorb(est.instance.as_u64(), est.completed_round, est.cdf.clone());
        }
        if inner.view.is_empty() {
            None
        } else {
            let len = inner.view.len();
            let pick = inner.rng.random_range(0..len);
            Some(inner.view[pick])
        }
    }

    /// Allocates a sequence number and snapshots this round's outbound
    /// exchange into a [`PendingExchange`] both backends drive attempts
    /// from.
    pub(crate) fn begin_exchange(&self, round: u64) -> PendingExchange {
        let mut inner = self.inner.lock().expect("node lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        PendingExchange::begin(&inner.node, round, seq, self.config.retries)
    }

    /// Absorbs a peer's gossip response into the node and merges the
    /// piggybacked peer digest into the view.
    pub(crate) fn complete_exchange(
        &self,
        pending: &PendingExchange,
        peers: &[u16],
        response: &GossipMessage,
    ) {
        let mut inner = self.inner.lock().expect("node lock");
        pending.absorb(&mut inner.node, response);
        self.merge_peers(&mut inner, peers);
    }
}

/// A node running on the threaded backend: shared state plus the three OS
/// thread handles. Internal to the crate — runtimes are selected through
/// [`crate::ClusterConfig`], never by spawning nodes directly.
pub(crate) struct NodeHandle {
    /// State shared with the node's threads.
    pub(crate) shared: Arc<NodeShared>,
    threads: Vec<JoinHandle<()>>,
}

impl NodeHandle {
    /// Creates the node state and spawns the three threads of the
    /// thread-per-node backend.
    pub(crate) fn spawn(
        value: AttrValue,
        initial_n_estimate: f64,
        config: NodeConfig,
        shim: Arc<LossShim>,
        epoch: Instant,
        fade: Option<FadeConfig>,
    ) -> io::Result<Self> {
        let (shared, listener) =
            NodeShared::create(value, initial_n_estimate, config, shim, epoch, fade)?;
        let threads = vec![
            spawn_named("listener", {
                let shared = Arc::clone(&shared);
                move || listener_loop(&shared, listener)
            }),
            spawn_named("clock", {
                let shared = Arc::clone(&shared);
                move || clock_loop(&shared)
            }),
            spawn_named("sender", {
                let shared = Arc::clone(&shared);
                move || sender_loop(&shared)
            }),
        ];
        Ok(Self { shared, threads })
    }

    /// Signals every thread to stop and joins them. Returns `true` when all
    /// threads exited cleanly (none panicked).
    pub(crate) fn shutdown(mut self) -> bool {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.ready.notify_all();
        let mut clean = true;
        for handle in self.threads.drain(..) {
            clean &= handle.join().is_ok();
        }
        clean
    }
}

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("adam2-{name}"))
        .spawn(f)
        .expect("spawn node thread")
}

// ---------------------------------------------------------------------------
// Listener thread
// ---------------------------------------------------------------------------

fn listener_loop(shared: &NodeShared, listener: TcpListener) {
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.stats.record_connection_accepted();
                handle_connection(shared, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn handle_connection(shared: &NodeShared, mut stream: TcpStream) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_nodelay(true);
    let frame = match read_frame_counted(&mut stream) {
        Ok((n, Ok(frame))) => {
            shared.stats.record_frame_received(n);
            frame
        }
        Ok((_, Err(e))) => {
            // Protocol violation: count it, drop the connection, move on.
            // Implausible-value rejections (the Byzantine wire screen) are
            // counted separately from structurally malformed frames.
            match e {
                FrameError::InvalidValues(_) => shared.stats.record_invalid_frame(),
                _ => shared.stats.record_malformed_frame(),
            }
            return;
        }
        Err(_) => return, // timeout / reset mid-frame
    };
    if let Some(reply) = shared.respond_frame(frame) {
        use std::io::Write as _;
        if stream.write_all(reply.as_slice()).is_ok() && stream.flush().is_ok() {
            shared.stats.record_frame_sent(reply.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Clock thread
// ---------------------------------------------------------------------------

fn clock_loop(shared: &NodeShared) {
    let mut last_round: Option<u64> = None;
    while !shared.is_shutdown() {
        let round = shared.current_round();
        if last_round != Some(round) {
            last_round = Some(round);
            on_round_start(shared, round);
        }
        std::thread::sleep(POLL.max(shared.config.tick / 8));
    }
}

fn on_round_start(shared: &NodeShared, round: u64) {
    let Some(peer) = shared.plan_round(round) else {
        return;
    };
    let mut jobs = shared.queue.jobs.lock().expect("queue lock");
    if jobs.len() >= shared.config.queue_capacity {
        // Backpressure: the sender can't keep up (slow or dead peers);
        // shedding this round's exchange is the graceful option.
        shared.stats.record_backpressure_drop();
        return;
    }
    jobs.push_back(ExchangeJob { peer, round });
    shared.stats.record_queue_depth(jobs.len());
    drop(jobs);
    shared.queue.ready.notify_one();
}

// ---------------------------------------------------------------------------
// Sender thread
// ---------------------------------------------------------------------------

fn sender_loop(shared: &NodeShared) {
    while !shared.is_shutdown() {
        let job = {
            let jobs = shared.queue.jobs.lock().expect("queue lock");
            let (mut jobs, _) = shared
                .queue
                .ready
                .wait_timeout_while(jobs, shared.config.tick, |q| q.is_empty())
                .expect("queue lock");
            jobs.pop_front()
        };
        if let Some(job) = job {
            run_exchange(shared, &job);
        }
    }
}

/// One push–pull exchange against `job.peer`, with shim loss draws and
/// bounded retries. Request loss is emulated *before* connecting (the frame
/// never reaches the peer, and the initiator waits out its timeout);
/// response loss happens responder-side after the merge. Either way the
/// initiator retries with the same sequence number, so the responder's
/// cache replays rather than re-merging.
fn run_exchange(shared: &NodeShared, job: &ExchangeJob) {
    let mut pending = shared.begin_exchange(job.round);
    shared.stats.record_exchange_started();
    shared.stats.enter_flight();
    let started = Instant::now();
    let delay_ticks = shared.shim.extra_delay_ticks(job.round);
    if delay_ticks > 0 {
        std::thread::sleep(shared.config.tick.min(Duration::from_millis(2)) * delay_ticks as u32);
    }
    let mut completed = false;
    while let Some(attempt) = pending.next_attempt() {
        if attempt > 0 {
            shared.stats.record_retransmission();
        }
        if shared
            .shim
            .should_drop(job.round, pending.seq(), attempt, Direction::Request)
        {
            // The request "left" but never arrives: burn the timeout the
            // initiator would have spent waiting, then retry.
            shared.stats.record_shim_drop();
            std::thread::sleep(shared.config.io_timeout);
            continue;
        }
        match attempt_exchange(shared, job.peer, &pending.sent) {
            Ok(Some((peers, response))) => {
                shared.complete_exchange(&pending, &peers, &response);
                completed = true;
                break;
            }
            Ok(None) | Err(_) => continue, // non-response or socket failure
        }
    }
    shared.stats.leave_flight();
    if completed {
        shared.stats.record_exchange_completed();
        shared
            .stats
            .record_latency_us(started.elapsed().as_micros() as u64);
    } else {
        shared.stats.record_exchange_aborted();
    }
}

type PeersAndMessage = (Vec<u16>, GossipMessage);

fn attempt_exchange(
    shared: &NodeShared,
    peer: u16,
    sent: &GossipMessage,
) -> io::Result<Option<PeersAndMessage>> {
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, peer));
    let mut stream = TcpStream::connect_timeout(&addr, shared.config.io_timeout)?;
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_nodelay(true);
    let n = write_frame(
        &mut stream,
        &Frame::Request {
            sender_port: shared.port,
            msg: sent.clone(),
        },
    )?;
    shared.stats.record_frame_sent(n);
    match read_frame_counted(&mut stream)? {
        (n, Ok(Frame::Response { peers, msg })) => {
            shared.stats.record_frame_received(n);
            Ok(Some((peers, msg)))
        }
        (_, Ok(_)) => Ok(None),
        (_, Err(FrameError::InvalidValues(_))) => {
            shared.stats.record_invalid_frame();
            Ok(None)
        }
        (_, Err(_)) => {
            shared.stats.record_malformed_frame();
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_cache_evicts_fifo_at_capacity() {
        let mut cache = SeqCache::new();
        let payload = Frame::Ack.encode();
        for seq in 0..SEQ_CACHE_CAP as u64 {
            cache.insert(seq, payload.clone());
        }
        // Full but nothing evicted yet: the very first entry still replays.
        assert!(cache.replay(0).is_some());
        // One past capacity evicts exactly the oldest sequence number.
        cache.insert(SEQ_CACHE_CAP as u64, payload.clone());
        assert!(cache.replay(0).is_none());
        assert!(cache.replay(1).is_some());
        assert!(cache.replay(SEQ_CACHE_CAP as u64).is_some());
        // A second overflow takes the next-oldest, in FIFO order.
        cache.insert(SEQ_CACHE_CAP as u64 + 1, payload);
        assert!(cache.replay(1).is_none());
        assert!(cache.replay(2).is_some());
    }

    #[test]
    fn seq_cache_replay_counts_deliveries() {
        let mut cache = SeqCache::new();
        cache.insert(7, Frame::Ack.encode());
        let (_, first) = cache.replay(7).expect("cached");
        let (_, second) = cache.replay(7).expect("cached");
        assert_eq!(first, 1);
        assert_eq!(second, 2);
        assert!(cache.replay(8).is_none());
    }
}
