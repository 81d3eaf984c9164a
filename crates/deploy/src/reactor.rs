//! The deploy runtime: a small pool of event-loop threads multiplexing
//! every node of a cluster over nonblocking sockets.
//!
//! The cluster's nodes are partitioned into contiguous *shards*, one
//! reactor thread per shard, and each thread owns everything its nodes do
//! with the network, so thread count is independent of node count and one
//! host runs 10⁴ nodes:
//!
//! - **accept sweeps** — the per-node listeners stay nonblocking; the
//!   reactor sweeps them at a rate-limited interval (scaled to the shard's
//!   node count), letting the kernel's listen backlog buffer connections
//!   between sweeps. No `epoll` is needed — with loopback sockets and
//!   round lengths in the tens of milliseconds and up, bounded-latency
//!   polling over nonblocking fds is enough, and it keeps the crate free
//!   of platform dependencies.
//! - **a deadline timer wheel** — the sim crate's [`TimerWheel`] (shards =
//!   1, millisecond ticks against the cluster epoch) drives node round
//!   ticks, per-attempt I/O deadlines, and shim-induced retry delays.
//!   Node ticks are phase-staggered by a hash of the listener port so ten
//!   thousand nodes don't connect in the same millisecond. Stale timers
//!   are invalidated by a shard-wide generation stamped on each exchange
//!   rather than cancelled in the wheel; because it is shard-wide, an
//!   exchange that reuses a freed slab slot never matches its
//!   predecessor's leftover deadline.
//! - **per-connection state machines** — inbound connections run
//!   read-frame → [`NodeShared::respond_frame`] → write-reply → close;
//!   outbound exchanges run the attempt loop (shim draws, bounded retries,
//!   same-seq retransmission) as an incremental connect/write/read machine
//!   with wheel deadlines instead of blocking socket timeouts.
//! - **outbound budgets** — at most `queue_capacity` exchanges may be live
//!   per node; a round whose exchange would exceed it is shed and counted
//!   as backpressure, so a slow peer cannot stall a node's clock.
//!
//! Protocol state stays in [`NodeShared`]; this module only decides when
//! its entry points run and moves their frames over sockets.

use std::io::{self, Read as _, Write as _};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adam2_core::runtime::PendingExchange;
use adam2_sim::TimerWheel;
use bytes::Bytes;

use crate::frame::{Frame, FrameError, MAX_FRAME};
use crate::node::NodeShared;
use crate::shim::Direction;

/// Upper bound on connections accepted from one listener per sweep, so a
/// hot node cannot starve the rest of the shard.
const ACCEPTS_PER_SWEEP: usize = 64;

/// A pool of reactor threads running a set of nodes. Internal to the
/// crate — sized through [`crate::RuntimeKind::Reactor`].
pub(crate) struct ReactorPool {
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorPool {
    /// Splits `nodes` into `threads` contiguous shards and spawns one
    /// reactor thread per (non-empty) shard.
    pub(crate) fn launch(
        nodes: Vec<(Arc<NodeShared>, TcpListener)>,
        threads: usize,
        epoch: Instant,
    ) -> Self {
        let shutdown = Arc::new(AtomicBool::new(false));
        let threads = threads.max(1).min(nodes.len().max(1));
        let per_shard = nodes.len().div_ceil(threads.max(1)).max(1);
        let mut handles = Vec::new();
        let mut nodes = nodes;
        let mut shard_idx = 0usize;
        while !nodes.is_empty() {
            let rest = nodes.split_off(per_shard.min(nodes.len()));
            let shard_nodes = std::mem::replace(&mut nodes, rest);
            let flag = Arc::clone(&shutdown);
            let handle = std::thread::Builder::new()
                .name(format!("adam2-reactor-{shard_idx}"))
                .spawn(move || ShardRuntime::new(shard_nodes, epoch, flag).run())
                .expect("spawn reactor thread");
            handles.push(handle);
            shard_idx += 1;
        }
        Self {
            shutdown,
            threads: handles,
        }
    }

    /// Signals every reactor thread to stop and joins them. Returns `true`
    /// when all threads exited cleanly (none panicked).
    pub(crate) fn shutdown(mut self) -> bool {
        self.shutdown.store(true, Ordering::Relaxed);
        let mut clean = true;
        for handle in self.threads.drain(..) {
            clean &= handle.join().is_ok();
        }
        clean
    }
}

/// Timers multiplexed through the shard's wheel. Exchange timers carry the
/// generation stamped when they were scheduled; a mismatch on firing means
/// the attempt (or the whole exchange) they guarded is already over.
enum Timer {
    /// A node's next round boundary (phase-staggered).
    NodeTick { node: usize },
    /// Outbound attempt deadline: the peer did not answer in time.
    Deadline { conn: usize, gen: u64 },
    /// Delayed attempt start (shim request-drop burn, shim extra delay).
    Retry { conn: usize, gen: u64 },
}

/// Outcome of one poll pass over an outbound connection, computed while
/// the slab entry is borrowed and acted on once the borrow ends.
enum OutboundStep {
    /// Nothing to do (no entry, waiting, or the socket would block).
    Idle,
    /// The current attempt failed; move to the next one.
    Fail,
    /// A gossip response arrived.
    Complete {
        node: usize,
        bytes: usize,
        peers: Vec<u16>,
        msg: adam2_core::wire::GossipMessage,
    },
}

/// Result of polling a nonblocking frame read.
enum ReadPoll {
    /// No complete frame yet; the socket would block.
    Pending,
    /// A full length-prefixed frame arrived: total bytes consumed plus the
    /// decode result.
    Frame(usize, Result<Frame, FrameError>),
    /// EOF or socket error mid-frame.
    Closed,
}

/// Incremental reader for one `u32 length (LE) + body` frame.
struct FrameReader {
    header: [u8; 4],
    header_got: usize,
    body: Vec<u8>,
    body_got: usize,
}

impl FrameReader {
    fn new() -> Self {
        Self {
            header: [0; 4],
            header_got: 0,
            body: Vec::new(),
            body_got: 0,
        }
    }

    fn poll(&mut self, stream: &mut TcpStream) -> ReadPoll {
        loop {
            if self.header_got < 4 {
                match stream.read(&mut self.header[self.header_got..]) {
                    Ok(0) => return ReadPoll::Closed,
                    Ok(n) => {
                        self.header_got += n;
                        if self.header_got == 4 {
                            let len = u32::from_le_bytes(self.header) as usize;
                            if len > MAX_FRAME {
                                // Same contract as `read_frame`: never
                                // allocate for an adversarial prefix.
                                return ReadPoll::Frame(4, Err(FrameError::Oversized(len)));
                            }
                            self.body = vec![0u8; len];
                            self.body_got = 0;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadPoll::Pending,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return ReadPoll::Closed,
                }
            } else if self.body_got < self.body.len() {
                let got = self.body_got;
                match stream.read(&mut self.body[got..]) {
                    Ok(0) => return ReadPoll::Closed,
                    Ok(n) => self.body_got += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadPoll::Pending,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return ReadPoll::Closed,
                }
            } else {
                let body = std::mem::take(&mut self.body);
                let total = 4 + body.len();
                return ReadPoll::Frame(total, Frame::decode(Bytes::from(body)));
            }
        }
    }
}

enum WritePoll {
    Pending,
    /// The whole frame went out; carries its length for traffic metering.
    Done(usize),
    Closed,
}

/// Incremental writer for one encoded frame.
struct FrameWriter {
    buf: Bytes,
    off: usize,
}

impl FrameWriter {
    fn new(buf: Bytes) -> Self {
        Self { buf, off: 0 }
    }

    fn poll(&mut self, stream: &mut TcpStream) -> WritePoll {
        while self.off < self.buf.len() {
            match stream.write(&self.buf.as_slice()[self.off..]) {
                Ok(0) => return WritePoll::Closed,
                Ok(n) => self.off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return WritePoll::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return WritePoll::Closed,
            }
        }
        WritePoll::Done(self.buf.len())
    }
}

/// One accepted connection being served: read a frame, answer it, close.
struct Inbound {
    node: usize,
    stream: TcpStream,
    reader: FrameReader,
    writer: Option<FrameWriter>,
    expires: Instant,
}

/// State of one initiated exchange between attempts and within one.
enum OutboundState {
    /// Waiting for a `Retry` timer before the next attempt.
    Waiting,
    /// An attempt is on the wire.
    Active {
        stream: TcpStream,
        writer: Option<FrameWriter>,
        reader: FrameReader,
    },
}

/// One outbound exchange occupying a slot of its node's budget.
struct Outbound {
    node: usize,
    peer: u16,
    round: u64,
    pending: PendingExchange,
    /// The encoded request — identical bytes every attempt (same seq), so
    /// the responder's cache replays rather than re-merging.
    request: Bytes,
    started: Instant,
    /// Restamped from `ShardRuntime::last_gen` whenever the attempt state
    /// changes; timers carrying another generation are stale and ignored.
    gen: u64,
    state: OutboundState,
}

/// All runtime state of one reactor thread.
struct ShardRuntime {
    nodes: Vec<(Arc<NodeShared>, TcpListener)>,
    shutdown: Arc<AtomicBool>,
    epoch: Instant,
    wheel: TimerWheel<Timer>,
    slab: Vec<Option<Outbound>>,
    free: Vec<usize>,
    /// The newest exchange generation handed out. Generations are unique
    /// across the whole shard, not per slot: an exchange that reuses a
    /// freed slot must not match a timer its predecessor left in the wheel.
    last_gen: u64,
    inbound: Vec<Inbound>,
    /// Live exchanges per node — the outbound budget.
    active: Vec<u32>,
    last_round: Vec<Option<u64>>,
    tick_ms: u64,
    io_ms: u64,
    connect_timeout: Duration,
    inbound_idle: Duration,
    sweep_every: Duration,
    poll_every: Duration,
}

impl ShardRuntime {
    fn new(
        nodes: Vec<(Arc<NodeShared>, TcpListener)>,
        epoch: Instant,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        let config = nodes[0].0.config().clone();
        let tick_ms = (config.tick.as_millis() as u64).max(1);
        let io_ms = (config.io_timeout.as_millis() as u64).max(1);
        let n = nodes.len() as u64;
        // Sweeping n listeners costs ~n nonblocking syscalls, so the sweep
        // interval grows with the shard: ~40 listeners per millisecond of
        // interval, floored at 5 ms and capped at a quarter second (the
        // kernel backlog buffers arrivals in between).
        let sweep_every = Duration::from_millis((n / 40).clamp(5, 250));
        // Same reasoning for per-connection polls, at a finer grain.
        let poll_every = Duration::from_millis((n / 1000).clamp(1, 10));
        let active = vec![0; nodes.len()];
        let last_round = vec![None; nodes.len()];
        Self {
            nodes,
            shutdown,
            epoch,
            wheel: TimerWheel::new(4 * tick_ms, 1),
            slab: Vec::new(),
            free: Vec::new(),
            last_gen: 0,
            inbound: Vec::new(),
            active,
            last_round,
            tick_ms,
            io_ms,
            connect_timeout: config.io_timeout.min(Duration::from_millis(5)),
            inbound_idle: (config.io_timeout * 4).max(Duration::from_millis(500)),
            sweep_every,
            poll_every,
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Phase offset of a node's round tick within the tick period, keyed
    /// by its port so the stagger is stable and spread.
    fn tick_offset(&self, node: usize) -> u64 {
        let port = u64::from(self.nodes[node].0.port());
        (port.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % self.tick_ms
    }

    fn run(mut self) {
        let now = self.now_ms();
        for node in 0..self.nodes.len() {
            let offset = self.tick_offset(node);
            self.wheel.push(now + offset, 0, Timer::NodeTick { node });
        }
        let mut last_sweep = Instant::now() - self.sweep_every;
        while !self.shutdown.load(Ordering::Relaxed) {
            let now = self.now_ms();
            while let Some((_, _, timer)) = self.wheel.pop_at_or_before(now) {
                self.handle_timer(timer);
            }
            if last_sweep.elapsed() >= self.sweep_every {
                last_sweep = Instant::now();
                self.sweep_accepts();
            }
            self.poll_inbound();
            self.poll_outbound();
            std::thread::sleep(self.poll_every);
        }
    }

    fn handle_timer(&mut self, timer: Timer) {
        match timer {
            Timer::NodeTick { node } => self.on_node_tick(node),
            Timer::Deadline { conn, gen } => {
                let stale = match self.slab.get(conn).and_then(Option::as_ref) {
                    Some(ob) => ob.gen != gen || !matches!(ob.state, OutboundState::Active { .. }),
                    None => true,
                };
                if !stale {
                    // The peer never answered within io_timeout: burn this
                    // attempt, move to the next.
                    self.start_attempt(conn);
                }
            }
            Timer::Retry { conn, gen } => {
                let stale = match self.slab.get(conn).and_then(Option::as_ref) {
                    Some(ob) => ob.gen != gen || !matches!(ob.state, OutboundState::Waiting),
                    None => true,
                };
                if !stale {
                    self.start_attempt(conn);
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // Round ticks
    // -----------------------------------------------------------------------

    fn on_node_tick(&mut self, node: usize) {
        let shared = Arc::clone(&self.nodes[node].0);
        let round = shared.current_round();
        if self.last_round[node] != Some(round) {
            self.last_round[node] = Some(round);
            if let Some(peer) = shared.plan_round(round) {
                let capacity = shared.config().queue_capacity as u32;
                if self.active[node] >= capacity {
                    // Budget exhausted: shed this round's exchange.
                    shared.stats.record_backpressure_drop();
                } else {
                    self.start_exchange(node, peer, round);
                }
            }
        }
        let next = ((round + 1) * self.tick_ms + self.tick_offset(node)).max(self.now_ms() + 1);
        self.wheel.push(next, 0, Timer::NodeTick { node });
    }

    // -----------------------------------------------------------------------
    // Outbound exchange state machine
    // -----------------------------------------------------------------------

    fn start_exchange(&mut self, node: usize, peer: u16, round: u64) {
        let shared = &self.nodes[node].0;
        let pending = shared.begin_exchange(round);
        let request = Frame::Request {
            sender_port: shared.port(),
            msg: pending.sent.clone(),
        }
        .encode();
        shared.stats.record_exchange_started();
        shared.stats.enter_flight();
        self.active[node] += 1;
        shared.stats.record_queue_depth(self.active[node] as usize);
        let delay_ticks = shared.shim().extra_delay_ticks(round);
        self.last_gen += 1;
        let gen = self.last_gen;
        let outbound = Outbound {
            node,
            peer,
            round,
            pending,
            request,
            started: Instant::now(),
            gen,
            state: OutboundState::Waiting,
        };
        let conn = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = Some(outbound);
                idx
            }
            None => {
                self.slab.push(Some(outbound));
                self.slab.len() - 1
            }
        };
        if delay_ticks > 0 {
            // The shim's extra latency: up to 2 ms per delay tick.
            let delay = self.tick_ms.min(2) * delay_ticks;
            self.wheel
                .push(self.now_ms() + delay.max(1), 0, Timer::Retry { conn, gen });
        } else {
            self.start_attempt(conn);
        }
    }

    /// Drives the attempt loop forward: draws shim loss, connects, and
    /// either arms the next state's timer or finishes the exchange when
    /// the attempt budget is spent.
    fn start_attempt(&mut self, conn: usize) {
        loop {
            let ob = self.slab[conn].as_mut().expect("live exchange");
            let Some(attempt) = ob.pending.next_attempt() else {
                self.finish_exchange(conn, false);
                return;
            };
            let shared = Arc::clone(&self.nodes[ob.node].0);
            if attempt > 0 {
                shared.stats.record_retransmission();
            }
            if shared
                .shim()
                .should_drop(ob.round, ob.pending.seq(), attempt, Direction::Request)
            {
                // The request "left" but never arrives: wait out the
                // timeout the initiator would have spent, then retry.
                shared.stats.record_shim_drop();
                self.last_gen += 1;
                ob.gen = self.last_gen;
                ob.state = OutboundState::Waiting;
                let timer = Timer::Retry { conn, gen: ob.gen };
                self.wheel.push(self.now_ms() + self.io_ms, 0, timer);
                return;
            }
            let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, ob.peer));
            // Loopback connects complete inside the syscall; the short cap
            // bounds the stall if a peer's backlog is momentarily full.
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.last_gen += 1;
                    ob.gen = self.last_gen;
                    let timer = Timer::Deadline { conn, gen: ob.gen };
                    ob.state = OutboundState::Active {
                        stream,
                        writer: Some(FrameWriter::new(ob.request.clone())),
                        reader: FrameReader::new(),
                    };
                    self.wheel.push(self.now_ms() + self.io_ms, 0, timer);
                    return;
                }
                Err(_) => continue, // connect refused/timed out: next attempt
            }
        }
    }

    /// Tears down the current attempt's socket and moves to the next one.
    fn fail_attempt(&mut self, conn: usize) {
        let ob = self.slab[conn].as_mut().expect("live exchange");
        self.last_gen += 1;
        ob.gen = self.last_gen; // invalidate the armed deadline
        ob.state = OutboundState::Waiting;
        self.start_attempt(conn);
    }

    fn finish_exchange(&mut self, conn: usize, completed: bool) {
        let ob = self.slab[conn].take().expect("live exchange");
        self.free.push(conn);
        self.active[ob.node] -= 1;
        let shared = &self.nodes[ob.node].0;
        shared.stats.leave_flight();
        if completed {
            shared.stats.record_exchange_completed();
            shared
                .stats
                .record_latency_us(ob.started.elapsed().as_micros() as u64);
        } else {
            shared.stats.record_exchange_aborted();
        }
    }

    fn poll_outbound(&mut self) {
        for conn in 0..self.slab.len() {
            let step = 'step: {
                let Some(ob) = self.slab[conn].as_mut() else {
                    break 'step OutboundStep::Idle;
                };
                let node = ob.node;
                let OutboundState::Active {
                    stream,
                    writer,
                    reader,
                } = &mut ob.state
                else {
                    break 'step OutboundStep::Idle;
                };
                if let Some(w) = writer {
                    match w.poll(stream) {
                        WritePoll::Pending => break 'step OutboundStep::Idle,
                        WritePoll::Done(n) => {
                            self.nodes[node].0.stats.record_frame_sent(n);
                            *writer = None;
                        }
                        WritePoll::Closed => break 'step OutboundStep::Fail,
                    }
                }
                match reader.poll(stream) {
                    ReadPoll::Pending => OutboundStep::Idle,
                    ReadPoll::Closed => OutboundStep::Fail,
                    ReadPoll::Frame(n, Ok(Frame::Response { peers, msg })) => {
                        OutboundStep::Complete {
                            node,
                            bytes: n,
                            peers,
                            msg,
                        }
                    }
                    ReadPoll::Frame(_, Ok(_)) => OutboundStep::Fail,
                    ReadPoll::Frame(_, Err(FrameError::InvalidValues(_))) => {
                        self.nodes[node].0.stats.record_invalid_frame();
                        OutboundStep::Fail
                    }
                    ReadPoll::Frame(_, Err(_)) => {
                        self.nodes[node].0.stats.record_malformed_frame();
                        OutboundStep::Fail
                    }
                }
            };
            match step {
                OutboundStep::Idle => {}
                OutboundStep::Fail => self.fail_attempt(conn),
                OutboundStep::Complete {
                    node,
                    bytes,
                    peers,
                    msg,
                } => {
                    let shared = Arc::clone(&self.nodes[node].0);
                    shared.stats.record_frame_received(bytes);
                    let pending = &self.slab[conn].as_ref().expect("live exchange").pending;
                    shared.complete_exchange(pending, &peers, &msg);
                    self.finish_exchange(conn, true);
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // Inbound connections
    // -----------------------------------------------------------------------

    fn sweep_accepts(&mut self) {
        let deadline = Instant::now() + self.inbound_idle;
        for node in 0..self.nodes.len() {
            for _ in 0..ACCEPTS_PER_SWEEP {
                match self.nodes[node].1.accept() {
                    Ok((stream, _)) => {
                        self.nodes[node].0.stats.record_connection_accepted();
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        self.inbound.push(Inbound {
                            node,
                            stream,
                            reader: FrameReader::new(),
                            writer: None,
                            expires: deadline,
                        });
                    }
                    Err(_) => break, // WouldBlock or transient error
                }
            }
        }
    }

    fn poll_inbound(&mut self) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.inbound.len() {
            if self.step_inbound(i) || now >= self.inbound[i].expires {
                self.inbound.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Advances one inbound connection; returns `true` when it is done
    /// (answered, failed, or closed) and should be dropped.
    fn step_inbound(&mut self, idx: usize) -> bool {
        let inbound = &mut self.inbound[idx];
        let node = inbound.node;
        if inbound.writer.is_none() {
            match inbound.reader.poll(&mut inbound.stream) {
                ReadPoll::Pending => return false,
                ReadPoll::Closed => return true,
                ReadPoll::Frame(n, Ok(frame)) => {
                    let shared = Arc::clone(&self.nodes[node].0);
                    shared.stats.record_frame_received(n);
                    match shared.respond_frame(frame) {
                        Some(reply) => {
                            self.inbound[idx].writer = Some(FrameWriter::new(reply));
                        }
                        None => return true, // no reply (or shim-dropped)
                    }
                }
                ReadPoll::Frame(_, Err(e)) => {
                    // Protocol violation: count it, drop the connection.
                    match e {
                        FrameError::InvalidValues(_) => {
                            self.nodes[node].0.stats.record_invalid_frame();
                        }
                        _ => self.nodes[node].0.stats.record_malformed_frame(),
                    }
                    return true;
                }
            }
        }
        let inbound = &mut self.inbound[idx];
        if let Some(writer) = &mut inbound.writer {
            match writer.poll(&mut inbound.stream) {
                WritePoll::Pending => return false,
                WritePoll::Done(n) => {
                    self.nodes[node].0.stats.record_frame_sent(n);
                    return true;
                }
                WritePoll::Closed => return true,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::shim::LossShim;
    use adam2_core::AttrValue;

    /// A shard driven by hand: nothing runs until the test calls it.
    fn two_node_shard() -> ShardRuntime {
        let epoch = Instant::now();
        let shim = Arc::new(LossShim::none());
        let nodes = (0..2)
            .map(|i| {
                NodeShared::create(
                    AttrValue::Single(f64::from(i)),
                    1.0,
                    NodeConfig::default(),
                    Arc::clone(&shim),
                    epoch,
                    None,
                )
                .expect("bind loopback listener")
            })
            .collect();
        ShardRuntime::new(nodes, epoch, Arc::new(AtomicBool::new(false)))
    }

    #[test]
    fn a_reused_slot_ignores_its_predecessors_deadline() {
        let mut shard = two_node_shard();
        let peer = shard.nodes[1].0.port();
        // The first exchange connects (the peer's backlog accepts) and
        // arms its deadline, then completes before that deadline fires.
        shard.start_exchange(0, peer, 0);
        let first_gen = shard.slab[0].as_ref().expect("live exchange").gen;
        shard.finish_exchange(0, true);
        // The next exchange takes the freed slot.
        shard.start_exchange(0, peer, 1);
        assert!(shard.slab[0].is_some(), "slot 0 is reused");
        // The first exchange's deadline fires: it must not cut the second
        // exchange's attempt short.
        shard.handle_timer(Timer::Deadline {
            conn: 0,
            gen: first_gen,
        });
        let stats = shard.nodes[0].0.stats.snapshot();
        assert_eq!(stats.retransmissions, 0, "stale deadline retried");
        assert_eq!(stats.exchanges_aborted, 0);
        assert!(matches!(
            shard.slab[0].as_ref().expect("live exchange").state,
            OutboundState::Active { .. }
        ));
    }
}
