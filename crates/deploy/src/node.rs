//! The per-node state: one `Adam2Node` behind a TCP listener.
//!
//! [`NodeShared`] is the heart of a deployed node: the protocol state
//! (`Adam2Node`, peer view, seq cache, RNG) behind one mutex, plus the
//! protocol entry points the reactor (`crate::reactor`) drives:
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
//! Beyond binding the listener, nothing here touches a socket or spawns a
//! thread: the reactor moves the bytes and decides when a round starts.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adam2_core::runtime::PendingExchange;
use adam2_core::wire::GossipMessage;
use adam2_core::{Adam2Node, AttrValue, BlendedTracker, FadeConfig};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::RngExt as _;
use rand::SeedableRng;

use crate::config::NodeConfig;
use crate::frame::{EstimateWire, Frame};
use crate::shim::{Direction, LossShim};
use crate::stats::NodeStats;

/// Entries kept in the per-node response cache before the oldest sequence
/// numbers are evicted.
pub(crate) const SEQ_CACHE_CAP: usize = 256;

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

/// Mutable node state: everything the reactor shard and the cluster
/// driver contend on.
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

/// State shared between a node's reactor shard and the cluster driver.
pub struct NodeShared {
    inner: Mutex<NodeInner>,
    /// Lock-free counters sampled by the cluster driver.
    pub stats: NodeStats,
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
    /// afterwards. The listener goes to the reactor shard that sweeps it.
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
            stats: NodeStats::default(),
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
    // Protocol entry points
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
    /// exchange into a [`PendingExchange`] the reactor drives attempts
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
