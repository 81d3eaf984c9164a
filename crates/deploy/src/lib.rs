//! adam2-deploy: a socket-based gossip runtime that runs Adam2 outside the
//! simulator.
//!
//! The simulator in `adam2-sim` drives [`adam2_core::Adam2Node`] values by
//! calling protocol functions on pairs of nodes it holds in one `Vec`. This
//! crate runs the same node state as a set of *process-local actors*: every
//! node owns a TCP listener on loopback and gossips over length-prefixed
//! frames carrying the exact [`adam2_core::wire::GossipMessage`] bytes the
//! simulator's exchange-repair path already understands — so sequence
//! numbers, the responder-side seq cache, and retransmissions behave
//! identically to the `sim` fault model, except that here the "network" is
//! a real socket and loss is injected by the [`shim::LossShim`] rather than
//! by the scheduler.
//!
//! Two runtimes execute the nodes, selected by [`RuntimeKind`] on the
//! validated [`ClusterConfig`] (constructed via [`ClusterConfig::try_new`];
//! misconfiguration is a [`DeployConfigError`], never a panic):
//!
//! - **threaded** — three OS threads per node (listener, gossip clock,
//!   sender over a bounded outbound queue). Simple, robust, caps out
//!   around 10² nodes.
//! - **reactor** — a small pool of event-loop threads multiplexing every
//!   node's nonblocking sockets, with round ticks and I/O deadlines driven
//!   by a timer wheel. Scales a single host to 10⁴ nodes.
//!
//! Both speak the identical frame protocol, so a mixed-backend cluster
//! ([`RuntimeKind::Mixed`]) interoperates frame-for-frame.
//!
//! Module map:
//!
//! - [`config`] — validated cluster/node configuration and runtime
//!   selection ([`DeployConfigError`], [`RuntimeKind`]).
//! - [`frame`] — the u32-length-prefixed frame protocol (requests,
//!   responses, join/bootstrap, control-plane estimate collection).
//!   Malformed input is an error value, never a panic.
//! - [`shim`] — deterministic socket-level loss/delay injection sharing the
//!   simulator's `FaultScenario` knobs.
//! - [`stats`] — per-node atomic counters sampled by the cluster driver into
//!   `adam2-telemetry` snapshots.
//! - [`node`] — backend-neutral per-node state and protocol entry points,
//!   plus the thread-per-node backend.
//! - `reactor` — the event-loop backend (internal; reached through
//!   [`RuntimeKind::Reactor`]).
//! - [`cluster`] — boots an N-node loopback cluster on the configured
//!   runtime, bootstraps peer views through introducer nodes, injects
//!   aggregation instances, samples telemetry, collects estimates over
//!   control sockets, and joins everything on shutdown.

pub mod cluster;
pub mod config;
pub mod frame;
pub mod node;
mod reactor;
pub mod shim;
pub mod stats;

pub use cluster::{Cluster, ClusterReport, ClusterTelemetry, DAEMON_INSTANCE_BASE};
pub use config::{ClusterConfig, DaemonConfig, DeployConfigError, NodeConfig, RuntimeKind};
pub use frame::{
    read_frame, read_frame_counted, write_frame, EstimateWire, Frame, FrameError, MAX_FRAME,
};
pub use node::NodeShared;
pub use shim::{Direction, LossShim};
pub use stats::{NodeStats, StatsSnapshot};
