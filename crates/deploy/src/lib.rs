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
//! One runtime executes the nodes: a small pool of event-loop threads (the
//! *reactor*) multiplexing every node's nonblocking sockets, with round
//! ticks and I/O deadlines driven by a timer wheel. It scales a single
//! host to 10⁴ nodes. The validated [`ClusterConfig`] (constructed via
//! [`ClusterConfig::try_new`]; misconfiguration is a
//! [`DeployConfigError`], never a panic) sets its thread count through
//! [`RuntimeKind`] and defaults to one thread per core, clamped to 2..=8.
//!
//! Module map:
//!
//! - [`config`] — validated cluster/node configuration and the reactor
//!   thread count ([`DeployConfigError`], [`RuntimeKind`]).
//! - [`frame`] — the u32-length-prefixed frame protocol (requests,
//!   responses, join/bootstrap, control-plane estimate collection).
//!   Malformed input is an error value, never a panic.
//! - [`shim`] — deterministic socket-level loss/delay injection sharing the
//!   simulator's `FaultScenario` knobs.
//! - [`stats`] — per-node atomic counters sampled by the cluster driver into
//!   `adam2-telemetry` snapshots.
//! - [`node`] — per-node protocol state and the entry points the reactor
//!   drives.
//! - `reactor` — the event-loop runtime (internal; sized through
//!   [`RuntimeKind::Reactor`]).
//! - [`cluster`] — boots an N-node loopback cluster on the reactor,
//!   bootstraps peer views through introducer nodes, injects
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
pub use frame::{read_frame, write_frame, EstimateWire, Frame, FrameError, MAX_FRAME};
pub use node::NodeShared;
pub use shim::{Direction, LossShim};
pub use stats::{NodeStats, StatsSnapshot};
