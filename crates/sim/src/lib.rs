//! A cycle-driven peer-to-peer simulator, substituting for PeerSim.
//!
//! The Adam2 paper evaluates its protocol in PeerSim's cycle-driven mode:
//! time advances in synchronous *rounds*; in each round every node initiates
//! one push–pull gossip exchange with a randomly chosen neighbour; exchanges
//! are atomic (request and response are delivered within the round). This
//! crate reproduces that model — every node picks its partner from the
//! state at the start of the round, and the exchanges are applied in node
//! order, on any number of threads with the same result — and adds:
//!
//! * a generational node slab so membership *churn* can recycle node slots
//!   without dangling references ([`NodeSlab`], [`NodeId`]),
//! * a random overlay with either an idealised peer-sampling *oracle* or a
//!   Cyclon-style view-shuffling service ([`Overlay`]),
//! * churn models — per-round uniform replacement (the paper's model) and
//!   session-length-based replacement ([`ChurnModel`]),
//! * network accounting of every message and byte ([`NetStats`]).
//!
//! Protocols implement the [`Protocol`] trait and are driven by an
//! [`Engine`].
//!
//! # Examples
//!
//! A protocol that averages a value across all nodes (the classic gossip
//! mean):
//!
//! ```
//! use adam2_sim::{Engine, EngineConfig, ExchangeTraffic, PlannedExchange, Protocol};
//!
//! struct Averaging { next: f64 }
//!
//! impl Protocol for Averaging {
//!     type Node = f64;
//!
//!     fn make_node(&mut self, _rng: &mut rand::rngs::StdRng) -> f64 {
//!         self.next += 1.0;
//!         self.next
//!     }
//!
//!     // Every node initiates one exchange per round by default; the engine
//!     // picks the partner and charges the returned traffic.
//!     fn apply(&self, _: &PlannedExchange, _round: u64, a: &mut f64, b: &mut f64) -> ExchangeTraffic {
//!         let mean = (*a + *b) / 2.0;
//!         *a = mean;
//!         *b = mean;
//!         ExchangeTraffic { request: Some(8), response: Some(8), ..Default::default() }
//!     }
//! }
//!
//! let mut engine = Engine::new(EngineConfig::new(64, 1), Averaging { next: 0.0 });
//! engine.run_rounds(30);
//! let avg = 65.0 / 2.0; // mean of 1..=64
//! for (_, v) in engine.nodes().iter() {
//!     assert!((v - avg).abs() < 1e-6);
//! }
//! ```

mod churn;
mod engine;
mod event;
mod executor;
mod faults;
mod node;
mod overlay;
pub mod peersampling;
mod rng;
mod scenario_json;
mod stats;
mod telemetry;
mod wheel;

pub use wheel::TimerWheel;

pub use churn::ChurnModel;
pub use engine::{
    prefetch, Ctx, Engine, EngineConfig, ExchangeFate, ExchangeRepair, ExchangeTraffic,
    LocalReport, PlannedExchange, PrefetchStage, Protocol, SimConfigError,
};
pub use event::{AsyncProtocol, BatchCtx, EventConfig, EventCtx, EventEngine, LatencyModel};
pub use faults::{
    ActiveAdversary, AdversaryModel, DriftModel, DriftOp, FaultEvent, FaultScenario, FaultTrace,
    PartitionKind, PlannedAttack, RoundFaults,
};
pub use node::{NodeId, NodeSlab};
pub use overlay::{Overlay, OverlayConfig, OverlayKind};
pub use peersampling::{PeerSamplingPolicy, PeerSelection, PsView, ViewEntry};
pub use rng::{derive_seed, par_stream_rng, seeded_rng};
pub use stats::{Accumulator, MassAuditor, MassViolation, NetStats, NodeTraffic};
pub use telemetry::{SimTelemetry, TelemetryHandle, TelemetryShard};

/// The strict JSON document model [`FaultScenario::to_json_value`] and
/// [`FaultScenario::from_json_value`] speak, re-exported so callers (and
/// `telemetry_check`) can name and parse it without their own dependency.
pub use serde::json;

// Re-exported so downstream crates (core, bench) can use telemetry types
// without their own `adam2-telemetry` dependency.
pub use adam2_telemetry::{
    fnv1a, git_revision, json_f64, Event as TelemetryEvent, EventKind as TelemetryEventKind,
    Histogram, RoundSnapshot, RunManifest, Telemetry, MANIFEST_SCHEMA_VERSION,
};
