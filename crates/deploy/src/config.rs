//! Validated deploy configuration: the only way to parameterise a cluster.
//!
//! Mirrors the sim crate's `EngineConfig::try_new`/`SimConfigError`
//! contract: misconfiguration is rejected as a typed [`DeployConfigError`]
//! at construction time, never discovered as a panic (or a hang) inside a
//! running cluster. [`ClusterConfig`] keeps its fields private, so
//! [`Cluster::launch`](crate::Cluster::launch) can only ever receive a
//! configuration that passed validation; [`Default`] produces a valid
//! configuration directly. Every cluster runs on the reactor, and the
//! only runtime knob is its thread count ([`RuntimeKind::Reactor`]),
//! which defaults to one per core, clamped to 2..=8.

use std::time::Duration;

use crate::shim::LossShim;

/// How the cluster's nodes are executed.
///
/// The reactor is the only runtime, so this enum has one variant. It stays
/// an enum because callers outside the workspace build it by name
/// (`RuntimeKind::Reactor { threads }`); a plain thread count can replace
/// it once they no longer do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Shared event loop: `threads` reactor threads multiplex all node
    /// listeners and exchange sockets through nonblocking I/O and a timer
    /// wheel. Scales to four-digit and five-digit node counts on one host.
    Reactor {
        /// Reactor threads to spread node shards over (must be nonzero;
        /// capped at the node count at launch).
        threads: usize,
    },
}

/// The default runtime: one reactor thread per core, at least two so a
/// stall in one shard cannot freeze the whole cluster, at most eight
/// because reactor threads are busy-polling loops.
fn default_runtime() -> RuntimeKind {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    RuntimeKind::Reactor {
        threads: cores.clamp(2, 8),
    }
}

/// Why a deploy configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeployConfigError {
    /// `tick` is zero: the gossip clock would spin through every round at
    /// once.
    ZeroTick,
    /// `queue_capacity` is zero: every exchange would be dropped as
    /// backpressure before it started.
    ZeroQueueCapacity,
    /// `view_size` below two: a view that cannot hold both an introducer
    /// and a gossip partner can never mix.
    ViewSizeTooSmall(usize),
    /// `io_timeout >= tick`: one slow peer would stall a node past its own
    /// round boundary, starving the gossip clock.
    IoTimeoutNotBelowTick {
        /// The offending socket timeout.
        io_timeout: Duration,
        /// The configured round length.
        tick: Duration,
    },
    /// Zero reactor threads requested.
    ZeroReactorThreads,
    /// Zero bootstrap join attempts: no node could ever join the cluster.
    ZeroJoinAttempts,
    /// Zero bootstrap timeout: every join round-trip would time out
    /// instantly.
    ZeroBootstrapTimeout,
    /// The initial system-size estimate must be a finite value ≥ 1.
    InvalidInitialEstimate(f64),
    /// The daemon configuration violates an invariant (reason attached).
    InvalidDaemonConfig(&'static str),
}

impl std::fmt::Display for DeployConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployConfigError::ZeroTick => write!(f, "tick must be nonzero"),
            DeployConfigError::ZeroQueueCapacity => write!(f, "queue_capacity must be nonzero"),
            DeployConfigError::ViewSizeTooSmall(v) => {
                write!(f, "view_size {v} too small (minimum 2)")
            }
            DeployConfigError::IoTimeoutNotBelowTick { io_timeout, tick } => write!(
                f,
                "io_timeout {io_timeout:?} must be shorter than the tick {tick:?}"
            ),
            DeployConfigError::ZeroReactorThreads => {
                write!(f, "reactor runtime needs at least one thread")
            }
            DeployConfigError::ZeroJoinAttempts => {
                write!(f, "bootstrap needs at least one join attempt")
            }
            DeployConfigError::ZeroBootstrapTimeout => {
                write!(f, "bootstrap timeout must be nonzero")
            }
            DeployConfigError::InvalidInitialEstimate(v) => {
                write!(f, "initial_n_estimate {v} must be finite and >= 1")
            }
            DeployConfigError::InvalidDaemonConfig(why) => {
                write!(f, "invalid daemon config: {why}")
            }
        }
    }
}

impl std::error::Error for DeployConfigError {}

/// Continuous-tracking daemon mode: instead of waiting for the harness to
/// inject instances one at a time, the cluster launches a fresh aggregation
/// instance every `launch_period_rounds` (rotating the initiator), and
/// every node answers `GetEstimate` with the exponentially time-faded
/// blend of its completed instances ([`adam2_core::BlendedTracker`])
/// rather than the newest snapshot alone — the deploy-side analogue of
/// the `adam2-stream` pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Rounds between staggered instance launches.
    pub launch_period_rounds: u64,
    /// Gossip rounds each daemon instance runs before finalising.
    pub instance_rounds: u64,
    /// Interpolation thresholds flooded with every daemon instance
    /// (strictly increasing, finite, at least one).
    pub thresholds: Vec<f64>,
    /// Age (in rounds) at which a completed estimate's blend weight
    /// halves.
    pub half_life_rounds: f64,
    /// Completed estimates each node retains in its blend.
    pub max_tracked: usize,
}

impl DaemonConfig {
    /// Checks every invariant the daemon scheduler and the per-node
    /// blended trackers rely on.
    ///
    /// # Errors
    ///
    /// Returns [`DeployConfigError::InvalidDaemonConfig`] with the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), DeployConfigError> {
        let fail = |why| Err(DeployConfigError::InvalidDaemonConfig(why));
        if self.launch_period_rounds == 0 {
            return fail("launch_period_rounds must be nonzero");
        }
        if self.instance_rounds == 0 {
            return fail("instance_rounds must be nonzero");
        }
        if self.thresholds.is_empty() {
            return fail("thresholds must be non-empty");
        }
        if self.thresholds.iter().any(|t| !t.is_finite()) {
            return fail("thresholds must be finite");
        }
        if self.thresholds.windows(2).any(|w| w[0] >= w[1]) {
            return fail("thresholds must be strictly increasing");
        }
        if !self.half_life_rounds.is_finite() || self.half_life_rounds <= 0.0 {
            return fail("half_life_rounds must be finite and positive");
        }
        if self.max_tracked == 0 {
            return fail("max_tracked must be nonzero");
        }
        Ok(())
    }
}

/// Timing and robustness knobs shared by every node of a cluster.
///
/// A plain parameter bag; [`ClusterConfig::try_new`] validates it before a
/// cluster can be launched with it, and [`NodeConfig::validate`] exposes
/// the same check directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// Wall-clock length of one gossip round.
    pub tick: Duration,
    /// Read/write/connect timeout for every socket operation.
    pub io_timeout: Duration,
    /// Additional delivery attempts after a failed or dropped exchange.
    pub retries: u32,
    /// Per-node in-flight budget: at most this many exchanges may be in
    /// flight per node; rounds beyond it shed their exchange
    /// (backpressure).
    pub queue_capacity: usize,
    /// Maximum peer-view size.
    pub view_size: usize,
    /// Seed for the node's exchange-partner RNG.
    pub seed: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(40),
            io_timeout: Duration::from_millis(15),
            retries: 2,
            queue_capacity: 4,
            view_size: 12,
            seed: 0,
        }
    }
}

impl NodeConfig {
    /// Checks every invariant a running node relies on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`DeployConfigError`].
    pub fn validate(&self) -> Result<(), DeployConfigError> {
        if self.tick.is_zero() {
            return Err(DeployConfigError::ZeroTick);
        }
        if self.queue_capacity == 0 {
            return Err(DeployConfigError::ZeroQueueCapacity);
        }
        if self.view_size < 2 {
            return Err(DeployConfigError::ViewSizeTooSmall(self.view_size));
        }
        if self.io_timeout >= self.tick {
            return Err(DeployConfigError::IoTimeoutNotBelowTick {
                io_timeout: self.io_timeout,
                tick: self.tick,
            });
        }
        Ok(())
    }
}

/// Everything needed to boot a cluster, validated at construction.
///
/// Fields are private: the only constructors are [`Default`] (valid by
/// construction) and [`ClusterConfig::try_new`], and every setter that can
/// invalidate the configuration re-validates. `Cluster::launch` therefore
/// takes validated configs only.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    node: NodeConfig,
    shim: LossShim,
    initial_n_estimate: f64,
    runtime: RuntimeKind,
    join_attempts: u32,
    bootstrap_timeout: Duration,
    daemon: Option<DaemonConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            node: NodeConfig::default(),
            shim: LossShim::none(),
            initial_n_estimate: 1.0,
            runtime: default_runtime(),
            join_attempts: 10,
            bootstrap_timeout: Duration::from_millis(50),
            daemon: None,
        }
    }
}

impl ClusterConfig {
    /// Validates `node` and wraps it with default cluster-level settings
    /// (reactor on one thread per core, clamped to 2..=8; no loss shim;
    /// 10 join attempts; 50 ms bootstrap timeout).
    ///
    /// # Errors
    ///
    /// Returns the first violated [`NodeConfig`] invariant.
    pub fn try_new(node: NodeConfig) -> Result<Self, DeployConfigError> {
        node.validate()?;
        Ok(Self {
            node,
            ..Self::default()
        })
    }

    /// Sets the reactor thread count.
    ///
    /// # Errors
    ///
    /// Rejects zero threads.
    pub fn with_runtime(mut self, runtime: RuntimeKind) -> Result<Self, DeployConfigError> {
        let RuntimeKind::Reactor { threads } = runtime;
        if threads == 0 {
            return Err(DeployConfigError::ZeroReactorThreads);
        }
        self.runtime = runtime;
        Ok(self)
    }

    /// Sets the socket-level fault injection shared by every node.
    pub fn with_shim(mut self, shim: LossShim) -> Self {
        self.shim = shim;
        self
    }

    /// Sets the initial system-size guess handed to every `Adam2Node`.
    ///
    /// # Errors
    ///
    /// Rejects non-finite values and values below one.
    pub fn with_initial_n_estimate(mut self, estimate: f64) -> Result<Self, DeployConfigError> {
        if !estimate.is_finite() || estimate < 1.0 {
            return Err(DeployConfigError::InvalidInitialEstimate(estimate));
        }
        self.initial_n_estimate = estimate;
        Ok(self)
    }

    /// Sets the bootstrap policy: how many times each joiner retries its
    /// `Join` round-trip, and the control-socket timeout used while the
    /// cluster is still starting up.
    ///
    /// # Errors
    ///
    /// Rejects a zero attempt budget and a zero timeout.
    pub fn with_bootstrap(
        mut self,
        join_attempts: u32,
        timeout: Duration,
    ) -> Result<Self, DeployConfigError> {
        if join_attempts == 0 {
            return Err(DeployConfigError::ZeroJoinAttempts);
        }
        if timeout.is_zero() {
            return Err(DeployConfigError::ZeroBootstrapTimeout);
        }
        self.join_attempts = join_attempts;
        self.bootstrap_timeout = timeout;
        Ok(self)
    }

    /// Switches the cluster into continuous-tracking daemon mode: periodic
    /// instance launches and time-faded blended `GetEstimate` answers.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`DaemonConfig`] invariant.
    pub fn with_daemon(mut self, daemon: DaemonConfig) -> Result<Self, DeployConfigError> {
        daemon.validate()?;
        self.daemon = Some(daemon);
        Ok(self)
    }

    /// The daemon-mode configuration, if enabled.
    pub fn daemon(&self) -> Option<&DaemonConfig> {
        self.daemon.as_ref()
    }

    /// The validated per-node configuration.
    pub fn node(&self) -> &NodeConfig {
        &self.node
    }

    /// The configured loss shim.
    pub fn shim(&self) -> &LossShim {
        &self.shim
    }

    /// The initial system-size guess.
    pub fn initial_n_estimate(&self) -> f64 {
        self.initial_n_estimate
    }

    /// The runtime the cluster launches on.
    pub fn runtime(&self) -> RuntimeKind {
        self.runtime
    }

    /// Join attempts per bootstrapping node.
    pub fn join_attempts(&self) -> u32 {
        self.join_attempts
    }

    /// Control-socket timeout during bootstrap (also the floor for the
    /// driver's later control round-trips).
    pub fn bootstrap_timeout(&self) -> Duration {
        self.bootstrap_timeout
    }

    /// The control-socket timeout the driver uses once the cluster runs:
    /// the larger of the node I/O timeout and the bootstrap timeout.
    pub fn control_timeout(&self) -> Duration {
        self.node.io_timeout.max(self.bootstrap_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate() {
        NodeConfig::default().validate().unwrap();
        ClusterConfig::try_new(NodeConfig::default()).unwrap();
        let runtime = ClusterConfig::default().runtime();
        assert!(
            matches!(runtime, RuntimeKind::Reactor { threads } if (2..=8).contains(&threads)),
            "default runtime {runtime:?}"
        );
    }

    #[test]
    fn node_invariants_are_each_rejected() {
        let cases: Vec<(NodeConfig, DeployConfigError)> = vec![
            (
                NodeConfig {
                    tick: Duration::ZERO,
                    ..NodeConfig::default()
                },
                DeployConfigError::ZeroTick,
            ),
            (
                NodeConfig {
                    queue_capacity: 0,
                    ..NodeConfig::default()
                },
                DeployConfigError::ZeroQueueCapacity,
            ),
            (
                NodeConfig {
                    view_size: 1,
                    ..NodeConfig::default()
                },
                DeployConfigError::ViewSizeTooSmall(1),
            ),
            (
                NodeConfig {
                    tick: Duration::from_millis(10),
                    io_timeout: Duration::from_millis(10),
                    ..NodeConfig::default()
                },
                DeployConfigError::IoTimeoutNotBelowTick {
                    io_timeout: Duration::from_millis(10),
                    tick: Duration::from_millis(10),
                },
            ),
        ];
        for (config, expected) in cases {
            assert_eq!(config.validate().unwrap_err(), expected);
            assert_eq!(ClusterConfig::try_new(config).unwrap_err(), expected);
        }
    }

    #[test]
    fn cluster_level_misuse_is_rejected() {
        let config = ClusterConfig::default();
        assert_eq!(
            config
                .clone()
                .with_runtime(RuntimeKind::Reactor { threads: 0 })
                .unwrap_err(),
            DeployConfigError::ZeroReactorThreads
        );
        assert_eq!(
            config
                .clone()
                .with_bootstrap(0, Duration::from_millis(50))
                .unwrap_err(),
            DeployConfigError::ZeroJoinAttempts
        );
        assert_eq!(
            config
                .clone()
                .with_bootstrap(3, Duration::ZERO)
                .unwrap_err(),
            DeployConfigError::ZeroBootstrapTimeout
        );
        assert!(matches!(
            config
                .clone()
                .with_initial_n_estimate(f64::NAN)
                .unwrap_err(),
            DeployConfigError::InvalidInitialEstimate(_)
        ));
        assert!(config.clone().with_initial_n_estimate(0.0).is_err());
        let ok = config
            .with_runtime(RuntimeKind::Reactor { threads: 2 })
            .unwrap()
            .with_bootstrap(5, Duration::from_millis(80))
            .unwrap()
            .with_initial_n_estimate(64.0)
            .unwrap();
        assert_eq!(ok.runtime(), RuntimeKind::Reactor { threads: 2 });
        assert_eq!(ok.join_attempts(), 5);
        assert_eq!(ok.bootstrap_timeout(), Duration::from_millis(80));
        assert_eq!(ok.initial_n_estimate(), 64.0);
    }

    #[test]
    fn daemon_invariants_are_each_rejected() {
        let valid = DaemonConfig {
            launch_period_rounds: 8,
            instance_rounds: 20,
            thresholds: vec![1.0, 2.0, 3.0],
            half_life_rounds: 8.0,
            max_tracked: 4,
        };
        valid.validate().unwrap();
        let accepted = ClusterConfig::default().with_daemon(valid.clone()).unwrap();
        assert_eq!(accepted.daemon(), Some(&valid));
        assert_eq!(ClusterConfig::default().daemon(), None);

        let broken: Vec<(DaemonConfig, &str)> = vec![
            (
                DaemonConfig {
                    launch_period_rounds: 0,
                    ..valid.clone()
                },
                "launch_period_rounds",
            ),
            (
                DaemonConfig {
                    instance_rounds: 0,
                    ..valid.clone()
                },
                "instance_rounds",
            ),
            (
                DaemonConfig {
                    thresholds: Vec::new(),
                    ..valid.clone()
                },
                "non-empty",
            ),
            (
                DaemonConfig {
                    thresholds: vec![1.0, f64::NAN],
                    ..valid.clone()
                },
                "finite",
            ),
            (
                DaemonConfig {
                    thresholds: vec![2.0, 1.0],
                    ..valid.clone()
                },
                "strictly increasing",
            ),
            (
                DaemonConfig {
                    half_life_rounds: 0.0,
                    ..valid.clone()
                },
                "half_life_rounds",
            ),
            (
                DaemonConfig {
                    max_tracked: 0,
                    ..valid.clone()
                },
                "max_tracked",
            ),
        ];
        for (config, needle) in broken {
            let err = ClusterConfig::default().with_daemon(config).unwrap_err();
            match err {
                DeployConfigError::InvalidDaemonConfig(why) => {
                    assert!(why.contains(needle), "{why} should mention {needle}");
                }
                other => panic!("expected InvalidDaemonConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_display_their_cause() {
        let text = DeployConfigError::IoTimeoutNotBelowTick {
            io_timeout: Duration::from_millis(40),
            tick: Duration::from_millis(40),
        }
        .to_string();
        assert!(text.contains("io_timeout"), "{text}");
        assert!(DeployConfigError::ZeroTick.to_string().contains("tick"));
    }
}
