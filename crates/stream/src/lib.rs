//! Streaming estimation: pipelined time-faded Adam2 instances tracking
//! drifting distributions.
//!
//! A single Adam2 aggregation instance is a *snapshot* protocol: its
//! indicator contributions are fixed when each node enrols, so the
//! estimate it delivers describes the distribution as of the instance's
//! own lifetime. When the underlying attribute drifts (load changes,
//! capacity upgrades, population turnover — the [`adam2_sim::DriftModel`]
//! axis), any single snapshot goes stale within a handful of rounds.
//!
//! This crate turns the snapshot protocol into a *tracker*:
//!
//! * an [`InstancePipeline`] keeps up to `max_overlap` instances in
//!   flight on a staggered schedule (one launch every `launch_period`
//!   rounds — Adam2 explicitly supports concurrent instances, and gossip
//!   exchanges piggyback every active instance, so overlap costs bytes,
//!   not messages);
//! * completed estimates are blended by an
//!   [`adam2_core::BlendedTracker`] with exponentially time-faded
//!   weights, so the newest snapshot dominates and older ones fade
//!   smoothly instead of being dropped at a cliff;
//! * an [`adam2_core::DriftController`] watches the inter-instance
//!   divergence (how far each fresh estimate lands from the current
//!   blend) and adapts the launch period — drift speeds launches up,
//!   stability backs them off — with a restart trigger that drops faded
//!   history after an abrupt step change.
//!
//! The [`TrackerMode`] matrix pits this design against the naive
//! restart-per-instance baseline at equal message budget; `bench_stream`
//! exports the comparison as `BENCH_streaming.json`.

use std::sync::Arc;

use adam2_bench::{adam2_engine_with, current_truth, start_instance, ExperimentSetup};
use adam2_core::{
    discrete_errors_over, Adam2Config, Adam2Protocol, BlendedTracker, DistributionEstimate,
    DriftController, FadeConfig, InstanceMeta, InterpCdf,
};
use adam2_sim::{Engine, FaultScenario};

/// How completed estimates are turned into the served tracking estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerMode {
    /// The baseline: one instance at a time, back to back, and each
    /// completed estimate *replaces* the previous one outright.
    RestartNaive,
    /// Pipelined overlapping instances at a fixed launch period; completed
    /// estimates join the time-faded blend.
    PipelinedFixedFade,
    /// Pipelined with the [`DriftController`] adapting the launch period
    /// to the measured inter-instance divergence.
    PipelinedAdaptiveFade,
    /// Like [`TrackerMode::PipelinedAdaptiveFade`], plus the Spectra-style
    /// restart: an abrupt divergence spike drops the faded history before
    /// absorbing the fresh estimate.
    PipelinedAdaptiveRestart,
}

impl TrackerMode {
    /// Every mode of the comparison matrix, baseline first.
    pub const ALL: [TrackerMode; 4] = [
        TrackerMode::RestartNaive,
        TrackerMode::PipelinedFixedFade,
        TrackerMode::PipelinedAdaptiveFade,
        TrackerMode::PipelinedAdaptiveRestart,
    ];

    /// Stable wire/report name.
    pub fn label(self) -> &'static str {
        match self {
            TrackerMode::RestartNaive => "restart_naive",
            TrackerMode::PipelinedFixedFade => "pipelined_fixed_fade",
            TrackerMode::PipelinedAdaptiveFade => "pipelined_adaptive_fade",
            TrackerMode::PipelinedAdaptiveRestart => "pipelined_adaptive_restart",
        }
    }

    /// Parses a [`TrackerMode::label`] back to the mode.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.label() == label)
    }

    /// Whether instances overlap (everything except the naive baseline).
    pub fn is_pipelined(self) -> bool {
        self != TrackerMode::RestartNaive
    }

    /// Whether the launch period adapts to measured divergence.
    pub fn is_adaptive(self) -> bool {
        matches!(
            self,
            TrackerMode::PipelinedAdaptiveFade | TrackerMode::PipelinedAdaptiveRestart
        )
    }
}

/// Schedule and blend parameters of one [`InstancePipeline`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Tracking mode (see [`TrackerMode`]).
    pub mode: TrackerMode,
    /// Rounds between staggered instance launches (the adaptive modes
    /// treat this as the initial period).
    pub launch_period: u64,
    /// Maximum instances in flight; a due launch is deferred while the
    /// pipeline is full. Forced to 1 by [`TrackerMode::RestartNaive`].
    pub max_overlap: usize,
    /// Gossip rounds each instance runs before finalising.
    pub instance_rounds: u64,
    /// Exponential fade of the blended tracker.
    pub fade: FadeConfig,
    /// Launch-frequency controller for the adaptive modes.
    pub controller: DriftController,
}

impl StreamConfig {
    /// A sensible default schedule for `mode`: launches every 10 rounds,
    /// up to 4 overlapping 30-round instances, fade half-life of one
    /// launch period, and a controller targeting 8 % divergence (above
    /// the interpolation floor of successive estimates) with a 20 %
    /// restart threshold.
    pub fn for_mode(mode: TrackerMode) -> Self {
        Self {
            mode,
            launch_period: 10,
            max_overlap: 4,
            instance_rounds: 30,
            fade: FadeConfig::new(10.0, 4),
            controller: DriftController::new(0.08, 0.20, 2, 40),
        }
    }

    /// Overrides the launch period (and keeps the fade half-life at one
    /// period, the schedule-relative default: under drift an estimate one
    /// launch older carries half the weight, so staleness decays as fast
    /// as fresh snapshots arrive).
    pub fn with_launch_period(mut self, period: u64) -> Self {
        self.launch_period = period;
        self.fade = FadeConfig::new(period.max(1) as f64, self.fade.max_tracked);
        self
    }

    /// Overrides the per-instance round count.
    pub fn with_instance_rounds(mut self, rounds: u64) -> Self {
        self.instance_rounds = rounds;
        self
    }

    /// The overlap cap the mode actually runs with.
    pub fn effective_overlap(&self) -> usize {
        if self.mode.is_pipelined() {
            self.max_overlap
        } else {
            1
        }
    }

    fn validate(&self) {
        assert!(self.launch_period > 0, "launch_period must be positive");
        assert!(self.max_overlap > 0, "max_overlap must be positive");
        assert!(self.instance_rounds > 0, "instance_rounds must be positive");
    }
}

/// One per-round sample of the served tracking estimate's error against
/// the *current* (drifted) population truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackSample {
    /// Engine round the sample was taken after.
    pub round: u64,
    /// `Err_m` of the blended estimate over the whole current-truth
    /// domain (1.0 while no instance has completed yet).
    pub err_max: f64,
    /// `Err_a` of the blended estimate.
    pub err_avg: f64,
    /// Estimates in the blend at sample time.
    pub tracked: usize,
    /// Launch period in force at sample time.
    pub period: u64,
}

/// Aggregates of one pipeline run (see [`InstancePipeline::report`]).
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Mode the pipeline ran in.
    pub mode: TrackerMode,
    /// Rounds sampled.
    pub rounds: usize,
    /// Time-averaged `Err_a` — the headline tracking-error metric.
    pub time_avg_err: f64,
    /// Time-averaged `Err_m`.
    pub time_avg_err_max: f64,
    /// `Err_a` of the final sample.
    pub final_err: f64,
    /// Instances launched / completed over the run.
    pub launched: u64,
    /// See [`StreamReport::launched`].
    pub completed: u64,
    /// Tracker resets (naive mode resets on every completion by design).
    pub restarts: u64,
    /// Mean inter-instance divergence over all completions that had a
    /// blend to diverge from (`NaN` if none).
    pub mean_divergence: f64,
    /// Launch period in force when the run ended.
    pub final_period: u64,
    /// Total network messages — the budget axis: gossip piggybacks all
    /// active instances per exchange, so every mode pays the same count.
    pub messages: u64,
    /// Total network bytes (overlap shows up here, not in messages).
    pub bytes: u64,
    /// FNV-1a digest over the full per-round error series; bit-identical
    /// replay at any thread count reproduces it exactly.
    pub fingerprint: u64,
}

/// FNV-1a over the little-endian bytes of `v`, folded into `h`.
fn mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs overlapping Adam2 instances on a staggered schedule over a
/// simulated (possibly drifting) population and serves their time-faded
/// blend — see the crate docs for the design.
pub struct InstancePipeline {
    engine: Engine<Adam2Protocol>,
    config: StreamConfig,
    tracker: BlendedTracker,
    /// Launched instances awaiting completion, launch order.
    pending: Vec<Arc<InstanceMeta>>,
    /// Launch period currently in force (adapts in adaptive modes).
    period: u64,
    next_launch: u64,
    launched: u64,
    completed: u64,
    lost: u64,
    restarts: u64,
    divergences: Vec<f64>,
    samples: Vec<TrackSample>,
}

impl InstancePipeline {
    /// Wraps an engine (population, faults and drift already configured)
    /// in a streaming pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `config` has a zero launch period, overlap cap, or
    /// instance duration.
    pub fn new(engine: Engine<Adam2Protocol>, config: StreamConfig) -> Self {
        config.validate();
        let period = config.launch_period;
        let next_launch = engine.round();
        Self {
            engine,
            tracker: BlendedTracker::new(config.fade),
            config,
            pending: Vec::new(),
            period,
            next_launch,
            launched: 0,
            completed: 0,
            lost: 0,
            restarts: 0,
            divergences: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Convenience constructor mirroring the bench harness: builds the
    /// engine over `setup`'s population with `threads` workers, applies
    /// the optional fault/drift scenario, and wraps it.
    pub fn over(
        setup: &ExperimentSetup,
        adam2: Adam2Config,
        seed: u64,
        scenario: Option<FaultScenario>,
        threads: usize,
        config: StreamConfig,
    ) -> Self {
        let mut engine = adam2_engine_with(setup, adam2, seed, |c| c.with_threads(threads));
        if let Some(s) = scenario {
            engine.set_fault_scenario(s).expect("valid fault scenario");
        }
        Self::new(engine, config)
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine<Adam2Protocol> {
        &self.engine
    }

    /// Mutable access to the wrapped engine (telemetry detach/export).
    pub fn engine_mut(&mut self) -> &mut Engine<Adam2Protocol> {
        &mut self.engine
    }

    /// The blended tracker serving the current estimate.
    pub fn tracker(&self) -> &BlendedTracker {
        &self.tracker
    }

    /// The launch period currently in force.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Per-round samples recorded so far.
    pub fn samples(&self) -> &[TrackSample] {
        &self.samples
    }

    /// The blend rendered as a single CDF as of `now` (`None` until the
    /// first instance completes).
    pub fn blended_cdf(&self, now: u64) -> Option<InterpCdf> {
        let (min, max, thresholds, fractions) = self.tracker.snapshot_points(now)?;
        InterpCdf::from_points(min, max, &thresholds, &fractions).ok()
    }

    /// Advances one gossip round: launches a due instance (unless the
    /// pipeline is full — a deferred launch fires as soon as a slot
    /// frees), runs the round, absorbs any instance that finalised, and
    /// samples the tracking error.
    pub fn step(&mut self) {
        let round = self.engine.round();
        if round >= self.next_launch && self.pending.len() < self.config.effective_overlap() {
            let meta = start_instance(&mut self.engine);
            self.pending.push(meta);
            self.launched += 1;
            self.next_launch = round + self.period;
        }
        self.engine.run_round();
        self.probe_completions();
        self.sample();
    }

    /// Runs `rounds` rounds (see [`InstancePipeline::step`]).
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Moves estimates of finalised instances into the tracker. Nodes are
    /// probed in slot order, so the first completed copy found is
    /// deterministic; an instance whose every participant crashed before
    /// finalising is dropped and counted as lost.
    fn probe_completions(&mut self) {
        let now = self.engine.round();
        let due: Vec<Arc<InstanceMeta>> = {
            let (done, still): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|meta| now > meta.end_round);
            self.pending = still;
            done
        };
        for meta in due {
            let found: Option<DistributionEstimate> =
                self.engine.nodes().iter().find_map(|(_, node)| {
                    node.estimate()
                        .filter(|est| est.instance == meta.id)
                        .cloned()
                });
            match found {
                Some(est) => self.absorb(est),
                None => self.lost += 1,
            }
        }
    }

    /// Feeds one completed estimate through the mode's policy: measure
    /// divergence against the blend, let the controller adapt the launch
    /// period, restart if the mode calls for it, then absorb.
    fn absorb(&mut self, est: DistributionEstimate) {
        let now = self.engine.round();
        let divergence = self.tracker.divergence(&est.cdf, now);
        if let Some(d) = divergence {
            self.divergences.push(d);
        }
        let mut restart = self.config.mode == TrackerMode::RestartNaive;
        if self.config.mode.is_adaptive() {
            let decision = self.config.controller.observe(self.period, divergence);
            self.period = decision.next_period;
            if decision.restart && self.config.mode == TrackerMode::PipelinedAdaptiveRestart {
                restart = true;
            }
        }
        if restart && !self.tracker.is_empty() {
            self.tracker.reset();
            self.restarts += 1;
        }
        self.tracker.absorb(est.instance.as_u64(), now, est.cdf);
        self.completed += 1;
    }

    /// Scores the served blend against the *current* population truth —
    /// the tracking error a consumer of the estimate would experience
    /// right now, drift included.
    fn sample(&mut self) {
        let now = self.engine.round();
        let truth = current_truth(&self.engine);
        let (err_max, err_avg) = match self.blended_cdf(now) {
            Some(cdf) => discrete_errors_over(&truth, &cdf, truth.min(), truth.max()),
            None => (1.0, 1.0),
        };
        self.samples.push(TrackSample {
            round: now,
            err_max,
            err_avg,
            tracked: self.tracker.len(),
            period: self.period,
        });
    }

    /// Aggregates the run into a [`StreamReport`].
    pub fn report(&self) -> StreamReport {
        let n = self.samples.len().max(1) as f64;
        let time_avg_err = self.samples.iter().map(|s| s.err_avg).sum::<f64>() / n;
        let time_avg_err_max = self.samples.iter().map(|s| s.err_max).sum::<f64>() / n;
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        for s in &self.samples {
            fingerprint = mix(fingerprint, s.round);
            fingerprint = mix(fingerprint, s.err_max.to_bits());
            fingerprint = mix(fingerprint, s.err_avg.to_bits());
            fingerprint = mix(fingerprint, s.tracked as u64);
            fingerprint = mix(fingerprint, s.period);
        }
        let mean_divergence = if self.divergences.is_empty() {
            f64::NAN
        } else {
            self.divergences.iter().sum::<f64>() / self.divergences.len() as f64
        };
        StreamReport {
            mode: self.config.mode,
            rounds: self.samples.len(),
            time_avg_err,
            time_avg_err_max,
            final_err: self.samples.last().map_or(1.0, |s| s.err_avg),
            launched: self.launched,
            completed: self.completed,
            restarts: self.restarts,
            mean_divergence,
            final_period: self.period,
            messages: self.engine.net().total_msgs(),
            bytes: self.engine.net().total_bytes(),
            fingerprint,
        }
    }

    /// Instances that never delivered an estimate (all participants
    /// crashed before finalising).
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adam2_bench::setup;
    use adam2_core::BootstrapKind;
    use adam2_sim::DriftModel;
    use adam2_traces::Attribute;

    const NODES: usize = 300;
    const SEED: u64 = 11;

    fn adam2() -> Adam2Config {
        Adam2Config::new()
            .with_lambda(16)
            .with_rounds_per_instance(25)
            .with_bootstrap(BootstrapKind::Neighbours)
    }

    fn config(mode: TrackerMode) -> StreamConfig {
        StreamConfig::for_mode(mode)
            .with_launch_period(8)
            .with_instance_rounds(25)
    }

    fn ramp_scenario() -> FaultScenario {
        FaultScenario::new(5).with_drift(10, 210, DriftModel::LinearRamp { per_round: 30.0 })
    }

    #[test]
    fn stable_population_converges() {
        let s = setup(Attribute::Ram, NODES, SEED);
        let mut p = InstancePipeline::over(
            &s,
            adam2(),
            SEED,
            None,
            1,
            config(TrackerMode::PipelinedFixedFade),
        );
        p.run(80);
        let r = p.report();
        assert!(r.completed >= 3, "completed {}", r.completed);
        assert_eq!(r.restarts, 0);
        assert!(r.final_err < 0.05, "final err {}", r.final_err);
        // The blend is live once the first instance lands.
        assert!(p.tracker().len() >= 2);
    }

    #[test]
    fn pipelined_fade_beats_restart_naive_under_ramp() {
        let s = setup(Attribute::Ram, NODES, SEED);
        let run = |mode| {
            let mut p =
                InstancePipeline::over(&s, adam2(), SEED, Some(ramp_scenario()), 1, config(mode));
            p.run(220);
            p.report()
        };
        let naive = run(TrackerMode::RestartNaive);
        let faded = run(TrackerMode::PipelinedFixedFade);
        // Equal message budget: gossip piggybacks instances, so overlap
        // costs bytes, not messages.
        assert_eq!(naive.messages, faded.messages);
        assert!(faded.bytes >= naive.bytes);
        assert!(
            faded.time_avg_err < naive.time_avg_err,
            "pipelined+faded {} must beat naive {}",
            faded.time_avg_err,
            naive.time_avg_err
        );
    }

    #[test]
    fn adaptive_restart_fires_on_step_change() {
        let s = setup(Attribute::Ram, NODES, SEED);
        // A large step at round 40: pre-step estimates are badly wrong,
        // so the first post-step completion diverges past the restart
        // threshold.
        let scenario =
            FaultScenario::new(5).with_drift(40, 41, DriftModel::Step { shift: 3_000.0 });
        let mut p = InstancePipeline::over(
            &s,
            adam2(),
            SEED,
            Some(scenario),
            1,
            config(TrackerMode::PipelinedAdaptiveRestart),
        );
        p.run(120);
        let r = p.report();
        assert!(r.restarts >= 1, "step change must trigger a restart");
        // After the restart the tracker recovers on the post-step truth.
        assert!(r.final_err < 0.1, "final err {}", r.final_err);
    }

    #[test]
    fn adaptive_mode_backs_off_when_stable() {
        let s = setup(Attribute::Ram, NODES, SEED);
        let mut p = InstancePipeline::over(
            &s,
            adam2(),
            SEED,
            None,
            1,
            config(TrackerMode::PipelinedAdaptiveFade),
        );
        p.run(140);
        let r = p.report();
        // Zero divergence on a stable population: the controller grows the
        // period toward its ceiling.
        assert!(
            r.final_period > 8,
            "period should back off from 8, got {}",
            r.final_period
        );
        assert_eq!(r.restarts, 0);
    }

    #[test]
    fn replay_is_bit_identical_across_thread_counts() {
        let s = setup(Attribute::Ram, NODES, SEED);
        let run = |threads| {
            let mut p = InstancePipeline::over(
                &s,
                adam2(),
                SEED,
                Some(ramp_scenario()),
                threads,
                config(TrackerMode::PipelinedAdaptiveFade),
            );
            p.run(100);
            p.report().fingerprint
        };
        assert_eq!(run(1), run(3), "thread count must not change the series");
    }

    #[test]
    fn naive_mode_never_overlaps() {
        let s = setup(Attribute::Ram, NODES, SEED);
        let mut p = InstancePipeline::over(
            &s,
            adam2(),
            SEED,
            None,
            1,
            config(TrackerMode::RestartNaive),
        );
        for _ in 0..90 {
            p.step();
            assert!(p.tracker().len() <= 1, "naive mode keeps a single estimate");
        }
        let r = p.report();
        // Every completion after the first resets the (single-entry)
        // tracker.
        assert_eq!(r.restarts + 1, r.completed);
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in TrackerMode::ALL {
            assert_eq!(TrackerMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(TrackerMode::from_label("nope"), None);
    }

    #[test]
    #[should_panic(expected = "launch_period must be positive")]
    fn zero_period_is_rejected() {
        let s = setup(Attribute::Ram, 50, SEED);
        let mut c = config(TrackerMode::PipelinedFixedFade);
        c.launch_period = 0;
        InstancePipeline::over(&s, adam2(), SEED, None, 1, c);
    }
}
