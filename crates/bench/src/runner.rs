//! Shared experiment drivers: engine construction, instance sequencing,
//! and the paper's cross-peer error aggregation.

use std::collections::HashMap;
use std::sync::Arc;

use rand::RngExt as _;

use adam2_baselines::{EquiDepthConfig, EquiDepthProtocol, PhaseMeta};
use adam2_core::{
    discrete_errors_over, uniform_points, Adam2Config, Adam2Node, Adam2Protocol, AsyncAdam2,
    AttrValue, InstanceId, InstanceMeta, InterpCdf, RobustPolicy, StepCdf,
};
use adam2_sim::{
    derive_seed, seeded_rng, ChurnModel, Engine, EngineConfig, EventConfig, EventEngine,
    MassAuditor, NodeId, NodeSlab, RunManifest, SimTelemetry,
};
use adam2_traces::{Attribute, Population};

/// A generated population with its exact CDF.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// The per-node attribute values.
    pub population: Population,
    /// The exact CDF of the initial population.
    pub truth: StepCdf,
}

/// Generates the population for `attr` with `nodes` nodes.
pub fn setup(attr: Attribute, nodes: usize, seed: u64) -> ExperimentSetup {
    let mut rng = seeded_rng(derive_seed(seed, 0xA7_7B));
    let population = Population::generate(attr, nodes, &mut rng);
    let truth = StepCdf::from_values(population.values().to_vec());
    ExperimentSetup { population, truth }
}

/// Builds an Adam2 engine over the population (nodes in population order;
/// churn replacements drawn fresh from the same attribute distribution).
pub fn adam2_engine(
    setup: &ExperimentSetup,
    config: Adam2Config,
    seed: u64,
    churn: ChurnModel,
) -> Engine<Adam2Protocol> {
    adam2_engine_with(setup, config, seed, |c| c.with_churn(churn))
}

/// Builds an Adam2 engine with full control over the engine configuration:
/// `configure` receives the base config (population size + derived seed)
/// and can layer loss rates, exchange repair, fault scenarios via
/// [`Engine::set_fault_scenario`] afterwards, thread counts, or churn on
/// top. The population and seed derivation match [`adam2_engine`], so
/// faulted and fault-free runs are directly comparable.
pub fn adam2_engine_with(
    setup: &ExperimentSetup,
    config: Adam2Config,
    seed: u64,
    configure: impl FnOnce(EngineConfig) -> EngineConfig,
) -> Engine<Adam2Protocol> {
    let pop = setup.population.clone();
    let proto = Adam2Protocol::with_population(config, pop.values().to_vec(), move |rng| {
        pop.draw_fresh(rng)
    });
    let engine_config = configure(EngineConfig::new(
        setup.population.len(),
        derive_seed(seed, 0xE7_61),
    ));
    Engine::new(engine_config, proto)
}

/// The event-engine twin of [`adam2_engine_with`]: an [`AsyncAdam2`]
/// engine over the population with gossip `period` (the protocol's ticks
/// per round) and, if given, the robust merge. `configure` receives the
/// base config (population size, `seed` as given, `period`) and layers
/// latency, loss or thread counts on top.
pub fn adam2_event_engine_with(
    setup: &ExperimentSetup,
    period: u64,
    robust: Option<RobustPolicy>,
    seed: u64,
    configure: impl FnOnce(EventConfig) -> EventConfig,
) -> EventEngine<AsyncAdam2> {
    let pop = setup.population.clone();
    let mut proto = AsyncAdam2::with_population(period, pop.values().to_vec(), move |rng| {
        pop.draw_fresh(rng)
    });
    if let Some(policy) = robust {
        proto = proto.with_robust(policy);
    }
    let config =
        configure(EventConfig::new(setup.population.len(), seed).with_gossip_period(period));
    EventEngine::new(config, proto)
}

/// The one instance an event-engine run starts by hand: `lambda` uniform
/// points over `truth`'s range, no verification points, due at
/// `end_round`.
pub fn event_instance(truth: &StepCdf, lambda: usize, end_round: u64) -> Arc<InstanceMeta> {
    Arc::new(InstanceMeta {
        id: InstanceId::derive(0, 0, 1),
        thresholds: uniform_points(truth.min(), truth.max(), lambda).into(),
        verify_thresholds: Vec::new().into(),
        start_round: 0,
        end_round,
        multi: false,
    })
}

/// Builds an EquiDepth engine over the same population.
pub fn equidepth_engine(
    setup: &ExperimentSetup,
    config: EquiDepthConfig,
    seed: u64,
    churn: ChurnModel,
) -> Engine<EquiDepthProtocol> {
    let pop = setup.population.clone();
    let proto = EquiDepthProtocol::with_population(config, pop.values().to_vec(), move |rng| {
        pop.draw_fresh(rng)
    });
    let engine_config =
        EngineConfig::new(setup.population.len(), derive_seed(seed, 0xE7_61)).with_churn(churn);
    Engine::new(engine_config, proto)
}

/// Starts one Adam2 aggregation instance from a random initiator.
pub fn start_instance(engine: &mut Engine<Adam2Protocol>) -> Arc<InstanceMeta> {
    engine
        .with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("population non-empty");
            proto.start_instance(initiator, ctx)
        })
        .expect("instance start")
}

/// Starts one EquiDepth phase from a random initiator.
pub fn start_phase(engine: &mut Engine<EquiDepthProtocol>) -> Arc<PhaseMeta> {
    engine
        .with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("population non-empty");
            proto.start_phase(initiator, ctx)
        })
        .expect("phase start")
}

/// Runs an instance/phase to completion: its duration plus the
/// finalisation round.
pub fn complete_instance<P: adam2_sim::Protocol>(engine: &mut Engine<P>, duration: u64) {
    engine.run_rounds(duration + 1);
}

/// The exact CDF of the *current* (possibly churned) population.
pub fn current_truth(engine: &Engine<Adam2Protocol>) -> StepCdf {
    let values: Vec<f64> = engine
        .nodes()
        .iter()
        .map(|(_, node)| match node.value() {
            AttrValue::Single(v) => *v,
            AttrValue::Multi(_) => {
                unreachable!("current_truth is for single-valued populations")
            }
        })
        .collect();
    StepCdf::from_values(values)
}

/// The exact CDF of the current EquiDepth population.
pub fn equidepth_truth(engine: &Engine<EquiDepthProtocol>) -> StepCdf {
    let values: Vec<f64> = engine.nodes().iter().map(|(_, n)| n.value()).collect();
    StepCdf::from_values(values)
}

/// Cross-peer error aggregates for one evaluation point, mirroring the
/// paper's metrics:
///
/// * `max_points` / `avg_points` — error of the aggregated fractions at
///   the interpolation points only (`max_p max_i` and `avg_p avg_i` of
///   `|f_i - F(t_i)|`);
/// * `max_cdf` / `avg_cdf` — error over the entire CDF domain
///   (`Err_m = max_p`, `Err_a = avg_p` of the discrete-domain distances).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorReport {
    /// `Err_m` restricted to the interpolation points.
    pub max_points: f64,
    /// `Err_a` restricted to the interpolation points.
    pub avg_points: f64,
    /// `Err_m` over the entire CDF domain.
    pub max_cdf: f64,
    /// `Err_a` over the entire CDF domain.
    pub avg_cdf: f64,
    /// Peers that contributed an estimate.
    pub peers_with_estimate: usize,
    /// Peers without any estimate (each counted as error 1.0).
    pub peers_without_estimate: usize,
}

/// One peer's completed estimate in engine-independent form: the
/// interpolation points plus the converged extrema, from which the full
/// CDF rebuilds exactly (a [`crate::runner`] evaluation does not care
/// whether the peer ran inside the simulator or behind a socket in the
/// deploy runtime).
#[derive(Debug, Clone, PartialEq)]
pub struct PeerEstimate {
    /// Instance the estimate came from (estimates are grouped by it).
    pub instance: u64,
    /// Interpolation thresholds `t_i`.
    pub thresholds: Vec<f64>,
    /// Normalised fractions `f_i`.
    pub fractions: Vec<f64>,
    /// Converged global minimum.
    pub min: f64,
    /// Converged global maximum.
    pub max: f64,
}

/// Evaluates every node's *latest completed estimate* against `truth`.
///
/// `Err_m` over the whole domain is exact across all peers (estimates are
/// grouped by instance so the envelope trick applies within each group);
/// `Err_a` over the whole domain averages a deterministic sample of
/// `sample_peers` peers (the paper reports cross-peer deviation below
/// `1e-5`). Peers without an estimate contribute the maximum error 1.0, as
/// in the paper's churn evaluation.
pub fn evaluate_estimates(
    engine: &Engine<Adam2Protocol>,
    truth: &StepCdf,
    sample_peers: usize,
    seed: u64,
) -> ErrorReport {
    let peers: Vec<Option<PeerEstimate>> = engine
        .nodes()
        .iter()
        .map(|(_, node)| {
            node.estimate().map(|est| PeerEstimate {
                instance: est.instance.as_u64(),
                thresholds: est.thresholds.clone(),
                fractions: est.fractions.clone(),
                min: est.min,
                max: est.max,
            })
        })
        .collect();
    evaluate_peer_estimates(&peers, truth, sample_peers, seed)
}

/// Engine-independent core of [`evaluate_estimates`]: scores a list of
/// per-peer estimates (one slot per peer; `None` = no estimate, error 1.0)
/// against `truth`. The deploy harness feeds estimates collected over
/// control sockets through the same metric pipeline the simulator uses.
pub fn evaluate_peer_estimates(
    estimates: &[Option<PeerEstimate>],
    truth: &StepCdf,
    sample_peers: usize,
    seed: u64,
) -> ErrorReport {
    #[derive(Default)]
    struct Group {
        thresholds: Vec<f64>,
        min: f64,
        max: f64,
        lo: Vec<f64>,
        hi: Vec<f64>,
    }
    let mut groups: HashMap<u64, Group> = HashMap::new();
    let mut max_points = 0.0f64;
    let mut sum_points = 0.0f64;
    let mut with = 0usize;
    let mut without = 0usize;
    let mut cdfs: Vec<InterpCdf> = Vec::new();

    for est in estimates {
        let Some(est) = est else {
            without += 1;
            continue;
        };
        // The stored fractions are the normalised values the estimate's
        // CDF was interpolated from, so the rebuild is exact.
        let Ok(cdf) = InterpCdf::from_points(est.min, est.max, &est.thresholds, &est.fractions)
        else {
            without += 1;
            continue;
        };
        with += 1;
        cdfs.push(cdf);
        // Point errors, exact over all peers.
        let mut peer_sum = 0.0f64;
        for (t, f) in est.thresholds.iter().zip(&est.fractions) {
            let e = (truth.eval(*t) - f).abs();
            max_points = max_points.max(e);
            peer_sum += e;
        }
        if !est.thresholds.is_empty() {
            sum_points += peer_sum / est.thresholds.len() as f64;
        }
        // Envelope per instance for the exact whole-domain Err_m.
        let group = groups.entry(est.instance).or_insert_with(|| Group {
            thresholds: est.thresholds.clone(),
            min: est.min,
            max: est.max,
            lo: vec![f64::INFINITY; est.fractions.len()],
            hi: vec![f64::NEG_INFINITY; est.fractions.len()],
        });
        group.min = group.min.min(est.min);
        group.max = group.max.max(est.max);
        for (i, f) in est.fractions.iter().enumerate() {
            group.lo[i] = group.lo[i].min(*f);
            group.hi[i] = group.hi[i].max(*f);
        }
    }

    let mut max_cdf = if without > 0 { 1.0 } else { 0.0f64 };
    for group in groups.values() {
        for fractions in [&group.lo, &group.hi] {
            if let Ok(cdf) =
                InterpCdf::from_points(group.min, group.max, &group.thresholds, fractions)
            {
                let (m, _) = discrete_errors_over(truth, &cdf, truth.min(), truth.max());
                max_cdf = max_cdf.max(m);
            }
        }
    }

    // Err_a over the whole domain: deterministic peer sample.
    let mut rng = seeded_rng(derive_seed(seed, 0x5A_3F));
    let mut sum_cdf = without as f64; // absent estimates count as 1.0
    let samples = sample_peers.min(cdfs.len());
    for _ in 0..samples {
        let cdf = &cdfs[rng.random_range(0..cdfs.len())];
        let (_, a) = discrete_errors_over(truth, cdf, truth.min(), truth.max());
        sum_cdf += a;
    }
    let avg_cdf = if samples + without > 0 {
        // Weight the sampled mean by the estimated population share.
        let sampled_mean = if samples > 0 {
            (sum_cdf - without as f64) / samples as f64
        } else {
            0.0
        };
        (sampled_mean * with as f64 + without as f64) / (with + without).max(1) as f64
    } else {
        0.0
    };
    let max_points = if without > 0 { 1.0 } else { max_points };
    let avg_points = (sum_points + without as f64) / (with + without).max(1) as f64;

    ErrorReport {
        max_points,
        avg_points,
        max_cdf,
        avg_cdf,
        peers_with_estimate: with,
        peers_without_estimate: without,
    }
}

/// Evaluates every EquiDepth node's latest estimate against `truth`.
///
/// EquiDepth estimates differ structurally per peer (no shared
/// thresholds), so both whole-domain aggregates use the deterministic
/// peer sample for the average and a sample-based maximum (the paper's
/// EquiDepth numbers are far from Adam2's, so sampling precision is not
/// the bottleneck).
pub fn evaluate_equidepth_estimates(
    engine: &Engine<EquiDepthProtocol>,
    truth: &StepCdf,
    sample_peers: usize,
    seed: u64,
) -> ErrorReport {
    let mut with = 0usize;
    let mut without = 0usize;
    let mut cdfs: Vec<&InterpCdf> = Vec::new();
    for (_, node) in engine.nodes().iter() {
        match node.estimate() {
            Some(est) => {
                with += 1;
                cdfs.push(est);
            }
            None => without += 1,
        }
    }
    let mut rng = seeded_rng(derive_seed(seed, 0x5A_40));
    let mut max_cdf = if without > 0 { 1.0 } else { 0.0f64 };
    let mut sum_cdf = 0.0f64;
    let samples = sample_peers
        .min(cdfs.len())
        .max(if cdfs.is_empty() { 0 } else { 1 });
    for _ in 0..samples {
        let cdf = cdfs[rng.random_range(0..cdfs.len())];
        let (m, a) = discrete_errors_over(truth, cdf, truth.min(), truth.max());
        max_cdf = max_cdf.max(m);
        sum_cdf += a;
    }
    let sampled_mean = if samples > 0 {
        sum_cdf / samples as f64
    } else {
        0.0
    };
    let avg_cdf = (sampled_mean * with as f64 + without as f64) / (with + without).max(1) as f64;
    ErrorReport {
        max_points: max_cdf,
        avg_points: avg_cdf,
        max_cdf,
        avg_cdf,
        peers_with_estimate: with,
        peers_without_estimate: without,
    }
}

/// Conservation defect of one running instance, aggregated over its
/// current participants.
///
/// Both quantities are invariant under joins and symmetric merges, so any
/// departure from 0 measures mass injected or destroyed by the network
/// (asymmetric half-exchanges, crashed participants):
///
/// * `weight` — `Σ w_p − 1` (the system-size mass; exactly 0 on a
///   fault-free run);
/// * `fraction` — `max_i |Σ_p f_i(p) − Σ_p indicator_p(t_i)|` (the
///   averaging mass at the worst interpolation point).
///
/// Restart epochs re-seed both masses, so defects are meaningful within
/// one epoch (the bench fault scenarios run with self-healing off).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MassDefect {
    /// `Σ w_p − 1` over participants.
    pub weight: f64,
    /// Worst-threshold averaging-mass defect over participants.
    pub fraction: f64,
}

/// Measures the conservation defect of `meta`'s instance right now, over
/// the nodes of either engine.
pub fn mass_defect(nodes: &NodeSlab<Adam2Node>, meta: &InstanceMeta) -> MassDefect {
    let lambda = meta.thresholds.len();
    let mut weight = 0.0f64;
    let mut fractions = vec![0.0f64; lambda];
    let mut indicators = vec![0.0f64; lambda];
    let mut participants = 0usize;
    for (_, node) in nodes.iter() {
        let Some(inst) = node.active_instance(meta.id) else {
            continue;
        };
        participants += 1;
        weight += inst.weight;
        for (acc, f) in fractions.iter_mut().zip(&inst.fractions) {
            *acc += f;
        }
        for (acc, t) in indicators.iter_mut().zip(meta.thresholds.iter()) {
            *acc += node.value().indicator(*t);
        }
    }
    let fraction = fractions
        .iter()
        .zip(&indicators)
        .map(|(f, x)| (f - x).abs())
        .fold(0.0f64, f64::max);
    MassDefect {
        weight: if participants > 0 { weight - 1.0 } else { 0.0 },
        fraction,
    }
}

/// Keys used by [`run_instance_audited`] in its [`MassAuditor`].
pub const AUDIT_WEIGHT: u64 = 0;
/// See [`AUDIT_WEIGHT`].
pub const AUDIT_FRACTION: u64 = 1;

/// Runs `rounds` gossip rounds, feeding the per-round [`MassDefect`] of
/// `meta`'s instance into a [`MassAuditor`] (component [`AUDIT_WEIGHT`]
/// tracks the weight defect, [`AUDIT_FRACTION`] the averaging-mass
/// defect). `auditor.max_drift()` over a run bounds the worst conservation
/// violation any round exhibited.
pub fn run_instance_audited(
    engine: &mut Engine<Adam2Protocol>,
    meta: &InstanceMeta,
    rounds: u64,
) -> MassAuditor {
    let mut auditor = MassAuditor::new();
    // Baseline both components at exactly 0 so recorded drifts are the
    // defects themselves.
    auditor.observe(AUDIT_WEIGHT, 0.0);
    auditor.observe(AUDIT_FRACTION, 0.0);
    for _ in 0..rounds {
        engine.run_round();
        let defect = mass_defect(engine.nodes(), meta);
        auditor.observe(AUDIT_WEIGHT, defect.weight);
        auditor.observe(AUDIT_FRACTION, defect.fraction);
        let completed = engine.round() - 1;
        if let Some(t) = engine.telemetry_mut() {
            t.annotate_round(
                completed,
                f64::NAN,
                f64::NAN,
                defect.weight,
                defect.fraction,
            );
        }
    }
    auditor
}

/// Per-round error sample of a *running* instance (Figs. 6 and 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSample {
    /// Rounds since the instance started (1-based: after the first gossip
    /// round).
    pub round: u64,
    /// `Err_m` at the interpolation points, across all participants
    /// (non-participants count as 1.0).
    pub max_points: f64,
    /// `Err_a` at the interpolation points.
    pub avg_points: f64,
    /// `Err_m` over the entire CDF domain (sampled peers).
    pub max_cdf: f64,
    /// `Err_a` over the entire CDF domain (sampled peers).
    pub avg_cdf: f64,
    /// Fraction of nodes participating in the instance.
    pub participation: f64,
}

/// Runs `rounds` gossip rounds of a single Adam2 instance, sampling the
/// error metrics after every round.
///
/// Nodes that have not yet joined the instance (or that joined the system
/// after it started) contribute the maximum error 1.0, reproducing the
/// initial plateau of Fig. 6(a). Whole-domain errors use a deterministic
/// sample of `sample_peers` participants per round.
pub fn run_instance_tracked(
    engine: &mut Engine<Adam2Protocol>,
    meta: &InstanceMeta,
    truth_of: impl Fn(&Engine<Adam2Protocol>) -> StepCdf,
    rounds: u64,
    sample_peers: usize,
    seed: u64,
) -> Vec<RoundSample> {
    let mut series = Vec::with_capacity(rounds as usize);
    let mut rng = seeded_rng(derive_seed(seed, 0x90_11));
    for r in 1..=rounds {
        engine.run_round();
        let truth = truth_of(engine);

        let mut max_points = 0.0f64;
        let mut sum_points = 0.0f64;
        let mut participants = Vec::new();
        let mut absent = 0usize;
        let mut eligible = 0usize;
        for (id, node) in engine.nodes().iter() {
            // Nodes that joined the system after the instance started are
            // excluded from the evaluation (the paper excludes them since
            // "their CDF approximations are undefined").
            if node.joined_round() > meta.start_round {
                continue;
            }
            eligible += 1;
            let Some(inst) = node.active_instance(meta.id) else {
                absent += 1;
                continue;
            };
            participants.push(id);
            let fractions = inst.normalised_fractions();
            let mut peer_sum = 0.0f64;
            for (t, f) in meta.thresholds.iter().zip(&fractions) {
                let e = (truth.eval(*t) - f).abs();
                max_points = max_points.max(e);
                peer_sum += e;
            }
            sum_points += peer_sum / meta.thresholds.len().max(1) as f64;
        }
        if absent > 0 {
            max_points = 1.0;
        }
        let avg_points = (sum_points + absent as f64) / (participants.len() + absent).max(1) as f64;

        // Whole-domain errors over a per-round peer sample.
        let mut max_cdf = if absent > 0 { 1.0 } else { 0.0f64 };
        let mut sum_cdf = 0.0f64;
        let samples = sample_peers.min(participants.len());
        for _ in 0..samples {
            let id: NodeId = participants[rng.random_range(0..participants.len())];
            let node = engine.nodes().get(id).expect("participant live");
            let inst = node.active_instance(meta.id).expect("participant active");
            let fractions = inst.normalised_fractions();
            if inst.min.is_finite() && inst.max.is_finite() && inst.min <= inst.max {
                if let Ok(cdf) =
                    InterpCdf::from_points(inst.min, inst.max, &meta.thresholds, &fractions)
                {
                    let (m, a) = discrete_errors_over(&truth, &cdf, truth.min(), truth.max());
                    max_cdf = max_cdf.max(m);
                    sum_cdf += a;
                    continue;
                }
            }
            sum_cdf += 1.0;
        }
        let sampled_mean = if samples > 0 {
            sum_cdf / samples as f64
        } else {
            1.0
        };
        let avg_cdf = (sampled_mean * participants.len() as f64 + absent as f64)
            / (participants.len() + absent).max(1) as f64;

        let completed = engine.round() - 1;
        if let Some(t) = engine.telemetry_mut() {
            t.annotate_round(completed, max_cdf, avg_cdf, f64::NAN, f64::NAN);
        }
        series.push(RoundSample {
            round: r,
            max_points,
            avg_points,
            max_cdf,
            avg_cdf,
            participation: if eligible > 0 {
                participants.len() as f64 / eligible as f64
            } else {
                0.0
            },
        });
    }
    series
}

/// Attaches a fresh telemetry store to `engine` when `dir` is set (the
/// `--telemetry <dir>` flag). Recording is purely observational, so
/// attaching never changes experiment results.
pub fn maybe_attach_telemetry<P: adam2_sim::Protocol>(
    engine: &mut Engine<P>,
    dir: Option<&String>,
) {
    if dir.is_some() {
        engine.attach_telemetry(SimTelemetry::new());
    }
}

/// Detaches `engine`'s telemetry (if any) and exports it under
/// `dir/<label>/` — `manifest.json`, `rounds.jsonl`, `rounds.csv`, and
/// `events.jsonl` — with a [`RunManifest`] describing the run. A no-op
/// when no telemetry is attached. Returns the manifest that was written.
pub fn export_telemetry<P: adam2_sim::Protocol>(
    engine: &mut Engine<P>,
    dir: &str,
    label: &str,
    experiment: &str,
    config_desc: &str,
    seed: u64,
) -> Option<RunManifest> {
    let telemetry = engine.detach_telemetry()?;
    let manifest = RunManifest::new(experiment, config_desc, seed, engine.threads());
    let out = std::path::Path::new(dir).join(label);
    telemetry
        .export(&out, &manifest)
        .unwrap_or_else(|e| panic!("telemetry export to {} failed: {e}", out.display()));
    Some(manifest)
}

/// FNV-1a over the little-endian bytes of `v`, folded into `h`: the step
/// the benches' bit-exact fingerprints are built from.
pub fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Re-runs a measured run at another thread count and panics unless it
/// ends in the same `fingerprint`; returns that other count. It is 1 when
/// the run used more than one thread, else 3: an odd count, so the
/// coloured schedule splits its batches unevenly.
pub fn assert_thread_invariant(
    what: &str,
    threads: usize,
    fingerprint: u64,
    rerun: impl FnOnce(usize) -> u64,
) -> usize {
    let other = if threads > 1 { 1 } else { 3 };
    let again = rerun(other);
    assert_eq!(
        fingerprint, again,
        "{what} not bit-identical (threads {threads} vs {other})"
    );
    other
}

#[cfg(test)]
mod tests {
    use super::*;
    use adam2_core::BootstrapKind;

    fn small_setup() -> ExperimentSetup {
        setup(Attribute::Ram, 400, 1)
    }

    #[test]
    fn setup_is_deterministic() {
        let a = setup(Attribute::Cpu, 100, 5);
        let b = setup(Attribute::Cpu, 100, 5);
        assert_eq!(a.population.values(), b.population.values());
        assert_eq!(a.truth.min(), b.truth.min());
    }

    #[test]
    fn full_instance_cycle_produces_low_error() {
        let s = small_setup();
        let config = Adam2Config::new()
            .with_lambda(20)
            .with_rounds_per_instance(35)
            .with_bootstrap(BootstrapKind::Neighbours);
        let mut engine = adam2_engine(&s, config, 2, ChurnModel::None);
        start_instance(&mut engine);
        complete_instance(&mut engine, 35);
        let report = evaluate_estimates(&engine, &s.truth, 16, 2);
        assert_eq!(report.peers_without_estimate, 0);
        assert_eq!(report.peers_with_estimate, 400);
        assert!(report.max_points < 1e-6, "points err {}", report.max_points);
        assert!(report.max_cdf < 0.6, "cdf err {}", report.max_cdf);
        assert!(report.avg_cdf <= report.max_cdf);
    }

    #[test]
    fn tracked_run_shows_convergence() {
        let s = small_setup();
        let config = Adam2Config::new()
            .with_lambda(10)
            .with_rounds_per_instance(40);
        let mut engine = adam2_engine(&s, config, 3, ChurnModel::None);
        let meta = start_instance(&mut engine);
        let series = run_instance_tracked(&mut engine, &meta, current_truth, 40, 8, 3);
        assert_eq!(series.len(), 40);
        // Early rounds: not everyone joined -> max error 1.
        assert_eq!(series[0].max_points, 1.0);
        // Late rounds: everyone joined and the averaging converged.
        let last = series.last().unwrap();
        assert_eq!(last.participation, 1.0);
        assert!(last.max_points < 1e-9, "late error {}", last.max_points);
        assert!(last.max_points <= series[5].max_points);
    }

    #[test]
    fn equidepth_cycle_produces_estimates() {
        let s = small_setup();
        let mut engine = equidepth_engine(&s, EquiDepthConfig::new(20, 30), 4, ChurnModel::None);
        start_phase(&mut engine);
        complete_instance(&mut engine, 30);
        let report = evaluate_equidepth_estimates(&engine, &s.truth, 16, 4);
        assert_eq!(report.peers_without_estimate, 0);
        assert!(report.max_cdf < 0.7);
        assert!(report.avg_cdf > 0.0);
    }

    #[test]
    fn repaired_protocol_survives_burst_loss_and_partition() {
        // The PR's acceptance scenario: 20 % burst loss over rounds 5..15
        // plus a 10-round overlay bisection over rounds 10..20, one
        // 35-round instance. With the two-phase repair the mass auditor
        // stays flat and the final Err_a lands within 2x of the fault-free
        // run; without it the burst visibly destroys averaging mass.
        use adam2_sim::{ExchangeRepair, FaultScenario, PartitionKind};

        let s = small_setup();
        let config = Adam2Config::new()
            .with_lambda(20)
            .with_rounds_per_instance(35)
            .with_bootstrap(BootstrapKind::Neighbours);
        let scenario = || {
            FaultScenario::new(7)
                .with_burst_loss(5, 15, 0.2)
                .with_partition(10, 20, PartitionKind::Bisect)
        };

        let mut fault_free = adam2_engine(&s, config, 2, ChurnModel::None);
        let meta = start_instance(&mut fault_free);
        let clean_audit = run_instance_audited(&mut fault_free, &meta, 36);
        let clean = evaluate_estimates(&fault_free, &s.truth, 16, 2);
        assert!(clean_audit.max_drift() < 1e-9, "clean run must conserve");

        let mut repaired =
            adam2_engine_with(&s, config, 2, |c| c.with_repair(ExchangeRepair::enabled()));
        repaired.set_fault_scenario(scenario()).expect("valid");
        let meta = start_instance(&mut repaired);
        let repaired_audit = run_instance_audited(&mut repaired, &meta, 36);
        let repaired_report = evaluate_estimates(&repaired, &s.truth, 16, 2);

        let mut unrepaired = adam2_engine(&s, config, 2, ChurnModel::None);
        unrepaired.set_fault_scenario(scenario()).expect("valid");
        let meta = start_instance(&mut unrepaired);
        let unrepaired_audit = run_instance_audited(&mut unrepaired, &meta, 36);

        assert!(
            repaired_audit.max_drift() < 1e-9,
            "repair must conserve mass: {}",
            repaired_audit.max_drift()
        );
        assert!(
            unrepaired_audit.max_drift() > 1e-4,
            "unrepaired burst should measurably leak: {}",
            unrepaired_audit.max_drift()
        );
        assert!(
            repaired_report.avg_cdf <= clean.avg_cdf * 2.0 + 1e-9,
            "repaired Err_a {} vs fault-free {}",
            repaired_report.avg_cdf,
            clean.avg_cdf
        );
        assert_eq!(repaired_report.peers_without_estimate, 0);
    }

    #[test]
    fn missing_estimates_count_as_max_error() {
        let s = small_setup();
        let config = Adam2Config::new()
            .with_lambda(5)
            .with_rounds_per_instance(30);
        let engine = adam2_engine(&s, config, 5, ChurnModel::None);
        // No instance run at all.
        let report = evaluate_estimates(&engine, &s.truth, 8, 5);
        assert_eq!(report.peers_with_estimate, 0);
        assert_eq!(report.max_cdf, 1.0);
        assert_eq!(report.avg_cdf, 1.0);
    }
}
