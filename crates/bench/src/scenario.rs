//! One faulted instance on either engine, read back peer by peer.
//!
//! `bench_faults`, `bench_byzantine` and the explorer's oracle all run one
//! [`ROUNDS`]-round Adam2 instance under a [`FaultScenario`], score the
//! honest peers, audit mass and fingerprint the final state. This module
//! is that one path: the fault and adversary catalogue with its constants,
//! [`run_cycle_scenario`] and [`run_event_scenario`] (both start the
//! instance at the lowest honest slot), and [`Peers`], which scores and
//! fingerprints what the run left behind.

use adam2_core::{Adam2Node, Adam2Protocol, RobustPolicy, StepCdf};
use adam2_sim::{
    ActiveAdversary, AdversaryModel, Engine, FaultEvent, FaultScenario, LatencyModel, MassAuditor,
    NodeId, NodeSlab, PartitionKind, SimTelemetry,
};

use crate::runner::{
    adam2_event_engine_with, evaluate_peer_estimates, event_instance, fnv_mix, mass_defect,
    run_instance_audited, ErrorReport, ExperimentSetup, PeerEstimate, AUDIT_FRACTION, AUDIT_WEIGHT,
};

/// Gossip rounds per instance. Long enough that fault-free Err_a reaches
/// its interpolation floor, so fault damage is cleanly visible.
pub const ROUNDS: u64 = 35;

/// Event-engine ticks per gossip round.
const PERIOD: u64 = 200;

/// Period boundaries [`run_event_scenario`] audits, counted back from the
/// instance deadline. The async network's one-sided absorbs leave mass in
/// flight at any instant — early in the run the initiator's whole unit
/// weight can be airborne — so only late boundaries, after the defect has
/// frozen, are meaningful.
const EVENT_AUDIT_BOUNDARIES: u64 = 3;

/// Per-component influence cap of [`robust_policy`]. The heavy lifting
/// against out-of-range poison is the plausibility screen (reject any
/// contribution no honest node could produce); the cap bounds what an
/// in-range lie can move per exchange.
const INFLUENCE_CAP: f64 = 0.25;

/// Poisoned components are drawn from `[0, MAGNITUDE)`; honest fractions
/// live in `[0, 1]`, so the lies sit far outside the plausible band.
pub const MAGNITUDE: f64 = 5.0;

/// Weight claimed by inflating nodes (honest claims are ≤ 1).
pub const INFLATION: f64 = 8.0;

/// The robust policy every robust-mode run uses. Trimming is off: with a
/// trim every merge skips its most-divergent component, which freezes the
/// slowest-converging component of late-joining peers (property tests
/// cover the trimmed merge instead).
pub fn robust_policy() -> RobustPolicy {
    RobustPolicy::new()
        .with_trim_fraction(0.0)
        .with_influence_cap(INFLUENCE_CAP)
}

/// The canned fault scenarios, by name: fault-free, a 20 % burst loss,
/// the burst plus a 10-round overlay bisection, and a crash–recover wave.
pub const FAULT_SCENARIOS: [&str; 4] = [
    "fault_free",
    "burst20",
    "burst20_partition10",
    "crash_recover",
];

/// The scenario named `name` (one of [`FAULT_SCENARIOS`]); `None` for
/// `fault_free`.
pub fn fault_scenario(name: &str, seed: u64) -> Option<FaultScenario> {
    let burst = || FaultScenario::new(seed).with_burst_loss(5, 15, 0.2);
    match name {
        "fault_free" => None,
        "burst20" => Some(burst()),
        "burst20_partition10" => Some(burst().with_partition(10, 20, PartitionKind::Bisect)),
        "crash_recover" => Some(FaultScenario::new(seed).with_crash_recover(8, 16, 0.1)),
        _ => unreachable!("unknown scenario {name}"),
    }
}

/// The four adversary models at the catalogue's strengths.
pub const ADVERSARIES: [AdversaryModel; 4] = [
    AdversaryModel::ValuePoisoning {
        magnitude: MAGNITUDE,
    },
    AdversaryModel::WeightInflation { factor: INFLATION },
    AdversaryModel::TargetedPartner {
        magnitude: MAGNITUDE,
    },
    AdversaryModel::Equivocation {
        magnitude: MAGNITUDE,
    },
];

/// The model's name in result tables and corpus entries.
pub fn adversary_name(model: AdversaryModel) -> &'static str {
    match model {
        AdversaryModel::ValuePoisoning { .. } => "value_poisoning",
        AdversaryModel::WeightInflation { .. } => "weight_inflation",
        AdversaryModel::TargetedPartner { .. } => "targeted_partner",
        AdversaryModel::Equivocation { .. } => "equivocation",
    }
}

/// A `fraction` of Byzantine nodes following `model` over the whole
/// instance, settle rounds included.
pub fn adversary_scenario(seed: u64, fraction: f64, model: AdversaryModel) -> FaultScenario {
    FaultScenario::new(seed).with_adversary(0, ROUNDS + 3, fraction, model)
}

/// The first adversary window's membership oracle, if the scenario has
/// one. Hand-written scenarios with several windows are judged against
/// the first (later honest-set changes are not modelled).
fn adversary_of(scenario: &FaultScenario) -> Option<ActiveAdversary> {
    scenario.events.iter().find_map(|event| match event {
        FaultEvent::Adversary { from_round, .. } => scenario.adversary_at(*from_round),
        _ => None,
    })
}

/// Lowest honest slot: the instance initiator is assumed honest (a
/// Byzantine initiator is the degenerate everything-is-poison case), and
/// the lowest slot doubles as the worst case for the targeted-partner
/// model, whose victim is exactly the lowest live slot.
fn honest_initiator<N>(nodes: &NodeSlab<N>, adversary: Option<&ActiveAdversary>) -> NodeId {
    nodes
        .iter()
        .map(|(id, _)| id)
        .filter(|id| adversary.is_none_or(|adv| !adv.is_byzantine(id.slot())))
        .min_by_key(|id| id.slot())
        .expect("at least one honest node")
}

/// Every peer's final state in slot order — `(slot, estimate, N̂)` — and
/// the adversary that says which of them are honest.
#[derive(Debug, Clone)]
pub struct Peers {
    states: Vec<(usize, Option<PeerEstimate>, Option<f64>)>,
    adversary: Option<ActiveAdversary>,
}

impl Peers {
    /// Reads every node's latest completed estimate.
    fn collect(nodes: &NodeSlab<Adam2Node>, adversary: Option<ActiveAdversary>) -> Self {
        let states = nodes
            .iter()
            .map(|(id, node)| {
                let est = node.estimate();
                let peer = est.map(|est| PeerEstimate {
                    instance: est.instance.as_u64(),
                    thresholds: est.thresholds.clone(),
                    fractions: est.fractions.clone(),
                    min: est.min,
                    max: est.max,
                });
                (id.slot(), peer, est.and_then(|est| est.n_hat))
            })
            .collect();
        Self { states, adversary }
    }

    fn honest(&self) -> impl Iterator<Item = &(usize, Option<PeerEstimate>, Option<f64>)> {
        self.states
            .iter()
            .filter(|(slot, _, _)| self.adversary.is_none_or(|adv| !adv.is_byzantine(*slot)))
    }

    /// Byzantine peers among the collected ones.
    pub fn byzantine(&self) -> u32 {
        self.adversary.map_or(0, |adv| {
            adv.count_byzantine(self.states.iter().map(|(slot, _, _)| *slot))
        })
    }

    /// Err over the honest peers only (a Byzantine node's own report is
    /// meaningless; the question is what the lies did to everyone else).
    pub fn score(&self, truth: &StepCdf, sample_peers: usize, seed: u64) -> ErrorReport {
        let honest: Vec<Option<PeerEstimate>> =
            self.honest().map(|(_, est, _)| est.clone()).collect();
        evaluate_peer_estimates(&honest, truth, sample_peers, seed)
    }

    /// Mean relative error of the honest peers' N̂ against `nodes` (weight
    /// inflation shows up here, not in the CDF error); NaN when no honest
    /// peer has one.
    pub fn n_hat_rel_err(&self, nodes: usize) -> f64 {
        let truth = nodes as f64;
        let (mut sum, mut count) = (0.0f64, 0usize);
        for n in self.honest().filter_map(|(_, _, n_hat)| *n_hat) {
            sum += (n - truth).abs() / truth;
            count += 1;
        }
        if count > 0 {
            sum / count as f64
        } else {
            f64::NAN
        }
    }

    /// FNV-1a digest over *every* peer, Byzantine ones included: each
    /// slot with its fractions, min and max, then every present N̂. Two
    /// runs with equal fingerprints took byte-identical trajectories.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (slot, est, _) in &self.states {
            h = fnv_mix(h, *slot as u64);
            let Some(est) = est else { continue };
            for f in &est.fractions {
                h = fnv_mix(h, f.to_bits());
            }
            h = fnv_mix(h, est.min.to_bits());
            h = fnv_mix(h, est.max.to_bits());
        }
        for n_hat in self.states.iter().filter_map(|(_, _, n_hat)| *n_hat) {
            h = fnv_mix(h, n_hat.to_bits());
        }
        h
    }
}

/// What one faulted instance left behind.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Every peer's final state.
    pub peers: Peers,
    /// Mass defects of the instance ([`AUDIT_WEIGHT`], [`AUDIT_FRACTION`]).
    pub auditor: MassAuditor,
    /// Self-heal epoch restarts (always 0 on the event engine).
    pub healed: u64,
    /// Contributions the robust plausibility screen rejected.
    pub robust_rejects: u64,
    /// Components the robust merge trimmed or capped.
    pub robust_trims: u64,
}

/// A counter of the telemetry attached to `engine` (0 when absent).
pub fn telemetry_counter(engine: &Engine<Adam2Protocol>, name: &str) -> u64 {
    engine
        .telemetry()
        .and_then(|t| t.telemetry().metrics.counters().find(|(n, _)| *n == name))
        .map_or(0, |(_, v)| v)
}

/// Runs one instance on the cycle engine under `scenario` for `rounds`
/// rounds, auditing mass every round ([`run_instance_audited`]). Attaches
/// telemetry first; it is observation-only and supplies the robust counts.
pub fn run_cycle_scenario(
    engine: &mut Engine<Adam2Protocol>,
    scenario: Option<&FaultScenario>,
    rounds: u64,
) -> ScenarioRun {
    engine.attach_telemetry(SimTelemetry::new());
    let adversary = scenario.and_then(adversary_of);
    if let Some(sc) = scenario {
        engine
            .set_fault_scenario(sc.clone())
            .expect("valid fault scenario");
    }
    let initiator = honest_initiator(engine.nodes(), adversary.as_ref());
    let meta = engine
        .with_ctx(|proto, ctx| proto.start_instance(initiator, ctx))
        .expect("instance start");
    let auditor = run_instance_audited(engine, &meta, rounds);
    ScenarioRun {
        peers: Peers::collect(engine.nodes(), adversary),
        auditor,
        healed: engine.protocol().healed_count(),
        robust_rejects: telemetry_counter(engine, "robust_rejects"),
        robust_trims: telemetry_counter(engine, "robust_trims"),
    }
}

/// Runs one instance of `lambda` uniform points on the event engine
/// (period `PERIOD`, `Uniform{5, 40}` latency, `threads` workers) under
/// `scenario` until `rounds` periods have passed, auditing mass at the
/// last `EVENT_AUDIT_BOUNDARIES` period boundaries before the deadline.
/// Cutting the run into calls does not change it.
pub fn run_event_scenario(
    s: &ExperimentSetup,
    lambda: usize,
    seed: u64,
    robust: Option<RobustPolicy>,
    scenario: Option<&FaultScenario>,
    threads: usize,
    rounds: u64,
) -> ScenarioRun {
    let mut engine = adam2_event_engine_with(s, PERIOD, robust, seed, |c| {
        c.with_latency(LatencyModel::Uniform { min: 5, max: 40 })
            .with_threads(threads)
    });
    let adversary = scenario.and_then(adversary_of);
    if let Some(sc) = scenario {
        engine
            .set_fault_scenario(sc.clone())
            .expect("valid fault scenario");
    }
    let meta = event_instance(&s.truth, lambda, ROUNDS);
    let initiator = honest_initiator(engine.nodes(), adversary.as_ref());
    engine.with_ctx(|proto, ctx| proto.start_instance(initiator, meta.clone(), ctx));

    let mut auditor = MassAuditor::new();
    auditor.observe(AUDIT_WEIGHT, 0.0);
    auditor.observe(AUDIT_FRACTION, 0.0);
    for k in (ROUNDS - EVENT_AUDIT_BOUNDARIES)..ROUNDS {
        engine.run_until_parallel(k * PERIOD);
        let defect = mass_defect(engine.nodes(), &meta);
        auditor.observe(AUDIT_WEIGHT, defect.weight);
        auditor.observe(AUDIT_FRACTION, defect.fraction);
    }
    engine.run_until_parallel(PERIOD * rounds);
    ScenarioRun {
        peers: Peers::collect(engine.nodes(), adversary),
        auditor,
        healed: 0,
        robust_rejects: engine.protocol().robust_rejects(),
        robust_trims: engine.protocol().robust_trims(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{adam2_engine_with, setup};
    use adam2_core::Adam2Config;
    use adam2_traces::Attribute;

    fn half_byzantine(seed: u64) -> ActiveAdversary {
        adversary_of(&adversary_scenario(seed, 0.5, ADVERSARIES[0])).expect("adversary window")
    }

    #[test]
    fn honest_initiator_is_the_lowest_honest_slot() {
        let mut nodes = NodeSlab::with_capacity(64);
        for _ in 0..64 {
            nodes.insert(());
        }
        assert_eq!(honest_initiator(&nodes, None).slot(), 0);
        // A seed whose adversary owns slot 0, so the choice must skip it.
        let adv = (0..)
            .map(half_byzantine)
            .find(|adv| adv.is_byzantine(0))
            .expect("some seed makes slot 0 Byzantine");
        let slot = honest_initiator(&nodes, Some(&adv)).slot();
        assert!(slot > 0 && !adv.is_byzantine(slot));
        assert!((0..slot).all(|lower| adv.is_byzantine(lower)));
    }

    #[test]
    fn honest_scoring_ignores_byzantine_peers_but_the_fingerprint_does_not() {
        let s = setup(Attribute::Ram, 200, 3);
        let config = Adam2Config::new()
            .with_lambda(10)
            .with_rounds_per_instance(ROUNDS);
        let mut engine = adam2_engine_with(&s, config, 3, |c| c);
        let clean = run_cycle_scenario(&mut engine, None, ROUNDS + 1).peers;
        let adv = half_byzantine(3);
        let peers = Peers {
            adversary: Some(adv),
            ..clean.clone()
        };
        let score = |p: &Peers| p.score(&s.truth, 50, 3);
        assert!(peers.byzantine() > 0);
        assert_eq!(clean.byzantine(), 0);
        assert!(score(&peers).peers_with_estimate < score(&clean).peers_with_estimate);

        let byz = peers
            .states
            .iter()
            .position(|(slot, est, _)| adv.is_byzantine(*slot) && est.is_some())
            .expect("a Byzantine peer with an estimate");
        let mut lied = peers.clone();
        let est = lied.states[byz].1.as_mut().expect("estimate");
        est.fractions[0] += 0.5;
        assert_eq!(
            score(&lied),
            score(&peers),
            "a Byzantine estimate is not scored"
        );
        assert_eq!(lied.n_hat_rel_err(200), peers.n_hat_rel_err(200));
        assert_ne!(lied.fingerprint(), peers.fingerprint());

        let mut inflated = peers.clone();
        let n_hat = inflated.states[byz].2.as_mut().expect("n_hat");
        *n_hat *= 8.0;
        assert_eq!(inflated.n_hat_rel_err(200), peers.n_hat_rel_err(200));
        assert_ne!(inflated.fingerprint(), peers.fingerprint());
    }

    #[test]
    fn runners_are_thread_count_invariant_under_faults() {
        let s = setup(Attribute::Ram, 300, 5);
        let scenario = fault_scenario("burst20_partition10", 5)
            .expect("faulted")
            .with_adversary(0, ROUNDS + 3, 0.1, ADVERSARIES[0]);
        let config = Adam2Config::new()
            .with_lambda(10)
            .with_rounds_per_instance(ROUNDS)
            .with_robust(robust_policy());
        let cycle = |threads| {
            let mut engine = adam2_engine_with(&s, config, 5, |c| c.with_threads(threads));
            run_cycle_scenario(&mut engine, Some(&scenario), ROUNDS + 3)
        };
        let event = |threads| {
            run_event_scenario(
                &s,
                10,
                5,
                Some(robust_policy()),
                Some(&scenario),
                threads,
                ROUNDS + 3,
            )
        };
        for (one, two) in [(cycle(1), cycle(2)), (event(1), event(2))] {
            assert_eq!(one.peers.fingerprint(), two.peers.fingerprint());
            assert!(one.peers.byzantine() > 0);
            assert!(one.robust_rejects > 0, "the screen saw the poison");
            assert_eq!(
                (one.robust_rejects, one.robust_trims),
                (two.robust_rejects, two.robust_trims)
            );
        }
    }
}
