//! What the workloads read off the peers when an instance is over: the
//! weight mass, the result fingerprint and the Err_a score. Both
//! simulators keep their peers in a `NodeSlab<Adam2Node>`; the deploy
//! cluster hands back estimates it collected over sockets.

use adam2_bench::{evaluate_peer_estimates, PeerEstimate};
use adam2_core::{Adam2Node, InstanceId, StepCdf};
use adam2_sim::NodeSlab;

use crate::measure::{mix, FNV_BASIS};
use crate::outcome::Outcome;
use crate::spec::{ERR_A_LIMIT, SAMPLE_PEERS};

/// Σ weight over the instance's participants, minus the 1 its initiator
/// contributed.
pub fn weight_defect(nodes: &NodeSlab<Adam2Node>, instance: InstanceId) -> f64 {
    let weight: f64 = nodes
        .iter()
        .filter_map(|(_, node)| node.active_instance(instance))
        .map(|inst| inst.weight)
        .sum();
    weight - 1.0
}

/// FNV over every peer's estimate and `n_hat`, then the engine's `totals`
/// (messages, bytes, deliveries).
pub fn fingerprint(nodes: &NodeSlab<Adam2Node>, totals: &[u64]) -> u64 {
    let mut h = FNV_BASIS;
    for (_, node) in nodes.iter() {
        let Some(est) = node.estimate() else { continue };
        for f in &est.fractions {
            h = mix(h, f.to_bits());
        }
        if let Some(n) = est.n_hat {
            h = mix(h, n.to_bits());
        }
    }
    totals.iter().fold(h, |h, total| mix(h, *total))
}

/// The latest estimate of each given peer, `None` where it has none.
pub fn estimates_of<'a>(nodes: impl Iterator<Item = &'a Adam2Node>) -> Vec<Option<PeerEstimate>> {
    nodes
        .map(|node| {
            node.estimate().map(|est| PeerEstimate {
                instance: est.instance.as_u64(),
                thresholds: est.thresholds.clone(),
                fractions: est.fractions.clone(),
                min: est.min,
                max: est.max,
            })
        })
        .collect()
}

/// Scores `peers` against `truth`: every peer is an operation, one without
/// an estimate a failed one.
pub fn score(peers: &[Option<PeerEstimate>], truth: &StepCdf, seed: u64, out: &mut Outcome) {
    let report = evaluate_peer_estimates(peers, truth, SAMPLE_PEERS, seed);
    out.err_a = report.avg_cdf;
    out.attempted = peers.len() as u64;
    out.failed = report.peers_without_estimate as u64;
}

/// The simulators' convergence check on the scored Err_a.
pub fn check_err_a(out: &mut Outcome) {
    out.check(
        "err_a_bounded",
        out.err_a <= ERR_A_LIMIT,
        format!("{:.3e} (limit {ERR_A_LIMIT})", out.err_a),
    );
}
