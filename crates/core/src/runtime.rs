//! Wire-level exchange adaptor around [`Adam2Node`] for real deployments.
//!
//! The simulator performs a push–pull exchange atomically: it holds both
//! nodes and calls [`gossip_exchange`](crate::gossip_exchange), which
//! replaces every averaged component with the pair mean on both sides at
//! once. A deployed node cannot do that — the initiator and responder run
//! on different threads (or hosts) and each only ever holds its *own* lock.
//! Between the initiator snapshotting its state into a request and the
//! response coming back, other exchanges may have touched either side.
//!
//! This module factors the symmetric exchange into three single-node steps
//! that conserve global mass even when exchanges interleave:
//!
//! 1. [`snapshot_for_round`] — the initiator serialises its non-due
//!    instances into a [`GossipMessage`] request.
//! 2. [`serve_exchange`] — the responder, holding only its own lock, joins
//!    unknown instances, reconciles epochs, records its **pre-merge** state
//!    into the response, and then sets itself to the pair mean. Its net
//!    state change is `(remote − own_pre) / 2` per averaged component.
//! 3. [`absorb_exchange_response`] — the initiator applies the *delta form*
//!    of the merge against its request-time baseline: for every instance it
//!    announced, `own += (responder_pre − own_sent) / 2`. The two deltas of
//!    one exchange cancel exactly, so the global sum of every averaged
//!    component (weight mass in particular) is invariant no matter how
//!    exchanges from different initiators interleave — the same property
//!    the atomic simulator merge guarantees.
//!
//! The delta form is exact: if nothing interleaves, `own == own_sent` when
//! the response arrives and the result is bit-for-bit the pair mean (up to
//! the one extra float rounding of `x + (y − x)/2` vs `(x + y)/2`).
//!
//! Retransmissions are safe because [`serve_exchange`] is meant to be
//! called once per sequence number: the deploy runtime caches the encoded
//! response keyed by [`GossipMessage::seq`] and replays it verbatim for a
//! duplicate request, mirroring the simulator's exchange-repair dedup.

use crate::instance::{InstanceId, InstanceLocal};
use crate::protocol::Adam2Node;
use crate::wire::{GossipMessage, InstancePayload};

/// What [`serve_exchange`] / [`absorb_exchange_response`] did per instance
/// payload, for the runtime's frame counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeOutcome {
    /// Instances this node joined for the first time (weight 0).
    pub joined: usize,
    /// Instances averaged (serve) or delta-applied (absorb).
    pub averaged: usize,
    /// Payloads skipped: due, stale epoch, late join, or no usable
    /// request-time baseline.
    pub skipped: usize,
}

/// Initiator-side bookkeeping for one in-flight wire exchange.
///
/// The deploy reactor walks each exchange through snapshot, send, maybe
/// retry, absorb, interleaving many exchanges and revisiting each one on
/// timer/readiness events. `PendingExchange` owns the pieces it needs
/// between those steps: the request-time baseline (`sent`), the round the
/// snapshot was taken for, and the bounded attempt budget.
#[derive(Debug, Clone)]
pub struct PendingExchange {
    /// The request as sent — the baseline [`absorb_exchange_response`]
    /// takes deltas against.
    pub sent: GossipMessage,
    /// Gossip round the snapshot was taken for.
    pub round: u64,
    attempts_used: u32,
    max_attempts: u32,
}

impl PendingExchange {
    /// Snapshots `node` for `round` into a request tagged `seq`, with
    /// `1 + retries` total delivery attempts allowed.
    pub fn begin(node: &Adam2Node, round: u64, seq: u64, retries: u32) -> Self {
        Self {
            sent: snapshot_for_round(node, round, seq),
            round,
            attempts_used: 0,
            max_attempts: retries.saturating_add(1),
        }
    }

    /// The repair-path sequence number carried by the request.
    pub fn seq(&self) -> u64 {
        self.sent.seq
    }

    /// Consumes one delivery attempt, returning its zero-based index, or
    /// `None` once the budget is exhausted (the exchange aborts).
    pub fn next_attempt(&mut self) -> Option<u32> {
        if self.attempts_used >= self.max_attempts {
            return None;
        }
        let attempt = self.attempts_used;
        self.attempts_used += 1;
        Some(attempt)
    }

    /// Attempts consumed so far.
    pub fn attempts_used(&self) -> u32 {
        self.attempts_used
    }

    /// Folds the responder's reply into `node` against this exchange's
    /// baseline (see [`absorb_exchange_response`]).
    pub fn absorb(&self, node: &mut Adam2Node, response: &GossipMessage) -> ExchangeOutcome {
        absorb_exchange_response(node, &self.sent, response, self.round)
    }
}

/// First round at which the instance described by `payload` may finalise
/// (epoch-aware, mirroring [`InstanceLocal::due_round`]).
fn payload_due_round(payload: &InstancePayload) -> u64 {
    let duration = payload.end_round.saturating_sub(payload.start_round);
    payload.end_round + u64::from(payload.epoch) * duration
}

/// Serialises the node's running (non-due) instance state into the request
/// of one push–pull exchange, tagged with the repair-path sequence number.
pub fn snapshot_for_round(node: &Adam2Node, round: u64, seq: u64) -> GossipMessage {
    let mut msg =
        GossipMessage::from_locals(node.active_instances().iter().filter(|i| !i.is_due(round)));
    msg.seq = seq;
    msg
}

/// Responder side of one wire exchange: processes `request` against this
/// node only, returning the response to send back.
///
/// For every announced instance the responder joins if unknown (late
/// joiners excluded, as in the simulator), reconciles self-healing epochs
/// (highest wins), records its own pre-merge state into the response, and
/// then moves to the pair mean. Instances the responder runs that the
/// request did not announce are appended to the response so the initiator
/// can join them. The response echoes `request.seq` for the dedup path.
pub fn serve_exchange(
    node: &mut Adam2Node,
    request: &GossipMessage,
    round: u64,
) -> (GossipMessage, ExchangeOutcome) {
    let mut response = GossipMessage {
        seq: request.seq,
        instances: Vec::with_capacity(request.instances.len()),
    };
    let mut outcome = ExchangeOutcome::default();
    let mut announced: Vec<u64> = Vec::with_capacity(request.instances.len());
    for payload in &request.instances {
        announced.push(payload.id);
        if round >= payload_due_round(payload) {
            outcome.skipped += 1;
            continue;
        }
        let id = InstanceId::from_u64(payload.id);
        let idx = match node.find_index(id) {
            Some(idx) => idx,
            None => {
                if node.joined_round > payload.start_round {
                    outcome.skipped += 1;
                    continue;
                }
                let meta = payload.meta();
                node.instances
                    .push(InstanceLocal::join(meta, &node.value, false));
                outcome.joined += 1;
                node.instances.len() - 1
            }
        };
        if payload.epoch < node.instances[idx].epoch {
            // Stale epoch: superseded by our restart. Don't average, but do
            // respond with our state so the initiator adopts the new epoch.
            response
                .instances
                .push(InstancePayload::from(&node.instances[idx]));
            outcome.skipped += 1;
            continue;
        }
        if payload.epoch > node.instances[idx].epoch {
            node.instances[idx].adopt_epoch(payload.epoch, &node.value);
        }
        // Pre-merge snapshot goes on the wire; then move to the pair mean.
        response
            .instances
            .push(InstancePayload::from(&node.instances[idx]));
        let mut remote = payload.to_local();
        InstanceLocal::merge_symmetric(&mut node.instances[idx], &mut remote);
        outcome.averaged += 1;
    }
    // Instances only this node runs: announce them so the initiator joins.
    for inst in node.instances.iter().filter(|i| !i.is_due(round)) {
        if !announced.contains(&inst.meta.id.as_u64()) {
            response.instances.push(InstancePayload::from(inst));
        }
    }
    (response, outcome)
}

/// Initiator side of one wire exchange: folds the responder's pre-merge
/// state in `response` into this node, using `sent` (the request built by
/// [`snapshot_for_round`]) as the request-time baseline.
///
/// Announced instances receive the mass-conserving delta
/// `own += (responder_pre − own_sent) / 2`; response-only instances are
/// joined with weight 0 (the join itself is the exchange's contribution —
/// averaging happens on the next round); epoch mismatches adopt the newer
/// epoch or skip stale data, exactly as the simulator's reconciliation.
pub fn absorb_exchange_response(
    node: &mut Adam2Node,
    sent: &GossipMessage,
    response: &GossipMessage,
    round: u64,
) -> ExchangeOutcome {
    let mut outcome = ExchangeOutcome::default();
    for payload in &response.instances {
        if round >= payload_due_round(payload) {
            outcome.skipped += 1;
            continue;
        }
        let id = InstanceId::from_u64(payload.id);
        let idx = match node.find_index(id) {
            Some(idx) => idx,
            None => {
                // Response-only instance (or one we finalised meanwhile):
                // join if eligible; no delta to apply.
                if node.joined_round > payload.start_round {
                    outcome.skipped += 1;
                } else {
                    let meta = payload.meta();
                    node.instances
                        .push(InstanceLocal::join(meta, &node.value, false));
                    outcome.joined += 1;
                }
                continue;
            }
        };
        if payload.epoch > node.instances[idx].epoch {
            // The responder ran a newer epoch and did not average our data;
            // re-enter the run from our own value (no delta).
            node.instances[idx].adopt_epoch(payload.epoch, &node.value);
            outcome.skipped += 1;
            continue;
        }
        if payload.epoch < node.instances[idx].epoch {
            outcome.skipped += 1;
            continue;
        }
        let local = &mut node.instances[idx];
        let baseline = sent
            .instances
            .iter()
            .find(|p| p.id == payload.id && p.epoch == payload.epoch);
        let Some(baseline) = baseline else {
            // We did not announce this instance at this epoch (we joined it
            // or adopted the epoch after snapshotting), so there is no
            // baseline to take a delta against. The extrema merge is still
            // idempotent and safe; averaging waits for the next exchange.
            local.min = local.min.min(payload.min);
            local.max = local.max.max(payload.max);
            outcome.skipped += 1;
            continue;
        };
        if payload.fractions.len() != local.fractions.len()
            || baseline.fractions.len() != local.fractions.len()
            || payload.verify_fractions.len() != local.verify_fractions.len()
            || baseline.verify_fractions.len() != local.verify_fractions.len()
        {
            outcome.skipped += 1;
            continue;
        }
        for ((f, resp), base) in local
            .fractions
            .iter_mut()
            .zip(&payload.fractions)
            .zip(&baseline.fractions)
        {
            *f += (resp - base) / 2.0;
        }
        for ((f, resp), base) in local
            .verify_fractions
            .iter_mut()
            .zip(&payload.verify_fractions)
            .zip(&baseline.verify_fractions)
        {
            *f += (resp - base) / 2.0;
        }
        local.count += (payload.count - baseline.count) / 2.0;
        local.weight += (payload.weight - baseline.weight) / 2.0;
        local.min = local.min.min(payload.min);
        local.max = local.max.max(payload.max);
        outcome.averaged += 1;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::gossip_exchange;
    use crate::instance::{AttrValue, InstanceMeta};

    fn meta(id: u64, start: u64, end: u64) -> Arc<InstanceMeta> {
        Arc::new(InstanceMeta {
            id: InstanceId::from_u64(id),
            thresholds: vec![10.0, 20.0, 30.0].into(),
            verify_thresholds: vec![15.0, 25.0].into(),
            start_round: start,
            end_round: end,
            multi: false,
        })
    }

    fn roundtrip(msg: &GossipMessage) -> GossipMessage {
        GossipMessage::decode(msg.encode()).expect("roundtrip")
    }

    /// One full wire exchange: request, serve, absorb (through the actual
    /// byte encoding both ways).
    fn wire_exchange(a: &mut Adam2Node, b: &mut Adam2Node, round: u64, seq: u64) {
        let sent = snapshot_for_round(a, round, seq);
        let (response, _) = serve_exchange(b, &roundtrip(&sent), round);
        absorb_exchange_response(a, &sent, &roundtrip(&response), round);
    }

    fn assert_instances_close(x: &InstanceLocal, y: &InstanceLocal, tol: f64) {
        assert_eq!(x.meta.id, y.meta.id);
        assert_eq!(x.epoch, y.epoch);
        for (fx, fy) in x.fractions.iter().zip(&y.fractions) {
            assert!((fx - fy).abs() <= tol, "fractions {fx} vs {fy}");
        }
        for (fx, fy) in x.verify_fractions.iter().zip(&y.verify_fractions) {
            assert!((fx - fy).abs() <= tol, "verify {fx} vs {fy}");
        }
        assert!(
            (x.weight - y.weight).abs() <= tol,
            "{} vs {}",
            x.weight,
            y.weight
        );
        assert!((x.count - y.count).abs() <= tol);
        assert_eq!(x.min, y.min);
        assert_eq!(x.max, y.max);
    }

    fn total_weight(nodes: &[&Adam2Node], id: InstanceId) -> f64 {
        nodes
            .iter()
            .filter_map(|n| n.active_instance(id))
            .map(|i| i.weight)
            .sum()
    }

    #[test]
    fn wire_exchange_matches_the_atomic_simulator_merge() {
        let m = meta(42, 0, 30);
        let mut a = Adam2Node::new(AttrValue::Single(12.0), 1.0);
        let mut b = Adam2Node::new(AttrValue::Single(27.0), 1.0);
        a.begin_instance(m.clone());
        // b learns the instance from the wire — it has no local state yet.
        let (mut a_sim, mut b_sim) = (a.clone(), b.clone());
        gossip_exchange(&mut a_sim, &mut b_sim, 1);
        wire_exchange(&mut a, &mut b, 1, 7);
        let id = m.id;
        assert_instances_close(
            a.active_instance(id).unwrap(),
            a_sim.active_instance(id).unwrap(),
            1e-12,
        );
        assert_instances_close(
            b.active_instance(id).unwrap(),
            b_sim.active_instance(id).unwrap(),
            1e-12,
        );
        // A second exchange in the opposite direction also agrees.
        let (mut b_sim2, mut a_sim2) = (b.clone(), a.clone());
        gossip_exchange(&mut b_sim2, &mut a_sim2, 2);
        wire_exchange(&mut b, &mut a, 2, 8);
        assert_instances_close(
            a.active_instance(id).unwrap(),
            a_sim2.active_instance(id).unwrap(),
            1e-12,
        );
    }

    #[test]
    fn interleaved_exchanges_conserve_weight_mass() {
        // a initiates toward b, but before the response is absorbed, c's
        // exchange lands on a and changes its state. The delta form must
        // still keep the global weight mass at exactly 1.
        let m = meta(7, 0, 30);
        let mut a = Adam2Node::new(AttrValue::Single(12.0), 1.0);
        let mut b = Adam2Node::new(AttrValue::Single(22.0), 1.0);
        let mut c = Adam2Node::new(AttrValue::Single(32.0), 1.0);
        a.begin_instance(m.clone());
        b.join_instance_passively(m.clone());
        c.join_instance_passively(m.clone());

        let sent = snapshot_for_round(&a, 1, 1);
        let (response, _) = serve_exchange(&mut b, &roundtrip(&sent), 1);
        // Interleaving: c completes a full exchange against a first.
        wire_exchange(&mut c, &mut a, 1, 2);
        // Now the stale response from b arrives.
        absorb_exchange_response(&mut a, &sent, &roundtrip(&response), 1);

        let mass = total_weight(&[&a, &b, &c], m.id);
        assert!((mass - 1.0).abs() < 1e-12, "weight mass drifted: {mass}");
        let f_sum: f64 = [&a, &b, &c]
            .iter()
            .map(|n| n.active_instance(m.id).unwrap().fractions[0])
            .sum();
        // The first-threshold fraction mass must equal the sum of the three
        // initial indicator contributions exactly — averaging only ever
        // redistributes it.
        let expected: f64 = [12.0_f64, 22.0, 32.0]
            .iter()
            .map(|v| AttrValue::Single(*v).indicator(10.0))
            .sum();
        assert!(
            (f_sum - expected).abs() < 1e-12,
            "fraction mass drifted: {f_sum} vs {expected}"
        );
    }

    #[test]
    fn response_only_instances_are_joined_without_delta() {
        // b runs an instance a has never heard of; a's (empty) request
        // still comes back with it and a joins at weight 0.
        let m = meta(9, 0, 30);
        let mut a = Adam2Node::new(AttrValue::Single(12.0), 1.0);
        let mut b = Adam2Node::new(AttrValue::Single(22.0), 1.0);
        b.begin_instance(m.clone());
        wire_exchange(&mut a, &mut b, 1, 3);
        let joined = a.active_instance(m.id).expect("joined from response");
        assert_eq!(joined.weight, 0.0, "join contributes no weight mass");
        assert_eq!(joined.fractions[0], AttrValue::Single(12.0).indicator(10.0));
        let mass = total_weight(&[&a, &b], m.id);
        assert!((mass - 1.0).abs() < 1e-12, "mass after join: {mass}");
    }

    #[test]
    fn late_joiners_stay_out_of_running_instances() {
        let m = meta(5, 3, 33);
        let mut a = Adam2Node::new(AttrValue::Single(12.0), 1.0);
        let mut b = Adam2Node::new(AttrValue::Single(22.0), 1.0);
        a.begin_instance(m.clone());
        b.joined_round = 10; // joined the system after the instance started
        wire_exchange(&mut a, &mut b, 11, 4);
        assert!(
            b.active_instance(m.id).is_none(),
            "late joiner must not join"
        );
        // a's weight is untouched: the responder had nothing to average.
        assert_eq!(a.active_instance(m.id).unwrap().weight, 1.0);
    }

    #[test]
    fn epoch_reconciliation_over_the_wire() {
        // b restarted the instance (epoch 1); a still runs epoch 0. An
        // exchange a → b must not average across epochs: b responds with
        // its epoch-1 state and a re-enters from its own value.
        let m = meta(11, 0, 30);
        let mut a = Adam2Node::new(AttrValue::Single(12.0), 1.0);
        let mut b = Adam2Node::new(AttrValue::Single(22.0), 1.0);
        a.begin_instance(m.clone());
        b.join_instance_passively(m.clone());
        wire_exchange(&mut a, &mut b, 1, 5); // spread some mass first
        let ib = b.find_index(m.id).unwrap();
        let own_value = b.value.clone();
        b.instances[ib].restart(&own_value);

        let sent = snapshot_for_round(&a, 2, 6);
        let (response, outcome) = serve_exchange(&mut b, &roundtrip(&sent), 2);
        assert_eq!(outcome.averaged, 0, "stale epoch must not be averaged");
        let b_weight_before = b.active_instance(m.id).unwrap().weight;
        absorb_exchange_response(&mut a, &sent, &roundtrip(&response), 2);
        let a_inst = a.active_instance(m.id).unwrap();
        assert_eq!(a_inst.epoch, 1, "initiator adopts the newer epoch");
        assert_eq!(a_inst.weight, 1.0, "initiator re-contributes weight 1");
        assert_eq!(
            b.active_instance(m.id).unwrap().weight,
            b_weight_before,
            "responder state untouched by the stale request"
        );
    }

    #[test]
    fn due_instances_are_not_announced_or_served() {
        let m = meta(13, 0, 10);
        let mut a = Adam2Node::new(AttrValue::Single(12.0), 1.0);
        a.begin_instance(m.clone());
        let sent = snapshot_for_round(&a, 10, 9);
        assert!(sent.instances.is_empty(), "due instances stay local");
        let mut b = Adam2Node::new(AttrValue::Single(22.0), 1.0);
        let stale = snapshot_for_round(&a, 9, 9);
        let (_, outcome) = serve_exchange(&mut b, &roundtrip(&stale), 10);
        assert_eq!(outcome.joined, 0, "responder refuses due instances");
        assert!(b.active_instance(m.id).is_none());
    }
}
