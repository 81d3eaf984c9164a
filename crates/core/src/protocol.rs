//! The Adam2 gossip protocol (Section IV), as an [`adam2_sim::Protocol`].
//!
//! Per round, every node:
//!
//! 1. finalises any aggregation instance whose TTL expired, producing a new
//!    [`DistributionEstimate`];
//! 2. (probabilistic scheduling only) starts a new instance with
//!    probability `1 / (N̂ · R)`;
//! 3. initiates one symmetric push–pull exchange with a random neighbour,
//!    carrying its state for every running instance. A peer that sees an
//!    instance id for the first time *joins*: it initialises its indicator
//!    contributions and weight 0, then the exchange averages both sides —
//!    conserving the total mass exactly (see DESIGN.md on why the
//!    mass-conserving reading of the paper's join rule is the right one).
//!
//! Steps 1 and 2 are the protocol's [`Protocol::local`] and
//! [`Protocol::absorb`], step 3 its [`Protocol::apply`]: every node is
//! through 1 and 2 before the round's first exchange.
//!
//! Nodes that joined the *system* after an instance started ignore that
//! instance (Section VII-G), so late arrivals do not distort a running
//! average; they bootstrap their estimate and system-size guess from a
//! neighbour instead.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngExt as _;

use adam2_sim::{
    prefetch, AdversaryModel, Ctx, DriftOp, ExchangeFate, ExchangeTraffic, LocalReport, NodeId,
    PlannedAttack, PlannedExchange, PrefetchStage, Protocol,
};

use crate::confidence::verification_thresholds;
use crate::config::{Adam2Config, RobustPolicy, Scheduling, SelfHealPolicy};
use crate::estimate::DistributionEstimate;
use crate::instance::{AttrValue, InstanceId, InstanceLocal, InstanceMeta};
use crate::selection::{select_thresholds, SelectionInput};
use crate::wire;

/// Per-node state of the Adam2 protocol.
#[derive(Debug, Clone)]
pub struct Adam2Node {
    pub(crate) value: AttrValue,
    pub(crate) instances: Vec<InstanceLocal>,
    pub(crate) estimate: Option<DistributionEstimate>,
    pub(crate) n_estimate: f64,
    pub(crate) joined_round: u64,
}

impl Adam2Node {
    /// Creates a node with the given attribute value(s).
    pub fn new(value: AttrValue, initial_n_estimate: f64) -> Self {
        Self {
            value,
            instances: Vec::new(),
            estimate: None,
            n_estimate: initial_n_estimate,
            joined_round: 0,
        }
    }

    /// The node's attribute value(s).
    pub fn value(&self) -> &AttrValue {
        &self.value
    }

    /// Replaces the node's attribute value (dynamic attributes,
    /// Section VII-F: the new value takes effect the next time the node
    /// creates or joins an instance).
    pub fn set_value(&mut self, value: AttrValue) {
        self.value = value;
    }

    /// Shifts the node's attribute value(s) by `delta` (drift injection;
    /// running instances keep the indicator contributions they enrolled
    /// with, so their estimates go stale — by design).
    pub fn shift_value(&mut self, delta: f64) {
        match &mut self.value {
            AttrValue::Single(v) => *v += delta,
            AttrValue::Multi(vs) => {
                for v in vs {
                    *v += delta;
                }
            }
        }
    }

    /// The node's latest completed distribution estimate.
    pub fn estimate(&self) -> Option<&DistributionEstimate> {
        self.estimate.as_ref()
    }

    /// The node's current system-size estimate `N̂`.
    pub fn n_estimate(&self) -> f64 {
        self.n_estimate
    }

    /// The round in which this node joined the system (0 for the initial
    /// population).
    pub fn joined_round(&self) -> u64 {
        self.joined_round
    }

    /// The aggregation instances this node currently participates in.
    pub fn active_instances(&self) -> &[InstanceLocal] {
        &self.instances
    }

    /// This node's state for a specific running instance.
    pub fn active_instance(&self, id: InstanceId) -> Option<&InstanceLocal> {
        self.instances.iter().find(|i| i.meta.id == id)
    }

    /// Enrols this node in an aggregation instance as its *initiator*
    /// (weight 1). The usual entry point is
    /// [`Adam2Protocol::start_instance`], which also selects the
    /// thresholds; this method is for custom drivers that construct
    /// [`InstanceMeta`] themselves (and for tests).
    ///
    /// Does nothing if the node already participates in the instance.
    pub fn begin_instance(&mut self, meta: Arc<InstanceMeta>) {
        if self.find_index(meta.id).is_none() {
            self.instances
                .push(InstanceLocal::join(meta, &self.value, true));
        }
    }

    /// Finalises every instance whose TTL expired at `round`, adopting the
    /// newest resulting estimate and system-size value. Returns
    /// `(successful, failed)` finalisation counts.
    pub fn finalize_due_instances(&mut self, round: u64) -> (u64, u64) {
        let (completed, failed, _) = self.finalize_or_heal(round, None);
        (completed, failed)
    }

    /// Epoch-aware finalisation with optional self-healing: a due instance
    /// whose tentative estimate self-assesses `EstErr_a` above the policy
    /// threshold *restarts* (epoch bump, state reset from this node's own
    /// value) instead of finalising, as long as its epoch is still below
    /// `max_restarts`; the bumped epoch then spreads epidemically through
    /// the regular exchanges. Returns `(completed, failed, restarted)`.
    pub fn finalize_or_heal(
        &mut self,
        round: u64,
        heal: Option<SelfHealPolicy>,
    ) -> (u64, u64, u64) {
        let mut completed = 0;
        let mut failed = 0;
        let mut restarted = 0;
        let mut i = 0;
        while i < self.instances.len() {
            if !self.instances[i].is_due(round) {
                i += 1;
                continue;
            }
            let result = self.instances[i].finalize(round);
            if let Some(policy) = heal {
                let vote_restart = self.instances[i].epoch < policy.max_restarts
                    && result
                        .as_ref()
                        .ok()
                        .and_then(|est| est.est_err_avg)
                        .is_some_and(|err| err > policy.err_threshold);
                if vote_restart {
                    self.instances[i].restart(&self.value);
                    restarted += 1;
                    i += 1;
                    continue;
                }
            }
            self.instances.swap_remove(i);
            match result {
                Ok(est) => {
                    let newer = self
                        .estimate
                        .as_ref()
                        .is_none_or(|old| est.completed_round >= old.completed_round);
                    if newer {
                        if let Some(n) = est.n_hat {
                            self.n_estimate = n;
                        }
                        self.estimate = Some(est);
                    }
                    completed += 1;
                }
                Err(_) => failed += 1,
            }
        }
        (completed, failed, restarted)
    }

    /// Joins an instance as a non-initiator (indicator contributions,
    /// weight 0) without merging anything, respecting the
    /// joined-after-start exclusion rule. For drivers and tests that enrol
    /// a node by hand.
    pub fn join_instance_passively(&mut self, meta: Arc<InstanceMeta>) {
        if self.joined_round > meta.start_round {
            return;
        }
        if self.find_index(meta.id).is_none() {
            self.instances
                .push(InstanceLocal::join(meta, &self.value, false));
        }
    }

    /// Responder step 1, *join*: enrols this node (indicator contributions,
    /// weight 0) in every announced instance that is neither due nor known,
    /// unless the node joined the system after the instance started. With a
    /// robust policy an implausible announcement is rejected and counted
    /// instead: a poisoned announcement buys no enrolment.
    ///
    /// A responder serves a request with this step, then
    /// [`merge_in_place`](Self::merge_in_place), then
    /// [`append_own`](Self::append_own); each driver runs the steps it
    /// needs, in that order.
    pub fn join_announced(
        &mut self,
        announced: &[InstanceLocal],
        round: u64,
        robust: Option<&RobustPolicy>,
        outcome: &mut ExchangeOutcome,
    ) {
        for entry in announced {
            if entry.is_due(round) || self.find_index(entry.meta.id).is_some() {
                continue;
            }
            if robust.is_some_and(|policy| !entry.contribution_plausible(policy.weight_cap)) {
                outcome.robust_rejects += 1;
            } else if self.joined_round <= entry.meta.start_round {
                self.instances
                    .push(InstanceLocal::join(entry.meta.clone(), &self.value, false));
                outcome.joined += 1;
            }
        }
    }

    /// Responder step 2, *merge in place*: averages this node with every
    /// entry and leaves in each entry this node's state from before the
    /// merge, turning a request into its response.
    ///
    /// Entries that are due or that this node does not run are dropped, as
    /// are entries whose fraction counts differ from this node's (outside
    /// input that a zipped merge would silently truncate). An implausible
    /// entry (robust mode; screened before epochs are reconciled) or a
    /// stale-epoch one moves nothing and is answered with this node's
    /// state. A newer epoch is adopted first. This node is always the first
    /// operand of [`merge_symmetric`](InstanceLocal::merge_symmetric)'s
    /// arithmetic: the vanilla case is
    /// [`merge_and_reply`](InstanceLocal::merge_and_reply), which allocates
    /// nothing; the robust merge needs both operands intact and answers
    /// with a copy.
    pub fn merge_in_place(
        &mut self,
        entries: &mut Vec<InstanceLocal>,
        round: u64,
        robust: Option<&RobustPolicy>,
        outcome: &mut ExchangeOutcome,
    ) {
        let Self {
            value, instances, ..
        } = self;
        entries.retain_mut(|entry| {
            let own = instances.iter_mut().find(|i| i.meta.id == entry.meta.id);
            let Some(own) = own.filter(|_| !entry.is_due(round)) else {
                outcome.skipped += 1;
                return false;
            };
            if entry.fractions.len() != own.fractions.len()
                || entry.verify_fractions.len() != own.verify_fractions.len()
            {
                outcome.skipped += 1;
                return false;
            }
            let rejected = robust.is_some_and(|p| !entry.contribution_plausible(p.weight_cap));
            if rejected || entry.epoch < own.epoch {
                outcome.robust_rejects += u32::from(rejected);
                outcome.skipped += usize::from(!rejected);
                entry.clone_from(own);
                return true;
            }
            if entry.epoch > own.epoch {
                own.adopt_epoch(entry.epoch, value);
            }
            outcome.averaged += 1;
            match robust {
                None => InstanceLocal::merge_and_reply(own, entry),
                Some(policy) => {
                    let saved = own.clone();
                    let merged = InstanceLocal::merge_symmetric_robust(own, entry, policy);
                    outcome.robust_rejects += u32::from(merged.rejected);
                    outcome.robust_trims += merged.limited;
                    *entry = saved;
                }
            }
            true
        });
    }

    /// Responder step 3, *append own*: appends this node's state for every
    /// running instance `entries` does not carry, so the initiator can join
    /// the instances only this node runs.
    pub fn append_own(&self, entries: &mut Vec<InstanceLocal>, round: u64) {
        for own in self.instances.iter().filter(|i| !i.is_due(round)) {
            if !entries.iter().any(|e| e.meta.id == own.meta.id) {
                entries.push(own.clone());
            }
        }
    }

    pub(crate) fn find_index(&self, id: InstanceId) -> Option<usize> {
        self.instances.iter().position(|i| i.meta.id == id)
    }
}

/// What the responder steps, or deploy's delta-form initiator, did with
/// the entries of one message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeOutcome {
    /// Instances this node joined for the first time (weight 0).
    pub joined: usize,
    /// Entries averaged (responder) or delta-applied (deploy initiator).
    pub averaged: usize,
    /// Entries skipped: due, not run here, of the wrong shape, of a stale
    /// epoch, or without a usable request-time baseline.
    pub skipped: usize,
    /// Entries rejected by the robust plausibility screen or merge.
    pub robust_rejects: u32,
    /// Components trimmed or influence-capped by the robust merge.
    pub robust_trims: u32,
}

/// Byte sizes and robust-mode accounting of one symmetric exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeReport {
    /// Wire size of the request.
    pub request_bytes: usize,
    /// Wire size of the response.
    pub response_bytes: usize,
    /// Instance merges rejected by the plausibility check (robust mode).
    pub robust_rejects: u32,
    /// Components whose influence was trimmed or capped (robust mode).
    pub robust_trims: u32,
}

/// Performs one symmetric push–pull exchange between two nodes at `round`,
/// covering all running instances: instance discovery (join), and
/// mass-conserving averaging.
///
/// Returns `(request_bytes, response_bytes)` as they would appear on the
/// wire ([`wire::message_len`]).
pub fn gossip_exchange(a: &mut Adam2Node, b: &mut Adam2Node, round: u64) -> (usize, usize) {
    let report = gossip_exchange_with(a, b, round, None);
    (report.request_bytes, report.response_bytes)
}

/// [`gossip_exchange`] with an optional robust aggregation policy: every
/// per-instance merge is plausibility-checked (implausible contributions
/// are rejected on both sides — the outlier-rejection hook) and performed
/// through the trimmed, influence-capped merge. With `None` the exchange
/// is the vanilla mass-conserving one.
pub fn gossip_exchange_with(
    a: &mut Adam2Node,
    b: &mut Adam2Node,
    round: u64,
    robust: Option<&RobustPolicy>,
) -> ExchangeReport {
    let mut report = ExchangeReport {
        request_bytes: wire::message_len(a.instances.iter().filter(|i| !i.is_due(round))),
        ..ExchangeReport::default()
    };

    // The receiver joins every instance it can: it learned the thresholds
    // from the request and enters with its indicator values and weight 0.
    // Robust mode refuses to even join an instance whose announced state
    // is implausible — a poisoned announcement buys no enrolment. The
    // screen's counts are the responder's; this report counts merges.
    let mut joins = ExchangeOutcome::default();
    b.join_announced(&a.instances, round, robust, &mut joins);
    // The response carries b's (possibly freshly initialised) state.
    report.response_bytes = wire::message_len(b.instances.iter().filter(|i| !i.is_due(round)));
    a.join_announced(&b.instances, round, robust, &mut joins);

    // Symmetric averaging of every instance both sides now share: first
    // those b announced, then those only a announced (b refused to join
    // the a-only ones it lacks, which stay untouched). Which instances a
    // side announced is read as the loops reach them, with no list kept:
    // ids are unique per node, a merge touches only its own pair, and
    // reconciling epochs only ever raises one, so an instance that was
    // running when announced still runs and one that was due and has not
    // been merged is still due.
    for ib in 0..b.instances.len() {
        if b.instances[ib].is_due(round) {
            continue;
        }
        let Some(ia) = a.find_index(b.instances[ib].meta.id) else {
            continue;
        };
        let (rejects, trims) = reconcile_and_merge(a, ia, b, ib, robust);
        report.robust_rejects += rejects;
        report.robust_trims += trims;
    }
    for ia in 0..a.instances.len() {
        if a.instances[ia].is_due(round) {
            continue;
        }
        let Some(ib) = b.find_index(a.instances[ia].meta.id) else {
            continue;
        };
        if !b.instances[ib].is_due(round) {
            continue; // b announced it too: merged above.
        }
        let (rejects, trims) = reconcile_and_merge(a, ia, b, ib, robust);
        report.robust_rejects += rejects;
        report.robust_trims += trims;
    }

    report
}

/// Reconciles the restart epochs of two peers' states for the same
/// instance (highest epoch wins; the lower side re-enters from its own
/// value), then performs the mass-conserving symmetric merge — robust
/// (plausibility-checked, trimmed, capped) when a policy is given.
/// Returns `(rejected, limited)` robust counts.
fn reconcile_and_merge(
    a: &mut Adam2Node,
    ia: usize,
    b: &mut Adam2Node,
    ib: usize,
    robust: Option<&RobustPolicy>,
) -> (u32, u32) {
    use std::cmp::Ordering;
    match a.instances[ia].epoch.cmp(&b.instances[ib].epoch) {
        Ordering::Less => {
            let epoch = b.instances[ib].epoch;
            a.instances[ia].adopt_epoch(epoch, &a.value);
        }
        Ordering::Greater => {
            let epoch = a.instances[ia].epoch;
            b.instances[ib].adopt_epoch(epoch, &b.value);
        }
        Ordering::Equal => {}
    }
    match robust {
        Some(policy) => {
            let outcome = InstanceLocal::merge_symmetric_robust(
                &mut a.instances[ia],
                &mut b.instances[ib],
                policy,
            );
            (u32::from(outcome.rejected), outcome.limited)
        }
        None => {
            InstanceLocal::merge_symmetric(&mut a.instances[ia], &mut b.instances[ib]);
            (0, 0)
        }
    }
}

/// The response length `b` would send after joining every instance in
/// `a`'s request, *without* mutating either node — the wire size of the
/// response of an exchange whose staged state is later rolled back
/// ([`ExchangeFate::Aborted`]).
fn response_len_after_join(a: &Adam2Node, b: &Adam2Node, round: u64) -> usize {
    let own = b.instances.iter().filter(|i| !i.is_due(round));
    let joined = a.instances.iter().filter(|i| {
        !i.is_due(round)
            && b.joined_round <= i.meta.start_round
            && b.find_index(i.meta.id).is_none()
    });
    wire::message_len(own.chain(joined))
}

/// The asymmetric half-exchange that results when the *response* of a
/// push–pull exchange is lost: `b` processes `a`'s request (joining and
/// averaging against a snapshot of `a`), but `a` never hears back and
/// keeps its state.
///
/// This variant does **not** conserve mass — exactly the perturbation a
/// lossy network inflicts on averaging — and exists to study Adam2 under
/// message loss (an extension beyond the paper, see the `exp_loss`
/// experiment).
///
/// Returns `(request_bytes, response_bytes)`; the response was sent (and
/// must be charged) even though it never arrived.
pub fn gossip_exchange_response_lost(
    a: &Adam2Node,
    b: &mut Adam2Node,
    round: u64,
) -> (usize, usize) {
    let report = gossip_exchange_response_lost_with(a, b, round, None);
    (report.request_bytes, report.response_bytes)
}

/// [`gossip_exchange_response_lost`] with an optional robust policy: `b`
/// serves a copy of `a`'s request through the responder's join and merge
/// steps, and the response it would have sent is charged, not delivered.
pub fn gossip_exchange_response_lost_with(
    a: &Adam2Node,
    b: &mut Adam2Node,
    round: u64,
    robust: Option<&RobustPolicy>,
) -> ExchangeReport {
    let mut request: Vec<InstanceLocal> = a
        .instances
        .iter()
        .filter(|i| !i.is_due(round))
        .cloned()
        .collect();
    let request_bytes = wire::message_len(&request);
    let mut outcome = ExchangeOutcome::default();
    b.join_announced(&request, round, robust, &mut outcome);
    let response_bytes = wire::message_len(b.instances.iter().filter(|i| !i.is_due(round)));
    b.merge_in_place(&mut request, round, robust, &mut outcome);
    ExchangeReport {
        request_bytes,
        response_bytes,
        robust_rejects: outcome.robust_rejects,
        robust_trims: outcome.robust_trims,
    }
}

/// Hints an instance list, a node's or a message's: the buffer itself at
/// [`PrefetchStage::Headers`], every instance's fraction vectors at
/// [`PrefetchStage::Bodies`].
pub(crate) fn prefetch_instances(instances: &[InstanceLocal], stage: PrefetchStage) {
    match stage {
        PrefetchStage::Headers => prefetch(instances),
        PrefetchStage::Bodies => {
            for instance in instances {
                prefetch(&instance.fractions);
                prefetch(&instance.verify_fractions);
            }
        }
    }
}

/// Applies a Byzantine corruption to `node`'s running-instance state just
/// before its contribution enters an exchange (the [`PlannedAttack`]
/// directive resolved by the fault injector). The corruption stream is
/// seeded per directive, so replays are bit-identical on every execution
/// path.
pub(crate) fn corrupt_node(node: &mut Adam2Node, model: AdversaryModel, seed: u64, round: u64) {
    let mut rng = adam2_sim::seeded_rng(seed);
    for inst in node.instances.iter_mut().filter(|i| !i.is_due(round)) {
        match model {
            AdversaryModel::ValuePoisoning { magnitude }
            | AdversaryModel::TargetedPartner { magnitude }
            | AdversaryModel::Equivocation { magnitude } => {
                for f in inst.fractions.iter_mut() {
                    *f = magnitude * rng.random::<f64>();
                }
                for f in inst.verify_fractions.iter_mut() {
                    *f = magnitude * rng.random::<f64>();
                }
            }
            AdversaryModel::WeightInflation { factor } => {
                inst.weight = factor;
            }
        }
    }
}

/// Applies a planned attack's corruption to the endpoints whose
/// contribution will enter the merge. Returns how many endpoints were
/// corrupted (for accounting).
fn apply_attack(
    attack: &PlannedAttack,
    a: &mut Adam2Node,
    b: Option<&mut Adam2Node>,
    round: u64,
) -> u32 {
    let mut corrupted = 0;
    if let Some(seed) = attack.initiator_seed {
        corrupt_node(a, attack.model, seed, round);
        corrupted += 1;
    }
    if let (Some(seed), Some(b)) = (attack.partner_seed, b) {
        corrupt_node(b, attack.model, seed, round);
        corrupted += 1;
    }
    corrupted
}

/// Crash-recover estimate bootstrap (closing the ROADMAP gap): a node that
/// (re)joined the system after round 0 and still has no completed estimate
/// adopts its gossip partner's estimate and system-size guess the first
/// time a *completed* exchange pairs them. The paper's late-joiner rule
/// keeps such nodes out of running instances, so without this they would
/// stay estimate-less until the *next* instance completes; copying the
/// partner's finished snapshot is exactly the `on_join` bootstrap, retried
/// once estimates exist.
///
/// Bootstrapping is *staleness-aware*: when several completed snapshots
/// circulate (long-running systems start a new instance every `R` rounds,
/// so a recovering node can meet partners holding estimates of different
/// ages), a recovered node keeps upgrading to the freshest snapshot it
/// encounters — highest `completed_round`, which orders instances by
/// `end_round` plus any self-healing epoch extensions — rather than
/// sticking with whatever it happened to adopt first. A staler partner
/// snapshot never downgrades an already-adopted estimate.
///
/// Returns the bootstrap bitmask for
/// [`ExchangeTraffic::bootstraps`] (bit 0 = `a`, bit 1 = `b`) so telemetry
/// can count recoveries healed this way; only the first adoption (no prior
/// estimate) counts as a bootstrap, freshness upgrades are silent.
fn bootstrap_estimates(a: &mut Adam2Node, b: &mut Adam2Node) -> u32 {
    fn fresher(candidate: &DistributionEstimate, current: Option<&DistributionEstimate>) -> bool {
        current.is_none_or(|cur| candidate.completed_round > cur.completed_round)
    }
    let mut mask = 0u32;
    if a.joined_round > 0 {
        if let Some(offer) = b.estimate.as_ref() {
            if fresher(offer, a.estimate.as_ref()) {
                if a.estimate.is_none() {
                    mask |= 1;
                }
                a.estimate = Some(offer.clone());
                a.n_estimate = b.n_estimate;
            }
        }
    }
    if b.joined_round > 0 {
        if let Some(offer) = a.estimate.as_ref() {
            if fresher(offer, b.estimate.as_ref()) {
                if b.estimate.is_none() {
                    mask |= 1 << 1;
                }
                b.estimate = Some(offer.clone());
                b.n_estimate = a.n_estimate;
            }
        }
    }
    mask
}

/// The Adam2 protocol driver (one per simulation).
pub struct Adam2Protocol {
    config: Adam2Config,
    source: Box<dyn FnMut(&mut StdRng) -> AttrValue + Send + Sync>,
    nonce: u64,
    started: Vec<Arc<InstanceMeta>>,
    completed: u64,
    finalize_failures: u64,
    healed: u64,
}

impl std::fmt::Debug for Adam2Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Adam2Protocol")
            .field("config", &self.config)
            .field("started", &self.started.len())
            .field("completed", &self.completed)
            .finish()
    }
}

impl Adam2Protocol {
    /// Creates a protocol whose nodes draw their attribute values from
    /// `source` (called once per created node, including churn
    /// replacements).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`Adam2Config::validate`] first to handle errors gracefully.
    pub fn new(
        config: Adam2Config,
        source: impl FnMut(&mut StdRng) -> AttrValue + Send + Sync + 'static,
    ) -> Self {
        config.validate().expect("invalid Adam2 configuration");
        Self {
            config,
            source: Box::new(source),
            nonce: 0,
            started: Vec::new(),
            completed: 0,
            finalize_failures: 0,
            healed: 0,
        }
    }

    /// Convenience constructor: node `i` of the initial population gets
    /// `initial[i]` as a single-valued attribute; churn replacements draw
    /// from `fresh`.
    pub fn with_population(
        config: Adam2Config,
        initial: Vec<f64>,
        mut fresh: impl FnMut(&mut StdRng) -> f64 + Send + Sync + 'static,
    ) -> Self {
        let mut queue = std::collections::VecDeque::from(initial);
        Self::new(config, move |rng| {
            AttrValue::Single(match queue.pop_front() {
                Some(v) => v,
                None => fresh(rng),
            })
        })
    }

    /// The protocol configuration.
    pub fn config(&self) -> &Adam2Config {
        &self.config
    }

    /// Mutable configuration access (e.g. to switch the refinement
    /// heuristic between instances in an experiment).
    pub fn config_mut(&mut self) -> &mut Adam2Config {
        &mut self.config
    }

    /// Metadata of every instance started so far, in start order.
    pub fn started_instances(&self) -> &[Arc<InstanceMeta>] {
        &self.started
    }

    /// Number of per-node instance completions.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Number of per-node finalisations that failed to produce a valid
    /// estimate (e.g. a peer that never exchanged a message).
    pub fn finalize_failure_count(&self) -> u64 {
        self.finalize_failures
    }

    /// Number of per-node self-healing restart votes (0 unless
    /// [`Adam2Config::with_self_heal`] is configured).
    pub fn healed_count(&self) -> u64 {
        self.healed
    }

    /// Starts a new aggregation instance at `initiator`, selecting
    /// interpolation points per the configured bootstrap/refinement and
    /// verification points per the configured metric.
    ///
    /// Returns the instance metadata, or `None` if the initiator is not
    /// live.
    pub fn start_instance(
        &mut self,
        initiator: NodeId,
        ctx: &mut Ctx<'_, Adam2Node>,
    ) -> Option<Arc<InstanceMeta>> {
        let (value, prev) = {
            let node = ctx.nodes.get(initiator)?;
            (node.value.clone(), node.estimate.clone())
        };

        // Gather neighbour attribute values for the bootstrap.
        let sample = self.config.effective_neighbour_sample();
        let neighbour_ids = ctx.neighbour_sample(initiator, sample);
        let mut neighbour_values = Vec::with_capacity(neighbour_ids.len() + 1);
        for nid in neighbour_ids {
            if let Some(nb) = ctx.nodes.get(nid) {
                if let Some(v) = nb.value.clone().representative(ctx.rng) {
                    neighbour_values.push(v);
                }
            }
        }
        if let Some(v) = value.representative(ctx.rng) {
            neighbour_values.push(v);
        }

        let input = SelectionInput {
            prev: prev.as_ref(),
            neighbour_values: &neighbour_values,
            domain_hint: self.config.domain_hint,
        };
        let (lo, hi) = input.range();
        let thresholds = select_thresholds(
            self.config.bootstrap,
            self.config.refine,
            input,
            self.config.lambda,
            ctx.rng,
        );
        let verify = verification_thresholds(
            self.config.verify_metric,
            prev.as_ref().map(|e| &e.cdf),
            self.config.verify_points,
            lo,
            hi,
        );

        self.nonce += 1;
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(ctx.round, initiator.slot() as u64, self.nonce),
            thresholds: thresholds.into(),
            verify_thresholds: verify.into(),
            start_round: ctx.round,
            end_round: ctx.round + self.config.rounds_per_instance,
            multi: value.is_multi(),
        });
        let node = ctx.nodes.get_mut(initiator)?;
        node.instances
            .push(InstanceLocal::join(meta.clone(), &value, true));
        self.started.push(meta.clone());
        ctx.telemetry
            .record_instance_started(ctx.round, initiator.slot() as u32, meta.id.as_u64());
        Some(meta)
    }
}

impl Protocol for Adam2Protocol {
    type Node = Adam2Node;

    fn make_node(&mut self, rng: &mut StdRng) -> Adam2Node {
        Adam2Node::new((self.source)(rng), self.config.initial_n_estimate)
    }

    fn drift_node(&mut self, _id: NodeId, node: &mut Adam2Node, op: DriftOp, rng: &mut StdRng) {
        match op {
            DriftOp::Shift(delta) => node.shift_value(delta),
            DriftOp::Replace => node.set_value((self.source)(rng)),
        }
    }

    /// Finalise due instances and draw the probabilistic start decision,
    /// both from the node's own RNG stream. The start itself needs
    /// `&mut self` (nonce, instance registry) and neighbour sampling, so it
    /// is deferred to [`absorb`](Protocol::absorb) via `wants_sequential`.
    fn local(
        &self,
        _id: NodeId,
        node: &mut Adam2Node,
        round: u64,
        rng: &mut StdRng,
    ) -> LocalReport {
        let (completed, failed, restarted) = node.finalize_or_heal(round, self.config.self_heal);
        let mut wants_sequential = false;
        if let Scheduling::Probabilistic {
            mean_rounds_between,
        } = self.config.scheduling
        {
            let p = 1.0 / (node.n_estimate.max(1.0) * mean_rounds_between);
            wants_sequential = rng.random::<f64>() < p;
        }
        LocalReport {
            completions: completed,
            failures: failed,
            restarts: restarted,
            wants_sequential,
            initiates: true,
        }
    }

    fn absorb(&mut self, id: NodeId, report: &LocalReport, ctx: &mut Ctx<'_, Adam2Node>) {
        self.completed += report.completions;
        self.finalize_failures += report.failures;
        self.healed += report.restarts;
        ctx.telemetry
            .record_heal_bump(ctx.round, id.slot() as u32, report.restarts);
        if report.wants_sequential {
            self.start_instance(id, ctx);
        }
    }

    fn prefetch(&self, node: &Adam2Node, stage: PrefetchStage) {
        prefetch_instances(&node.instances, stage);
    }

    /// The planned push–pull exchange itself, one state transition per
    /// [`ExchangeFate`].
    fn apply(
        &self,
        plan: &PlannedExchange,
        round: u64,
        a: &mut Adam2Node,
        b: &mut Adam2Node,
    ) -> ExchangeTraffic {
        let robust = self.config.robust.as_ref();
        match plan.fate {
            ExchangeFate::Complete => {
                if let Some(attack) = plan.attack.as_ref() {
                    apply_attack(attack, a, Some(b), round);
                }
                let report = gossip_exchange_with(a, b, round, robust);
                let bootstraps = bootstrap_estimates(a, b);
                ExchangeTraffic {
                    request: Some(report.request_bytes),
                    response: Some(report.response_bytes),
                    bootstraps,
                    robust_rejects: report.robust_rejects,
                    robust_trims: report.robust_trims,
                }
            }
            ExchangeFate::RequestLost => {
                // The sender still paid for the request.
                let req = wire::message_len(a.instances.iter().filter(|i| !i.is_due(round)));
                ExchangeTraffic {
                    request: Some(req),
                    response: None,
                    bootstraps: 0,
                    robust_rejects: 0,
                    robust_trims: 0,
                }
            }
            ExchangeFate::ResponseLost => {
                // Only the initiator's contribution reaches the partner;
                // a Byzantine partner's lie was in the lost response.
                if let Some(attack) = plan.attack.as_ref() {
                    if attack.initiator_seed.is_some() {
                        apply_attack(attack, a, None, round);
                    }
                }
                let report = gossip_exchange_response_lost_with(a, b, round, robust);
                ExchangeTraffic {
                    request: Some(report.request_bytes),
                    response: Some(report.response_bytes),
                    bootstraps: 0,
                    robust_rejects: report.robust_rejects,
                    robust_trims: report.robust_trims,
                }
            }
            ExchangeFate::Aborted => {
                // Rolled-back two-phase exchange: no state change; the
                // engine multiplies the charges by the transmission counts
                // recorded in the plan.
                let req = wire::message_len(a.instances.iter().filter(|i| !i.is_due(round)));
                let resp = response_len_after_join(a, b, round);
                ExchangeTraffic {
                    request: Some(req),
                    response: Some(resp),
                    bootstraps: 0,
                    robust_rejects: 0,
                    robust_trims: 0,
                }
            }
        }
    }

    fn on_join(&mut self, id: NodeId, ctx: &mut Ctx<'_, Adam2Node>) {
        let round = ctx.round;
        // "Nodes joining the system are bootstrapped by their initial
        // neighbours": inherit a current estimate and size guess. Retry a
        // few neighbours in case the first one is itself a fresh joiner
        // without an estimate yet.
        let mut bootstrap = None;
        for _ in 0..8 {
            let Some(nb) = ctx.random_neighbour(id) else {
                break;
            };
            if let Some(node) = ctx.nodes.get(nb) {
                if node.estimate.is_some() {
                    bootstrap = Some((node.estimate.clone(), node.n_estimate));
                    break;
                }
                bootstrap.get_or_insert((None, node.n_estimate));
            }
        }
        if let Some(node) = ctx.nodes.get_mut(id) {
            node.joined_round = round;
            if let Some((est, n)) = bootstrap {
                node.estimate = est;
                node.n_estimate = n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf::{InterpCdf, StepCdf};
    use crate::metrics::point_errors;
    use crate::selection::BootstrapKind;
    use adam2_sim::{
        AdversaryModel, ChurnModel, Engine, EngineConfig, ExchangeRepair, FaultScenario,
    };

    fn engine_with_values(
        values: Vec<f64>,
        config: Adam2Config,
        seed: u64,
    ) -> Engine<Adam2Protocol> {
        let n = values.len();
        let proto = Adam2Protocol::with_population(config, values, |rng| {
            rng.random_range(1.0..=100.0f64).round()
        });
        Engine::new(EngineConfig::new(n, seed), proto)
    }

    fn start_manual(engine: &mut Engine<Adam2Protocol>) -> Arc<InstanceMeta> {
        engine
            .with_ctx(|proto, ctx| {
                let initiator = ctx.nodes.random_id(ctx.rng).expect("non-empty");
                proto.start_instance(initiator, ctx)
            })
            .expect("instance started")
    }

    #[test]
    fn single_instance_converges_to_true_fractions_at_any_thread_count() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let truth = StepCdf::from_values(values.clone());
        let config = Adam2Config::new()
            .with_lambda(10)
            .with_rounds_per_instance(40)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, 200.0);
        for threads in [1, 4] {
            let mut engine = engine_with_values(values.clone(), config, 11);
            engine.set_threads(threads);
            let meta = start_manual(&mut engine);
            engine.run_rounds(41);

            // Lossless: one push–pull exchange per live node per round.
            assert_eq!(engine.net().total_msgs(), 2 * 200 * 41);
            let mut checked = 0;
            for (_, node) in engine.nodes().iter() {
                let est = node.estimate().expect("estimate after instance end");
                let (max_err, _) = point_errors(&truth, &est.thresholds, &est.fractions);
                assert!(max_err < 1e-6, "point error {max_err} too high");
                let n = est.n_hat.expect("weight mass received");
                assert!((n - 200.0).abs() < 0.5, "N estimate {n}");
                assert_eq!(est.instance, meta.id);
                checked += 1;
            }
            assert_eq!(checked, 200);
        }
    }

    #[test]
    fn rounds_are_deterministic_for_adam2() {
        // Same config + seed + thread count twice, and across thread
        // counts: bit-identical estimates and traffic totals.
        let snapshot = |threads: usize| {
            let values: Vec<f64> = (1..=150).map(f64::from).collect();
            let config = Adam2Config::new()
                .with_lambda(8)
                .with_rounds_per_instance(25)
                .with_scheduling(Scheduling::Probabilistic {
                    mean_rounds_between: 10.0,
                })
                .with_initial_n_estimate(150.0);
            let n = values.len();
            let proto = Adam2Protocol::with_population(config, values, |rng| {
                rng.random_range(1.0..=100.0f64).round()
            });
            let engine_config = EngineConfig::new(n, 23)
                .with_churn(ChurnModel::uniform(0.01))
                .with_threads(threads);
            let mut engine = Engine::new(engine_config, proto);
            engine.run_rounds(60);
            let states: Vec<(usize, u64, Vec<u64>)> = engine
                .nodes()
                .iter()
                .map(|(id, node)| {
                    let fracs = node
                        .estimate()
                        .map(|e| e.fractions.iter().map(|f| f.to_bits()).collect())
                        .unwrap_or_default();
                    (id.slot(), node.n_estimate().to_bits(), fracs)
                })
                .collect();
            (
                states,
                engine.net().total_bytes(),
                engine.net().total_msgs(),
                engine.protocol().started_instances().len(),
                engine.protocol().completed_count(),
            )
        };
        let reference = snapshot(2);
        assert_eq!(snapshot(2), reference, "same thread count must repeat");
        assert_eq!(snapshot(1), reference, "thread count must not matter");
        assert_eq!(snapshot(4), reference, "thread count must not matter");
    }

    #[test]
    fn mass_is_conserved_mid_instance() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let config = Adam2Config::new()
            .with_lambda(4)
            .with_rounds_per_instance(50)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, 100.0);
        let mut engine = engine_with_values(values.clone(), config, 13);
        let meta = start_manual(&mut engine);
        for _ in 0..20 {
            engine.run_round();
            // Sum of weights over participants must stay exactly 1; sum of
            // fraction components must equal the indicator mass of the
            // participants.
            let mut weight = 0.0;
            let mut frac0 = 0.0;
            let mut indicator0 = 0.0;
            let t0 = meta.thresholds[0];
            for (_, node) in engine.nodes().iter() {
                if let Some(inst) = node.active_instance(meta.id) {
                    weight += inst.weight;
                    frac0 += inst.fractions[0];
                    indicator0 += node.value().indicator(t0);
                }
            }
            assert!((weight - 1.0).abs() < 1e-9, "weight mass {weight}");
            assert!((frac0 - indicator0).abs() < 1e-6, "fraction mass leaked");
        }
    }

    #[test]
    fn probabilistic_scheduling_starts_instances() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let config = Adam2Config::new()
            .with_lambda(5)
            .with_rounds_per_instance(10)
            .with_scheduling(Scheduling::Probabilistic {
                mean_rounds_between: 5.0,
            })
            .with_initial_n_estimate(100.0);
        let mut engine = engine_with_values(values, config, 17);
        engine.run_rounds(100);
        let started = engine.protocol().started_instances().len();
        // Expect about one instance per 5 rounds => ~20; allow wide slack.
        assert!((8..=40).contains(&started), "started {started}");
        // Estimates eventually exist.
        let with_estimate = engine
            .nodes()
            .iter()
            .filter(|(_, n)| n.estimate().is_some())
            .count();
        assert!(
            with_estimate > 90,
            "only {with_estimate} nodes have estimates"
        );
    }

    #[test]
    fn refinement_reduces_point_count_error_over_instances() {
        // Step distribution: two heavy steps.
        let mut values = vec![512.0; 400];
        values.extend(vec![2048.0; 600]);
        let truth = StepCdf::from_values(values.clone());
        let config = Adam2Config::new()
            .with_lambda(24)
            .with_rounds_per_instance(30);
        let mut engine = engine_with_values(values, config, 19);

        let mut errors = Vec::new();
        for _ in 0..4 {
            start_manual(&mut engine);
            engine.run_rounds(31);
            let (_, node) = engine.nodes().iter().next().expect("nodes");
            let est = node.estimate().expect("estimate");
            errors.push(crate::metrics::discrete_max_distance(&truth, &est.cdf));
        }
        assert!(
            errors.last().unwrap() <= errors.first().unwrap(),
            "refinement made things worse: {errors:?}"
        );
        assert!(
            *errors.last().unwrap() < 0.05,
            "final error too high: {errors:?}"
        );
    }

    #[test]
    fn late_joiners_ignore_running_instances_and_bootstrap() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let config = Adam2Config::new()
            .with_lambda(5)
            .with_rounds_per_instance(40)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, 100.0);
        let mut engine = engine_with_values(values, config, 23);
        // Complete one instance so estimates exist for bootstrap.
        start_manual(&mut engine);
        engine.run_rounds(41);
        // Start a second instance, then switch churn on mid-instance.
        let meta = start_manual(&mut engine);
        engine.run_rounds(5);
        engine.set_churn(ChurnModel::uniform(0.02));
        engine.run_rounds(10);
        for (_, node) in engine.nodes().iter() {
            if node.joined_round() > meta.start_round {
                assert!(
                    node.active_instance(meta.id).is_none(),
                    "late joiner participated in an older instance"
                );
                assert!(node.estimate().is_some(), "joiner not bootstrapped");
            }
        }
    }

    #[test]
    fn multi_value_instance_estimates_value_distribution() {
        // 3 nodes with value sets; global multiset {1,2,3,4,10,10}.
        let sets = [vec![1.0, 2.0], vec![3.0, 4.0], vec![10.0, 10.0]];
        let mut queue: std::collections::VecDeque<Vec<f64>> = sets.iter().cloned().collect();
        let config = Adam2Config::new()
            .with_lambda(3)
            .with_rounds_per_instance(30)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, 10.0);
        let proto = Adam2Protocol::new(config, move |_rng| {
            AttrValue::Multi(queue.pop_front().unwrap_or_default())
        });
        let mut engine = Engine::new(EngineConfig::new(3, 29), proto);
        start_manual(&mut engine);
        engine.run_rounds(31);
        for (_, node) in engine.nodes().iter() {
            let est = node.estimate().expect("estimate");
            // The aggregated fractions at the thresholds are exact: with
            // domain hint (1, 10) and lambda = 3, thresholds sit at
            // 3.25 / 5.5 / 7.75 with true multiset fractions 3/6, 4/6, 4/6.
            let truth = StepCdf::from_values(vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0]);
            let (max_err, _) = point_errors(&truth, &est.thresholds, &est.fractions);
            assert!(max_err < 1e-9, "point error {max_err}");
            assert_eq!(est.min, 1.0);
            assert_eq!(est.max, 10.0);
        }
    }

    #[test]
    fn exchange_charges_wire_sized_messages() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let config = Adam2Config::new()
            .with_lambda(50)
            .with_rounds_per_instance(25)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, 10.0);
        let mut engine = engine_with_values(values, config, 31);
        start_manual(&mut engine);
        engine.run_round();
        // At least the initiator's exchange carried a full payload
        // (~860 B for lambda = 50).
        let expected = wire::payload_len(50, 0) + wire::HEADER_LEN;
        assert!(engine.net().total_bytes() >= expected as u64);
    }

    #[test]
    fn idle_nodes_exchange_empty_messages() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let config = Adam2Config::new();
        let mut engine = engine_with_values(values, config, 37);
        engine.run_round();
        // 10 exchanges of 2 x 10-byte empty messages (8-byte sequence
        // number + 2-byte instance count).
        assert_eq!(engine.net().total_bytes(), 200);
    }

    #[test]
    fn message_loss_degrades_gracefully() {
        let values: Vec<f64> = (1..=300).map(f64::from).collect();
        let truth = StepCdf::from_values(values.clone());
        let config = Adam2Config::new()
            .with_lambda(10)
            .with_rounds_per_instance(40)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, 300.0);
        let proto = Adam2Protocol::with_population(config, values, |_| 1.0);
        let engine_config = adam2_sim::EngineConfig::new(300, 43).with_loss_rate(0.2);
        let mut engine = Engine::new(engine_config, proto);
        start_manual(&mut engine);
        engine.run_rounds(41);
        let mut worst = 0.0f64;
        let mut with_estimate = 0;
        for (_, node) in engine.nodes().iter() {
            if let Some(est) = node.estimate() {
                with_estimate += 1;
                let (m, _) = point_errors(&truth, &est.thresholds, &est.fractions);
                worst = worst.max(m);
            }
        }
        assert_eq!(with_estimate, 300, "loss must not block the epidemic");
        // 20% loss perturbs the averaging but accuracy stays usable.
        assert!(worst < 0.1, "error under 20% loss: {worst}");
        assert!(worst > 1e-12, "loss should leave a visible perturbation");
    }

    #[test]
    fn lost_requests_charge_one_message() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let config = Adam2Config::new();
        let proto = Adam2Protocol::with_population(config, values, |_| 1.0);
        let engine_config = adam2_sim::EngineConfig::new(10, 44).with_loss_rate(1.0);
        let mut engine = Engine::new(engine_config, proto);
        engine.run_round();
        // Every exchange degenerates to one lost 10-byte request.
        assert_eq!(engine.net().total_msgs(), 10);
        assert_eq!(engine.net().total_bytes(), 100);
    }

    #[test]
    fn repair_keeps_weight_mass_exact_under_loss() {
        // With the two-phase repair enabled, every exchange either commits
        // on both sides or aborts with no state change — the asymmetric
        // ResponseLost mass leak cannot occur, so the weight mass stays
        // exactly 1 even on a heavily lossy network.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let config = Adam2Config::new()
            .with_lambda(4)
            .with_rounds_per_instance(50)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, 100.0);
        let proto = Adam2Protocol::with_population(config, values, |_| 1.0);
        let engine_config = EngineConfig::new(100, 47)
            .with_loss_rate(0.3)
            .with_repair(ExchangeRepair::enabled());
        let mut engine = Engine::new(engine_config, proto);
        let meta = start_manual(&mut engine);
        for _ in 0..20 {
            engine.run_round();
            let weight: f64 = engine
                .nodes()
                .iter()
                .filter_map(|(_, n)| n.active_instance(meta.id))
                .map(|i| i.weight)
                .sum();
            assert!((weight - 1.0).abs() < 1e-9, "weight mass {weight}");
        }
    }

    #[test]
    fn repair_retransmissions_are_charged() {
        // Total loss + repair: each exchange sends 1 + max_retries = 3
        // requests (all lost) and no response.
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let proto = Adam2Protocol::with_population(Adam2Config::new(), values, |_| 1.0);
        let engine_config = EngineConfig::new(10, 48)
            .with_loss_rate(1.0)
            .with_repair(ExchangeRepair::enabled());
        let mut engine = Engine::new(engine_config, proto);
        engine.run_round();
        assert_eq!(engine.net().total_msgs(), 30);
        assert_eq!(engine.net().total_bytes(), 300);
    }

    #[test]
    fn aborted_response_length_matches_a_committed_exchange() {
        // The rolled-back response must be charged at the same wire size
        // the committed response would have had (the partner sent it; only
        // the commit was lost), including instances the partner would have
        // joined on request receipt.
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 1),
            thresholds: vec![5.0, 9.0].into(),
            verify_thresholds: vec![7.0].into(),
            start_round: 0,
            end_round: 25,
            multi: false,
        });
        let mut a = Adam2Node::new(AttrValue::Single(3.0), 100.0);
        a.begin_instance(meta.clone());
        let b = Adam2Node::new(AttrValue::Single(8.0), 100.0);
        let predicted = response_len_after_join(&a, &b, 1);
        let (mut a2, mut b2) = (a.clone(), b.clone());
        let (_, actual) = gossip_exchange(&mut a2, &mut b2, 1);
        assert_eq!(predicted, actual);
        // And the prediction left both nodes untouched.
        assert!(b.active_instance(meta.id).is_none());
    }

    /// The exchange as it was before it stopped collecting the announced
    /// metas: each side's running instances captured as a list of `Arc`s
    /// at the moment it announces them.
    fn gossip_exchange_reference(
        a: &mut Adam2Node,
        b: &mut Adam2Node,
        round: u64,
        robust: Option<&RobustPolicy>,
    ) -> ExchangeReport {
        let mut report = ExchangeReport {
            request_bytes: wire::message_len(a.instances.iter().filter(|i| !i.is_due(round))),
            ..ExchangeReport::default()
        };
        let running = |node: &Adam2Node| -> Vec<Arc<InstanceMeta>> {
            let running = node.instances.iter().filter(|i| !i.is_due(round));
            running.map(|i| i.meta.clone()).collect()
        };
        let join = |from: &Adam2Node, to: &mut Adam2Node, metas: &[Arc<InstanceMeta>]| {
            for meta in metas {
                let i = from.find_index(meta.id).expect("announced");
                if robust.is_some_and(|p| !from.instances[i].contribution_plausible(p.weight_cap)) {
                    continue;
                }
                if to.joined_round <= meta.start_round && to.find_index(meta.id).is_none() {
                    to.instances
                        .push(InstanceLocal::join(meta.clone(), &to.value, false));
                }
            }
        };
        let a_metas = running(a);
        join(a, b, &a_metas);
        report.response_bytes = wire::message_len(b.instances.iter().filter(|i| !i.is_due(round)));
        let b_metas = running(b);
        join(b, a, &b_metas);
        let only_a = a_metas
            .iter()
            .filter(|m| b_metas.iter().all(|n| n.id != m.id));
        for meta in b_metas.iter().chain(only_a) {
            let (Some(ia), Some(ib)) = (a.find_index(meta.id), b.find_index(meta.id)) else {
                continue;
            };
            let (rejects, trims) = reconcile_and_merge(a, ia, b, ib, robust);
            report.robust_rejects += rejects;
            report.robust_trims += trims;
        }
        report
    }

    #[test]
    fn exchange_matches_the_captured_announcement_reference() {
        let metas: Vec<Arc<InstanceMeta>> = (0..5u64)
            .map(|k| {
                Arc::new(InstanceMeta {
                    id: InstanceId::derive(k, k, 3),
                    thresholds: vec![3.0, 5.0, 7.0].into(),
                    verify_thresholds: vec![4.0].into(),
                    start_round: k,
                    end_round: 6 + 2 * k,
                    multi: false,
                })
            })
            .collect();
        let mut rng = adam2_sim::seeded_rng(0xe4c4);
        let node = |rng: &mut StdRng| {
            let mut node = Adam2Node::new(AttrValue::Single(rng.random_range(0.0..10.0)), 10.0);
            node.joined_round = rng.random_range(0..3);
            for meta in &metas {
                if rng.random::<bool>() {
                    continue;
                }
                let mut inst = InstanceLocal::join(meta.clone(), &node.value, rng.random());
                inst.epoch = rng.random_range(0..3);
                for f in inst.fractions.iter_mut().chain(&mut inst.verify_fractions) {
                    *f = rng.random::<f64>() * 1.2;
                }
                inst.weight = rng.random::<f64>() * 1.2;
                node.instances.push(inst);
            }
            node
        };
        let policies = [
            None,
            Some(
                RobustPolicy::new()
                    .with_trim_fraction(0.0)
                    .with_influence_cap(0.25),
            ),
            Some(RobustPolicy::new()),
        ];
        for _ in 0..2000 {
            let (a, b) = (node(&mut rng), node(&mut rng));
            let round = rng.random_range(0..20);
            for robust in &policies {
                let (mut a1, mut b1, mut a2, mut b2) = (a.clone(), b.clone(), a.clone(), b.clone());
                let report = gossip_exchange_with(&mut a1, &mut b1, round, robust.as_ref());
                let expected = gossip_exchange_reference(&mut a2, &mut b2, round, robust.as_ref());
                assert_eq!(report, expected, "round {round}, {robust:?}");
                assert_eq!(a1.instances, a2.instances, "round {round}, {robust:?}");
                assert_eq!(b1.instances, b2.instances, "round {round}, {robust:?}");
            }
        }
    }

    #[test]
    fn epoch_reconciliation_spreads_restarts_and_conserves_mass() {
        let meta = Arc::new(InstanceMeta {
            id: InstanceId::derive(0, 0, 2),
            thresholds: vec![5.0].into(),
            verify_thresholds: Vec::new().into(),
            start_round: 0,
            end_round: 25,
            multi: false,
        });
        let mut a = Adam2Node::new(AttrValue::Single(3.0), 100.0);
        a.begin_instance(meta.clone());
        let mut b = Adam2Node::new(AttrValue::Single(8.0), 100.0);
        b.join_instance_passively(meta.clone());
        gossip_exchange(&mut a, &mut b, 1);

        // The initiator votes to restart; the next exchange must pull the
        // partner into the new epoch and re-establish the mass invariants.
        let value = a.value.clone();
        a.instances[0].restart(&value);
        gossip_exchange(&mut a, &mut b, 2);
        let ia = a.active_instance(meta.id).unwrap();
        let ib = b.active_instance(meta.id).unwrap();
        assert_eq!(ia.epoch, 1);
        assert_eq!(ib.epoch, 1);
        // Fresh epoch: weight mass 1 (initiator re-seeded), fraction mass
        // equals the indicator mass of the two participants (only a <= 5).
        assert!((ia.weight + ib.weight - 1.0).abs() < 1e-12);
        assert!((ia.fractions[0] + ib.fractions[0] - 1.0).abs() < 1e-12);

        // A stale-epoch snapshot of the pre-restart state is ignored and
        // answered with the current state.
        let mut stale = ib.clone();
        stale.epoch = 0;
        stale.weight = 0.7;
        let before = b.active_instance(meta.id).unwrap().clone();
        let mut entries = vec![stale];
        let mut outcome = ExchangeOutcome::default();
        b.merge_in_place(&mut entries, 3, None, &mut outcome);
        assert_eq!(*b.active_instance(meta.id).unwrap(), before);
        assert_eq!(entries, [before]);
        assert_eq!((outcome.averaged, outcome.skipped), (0, 1));
    }

    #[test]
    fn self_healing_restarts_inaccurate_instances() {
        // A step distribution interpolated by a smooth CDF leaves a large
        // verification error, so a tiny threshold makes every node vote to
        // restart exactly once (max_restarts = 1); the healed instance then
        // runs a full second epoch and finalises at the extended deadline.
        let mut values = vec![512.0; 40];
        values.extend(vec![2048.0; 60]);
        let config = Adam2Config::new()
            .with_lambda(8)
            .with_rounds_per_instance(25)
            .with_verify_points(6)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(512.0, 2048.0)
            .with_self_heal(1e-15, 1);
        let mut engine = engine_with_values(values, config, 53);
        let meta = start_manual(&mut engine);
        engine.run_rounds(26);
        // Round 25: nobody finalised — the local step runs before any
        // exchange of the round, so every node voted to restart itself.
        let healed = engine.protocol().healed_count();
        assert_eq!(healed, 100, "restart votes");
        assert_eq!(engine.protocol().completed_count(), 0);
        for (_, node) in engine.nodes().iter() {
            let inst = node.active_instance(meta.id).expect("still running");
            assert_eq!(inst.epoch, 1);
        }
        // Epoch 1 runs rounds 25..50 and finalises at round 50 — the
        // restart budget is exhausted, so the estimate is adopted even
        // though the verification error is still above the threshold.
        engine.run_rounds(25);
        assert_eq!(engine.protocol().healed_count(), healed);
        assert_eq!(engine.protocol().completed_count(), 100);
        for (_, node) in engine.nodes().iter() {
            let est = node.estimate().expect("estimate after healed instance");
            assert_eq!(est.completed_round, 50);
            let n = est.n_hat.expect("weight mass received");
            assert!((n - 100.0).abs() < 0.5, "N estimate {n} after restart");
        }
    }

    #[test]
    fn self_healing_is_thread_count_invariant() {
        let snapshot = |threads: usize| {
            let mut values = vec![512.0; 40];
            values.extend(vec![2048.0; 60]);
            let config = Adam2Config::new()
                .with_lambda(8)
                .with_rounds_per_instance(25)
                .with_verify_points(6)
                .with_bootstrap(BootstrapKind::Uniform)
                .with_domain_hint(512.0, 2048.0)
                .with_self_heal(1e-15, 1);
            let proto = Adam2Protocol::with_population(config, values, |_| 1.0);
            let mut engine = Engine::new(EngineConfig::new(100, 53).with_threads(threads), proto);
            start_manual(&mut engine);
            engine.run_rounds(51);
            (
                engine.protocol().healed_count(),
                engine.protocol().completed_count(),
                engine.net().total_bytes(),
            )
        };
        let reference = snapshot(1);
        assert_eq!(reference.0, 100, "every node restarts once");
        assert_eq!(reference.1, 100, "every node finalises the healed epoch");
        assert_eq!(snapshot(2), reference, "thread count must not matter");
        assert_eq!(snapshot(4), reference, "thread count must not matter");
    }

    #[test]
    fn recovered_node_bootstraps_estimate_from_partner() {
        // Crash-recover gap: a node that rejoined after every estimate had
        // already completed used to stay estimate-less until the *next*
        // instance finished. It must now adopt the first completed snapshot
        // a gossip partner offers, and telemetry must count the bootstrap.
        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        let config = Adam2Config::new()
            .with_lambda(5)
            .with_rounds_per_instance(15)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, 50.0);
        let mut engine = engine_with_values(values, config, 61);
        start_manual(&mut engine);
        engine.run_rounds(16);
        let victim = engine.nodes().iter().next().map(|(id, _)| id).unwrap();
        {
            let node = engine.nodes_mut().get_mut(victim).unwrap();
            assert!(node.estimate.is_some(), "instance completed");
            // Model a crash-recover: state lost, rejoined mid-run.
            node.estimate = None;
            node.n_estimate = 1.0;
            node.joined_round = 16;
        }
        engine.attach_telemetry(adam2_sim::SimTelemetry::new());
        engine.run_round();
        let node = engine.nodes().get(victim).unwrap();
        let est = node.estimate.as_ref().expect("bootstrapped from partner");
        assert_eq!(est.completed_round, 15);
        assert!(node.n_estimate > 1.0, "system-size guess adopted too");
        let t = engine.detach_telemetry().unwrap();
        let (_, bootstraps) = t
            .telemetry()
            .metrics
            .counters()
            .find(|(name, _)| *name == "estimate_bootstraps")
            .unwrap();
        assert!(bootstraps >= 1, "bootstrap counted: {bootstraps}");
    }

    #[test]
    fn round_zero_members_do_not_bootstrap() {
        // Original members (joined_round == 0) wait for their own instance
        // to finalise; only rejoined/recovered nodes take the shortcut.
        let mut a = Adam2Node::new(AttrValue::Single(1.0), 1.0);
        let mut b = Adam2Node::new(AttrValue::Single(2.0), 1.0);
        assert_eq!(bootstrap_estimates(&mut a, &mut b), 0);
        assert!(a.estimate.is_none() && b.estimate.is_none());
        a.joined_round = 3; // recovered, but the partner has nothing to give
        assert_eq!(bootstrap_estimates(&mut a, &mut b), 0);
        assert!(a.estimate.is_none());
    }

    fn completed_estimate(completed_round: u64, n_hat: f64) -> DistributionEstimate {
        let thresholds = vec![2.0, 3.0];
        let fractions = vec![0.25, 0.75];
        DistributionEstimate {
            cdf: InterpCdf::from_points(1.0, 4.0, &thresholds, &fractions).unwrap(),
            n_hat: Some(n_hat),
            min: 1.0,
            max: 4.0,
            est_err_avg: None,
            est_err_max: None,
            instance: InstanceId::from_u64(7),
            completed_round,
            thresholds,
            fractions,
        }
    }

    #[test]
    fn recovered_node_upgrades_to_fresher_estimate() {
        // Staleness-aware bootstrap: a recovered node holding an estimate
        // from an old instance upgrades when a partner offers a snapshot
        // from a later-completed instance — but the upgrade is not counted
        // as a bootstrap (the node was not estimate-less).
        let mut a = Adam2Node::new(AttrValue::Single(1.0), 1.0);
        let mut b = Adam2Node::new(AttrValue::Single(2.0), 1.0);
        a.joined_round = 5;
        a.estimate = Some(completed_estimate(15, 80.0));
        a.n_estimate = 80.0;
        b.estimate = Some(completed_estimate(45, 120.0));
        b.n_estimate = 120.0;
        assert_eq!(bootstrap_estimates(&mut a, &mut b), 0);
        assert_eq!(a.estimate.as_ref().unwrap().completed_round, 45);
        assert_eq!(a.n_estimate, 120.0);
    }

    #[test]
    fn staler_snapshot_never_downgrades_an_estimate() {
        // The reverse pairing: an already-fresh recovered node keeps its
        // estimate when the partner's snapshot is older or the same age.
        let mut a = Adam2Node::new(AttrValue::Single(1.0), 1.0);
        let mut b = Adam2Node::new(AttrValue::Single(2.0), 1.0);
        a.joined_round = 5;
        a.estimate = Some(completed_estimate(45, 120.0));
        a.n_estimate = 120.0;
        b.estimate = Some(completed_estimate(15, 80.0));
        b.n_estimate = 80.0;
        assert_eq!(bootstrap_estimates(&mut a, &mut b), 0);
        assert_eq!(a.estimate.as_ref().unwrap().completed_round, 45);
        assert_eq!(a.n_estimate, 120.0);
        // Equal freshness: also a no-op.
        b.joined_round = 5;
        b.estimate = Some(completed_estimate(45, 90.0));
        b.n_estimate = 90.0;
        assert_eq!(bootstrap_estimates(&mut a, &mut b), 0);
        assert_eq!(b.n_estimate, 90.0);
    }

    #[test]
    fn telemetry_attach_is_bit_identical_for_adam2() {
        // Full-protocol determinism check: self-healing + loss repair with
        // telemetry attached must produce bit-identical estimates and
        // traffic to a bare run, at 1 and 4 threads.
        let run = |threads: usize, with_telemetry: bool| {
            let mut values = vec![512.0; 40];
            values.extend(vec![2048.0; 60]);
            let config = Adam2Config::new()
                .with_lambda(8)
                .with_rounds_per_instance(25)
                .with_verify_points(6)
                .with_bootstrap(BootstrapKind::Uniform)
                .with_domain_hint(512.0, 2048.0)
                .with_self_heal(1e-15, 1);
            let proto = Adam2Protocol::with_population(config, values, |_| 1.0);
            let engine_config = EngineConfig::new(100, 53)
                .with_loss_rate(0.05)
                .with_threads(threads);
            let mut engine = Engine::new(engine_config, proto);
            if with_telemetry {
                engine.attach_telemetry(adam2_sim::SimTelemetry::new());
            }
            start_manual(&mut engine);
            engine.run_rounds(51);
            let estimates: Vec<(usize, u64, u64)> = engine
                .nodes()
                .iter()
                .map(|(id, node)| {
                    let est = node.estimate.as_ref();
                    (
                        id.slot(),
                        est.map_or(0, |e| e.completed_round),
                        est.and_then(|e| e.n_hat).map_or(0, f64::to_bits),
                    )
                })
                .collect();
            (
                estimates,
                engine.net().total_bytes(),
                engine.net().total_msgs(),
                engine.protocol().healed_count(),
            )
        };
        let bare = run(1, false);
        for threads in [1, 4] {
            assert_eq!(run(threads, true), bare, "threads={threads}");
        }
    }

    #[test]
    fn estimate_keeps_latest_instance() {
        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        let config = Adam2Config::new()
            .with_lambda(5)
            .with_rounds_per_instance(20)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, 50.0);
        let mut engine = engine_with_values(values, config, 41);
        let first = start_manual(&mut engine);
        engine.run_rounds(21);
        let second = start_manual(&mut engine);
        engine.run_rounds(21);
        for (_, node) in engine.nodes().iter() {
            let est = node.estimate().expect("estimate");
            assert_ne!(est.instance, first.id);
            assert_eq!(est.instance, second.id);
        }
    }

    // Byzantine integration on the cycle engine: 10% value poisoners
    // collapse vanilla aggregation, the influence-cap robust policy holds
    // honest error at its fault-free level, and the faulted robust run
    // replays bit-identically across thread counts.
    #[test]
    fn robust_mode_survives_value_poisoning_bit_identically() {
        const N: usize = 400;
        const ROUNDS: u64 = 30;
        let scenario = || {
            FaultScenario::new(9).with_adversary(
                0,
                ROUNDS + 2,
                0.10,
                AdversaryModel::ValuePoisoning { magnitude: 5.0 },
            )
        };
        let adversary = scenario().adversary_at(0).expect("adversary active");
        let values: Vec<f64> = (1..=N).map(|v| v as f64).collect();
        let truth = StepCdf::from_values(values.clone());
        // Byzantine nodes lie from round 0, so their true values are
        // unrecoverable by design: the best any defense can target is the
        // honest-subpopulation distribution.
        let honest_truth = StepCdf::from_values(
            values
                .iter()
                .enumerate()
                .filter(|(slot, _)| !adversary.is_byzantine(*slot))
                .map(|(_, v)| *v)
                .collect(),
        );
        let base = Adam2Config::new()
            .with_lambda(10)
            .with_rounds_per_instance(ROUNDS)
            .with_bootstrap(BootstrapKind::Uniform)
            .with_domain_hint(1.0, N as f64);
        let robust = base.with_robust(
            RobustPolicy::new()
                .with_trim_fraction(0.0)
                .with_influence_cap(0.25),
        );

        // Mean max-point error over honest nodes, plus an FNV-1a
        // fingerprint over every node's estimate bits (Byzantine nodes
        // included — determinism must cover the whole population).
        let run =
            |config: Adam2Config, faulted: bool, threads: usize, truth: &StepCdf| -> (f64, u64) {
                let proto = Adam2Protocol::with_population(config, values.clone(), |rng| {
                    rng.random_range(1.0..=100.0f64).round()
                });
                let mut engine = Engine::new(EngineConfig::new(N, 17).with_threads(threads), proto);
                if faulted {
                    engine.set_fault_scenario(scenario()).unwrap();
                }
                let initiator = engine
                    .nodes()
                    .iter()
                    .map(|(id, _)| id)
                    .filter(|id| !adversary.is_byzantine(id.slot()))
                    .min_by_key(|id| id.slot())
                    .expect("honest node");
                engine
                    .with_ctx(|proto, ctx| proto.start_instance(initiator, ctx))
                    .expect("instance started");
                engine.run_rounds(ROUNDS + 2);

                let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0100_0000_01b3);
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                let mut err_sum = 0.0;
                let mut honest = 0usize;
                for (id, node) in engine.nodes().iter() {
                    let byzantine = faulted && adversary.is_byzantine(id.slot());
                    let Some(est) = node.estimate() else {
                        assert!(byzantine, "honest node {} lost its estimate", id.slot());
                        hash = mix(hash, 0);
                        continue;
                    };
                    for f in &est.fractions {
                        hash = mix(hash, f.to_bits());
                    }
                    hash = mix(hash, est.n_hat.map_or(0, f64::to_bits));
                    if byzantine {
                        continue;
                    }
                    let (max_err, _) = point_errors(truth, &est.thresholds, &est.fractions);
                    err_sum += max_err;
                    honest += 1;
                }
                (err_sum / honest as f64, hash)
            };

        let (clean_vanilla, _) = run(base, false, 2, &truth);
        let (clean_robust, _) = run(robust, false, 2, &truth);
        let (poisoned_vanilla, _) = run(base, true, 2, &honest_truth);
        let (poisoned_robust, fp_two) = run(robust, true, 2, &honest_truth);
        let (replay_err, fp_one) = run(robust, true, 1, &honest_truth);

        // The neutral policy (trim 0, cap only) costs nothing fault-free.
        assert!(
            clean_robust <= clean_vanilla * 2.0 + 1e-12,
            "robust fault-free {clean_robust} vs vanilla {clean_vanilla}"
        );
        // Poisoning collapses the vanilla run by orders of magnitude. The
        // robust run holds near the honest-subpopulation truth; the small
        // residual is the documented trapped-weight bias (a Byzantine join
        // captures half a partner's weight before its first lie, and
        // symmetric rejection then strands it), which scales with f — well
        // under 1e-2 here versus the ~0.5 vanilla collapse.
        assert!(
            poisoned_vanilla >= 0.05,
            "vanilla under poisoning barely moved: {poisoned_vanilla}"
        );
        assert!(
            poisoned_vanilla >= poisoned_robust * 10.0,
            "vanilla {poisoned_vanilla} vs robust {poisoned_robust} under poisoning"
        );
        assert!(
            poisoned_robust <= 0.01,
            "robust under poisoning {poisoned_robust} vs clean {clean_robust}"
        );
        // The faulted robust run is bit-identical across thread counts.
        assert_eq!(fp_one, fp_two, "thread-count replay diverged");
        assert_eq!(replay_err.to_bits(), poisoned_robust.to_bits());
    }
}
