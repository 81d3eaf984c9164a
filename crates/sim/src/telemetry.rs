//! Engine-side telemetry glue.
//!
//! [`SimTelemetry`] owns an [`adam2_telemetry::Telemetry`] store plus the
//! well-known metric handles the simulator records into, and accumulates
//! per-round scratch counters that [`SimTelemetry::end_round`] folds into a
//! [`RoundSnapshot`]. The engine exposes it to protocols through
//! [`TelemetryHandle`], an `Option<&mut SimTelemetry>` wrapper whose
//! methods compile to a single `None` branch when telemetry is disabled —
//! the zero-cost no-op sink required so `adam2-core` can instrument
//! without a telemetry dependency or measurable overhead.
//!
//! **Determinism rule:** nothing in this module touches any engine RNG or
//! simulation state; recording is purely observational, so runs with and
//! without telemetry attached are bit-identical. In the apply phase each
//! worker (one at one thread) records into one [`TelemetryShard`] per
//! round, merged in worker order; because counter and histogram merges are
//! commutative sums, merged totals are thread-count invariant.

use adam2_telemetry::{
    CounterId, Event, EventKind, GaugeId, HistogramId, MetricShard, RoundSnapshot, RunManifest,
    Telemetry,
};

use crate::engine::{ExchangeFate, ExchangeTraffic, PlannedExchange};

/// Per-round scratch counters, reset by [`SimTelemetry::end_round`].
#[derive(Debug, Default, Clone, Copy)]
struct RoundScratch {
    exchanges: u64,
    repairs: u64,
    aborts: u64,
    faults: u64,
    crashes: u64,
    recoveries: u64,
    joins: u64,
    leaves: u64,
    heal_bumps: u64,
    bootstraps: u64,
    robust_rejects: u64,
    robust_trims: u64,
    inflight_peak: u64,
    queue_depth_peak: u64,
}

/// Telemetry store wired to the simulator's vocabulary: exchange, fault,
/// churn, and self-healing metrics plus the structured event trace.
#[derive(Debug)]
pub struct SimTelemetry {
    inner: Telemetry,
    c_exchanges: CounterId,
    c_repairs: CounterId,
    c_aborts: CounterId,
    c_faults: CounterId,
    c_crashes: CounterId,
    c_recoveries: CounterId,
    c_joins: CounterId,
    c_leaves: CounterId,
    c_heal_bumps: CounterId,
    c_bootstraps: CounterId,
    c_robust_rejects: CounterId,
    c_robust_trims: CounterId,
    h_request_bytes: HistogramId,
    h_response_bytes: HistogramId,
    c_async_delivered: CounterId,
    c_async_lost: CounterId,
    c_async_duplicated: CounterId,
    g_live_nodes: GaugeId,
    g_inflight: GaugeId,
    g_queue_depth: GaugeId,
    scratch: RoundScratch,
}

impl Default for SimTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl SimTelemetry {
    /// Creates a store with the default event-ring capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(adam2_telemetry::DEFAULT_EVENT_CAPACITY)
    }

    /// Creates a store whose event ring retains `event_capacity` events.
    pub fn with_event_capacity(event_capacity: usize) -> Self {
        let mut inner = Telemetry::new(event_capacity);
        let m = &mut inner.metrics;
        let c_exchanges = m.counter("exchanges");
        let c_repairs = m.counter("repair_retransmissions");
        let c_aborts = m.counter("exchange_aborts");
        let c_faults = m.counter("fault_events");
        let c_crashes = m.counter("crashes");
        let c_recoveries = m.counter("recoveries");
        let c_joins = m.counter("churn_joins");
        let c_leaves = m.counter("churn_leaves");
        let c_heal_bumps = m.counter("self_heal_bumps");
        let c_bootstraps = m.counter("estimate_bootstraps");
        let c_robust_rejects = m.counter("robust_rejects");
        let c_robust_trims = m.counter("robust_trims");
        let h_request_bytes = m.histogram("exchange_request_bytes");
        let h_response_bytes = m.histogram("exchange_response_bytes");
        let c_async_delivered = m.counter("async_delivered");
        let c_async_lost = m.counter("async_lost");
        let c_async_duplicated = m.counter("async_duplicated");
        let g_live_nodes = m.gauge("live_nodes");
        let g_inflight = m.gauge("inflight_exchanges");
        let g_queue_depth = m.gauge("queue_depth");
        Self {
            inner,
            c_exchanges,
            c_repairs,
            c_aborts,
            c_faults,
            c_crashes,
            c_recoveries,
            c_joins,
            c_leaves,
            c_heal_bumps,
            c_bootstraps,
            c_robust_rejects,
            c_robust_trims,
            h_request_bytes,
            h_response_bytes,
            c_async_delivered,
            c_async_lost,
            c_async_duplicated,
            g_live_nodes,
            g_inflight,
            g_queue_depth,
            scratch: RoundScratch::default(),
        }
    }

    fn event(&mut self, round: u64, slot: u32, instance: u64, kind: EventKind, detail: u64) {
        self.inner.events.push(Event {
            round,
            slot,
            instance,
            kind,
            detail,
        });
    }

    /// Records the plan-derived half of one exchange: the started event,
    /// repair retransmissions, and aborts. Derived from the plan alone so
    /// it can be emitted on the driver thread in deterministic order.
    pub fn record_exchange_plan(&mut self, round: u64, plan: &PlannedExchange) {
        self.scratch.exchanges += 1;
        self.inner.metrics.add(self.c_exchanges, 1);
        self.event(
            round,
            plan.initiator.slot() as u32,
            0,
            EventKind::ExchangeStarted,
            plan.partner.slot() as u64,
        );
        let retransmissions = u64::from(plan.request_msgs.saturating_sub(1))
            + u64::from(plan.response_msgs.saturating_sub(1));
        if retransmissions > 0 {
            self.scratch.repairs += retransmissions;
            self.inner.metrics.add(self.c_repairs, retransmissions);
            self.event(
                round,
                plan.initiator.slot() as u32,
                0,
                EventKind::ExchangeRepaired,
                retransmissions,
            );
        }
        if plan.fate == ExchangeFate::Aborted {
            self.scratch.aborts += 1;
            self.inner.metrics.add(self.c_aborts, 1);
            self.event(
                round,
                plan.initiator.slot() as u32,
                0,
                EventKind::ExchangeAborted,
                plan.partner.slot() as u64,
            );
        }
    }

    /// Records `n` exchanges being applied concurrently (the cycle
    /// engine's widest conflict-free batch, at any thread count, or the
    /// deploy runtime's live in-flight count). The per-round peak lands in
    /// the round snapshot and the `inflight_exchanges` gauge.
    pub fn record_inflight_exchanges(&mut self, n: u64) {
        self.scratch.inflight_peak = self.scratch.inflight_peak.max(n);
    }

    /// Records an observed outbound-queue depth (deploy runtime; the
    /// in-memory simulator has no queues). The per-round peak lands in the
    /// round snapshot and the `queue_depth` gauge.
    pub fn record_queue_depth(&mut self, depth: u64) {
        self.scratch.queue_depth_peak = self.scratch.queue_depth_peak.max(depth);
    }

    /// Records a round-level loss-rate override from a fault scenario.
    pub fn record_fault_loss(&mut self, round: u64, loss_rate: f64) {
        self.scratch.faults += 1;
        self.inner.metrics.add(self.c_faults, 1);
        self.event(round, 0, 0, EventKind::FaultLoss, loss_rate.to_bits());
    }

    /// Records an active overlay partition (checksum identifies the cut).
    pub fn record_fault_partition(&mut self, round: u64, checksum: u64) {
        self.scratch.faults += 1;
        self.inner.metrics.add(self.c_faults, 1);
        self.event(round, 0, 0, EventKind::FaultPartition, checksum);
    }

    /// Records a round's attribute-drift wave; `drifted` = nodes mutated.
    pub fn record_fault_drift(&mut self, round: u64, drifted: u32) {
        self.scratch.faults += 1;
        self.inner.metrics.add(self.c_faults, 1);
        self.event(round, 0, 0, EventKind::FaultDrift, u64::from(drifted));
    }

    /// Records one node crash.
    pub fn record_crash(&mut self, round: u64, slot: u32) {
        self.scratch.crashes += 1;
        self.inner.metrics.add(self.c_crashes, 1);
        self.event(round, slot, 0, EventKind::FaultCrash, 0);
    }

    /// Records one node recovery.
    pub fn record_recovery(&mut self, round: u64, slot: u32) {
        self.scratch.recoveries += 1;
        self.inner.metrics.add(self.c_recoveries, 1);
        self.event(round, slot, 0, EventKind::FaultRecovery, 0);
    }

    /// Records one churn join.
    pub fn record_churn_join(&mut self, round: u64, slot: u32) {
        self.scratch.joins += 1;
        self.inner.metrics.add(self.c_joins, 1);
        self.event(round, slot, 0, EventKind::ChurnJoin, 0);
    }

    /// Records one churn leave.
    pub fn record_churn_leave(&mut self, round: u64, slot: u32) {
        self.scratch.leaves += 1;
        self.inner.metrics.add(self.c_leaves, 1);
        self.event(round, slot, 0, EventKind::ChurnLeave, 0);
    }

    /// Records self-healing restarts voted at one node this round.
    pub fn record_heal_bump(&mut self, round: u64, slot: u32, restarts: u64) {
        self.scratch.heal_bumps += restarts;
        self.inner.metrics.add(self.c_heal_bumps, restarts);
        self.event(round, slot, 0, EventKind::SelfHealBump, restarts);
    }

    /// Records the start of a protocol instance.
    pub fn record_instance_started(&mut self, round: u64, slot: u32, instance: u64) {
        self.event(round, slot, instance, EventKind::InstanceStarted, 0);
    }

    /// Records one delivered message in the event-driven engine. Counter
    /// only: per-message events would flood the ring at realistic rates.
    pub fn record_async_delivery(&mut self) {
        self.inner.metrics.add(self.c_async_delivered, 1);
    }

    /// Records one message lost in transit in the event-driven engine.
    pub fn record_async_loss(&mut self) {
        self.inner.metrics.add(self.c_async_lost, 1);
    }

    /// Records one message duplicated by the fault injector in the
    /// event-driven engine.
    pub fn record_async_duplicate(&mut self) {
        self.inner.metrics.add(self.c_async_duplicated, 1);
    }

    /// Creates a worker-local shard for the apply phase.
    pub fn shard(&self) -> TelemetryShard {
        TelemetryShard {
            metrics: self.inner.metrics.shard(),
            request_bytes: self.h_request_bytes,
            response_bytes: self.h_response_bytes,
            bootstraps: 0,
            robust_rejects: 0,
            robust_trims: 0,
        }
    }

    /// Folds a worker shard back in; call in deterministic chunk order.
    pub fn merge_shard(&mut self, shard: &TelemetryShard) {
        self.inner.metrics.merge_shard(&shard.metrics);
        if shard.bootstraps > 0 {
            self.scratch.bootstraps += shard.bootstraps;
            self.inner.metrics.add(self.c_bootstraps, shard.bootstraps);
        }
        if shard.robust_rejects > 0 {
            self.scratch.robust_rejects += shard.robust_rejects;
            self.inner
                .metrics
                .add(self.c_robust_rejects, shard.robust_rejects);
        }
        if shard.robust_trims > 0 {
            self.scratch.robust_trims += shard.robust_trims;
            self.inner
                .metrics
                .add(self.c_robust_trims, shard.robust_trims);
        }
    }

    /// Closes the round: folds the scratch counters plus the engine-known
    /// totals into a [`RoundSnapshot`] and resets the scratch.
    pub fn end_round(&mut self, round: u64, live_nodes: u64, round_bytes: u64, round_msgs: u64) {
        let s = self.scratch;
        let mut snap = RoundSnapshot::empty(round);
        snap.live_nodes = live_nodes;
        snap.round_bytes = round_bytes;
        snap.round_msgs = round_msgs;
        snap.exchanges = s.exchanges;
        snap.repairs = s.repairs;
        snap.aborts = s.aborts;
        snap.faults = s.faults;
        snap.crashes = s.crashes;
        snap.recoveries = s.recoveries;
        snap.joins = s.joins;
        snap.leaves = s.leaves;
        snap.heal_bumps = s.heal_bumps;
        snap.bootstraps = s.bootstraps;
        snap.robust_rejects = s.robust_rejects;
        snap.robust_trims = s.robust_trims;
        snap.inflight_exchanges = s.inflight_peak;
        snap.queue_depth_max = s.queue_depth_peak;
        let m = &mut self.inner.metrics;
        m.set(self.g_live_nodes, live_nodes as f64);
        m.set(self.g_inflight, s.inflight_peak as f64);
        m.set(self.g_queue_depth, s.queue_depth_peak as f64);
        self.inner.push_snapshot(snap);
        self.scratch = RoundScratch::default();
    }

    /// Annotates an already-recorded round with the harness-side
    /// measurements only the experiment driver can take (errors against
    /// ground truth, mass-auditor defects). NaN arguments leave the field
    /// unmeasured. Returns `false` when the round has no snapshot.
    pub fn annotate_round(
        &mut self,
        round: u64,
        err_max: f64,
        err_avg: f64,
        mass_weight_defect: f64,
        mass_fraction_defect: f64,
    ) -> bool {
        let Some(snap) = self.inner.snapshot_mut(round) else {
            return false;
        };
        if !err_max.is_nan() {
            snap.err_max = err_max;
        }
        if !err_avg.is_nan() {
            snap.err_avg = err_avg;
        }
        if !mass_weight_defect.is_nan() {
            snap.mass_weight_defect = mass_weight_defect;
        }
        if !mass_fraction_defect.is_nan() {
            snap.mass_fraction_defect = mass_fraction_defect;
        }
        true
    }

    /// The underlying telemetry store (metrics, events, snapshots).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner
    }

    /// Mutable access to the underlying telemetry store.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.inner
    }

    /// Exports `manifest.json` + `rounds.jsonl` + `rounds.csv` +
    /// `events.jsonl` under `dir`.
    pub fn export(&self, dir: &std::path::Path, manifest: &RunManifest) -> std::io::Result<()> {
        self.inner.export(dir, manifest)
    }
}

/// Worker-local telemetry shard for the apply phase: sharded
/// metrics plus the bootstrap tally, merged in chunk order by
/// [`SimTelemetry::merge_shard`].
#[derive(Debug, Clone)]
pub struct TelemetryShard {
    metrics: MetricShard,
    request_bytes: HistogramId,
    response_bytes: HistogramId,
    bootstraps: u64,
    robust_rejects: u64,
    robust_trims: u64,
}

impl TelemetryShard {
    /// Records the traffic-derived half of one exchange: message-size
    /// histograms, estimate bootstraps and robust-merge rejects and trims.
    pub fn record_traffic(&mut self, traffic: &ExchangeTraffic) {
        if let Some(bytes) = traffic.request {
            self.metrics.record(self.request_bytes, bytes as u64);
        }
        if let Some(bytes) = traffic.response {
            self.metrics.record(self.response_bytes, bytes as u64);
        }
        self.bootstraps += u64::from(traffic.bootstraps.count_ones());
        self.robust_rejects += u64::from(traffic.robust_rejects);
        self.robust_trims += u64::from(traffic.robust_trims);
    }
}

/// Borrowed, possibly-absent telemetry sink handed to protocols through
/// [`Ctx`](crate::Ctx). Every method is `#[inline]` and reduces to one
/// branch on `None` when telemetry is disabled, so instrumented protocol
/// code costs nothing in ordinary runs.
#[derive(Debug)]
pub struct TelemetryHandle<'a>(pub(crate) Option<&'a mut SimTelemetry>);

impl<'a> TelemetryHandle<'a> {
    /// A sink that drops everything (telemetry disabled).
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Wraps an optional mutable borrow of the engine's telemetry.
    pub(crate) fn new(inner: Option<&'a mut SimTelemetry>) -> Self {
        Self(inner)
    }

    /// Whether a telemetry store is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Reborrows the handle (e.g. to pass it down a call chain while
    /// keeping the original usable afterwards).
    #[inline]
    pub fn reborrow(&mut self) -> TelemetryHandle<'_> {
        TelemetryHandle(self.0.as_deref_mut())
    }

    /// Records self-healing restarts voted at one node this round.
    #[inline]
    pub fn record_heal_bump(&mut self, round: u64, slot: u32, restarts: u64) {
        if restarts == 0 {
            return;
        }
        if let Some(t) = self.0.as_deref_mut() {
            t.record_heal_bump(round, slot, restarts);
        }
    }

    /// Records the start of a protocol instance.
    #[inline]
    pub fn record_instance_started(&mut self, round: u64, slot: u32, instance: u64) {
        if let Some(t) = self.0.as_deref_mut() {
            t.record_instance_started(round, slot, instance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn plan(request_msgs: u32, response_msgs: u32, fate: ExchangeFate) -> PlannedExchange {
        PlannedExchange {
            initiator: NodeId::for_tests(0, 0),
            partner: NodeId::for_tests(1, 0),
            fate,
            request_msgs,
            response_msgs,
            attack: None,
        }
    }

    #[test]
    fn exchange_plan_counts_repairs_and_aborts() {
        let mut t = SimTelemetry::new();
        t.record_exchange_plan(3, &plan(1, 1, ExchangeFate::Complete));
        t.record_exchange_plan(3, &plan(3, 2, ExchangeFate::Complete));
        t.record_exchange_plan(3, &plan(3, 1, ExchangeFate::Aborted));
        t.end_round(3, 10, 0, 0);
        let snap = &t.telemetry().snapshots()[0];
        assert_eq!(snap.exchanges, 3);
        assert_eq!(snap.repairs, 3 + 2); // (2+1) + (2+0)
        assert_eq!(snap.aborts, 1);
        let kinds: Vec<_> = t.telemetry().events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::ExchangeStarted,
                EventKind::ExchangeStarted,
                EventKind::ExchangeRepaired,
                EventKind::ExchangeStarted,
                EventKind::ExchangeRepaired,
                EventKind::ExchangeAborted,
            ]
        );
    }

    #[test]
    fn end_round_resets_scratch() {
        let mut t = SimTelemetry::new();
        t.record_crash(0, 4);
        t.end_round(0, 9, 100, 2);
        t.end_round(1, 9, 0, 0);
        let snaps = t.telemetry().snapshots();
        assert_eq!(snaps[0].crashes, 1);
        assert_eq!(snaps[0].round_bytes, 100);
        assert_eq!(snaps[1].crashes, 0);
    }

    #[test]
    fn shard_traffic_merges_into_round() {
        let mut t = SimTelemetry::new();
        let mut shard = t.shard();
        shard.record_traffic(&ExchangeTraffic {
            request: Some(16),
            response: Some(32),
            bootstraps: 0b11,
            robust_rejects: 2,
            robust_trims: 5,
        });
        t.merge_shard(&shard);
        t.end_round(0, 2, 48, 2);
        assert_eq!(t.telemetry().snapshots()[0].bootstraps, 2);
        assert_eq!(t.telemetry().snapshots()[0].robust_rejects, 2);
        assert_eq!(t.telemetry().snapshots()[0].robust_trims, 5);
        let (_, hist) = t
            .telemetry()
            .metrics
            .histograms()
            .find(|(name, _)| *name == "exchange_request_bytes")
            .unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 16);
    }

    #[test]
    fn annotate_round_patches_latest_snapshot() {
        let mut t = SimTelemetry::new();
        t.end_round(0, 5, 0, 0);
        assert!(t.annotate_round(0, 0.5, 0.25, f64::NAN, 1e-9));
        let snap = &t.telemetry().snapshots()[0];
        assert_eq!(snap.err_max, 0.5);
        assert_eq!(snap.err_avg, 0.25);
        assert!(snap.mass_weight_defect.is_nan());
        assert_eq!(snap.mass_fraction_defect, 1e-9);
        assert!(!t.annotate_round(7, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn gauges_land_in_rounds_jsonl() {
        let mut t = SimTelemetry::new();
        t.record_exchange_plan(0, &plan(1, 1, ExchangeFate::Complete));
        t.record_inflight_exchanges(7);
        t.record_queue_depth(3);
        t.end_round(0, 42, 0, 1);
        // The gauges reflect the just-closed round...
        let gauges: std::collections::HashMap<&str, f64> = t.telemetry().metrics.gauges().collect();
        assert_eq!(gauges["live_nodes"], 42.0);
        assert_eq!(gauges["inflight_exchanges"], 7.0);
        assert_eq!(gauges["queue_depth"], 3.0);
        // ...and the per-round peaks are exported in rounds.jsonl.
        let dir = std::env::temp_dir().join(format!("adam2-gauge-export-{}", std::process::id()));
        let manifest = RunManifest::new("gauge-test", "default", 1, 1);
        t.export(&dir, &manifest).unwrap();
        let rounds = std::fs::read_to_string(dir.join("rounds.jsonl")).unwrap();
        assert!(rounds.contains("\"live_nodes\":42"), "{rounds}");
        assert!(rounds.contains("\"inflight_exchanges\":7"), "{rounds}");
        assert!(rounds.contains("\"queue_depth_max\":3"), "{rounds}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inflight_peak_resets_each_round() {
        let mut t = SimTelemetry::new();
        t.record_inflight_exchanges(1);
        t.end_round(0, 2, 0, 0);
        t.end_round(1, 2, 0, 0);
        let snaps = t.telemetry().snapshots();
        assert_eq!(snaps[0].inflight_exchanges, 1);
        assert_eq!(snaps[1].inflight_exchanges, 0);
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let mut h = TelemetryHandle::disabled();
        assert!(!h.is_enabled());
        h.record_heal_bump(0, 0, 3);
        h.record_instance_started(0, 0, 1);
    }
}
