//! Gossip-based equi-depth histogram estimation (Haridasan & van Renesse).
//!
//! Each node maintains a *synopsis*: a sorted, bounded set of boundary
//! samples approximating the equi-depth histogram of the attribute. A
//! phase starts with every participant's synopsis holding just its own
//! value; on each gossip exchange the two synopses are united and
//! recompressed to the configured number of bins, and both peers adopt the
//! merge. The global extrema are tracked exactly (pinned as the outermost
//! boundaries).
//!
//! The union step cannot tell whether two equal-ranked samples descend
//! from the *same* original value that travelled two gossip paths or from
//! two distinct values — the *sample duplication* problem. Early-mixing
//! values are therefore over-represented and the converged histogram
//! carries a persistent bias of a few percent, which restarting phases
//! does not remove (the same mixing process repeats). This is exactly the
//! behaviour the paper reports in Figs. 6(b) and 8, and the reason Adam2's
//! exact averaging wins by an order of magnitude.

use std::sync::Arc;

use rand::rngs::StdRng;

use adam2_core::{CdfError, InterpCdf};
use adam2_sim::{Ctx, ExchangeTraffic, LocalReport, NodeId, PlannedExchange, Protocol};

/// Configuration of the EquiDepth baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquiDepthConfig {
    /// Number of histogram boundaries kept in a synopsis (comparable to
    /// Adam2's λ).
    pub bins: usize,
    /// Gossip rounds per phase (comparable to Adam2's instance TTL).
    pub rounds_per_phase: u64,
}

impl Default for EquiDepthConfig {
    fn default() -> Self {
        Self {
            bins: 50,
            rounds_per_phase: 30,
        }
    }
}

impl EquiDepthConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2` or `rounds_per_phase` is zero.
    pub fn new(bins: usize, rounds_per_phase: u64) -> Self {
        assert!(bins >= 2, "bins must be at least 2");
        assert!(rounds_per_phase > 0, "rounds_per_phase must be positive");
        Self {
            bins,
            rounds_per_phase,
        }
    }
}

/// Phase metadata, fixed by the initiator and flooded with the phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseMeta {
    /// Unique phase identifier.
    pub id: u64,
    /// Round the phase started.
    pub start_round: u64,
    /// First round in which the phase is finalised.
    pub end_round: u64,
    /// Synopsis size.
    pub bins: usize,
}

/// A node's state for the running phase.
#[derive(Debug, Clone, PartialEq)]
struct PhaseLocal {
    meta: Arc<PhaseMeta>,
    /// Sorted boundary samples, at most `meta.bins` of them.
    synopsis: Vec<f64>,
    /// Exactly-merged global extrema.
    min: f64,
    max: f64,
}

impl PhaseLocal {
    fn join(meta: Arc<PhaseMeta>, value: f64) -> Self {
        Self {
            meta,
            synopsis: vec![value],
            min: value,
            max: value,
        }
    }

    /// Union + equi-depth recompression, adopted by both peers.
    fn merge_symmetric(a: &mut PhaseLocal, b: &mut PhaseLocal) {
        debug_assert_eq!(a.meta.id, b.meta.id, "phase id mismatch");
        let mut union = Vec::with_capacity(a.synopsis.len() + b.synopsis.len());
        union.extend_from_slice(&a.synopsis);
        union.extend_from_slice(&b.synopsis);
        union.sort_by(f64::total_cmp);
        let min = a.min.min(b.min);
        let max = a.max.max(b.max);
        let compressed = compress(&union, a.meta.bins, min, max);
        a.synopsis = compressed.clone();
        b.synopsis = compressed;
        a.min = min;
        b.min = min;
        a.max = max;
        b.max = max;
    }

    fn is_due(&self, round: u64) -> bool {
        round >= self.meta.end_round
    }

    /// The CDF estimate implied by the synopsis: boundary `i` of `s`
    /// approximates the `i/(s-1)` quantile.
    fn estimate(&self) -> Result<InterpCdf, CdfError> {
        if self.synopsis.len() < 2 {
            // A node that never exchanged knows only its own value.
            return InterpCdf::new(vec![(self.min, 0.0), (self.max, 1.0)]);
        }
        let s = self.synopsis.len();
        let knots: Vec<(f64, f64)> = self
            .synopsis
            .iter()
            .enumerate()
            .map(|(i, b)| (*b, i as f64 / (s - 1) as f64))
            .collect();
        InterpCdf::new(knots)
    }
}

/// Equi-depth recompression of a sorted union to `bins` boundaries, with
/// the exact extrema pinned at the ends.
fn compress(sorted_union: &[f64], bins: usize, min: f64, max: f64) -> Vec<f64> {
    let m = sorted_union.len();
    if m <= bins {
        let mut out = sorted_union.to_vec();
        if let Some(first) = out.first_mut() {
            *first = min;
        }
        if let Some(last) = out.last_mut() {
            *last = max;
        }
        return out;
    }
    let mut out = Vec::with_capacity(bins);
    for i in 0..bins {
        // Interpolated fractional ranks reduce the systematic quantile
        // bias of nearest-rank picking under repeated recompression.
        let rank = i as f64 / (bins - 1) as f64 * (m - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = (rank.ceil() as usize).min(m - 1);
        let frac = rank - lo as f64;
        out.push(sorted_union[lo] * (1.0 - frac) + sorted_union[hi] * frac);
    }
    out[0] = min;
    out[bins - 1] = max;
    out
}

/// Per-node state of the EquiDepth protocol.
#[derive(Debug, Clone)]
pub struct EquiDepthNode {
    value: f64,
    phase: Option<PhaseLocal>,
    estimate: Option<InterpCdf>,
    estimate_phase: Option<u64>,
    joined_round: u64,
}

impl EquiDepthNode {
    /// The node's attribute value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The node's latest completed estimate.
    pub fn estimate(&self) -> Option<&InterpCdf> {
        self.estimate.as_ref()
    }

    /// The phase id that produced the latest estimate.
    pub fn estimate_phase(&self) -> Option<u64> {
        self.estimate_phase
    }

    /// The node's current synopsis (empty slice when idle).
    pub fn synopsis(&self) -> &[f64] {
        self.phase
            .as_ref()
            .map(|p| p.synopsis.as_slice())
            .unwrap_or(&[])
    }

    /// Whether the node is participating in a running phase.
    pub fn in_phase(&self) -> bool {
        self.phase.is_some()
    }

    /// The CDF implied by the node's *current* synopsis, before the phase
    /// ends (used for per-round tracking, Fig. 6b).
    pub fn phase_estimate(&self) -> Option<InterpCdf> {
        self.phase.as_ref().and_then(|p| p.estimate().ok())
    }

    /// The round the node joined the system (0 for the initial
    /// population).
    pub fn joined_round(&self) -> u64 {
        self.joined_round
    }
}

/// The EquiDepth protocol driver.
pub struct EquiDepthProtocol {
    config: EquiDepthConfig,
    source: Box<dyn FnMut(&mut StdRng) -> f64 + Send + Sync>,
    next_phase_id: u64,
    started: Vec<Arc<PhaseMeta>>,
}

impl std::fmt::Debug for EquiDepthProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EquiDepthProtocol")
            .field("config", &self.config)
            .field("started", &self.started.len())
            .finish()
    }
}

impl EquiDepthProtocol {
    /// Creates a protocol drawing node values from `source`.
    pub fn new(
        config: EquiDepthConfig,
        source: impl FnMut(&mut StdRng) -> f64 + Send + Sync + 'static,
    ) -> Self {
        assert!(config.bins >= 2, "bins must be at least 2");
        assert!(
            config.rounds_per_phase > 0,
            "rounds_per_phase must be positive"
        );
        Self {
            config,
            source: Box::new(source),
            next_phase_id: 0,
            started: Vec::new(),
        }
    }

    /// Convenience constructor mirroring
    /// [`Adam2Protocol::with_population`](adam2_core::Adam2Protocol::with_population).
    pub fn with_population(
        config: EquiDepthConfig,
        initial: Vec<f64>,
        mut fresh: impl FnMut(&mut StdRng) -> f64 + Send + Sync + 'static,
    ) -> Self {
        let mut queue = std::collections::VecDeque::from(initial);
        Self::new(config, move |rng| {
            queue.pop_front().unwrap_or_else(|| fresh(rng))
        })
    }

    /// The configuration.
    pub fn config(&self) -> EquiDepthConfig {
        self.config
    }

    /// Metadata of every phase started so far.
    pub fn started_phases(&self) -> &[Arc<PhaseMeta>] {
        &self.started
    }

    /// Starts a new phase at `initiator` (used by the experiment harness
    /// with the same cadence as Adam2 instances).
    pub fn start_phase(
        &mut self,
        initiator: NodeId,
        ctx: &mut Ctx<'_, EquiDepthNode>,
    ) -> Option<Arc<PhaseMeta>> {
        let node = ctx.nodes.get_mut(initiator)?;
        self.next_phase_id += 1;
        let meta = Arc::new(PhaseMeta {
            id: self.next_phase_id,
            start_round: ctx.round,
            end_round: ctx.round + self.config.rounds_per_phase,
            bins: self.config.bins,
        });
        node.phase = Some(PhaseLocal::join(meta.clone(), node.value));
        self.started.push(meta.clone());
        Some(meta)
    }

    fn finalize_due(node: &mut EquiDepthNode, round: u64) {
        let due = node
            .phase
            .as_ref()
            .map(|p| p.is_due(round))
            .unwrap_or(false);
        if due {
            let phase = node.phase.take().expect("phase checked above");
            if let Ok(est) = phase.estimate() {
                node.estimate = Some(est);
                node.estimate_phase = Some(phase.meta.id);
            }
        }
    }
}

impl Protocol for EquiDepthProtocol {
    type Node = EquiDepthNode;

    fn make_node(&mut self, rng: &mut StdRng) -> EquiDepthNode {
        EquiDepthNode {
            value: (self.source)(rng),
            phase: None,
            estimate: None,
            estimate_phase: None,
            joined_round: 0,
        }
    }

    fn local(
        &self,
        _id: NodeId,
        node: &mut EquiDepthNode,
        round: u64,
        _rng: &mut StdRng,
    ) -> LocalReport {
        Self::finalize_due(node, round);
        LocalReport {
            initiates: true,
            ..LocalReport::default()
        }
    }

    /// A phase still held here is running: [`local`](Protocol::local)
    /// finalised the due ones before the round's first exchange.
    fn apply(
        &self,
        _: &PlannedExchange,
        _round: u64,
        a: &mut EquiDepthNode,
        b: &mut EquiDepthNode,
    ) -> ExchangeTraffic {
        // Phase discovery: the receiver joins with its own value, exactly
        // like Adam2's instance join; late system-joiners ignore running
        // phases (evaluation parity with Adam2).
        fn discover(holder: &EquiDepthNode, other: &mut EquiDepthNode) {
            if let Some(p) = &holder.phase {
                if other.phase.is_none() && other.joined_round <= p.meta.start_round {
                    other.phase = Some(PhaseLocal::join(p.meta.clone(), other.value));
                }
            }
        }
        discover(a, b);
        discover(b, a);

        // Message cost: one synopsis per direction (8 B per boundary plus
        // a small header), mirroring the paper's "similar information"
        // cost comparison.
        let payload =
            |n: &EquiDepthNode| 2 + n.phase.as_ref().map_or(0, |p| 29 + p.synopsis.len() * 8);
        let traffic = ExchangeTraffic {
            request: Some(payload(a)),
            response: Some(payload(b)),
            ..ExchangeTraffic::default()
        };
        if let (Some(pa), Some(pb)) = (a.phase.as_mut(), b.phase.as_mut()) {
            if pa.meta.id == pb.meta.id {
                PhaseLocal::merge_symmetric(pa, pb);
            }
        }
        traffic
    }

    fn on_join(&mut self, id: NodeId, ctx: &mut Ctx<'_, EquiDepthNode>) {
        let round = ctx.round;
        // Inherit a current estimate from a neighbour, like Adam2 joiners.
        let mut bootstrap = None;
        for _ in 0..8 {
            let Some(nb) = ctx.random_neighbour(id) else {
                break;
            };
            if let Some(node) = ctx.nodes.get(nb) {
                if node.estimate.is_some() {
                    bootstrap = Some((node.estimate.clone(), node.estimate_phase));
                    break;
                }
            }
        }
        if let Some(node) = ctx.nodes.get_mut(id) {
            node.joined_round = round;
            if let Some((est, phase)) = bootstrap {
                node.estimate = est;
                node.estimate_phase = phase;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adam2_core::{discrete_avg_distance, discrete_max_distance, StepCdf};
    use adam2_sim::{Engine, EngineConfig};
    use rand::RngExt as _;

    fn run_phase(engine: &mut Engine<EquiDepthProtocol>) -> Arc<PhaseMeta> {
        let meta = engine
            .with_ctx(|proto, ctx| {
                let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
                proto.start_phase(initiator, ctx)
            })
            .expect("phase started");
        let rounds = engine.protocol().config().rounds_per_phase + 1;
        engine.run_rounds(rounds);
        meta
    }

    fn smooth_engine(n: usize, seed: u64) -> (Engine<EquiDepthProtocol>, StepCdf) {
        let mut rng = adam2_sim::seeded_rng(seed);
        let values: Vec<f64> = (0..n)
            .map(|_| (rng.random::<f64>() * 1000.0).round().max(1.0))
            .collect();
        let truth = StepCdf::from_values(values.clone());
        let proto =
            EquiDepthProtocol::with_population(EquiDepthConfig::new(50, 30), values, |rng| {
                (rng.random::<f64>() * 1000.0).round().max(1.0)
            });
        (Engine::new(EngineConfig::new(n, seed), proto), truth)
    }

    #[test]
    fn compress_pins_extrema_and_respects_bins() {
        let union: Vec<f64> = (0..100).map(f64::from).collect();
        let c = compress(&union, 10, -5.0, 200.0);
        assert_eq!(c.len(), 10);
        assert_eq!(c[0], -5.0);
        assert_eq!(c[9], 200.0);
        assert!(c.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn compress_short_input_is_kept() {
        let c = compress(&[1.0, 2.0, 3.0], 10, 1.0, 3.0);
        assert_eq!(c, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn phase_produces_estimates_everywhere() {
        let (mut engine, truth) = smooth_engine(300, 5);
        run_phase(&mut engine);
        let mut count = 0;
        for (_, node) in engine.nodes().iter() {
            let est = node.estimate().expect("estimate after phase");
            let err = discrete_max_distance(&truth, est);
            assert!(err < 0.35, "wildly wrong estimate: {err}");
            count += 1;
        }
        assert_eq!(count, 300);
    }

    #[test]
    fn accuracy_plateaus_at_a_few_percent() {
        let (mut engine, truth) = smooth_engine(1000, 7);
        run_phase(&mut engine);
        let (_, node) = engine.nodes().iter().next().unwrap();
        let err = discrete_avg_distance(&truth, node.estimate().unwrap());
        // The paper reports ~1-3% average error for EquiDepth; sample
        // duplication keeps it well above Adam2's 1e-4 level.
        assert!(err < 0.1, "error too large: {err}");
        assert!(
            err > 1e-4,
            "suspiciously exact — duplication bias missing: {err}"
        );
    }

    #[test]
    fn phases_do_not_improve_across_repetitions() {
        let (mut engine, truth) = smooth_engine(500, 9);
        let mut errors = Vec::new();
        for _ in 0..3 {
            run_phase(&mut engine);
            let (_, node) = engine.nodes().iter().next().unwrap();
            errors.push(discrete_max_distance(&truth, node.estimate().unwrap()));
        }
        // Unlike Adam2, no systematic refinement: later phases are not
        // meaningfully better than the first.
        let first = errors[0];
        let last = *errors.last().unwrap();
        assert!(
            last > first / 3.0,
            "equidepth unexpectedly refined: {errors:?}"
        );
    }

    #[test]
    fn synopsis_respects_bin_bound() {
        let (mut engine, _) = smooth_engine(200, 11);
        engine.with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.start_phase(initiator, ctx)
        });
        for _ in 0..10 {
            engine.run_round();
            for (_, node) in engine.nodes().iter() {
                assert!(node.synopsis().len() <= 50);
            }
        }
    }

    #[test]
    fn traffic_is_comparable_to_adam2() {
        let (mut engine, _) = smooth_engine(100, 13);
        run_phase(&mut engine);
        let per_node = engine.net().total_bytes() as f64 / 100.0;
        // ~30 rounds x 2 messages x ~430 B => tens of kB, like Adam2.
        assert!(
            per_node > 5_000.0 && per_node < 60_000.0,
            "per node {per_node}"
        );
    }
}
