//! Gossip-averaged equi-width histograms — an ablation baseline.
//!
//! This baseline uses exactly Adam2's mass-conserving push–pull averaging
//! but over a *fixed* equi-width binning of the attribute domain chosen at
//! phase start: node `p` contributes a one-hot mass vector for the bin
//! containing `A(p)`, and the averages converge to the exact per-bin
//! fractions. There is no threshold refinement.
//!
//! Comparing it against full Adam2 separates the paper's two ingredients:
//! exact averaging (shared) and adaptive interpolation-point placement
//! (Adam2 only). On smooth CDFs equi-width bins waste resolution in empty
//! regions; on stepped CDFs a bin that straddles a step cannot say where
//! inside the bin the step sits — a quantization floor of up to one bin's
//! mass that no amount of gossip precision removes. This is an extension
//! beyond the paper, flagged in DESIGN.md.

use std::sync::Arc;

use rand::rngs::StdRng;

use adam2_core::{CdfError, InterpCdf};
use adam2_sim::{Ctx, ExchangeTraffic, LocalReport, NodeId, PlannedExchange, Protocol};

/// Configuration of the equi-width baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquiWidthConfig {
    /// Number of fixed-width bins (comparable to Adam2's λ).
    pub bins: usize,
    /// Gossip rounds per phase.
    pub rounds_per_phase: u64,
    /// Attribute domain the bins partition (like the paper's PeerSim
    /// setup, the simulator grants the baseline the true domain).
    pub domain: (f64, f64),
}

impl EquiWidthConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 1`, `rounds_per_phase` is zero, or the domain is
    /// not a finite, non-empty range.
    pub fn new(bins: usize, rounds_per_phase: u64, domain: (f64, f64)) -> Self {
        assert!(bins >= 1, "bins must be at least 1");
        assert!(rounds_per_phase > 0, "rounds_per_phase must be positive");
        assert!(
            domain.0.is_finite() && domain.1.is_finite() && domain.0 < domain.1,
            "domain must be a finite non-empty range"
        );
        Self {
            bins,
            rounds_per_phase,
            domain,
        }
    }

    /// The bin of `value` under right-closed bins `(e_i, e_{i+1}]`,
    /// matching the CDF convention `F(x) = P[A <= x]` so bin-edge values
    /// are counted by the estimate at their edge.
    fn bin_of(&self, value: f64) -> usize {
        let (lo, hi) = self.domain;
        let width = (hi - lo) / self.bins as f64;
        let bin = ((value - lo) / width).ceil() as isize - 1;
        bin.clamp(0, self.bins as isize - 1) as usize
    }

    fn edge(&self, i: usize) -> f64 {
        let (lo, hi) = self.domain;
        lo + (hi - lo) * i as f64 / self.bins as f64
    }
}

/// Phase metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthPhaseMeta {
    /// Unique phase identifier.
    pub id: u64,
    /// Round the phase started.
    pub start_round: u64,
    /// First round in which the phase is finalised.
    pub end_round: u64,
    /// The binning in force for this phase.
    pub config: EquiWidthConfig,
}

#[derive(Debug, Clone, PartialEq)]
struct WidthPhaseLocal {
    meta: Arc<WidthPhaseMeta>,
    /// Running per-bin mass averages (converge to the bin fractions).
    masses: Vec<f64>,
}

impl WidthPhaseLocal {
    fn join(meta: Arc<WidthPhaseMeta>, value: f64) -> Self {
        let mut masses = vec![0.0; meta.config.bins];
        masses[meta.config.bin_of(value)] = 1.0;
        Self { meta, masses }
    }

    fn merge_symmetric(a: &mut WidthPhaseLocal, b: &mut WidthPhaseLocal) {
        debug_assert_eq!(a.meta.id, b.meta.id, "phase id mismatch");
        for (ma, mb) in a.masses.iter_mut().zip(&mut b.masses) {
            let mean = (*ma + *mb) / 2.0;
            *ma = mean;
            *mb = mean;
        }
    }

    fn is_due(&self, round: u64) -> bool {
        round >= self.meta.end_round
    }

    /// CDF estimate: cumulative bin masses at the bin edges.
    fn estimate(&self) -> Result<InterpCdf, CdfError> {
        let mut knots = Vec::with_capacity(self.masses.len() + 1);
        knots.push((self.meta.config.edge(0), 0.0));
        let mut cumulative = 0.0;
        for (i, mass) in self.masses.iter().enumerate() {
            cumulative += mass;
            knots.push((self.meta.config.edge(i + 1), cumulative.clamp(0.0, 1.0)));
        }
        if let Some(last) = knots.last_mut() {
            last.1 = 1.0;
        }
        InterpCdf::new(knots)
    }
}

/// Per-node state of the equi-width protocol.
#[derive(Debug, Clone)]
pub struct EquiWidthNode {
    value: f64,
    phase: Option<WidthPhaseLocal>,
    estimate: Option<InterpCdf>,
    joined_round: u64,
}

impl EquiWidthNode {
    /// The node's attribute value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The node's latest completed estimate.
    pub fn estimate(&self) -> Option<&InterpCdf> {
        self.estimate.as_ref()
    }

    /// The node's current per-bin mass averages (empty when idle).
    pub fn masses(&self) -> &[f64] {
        self.phase
            .as_ref()
            .map(|p| p.masses.as_slice())
            .unwrap_or(&[])
    }
}

/// The equi-width histogram protocol driver.
pub struct EquiWidthProtocol {
    config: EquiWidthConfig,
    source: Box<dyn FnMut(&mut StdRng) -> f64 + Send + Sync>,
    next_phase_id: u64,
}

impl std::fmt::Debug for EquiWidthProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EquiWidthProtocol")
            .field("config", &self.config)
            .finish()
    }
}

impl EquiWidthProtocol {
    /// Creates a protocol drawing node values from `source`.
    pub fn new(
        config: EquiWidthConfig,
        source: impl FnMut(&mut StdRng) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Self {
            config,
            source: Box::new(source),
            next_phase_id: 0,
        }
    }

    /// Convenience constructor mirroring the other protocols.
    pub fn with_population(
        config: EquiWidthConfig,
        initial: Vec<f64>,
        mut fresh: impl FnMut(&mut StdRng) -> f64 + Send + Sync + 'static,
    ) -> Self {
        let mut queue = std::collections::VecDeque::from(initial);
        Self::new(config, move |rng| {
            queue.pop_front().unwrap_or_else(|| fresh(rng))
        })
    }

    /// The configuration.
    pub fn config(&self) -> EquiWidthConfig {
        self.config
    }

    /// Starts a new phase at `initiator`.
    pub fn start_phase(
        &mut self,
        initiator: NodeId,
        ctx: &mut Ctx<'_, EquiWidthNode>,
    ) -> Option<Arc<WidthPhaseMeta>> {
        let node = ctx.nodes.get_mut(initiator)?;
        self.next_phase_id += 1;
        let meta = Arc::new(WidthPhaseMeta {
            id: self.next_phase_id,
            start_round: ctx.round,
            end_round: ctx.round + self.config.rounds_per_phase,
            config: self.config,
        });
        node.phase = Some(WidthPhaseLocal::join(meta.clone(), node.value));
        Some(meta)
    }
}

impl Protocol for EquiWidthProtocol {
    type Node = EquiWidthNode;

    fn make_node(&mut self, rng: &mut StdRng) -> EquiWidthNode {
        EquiWidthNode {
            value: (self.source)(rng),
            phase: None,
            estimate: None,
            joined_round: 0,
        }
    }

    fn local(
        &self,
        _id: NodeId,
        node: &mut EquiWidthNode,
        round: u64,
        _rng: &mut StdRng,
    ) -> LocalReport {
        if node.phase.as_ref().is_some_and(|p| p.is_due(round)) {
            let phase = node.phase.take().expect("phase checked above");
            if let Ok(est) = phase.estimate() {
                node.estimate = Some(est);
            }
        }
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
        a: &mut EquiWidthNode,
        b: &mut EquiWidthNode,
    ) -> ExchangeTraffic {
        // Phase discovery: the receiver joins with its own value, exactly
        // like Adam2's instance join; late system-joiners ignore running
        // phases (evaluation parity with Adam2).
        fn discover(holder: &EquiWidthNode, other: &mut EquiWidthNode) {
            if let Some(p) = &holder.phase {
                if other.phase.is_none() && other.joined_round <= p.meta.start_round {
                    other.phase = Some(WidthPhaseLocal::join(p.meta.clone(), other.value));
                }
            }
        }
        discover(a, b);
        discover(b, a);

        // Message cost: 8 B per bin mass plus a small header, per direction.
        let payload =
            |n: &EquiWidthNode| 2 + n.phase.as_ref().map_or(0, |p| 29 + p.masses.len() * 8);
        let traffic = ExchangeTraffic {
            request: Some(payload(a)),
            response: Some(payload(b)),
            ..ExchangeTraffic::default()
        };
        if let (Some(pa), Some(pb)) = (a.phase.as_mut(), b.phase.as_mut()) {
            if pa.meta.id == pb.meta.id {
                WidthPhaseLocal::merge_symmetric(pa, pb);
            }
        }
        traffic
    }

    fn on_join(&mut self, id: NodeId, ctx: &mut Ctx<'_, EquiWidthNode>) {
        let round = ctx.round;
        if let Some(node) = ctx.nodes.get_mut(id) {
            node.joined_round = round;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adam2_core::{discrete_max_distance, point_errors, StepCdf};
    use adam2_sim::{Engine, EngineConfig};

    fn run_phase(engine: &mut Engine<EquiWidthProtocol>) {
        engine.with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.start_phase(initiator, ctx)
        });
        let rounds = engine.protocol().config().rounds_per_phase + 1;
        engine.run_rounds(rounds);
    }

    #[test]
    fn bin_assignment_and_edges() {
        let c = EquiWidthConfig::new(10, 30, (0.0, 100.0));
        assert_eq!(c.bin_of(0.0), 0);
        assert_eq!(c.bin_of(9.9), 0);
        assert_eq!(
            c.bin_of(10.0),
            0,
            "edge values belong to the lower bin (F is <=)"
        );
        assert_eq!(c.bin_of(10.1), 1);
        assert_eq!(c.bin_of(99.9), 9);
        assert_eq!(c.bin_of(100.0), 9);
        assert_eq!(c.bin_of(-5.0), 0, "out-of-domain clamps");
        assert_eq!(c.edge(0), 0.0);
        assert_eq!(c.edge(10), 100.0);
    }

    #[test]
    fn bin_fractions_converge_exactly() {
        // 100 nodes, values 1..=100, 10 bins over (0, 100]: every bin has
        // exactly 10% of the mass.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let truth = StepCdf::from_values(values.clone());
        let config = EquiWidthConfig::new(10, 40, (0.0, 100.0));
        let proto = EquiWidthProtocol::with_population(config, values, |_| 1.0);
        let mut engine = Engine::new(EngineConfig::new(100, 71), proto);
        run_phase(&mut engine);
        for (_, node) in engine.nodes().iter() {
            let est = node.estimate().expect("estimate");
            // Edges are at multiples of 10; F is exact there.
            let edges: Vec<f64> = (1..=10).map(|i| i as f64 * 10.0).collect();
            let fractions: Vec<f64> = edges.iter().map(|e| est.eval(*e)).collect();
            let (max_err, _) = point_errors(&truth, &edges, &fractions);
            assert!(max_err < 1e-9, "bin fractions not exact: {max_err}");
        }
    }

    #[test]
    fn quantization_floor_on_steps() {
        // All mass at one value inside a bin: the estimate cannot know
        // where inside the bin the step sits.
        let values = vec![55.0; 200];
        let truth = StepCdf::from_values(values.clone());
        let config = EquiWidthConfig::new(10, 40, (0.0, 100.0));
        let proto = EquiWidthProtocol::with_population(config, values, |_| 55.0);
        let mut engine = Engine::new(EngineConfig::new(200, 72), proto);
        run_phase(&mut engine);
        let (_, node) = engine.nodes().iter().next().unwrap();
        let err = discrete_max_distance(&truth, node.estimate().unwrap());
        assert!(err > 0.3, "quantization floor missing: {err}");
    }

    #[test]
    fn mass_is_conserved_mid_phase() {
        let values: Vec<f64> = (1..=64).map(f64::from).collect();
        let config = EquiWidthConfig::new(8, 50, (0.0, 64.0));
        let proto = EquiWidthProtocol::with_population(config, values, |_| 1.0);
        let mut engine = Engine::new(EngineConfig::new(64, 73), proto);
        engine.with_ctx(|proto, ctx| {
            let initiator = ctx.nodes.random_id(ctx.rng).expect("nodes");
            proto.start_phase(initiator, ctx)
        });
        for _ in 0..20 {
            engine.run_round();
            let mut total = 0.0;
            let mut participants = 0;
            for (_, node) in engine.nodes().iter() {
                if !node.masses().is_empty() {
                    total += node.masses().iter().sum::<f64>();
                    participants += 1;
                }
            }
            assert!(
                (total - participants as f64).abs() < 1e-9,
                "bin mass leaked: {total} vs {participants}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "domain must be a finite non-empty range")]
    fn rejects_empty_domain() {
        EquiWidthConfig::new(10, 30, (5.0, 5.0));
    }
}
