//! Deterministic socket-level fault injection.
//!
//! The simulator expresses faults through `FaultScenario` (burst loss windows,
//! extra delay, duplication). The deploy runtime cannot intercept the
//! scheduler — there is none — so loss is injected at the socket edge
//! instead: before the initiator opens a connection for a request, and
//! before the responder writes a response back. Both decisions are pure
//! functions of `(seed, seq, attempt, direction)` so a run is reproducible
//! regardless of thread interleaving, and so the *retransmission* of a
//! dropped frame (a new attempt number) rolls fresh dice, exactly like the
//! per-delivery loss draw in the simulator.

use adam2_sim::FaultScenario;

/// Which half of an exchange a loss draw applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The initiator's request frame (dropped before connecting).
    Request,
    /// The responder's response frame (dropped after the state merge, which
    /// reproduces the "response lost" perturbation the repair path heals).
    Response,
}

impl Direction {
    fn tag(self) -> u64 {
        match self {
            Direction::Request => 0x52_45_51,
            Direction::Response => 0x52_45_53,
        }
    }
}

/// Loss/delay policy shared by every node of a cluster.
#[derive(Debug, Clone, Default)]
pub struct LossShim {
    seed: u64,
    flat_rate: f64,
    scenario: Option<FaultScenario>,
}

impl LossShim {
    /// A shim that never drops or delays anything.
    pub fn none() -> Self {
        Self::default()
    }

    /// Drop every frame independently with probability `rate`.
    pub fn flat(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            flat_rate: rate.clamp(0.0, 1.0),
            scenario: None,
        }
    }

    /// Reuse the simulator's fault windows: the drop probability and extra
    /// delay for a frame follow `scenario.loss_rate_at` / `extra_delay_at`
    /// for the gossip round the frame is sent in.
    pub fn from_scenario(seed: u64, scenario: FaultScenario) -> Self {
        Self {
            seed,
            flat_rate: 0.0,
            scenario: Some(scenario),
        }
    }

    /// True when no configuration can ever drop a frame.
    pub fn is_noop(&self) -> bool {
        self.flat_rate == 0.0 && self.scenario.is_none()
    }

    fn rate_at(&self, round: u64) -> f64 {
        match &self.scenario {
            Some(s) => s.loss_rate_at(round).unwrap_or(0.0),
            None => self.flat_rate,
        }
    }

    /// Extra per-frame delay, in gossip ticks, active at `round`.
    pub fn extra_delay_ticks(&self, round: u64) -> u64 {
        self.scenario
            .as_ref()
            .map(|s| s.extra_delay_at(round))
            .unwrap_or(0)
    }

    /// Deterministic loss draw for one delivery attempt of one frame.
    pub fn should_drop(&self, round: u64, seq: u64, attempt: u32, direction: Direction) -> bool {
        let rate = self.rate_at(round);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix(
            self.seed
                ^ seq.rotate_left(17)
                ^ u64::from(attempt).rotate_left(41)
                ^ direction.tag().rotate_left(7),
        );
        // Map the top 53 bits to [0, 1): the full-precision uniform draw.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed hash for the loss draw.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_shim_never_drops() {
        let shim = LossShim::none();
        assert!(shim.is_noop());
        for seq in 0..200 {
            assert!(!shim.should_drop(3, seq, 0, Direction::Request));
            assert!(!shim.should_drop(3, seq, 1, Direction::Response));
        }
        assert_eq!(shim.extra_delay_ticks(5), 0);
    }

    #[test]
    fn draws_are_deterministic_and_keyed() {
        let shim = LossShim::flat(42, 0.5);
        let a = shim.should_drop(0, 7, 0, Direction::Request);
        let b = shim.should_drop(0, 7, 0, Direction::Request);
        assert_eq!(a, b, "same key must give the same draw");

        // Different attempts and directions decorrelate: over many seqs the
        // four keys can't all agree everywhere.
        let mut any_disagreement = false;
        for seq in 0..64 {
            let r0 = shim.should_drop(0, seq, 0, Direction::Request);
            let r1 = shim.should_drop(0, seq, 1, Direction::Request);
            let s0 = shim.should_drop(0, seq, 0, Direction::Response);
            if r0 != r1 || r0 != s0 {
                any_disagreement = true;
                break;
            }
        }
        assert!(any_disagreement, "attempt/direction must enter the key");
    }

    #[test]
    fn flat_rate_is_approximately_honoured() {
        let shim = LossShim::flat(9, 0.1);
        let trials = 20_000;
        let dropped = (0..trials)
            .filter(|&seq| shim.should_drop(1, seq, 0, Direction::Request))
            .count();
        let observed = dropped as f64 / trials as f64;
        assert!(
            (observed - 0.1).abs() < 0.01,
            "observed drop rate {observed} too far from 0.1"
        );
    }

    #[test]
    fn scenario_windows_gate_the_rate() {
        let scenario = FaultScenario::new(1).with_burst_loss(10, 20, 0.9);
        let shim = LossShim::from_scenario(5, scenario);
        // Outside the window nothing drops.
        for seq in 0..100 {
            assert!(!shim.should_drop(5, seq, 0, Direction::Request));
            assert!(!shim.should_drop(25, seq, 0, Direction::Response));
        }
        // Inside the window the 0.9 rate bites almost always.
        let dropped = (0..1000)
            .filter(|&seq| shim.should_drop(15, seq, 0, Direction::Request))
            .count();
        assert!(dropped > 800, "only {dropped}/1000 dropped at rate 0.9");
    }

    #[test]
    fn extremes_short_circuit() {
        let always = LossShim::flat(0, 1.0);
        let never = LossShim::flat(0, 0.0);
        for seq in 0..32 {
            assert!(always.should_drop(0, seq, 0, Direction::Request));
            assert!(!never.should_drop(0, seq, 0, Direction::Request));
        }
    }
}
