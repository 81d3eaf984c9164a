//! Deterministic RNG helpers.
//!
//! Every stochastic component of the simulator is seeded explicitly so that
//! experiments are reproducible run-to-run. When one seed must drive several
//! independent streams (population generation, engine execution, evaluation
//! sampling, ...), [`derive_seed`] decorrelates them.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Creates a deterministic [`StdRng`] from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use rand::RngExt as _;
/// let mut a = adam2_sim::seeded_rng(7);
/// let mut b = adam2_sim::seeded_rng(7);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent stream seed from a base seed and a stream index
/// using the SplitMix64 finalizer.
///
/// Adjacent `(seed, stream)` pairs produce well-decorrelated outputs, so
/// `seeded_rng(derive_seed(s, 0))` and `seeded_rng(derive_seed(s, 1))` can
/// be used as independent generators.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter-based per-node RNG stream for the cycle engine's round phases.
///
/// Builds a generator unique to `(base, round, slot, phase)` by chaining
/// [`derive_seed`]. Because the stream identity depends only on those four
/// counters — never on thread assignment or execution order — a round
/// draws identical random sequences regardless of how many worker threads
/// process the nodes, which is what makes `Engine::run_round`
/// bit-deterministic across thread counts.
pub fn par_stream_rng(base: u64, round: u64, slot: u64, phase: u64) -> StdRng {
    seeded_rng(derive_seed(
        derive_seed(derive_seed(base, round), slot),
        phase,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt as _;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(123);
        let mut b = seeded_rng(123);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn derived_streams_differ() {
        let s0 = derive_seed(42, 0);
        let s1 = derive_seed(42, 1);
        assert_ne!(s0, s1);
        let mut a = seeded_rng(s0);
        let mut b = seeded_rng(s1);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn par_streams_are_deterministic_and_decorrelated() {
        let mut a = par_stream_rng(9, 4, 17, 0);
        let mut b = par_stream_rng(9, 4, 17, 0);
        assert_eq!(a.random::<u64>(), b.random::<u64>());
        // Any counter change yields a different stream.
        for (round, slot, phase) in [(5, 17, 0), (4, 18, 0), (4, 17, 1)] {
            let mut c = par_stream_rng(9, round, slot, phase);
            let mut d = par_stream_rng(9, 4, 17, 0);
            assert_ne!(c.random::<u64>(), d.random::<u64>());
        }
    }
}
