//! Minimal fork–join executor for the engines' threaded phases.
//!
//! The workspace builds offline without rayon, so the round phases use
//! plain `std::thread::scope` fan-out over contiguous chunks. Work
//! items are pre-partitioned (no work stealing): every phase of a round
//! splits its input into at most `threads` chunks, processes the last one
//! on the calling thread and the others on scoped threads, and joins
//! before the next phase. A fork–join costs one spawn per *extra* thread —
//! 95 µs for two spawns measured on a 2-core VM — which is why the event
//! engine batches ticks into windows and a threaded cycle round forks
//! exactly three times: once each for local and plan, and once for all of
//! apply's batches, its workers meeting at a barrier between batches
//! (`Engine::apply_batches`, which spawns its own workers). For
//! `threads <= 1` the helpers here and that apply call their work inline
//! with zero spawn overhead, so the engines run on any machine.
//!
//! Determinism note: chunk boundaries depend on the thread count, but every
//! closure the engine passes here derives its randomness from the item's
//! identity (node slot), never from the chunk, and all reductions are
//! commutative sums — which is why `Engine::run_round` produces
//! bit-identical results for every thread count.

/// Chunk size that spreads `total` items over at most `threads` chunks.
pub(crate) fn chunk_len(total: usize, threads: usize) -> usize {
    total.div_ceil(threads.max(1)).max(1)
}

/// Runs `f(base_index, a_chunk, b_chunk)` over aligned contiguous chunks of
/// two equal-length slices, on up to `threads` threads including the
/// caller's.
///
/// # Panics
///
/// Panics if the slices differ in length or a worker panics.
pub(crate) fn par_zip<A, B, F>(a: &mut [A], b: &mut [B], threads: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert_eq!(a.len(), b.len(), "par_zip slices must align");
    if threads <= 1 || a.len() < 2 {
        f(0, a, b);
        return;
    }
    let chunk = chunk_len(a.len(), threads);
    std::thread::scope(|scope| {
        let mut base = 0;
        let mut a_rest = a;
        let mut b_rest = b;
        while !a_rest.is_empty() {
            let take = chunk.min(a_rest.len());
            let (a_chunk, a_tail) = a_rest.split_at_mut(take);
            let (b_chunk, b_tail) = b_rest.split_at_mut(take);
            a_rest = a_tail;
            b_rest = b_tail;
            if a_rest.is_empty() {
                f(base, a_chunk, b_chunk);
            } else {
                let f = &f;
                scope.spawn(move || f(base, a_chunk, b_chunk));
            }
            base += take;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_zip_visits_every_index_once() {
        for threads in [1, 2, 3, 8] {
            let mut idx: Vec<usize> = (0..100).collect();
            let mut out = vec![0usize; 100];
            par_zip(&mut idx, &mut out, threads, |base, idx, out| {
                for (i, (src, dst)) in idx.iter().zip(out.iter_mut()).enumerate() {
                    assert_eq!(*src, base + i, "chunk base misaligned");
                    *dst = src * 2;
                }
            });
            assert!(out.iter().enumerate().all(|(i, v)| *v == i * 2));
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_safe() {
        let mut empty: [u32; 0] = [];
        let mut empty_out: [u32; 0] = [];
        par_zip(&mut empty, &mut empty_out, 4, |_, a, _| {
            assert!(a.is_empty())
        });
        let mut one = [7u32];
        let mut out = [0u32];
        par_zip(&mut one, &mut out, 4, |_, a, b| b[0] = a[0] + 1);
        assert_eq!(out[0], 8);
    }
}
