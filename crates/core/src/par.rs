//! Bounded parallel-map and join helpers for the training fan-out.
//!
//! Training work (per-kernel classification, per-cluster pooled refits) is
//! an embarrassingly parallel grid over an ordered slice. This module
//! adapts the scheduler's work-stealing [`dnnperf_sched::run_indexed`] —
//! the same pool the dataset collection engine runs on — into a slice map
//! that returns results *in input order*, so the parallel path is
//! byte-identical to the serial one. Scheduling is nondeterministic;
//! output never is.
//!
//! The helper is deliberately index-free on the caller side (`get` +
//! `flatten` rather than `items[i]`): it sits on the panic-policy hot path
//! (a stray panic would tear down a training worker), so no slice indexing
//! and no panic-family macros.
//!
//! Items are submitted to the pool in contiguous *chunks*, not one job per
//! item. The pool pays a mutex round-trip per job popped, and individual
//! classification fits run in single-digit microseconds — per-item jobs
//! would spend more time on deque traffic than on work. A handful of
//! chunks per worker keeps the steal granularity coarse enough to
//! amortise that overhead while still letting fast workers steal from
//! slow ones. Chunk boundaries never affect output: each chunk maps its
//! slice serially in order and the chunks are re-joined in index order.

use dnnperf_sched::run_indexed;

/// Target number of chunks handed to each worker. More than one so that
/// uneven per-item cost can still be balanced by stealing; small enough
/// that per-job pool overhead stays negligible.
const CHUNKS_PER_WORKER: usize = 4;

/// Maps `f` over `items` on up to `threads` workers, preserving order.
///
/// `threads <= 1` (or a grid of one item) short-circuits to a plain serial
/// map inside the pool — no threads are spawned. Results are stitched back
/// in index order, so for a pure `f` the output is byte-identical across
/// any worker count.
pub(crate) fn map_ref<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Never spawn more workers than there are items (a worker with an
    // empty deque is pure spawn/join overhead), but otherwise honour the
    // requested thread count. An earlier version also clamped to
    // `available_parallelism`, which silently starved explicit
    // multi-thread requests on cgroup-limited boxes and made the
    // forced-multithread determinism suites vacuously serial; callers
    // that want auto-sizing resolve it before asking (see
    // `TrainOptions::effective_threads`). Output is byte-identical across
    // worker counts, so this clamp only changes scheduling, never results.
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    // Carve the grid into contiguous chunks; every chunk is one pool job.
    let chunk = items.len().div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let jobs = items.len().div_ceil(chunk);
    let per_chunk: Vec<Vec<R>> = run_indexed(jobs, workers, |j| {
        let start = j * chunk;
        let end = (start + chunk).min(items.len());
        items
            .get(start..end)
            .unwrap_or(&[])
            .iter()
            .map(&f)
            .collect::<Vec<R>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Runs `jobs` indexed jobs on up to `threads` workers and folds the
/// per-job partial results into `init` **in job-index order** (the
/// scheduler's [`dnnperf_sched::map_reduce`] with the same worker clamp
/// policy as [`map_ref`]).
///
/// The training pipeline uses this to assemble per-chunk regression
/// accumulators: jobs are cut at fixed row-chunk boundaries (never by
/// worker count), so the reduction tree — and therefore every fitted
/// coefficient — is bit-identical at any thread count.
pub(crate) fn reduce_indexed<T, A, M, F>(jobs: usize, threads: usize, map: M, init: A, fold: F) -> A
where
    T: Send,
    A: Send,
    M: Fn(usize) -> T + Sync,
    F: FnMut(A, T) -> A,
{
    let workers = threads.clamp(1, jobs.max(1));
    dnnperf_sched::map_reduce(jobs, workers, map, init, fold)
}

/// Runs `side` on one scoped thread while `main` runs on the caller, and
/// returns both results. A panic on the side thread is re-raised on the
/// caller with its original payload, after `main` has finished, so a
/// failing half never leaves a detached thread behind.
pub(crate) fn join<A, B>(side: impl FnOnce() -> A + Send, main: impl FnOnce() -> B) -> (A, B)
where
    A: Send,
{
    std::thread::scope(|s| {
        let handle = s.spawn(side);
        let b = main();
        match handle.join() {
            Ok(a) => (a, b),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_worker_counts() {
        let items: Vec<u64> = (0..97).collect();
        let serial = map_ref(&items, 1, |x| x * x + 1);
        for threads in [2, 3, 8, 40] {
            assert_eq!(map_ref(&items, threads, |x| x * x + 1), serial);
        }
    }

    #[test]
    fn empty_and_singleton_grids() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_ref(&empty, 8, |x| *x).is_empty());
        assert_eq!(map_ref(&[7u32], 8, |x| x + 1), vec![8]);
    }

    #[test]
    fn zero_threads_is_treated_as_serial() {
        let items = [1u32, 2, 3];
        assert_eq!(map_ref(&items, 0, |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn join_returns_both_results() {
        let items = [1u64, 2, 3];
        let (side, main) = join(|| items.iter().sum::<u64>(), || items.len());
        assert_eq!((side, main), (6, 3));
    }

    #[test]
    fn join_reraises_the_side_panic_payload() {
        let caught =
            std::panic::catch_unwind(|| join(|| std::panic::panic_any("side failed"), || 7));
        let payload = caught.expect_err("the side panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"side failed"));
    }

    #[test]
    fn reduce_indexed_folds_in_index_order_at_any_width() {
        let expect: Vec<usize> = (0..9).collect();
        for threads in [0, 1, 2, 8, 40] {
            let v = reduce_indexed(
                9,
                threads,
                |i| i,
                Vec::new(),
                |mut acc: Vec<usize>, i| {
                    acc.push(i);
                    acc
                },
            );
            assert_eq!(v, expect, "threads = {threads}");
        }
    }
}
