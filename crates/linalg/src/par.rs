//! The workspace's one parallel driver, on `std::thread::scope`.
//!
//! Grain is "model-free": almost all of its runtime is spent in row-wise
//! kernels (SpMM, GEMM, pairwise distances, influence rows). Every one of
//! them runs through [`for_each_block_mut`]: the output slice is cut into
//! fixed-size blocks, workers claim the blocks in ascending order from one
//! shared claim, and each block is written by exactly one worker through
//! its own `&mut` sub-slice. Block boundaries depend on the block size
//! alone, never on the thread count, and no worker sums into another's
//! output, so a kernel whose per-block code is self-contained is
//! bit-identical at every thread count. Claiming block by block also
//! balances skewed per-block costs (hub rows, a triangle of pairs) by work
//! rather than by count. [`map`] is the same driver over a fresh `Vec`.
//!
//! Every `threads` parameter in the workspace follows one convention: `0`
//! means "auto" ([`num_threads`]), any other value is taken verbatim.

use std::sync::Mutex;

/// Returns the worker-thread count: the `GRAIN_THREADS` environment variable
/// if set to a positive integer, otherwise the machine's available
/// parallelism (at least 1).
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("GRAIN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a caller-requested worker count: `0` means "auto" (the
/// [`num_threads`] default), any other value is taken verbatim.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        num_threads()
    } else {
        requested
    }
}

/// Runs `f(&mut scratch, b, block)` once for every `block`-sized chunk of
/// `out` (the last one may be shorter), where `b` is the chunk's index, on
/// `threads` workers (`0` = auto).
///
/// At most `len / block` workers run, so anything under two full blocks,
/// or a single thread, runs inline on the caller with no spawn. Each
/// worker owns one `scratch` from `init`. A panic in any block reaches the
/// caller with its own payload once every worker has stopped.
pub fn for_each_block_mut<T, S, I, F>(threads: usize, out: &mut [T], block: usize, init: I, f: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    let block = block.max(1);
    let workers = resolve_threads(threads).min(out.len() / block);
    let blocks = out.chunks_mut(block).enumerate();
    if workers <= 1 {
        let mut scratch = init();
        blocks.for_each(|(b, chunk)| f(&mut scratch, b, chunk));
        return;
    }
    let claim = Mutex::new(blocks);
    let work = || {
        let mut scratch = init();
        loop {
            let next = claim
                .lock()
                .expect("the claim is held only to take the next block, which cannot panic")
                .next();
            let Some((b, chunk)) = next else { return };
            f(&mut scratch, b, chunk);
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        for helper in helpers {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Maps `0..len` through `f(&mut scratch, i)` on [`for_each_block_mut`]
/// in `block`-index blocks. Element `i` is `f(.., i)` whichever worker
/// ran it, so the output is bit-identical at every thread count as long
/// as `f` uses its scratch only as a buffer.
pub fn map<S, T, I, F>(threads: usize, len: usize, block: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let block = block.max(1);
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
    for_each_block_mut(threads, &mut out, block, init, |scratch, b, slots| {
        for (i, slot) in (b * block..).zip(slots) {
            *slot = Some(f(scratch, i));
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every index is mapped once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_block_mut_covers_all_indices_once() {
        for threads in [1usize, 2, 5, 16] {
            let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
            let mut out = vec![0usize; 1000];
            for_each_block_mut(
                threads,
                &mut out,
                8,
                || (),
                |(), b, block| {
                    for (i, slot) in (b * 8..).zip(block) {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        *slot = i;
                    }
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn map_covers_all_indices_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        map(
            4,
            hits.len(),
            4,
            || (),
            |(), i| hits[i].fetch_add(1, Ordering::Relaxed),
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_matches_serial_map() {
        let got = map(0, 513, 16, || (), |(), i| (i * i) as u64);
        let want: Vec<u64> = (0..513).map(|i| (i * i) as u64).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_dynamic_is_thread_count_invariant() {
        let want: Vec<usize> = (0..301).map(|i| i * i).collect();
        for threads in [1usize, 2, 5] {
            let got = map(threads, 301, 1, Vec::<usize>::new, |scratch, i| {
                scratch.push(i);
                i * i
            });
            assert_eq!(got, want, "{threads} threads");
        }
        assert!(map(3, 0, 1, || (), |(), i| i).is_empty());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let want: Vec<u64> = (0..777).map(|i| (i * 3 + 1) as u64).collect();
        for threads in [1usize, 2, 5, 16] {
            let got = map(threads, 777, 4, || (), |(), i| (i * 3 + 1) as u64);
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn zero_length_is_fine() {
        for threads in [1usize, 4] {
            let mut out: Vec<u32> = Vec::new();
            for_each_block_mut(
                threads,
                &mut out,
                1,
                || (),
                |_, _, _| panic!("no work expected"),
            );
            assert!(map(threads, 0, 1, || (), |(), i| i).is_empty());
        }
    }

    #[test]
    fn under_two_blocks_runs_inline() {
        let caller = std::thread::current().id();
        let mut out = vec![0u8; 31];
        for_each_block_mut(
            8,
            &mut out,
            16,
            || (),
            |(), _, _| {
                assert_eq!(std::thread::current().id(), caller);
            },
        );
        let ids = map(8, 3, 2, || (), |(), _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_panicking_block_reaches_the_caller() {
        let outcome = std::panic::catch_unwind(|| {
            map(
                4,
                64,
                1,
                || (),
                |(), i| {
                    if i == 37 {
                        panic!("block 37 failed");
                    }
                    i
                },
            )
        });
        let payload = outcome.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"block 37 failed"));
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn resolve_threads_passes_explicit_and_defaults_zero() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(0), num_threads());
    }
}
