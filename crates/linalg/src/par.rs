//! Scoped-thread parallelism helpers shared by the workspace.
//!
//! Grain is "model-free": almost all of its runtime is spent in
//! embarrassingly parallel row-wise kernels (SpMM, GEMM, pairwise
//! distances). These helpers split a row range into per-thread chunks and
//! run them on crossbeam scoped threads, so callers can borrow stack data
//! without `Arc`.

use std::sync::atomic::{AtomicUsize, Ordering};

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
/// [`num_threads`] default), any other value is taken verbatim. This is
/// the contract of every `*_with` helper below and of the `threads`
/// parameter on the parallel kernels built on them (SpMM, propagation,
/// influence rows, ...): callers thread a configuration knob straight
/// through and `0` keeps the environment-driven default.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        num_threads()
    } else {
        requested
    }
}

/// Runs `f(start, end)` over disjoint chunks of `0..len` on scoped threads.
///
/// `f` must be safe to run concurrently on disjoint ranges. Falls back to a
/// single inline call when `len` is small or only one thread is available,
/// so tiny inputs do not pay thread spawn costs.
pub fn for_each_chunk<F>(len: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    for_each_chunk_with(0, len, min_chunk, f);
}

/// [`for_each_chunk`] with an explicit worker count (`0` = auto).
///
/// Chunk *boundaries* depend on the worker count, but every index is
/// processed by exactly one worker with the same per-index code, so any
/// kernel whose per-index computation is self-contained is bit-identical
/// at every thread count.
pub fn for_each_chunk_with<F>(requested_threads: usize, len: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let threads = resolve_threads(requested_threads)
        .min(len / min_chunk.max(1))
        .max(1);
    if threads <= 1 || len == 0 {
        f(0, len);
        return;
    }
    let chunk = len.div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        for t in 0..threads {
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(len);
            if start >= end {
                break;
            }
            let f = &f;
            scope.spawn(move |_| f(start, end));
        }
    })
    .expect("worker thread panicked");
}

/// Parallel work-stealing loop over `0..len` with a shared atomic cursor.
///
/// Better than static chunking when per-item cost is highly skewed (e.g.
/// influence rows of hub nodes). `f(i)` is called exactly once per index.
pub fn for_each_dynamic<F>(len: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let grain = grain.max(1);
    map_dynamic_with(
        0,
        len.div_ceil(grain),
        || (),
        |(), block| {
            for i in block * grain..((block + 1) * grain).min(len) {
                f(i);
            }
        },
    );
}

/// Maps `0..len` through `f` on `requested_threads` workers (`0` = auto)
/// that claim indices in ascending order from a shared atomic cursor,
/// each with its own scratch state from `init`.
///
/// Element `i` of the output is `f(&mut scratch, i)` whichever worker ran
/// it, so the output is bit-identical at every thread count as long as
/// `f` uses the scratch only as a buffer. Claiming by cursor balances
/// skewed per-index costs (a triangle of pairs, hub rows) by work rather
/// than by index count.
pub fn map_dynamic_with<S, T, I, F>(requested_threads: usize, len: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = resolve_threads(requested_threads).min(len).max(1);
    if threads <= 1 {
        let mut scratch = init();
        return (0..len).map(|i| f(&mut scratch, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (cursor, init, f) = (&cursor, &init, &f);
                scope.spawn(move |_| {
                    let mut scratch = init();
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            return done;
                        }
                        done.push((i, f(&mut scratch, i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (i, value) in worker.join().expect("worker thread panicked") {
                slots[i] = Some(value);
            }
        }
    })
    .expect("worker thread panicked");
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed once"))
        .collect()
}

/// Maps `0..len` through `f` into a `Vec`, computing chunks in parallel.
pub fn par_map<T, F>(len: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(0, len, min_chunk, f)
}

/// [`par_map`] with an explicit worker count (`0` = auto). The output is
/// bit-identical at every thread count: element `i` is always `f(i)`.
pub fn par_map_with<T, F>(requested_threads: usize, len: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); len];
    {
        let out_ptr = SendPtr(out.as_mut_ptr());
        for_each_chunk_with(requested_threads, len, min_chunk, |start, end| {
            // SAFETY: each chunk writes a disjoint index range of `out`,
            // and `out` outlives the scoped threads.
            let ptr = out_ptr;
            for i in start..end {
                unsafe { *ptr.0.add(i) = f(i) };
            }
        });
    }
    out
}

/// Raw pointer wrapper asserting cross-thread safety for disjoint writes.
///
/// Shared by the parallel kernels across the workspace (SpMM, influence
/// rows, row normalization): each worker writes a disjoint index range of
/// the pointee, and the pointee outlives the scoped threads. Closures
/// must rebind the wrapper (`let ptr = ptr;`) so edition-2021 disjoint
/// capture moves the `SendPtr` itself rather than its raw-pointer field.
pub struct SendPtr<T>(pub *mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn for_each_chunk_covers_all_indices_once() {
        let sum = AtomicU64::new(0);
        for_each_chunk(1000, 8, |s, e| {
            let mut local = 0u64;
            for i in s..e {
                local += i as u64;
            }
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn for_each_dynamic_covers_all_indices_once() {
        let hits = (0..257).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        for_each_dynamic(hits.len(), 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_dynamic_is_thread_count_invariant() {
        let want: Vec<usize> = (0..301).map(|i| i * i).collect();
        for threads in [1usize, 2, 5] {
            let got = map_dynamic_with(threads, 301, Vec::<usize>::new, |scratch, i| {
                scratch.push(i);
                i * i
            });
            assert_eq!(got, want, "{threads} threads");
        }
        assert!(map_dynamic_with(3, 0, || (), |(), i| i).is_empty());
    }

    #[test]
    fn par_map_matches_serial_map() {
        let got = par_map(513, 16, |i| (i * i) as u64);
        let want: Vec<u64> = (0..513).map(|i| (i * i) as u64).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn zero_length_is_fine() {
        for_each_chunk(0, 1, |s, e| assert_eq!(s, e, "no work expected"));
        let v: Vec<u32> = par_map(0, 1, |_| 1);
        assert!(v.is_empty());
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

    #[test]
    fn explicit_thread_counts_agree() {
        let want: Vec<u64> = (0..777).map(|i| (i * 3 + 1) as u64).collect();
        for threads in [1usize, 2, 5, 16] {
            let got = par_map_with(threads, 777, 4, |i| (i * 3 + 1) as u64);
            assert_eq!(got, want, "{threads} threads");
        }
    }
}
