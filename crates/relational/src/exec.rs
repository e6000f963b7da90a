//! A dependency-free parallel execution layer for the relational engine.
//!
//! The build environment is offline (no `rayon`), so this module hand-rolls
//! the small amount of machinery the engine needs: a [`Parallelism`] knob and
//! a scoped worker pool ([`par_map`] / [`par_map_ranges`]) built from
//! `std::thread::scope` plus an mpsc channel.  Workers are *scoped*: every
//! invocation spawns, runs and joins its threads before returning, so no
//! thread ever outlives the borrowed query/instance data it operates on and
//! no global pool state exists to configure or leak.
//!
//! ### Scheduling: morsel-driven work stealing
//!
//! Work is dispatched as **morsels** — small contiguous units of task
//! indices — claimed dynamically from a shared [`AtomicUsize`] counter:
//! every worker loops `counter.fetch_add(1)` and runs the morsel it drew
//! until the counter passes the morsel count.  A worker stuck on a heavy
//! morsel (a skewed hash bucket, a hot lattice subset) simply claims fewer
//! morsels while the others drain the queue, so imbalance self-corrects
//! without any cost model.
//!
//! ### Determinism contract
//!
//! Parallel execution must be **byte-identical** to sequential execution —
//! the engine's downstream consumers are seeded randomized algorithms whose
//! reproducibility contract (see the crate docs) would otherwise break.
//! Under the morsel model the contract splits cleanly in two:
//!
//! 1. **Claiming order may vary.**  Which worker runs which morsel — and in
//!    what real-time order morsels execute — depends on scheduling, load and
//!    timing, and is *not* reproducible.  Nothing observable may depend on
//!    it, and nothing does: morsel *boundaries* are a pure function of the
//!    input length ([`chunk_ranges`]), only the assignment of morsels to
//!    workers floats.
//! 2. **Merge order may not.**  Every result is delivered back tagged with
//!    its morsel index and merged in morsel order.  For range-partitioned
//!    loops ([`par_map_ranges`]) each morsel emits its outputs in input
//!    order, so the concatenation in morsel order equals the sequential
//!    emission order *regardless of the worker count, the morsel size, or
//!    which worker claimed what*.
//!
//! Consequently `Parallelism::threads(1)`, `threads(4)` and `threads(64)`, at
//! any morsel size down to 1, all produce identical bytes; only wall-clock
//! time differs.
//!
//! ### Panic handling
//!
//! A panicking task poisons nothing: the worker's channel sender is dropped,
//! the coordinating thread stops collecting, and `std::thread::scope`
//! re-raises the worker's panic payload on the calling thread once all
//! threads are joined.  Callers observe the original panic (message intact)
//! exactly as they would under sequential execution — no deadlock, no
//! swallowed error.
//!
//! ### Choosing a parallelism level
//!
//! [`Parallelism::default`] resolves to [`Parallelism::available`]: the
//! `DPSYN_THREADS` environment variable when set (CI uses this to force the
//! sequential path), otherwise [`std::thread::available_parallelism`].
//! `Parallelism::SEQUENTIAL` (one thread) runs every loop inline on the
//! calling thread — no threads are spawned, no buffers are re-copied, and
//! the output is byte-identical to the pre-parallel engine's.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// How many worker threads the engine may use for one parallel operation.
///
/// `Parallelism(1)` is the sequential path: no threads are spawned and every
/// loop runs inline.  Results are byte-identical at every level (see the
/// module docs), so callers can default to [`Parallelism::available`] and
/// drop to [`Parallelism::SEQUENTIAL`] only to shed thread overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(NonZeroUsize);

/// Parses a `DPSYN_THREADS`-style value: a positive integer (surrounding
/// whitespace tolerated) or nothing.  Zero, negative and non-numeric values
/// are ignored so a broken environment degrades to the machine default
/// instead of erroring.
fn parse_thread_env(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

impl Parallelism {
    /// The sequential path: one worker, no spawned threads.
    pub const SEQUENTIAL: Parallelism = Parallelism(NonZeroUsize::MIN);

    /// Exactly `n` workers (`n = 0` is treated as 1).
    pub fn threads(n: usize) -> Self {
        Parallelism(NonZeroUsize::new(n.max(1)).expect("clamped to at least 1"))
    }

    /// The environment's parallelism: `DPSYN_THREADS` when set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`] (1 if even
    /// that is unavailable).
    ///
    /// **Read once per process.**  The probe result is cached in a
    /// `OnceLock` on the first call and never re-read: a process observes
    /// exactly one value for its whole lifetime, so changing
    /// `DPSYN_THREADS` after the engine has run (e.g. from a test) has no
    /// effect.  This is deliberate — a mid-process flip would let two calls
    /// in one release pipeline disagree about the worker count, and while
    /// outputs would still be byte-identical (see the module docs), CI
    /// matrices that pin `DPSYN_THREADS` rely on the value being stable
    /// from the first join to the last.  The behavior is pinned by
    /// `available_parallelism_is_read_once_per_process` in this module's
    /// tests.
    pub fn available() -> Self {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        let n = *AVAILABLE.get_or_init(|| {
            let env = std::env::var("DPSYN_THREADS").ok();
            if let Some(n) = parse_thread_env(env.as_deref()) {
                return n;
            }
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
        Parallelism::threads(n)
    }

    /// The worker count.
    #[inline]
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// Whether this is the sequential (single-worker) path.
    #[inline]
    pub fn is_sequential(self) -> bool {
        self.0.get() == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::available()
    }
}

/// Claims morsel indices from the shared `counter` until it passes `tasks`,
/// running `run(i)` on each until `run` returns `false`.
#[inline]
fn claim_until_done(counter: &AtomicUsize, tasks: usize, mut run: impl FnMut(usize) -> bool) {
    loop {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        if i >= tasks || !run(i) {
            return;
        }
    }
}

/// Runs `f(0), …, f(tasks - 1)` on up to `par` workers and returns the
/// results **in task order**, claiming tasks by work stealing.  Each task is
/// its own morsel, so this is the maximal-interleaving case (morsel size 1).
///
/// Morsel indices are stolen from a shared counter: workers 1… send
/// `(index, result)` pairs over a channel while worker 0 (the calling
/// thread) claims from the same queue and fills its own slots directly, and
/// the slot vector — indexed by task — is the merge-in-morsel-order step
/// that makes output independent of who ran what.  With `par = 1` or
/// `tasks ≤ 1` everything runs inline and no thread is spawned.
///
/// A panicking task propagates its payload to the caller after all workers
/// have been joined (see the module docs).
pub fn par_map<T, F>(par: Parallelism, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.get().min(tasks.max(1));
    if workers <= 1 {
        return (0..tasks).map(f).collect();
    }

    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let counter = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let f = &f;
        let counter = &counter;
        for _ in 1..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                // A closed receiver means the coordinator bailed out (it
                // panicked in its own morsels); stop early.
                claim_until_done(counter, tasks, |i| tx.send((i, f(i))).is_ok());
            });
        }
        drop(tx);
        // Worker 0 claims from the same queue inline on the calling thread.
        claim_until_done(counter, tasks, |i| {
            slots[i] = Some(f(i));
            true
        });
        // Collect until every sender is gone.  If a worker panicked, its
        // sender is dropped early, the loop ends, and the scope re-raises
        // the panic when joining below.
        for (i, value) in rx {
            slots[i] = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("all workers completed (scope propagates panics)"))
        .collect()
}

/// Splits `0..len` into at most `chunks` contiguous ranges of near-equal
/// length (the first `len % chunks` ranges are one longer), in ascending
/// order.  `len = 0` yields a single empty range so callers always receive
/// at least one chunk.  The split depends only on `len` and `chunks`.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        // One empty chunk so callers always receive at least one range.
        return vec![Range { start: 0, end: 0 }];
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let rem = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < rem);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Partitions `0..len` into contiguous morsels of at least `min_chunk`
/// indices, maps `f` over the morsels on up to `par` workers (work
/// stealing), and returns the per-morsel results **in range order**.
///
/// This is the `par_chunks`-style entry point behind the partitioned probe
/// loop: each morsel emits its outputs in input order, so concatenating the
/// returned parts reproduces the sequential emission order byte for byte at
/// every worker count.  The range is over-decomposed (up to 8 morsels per
/// worker) so the stealer has enough slack to rebalance a skewed morsel.
pub fn par_map_ranges<T, F>(par: Parallelism, len: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let workers = par.get();
    if workers <= 1 || len <= min_chunk.max(1) {
        return vec![f(0..len)];
    }
    let chunks = (len / min_chunk.max(1)).clamp(1, workers * 8);
    let ranges = chunk_ranges(len, chunks);
    par_map(par, ranges.len(), |i| f(ranges[i].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_levels() {
        assert_eq!(Parallelism::SEQUENTIAL.get(), 1);
        assert!(Parallelism::SEQUENTIAL.is_sequential());
        assert_eq!(Parallelism::threads(0).get(), 1);
        assert_eq!(Parallelism::threads(6).get(), 6);
        assert!(!Parallelism::threads(2).is_sequential());
        assert!(Parallelism::available().get() >= 1);
    }

    #[test]
    fn thread_env_parsing_accepts_positive_integers_only() {
        assert_eq!(parse_thread_env(None), None);
        assert_eq!(parse_thread_env(Some("")), None);
        assert_eq!(parse_thread_env(Some("0")), None);
        assert_eq!(parse_thread_env(Some("-3")), None);
        assert_eq!(parse_thread_env(Some("four")), None);
        assert_eq!(parse_thread_env(Some("4")), Some(4));
        assert_eq!(parse_thread_env(Some("  16\n")), Some(16));
    }

    /// Pins the documented `OnceLock` behavior of [`Parallelism::available`]:
    /// the environment is read once per process, so later changes to
    /// `DPSYN_THREADS` are invisible.
    #[test]
    fn available_parallelism_is_read_once_per_process() {
        // Force the cache to initialize from the *current* environment
        // before touching it — this also protects concurrently running
        // tests from ever observing the sentinel value below.
        let first = Parallelism::available();
        let saved = std::env::var("DPSYN_THREADS").ok();
        std::env::set_var("DPSYN_THREADS", "7777");
        let second = Parallelism::available();
        match saved {
            Some(v) => std::env::set_var("DPSYN_THREADS", v),
            None => std::env::remove_var("DPSYN_THREADS"),
        }
        assert_eq!(
            first, second,
            "DPSYN_THREADS must be read once per process, not per call"
        );
        assert_ne!(second.get(), 7777, "cached value leaked a later env write");
    }

    #[test]
    fn par_map_matches_sequential_map_at_every_width() {
        let f = |i: usize| (i * i) as u64;
        let expect: Vec<u64> = (0..257).map(f).collect();
        for threads in [1, 2, 3, 4, 8, 300] {
            assert_eq!(par_map(Parallelism::threads(threads), 257, f), expect);
        }
        assert!(par_map(Parallelism::threads(4), 0, f).is_empty());
        assert_eq!(par_map(Parallelism::threads(4), 1, f), vec![0]);
    }

    #[test]
    fn stealing_agrees_with_sequential() {
        let f = |i: usize| {
            // Skew: a few tasks are far heavier than the rest.
            let reps = if i.is_multiple_of(97) { 40_000 } else { 50 };
            (0..reps).fold(i as u64, |acc, k| {
                acc.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left((k % 63) as u32)
            })
        };
        let expect: Vec<u64> = (0..311).map(f).collect();
        for threads in [1, 2, 4, 8] {
            let got = par_map(Parallelism::threads(threads), 311, f);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly_once_in_order() {
        for len in [0usize, 1, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 7, 2000] {
                let ranges = chunk_ranges(len, chunks);
                let mut expect_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect_start);
                    expect_start = r.end;
                }
                assert_eq!(expect_start, len);
                if len > 0 {
                    assert!(ranges.len() <= chunks.min(len));
                    // Balanced: sizes differ by at most one.
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(hi - lo <= 1);
                }
            }
        }
    }

    #[test]
    fn par_map_ranges_concatenation_is_order_stable() {
        let data: Vec<u64> = (0..10_000).map(|i| i * 3 + 1).collect();
        let f = |r: Range<usize>| data[r].to_vec();
        let seq: Vec<u64> = f(0..data.len());
        for threads in [1, 2, 4, 9] {
            let parts = par_map_ranges(Parallelism::threads(threads), data.len(), 16, f);
            let merged: Vec<u64> = parts.concat();
            assert_eq!(merged, seq, "threads = {threads}");
        }
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(Parallelism::threads(4), 64, |i| {
                if i == 37 {
                    panic!("worker task failed deliberately");
                }
                i
            })
        }));
        assert!(outcome.is_err(), "panic must cross the pool boundary");
    }

    #[test]
    fn sequential_panics_propagate_too() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(Parallelism::SEQUENTIAL, 4, |i| {
                if i == 2 {
                    panic!("sequential task failed deliberately");
                }
                i
            })
        }));
        assert!(outcome.is_err());
    }
}
