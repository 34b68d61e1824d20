//! Scoped-thread data parallelism helpers.
//!
//! All heavy kernels in this reproduction parallelize over contiguous row
//! blocks, and every one of them goes through [`run_chunks`]'s scheduler:
//! the block planner, the claim queue and the kernel crates' one
//! `std::thread::scope`. The `par_*` functions are it at the per-block
//! state shapes the kernels use.
//!
//! * **Block plans.** A kernel whose every output row has one owner
//!   ([`run_chunks`], [`par_rows_mut`]) is cut into about
//!   4 × [`num_threads`] blocks of at least `min_chunk` rows, so a worker
//!   that drew cheap rows takes another block instead of waiting for the
//!   one that drew the power-law hubs. Each row is still computed by one
//!   worker in its own serial order, so the output is bitwise the same at
//!   any block or worker count. A reduction ([`par_row_map`]) gets one
//!   block per thread, `rows.div_ceil(num_threads()).max(min_chunk)`
//!   rows each: its caller sums the per-block partials, so its block
//!   bounds decide its floats, and these are the bounds it always had.
//! * **Claiming.** The caller's state is split into one share per block,
//!   up front, in order, on the calling thread. Then `min(workers,
//!   blocks) − 1` helpers start, and they and the calling thread take
//!   blocks off one queue until it is empty — each block exactly once.
//!   The queue's lock is held only to take the next block.
//! * **Ending.** Results come back in block order. Every helper is joined
//!   before the call returns, and a panic in any block reaches the caller
//!   with its own payload. A single block runs on the calling thread with
//!   the whole state and no spawn.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Blocks per worker for a kernel whose rows have one owner each.
const BLOCKS_PER_WORKER: usize = 4;

/// Number of worker threads used by this process (cached).
pub fn num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    CACHED.store(n, Ordering::Relaxed);
    n
}

thread_local! {
    /// The worker count [`with_workers`] set on this thread; 0 when unset.
    static WORKERS: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with every kernel call it makes on this thread planned for
/// `workers` workers instead of [`num_threads`]. It exists so that tests
/// in the kernel crates can check bits at several worker counts on any
/// host; the kernels themselves never call it.
///
/// # Panics
///
/// Panics when `workers` is 0.
#[doc(hidden)]
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    assert!(workers > 0, "at least one worker");
    /// Puts the previous count back, also when `f` panics.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKERS.set(self.0);
        }
    }
    let _restore = Restore(WORKERS.replace(workers));
    f()
}

/// The worker count a call on this thread plans for.
fn workers() -> usize {
    match WORKERS.get() {
        0 => num_threads(),
        set => set,
    }
}

/// Runs `f(start, end, state)` over disjoint, contiguous row blocks
/// covering `0..rows` and returns the results in block order. Each output
/// row must be owned by the one block that holds it: there are about
/// 4 × [`num_threads`] blocks (one on a single-core host), each at least
/// `min_chunk` rows except possibly the last. `whole` is what all rows own
/// (typically a mutable slice); `split(rest, len)` takes the next `len`
/// rows' share off it, once per block, in order, on the calling thread. A
/// single block gets `whole` itself and runs on the calling thread with no
/// spawn. A panic in any block is resumed on the calling thread.
pub fn run_chunks<S, T, F>(
    rows: usize,
    min_chunk: usize,
    whole: S,
    split: impl FnMut(&mut S, usize) -> S,
    f: F,
) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, usize, S) -> T + Sync,
{
    let workers = workers();
    let blocks = if workers == 1 {
        1
    } else {
        BLOCKS_PER_WORKER * workers
    };
    claim_blocks(workers, blocks, rows, min_chunk, whole, split, f)
}

/// One planned block: its rows, its share of the state until a worker
/// claims it, and its result once the worker is done.
struct Block<S, T> {
    start: usize,
    end: usize,
    state: Option<S>,
    result: Option<T>,
}

/// The scheduler: cuts `0..rows` into at most `blocks` blocks of
/// `rows.div_ceil(blocks).max(min_chunk)` rows and runs them on the
/// calling thread and `min(workers, blocks) − 1` helpers, each taking the
/// next unclaimed block until none is left.
fn claim_blocks<S, T, F>(
    workers: usize,
    blocks: usize,
    rows: usize,
    min_chunk: usize,
    mut whole: S,
    mut split: impl FnMut(&mut S, usize) -> S,
    f: F,
) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, usize, S) -> T + Sync,
{
    if rows == 0 {
        return Vec::new();
    }
    let chunk = rows.div_ceil(blocks.max(1)).max(min_chunk.max(1));
    if chunk >= rows {
        return vec![f(0, rows, whole)];
    }
    let mut plan: Vec<Block<S, T>> = (0..rows)
        .step_by(chunk)
        .map(|start| {
            let end = (start + chunk).min(rows);
            let state = Some(split(&mut whole, end - start));
            Block {
                start,
                end,
                state,
                result: None,
            }
        })
        .collect();
    let helpers = workers.clamp(1, plan.len()) - 1;
    let queue = Mutex::new(plan.iter_mut());
    let work = || loop {
        let next = queue.lock().expect("taking a block cannot panic").next();
        let Some(block) = next else {
            break;
        };
        let state = block.state.take().expect("a block is claimed once");
        block.result = Some(f(block.start, block.end, state));
    };
    if helpers == 0 {
        work();
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
            // If the calling thread's block panics, the scope still waits
            // for every helper before it resumes that panic.
            work();
            let mut panicked = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panicked.get_or_insert(payload);
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
        });
    }
    plan.into_iter()
        .map(|block| block.result.expect("every block ran"))
        .collect()
}

/// [`par_row_map`] for closures that return nothing.
pub fn par_row_chunks<F>(rows: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    par_row_map(rows, min_chunk, f);
}

/// Like [`par_row_chunks`] but each block produces a value; results are
/// returned in block order (for partial-sum reductions). The blocks are
/// one per thread, `rows.div_ceil(num_threads()).max(min_chunk)` rows
/// each, so a reduction's partials depend only on the shape and the
/// thread count, never on which worker ran which block.
pub fn par_row_map<T, F>(rows: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = workers();
    claim_blocks(
        workers,
        workers,
        rows,
        min_chunk,
        (),
        |_, _| (),
        |a, b, ()| f(a, b),
    )
}

/// Splits the next `len` elements off the front of `rest`.
pub fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// Splits a mutable slice into row blocks and processes them in parallel
/// ([`run_chunks`]' one-owner-per-row plan).
///
/// `row_width` is the stride of one logical row in the slice. The closure
/// receives `(first_row, rows_chunk)` where `rows_chunk` is the mutable
/// sub-slice for its rows.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `row_width`.
pub fn par_rows_mut<F>(data: &mut [f32], row_width: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(row_width > 0, "row width must be positive");
    assert_eq!(
        data.len() % row_width,
        0,
        "slice not a whole number of rows"
    );
    run_chunks(
        data.len() / row_width,
        min_chunk,
        data,
        |rest, len| split_front(rest, len * row_width),
        |start, _, chunk| f(start, chunk),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_all_rows_once() {
        let counter = AtomicUsize::new(0);
        par_row_chunks(1000, 1, |a, b| {
            counter.fetch_add(b - a, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn zero_rows_is_noop() {
        par_row_chunks(0, 1, |_, _| panic!("should not run"));
    }

    #[test]
    fn small_work_runs_inline() {
        // min_chunk larger than rows forces the inline path.
        let counter = AtomicUsize::new(0);
        par_row_chunks(5, 100, |a, b| {
            assert_eq!((a, b), (0, 5));
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_single_chunk_never_leaves_the_calling_thread() {
        // `rows <= min_chunk` plans one chunk whatever the core count; a
        // spawn costs tens of microseconds, more than such a call's work.
        let caller = std::thread::current().id();
        for rows in [1, 8] {
            par_row_chunks(rows, 8, |_, _| {
                assert_eq!(std::thread::current().id(), caller);
            });
            let ids = par_row_map(rows, 8, |_, _| std::thread::current().id());
            assert_eq!(ids, vec![caller]);
            par_rows_mut(&mut vec![0f32; rows * 3], 3, 8, |_, chunk| {
                assert_eq!(chunk.len(), rows * 3);
                assert_eq!(std::thread::current().id(), caller);
            });
            // What MaxK selection calls with its two output arrays.
            let ids = run_chunks(
                rows,
                8,
                (),
                |_, _| (),
                |_, _, ()| std::thread::current().id(),
            );
            assert_eq!(ids, vec![caller]);
        }
    }

    #[test]
    fn par_row_map_collects_in_order() {
        let sums = par_row_map(100, 10, |a, b| (a, b));
        let mut expect = 0;
        for (a, b) in sums {
            assert_eq!(a, expect);
            expect = b;
        }
        assert_eq!(expect, 100);
    }

    #[test]
    fn par_rows_mut_writes_disjoint() {
        let mut data = vec![0f32; 64 * 4];
        par_rows_mut(&mut data, 4, 1, |first_row, chunk| {
            for (i, row) in chunk.chunks_mut(4).enumerate() {
                row.iter_mut().for_each(|v| *v = (first_row + i) as f32);
            }
        });
        for r in 0..64 {
            assert!(data[r * 4..(r + 1) * 4].iter().all(|&v| v == r as f32));
        }
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn par_rows_mut_checks_stride() {
        let mut data = vec![0f32; 5];
        par_rows_mut(&mut data, 2, 1, |_, _| {});
    }

    /// `claim_blocks` with one `(start, end)` result per block and a count
    /// of how often each row ran.
    fn run_plan(workers: usize, blocks: usize, rows: usize) -> (Vec<(usize, usize)>, Vec<usize>) {
        let runs: Vec<AtomicUsize> = (0..rows).map(|_| AtomicUsize::new(0)).collect();
        let spans = claim_blocks(
            workers,
            blocks,
            rows,
            4,
            (),
            |_, _| (),
            |a, b, ()| {
                runs[a..b].iter().for_each(|r| {
                    r.fetch_add(1, Ordering::SeqCst);
                });
                (a, b)
            },
        );
        (
            spans,
            runs.into_iter().map(AtomicUsize::into_inner).collect(),
        )
    }

    #[test]
    fn every_block_runs_once_and_returns_in_order() {
        // 8 blocks of 4 rows: fewer blocks than 8 workers' 32, as many as
        // 8 workers, and more than 1, 2 or 3.
        for rows in [6, 32, 33, 1000] {
            for blocks in [1, 3, 8, 32] {
                let (want, _) = run_plan(1, blocks, rows);
                for workers in [1, 2, 3, 8] {
                    let (spans, runs) = run_plan(workers, blocks, rows);
                    assert_eq!(
                        spans, want,
                        "{rows} rows, {blocks} blocks, {workers} workers"
                    );
                    assert!(runs.iter().all(|&r| r == 1), "a row ran twice or never");
                    let mut next = 0;
                    for &(a, b) in &spans {
                        assert_eq!(a, next);
                        assert!(b - a >= 4 || b == rows);
                        next = b;
                    }
                    assert_eq!(next, rows);
                }
            }
        }
    }

    #[test]
    fn one_worker_runs_every_block_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = claim_blocks(
            1,
            8,
            64,
            1,
            (),
            |_, _| (),
            |_, _, ()| std::thread::current().id(),
        );
        assert_eq!(ids, vec![caller; 8]);
    }

    #[test]
    fn states_are_split_in_block_order() {
        for workers in [1, 2, 3, 8] {
            let mut data = vec![0usize; 37 * 3];
            claim_blocks(
                workers,
                workers * 4,
                37,
                2,
                data.as_mut_slice(),
                |rest, len| split_front(rest, len * 3),
                |start, end, chunk| {
                    assert_eq!(chunk.len(), (end - start) * 3);
                    chunk
                        .iter_mut()
                        .enumerate()
                        .for_each(|(i, v)| *v = start * 3 + i);
                },
            );
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn a_panic_in_one_block_reaches_the_caller() {
        for workers in [1, 2, 3, 8] {
            // Every block's state holds a clone of `alive`; once the call
            // has returned, no worker may still hold one.
            let alive = std::sync::Arc::new(());
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                claim_blocks(
                    workers,
                    16,
                    64,
                    1,
                    alive.clone(),
                    |whole, _| whole.clone(),
                    |start, _, _alive| {
                        ran.fetch_add(1, Ordering::SeqCst);
                        if start == 20 {
                            panic!("block at row {start} failed");
                        }
                    },
                )
            }));
            let payload = caught.expect_err("the panic is resumed on the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("the block's own payload");
            assert_eq!(message, "block at row 20 failed", "{workers} workers");
            assert_eq!(std::sync::Arc::strong_count(&alive), 1, "{workers} workers");
            // The failing block is the sixth; a worker stops claiming after
            // its panic, the others need not.
            assert!(ran.load(Ordering::SeqCst) >= 6);
        }
    }

    #[test]
    fn with_workers_is_scoped_to_its_closure() {
        let outer = workers();
        let inner = with_workers(3, || (workers(), with_workers(1, workers), workers()));
        assert_eq!(inner, (3, 1, 3));
        assert_eq!(workers(), outer);
        let _ = std::panic::catch_unwind(|| with_workers(2, || panic!("inside")));
        assert_eq!(workers(), outer);
    }

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }
}
