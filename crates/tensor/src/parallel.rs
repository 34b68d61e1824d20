//! Scoped-thread data parallelism helpers.
//!
//! All heavy kernels in this reproduction parallelize over contiguous row
//! ranges. [`run_chunks`] is the single primitive they share: the chunk
//! planner and the kernel crates' one `std::thread::scope`; the `par_*`
//! functions are it at the per-chunk state shapes the kernels use.

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Runs `f(start, end, state)` over disjoint, contiguous row chunks
/// covering `0..rows` — each at least `min_chunk` rows (except possibly
/// the last), at most `num_threads()` of them — and returns the results
/// in chunk order. `whole` is what all rows own (typically a mutable
/// slice); `split(rest, len)` takes the next `len` rows' share off it,
/// once per chunk, in order, on the calling thread. A single chunk gets
/// `whole` itself and runs on the calling thread with no spawn; otherwise
/// each chunk runs on a scoped thread, and the scope panics if a worker
/// did.
pub fn run_chunks<S, T, F>(
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
    let chunk = rows.div_ceil(num_threads()).max(min_chunk.max(1));
    if chunk >= rows {
        return vec![f(0, rows, whole)];
    }
    let mut results: Vec<Option<T>> = (0..rows.div_ceil(chunk)).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut start = 0;
        for slot in &mut results {
            let end = (start + chunk).min(rows);
            let state = split(&mut whole, end - start);
            let f = &f;
            s.spawn(move || *slot = Some(f(start, end, state)));
            start = end;
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("the scope joined every chunk"))
        .collect()
}

/// [`par_row_map`] for closures that return nothing.
pub fn par_row_chunks<F>(rows: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    par_row_map(rows, min_chunk, f);
}

/// Like [`par_row_chunks`] but each chunk produces a value; results are
/// returned in chunk order (useful for partial-sum reductions).
pub fn par_row_map<T, F>(rows: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    run_chunks(rows, min_chunk, (), |_, _| (), |a, b, ()| f(a, b))
}

/// Splits the next `len` elements off the front of `rest`.
pub fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// Splits a mutable slice into row-chunks and processes them in parallel.
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

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }
}
