//! Order statistics over timing samples.

use std::time::{Duration, Instant};

/// Sorts a copy of `values` ascending. Timings are never NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    v
}

/// The `p`-th percentile (`0.0..=100.0`) of an ascending slice, linearly
/// interpolated between the two nearest ranks.
///
/// # Panics
///
/// Panics when `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Lower quartile of unsorted samples.
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(&sorted(values), 25.0)
}

/// Smallest of unsorted samples.
///
/// # Panics
///
/// Panics when `values` is empty.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "min of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Number of runs the timed region is cut into for [`fast_quartiles`].
pub const CHUNKS: usize = 20;

/// The two end-to-end timing statistics of a timed region, both taken on
/// the fast side of [`CHUNKS`] equal-count runs of consecutive operations.
///
/// Other tenants of the reference host only ever add time, in bursts that
/// last from milliseconds to seconds. The runs such a burst hits fall into
/// the slow tail, so the quartile on the fast side reads what the code
/// does when the host leaves it alone. The extreme is not used: the
/// fastest single operation is an order statistic of a long tail and moved
/// 8% between identical runs where the quartile moved 3%.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastQuartiles {
    /// Lower quartile over the runs of each run's median operation time.
    pub op_time_ms: f64,
    /// Upper quartile over the runs of each run's operations per second.
    pub ops_per_s: f64,
    /// Operations per run.
    pub chunk: usize,
}

/// Cuts the operations into runs of `chunk` (the largest multiple of
/// `align` giving at least [`CHUNKS`] runs) and takes the fast quartiles.
/// `done_s[i]` is when operation `i` completed, in seconds from the start
/// of the timed region; `op_ms[i]` is how long it took.
///
/// # Panics
///
/// Panics when the slices differ in length or are empty.
pub fn fast_quartiles(done_s: &[f64], op_ms: &[f64], align: usize) -> FastQuartiles {
    assert_eq!(done_s.len(), op_ms.len(), "one completion per operation");
    assert!(!op_ms.is_empty(), "no operations");
    let chunk = (op_ms.len() / CHUNKS / align * align)
        .max(align)
        .min(op_ms.len());
    let mut medians = Vec::with_capacity(CHUNKS + 1);
    let mut rates = Vec::with_capacity(CHUNKS + 1);
    let mut began = 0.0;
    for (times, done) in op_ms.chunks_exact(chunk).zip(done_s.chunks_exact(chunk)) {
        let ended = done[chunk - 1];
        medians.push(median(times));
        rates.push(chunk as f64 / (ended - began));
        began = ended;
    }
    FastQuartiles {
        op_time_ms: lower_quartile(&medians),
        ops_per_s: percentile(&sorted(&rates), 75.0),
        chunk,
    }
}

/// Milliseconds in a duration, with its nanoseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Calls `f` `reps` times and returns each call's wall time in
/// milliseconds; results go through `black_box` so the work is kept.
pub fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            ms(t0.elapsed())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(v, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_min_mean() {
        let v = [5.0, 1.0, 9.0];
        assert_eq!(median(&v), 5.0);
        assert_eq!(min(&v), 1.0);
        assert_eq!(mean(&v), 5.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn fast_quartiles_ignore_a_disturbed_stretch() {
        // 400 operations of 10 ms back to back, except that operations
        // 100..180 (four of the twenty runs) took 30 ms.
        let op_ms: Vec<f64> = (0..400)
            .map(|i| if (100..180).contains(&i) { 30.0 } else { 10.0 })
            .collect();
        let mut now = 0.0;
        let done_s: Vec<f64> = op_ms
            .iter()
            .map(|ms| {
                now += ms / 1e3;
                now
            })
            .collect();
        let q = fast_quartiles(&done_s, &op_ms, 1);
        assert_eq!(q.chunk, 20);
        assert!((q.op_time_ms - 10.0).abs() < 1e-9);
        assert!((q.ops_per_s - 100.0).abs() < 1e-6);
        // Runs are whole multiples of `align`; a short region is one run.
        assert_eq!(fast_quartiles(&done_s, &op_ms, 16).chunk, 16);
        assert_eq!(fast_quartiles(&done_s[..5], &op_ms[..5], 16).chunk, 5);
    }

    #[test]
    fn time_reps_returns_one_sample_per_call() {
        let mut calls = 0;
        let t = time_reps(3, || calls += 1);
        assert_eq!((t.len(), calls), (3, 3));
        assert!(t.iter().all(|&x| x >= 0.0));
    }
}
