//! Wall-clock measurement helpers.

use std::time::Instant;

/// Runs `f` once for warmup, then `reps` timed repetitions; returns the
/// mean seconds per repetition.
///
/// The paper averages kernel latency over 1000 runs (§5.1); experiment
/// binaries use smaller `reps` scaled to the CPU substrate.
pub fn time_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    assert!(reps > 0, "need at least one repetition");
    f(); // warmup
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_timing_positive() {
        let t = time_secs(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_reps_rejected() {
        let _ = time_secs(0, || {});
    }
}
