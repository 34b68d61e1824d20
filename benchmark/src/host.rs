//! Probes of the host the benchmark runs on. Diagnostic only: neither
//! changes a metric.

use crate::report::Outcome;
use crate::stats;
use std::path::PathBuf;

/// Iterations of the probe's dependent multiply-add chain: about 50 ms on
/// the 2.1 GHz reference host.
const SPIN_ITERS: u64 = 25_000_000;

/// A noise ratio above this marks the run as disturbed.
pub const DISTURBED_ABOVE: f64 = 1.15;

/// Times a fixed amount of single-threaded work `samples` times
/// (milliseconds each). Call before and after a workload and hand both
/// sets to [`noise_ratio`].
pub fn spin_samples(samples: usize) -> Vec<f64> {
    stats::time_reps(samples, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..SPIN_ITERS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        x
    })
}

/// Median over minimum of the probe's samples: 1.0 on a quiet host, and
/// higher the more other work took the processor away.
pub fn noise_ratio(samples: &[f64]) -> f64 {
    stats::median(samples) / stats::min(samples)
}

/// Where trace files go: `benchmark-traces/` in the cargo target
/// directory the running executable was built into.
fn trace_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    // <target>/release/maxk-benchmark -> <target>
    let target = exe.parent().and_then(|p| p.parent());
    target
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/target"))
        .join("benchmark-traces")
}

/// Writes a workload's Chrome trace into the target directory.
pub fn write_trace(name: &str, json: &str, out: &mut Outcome) {
    let dir = trace_dir();
    let path = dir.join(format!("{name}.trace.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => out.note(format!("trace: {}", path.display())),
        Err(e) => out.note(format!("trace not written to {}: {e}", path.display())),
    }
}
