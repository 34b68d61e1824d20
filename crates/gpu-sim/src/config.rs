//! Machine description of the simulated GPU.

/// Configuration of the simulated GPU memory system.
///
/// Defaults model the NVIDIA A100-80GB used in the paper's evaluation
/// (§5.1): 108 SMs, 40 MB L2, ~1.9 TB/s HBM2e. Latency-model constants
/// (`*_bandwidth`, `atomic_sector_rate`, `flop_rate`) are calibration
/// knobs; the reproduction targets relative speedups, not absolute A100
/// milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// DRAM (HBM) sector transfer size in bytes (32 B on NVIDIA parts).
    pub sector_bytes: u64,
    /// Cache line size in bytes (128 B).
    pub line_bytes: u64,
    /// Per-SM L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Unified L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Shared memory capacity per SM in bytes.
    pub shared_bytes_per_sm: u64,
    /// Peak HBM bandwidth in bytes/second.
    pub dram_bandwidth: f64,
    /// Aggregate L2 bandwidth in bytes/second.
    pub l2_bandwidth: f64,
    /// Aggregate shared-memory bandwidth in bytes/second.
    pub shared_bandwidth: f64,
    /// Sustained FP32 rate for irregular kernels, FLOP/s (well below the
    /// 19.5 TFLOP/s peak; sparse kernels never come close).
    pub flop_rate: f64,
    /// Global atomic throughput in 32 B sectors/second (L2-side atomics).
    pub atomic_sector_rate: f64,
    /// Fixed kernel launch + teardown overhead in seconds.
    pub launch_overhead: f64,
}

impl GpuConfig {
    /// A100-80GB-like configuration (the paper's evaluation platform).
    pub fn a100() -> Self {
        GpuConfig {
            num_sms: 108,
            warp_size: 32,
            sector_bytes: 32,
            line_bytes: 128,
            l1_bytes: 128 * 1024,
            l1_ways: 4,
            l2_bytes: 40 * 1024 * 1024,
            l2_ways: 16,
            shared_bytes_per_sm: 164 * 1024,
            dram_bandwidth: 1.935e12,
            l2_bandwidth: 5.0e12,
            shared_bandwidth: 19.0e12,
            flop_rate: 2.4e12,
            atomic_sector_rate: 6.0e10,
            launch_overhead: 5e-6,
        }
    }

    /// Shrinks cache capacities by `factor`, keeping line/sector sizes and
    /// the SM count.
    ///
    /// The reproduction's datasets are scaled down from the paper's (e.g.
    /// Reddit 233 k → ~4 k nodes). Cache hit rates are governed by the
    /// ratio of cache capacity to working-set size, so simulating a scaled
    /// dataset against full-size caches would report near-100% hit rates.
    /// Scaling per-SM L1 and the unified L2 by the same factor preserves
    /// the ratio and therefore the hit-rate/traffic *shape* the paper
    /// reports. The SM count stays fixed: shrinking it too would scale
    /// aggregate L1 capacity by `factor²`.
    ///
    /// Bandwidths are left untouched: latency results remain "A100-scale"
    /// per byte moved.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "scale factor must be >= 1");
        let mut cfg = self.clone();
        let shrink = |bytes: u64| -> u64 {
            let scaled = (bytes as f64 / factor) as u64;
            // Keep at least 8 lines so associativity stays meaningful.
            scaled.max(cfg_min_bytes(self.line_bytes))
        };
        cfg.l1_bytes = shrink(self.l1_bytes);
        cfg.l2_bytes = shrink(self.l2_bytes);
        cfg
    }

    /// Number of L1 cache sets implied by the geometry.
    pub fn l1_sets(&self) -> usize {
        (self.l1_bytes / (self.line_bytes * self.l1_ways as u64)).max(1) as usize
    }

    /// Number of L2 cache sets implied by the geometry.
    pub fn l2_sets(&self) -> usize {
        (self.l2_bytes / (self.line_bytes * self.l2_ways as u64)).max(1) as usize
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::a100()
    }
}

fn cfg_min_bytes(line_bytes: u64) -> u64 {
    8 * line_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_defaults_sane() {
        let cfg = GpuConfig::a100();
        assert_eq!(cfg.num_sms, 108);
        assert_eq!(cfg.l2_bytes, 40 * 1024 * 1024);
        assert!(cfg.l1_sets() > 0 && cfg.l2_sets() > 0);
        assert_eq!(cfg, GpuConfig::default());
    }

    #[test]
    fn scaled_shrinks_caches_proportionally() {
        let cfg = GpuConfig::a100().scaled(10.0);
        assert_eq!(cfg.l2_bytes, 4 * 1024 * 1024);
        assert!(cfg.l1_bytes <= 13 * 1024);
        assert_eq!(cfg.line_bytes, 128);
        assert_eq!(cfg.num_sms, 108, "SM count must not scale");
        assert_eq!(cfg.dram_bandwidth, GpuConfig::a100().dram_bandwidth);
    }

    #[test]
    fn scaled_floors_at_minimum() {
        let cfg = GpuConfig::a100().scaled(1e9);
        assert!(cfg.l1_bytes >= 8 * cfg.line_bytes);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn scaled_rejects_upscaling() {
        let _ = GpuConfig::a100().scaled(0.5);
    }

    #[test]
    fn set_counts_match_geometry() {
        let cfg = GpuConfig::a100();
        assert_eq!(cfg.l1_sets(), (128 * 1024 / (128 * 4)) as usize);
        assert_eq!(cfg.l2_sets(), (40 * 1024 * 1024 / (128 * 16)) as usize);
    }
}
