//! The metric tables (the same names `BENCHMARK.json` lists), the result
//! a workload hands back, and the one-line JSON the driver reads.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric; each workload reports all.
///
/// An operation is one training epoch on `train_*` and one answered query
/// on `serve_*`.
///
/// * `setup_s` — cold start to first result (product constructors plus
///   the first epoch or first answered query), lower quartile of the
///   run's cold starts.
/// * `op_time_ms` — how long one operation takes as its user sees it:
///   epoch wall time, or client-observed query latency.
/// * `ops_per_s` — operations completed per second of the timed region.
/// * `peak_heap_mb` — live-heap high-water mark of a cycle of the timed
///   region (one epoch; 20 reads and, on `serve_zipf_rw`, the write batch
///   before them), median over the cycles, in units of 10^6 bytes.
///
/// `op_time_ms` and `ops_per_s` are the fast-side quartiles of
/// [`crate::stats::fast_quartiles`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_time_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric. A workload reports 0 for a
/// metric whose code is not on its path.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.context_build_ms", "ms"),
    ("graph.dynamic_apply_ms", "ms"),
    ("graph.frontier_ms", "ms"),
    ("graph.frontier_rows_mean", "count"),
    ("graph.dirty_rows_mean", "count"),
    ("tensor.matmul_l0_ms", "ms"),
    ("tensor.matmul_hidden_ms", "ms"),
    ("tensor.matmul_at_b_ms", "ms"),
    ("tensor.matmul_a_bt_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.loss_ms", "ms"),
    ("tensor.optim_step_ms", "ms"),
    ("tensor.par_spawn_us", "us"),
    ("core.maxk_fwd_ms", "ms"),
    ("core.maxk_pivot_ms", "ms"),
    ("core.spgemm_fwd_ms", "ms"),
    ("core.sspmm_bwd_ms", "ms"),
    ("core.spmm_rowwise_ms", "ms"),
    ("core.spgemm_speedup_x", "x"),
    ("core.spgemm_gbps", "GB/s"),
    ("core.cbsr_bytes_ratio", "ratio"),
    ("core.spmm_rows_ms", "ms"),
    ("core.sspmm_rows_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.agg_share", "ratio"),
    ("nn.linear_share", "ratio"),
    ("nn.maxk_share", "ratio"),
    ("nn.other_share", "ratio"),
    ("nn.epoch_p50_ms", "ms"),
    ("nn.epoch_p90_ms", "ms"),
    ("nn.epoch_residual_pct", "%"),
    ("nn.relu_epoch_best_ms", "ms"),
    ("nn.maxk_speedup_x", "x"),
    ("nn.amdahl_limit_x", "x"),
    ("nn.final_loss", "loss"),
    ("nn.allocs_per_epoch", "count"),
    ("nn.alloc_mb_per_epoch", "MB"),
    ("nn.plan_ms", "ms"),
    ("nn.partial_plan_share", "ratio"),
    ("nn.snapshot_load_ms", "ms"),
    ("serve.engine_forward_all_ms", "ms"),
    ("serve.engine_build_ms", "ms"),
    ("serve.stage_queue_wait_p50_us", "us"),
    ("serve.stage_batch_wait_p50_us", "us"),
    ("serve.stage_service_p50_us", "us"),
    ("serve.stage_e2e_p50_us", "us"),
    ("serve.stage_residual_pct", "%"),
    ("serve.kernel_l0_linear_share", "ratio"),
    ("serve.kernel_linear_rest_share", "ratio"),
    ("serve.kernel_maxk_share", "ratio"),
    ("serve.kernel_sparse_share", "ratio"),
    ("serve.mean_batch", "count"),
    ("serve.forwards_per_100q", "count"),
    ("serve.partial_batch_share", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_coalesced_per_1kq", "count"),
    ("serve.cache_evictions_per_1kq", "count"),
    ("serve.cache_invalidated_per_write", "count"),
    ("serve.mutation_cone_nodes_mean", "count"),
    ("serve.write_apply_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.latency_max_ms", "ms"),
    ("serve.allocs_per_query", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.trace_overhead_pct", "%"),
    ("host.noise_ratio", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: epochs, queries, writes and output checks.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable diagnostics for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one output check as an attempted operation, failed when
    /// `ok` is false, and notes it.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.notes.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    /// Adds a diagnostic line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The driver's result line: every metric of `table`, in table order.
///
/// # Errors
///
/// Names the first end-to-end metric the workload did not measure, or the
/// first value that is not a finite number. A per-layer metric that was
/// not measured is reported as 0 (its code is not on the workload's path).
pub fn result_line(
    outcome: &Outcome,
    table: &[(&str, &str)],
    all_required: bool,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.values.get(name) {
            Some(&v) => v,
            None if all_required => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys_in_table_order() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("b_ms", 1.25);
        o.set("a_s", 0.5);
        o.check("rows equal", true);
        let line = result_line(&o, &[("a_s", "s"), ("b_ms", "ms")], true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.set("a_s", 2.0);
        o.check("loss fell", false);
        let line = result_line(&o, &[("a_s", "s")], true).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
    }

    #[test]
    fn missing_or_non_finite_values() {
        let mut o = Outcome::default();
        assert!(result_line(&o, &[("a_s", "s")], true).is_err());
        let line = result_line(&o, &[("a_s", "s")], false).unwrap();
        assert!(line.contains("\"a_s\": {\"value\": 0, \"unit\": \"s\"}"));
        o.set("a_s", f64::NAN);
        assert!(result_line(&o, &[("a_s", "s")], false).is_err());
    }

    /// `BENCHMARK.json` and these tables must name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[start..];
            &rest[..rest.find(']').expect("section closes")]
        };
        let pairs = |text: &str| -> Vec<(String, String)> {
            text.split("\"name\"")
                .skip(1)
                .map(|entry| {
                    let field = |after: &str| {
                        let s = &after[after.find('"').unwrap() + 1..];
                        s[..s.find('"').unwrap()].to_string()
                    };
                    let unit_at = entry.find("\"unit\"").expect("unit present") + 6;
                    (field(&entry[1..]), field(&entry[unit_at + 1..]))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(section("end_to_end")), own(END_TO_END));
        assert_eq!(pairs(section("per_layer")), own(PER_LAYER));
    }
}
