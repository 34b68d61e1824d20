//! Kernel replay for the traced pass: direct calls into the public
//! functions of `graph`, `tensor`, `core`, `nn::plan` and `serve::engine`
//! at the running workload's own shapes, each timed on its own.
//!
//! Hidden activations are Xavier-random matrices of the workload's shape;
//! the graph, the input features and the snapshot are the workload's.

use crate::report::Outcome;
use crate::stats::{self, time_reps};
use maxk_core::{maxk, spgemm, spmm, sspmm, subset, Cbsr};
use maxk_graph::dynamic::{DynamicGraph, EdgeMutation};
use maxk_graph::{Csr, Frontier};
use maxk_nn::plan::ForwardPlan;
use maxk_nn::snapshot::ModelSnapshot;
use maxk_nn::{Arch, GraphContext};
use maxk_serve::InferenceEngine;
use maxk_tensor::{ops, parallel, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Calls per kernel; the fastest is reported.
const REPS: usize = 20;
/// Calls per slow set-up function (context and engine builds).
const BUILD_REPS: usize = 5;
/// Seeds sampled for the frontier and plan measurements.
const SEED_SAMPLES: usize = 200;

/// The shapes a workload runs its kernels at.
pub struct Shapes<'a> {
    /// Structural adjacency.
    pub graph: &'a Csr,
    /// Model architecture (selects the normalization).
    pub arch: Arch,
    /// Input features, `n × in_dim`.
    pub features: &'a Matrix,
    /// Hidden width.
    pub hidden: usize,
    /// MaxK `k`.
    pub k: usize,
    /// Edge-Group width.
    pub eg_width: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Operands shared by the replays.
pub struct Operands {
    ctx: GraphContext,
    /// A hidden activation, `n × hidden`.
    h: Matrix,
    /// A hidden weight, `hidden × hidden`.
    wh: Matrix,
    /// `MaxK_k(h)`.
    xs: Cbsr,
}

fn best<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    stats::min(&time_reps(reps, f))
}

/// `Cbsr::validate` on a `maxk_forward` sample and `spgemm_forward`
/// against its reference, at the workload's shape.
pub fn kernel_checks(s: &Shapes<'_>, out: &mut Outcome) {
    let ctx = GraphContext::build(s.graph, s.arch, s.eg_width);
    let mut rng = StdRng::seed_from_u64(s.seed ^ 0xC0DE);
    let h = Matrix::xavier(s.graph.num_nodes(), s.hidden, &mut rng);
    let xs = maxk::maxk_forward(&h, s.k).expect("k fits the hidden width");
    out.check("maxk_forward output is valid CBSR", xs.validate().is_ok());
    let fast = spgemm::spgemm_forward(&ctx.adj, &xs, &ctx.part);
    let reference = spgemm::spgemm_forward_reference(&ctx.adj, &xs);
    let diff = fast.max_abs_diff(&reference);
    out.check(
        &format!("spgemm_forward equals its reference (max abs diff {diff:e})"),
        diff <= 1e-4,
    );
}

/// Replays the kernels every workload runs: context build, the forward
/// matmuls, MaxK selection and the forward aggregation.
pub fn common(s: &Shapes<'_>, out: &mut Outcome) -> Operands {
    let n = s.graph.num_nodes();
    let in_dim = s.features.cols();
    let mut rng = StdRng::seed_from_u64(s.seed ^ 0xBEEF);

    let build = best(BUILD_REPS, || {
        GraphContext::build(s.graph, s.arch, s.eg_width)
    });
    out.set("graph.context_build_ms", build);
    let ctx = GraphContext::build(s.graph, s.arch, s.eg_width);

    let w0 = Matrix::xavier(in_dim, s.hidden, &mut rng);
    let wh = Matrix::xavier(s.hidden, s.hidden, &mut rng);
    let h = Matrix::xavier(n, s.hidden, &mut rng);
    let l0 = best(REPS, || ops::matmul(s.features, &w0));
    out.set("tensor.matmul_l0_ms", l0);
    out.set(
        "tensor.matmul_hidden_ms",
        best(REPS, || ops::matmul(&h, &wh)),
    );
    // Computed, not counted: 2·n·in·hidden floating-point operations.
    let flops = 2.0 * n as f64 * in_dim as f64 * s.hidden as f64;
    out.set("tensor.matmul_gflops", flops / (l0 * 1e6));

    let rows = 2 * parallel::num_threads();
    let spawns = time_reps(200, || parallel::par_row_chunks(rows, 1, |_, _| {}));
    out.set("tensor.par_spawn_us", stats::median(&spawns) * 1e3);

    out.set(
        "core.maxk_fwd_ms",
        best(REPS, || maxk::maxk_forward(&h, s.k).expect("k fits")),
    );
    out.set(
        "core.maxk_pivot_ms",
        best(REPS, || maxk::maxk_forward_pivot(&h, s.k).expect("k fits")),
    );
    let xs = maxk::maxk_forward(&h, s.k).expect("k fits the hidden width");

    let sp = best(REPS, || spgemm::spgemm_forward(&ctx.adj, &xs, &ctx.part));
    let dense = best(REPS, || spmm::spmm_rowwise(&ctx.adj, &h));
    out.set("core.spgemm_fwd_ms", sp);
    out.set("core.spmm_rowwise_ms", dense);
    // Base: the row-wise dense SpMM on the same operand shape.
    out.set("core.spgemm_speedup_x", dense / sp);
    // Computed bytes: per nonzero one CBSR row plus the CSR column and
    // value, and one dense output row per node.
    let nnz = ctx.adj.num_edges() as f64;
    let bytes = nnz * (xs.row_bytes() + 8) as f64 + (n * s.hidden * 4) as f64;
    out.set("core.spgemm_gbps", bytes / (sp * 1e6));
    out.set(
        "core.cbsr_bytes_ratio",
        xs.row_bytes() as f64 / (s.hidden * 4) as f64,
    );
    Operands { ctx, h, wh, xs }
}

/// Replays the backward-only kernels of a training epoch.
pub fn train(s: &Shapes<'_>, ops_: &Operands, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(s.seed ^ 0xD1FF);
    let dy = Matrix::xavier(s.graph.num_nodes(), s.hidden, &mut rng);
    out.set(
        "tensor.matmul_at_b_ms",
        best(REPS, || ops::matmul_at_b(&ops_.h, &dy)),
    );
    out.set(
        "tensor.matmul_a_bt_ms",
        best(REPS, || ops::matmul_a_bt(&dy, &ops_.wh)),
    );
    out.set(
        "core.sspmm_bwd_ms",
        best(REPS, || {
            sspmm::sspmm_backward(&ops_.ctx.adj_t, &dy, &ops_.xs)
        }),
    );
}

/// Replays what every serving workload runs outside the kernels above:
/// snapshot decode, and the engine's build and full forward.
pub fn serve_engine(s: &Shapes<'_>, snapshot_bytes: &[u8], out: &mut Outcome) -> InferenceEngine {
    out.set(
        "nn.snapshot_load_ms",
        best(REPS, || {
            ModelSnapshot::from_bytes(snapshot_bytes).expect("snapshot decodes")
        }),
    );
    let snapshot = ModelSnapshot::from_bytes(snapshot_bytes).expect("snapshot decodes");
    let mut build_ms = Vec::with_capacity(BUILD_REPS);
    let mut engine = None;
    for _ in 0..BUILD_REPS {
        let features = s.features.clone();
        let t0 = Instant::now();
        let e = InferenceEngine::from_snapshot(&snapshot, s.graph, features);
        build_ms.push(stats::ms(t0.elapsed()));
        engine = Some(e.expect("engine builds"));
    }
    let engine = engine.expect("BUILD_REPS > 0");
    out.set("serve.engine_build_ms", stats::min(&build_ms));
    out.set(
        "serve.engine_forward_all_ms",
        best(REPS / 2, || engine.forward_all()),
    );
    engine
}

/// Replays what only a workload with partial forwards and writes runs:
/// reverse frontiers, the full-versus-partial plan, the row-subset
/// kernels on a median frontier, and the incremental graph update.
pub fn serve_partial(s: &Shapes<'_>, ops_: &Operands, engine: &InferenceEngine, out: &mut Outcome) {
    let n = s.graph.num_nodes();
    let adj = &ops_.ctx.adj;
    let hops = engine.layer_costs().len();
    let mut rng = StdRng::seed_from_u64(s.seed ^ 0x5E2E);

    let seeds: Vec<u32> = (0..SEED_SAMPLES)
        .map(|_| rng.gen_range(0..n as u32))
        .collect();
    let mut frontier_ms = Vec::with_capacity(seeds.len());
    let mut frontiers = Vec::with_capacity(seeds.len());
    for &seed in &seeds {
        let t0 = Instant::now();
        let f = Frontier::reverse_hops(adj, &[seed], hops).expect("seed in range");
        frontier_ms.push(stats::ms(t0.elapsed()));
        frontiers.push(f);
    }
    out.set("graph.frontier_ms", stats::mean(&frontier_ms));
    let rows: Vec<f64> = frontiers.iter().map(|f| f.inputs().len() as f64).collect();
    out.set("graph.frontier_rows_mean", stats::mean(&rows));

    let mut plan_ms = Vec::with_capacity(seeds.len());
    let mut partial = 0usize;
    for &seed in &seeds {
        let t0 = Instant::now();
        let plan = ForwardPlan::choose(adj, &[seed], engine.layer_costs(), engine.plan_config())
            .expect("seed in range");
        plan_ms.push(stats::ms(t0.elapsed()));
        partial += usize::from(plan.is_partial());
    }
    out.set("nn.plan_ms", stats::mean(&plan_ms));
    out.set("nn.partial_plan_share", partial as f64 / seeds.len() as f64);

    // The first layer of a partial forward over the median frontier:
    // outputs at level hops-1, inputs at level hops.
    frontiers.sort_by_key(|f| f.inputs().len());
    let median = &frontiers[frontiers.len() / 2];
    let (out_rows, in_rows) = (median.level(hops - 1), median.level(hops));
    let x = Matrix::xavier(in_rows.len(), s.hidden, &mut rng);
    let xs = maxk::maxk_forward(&x, s.k).expect("k fits the hidden width");
    out.set(
        "core.spmm_rows_ms",
        best(REPS, || subset::spmm_rows(adj, &x, out_rows, in_rows)),
    );
    out.set(
        "core.sspmm_rows_ms",
        best(REPS, || subset::sspmm_rows(adj, &xs, out_rows, in_rows)),
    );

    let (aggregator, self_loops) = s.arch.aggregation();
    let mut graph =
        DynamicGraph::from_csr(s.graph, aggregator, self_loops).expect("graph is valid");
    let mut apply_ms = Vec::with_capacity(50);
    while apply_ms.len() < 50 {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        if u == v || graph.base().get(u as usize, v).is_some() {
            continue;
        }
        let t0 = Instant::now();
        let effect = graph.apply_batch(&[EdgeMutation::Insert { u, v }]);
        apply_ms.push(stats::ms(t0.elapsed()));
        std::hint::black_box(effect.expect("mutation is valid"));
    }
    out.set("graph.dynamic_apply_ms", stats::median(&apply_ms));
}
