//! Regenerates Table 4: kernel latency profile (SpMM / SpGEMM / SSpMM /
//! MaxK) on the Reddit stand-in at dim 256, k 32.
//!
//! Paper values (Reddit, A100): SpMM 44.98 ms, SpGEMM 15.49 ms, SSpMM
//! 15.07 ms, MaxK 0.261 ms — the MaxK selection kernel costs < 2% of the
//! SpGEMM runtime.
//!
//! Usage: `cargo run --release -p maxk-bench --bin table4_kernels
//!         [--dataset Reddit] [--dim 256] [--k 32] [--reps 5]`

use maxk_bench::{measure_cpu_kernels, report, Args, Table};
use maxk_core::maxk::{maxk_forward_pivot, PIVOT_MAX_ITERS};
use maxk_core::sim_kernels::profile_kernel_suite;
use maxk_gpu_sim::GpuConfig;
use maxk_graph::datasets::{DatasetSpec, Scale};
use maxk_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let name = args.get_str("dataset", "Reddit");
    let dim: usize = args.get("dim", 256);
    let k: usize = args.get("k", 32);
    let w: usize = args.get("w", 32);
    let reps: usize = args.get("reps", 5);

    let spec = DatasetSpec::find(&name).unwrap_or_else(|| panic!("unknown dataset {name}"));
    let ds = spec
        .load(Scale::Bench, 0x7ab4)
        .expect("generator output is valid");
    let adj = &ds.csr;

    // Measure real pivot-iteration statistics to feed the simulator.
    let mut rng = StdRng::seed_from_u64(9);
    let x = Matrix::xavier(adj.num_nodes(), dim, &mut rng);
    let (_, stats) = maxk_forward_pivot(&x, k).expect("k <= dim");
    let pivot_iters = stats.avg_iterations().ceil() as usize;

    println!("# Table 4: kernel latency profile ({name} stand-in, dim {dim}, k {k})\n");
    println!(
        "graph: {} nodes, {} edges | MaxK bisection passes per row: avg {:.2}, rows past {PIVOT_MAX_ITERS}: {:.1}%\n",
        adj.num_nodes(),
        adj.num_edges(),
        stats.avg_iterations(),
        100.0 * stats.fallback_rate()
    );

    let factor = (spec.paper_nodes as f64 / adj.num_nodes() as f64).max(1.0);
    let cfg = GpuConfig::a100().scaled(factor);
    let suite = profile_kernel_suite(adj, dim, k, w, pivot_iters.max(1), &cfg);
    let cpu = measure_cpu_kernels(adj, dim, k, w, reps, 0xab);

    let mut table = Table::new(vec![
        "kernel",
        "sim-GPU latency",
        "measured CPU",
        "paper (A100)",
    ]);
    let rows = [
        ("SpMM", suite.spmm.latency(&cfg), cpu.spmm_s, "44.98ms"),
        (
            "SpGEMM",
            suite.spgemm.latency(&cfg),
            cpu.spgemm_s,
            "15.49ms",
        ),
        ("SSpMM", suite.sspmm.latency(&cfg), cpu.sspmm_s, "15.07ms"),
        ("MaxK", suite.maxk.latency(&cfg), cpu.maxk_s, "0.261ms"),
    ];
    for (kernel, sim, cpu_t, paper) in rows {
        table.row(vec![
            kernel.to_owned(),
            report::fmt_time(sim),
            report::fmt_time(cpu_t),
            paper.to_owned(),
        ]);
    }
    table.print();

    // Launch overhead dominates tiny simulated kernels; report the MaxK
    // cost net of it, which is the quantity that scales with the graph.
    let net = |lat: f64| (lat - cfg.launch_overhead).max(0.0);
    println!(
        "\nshape checks: SpGEMM speedup {:.2}x (paper 2.90x), SSpMM speedup {:.2}x \
         (paper 2.98x), MaxK/SpGEMM cost {:.1}% net of launch overhead (paper < 2%)",
        suite.spmm.latency(&cfg) / suite.spgemm.latency(&cfg),
        suite.spmm.latency(&cfg) / suite.sspmm.latency(&cfg),
        100.0 * net(suite.maxk.latency(&cfg)) / net(suite.spgemm.latency(&cfg)),
    );
}
