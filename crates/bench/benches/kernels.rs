//! Criterion benches for the kernel suite (Fig. 8 / Table 4 hot paths).
//!
//! Run with `cargo bench -p maxk-bench --bench kernels`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maxk_core::maxk::maxk_forward;
use maxk_core::spgemm::spgemm_forward;
use maxk_core::spmm::{spmm_gnnadvisor, spmm_rowwise};
use maxk_core::sspmm::sspmm_backward;
use maxk_graph::datasets::{DatasetSpec, Scale};
use maxk_graph::WarpPartition;
use maxk_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 256;

fn reddit_sim() -> maxk_graph::Csr {
    DatasetSpec::find("Reddit")
        .expect("catalog entry")
        .load(Scale::Test, 0xbe)
        .expect("generator output is valid")
        .csr
}

fn bench_spmm_baselines(c: &mut Criterion) {
    let adj = reddit_sim();
    let n = adj.num_nodes();
    let mut rng = StdRng::seed_from_u64(1);
    let x = Matrix::xavier(n, DIM, &mut rng);
    let part = WarpPartition::build(&adj, 32);

    let mut g = c.benchmark_group("spmm_baselines");
    g.bench_function("rowwise_cusparse_style", |b| {
        b.iter(|| std::hint::black_box(spmm_rowwise(&adj, &x)));
    });
    g.bench_function("gnnadvisor_style", |b| {
        b.iter(|| std::hint::black_box(spmm_gnnadvisor(&adj, &x, &part)));
    });
    g.finish();
}

fn bench_spgemm_forward(c: &mut Criterion) {
    let adj = reddit_sim();
    let n = adj.num_nodes();
    let mut rng = StdRng::seed_from_u64(2);
    let x = Matrix::xavier(n, DIM, &mut rng);
    let part = WarpPartition::build(&adj, 32);

    let mut g = c.benchmark_group("spgemm_forward");
    for k in [8usize, 16, 32, 64] {
        let xs = maxk_forward(&x, k).expect("k <= dim");
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| std::hint::black_box(spgemm_forward(&adj, &xs, &part)));
        });
    }
    g.finish();
}

fn bench_sspmm_backward(c: &mut Criterion) {
    let adj = reddit_sim();
    let adj_t = adj.transpose();
    let n = adj.num_nodes();
    let mut rng = StdRng::seed_from_u64(3);
    let x = Matrix::xavier(n, DIM, &mut rng);
    let dxl = Matrix::xavier(n, DIM, &mut rng);

    let mut g = c.benchmark_group("sspmm_backward");
    for k in [8usize, 16, 32, 64] {
        let pattern = maxk_forward(&x, k).expect("k <= dim");
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| std::hint::black_box(sspmm_backward(&adj_t, &dxl, &pattern)));
        });
    }
    g.finish();
}

fn bench_maxk_select(c: &mut Criterion) {
    let adj = reddit_sim();
    let n = adj.num_nodes();
    let mut rng = StdRng::seed_from_u64(4);
    let x = Matrix::xavier(n, DIM, &mut rng);

    let mut g = c.benchmark_group("maxk_select");
    for k in [8usize, 16, 32, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| std::hint::black_box(maxk_forward(&x, k).expect("k <= dim")));
        });
    }
    g.finish();
}

fn bench_cbsr_convert(c: &mut Criterion) {
    let adj = reddit_sim();
    let n = adj.num_nodes();
    let mut rng = StdRng::seed_from_u64(5);
    let x = Matrix::xavier(n, DIM, &mut rng);
    let xs = maxk_forward(&x, 32).expect("k <= dim");

    let mut g = c.benchmark_group("cbsr_convert");
    g.bench_function("to_dense", |b| {
        b.iter(|| std::hint::black_box(xs.to_dense()));
    });
    g.bench_function("gather_with_pattern", |b| {
        b.iter(|| std::hint::black_box(maxk_core::maxk::gather_with_pattern(&x, &xs)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_spmm_baselines,
    bench_spgemm_forward,
    bench_sspmm_backward,
    bench_maxk_select,
    bench_cbsr_convert
);
criterion_main!(benches);
