//! Write-path heap budget (ISSUE 14; the counting allocator ROADMAP item
//! 3(d) asks for).
//!
//! Serving operands are owned once: a `DynamicEngine::apply` shares the
//! weights with every earlier epoch and the feature state — the matrix
//! and, at wide inputs, layer 0's combination-phase product derived from
//! it — with every epoch since the last feature write. This file holds
//! one test, so nothing else allocates while it measures how far the live
//! heap rises above its level at the start of an apply — the quantity the
//! repo benchmark reports as `peak_heap_mb`. An edge-only batch must not
//! hold a second feature state at any moment, and a feature-writing batch
//! exactly one (copy on write; the epoch being replaced still serves the
//! old rows), with only the written rows of the product recomputed.
//!
//! What an apply still needs is the graph side — the spliced base and
//! operand CSRs, the operand's copy inside the new `GraphContext`, its
//! transpose and Edge-Group partition, the dirty-cone frontier — each
//! `O(N + nnz)` and none `O(N · in_dim)`. At average degree 2 their
//! high-water mark is about 0.3 of the 1 MiB feature matrix, which is
//! what leaves room for the budgets below. Before the shared-operand
//! engine both kinds of apply held two extra feature matrices (the copy
//! handed to the new engine, then the engine's clone into the `RwLock`).

use maxk_gnn::graph::generate;
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{Activation, Arch, GnnModel, ModelConfig};
use maxk_gnn::serve::{DynamicEngine, InvalidationStrategy, Mutation};
use maxk_gnn::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, tracking live bytes and their
/// high-water mark.
struct Counting;

// Statistics only: nothing else is published through them, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn resized(old: usize, new: usize) {
    let live = LIVE.fetch_add(new, Ordering::Relaxed) + new;
    PEAK.fetch_max(live, Ordering::Relaxed);
    LIVE.fetch_sub(old, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        resized(0, layout.size());
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        resized(0, layout.size());
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        resized(layout.size(), new_size);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How far the live heap rose above its starting level while `f` ran.
fn heap_rise<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - start)
}

const NODES: usize = 4096;
const HIDDEN: usize = 32;
const K: usize = 8;
/// Layer 0's product per row: `K` CBSR slots (value + `u8` index) and the
/// dense SAGE self product.
const PRODUCT_ROW_BYTES: usize = K * 5 + HIDDEN * 4;

/// One edge-only and one feature-writing apply over `in_dim`-wide
/// features, against budgets in units of the feature matrix; `kept` is
/// the resident layer-0 product the engine derives from it, in bytes.
/// The graph side of an apply (about 0.3 MiB here) is smaller than either
/// phase's gap between a kept and an absent product, so the write budgets
/// also pin which side of the quarter rule each shape is on.
fn phase(in_dim: usize, kept: usize) {
    let graph = generate::erdos_renyi(NODES, 2.0, 7).to_csr().unwrap();
    let mut cfg = ModelConfig::new(Arch::Sage, Activation::MaxK(K), in_dim, 8);
    cfg.hidden_dim = HIDDEN;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(3);
    let snapshot = ModelSnapshot::capture(&GnnModel::new(cfg, &graph, &mut rng));
    let features = Matrix::xavier(NODES, in_dim, &mut rng);
    let feature_bytes = NODES * in_dim * std::mem::size_of::<f32>();
    let engine =
        DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone).unwrap();

    let edges = [Mutation::InsertEdge { u: 1, v: 4000 }];
    let (report, edge_only) = heap_rise(|| engine.apply(&edges).unwrap());
    assert_eq!((report.epoch, report.inserted), (1, 1));
    assert!(
        edge_only < feature_bytes / 2,
        "edge-only apply held {edge_only} extra B; the feature matrix is {feature_bytes} B"
    );

    let write = [
        Mutation::InsertEdge { u: 2, v: 3000 },
        Mutation::WriteFeature {
            node: 17,
            values: vec![0.25; in_dim],
        },
    ];
    let (report, with_write) = heap_rise(|| engine.apply(&write).unwrap());
    assert_eq!((report.epoch, report.feature_writes), (2, 1));
    assert!(
        with_write > feature_bytes + kept,
        "a feature write must copy the state the previous epoch still serves"
    );
    assert!(
        with_write < feature_bytes * 3 / 2 + kept,
        "feature-writing apply held {with_write} extra B; the feature matrix is \
         {feature_bytes} B, the product kept beside it {kept} B"
    );
}

#[test]
fn apply_copies_features_only_on_a_feature_write() {
    // 64-wide: the product would be 0.66 of the features, so none is kept.
    phase(64, 0);
    // 256-wide: 0.16 of the features, kept and copied with them on write.
    phase(256, NODES * PRODUCT_ROW_BYTES);
}
