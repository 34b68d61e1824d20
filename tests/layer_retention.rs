//! What one MaxK training layer keeps between its forward and its backward.
//!
//! A layer's backward reads its input (after dropout), the dropout mask
//! and the MaxK selection as its CBSR — and nothing else: not the dense
//! pre-activation, not the aggregation's inputs. This file holds one test,
//! so nothing else allocates while it counts the live heap across one
//! layer's forward and backward.

use maxk_gnn::core::Cbsr;
use maxk_gnn::graph::generate;
use maxk_gnn::nn::{Activation, Arch, Conv, GraphContext};
use maxk_gnn::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, tracking live bytes.
struct Counting;

// Statistics only: nothing else is published through it, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// 8 rows run every kernel on the calling thread; 2,000 split the big ones
/// across helper threads, which are joined — their own bookkeeping freed —
/// before the kernel returns.
const SIZES: [usize; 2] = [8, 2000];
const IN_DIM: usize = 48;
const OUT_DIM: usize = 64;
const K: usize = 8;

#[test]
fn maxk_layer_keeps_its_input_mask_and_cbsr_until_backward() {
    for (nodes, arch) in SIZES
        .into_iter()
        .flat_map(|n| [Arch::Gcn, Arch::Sage, Arch::Gin].map(|a| (n, a)))
    {
        let graph = generate::chung_lu_power_law(nodes, 3.0, 2.3, 4)
            .to_csr()
            .unwrap();
        let ctx = GraphContext::build(&graph, arch, 32);
        let mut rng = StdRng::seed_from_u64(9);
        let mut conv = Conv::new(
            arch,
            Some(Activation::MaxK(K)),
            IN_DIM,
            OUT_DIM,
            0.5,
            &mut rng,
        );
        let x = Matrix::xavier(nodes, IN_DIM, &mut rng);
        let dy = Matrix::xavier(nodes, OUT_DIM, &mut rng);
        // A first pass warms whatever the kernels initialise once.
        drop(conv.forward(&ctx, Cow::Borrowed(&x), true, &mut rng, &mut None));
        drop(conv.backward(&ctx, &dy, true, &mut None));

        let start = LIVE.load(Ordering::Relaxed);
        let y = conv.forward(&ctx, Cow::Borrowed(&x), true, &mut rng, &mut None);
        let kept = LIVE.load(Ordering::Relaxed) - start - std::mem::size_of_val(y.data());
        let input = nodes * IN_DIM * std::mem::size_of::<f32>();
        let mask = nodes * IN_DIM * std::mem::size_of::<bool>();
        let cbsr = nodes * Cbsr::row_bytes_of(OUT_DIM, K);
        assert_eq!(kept, input + mask + cbsr, "{nodes} rows, {arch:?}");

        let dx = conv.backward(&ctx, &dy, true, &mut None).unwrap();
        drop((y, dx));
        assert_eq!(
            LIVE.load(Ordering::Relaxed),
            start,
            "{nodes} rows, {arch:?}: kept after backward"
        );
    }
}
