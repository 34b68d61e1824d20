//! A counting `#[global_allocator]`: live bytes, their high-water mark,
//! and allocation counts, all exact. `peak_heap_mb` comes from here and
//! not from the process RSS, because RSS on the reference host drifted 5%
//! between two runs of the same code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Forwards to the system allocator and counts.
pub struct Counting;

// Statistics only: no other data is published through these, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as received.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as received.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Restarts the high-water mark from the bytes live now, so that what
/// the input generators allocated and freed does not count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Ends one cycle of a timed region: its high-water mark in MB (10^6
/// bytes), after which the mark restarts for the next cycle.
///
/// `peak_heap_mb` is the median of these over the cycles of a run and not
/// their maximum: on `serve_zipf_rw` the maximum is reached once or twice
/// in a thousand write cycles, when an engine rebuild happens to overlap
/// the largest forward, and whether it does is a matter of scheduling (one
/// seed read 46.9, 46.9 and 48.4 MB in three runs, while the median of
/// its cycles read 39.82, 39.91 and 39.83).
pub fn take_cycle_peak_mb() -> f64 {
    let peak = PEAK.load(Ordering::Relaxed);
    reset_peak();
    peak as f64 / 1e6
}

/// `(allocation calls, bytes requested)` since the process started.
pub fn totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
