//! A counting global allocator for peak-memory measurements.
//!
//! Shared by what reports peak allocated bytes: the end-to-end benchmark
//! under `perfbench/` and this crate's `service_memory` and
//! `journal_memory` tests. Each binary opts in by declaring
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: psh_bench::alloc::CountingAlloc = psh_bench::alloc::CountingAlloc;
//! ```
//!
//! and then brackets the measured region with [`reset_peak`] /
//! [`peak_above`]. The counters are process-global atomics, so
//! allocations from pool worker threads are counted exactly (peak
//! tracking uses a CAS loop). When no binary installs the allocator the
//! module is inert — the counters just stay at zero.

// GlobalAlloc is an unsafe trait; this wrapper is the workspace's one
// unsafe block outside the vendored stand-ins.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper tracking live and peak bytes.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => peak = seen,
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            note_alloc(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Reset the high-water mark to the current live volume. Call at the
/// start of a measured region (and capture [`live_bytes`] as the base).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak bytes allocated above `base` since the last [`reset_peak`].
pub fn peak_above(base: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}
