//! What an exploration holds live at its worst, under a counting global
//! allocator: the repo benchmark's `mc_explore` input (`deferred`,
//! depth 10, one drop) must peak under [`CEILING_PEAK_BYTES`].
//!
//! Nearly all of it is the visited table — one word per state, in 64
//! segments of 64 KiB (4 MiB) for the 380,953 distinct states — plus at
//! most one split in flight: a full segment and its two halves. The
//! table grows a segment at a time, so no doubling holds the old table
//! alive beside the new one; a one-`Vec` table that doubled peaked at
//! 6.3 MB here, a map with 16-byte buckets at 13.4 MB. This file holds
//! one test, so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use iq_mc::{check, scenario, CheckerConfig, Mutation};

/// Measured: 4.29 MB; about 10 % over it.
const CEILING_PEAK_BYTES: usize = 4_750_000;

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

#[test]
fn mc_explore_input_peaks_at_its_visited_segments() {
    let spec = scenario("deferred").unwrap();
    let cfg = CheckerConfig {
        max_depth: 10,
        drop_budget: 1,
        tick_budget: 2,
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = check(&spec, Mutation::None, &cfg);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    println!(
        "check(deferred, depth 10, drops 1): {} expansions of {} distinct states, \
         {peak} B live at the peak (ceiling {CEILING_PEAK_BYTES})",
        report.explored, report.distinct
    );
    assert_eq!(report.explored, 381_099);
    assert_eq!(report.distinct, 380_953);
    assert!(report.counterexample.is_none());
    assert!(
        peak <= CEILING_PEAK_BYTES,
        "the exploration held {peak} B live at its peak, above {CEILING_PEAK_BYTES}"
    );
}
