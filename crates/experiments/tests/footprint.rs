//! Footprint gate: live heap bytes per flow of a small mega world.
//!
//! A global allocator that tracks live bytes and their high-water mark
//! wraps `System`; one `Scenario::mega(2, 256, 4, 1400)` world (512
//! flows on 4 shards, drained inline) is built, run to completion and
//! harvested, and the high-water mark it adds, divided by its flows,
//! must stay under [`CEILING_BYTES_PER_FLOW`]. The number includes what
//! a world pays once (topology, route table, event wheels), so it reads
//! higher than the benchmark's `host.bytes_per_flow` at 25,600 flows;
//! it is a ratchet for per-flow state, not a second benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use iq_experiments::{run_scenario, set_shards, Scenario};

/// Set ≈ 10 % above what the tree measured when the gate was last moved
/// (7,167 B/flow, debug and release alike; the parent of that change
/// measured 9,885). A diet that lowers the number should lower this
/// with it.
const CEILING_BYTES_PER_FLOW: usize = 7_900;

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
fn small_mega_world_stays_under_the_bytes_per_flow_ceiling() {
    set_shards(1);
    let mut sc = Scenario::mega(2, 256, 4, 1400);
    sc.seed = 42;
    let flows = (sc.mega_legs * sc.incast_flows) as usize;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = run_scenario(&sc);
    let per_flow = (PEAK.load(Ordering::Relaxed) - before) / flows;

    assert!(result.finished, "the world did not run to completion");
    assert!(
        per_flow <= CEILING_BYTES_PER_FLOW,
        "live-bytes high-water is {per_flow} B/flow over {flows} flows, \
         above the ceiling of {CEILING_BYTES_PER_FLOW} B/flow"
    );
}
