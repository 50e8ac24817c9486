//! Footprint gates: live heap bytes and allocator calls per flow of a
//! small mega world.
//!
//! A global allocator that tracks live bytes, their high-water mark and
//! the calls made wraps `System`; one `Scenario::mega(2, 256, 4, 1400)`
//! world (512 flows on 4 shards, drained inline) is built, run to
//! completion and harvested. The high-water mark it adds, divided by
//! its flows, must stay under [`CEILING_BYTES_PER_FLOW`]; what of that
//! the run adds to the built world — the full run's high-water mark
//! minus that of a `deadline_s = 0` twin, which builds, harvests and
//! drops the same world without running it — under
//! [`CEILING_RUN_GROWTH_PER_FLOW`]; the allocator calls the run phase
//! makes per flow, full run minus twin again, under
//! [`CEILING_RUN_CALLS_PER_FLOW`]; and the twin's own under
//! [`CEILING_BUILD_CALLS_PER_FLOW`], so that calls are removed from a
//! flow's life and not moved into its construction.
//! The numbers include what a world pays once (topology, route table,
//! event wheels), so they read higher than the benchmark's
//! `host.bytes_per_flow` / `host.allocs_per_kevent` at 25,600 flows;
//! they are ratchets for per-flow state, not a second benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use iq_experiments::{run_scenario, set_shards, Scenario};

/// Set ≈ 10 % above what the tree measured when the gate was last moved
/// (3,988 B/flow, debug or release, this test run alone; the parent of
/// that change, whose segments, events and per-class constants were not
/// yet wire-sized, measured 4,652). A diet that lowers the number
/// should lower this with it.
const CEILING_BYTES_PER_FLOW: usize = 4_400;

/// Run growth: bytes per flow the high-water mark of the full run
/// stands above that of the world as built. It is what the engine holds
/// for a flow at the worst moment of its life beyond the flow's own
/// state — packets and events in flight, and whatever a buffer that a
/// burst grew has not given back. Set ≈ 10 % above what the tree
/// measured when the gate was last moved (1,707 B/flow; its parent,
/// whose payload buffers were 192 bytes for a 104-byte packet, measured
/// 2,020).
const CEILING_RUN_GROWTH_PER_FLOW: usize = 1_880;

/// Allocator calls (`alloc` + `alloc_zeroed` + `realloc`) a flow's run
/// phase may make, ≈ 10 % above what the tree measured when the gate
/// was set (2.84: 1,456 calls over 512 flows; its parent, whose
/// connections allocated every queue and ring on first use, measured
/// 12.0). What is left is mostly the simulator's: event-queue buckets,
/// payload-pool misses, link queues.
const CEILING_RUN_CALLS_PER_FLOW: f64 = 3.2;

/// Allocator calls per flow of building, harvesting and dropping the
/// world without running it: exactly what the tree measured when the
/// gate was set, and its parent too (2,263 calls over 512 flows) — an
/// agent's box, its port-table entry, the adaptive source's config.
/// Inline-first storage lives in those boxes; pre-sizing heap buffers
/// in the constructors instead would show up here.
const CEILING_BUILD_CALLS_PER_FLOW: f64 = 4.42;

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The counters are process-global and libtest runs tests on parallel
/// threads: [`alone`] holds this while a test measures.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `measure` on a thread of its own and waits for that thread to
/// end, all under [`SERIAL`]. Joining matters as much as the lock: a
/// thread's payload pool is freed when the thread ends, and a finished
/// test's pool going away while the next test measures would read as
/// that test's world shrinking.
fn alone(measure: impl FnOnce() + Send + 'static) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if let Err(panic) = std::thread::spawn(measure).join() {
        std::panic::resume_unwind(panic);
    }
}

fn grew(by: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
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
            CALLS.fetch_add(1, Ordering::Relaxed);
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

/// The gated world; `run = false` is its `deadline_s = 0` twin.
fn small_mega(run: bool) -> (Scenario, usize) {
    let mut sc = Scenario::mega(2, 256, 4, 1400);
    sc.seed = 42;
    if !run {
        sc.deadline_s = 0.0;
    }
    let flows = (sc.mega_legs * sc.incast_flows) as usize;
    (sc, flows)
}

/// The live-bytes high-water mark running `sc` adds to what was live
/// before, with whether it finished.
fn peak_of(sc: &Scenario) -> (usize, bool) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = run_scenario(sc);
    (PEAK.load(Ordering::Relaxed) - before, result.finished)
}

/// Allocator calls of running `sc` and dropping what it returned, with
/// whether it finished and the events it processed.
fn calls_of(sc: &Scenario) -> (usize, bool, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let result = run_scenario(sc);
    let (finished, events) = (result.finished, result.events_processed);
    drop(result);
    (CALLS.load(Ordering::Relaxed) - before, finished, events)
}

#[test]
fn small_mega_world_stays_under_the_bytes_per_flow_ceiling() {
    alone(bytes_per_flow_and_run_growth);
}

fn bytes_per_flow_and_run_growth() {
    set_shards(1);
    let (full, flows) = small_mega(true);
    let (twin, _) = small_mega(false);

    let (built, _) = peak_of(&twin);
    let (peak, finished) = peak_of(&full);
    let per_flow = peak / flows;
    let growth = peak.saturating_sub(built) / flows;

    // `-- --nocapture` shows what the tree measures.
    println!(
        "{per_flow} B/flow at the high-water mark, {growth} B/flow run growth ({flows} flows)"
    );
    assert!(finished, "the world did not run to completion");
    assert!(
        per_flow <= CEILING_BYTES_PER_FLOW,
        "live-bytes high-water is {per_flow} B/flow over {flows} flows, \
         above the ceiling of {CEILING_BYTES_PER_FLOW} B/flow"
    );
    assert!(
        growth <= CEILING_RUN_GROWTH_PER_FLOW,
        "running the world raises its live-bytes high-water by {growth} B/flow \
         ({built} B built, {peak} B at the peak, {flows} flows), above the ceiling of \
         {CEILING_RUN_GROWTH_PER_FLOW} B/flow: a buffer keeps what a burst grew it to"
    );
}

#[test]
fn a_flows_first_touch_makes_no_allocator_calls() {
    alone(calls_per_flow);
}

fn calls_per_flow() {
    set_shards(1);
    let (full, flows) = small_mega(true);
    let (twin, _) = small_mega(false);
    // Once unmeasured: thread-local pools and lazily built tables.
    run_scenario(&full);

    let (build_calls, _, unrun_events) = calls_of(&twin);
    let (full_calls, finished, _) = calls_of(&full);
    assert!(finished, "the world did not run to completion");
    assert_eq!(unrun_events, 0, "the twin must not run");

    let build = build_calls as f64 / flows as f64;
    let run = (full_calls - build_calls) as f64 / flows as f64;
    println!(
        "{build_calls} build calls ({build:.2}/flow), {} run calls ({run:.2}/flow)",
        full_calls - build_calls
    );
    assert!(
        build <= CEILING_BUILD_CALLS_PER_FLOW,
        "building, harvesting and dropping the world makes {build:.2} allocator calls per flow \
         ({build_calls} over {flows} flows), above {CEILING_BUILD_CALLS_PER_FLOW}: \
         calls were moved into construction"
    );
    assert!(
        run <= CEILING_RUN_CALLS_PER_FLOW,
        "the run phase makes {run:.2} allocator calls per flow ({} over {flows} flows), \
         above the ceiling of {CEILING_RUN_CALLS_PER_FLOW}",
        full_calls - build_calls
    );
}
