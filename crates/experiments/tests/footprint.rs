//! Footprint gates: live heap bytes and allocator calls per flow of a
//! small mega world.
//!
//! A global allocator that tracks live bytes, their high-water mark and
//! the calls made wraps `System`, counting only the calls of the thread
//! a test measures on (libtest's own threads allocate when they report
//! a finished test, and would move a read that overlaps); one
//! `Scenario::mega(2, 256, 4, 1400)` world (512 flows on 4 shards,
//! drained inline) is built, run to
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
//!
//! A third test runs one single-flow scenario whose receiver logs 20,000
//! arrivals: its high-water mark, less the jitter series the run
//! returns, must stay under [`CEILING_SINGLE_FLOW_BYTES`], so that the
//! receiver logs ≈ 3 B an arrival and the series is derived once, after
//! the world is dropped.
//!
//! A fourth runs the §3.3 conflict workload, whose application outruns
//! its transport: its high-water mark, less the series it returns, must
//! stay under [`CEILING_BACKLOGGED_FLOW_BYTES`], so that the sender's
//! backlog costs what it holds and not a doubled slab and its copy.
//!
//! A fifth feeds one shape recorder [`ARRIVALS`] arrivals a millisecond
//! apart: it may hold 3 B an arrival, one partly filled page, the page
//! table and its box, and no more.
//!
//! A sixth test runs a hand-built single-flow world with CBR cross
//! traffic for 2 s and on to 8 s of simulated time: the cross traffic's
//! sink holds only its count, and what the whole world holds must not
//! depend on how long the traffic has been arriving by more than what
//! is in flight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Mutex;

use iq_experiments::tables::conflict_scenario;
use iq_experiments::{
    app_frame_sizes, run_scenario_with, PolicySpec, RunConfig, RunResult, Scenario, Scheme,
};
use iq_metrics::FlowMetrics;
use iq_netsim::{build_dumbbell, time, Addr, BulkSender, DumbbellSpec, FlowId, Simulator};
use iq_rudp::{RudpConfig, RudpSinkAgent};
use iq_workload::{CbrSource, UdpSink};

/// Set ≈ 10 % above what the tree measured when the gate was last moved
/// (3,114 B/flow, debug or release, this test run alone, since a queued
/// fragment packs into 32 bytes; 3,138 with 40-byte fragments, 3,222
/// before the event queue's ring slots shared one spare list of buffers
/// and its cursor stopped at a shard's window, and 3,320 when the
/// scheduler drained every shard in each lookahead window and so held
/// all legs' start-up bursts at once). A diet that lowers the number
/// should lower this with it.
const CEILING_BYTES_PER_FLOW: usize = 3_425;

/// Run growth: bytes per flow the high-water mark of the full run
/// stands above that of the world as built. It is what the engine holds
/// for a flow at the worst moment of its life beyond the flow's own
/// state — packets and events in flight, and whatever a buffer that a
/// burst grew has not given back. Set ≈ 10 % above what the tree
/// measured when the gate was last moved (1,138 B/flow, since ring slots
/// hold a buffer only while they hold events; 1,222 with a buffer parked
/// in every slot the cursor had passed, and 1,318 when the scheduler
/// interleaved the legs).
const CEILING_RUN_GROWTH_PER_FLOW: usize = 1_250;

/// Allocator calls (`alloc` + `alloc_zeroed` + `realloc`) a flow's run
/// phase may make, ≈ 10 % above what the tree measured when the gate
/// was first set (2.82: 1,444 calls over 512 flows). It measured 2.91
/// (1,489 calls) once an emptied packet slab gave its burst back and
/// grew again, 2.93 (1,498) once the legs drained one at a time, and
/// 2.83 (1,448) since the event queue's cursor stops at a shard's
/// window. What is left is mostly the simulator's: event-queue buckets,
/// payload-pool misses, link queues, slabs.
const CEILING_RUN_CALLS_PER_FLOW: f64 = 3.1;

/// Allocator calls per flow of building, harvesting and dropping the
/// world without running it: what the tree measured when the gate was
/// last moved (2,112 calls over 512 flows, 4.125) — an agent's box and
/// its port-table entry; one per *world* is the reported flow's arrival
/// shape. Its parent measured 2,240, the difference being a transport
/// configuration per adaptive source, which now shares its class's.
/// Inline-first storage lives in the agents' boxes; pre-sizing heap
/// buffers in the constructors instead would show up here.
const CEILING_BUILD_CALLS_PER_FLOW: f64 = 4.13;

/// The single-flow gate: bytes the run of a 20,000-message
/// `RudpPlain` transfer adds at its high-water mark beyond the jitter
/// series it returns. Set ≈ 10 % above what the tree measured when the
/// gate was last moved (85,778 B release, with a 319,984-byte
/// series), since the receiver logs each arrival as a varint of its gap
/// in 4 KiB pages and harvest derives the series after dropping the
/// world. With 8-byte arrival times in a doubling `Vec` it read
/// 286,248 B; deriving the series before the drop, 424,570 B; recording
/// 16-byte `(time, deviation)` pairs and moving them out, 372,930 B;
/// harvesting a clone of those, 688,826 B.
const CEILING_SINGLE_FLOW_BYTES: usize = 95_000;

/// Frames the backlogged-flow gate's application offers: at 100 fps
/// it outruns its transport, and the sender's backlog goes past
/// `PAGE_SLOTS` fragments.
const FRAMES: usize = 5_000;

/// The backlogged-flow gate: bytes a §3.3 conflict run of [`FRAMES`]
/// frames under plain RUDP adds at its high-water mark beyond the
/// jitter series it returns, the sender's backlog of fragments among
/// them. Set ≈ 10 % above what the tree measured when the gate was last
/// moved (154,250 B release, since the receiver logs its arrivals
/// in paged varints); it read 542,346 B with 8-byte arrival times in a
/// doubling `Vec`, 1,033,986 B while the receiver recorded 16-byte
/// pairs and the series stood beside the world, 1,205,490 when the
/// series was derived before the drop, and 1,492,226 B when a fragment
/// ring doubled its slab and held the old one and the new while it
/// copied.
const CEILING_BACKLOGGED_FLOW_BYTES: usize = 170_000;

/// Arrivals the shape-recorder gate feeds one recorder.
const ARRIVALS: u64 = 10_000;

/// Bytes in a page of the recorder's arrival log.
const LOG_PAGE_BYTES: usize = 4096;

struct LiveBytes;

/// Signed: a measured thread frees, as it ends, what std allocated for
/// it before [`MEASURED`] was set (40 B), so the count drifts below
/// zero by that much a test. Only differences are read.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether the allocator counts this thread's calls: set on the
    /// thread [`alone`] spawns, for the rest of its life.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

/// The counters are process-global and libtest runs tests on parallel
/// threads: [`alone`] holds this while a test measures.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `measure` on a thread of its own, the one thread whose calls
/// the allocator counts, and waits for that thread to end, all under
/// [`SERIAL`]. Joining matters as much as the lock: a thread's payload
/// pool is freed when the thread ends (counted, as the thread's
/// destructors run on it), and a finished test's pool going away while
/// the next test measures would read as that test's world shrinking.
fn alone(measure: impl FnOnce() + Send + 'static) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let thread = std::thread::spawn(|| {
        MEASURED.set(true);
        measure()
    });
    if let Err(panic) = thread.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Whether the calling thread's allocator calls count.
fn measured() -> bool {
    MEASURED.try_with(Cell::get).unwrap_or(false)
}

fn grew(by: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let by = by as isize;
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if measured() {
            grew(layout.size());
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if measured() {
            grew(layout.size());
        }
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if measured() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                CALLS.fetch_add(1, Ordering::Relaxed);
                LIVE.fetch_sub((layout.size() - new_size) as isize, Ordering::Relaxed);
            }
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if measured() {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Starts a new high-water mark at what is live now, and returns that.
fn mark() -> isize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    before
}

/// Bytes the high-water mark stands above `before`, what [`mark`]
/// returned.
fn peak_above(before: isize) -> usize {
    (PEAK.load(Ordering::Relaxed) - before) as usize
}

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

/// The gated world is drained inline: one thread, no capture.
fn run(sc: &Scenario) -> RunResult {
    run_scenario_with(sc, RunConfig::default())
}

/// The live-bytes high-water mark running `sc` adds to what was live
/// before, with whether it finished.
fn peak_of(sc: &Scenario) -> (usize, bool) {
    let before = mark();
    let result = run(sc);
    (peak_above(before), result.finished)
}

/// Allocator calls of running `sc` and dropping what it returned, with
/// whether it finished and the events it processed.
fn calls_of(sc: &Scenario) -> (usize, bool, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let result = run(sc);
    let (finished, events) = (result.finished, result.events_processed);
    drop(result);
    (CALLS.load(Ordering::Relaxed) - before, finished, events)
}

#[test]
fn small_mega_world_stays_under_the_bytes_per_flow_ceiling() {
    alone(bytes_per_flow_and_run_growth);
}

fn bytes_per_flow_and_run_growth() {
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
    let (full, flows) = small_mega(true);
    let (twin, _) = small_mega(false);
    // Once unmeasured: thread-local pools and lazily built tables.
    run(&full);

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

#[test]
fn a_single_flow_run_holds_its_series_once() {
    alone(single_flow_series);
}

fn single_flow_series() {
    let mut sc = Scenario::new(Scheme::RudpPlain, PolicySpec::None, vec![1400; 20_000]);
    sc.deadline_s = 900.0;
    let before = mark();
    let r = run(&sc);
    let peak = peak_above(before);
    let points = &r.jitter_series.points;
    let series = points.capacity() * std::mem::size_of::<(u64, f64)>();
    let beyond = peak - series;
    println!(
        "single flow: {peak} B at the high-water mark, {series} B of it the returned series, \
         {beyond} B beyond it"
    );
    assert!(r.finished, "the transfer did not finish");
    assert_eq!(points.len(), 19_999, "one jitter sample per gap");
    assert_eq!(
        points.capacity(),
        points.len(),
        "the returned series keeps doubling slack"
    );
    assert!(
        beyond <= CEILING_SINGLE_FLOW_BYTES,
        "the run's high-water mark stands {beyond} B above the {series}-byte series it returns, \
         above the ceiling of {CEILING_SINGLE_FLOW_BYTES} B: the series is held twice or \
         beside the world, or an arrival costs more than its varint"
    );
}

#[test]
fn a_backlogged_flow_holds_its_backlog_once() {
    alone(backlogged_flow);
}

fn backlogged_flow() {
    let frames = app_frame_sizes(FRAMES, 11);
    let sc = conflict_scenario(&frames, Scheme::Uncoordinated);
    let before = mark();
    let r = run(&sc);
    let peak = peak_above(before);
    let series = r.jitter_series.points.capacity() * std::mem::size_of::<(u64, f64)>();
    let beyond = peak - series;
    println!(
        "backlogged flow: {peak} B at the high-water mark, {series} B of it the returned \
         series, {beyond} B beyond it"
    );
    assert!(r.finished, "the transfer did not finish");
    assert!(
        beyond <= CEILING_BACKLOGGED_FLOW_BYTES,
        "the run's high-water mark stands {beyond} B above the {series}-byte series it returns, \
         above the ceiling of {CEILING_BACKLOGGED_FLOW_BYTES} B: the backlog costs more than \
         it holds"
    );
}

#[test]
fn a_shape_recorder_holds_three_bytes_an_arrival() {
    alone(shape_recorder_bytes);
}

fn shape_recorder_bytes() {
    let mut m = FlowMetrics::new();
    for i in 0..ARRIVALS {
        m.on_message(i * 1_000_000 + i % 7 * 1_000, 0, 1400, i % 3 == 0);
    }
    let held = heap_of(&m);
    let boxed = heap_of(&FlowMetrics::new());
    // A gap of about a millisecond is a 3-byte varint.
    let times = 3 * ARRIVALS as usize;
    let page_table = (times / LOG_PAGE_BYTES + 1) * std::mem::size_of::<Box<[u8]>>();
    let bound = times + LOG_PAGE_BYTES + page_table + boxed;
    println!("shape recorder: {held} B after {ARRIVALS} arrivals, {boxed} B of it the box");
    assert!(
        held <= bound,
        "a shape recorder holds {held} B after {ARRIVALS} arrivals a millisecond apart, above \
         {bound} B: {times} B of 3-byte gaps, a {LOG_PAGE_BYTES}-byte page partly filled, a \
         {page_table}-byte page table and its {boxed}-byte box"
    );
}

#[test]
fn a_cross_traffic_sink_does_not_grow_with_the_run() {
    alone(cross_sink_over_run_length);
}

/// Heap bytes `metrics` holds, read as what a clone of it allocates.
fn heap_of(metrics: &FlowMetrics) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    let copy = metrics.clone();
    let held = (LIVE.load(Ordering::Relaxed) - before) as usize;
    drop(copy);
    held
}

fn cross_sink_over_run_length() {
    // The single-flow world of the paper's tables, by hand so the sinks
    // can be read mid-run: a 150-message RUDP transfer on host pair 0,
    // 18 Mb/s CBR on pair 1 of the 20 Mb/s dumbbell.
    let start = LIVE.load(Ordering::Relaxed);
    let mut sim = Simulator::new(42);
    let db = build_dumbbell(&mut sim, &DumbbellSpec::paper_default(2));
    let (lh, rh) = (&db.left_hosts, &db.right_hosts);
    let cbr = CbrSource::new(Addr::new(rh[1], 10), FlowId(100), 18e6, 972);
    sim.add_agent(lh[1], 10, Box::new(cbr));
    let cross = sim.add_agent(rh[1], 10, Box::new(UdpSink::new()));
    let builder = RudpConfig::default().builder(1, FlowId(1));
    let bulk = BulkSender::new(builder.build_sender(Addr::new(rh[0], 1)), 150, 1400);
    sim.add_agent(lh[0], 1, Box::new(bulk));
    let sink = RudpSinkAgent::new(builder.build_receiver(), FlowMetrics::new());
    let rx = sim.add_agent(rh[0], 1, Box::new(sink));

    let mut marks = Vec::new();
    for until in [2.0, 8.0] {
        sim.run_until(time::secs(until));
        let sink = sim.agent::<UdpSink>(cross).expect("cross sink");
        let world = (LIVE.load(Ordering::Relaxed) - start) as usize;
        marks.push((sink.received, world));
    }
    let flow = sim.agent::<RudpSinkAgent>(rx).expect("flow sink");
    assert!(
        flow.is_finished() && flow.metrics.duration_s() < 2.0,
        "the flow outlasted 2 s"
    );
    assert!(
        heap_of(&flow.metrics) > 0,
        "the reported flow keeps its arrival times"
    );

    let [(early, early_world), (late, late_world)] = marks[..] else {
        unreachable!()
    };
    println!(
        "cross sink: {early} datagrams at 2 s, {late} at 8 s; \
         world {early_world} B, {late_world} B live"
    );
    assert!(
        late > 3 * early && early > 1_000,
        "the cross traffic did not keep arriving"
    );
    assert_eq!(
        std::mem::size_of::<UdpSink>(),
        8,
        "the cross sink holds more than its count"
    );
    // The whole world, up to which packets and events the two instants
    // catch in flight (96 B when written; the 13,500 datagrams between
    // them used to leave 216 KB in the cross sink's series).
    assert!(
        late_world.abs_diff(early_world) <= 4_096,
        "the world's live bytes follow the run length: {early_world} B at 2 s, {late_world} B at 8 s"
    );
}
