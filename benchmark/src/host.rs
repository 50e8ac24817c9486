//! What the harness reads from the operating system and from its own
//! allocator wrapper: CPU time and fault counts (`getrusage`), resident
//! set sizes (`/proc/self/status`), a description of the host for the
//! output header, and allocation counts in traced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// `System`, counting calls and live bytes while [`set_counting`] is on.
///
/// Timed repetitions of untraced runs — the ones end-to-end timings
/// come from — run with counting off, and pay one relaxed load and a
/// branch per call. While it is on, each thread batches its counts in
/// a thread-local cell and folds them into the shared totals every
/// [`FOLD_OPS`] calls or [`FOLD_BYTES`] bytes, so that the shared cache
/// line is not written on every allocation. The high-water mark is
/// therefore read at fold points: exact to within `FOLD_BYTES` per
/// thread, and on one thread a pure function of the allocation
/// sequence. The counters publish no other data, hence `Relaxed`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Signed: a block allocated before counting started may be freed
/// while it is on.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

const FOLD_OPS: u32 = 64;
const FOLD_BYTES: i64 = 64 * 1024;

/// One thread's counts not yet folded into the shared totals.
#[derive(Clone, Copy)]
struct Pending {
    allocs: u64,
    ops: u32,
    bytes: i64,
}

const NOTHING_PENDING: Pending = Pending {
    allocs: 0,
    ops: 0,
    bytes: 0,
};

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator neither allocates nor can find it destroyed.
    static PENDING: Cell<Pending> = const { Cell::new(NOTHING_PENDING) };
}

fn fold(p: Pending) {
    ALLOCS.fetch_add(p.allocs, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(p.bytes, Ordering::Relaxed) + p.bytes;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

#[inline]
fn note(allocs: u64, bytes: i64) {
    PENDING.with(|cell| {
        let mut p = cell.get();
        p.allocs += allocs;
        p.ops += 1;
        p.bytes += bytes;
        if p.ops >= FOLD_OPS || p.bytes.abs() >= FOLD_BYTES {
            fold(p);
            p = NOTHING_PENDING;
        }
        cell.set(p);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note(1, layout.size() as i64);
        }
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note(1, layout.size() as i64);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note(1, new_size as i64 - layout.size() as i64);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            note(0, -(layout.size() as i64));
        }
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// A reading of the allocator counters; subtract two with
/// [`AllocMark::since`]. Both ends fold the calling thread's pending
/// counts first, so what one thread did between them is counted
/// exactly.
#[derive(Debug, Clone, Copy)]
pub struct AllocMark {
    allocs: u64,
    live: i64,
}

fn fold_this_thread() {
    PENDING.with(|cell| fold(cell.replace(NOTHING_PENDING)));
}

impl AllocMark {
    /// Reads the counters and restarts the high-water mark from the
    /// current live size, so the next [`AllocMark::since`] reports the
    /// peak of its own interval.
    pub fn now() -> Self {
        fold_this_thread();
        let live = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(live, Ordering::Relaxed);
        Self {
            allocs: ALLOCS.load(Ordering::Relaxed),
            live,
        }
    }

    /// `(allocation calls, live bytes gained, peak live bytes gained)`
    /// since `self` was taken. Meaningful only while counting is on and
    /// no other mark was taken in between.
    pub fn since(self) -> (u64, i64, i64) {
        fold_this_thread();
        (
            ALLOCS.load(Ordering::Relaxed) - self.allocs,
            LIVE_BYTES.load(Ordering::Relaxed) - self.live,
            PEAK_BYTES.load(Ordering::Relaxed) - self.live,
        )
    }
}

/// Resource usage of this process, all threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    pub major_faults: u64,
    pub invol_ctx_switches: u64,
}

impl Rusage {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            major_faults: self.major_faults - earlier.major_faults,
            invol_ctx_switches: self.invol_ctx_switches - earlier.invol_ctx_switches,
        }
    }
}

/// `getrusage(RUSAGE_SELF)`; zeros where the call is unavailable.
pub fn rusage() -> Rusage {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timeval {
            sec: i64,
            usec: i64,
        }
        /// `struct rusage` of 64-bit Linux: two timevals and 14 longs.
        #[repr(C)]
        struct Raw {
            utime: Timeval,
            stime: Timeval,
            longs: [i64; 14],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Raw) -> i32;
        }
        let mut raw = std::mem::MaybeUninit::<Raw>::zeroed();
        // SAFETY: `raw` is a writable buffer with the layout the kernel
        // ABI documents for `struct rusage` on 64-bit Linux, and
        // RUSAGE_SELF (0) is a valid `who`.
        let rc = unsafe { getrusage(0, raw.as_mut_ptr()) };
        if rc == 0 {
            // SAFETY: the call succeeded, so the kernel filled the
            // struct; it was zero-initialised before, so every field is
            // a valid integer either way.
            let raw = unsafe { raw.assume_init() };
            let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
            // longs: maxrss ixrss idrss isrss minflt majflt nswap
            // inblock oublock msgsnd msgrcv nsignals nvcsw nivcsw
            return Rusage {
                user_s: secs(&raw.utime),
                sys_s: secs(&raw.stime),
                minor_faults: raw.longs[4] as u64,
                major_faults: raw.longs[5] as u64,
                invol_ctx_switches: raw.longs[13] as u64,
            };
        }
    }
    Rusage::default()
}

fn proc_status_bytes(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set of this process so far (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// Resident set of this process now (`VmRSS`), bytes.
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host as the output header describes it, so a disturbed or
/// different machine is visible beside the numbers it produced.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub loadavg: String,
}

impl HostInfo {
    pub fn read() -> Self {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: nproc(),
            cpu_model,
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
            loadavg: read("/proc/loadavg").trim().to_string(),
        }
    }
}
