//! The end-to-end simulator benchmark behind `iqrudp bench`.
//!
//! Runs a fixed, deterministic scenario sweep chosen to exercise every
//! hot path of `iq-netsim` (event scheduling, timer churn, per-hop
//! routing, queueing, loss recovery) and writes the measurements to
//! `BENCH_netsim.json` so the performance trajectory of the simulator is
//! tracked in-repo from PR to PR.
//!
//! The JSON file holds two sections:
//!
//! * `baseline` — the floor laid down the first time the bench ran (the
//!   pre-overhaul `BinaryHeap`-scheduler simulator). It is carried
//!   forward verbatim on every subsequent run so before/after evidence
//!   never disappears.
//! * `current` — the most recent measurement.
//!
//! `--check FILE` compares a fresh run against the `current` section of
//! a committed file and fails (non-zero exit) when any scenario's
//! `events`, `fingerprint` or `counter_fingerprint` differs from the
//! committed one (same sweep size only), or when aggregate events/sec
//! regressed by more than `--max-regress` (default 20 %). CI uses this
//! as a smoke gate.

use std::time::Instant;

use crate::runner::{run_specs, ScenarioSpec};
use crate::scenario::{app_frame_sizes, PolicySpec, Scenario, Scheme, VbrSpec};
use crate::tables::{conflict_scenario, Size};
use iq_rudp::CcAlgorithm;

/// Options for one bench invocation (a parsed `iqrudp bench` command
/// line).
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Workload scale (1.0 = the committed reference scale).
    pub size: Size,
    /// Where the measurement JSON is written.
    pub out_path: String,
    /// When set, compare against the `current` section of this file.
    pub check_path: Option<String>,
    /// Allowed fractional events/sec regression before `--check` fails.
    pub max_regress: f64,
    /// Free-form label recorded with the measurement (e.g. which
    /// scheduler implementation produced it).
    pub label: String,
    /// When set, run only the scenario with this name (plus, for
    /// `mega_flows`, its shard scaling curve).
    pub only: Option<String>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            size: Size::FULL,
            out_path: "BENCH_netsim.json".to_string(),
            check_path: None,
            max_regress: 0.20,
            label: "netsim".to_string(),
            only: None,
        }
    }
}

/// One scenario's measurement.
#[derive(Debug, Clone)]
pub struct BenchScenario {
    /// Scenario name (stable across runs).
    pub name: String,
    /// Simulator events processed.
    pub events: u64,
    /// Host wall-clock seconds.
    pub wall_s: f64,
    /// Events per second of host time.
    pub events_per_sec: f64,
    /// Resident-set growth across this scenario's run, bytes (see
    /// [`crate::runner::ScenarioReport::peak_rss_bytes`]).
    pub peak_rss_bytes: u64,
    /// OS threads used for intra-scenario sharded execution (1 for the
    /// one-shard scenarios).
    pub shards: u32,
    /// Order-sensitive hash of the scenario's full determinism
    /// fingerprint (metrics, jitter series, telemetry bytes, counter
    /// fingerprint). Two runs of the same workload — at any `--shards`
    /// value — must agree.
    pub fingerprint: u64,
    /// The counter fingerprint alone: FNV-1a over the canonical
    /// sim-plane metric exposition (see `iq_obs::Registry::sim_text`).
    /// Byte-identical across `-j` and `--shards`, gated by the shard
    /// curve check.
    pub counter_fingerprint: u64,
    /// Per-shard wall-clock phase breakdown (engine plane; one entry
    /// for one-shard scenarios). Rendered into the non-gated `profile`
    /// section of the JSON.
    pub profile: Vec<iq_obs::PhaseSnapshot>,
    /// Worker utilization (engine plane): the share of `run wall ×
    /// workers` spent executing events, the run wall being the longest
    /// shard profile and the workers the pool's size. Close to 1.0 for a
    /// one-shard scenario, which never waits on a neighbor.
    pub utilization: f64,
    /// Shard-scheduler totals (engine plane; all zero for the
    /// one-shard scenarios — see [`iq_netsim::SchedTotals`]).
    pub sched: iq_netsim::SchedTotals,
}

/// Worker utilization of a run from its per-shard phase profile: total
/// execute nanos over `run wall × workers`. Every shard's profile spans
/// the whole run phase (a shard nobody is running counts as idle), so
/// the run wall is the longest of them, and what the pool could have
/// executed is that much on each of its `workers` threads — not on each
/// shard, of which there may be many more. Empty or unprofiled input
/// reports 1.0.
pub(crate) fn utilization(profile: &[iq_obs::PhaseSnapshot], workers: u64) -> f64 {
    let capacity = run_wall_nanos(profile) * workers.max(1);
    if capacity == 0 {
        return 1.0;
    }
    let execute: u64 = profile
        .iter()
        .map(|s| s.nanos[iq_obs::Phase::Execute as usize])
        .sum();
    execute as f64 / capacity as f64
}

/// Seconds each of `workers` threads spent on no shard at all — neither
/// executing, draining ingress nor flushing — averaged over the pool:
/// the run wall minus a worker's share of the busy phases.
pub(crate) fn idle_s_per_worker(profile: &[iq_obs::PhaseSnapshot], workers: u64) -> f64 {
    let idle = iq_obs::Phase::Idle as usize;
    let busy: u64 = profile.iter().map(|s| s.total_nanos() - s.nanos[idle]).sum();
    let per_worker = busy as f64 / workers.max(1) as f64;
    (run_wall_nanos(profile) as f64 - per_worker).max(0.0) / 1e9
}

fn run_wall_nanos(profile: &[iq_obs::PhaseSnapshot]) -> u64 {
    profile.iter().map(|s| s.total_nanos()).max().unwrap_or(0)
}

/// One full sweep measurement.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Label describing what was measured.
    pub label: String,
    /// Workload scale the sweep ran at.
    pub size: f64,
    /// Per-scenario measurements, in declaration order.
    pub scenarios: Vec<BenchScenario>,
    /// Total events across the sweep.
    pub total_events: u64,
    /// Total wall-clock seconds across the sweep (sum of per-scenario
    /// simulation time; excludes process startup).
    pub total_wall_s: f64,
    /// Aggregate events/sec (total events / total wall).
    pub total_events_per_sec: f64,
    /// Peak resident set size of the process, bytes (0 when the
    /// platform does not expose it).
    pub peak_rss_bytes: u64,
}

/// The fixed sweep: one scenario per hot-path profile.
///
/// Names are stable identifiers — CI and the trajectory tooling key off
/// them — so change them only with a deliberate baseline reset.
pub fn bench_specs(size: Size) -> Vec<ScenarioSpec> {
    let frames = |n: usize, seed: u64| app_frame_sizes(scaled(size, n), seed);
    let mut specs = Vec::new();

    // 1. Bulk RUDP transfer: data/ack event volume plus RTO timer churn.
    let mut sc = Scenario::new(
        Scheme::RudpPlain,
        PolicySpec::None,
        vec![1400u32; scaled(size, 60_000)],
    );
    sc.deadline_s = 900.0;
    specs.push(ScenarioSpec::new("bulk_rudp", sc));

    // 2. Coordinated adaptive flow against CBR cross traffic: the
    //    paper's core workload — congestion, loss recovery, callbacks.
    let mut sc = Scenario::new(
        Scheme::Coordinated,
        PolicySpec::Resolution,
        frames(8000, 7),
    );
    sc.cross.cbr_bps = Some(18e6);
    sc.thresholds = (Some(0.15), Some(0.01));
    sc.deadline_s = 900.0;
    specs.push(ScenarioSpec::new("coordinated_cbr", sc));

    // 3. Rate-based datagram flow with marking against VBR cross
    //    traffic: many small messages, abandonment, Fwd segments.
    let mut sc = Scenario::new(
        Scheme::CoordinatedWithCond,
        PolicySpec::Marking,
        frames(12_000, 11),
    );
    sc.fps = Some(100.0);
    sc.datagram_mode = true;
    sc.loss_tolerance = 0.40;
    sc.thresholds = (Some(0.10), Some(0.02));
    sc.cross.vbr = Some(VbrSpec {
        fps: 500.0,
        mean_bps: 10e6,
        seed: 13,
    });
    sc.deadline_s = 600.0;
    specs.push(ScenarioSpec::new("marking_vbr", sc));

    // 4. TCP bulk against a competing TCP flow: the second transport's
    //    state machine plus two full-speed flows through one queue.
    let mut sc = Scenario::new(Scheme::Tcp, PolicySpec::None, vec![1400u32; scaled(size, 40_000)]);
    sc.cross.tcp_bulk = true;
    sc.deadline_s = 600.0;
    specs.push(ScenarioSpec::new("tcp_fairness", sc));

    // 5. Lossy-link recovery: random loss drives retransmission and
    //    dup-ack machinery far harder than clean congestion does.
    let mut sc = Scenario::new(
        Scheme::RudpPlain,
        PolicySpec::None,
        vec![1400u32; scaled(size, 25_000)],
    );
    sc.dumbbell.pairs = 3;
    sc.red_bottleneck = true;
    sc.cross.cbr_bps = Some(14e6);
    sc.deadline_s = 900.0;
    specs.push(ScenarioSpec::new("red_lossy", sc));

    // 6. Many-flow incast: hundreds of concurrent connections sharing
    //    one bottleneck — per-connection state, ACK fan-in and timer
    //    load that the single-flow profiles never reach.
    let sc = Scenario::incast(200, scaled(size, 150), 1400);
    specs.push(ScenarioSpec::new("many_flows", sc));

    // 7. CUBIC under the Table-3 conflict workload: the cubic window
    //    curve (cbrt, per-ACK target steps) plus the coordinator's
    //    re-inflation seam on a non-LDA controller.
    let mut sc = conflict_scenario(&frames(9000, 17), Scheme::Coordinated);
    sc.cc = CcAlgorithm::from_name("cubic").expect("known name");
    specs.push(ScenarioSpec::new("cubic_conflict", sc));

    // 8. BBR-like model under many-flow incast: per-connection
    //    rate/min-RTT sampling and BDP recomputation across hundreds
    //    of concurrent flows.
    let mut sc = Scenario::incast(200, scaled(size, 150), 1400);
    sc.cc = CcAlgorithm::from_name("bbr").expect("known name");
    specs.push(ScenarioSpec::new("bbr_many_flows", sc));

    // 9. RRR on the same conflict workload without coordination:
    //    loss-proportional rate reduction reacting to raw loss ratios.
    let mut sc = conflict_scenario(&frames(9000, 19), Scheme::Uncoordinated);
    sc.cc = CcAlgorithm::from_name("rrr").expect("known name");
    specs.push(ScenarioSpec::new("rrr_table3", sc));

    // 10. The sharded 100k-flow population: 8 independent legs × 12 800
    //     flows, executed by the conservative-lookahead parallel engine
    //     with `--shards` OS threads. The flow count never scales down —
    //     the point is per-connection state pressure at fleet size — so
    //     `size` only scales the per-flow message count.
    let msgs = ((8.0 * size.0).ceil() as usize).max(2);
    specs.push(ScenarioSpec::new("mega_flows", Scenario::mega(8, 12_800, msgs, 1400)));

    specs
}

fn scaled(size: Size, full: usize) -> usize {
    ((full as f64 * size.0) as usize).max(40)
}

fn to_bench_scenario(name: String, r: &crate::runner::ScenarioReport) -> BenchScenario {
    BenchScenario {
        name,
        events: r.result.events_processed,
        wall_s: r.wall_s,
        events_per_sec: r.events_per_sec,
        peak_rss_bytes: r.peak_rss_bytes,
        shards: r.shards,
        fingerprint: crate::runner::result_fingerprint(&r.result),
        counter_fingerprint: r.result.obs.sim_fingerprint(),
        utilization: utilization(&r.result.phase_profile, r.result.sched.workers),
        sched: r.result.sched,
        profile: r.result.phase_profile.clone(),
    }
}

/// Runs the sweep and aggregates the measurement.
///
/// When the sweep includes `mega_flows`, the same workload is re-run
/// serially at 1, 2, 4 and 8 shard threads afterwards and recorded as
/// `mega_flows_shardsN` — the scaling curve of the parallel engine. The
/// curve entries carry the same determinism fingerprint as each other
/// (enforced by [`bench_main`]).
pub fn run_bench(opts: &BenchOptions) -> BenchRun {
    let mut specs = bench_specs(opts.size);
    if let Some(only) = &opts.only {
        specs.retain(|s| &s.name == only);
        assert!(!specs.is_empty(), "bench: no scenario named `{only}`");
    }
    let mega = specs.iter().find(|s| s.name == "mega_flows").cloned();
    let start = Instant::now();
    let reports = run_specs(&specs);
    let mut scenarios: Vec<BenchScenario> = reports
        .iter()
        .map(|r| to_bench_scenario(r.name.clone(), r))
        .collect();
    // The shard scaling curve: one worker thread per run so the curve
    // entries never contend with each other for cores.
    if let Some(mega) = mega {
        let before = crate::runner::shards();
        for n in [1usize, 2, 4, 8] {
            crate::runner::set_shards(n);
            let reports = crate::runner::Executor::new(1).run(std::slice::from_ref(&mega));
            scenarios.push(to_bench_scenario(format!("mega_flows_shards{n}"), &reports[0]));
        }
        crate::runner::set_shards(before);
    }
    let total_wall_s = start.elapsed().as_secs_f64();
    let total_events: u64 = scenarios.iter().map(|s| s.events).sum();
    let total_events_per_sec = if total_wall_s > 0.0 {
        total_events as f64 / total_wall_s
    } else {
        0.0
    };
    BenchRun {
        label: opts.label.clone(),
        size: opts.size.0,
        scenarios,
        total_events,
        total_wall_s,
        total_events_per_sec,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Reads a kB-denominated field from `/proc/self/status` as bytes; 0
/// where unavailable.
#[allow(unused_variables)]
fn proc_status_bytes(key: &str) -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix(key) {
                    let kb: u64 = rest
                        .trim_start_matches(':')
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    0
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where unavailable.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// Current resident set size of this process in bytes (`VmRSS`); 0
/// where unavailable. The executor samples this before and after each
/// scenario to charge memory growth to the scenario that caused it.
pub(crate) fn current_rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

/// Whether this platform exposes process memory statistics
/// (`/proc/self/status` on Linux). When it does not, the bench records
/// `"mem_unavailable": true` and skips the RSS regression gate rather
/// than silently comparing zeros.
pub fn mem_stats_available() -> bool {
    current_rss_bytes() > 0
}

/// Background `VmRSS` sampler: records the process-wide peak resident
/// set between [`Self::start`] and [`Self::finish`], so a scenario is
/// charged for its *transient* peak. The plain after-minus-before delta
/// this replaces reported 0 for every scenario whose working set was
/// freed before the final sample (`tcp_fairness`, `many_flows`, and
/// `bbr_many_flows` all did).
pub(crate) struct RssSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<u64>>,
    before: u64,
}

impl RssSampler {
    /// Starts the sampling thread and records the baseline.
    pub(crate) fn start() -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let before = current_rss_bytes();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0u64;
            while !flag.load(Ordering::Acquire) {
                peak = peak.max(current_rss_bytes());
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            peak
        });
        Self {
            stop,
            handle: Some(handle),
            before,
        }
    }

    /// Stops sampling and returns the peak-over-baseline delta in bytes.
    /// The current RSS is folded in as a final sample, so the result is
    /// never smaller than the old after-minus-before delta.
    pub(crate) fn finish(mut self) -> u64 {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        let peak = self
            .handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or(0);
        peak.max(current_rss_bytes()).saturating_sub(self.before)
    }
}

fn render_run(run: &BenchRun, indent: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("{indent}  \"label\": \"{}\",\n", run.label));
    s.push_str(&format!("{indent}  \"size\": {},\n", fmt_f64(run.size)));
    s.push_str(&format!("{indent}  \"total_events\": {},\n", run.total_events));
    s.push_str(&format!(
        "{indent}  \"total_wall_s\": {},\n",
        fmt_f64(run.total_wall_s)
    ));
    s.push_str(&format!(
        "{indent}  \"total_events_per_sec\": {},\n",
        fmt_f64(run.total_events_per_sec)
    ));
    s.push_str(&format!(
        "{indent}  \"peak_rss_bytes\": {},\n",
        run.peak_rss_bytes
    ));
    s.push_str(&format!(
        "{indent}  \"mem_unavailable\": {},\n",
        !mem_stats_available()
    ));
    s.push_str(&format!("{indent}  \"scenarios\": [\n"));
    for (i, sc) in run.scenarios.iter().enumerate() {
        let comma = if i + 1 < run.scenarios.len() { "," } else { "" };
        s.push_str(&format!(
            "{indent}    {{\"name\": \"{}\", \"events\": {}, \"wall_s\": {}, \"events_per_sec\": {}, \"peak_rss_bytes\": {}, \"shards\": {}, \"utilization\": {}, \"fingerprint\": {}, \"counter_fingerprint\": {}}}{comma}\n",
            sc.name,
            sc.events,
            fmt_f64(sc.wall_s),
            fmt_f64(sc.events_per_sec),
            sc.peak_rss_bytes,
            sc.shards,
            fmt_f64(sc.utilization),
            sc.fingerprint,
            sc.counter_fingerprint
        ));
    }
    s.push_str(&format!("{indent}  ]\n"));
    s.push_str(&format!("{indent}}}"));
    s
}

fn fmt_f64(v: f64) -> String {
    // Enough digits to round-trip the magnitudes we store, without the
    // noise of full f64 precision in a committed file.
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the wall-clock phase breakdown of the sweep: one entry per
/// scenario, one object per shard. Engine-plane data — informational
/// only, never gated by `--check` (the timings vary run to run).
fn render_profile(run: &BenchRun, indent: &str) -> String {
    use iq_obs::Phase;
    let mut s = String::new();
    s.push_str("{\n");
    let with_profile: Vec<&BenchScenario> = run
        .scenarios
        .iter()
        .filter(|sc| sc.profile.iter().any(|p| p.total_nanos() > 0))
        .collect();
    for (i, sc) in with_profile.iter().enumerate() {
        let comma = if i + 1 < with_profile.len() { "," } else { "" };
        s.push_str(&format!(
            "{indent}  \"{}\": {{\"utilization\": {}, \"steals\": {}, \"parks\": {}, \"wakes\": {}, \"worker_parks\": {}, \"shards\": [",
            sc.name,
            fmt_f64(sc.utilization),
            sc.sched.steals,
            sc.sched.parks,
            sc.sched.wakes,
            sc.sched.worker_parks,
        ));
        for (shard, p) in sc.profile.iter().enumerate() {
            if shard > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"shard\": {shard}, \"idle_s\": {}, \"ingress_s\": {}, \"execute_s\": {}, \"flush_s\": {}}}",
                fmt_f64(p.seconds(Phase::Idle)),
                fmt_f64(p.seconds(Phase::Ingress)),
                fmt_f64(p.seconds(Phase::Execute)),
                fmt_f64(p.seconds(Phase::Flush)),
            ));
        }
        s.push_str(&format!("]}}{comma}\n"));
    }
    s.push_str(&format!("{indent}}}"));
    s
}

/// Renders the full `BENCH_netsim.json` document.
pub fn render_json(baseline: &str, current: &BenchRun) -> String {
    format!(
        "{{\n  \"schema\": \"iq-bench-netsim/v3\",\n  \"baseline\": {},\n  \"current\": {},\n  \"profile\": {}\n}}\n",
        baseline,
        render_run(current, "  "),
        render_profile(current, "  ")
    )
}

/// Extracts the raw JSON object following `"key":` (brace-matched), so
/// a previously committed `baseline` section can be carried forward
/// without a full JSON parser.
pub fn extract_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..open + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The text of a named number in a JSON object fragment (first match).
fn number_text<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Extracts a named number from a JSON object fragment (first match).
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    number_text(json, key)?.parse().ok()
}

/// Compares the run's deterministic outputs — `events`, `fingerprint`,
/// `counter_fingerprint` — with those a reference `current` section
/// records for the scenarios of the same name, and returns one message
/// per scenario that drifted. Fingerprints are parsed as `u64`: they use
/// all 64 bits, which an `f64` cannot hold. Workloads depend on the
/// sweep size, so a reference measured at another size compares nothing.
fn fingerprint_drift(run: &BenchRun, reference: &str) -> Vec<String> {
    if extract_number(reference, "size") != Some(run.size) {
        eprintln!(
            "bench check: reference was measured at another size; fingerprints not compared"
        );
        return Vec::new();
    }
    let field = |line: &str, key: &str| number_text(line, key)?.parse::<u64>().ok();
    let mut drifted = Vec::new();
    let mut compared = 0;
    for line in reference.lines() {
        let Some(name) = line.split("\"name\": \"").nth(1).and_then(|r| r.split('"').next()) else {
            continue;
        };
        let Some(now) = run.scenarios.iter().find(|s| s.name == name) else {
            continue;
        };
        compared += 1;
        let fields = [
            ("events", now.events),
            ("fingerprint", now.fingerprint),
            ("counter_fingerprint", now.counter_fingerprint),
        ];
        let diffs: Vec<String> = fields
            .iter()
            .filter_map(|&(key, got)| {
                let want = field(line, key)?;
                (want != got).then(|| format!("{key} {got} (committed {want})"))
            })
            .collect();
        if !diffs.is_empty() {
            drifted.push(format!("`{name}`: {}", diffs.join(", ")));
        }
    }
    if drifted.is_empty() {
        eprintln!(
            "bench check: {compared} scenario(s) reproduce the committed events and \
             fingerprints — ok"
        );
    }
    drifted
}

/// Runs the bench, writes the JSON (carrying an existing baseline
/// forward), and applies the optional regression check.
///
/// Returns `Err` with a human-readable message when the check fails or
/// the output cannot be written.
pub fn bench_main(opts: &BenchOptions) -> Result<BenchRun, String> {
    let run = run_bench(opts);

    // Determinism across thread counts is a hard property, not a
    // perf budget: every shard-curve entry must reproduce the exact
    // fingerprint of the 1-thread run.
    let curve: Vec<&BenchScenario> = run
        .scenarios
        .iter()
        .filter(|s| s.name.starts_with("mega_flows_shards"))
        .collect();
    if let Some((first, rest)) = curve.split_first() {
        for s in rest {
            if s.fingerprint != first.fingerprint {
                return Err(format!(
                    "shard determinism violation: `{}` fingerprint {:#x} != `{}` \
                     fingerprint {:#x}",
                    s.name, s.fingerprint, first.name, first.fingerprint,
                ));
            }
            if s.counter_fingerprint != first.counter_fingerprint {
                return Err(format!(
                    "counter fingerprint violation: `{}` sim-plane metrics hash {:#x} \
                     != `{}` hash {:#x} — a sim-plane counter is thread-count-dependent",
                    s.name, s.counter_fingerprint, first.name, first.counter_fingerprint,
                ));
            }
        }
        eprintln!(
            "bench check: {} shard-curve entries share fingerprint {:#x} \
             (counter fingerprint {:#x}) — ok",
            curve.len(),
            first.fingerprint,
            first.counter_fingerprint,
        );
    }

    // Carry an existing baseline forward; the first run lays the floor.
    let existing = std::fs::read_to_string(&opts.out_path).ok();
    let baseline = existing
        .as_deref()
        .and_then(|j| extract_object(j, "baseline"))
        .map(str::to_string)
        .unwrap_or_else(|| render_run(&run, "  "));

    let doc = render_json(&baseline, &run);
    std::fs::write(&opts.out_path, &doc)
        .map_err(|e| format!("cannot write {}: {e}", opts.out_path))?;

    if let Some(check_path) = &opts.check_path {
        let committed = std::fs::read_to_string(check_path)
            .map_err(|e| format!("cannot read {check_path}: {e}"))?;
        let section = extract_object(&committed, "current")
            .ok_or_else(|| format!("{check_path}: no `current` section"))?;
        // Same bytes first: results are a hard property on any host,
        // the speed and memory budgets below are not.
        let drifted = fingerprint_drift(&run, section);
        if !drifted.is_empty() {
            return Err(format!(
                "results drifted from {check_path}:\n  {}",
                drifted.join("\n  ")
            ));
        }
        let reference = extract_number(section, "total_events_per_sec")
            .ok_or_else(|| format!("{check_path}: no total_events_per_sec"))?;
        if reference > 0.0 {
            let ratio = run.total_events_per_sec / reference;
            if ratio < 1.0 - opts.max_regress {
                return Err(format!(
                    "events/sec regression: {:.0} now vs {:.0} committed ({:.1}% of \
                     reference, allowed floor {:.0}%)",
                    run.total_events_per_sec,
                    reference,
                    100.0 * ratio,
                    100.0 * (1.0 - opts.max_regress),
                ));
            }
            eprintln!(
                "bench check: {:.0} events/s vs committed {:.0} ({:+.1}%) — ok",
                run.total_events_per_sec,
                reference,
                100.0 * (ratio - 1.0),
            );
        }
        // Memory gate: peak RSS must not grow past the same tolerance.
        let reference_rss = extract_number(section, "peak_rss_bytes").unwrap_or(0.0);
        if !mem_stats_available() {
            eprintln!(
                "bench check: RSS gate skipped (mem_unavailable — this platform does \
                 not expose process memory statistics)"
            );
        }
        if reference_rss > 0.0 && run.peak_rss_bytes > 0 {
            let ratio = run.peak_rss_bytes as f64 / reference_rss;
            if ratio > 1.0 + opts.max_regress {
                return Err(format!(
                    "peak RSS regression: {} bytes now vs {:.0} committed ({:.1}% of \
                     reference, allowed ceiling {:.0}%)",
                    run.peak_rss_bytes,
                    reference_rss,
                    100.0 * ratio,
                    100.0 * (1.0 + opts.max_regress),
                ));
            }
            eprintln!(
                "bench check: {} peak RSS vs committed {:.0} ({:+.1}%) — ok",
                run.peak_rss_bytes,
                reference_rss,
                100.0 * (ratio - 1.0),
            );
        }
        // Shard scaling gate: with 4 cores to spend, 4 shard threads
        // must at least double the 1-thread event rate on the sharded
        // scenario. Meaningless on smaller hosts, where the threads
        // would just time-slice one core — skip there.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let find = |name: &str| run.scenarios.iter().find(|s| s.name == name);
        if let (Some(s1), Some(s4)) = (find("mega_flows_shards1"), find("mega_flows_shards4")) {
            if cores >= 4 && s1.events_per_sec > 0.0 {
                let speedup = s4.events_per_sec / s1.events_per_sec;
                if speedup < 2.0 {
                    return Err(format!(
                        "shard scaling regression: mega_flows at 4 shards is only \
                         {speedup:.2}x the 1-shard rate (expected >= 2x on {cores} cores)",
                    ));
                }
                eprintln!("bench check: mega_flows 4-shard speedup {speedup:.2}x — ok");
            } else {
                eprintln!(
                    "bench check: shard scaling gate skipped ({cores} core(s) available)"
                );
            }
        }
        // Scheduler overhead gate, valid on *any* host: two shard
        // threads must finish within 1.1x of one. Before the
        // park/wake scheduler, spin-yielding workers starved the only
        // runnable shard on a 1-core host and shards2 took 1.7x the
        // shards1 wall time.
        if let (Some(s1), Some(s2)) = (find("mega_flows_shards1"), find("mega_flows_shards2")) {
            if s1.wall_s > 0.0 {
                let ratio = s2.wall_s / s1.wall_s;
                if ratio > 1.1 {
                    return Err(format!(
                        "shard overhead regression: mega_flows_shards2 wall {:.2}s is \
                         {ratio:.2}x mega_flows_shards1 ({:.2}s); 2 shard threads must \
                         stay within 1.1x of 1 on any host",
                        s2.wall_s, s1.wall_s,
                    ));
                }
                eprintln!(
                    "bench check: mega_flows shards2/shards1 wall ratio {ratio:.2}x — ok"
                );
            }
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_sections_round_trip() {
        let run = BenchRun {
            label: "test".into(),
            size: 0.5,
            scenarios: vec![BenchScenario {
                name: "a".into(),
                events: 100,
                wall_s: 0.25,
                events_per_sec: 400.0,
                peak_rss_bytes: 512,
                shards: 1,
                fingerprint: 0xfeed,
                counter_fingerprint: 0xbeef,
                utilization: 0.75,
                sched: iq_netsim::SchedTotals::default(),
                profile: vec![iq_obs::PhaseSnapshot::default()],
            }],
            total_events: 100,
            total_wall_s: 0.25,
            total_events_per_sec: 400.0,
            peak_rss_bytes: 1024,
        };
        let doc = render_json(&render_run(&run, "  "), &run);
        assert!(doc.contains("\"schema\": \"iq-bench-netsim/v3\""));
        let cur = extract_object(&doc, "current").expect("current section");
        assert_eq!(extract_number(cur, "total_events_per_sec"), Some(400.0));
        assert_eq!(extract_number(cur, "total_events"), Some(100.0));
        assert_eq!(extract_number(cur, "utilization"), Some(0.75));
        let base = extract_object(&doc, "baseline").expect("baseline section");
        assert_eq!(extract_number(base, "peak_rss_bytes"), Some(1024.0));
    }

    #[test]
    fn check_names_each_scenario_whose_results_drifted() {
        let scenario = |name: &str, fingerprint: u64| BenchScenario {
            name: name.into(),
            events: 100,
            wall_s: 0.25,
            events_per_sec: 400.0,
            peak_rss_bytes: 0,
            shards: 1,
            // Past 2^53: an f64 round trip would not tell these apart.
            fingerprint,
            counter_fingerprint: u64::MAX - 1,
            utilization: 1.0,
            sched: iq_netsim::SchedTotals::default(),
            profile: Vec::new(),
        };
        let run = |scenarios: Vec<BenchScenario>, size: f64| BenchRun {
            label: "t".into(),
            size,
            scenarios,
            total_events: 0,
            total_wall_s: 0.0,
            total_events_per_sec: 0.0,
            peak_rss_bytes: 0,
        };
        let committed = run(vec![scenario("a", u64::MAX), scenario("b", 7)], 1.0);
        let reference = render_run(&committed, "  ");
        assert!(fingerprint_drift(&committed, &reference).is_empty());

        // `a` off by one in the last bit, `b` gone, `c` new: only `a` drifts.
        let now = run(vec![scenario("a", u64::MAX - 1), scenario("c", 9)], 1.0);
        let drifted = fingerprint_drift(&now, &reference);
        assert_eq!(drifted.len(), 1, "{drifted:?}");
        assert!(drifted[0].starts_with("`a`: fingerprint 18446744073709551614 (committed"));

        // Another sweep size is another workload: nothing to compare.
        let resized = run(vec![scenario("a", 1)], 0.5);
        assert!(fingerprint_drift(&resized, &reference).is_empty());
    }

    #[test]
    fn utilization_is_execute_over_wall_times_workers() {
        assert_eq!(utilization(&[], 2), 1.0);
        assert_eq!(utilization(&[iq_obs::PhaseSnapshot::default()], 1), 1.0);
        let shard = |execute: u64, flush: u64, idle: u64| {
            let mut s = iq_obs::PhaseSnapshot::default();
            s.nanos[iq_obs::Phase::Execute as usize] = execute;
            s.nanos[iq_obs::Phase::Flush as usize] = flush;
            s.nanos[iq_obs::Phase::Idle as usize] = idle;
            s
        };
        // One shard on one worker: execute over its own wall.
        assert!((utilization(&[shard(300, 0, 100)], 1) - 0.75).abs() < 1e-12);
        // Four shards profiled over the same 1,000 ns of wall, run by
        // two workers that were never without a shard: each shard is
        // idle half the time or more, the workers never. Dividing by
        // the shards' summed profiles would have said 45 %.
        let four = [
            shard(450, 50, 500),
            shard(450, 50, 500),
            shard(450, 50, 500),
            shard(450, 50, 500),
        ];
        assert!((utilization(&four, 2) - 0.9).abs() < 1e-12);
        assert!(idle_s_per_worker(&four, 2).abs() < 1e-12);
        // The same shards on four workers: half of every worker is idle.
        assert!((utilization(&four, 4) - 0.45).abs() < 1e-12);
        assert!((idle_s_per_worker(&four, 4) - 500e-9).abs() < 1e-15);
        // The run wall is the longest profile, not their sum.
        let uneven = [shard(600, 0, 400), shard(100, 0, 800)];
        assert!((utilization(&uneven, 2) - 700.0 / 2000.0).abs() < 1e-12);
        assert!((idle_s_per_worker(&uneven, 2) - 650e-9).abs() < 1e-15);
    }

    #[test]
    fn extract_number_handles_scientific_and_negative() {
        assert_eq!(extract_number("{\"x\": -2.5}", "x"), Some(-2.5));
        assert_eq!(extract_number("{\"x\": 1e3}", "x"), Some(1000.0));
        assert_eq!(extract_number("{\"y\": 1}", "x"), None);
    }

    #[test]
    fn bench_specs_are_stable_and_scaled() {
        let s = bench_specs(Size(0.01));
        let names: Vec<&str> = s.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "bulk_rudp",
                "coordinated_cbr",
                "marking_vbr",
                "tcp_fairness",
                "red_lossy",
                "many_flows",
                "cubic_conflict",
                "bbr_many_flows",
                "rrr_table3",
                "mega_flows"
            ]
        );
        // Scaling floors at 40 frames so tiny sizes still run.
        assert!(s[0].scenario.frame_sizes.len() >= 40);
        // The mega population never scales below 100k flows — only the
        // per-flow message count shrinks with size.
        let mega = s.last().unwrap();
        assert!(mega.scenario.mega_legs * mega.scenario.incast_flows >= 100_000);
        assert!(mega.scenario.frame_sizes.len() >= 2);
    }
}
