//! One workload, measured in this process: input generation → a cold
//! world-build probe → warm-up repetitions that are never timed →
//! repeated warm set-ups → the timed repetitions, and in a traced run
//! the extra repetitions and the layer drives.
//!
//! Everything is measured from outside: end-to-end numbers by timing
//! calls into `iq_experiments::run_scenario` and `iq_mc::check`,
//! per-layer numbers from the public counters those calls return, from
//! the drives, and from the OS.

use std::time::{Duration, Instant};

use iq_experiments::{run_scenario, set_shards, set_telemetry_capture, RunResult, Scenario};
use iq_obs::{Phase, Registry};

use crate::checks::{self, Gate};
use crate::drives::{self, Budget, Sizing};
use crate::host::{self, AllocMark, Rusage};
use crate::json::{obj, Json};
use crate::names::{self, MetricDef};
use crate::spans::{self, Recorder};
use crate::stats::{median, summarize, Summary};
use crate::workloads::{self, McInput, Workload};

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed repetitions run.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where the trace file goes.
    pub out_dir: std::path::PathBuf,
}

/// What one run found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run); `None` where the metric does not apply to the
    /// workload.
    pub metrics: Vec<(MetricDef, Option<f64>)>,
    /// Everything else worth keeping: repetition quartiles, digests,
    /// exact counts, what the host did meanwhile.
    pub detail: Json,
    /// One line per failed check.
    pub failures: Vec<String>,
}

/// Facts of the simulated world and of the engine that ran it, read
/// from the public result of `run_scenario` and summed over the
/// operations of one repetition.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    events: u64,
    packets_sent: u64,
    packets_delivered: u64,
    timers_fired: u64,
    timers_cancelled: u64,
    near_hits: u64,
    wheel_pushes: u64,
    far_spills: u64,
    pushes: u64,
    pool_hits: u64,
    pool_misses: u64,
    windows: u64,
    ingress_msgs: u64,
    parks: u64,
    steals: u64,
    worker_parks: u64,
    execute_ns: u64,
    sync_ns: u64,
    segments_sent: u64,
    retransmits: u64,
    rto: u64,
    abandoned: u64,
    submitted: u64,
    discarded: u64,
    segments_received: u64,
    duplicates: u64,
    sack_truncations: u64,
    window_rescales: u64,
    cond_corrections: u64,
    reliability_reports: u64,
    deferred_announcements: u64,
    callbacks_upper: u64,
    callbacks_lower: u64,
    telemetry_records: u64,
    telemetry_evicted: u64,
    obs_series: u64,
}

impl Counts {
    fn add(&mut self, r: &RunResult) {
        let total = |name: &str| r.obs.counter_total(name);
        self.events += r.events_processed;
        self.packets_sent += total("iq_sim_packets_sent_total");
        self.packets_delivered += total("iq_sim_packets_delivered_total");
        self.timers_fired += total("iq_sim_timers_fired_total");
        self.timers_cancelled += total("iq_sim_timers_cancelled_total");
        let near = total("iq_sched_near_hits_total");
        let wheel = total("iq_sched_wheel_pushes_total");
        let far = total("iq_sched_far_spills_total");
        self.near_hits += near;
        self.wheel_pushes += wheel;
        self.far_spills += far;
        self.pushes += near + wheel + far + total("iq_sched_near_inserts_total");
        self.pool_hits += total("iq_pool_hits_total");
        self.pool_misses += total("iq_pool_misses_total");
        self.windows += total("iq_shard_windows_total");
        self.ingress_msgs += total("iq_shard_ingress_msgs_total");
        self.parks += r.sched.parks;
        self.steals += r.sched.steals;
        self.worker_parks += r.sched.worker_parks;
        for snap in &r.phase_profile {
            self.execute_ns += snap.nanos[Phase::Execute as usize];
            self.sync_ns += snap.nanos[Phase::Ingress as usize] + snap.nanos[Phase::Flush as usize];
        }
        if let Some(s) = &r.sender_stats {
            self.segments_sent += s.segments_sent;
            self.retransmits += s.retransmits;
            self.rto += s.timeouts;
            self.abandoned += s.segments_abandoned;
            self.submitted += s.msgs_submitted;
            self.discarded += s.msgs_discarded;
        }
        self.segments_received += total("iq_rudp_segments_received_total");
        self.duplicates += total("iq_rudp_duplicates_total");
        self.sack_truncations += total("iq_rudp_sack_truncations_total");
        if let Some(c) = &r.coordination {
            self.window_rescales += c.window_rescales;
            self.cond_corrections += c.cond_corrections;
            self.reliability_reports += c.reliability_reports;
            self.deferred_announcements += c.deferred_announcements;
        }
        self.callbacks_upper += r.callbacks.0;
        self.callbacks_lower += r.callbacks.1;
        self.telemetry_records += r.telemetry.lines().count() as u64;
        self.telemetry_evicted += r.telemetry_evicted;
        self.obs_series += r.obs.len() as u64;
    }

    /// The counts that are facts of the simulated world: identical in
    /// every repetition, at any worker count, on any host.
    fn simulated(&self) -> Vec<(String, u64)> {
        [
            ("netsim.sim.events", self.events),
            ("netsim.sim.packets_sent", self.packets_sent),
            ("netsim.sim.packets_delivered", self.packets_delivered),
            ("netsim.sim.timers_fired", self.timers_fired),
            ("netsim.sim.timers_cancelled", self.timers_cancelled),
            ("rudp.segments_sent", self.segments_sent),
            ("rudp.retransmits", self.retransmits),
            ("rudp.rto", self.rto),
            ("rudp.abandoned", self.abandoned),
            ("rudp.discarded", self.discarded),
            ("rudp.segments_received", self.segments_received),
            ("rudp.duplicates", self.duplicates),
            ("rudp.sack_truncations", self.sack_truncations),
            ("core.window_rescales", self.window_rescales),
            ("core.cond_corrections", self.cond_corrections),
            ("core.reliability_reports", self.reliability_reports),
            ("core.deferred_announcements", self.deferred_announcements),
            ("echo.callbacks_upper", self.callbacks_upper),
            ("echo.callbacks_lower", self.callbacks_lower),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// One repetition: every operation of the workload, once.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    /// Work items: simulator events, or explored states.
    items: u64,
    /// Every operation, in run order.
    parts: Vec<Part>,
    counts: Counts,
    /// `(states, depth reached)` of a model-checker repetition.
    mc: Option<(u64, u32)>,
    /// Registry of the last simulator operation (traced runs only).
    registry: Option<Registry>,
}

/// The generated inputs of a workload.
enum Subject {
    Sim {
        runs: Vec<(&'static str, Scenario)>,
        /// The same scenarios with `deadline_s = 0`: `run_scenario`
        /// then builds topology, agents and both endpoints of every
        /// flow, runs no slice, harvests and drops.
        probes: Vec<Scenario>,
    },
    Mc(McInput),
}

impl Subject {
    fn generate(opts: &Options) -> Self {
        let runs = match opts.workload {
            Workload::PaperSweep => workloads::paper_sweep(opts.seed, opts.quick),
            Workload::MegaSerial | Workload::MegaSharded => {
                vec![("mega", workloads::mega(opts.seed, opts.quick))]
            }
            Workload::McExplore => return Subject::Mc(workloads::mc(opts.quick)),
        };
        let probes = runs
            .iter()
            .map(|(_, sc)| {
                let mut probe = sc.clone();
                probe.deadline_s = 0.0;
                probe
            })
            .collect();
        Subject::Sim { runs, probes }
    }

    /// Flows of the simulated fleet, where per-flow figures make sense.
    fn fleet_flows(&self) -> Option<u64> {
        match self {
            Subject::Sim { runs, .. } => runs
                .iter()
                .map(|(_, sc)| workloads::fleet_flows(sc))
                .find(|&flows| flows > 0),
            Subject::Mc(_) => None,
        }
    }

    /// The part of set-up that follows input generation: a world-build
    /// probe per scenario, or the model checker's teeth check.
    fn probe(&self, gate: &mut Gate) {
        match self {
            Subject::Sim { probes, .. } => {
                for probe in probes {
                    drop(run_scenario(probe));
                }
            }
            Subject::Mc(input) => {
                let teeth =
                    checks::check_mc_teeth(&input.spec, workloads::mc_teeth_mutation(), &input.cfg);
                if let Err(why) = teeth {
                    gate.fail(format!("set-up: {why}"));
                }
            }
        }
    }

    /// Runs every operation once, checking each. `variant` is appended
    /// to the operation names the gate compares digests under, for
    /// repetitions whose results legitimately differ (telemetry on).
    fn repetition(
        &self,
        rec: &mut Recorder,
        label: &str,
        rep: u32,
        gate: &mut Gate,
        variant: &str,
    ) -> Rep {
        rec.enter(label, Some(rep));
        let mut out = Rep {
            wall_s: 0.0,
            cpu_s: 0.0,
            items: 0,
            // Sized before the operations run: what the harness keeps
            // must not be allocated on top of a live simulation, where
            // it would pin the heap top and let the resident set creep.
            parts: Vec::with_capacity(8),
            counts: Counts::default(),
            mc: None,
            registry: None,
        };
        match self {
            Subject::Sim { runs, .. } => {
                for (name, sc) in runs {
                    rec.enter(&format!("run_scenario:{name}"), Some(rep));
                    let (counts, registry) = (&mut out.counts, &mut out.registry);
                    let part = timed_operation(
                        || run_scenario(sc),
                        |result| {
                            rec.exit(&[("netsim.sim.events", result.events_processed)]);
                            gate.record(
                                &format!("{name}{variant}"),
                                checks::check_run(sc, result),
                                checks::digest(result),
                            );
                            counts.add(result);
                            if rec.enabled() {
                                *registry = Some(result.obs.clone());
                            }
                            result.events_processed
                        },
                    );
                    out.add_part(part);
                }
            }
            Subject::Mc(input) => {
                rec.enter("check:deferred", Some(rep));
                let mc = &mut out.mc;
                let part = timed_operation(
                    || iq_mc::check(&input.spec, iq_mc::Mutation::None, &input.cfg),
                    |report| {
                        rec.exit(&[("mc.states", report.explored)]);
                        gate.record("check:deferred", checks::check_mc(report), report.explored);
                        *mc = Some((report.explored, report.depth_reached));
                        report.explored
                    },
                );
                out.add_part(part);
            }
        }
        rec.exit(&[("items", out.items)]);
        out
    }
}

/// Wall seconds, CPU seconds and work items of one operation.
#[derive(Debug, Clone, Copy)]
struct Part {
    wall_s: f64,
    cpu_s: f64,
    items: u64,
}

impl Rep {
    fn add_part(&mut self, part: Part) {
        self.wall_s += part.wall_s;
        self.cpu_s += part.cpu_s;
        self.items += part.items;
        self.parts.push(part);
    }
}

/// A repetition nothing disturbed: per operation, the fastest wall time
/// and the least CPU time any repetition needed for it, summed over the
/// operations. The work of an operation is the same in every repetition,
/// so whatever a sample has above the fastest one was added by the host
/// — a neighbour on the core, a migration, a stolen slice — and on a
/// shared host that addition comes in bursts lasting seconds: the median
/// over a run moves with the share of the run the bursts covered, the
/// minimum only needs each operation to run undisturbed once.
struct Floor {
    wall_s: f64,
    cpu_s: f64,
}

impl Floor {
    fn of<'a>(reps: impl Iterator<Item = &'a Rep> + Clone) -> Self {
        let operations = reps.clone().next().map_or(0, |r| r.parts.len());
        let fastest = |i: usize, f: fn(&Part) -> f64| {
            reps.clone()
                .map(|r| f(&r.parts[i]))
                .fold(f64::INFINITY, f64::min)
        };
        Floor {
            wall_s: (0..operations).map(|i| fastest(i, |p| p.wall_s)).sum(),
            cpu_s: (0..operations).map(|i| fastest(i, |p| p.cpu_s)).sum(),
        }
    }
}

/// Times `op` plus the drop of what it returns — what a user waits
/// for. `inspect` runs between the two: it is the harness's own work
/// (checks, reading counters), is not charged, and returns the
/// operation's work items.
fn timed_operation<T>(op: impl FnOnce() -> T, inspect: impl FnOnce(&T) -> u64) -> Part {
    let cpu = host::rusage().cpu_s();
    let start = Instant::now();
    let result = op();
    let ran = start.elapsed();
    let ran_cpu = host::rusage().cpu_s() - cpu;
    let items = inspect(&result);
    let cpu = host::rusage().cpu_s();
    let start = Instant::now();
    drop(result);
    Part {
        wall_s: (ran + start.elapsed()).as_secs_f64(),
        cpu_s: ran_cpu + host::rusage().cpu_s() - cpu,
        items,
    }
}

fn warmups(workload: Workload) -> u32 {
    match workload {
        // The mega heap is first-touched by the first repetition and
        // reaches its plateau in the second.
        Workload::MegaSerial | Workload::MegaSharded => 2,
        Workload::PaperSweep | Workload::McExplore => 1,
    }
}

fn share(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn summary_json(s: &Summary) -> Json {
    obj([
        ("n", (s.n as u64).into()),
        ("min", s.min.into()),
        ("q1", s.q1.into()),
        ("median", s.median.into()),
        ("q3", s.q3.into()),
        ("max", s.max.into()),
    ])
}

fn rusage_json(r: &Rusage) -> Json {
    obj([
        ("user_s", r.user_s.into()),
        ("sys_s", r.sys_s.into()),
        ("minor_faults", r.minor_faults.into()),
        ("major_faults", r.major_faults.into()),
        ("invol_ctx_switches", r.invol_ctx_switches.into()),
    ])
}

/// The measuring phase of a run: warm set-ups and timed repetitions,
/// interleaved so that a burst of host noise cannot fall on all the
/// set-ups at once. A traced run alternates plain repetitions with ones
/// under the counting allocator, so that the cost of tracing is
/// measured inside the run that pays it; an untraced run has only plain
/// ones.
struct Timed {
    /// Seconds per warm set-up: input generation + world-build probes
    /// (or the teeth check).
    setup_s: Vec<f64>,
    /// The part of each set-up that is not input generation.
    build_s: Vec<f64>,
    plain: Vec<Rep>,
    /// Each with the allocation calls the wrapper counted during it.
    counted: Vec<(Rep, u64)>,
    /// What the process used over the whole phase.
    usage: Rusage,
}

/// One warm set-up sample: `(seconds per set-up, of which not input
/// generation)`. A set-up that takes microseconds is repeated within
/// the sample, or the sample would time the clock.
fn setup_sample(opts: &Options, rec: &mut Recorder, gate: &mut Gate) -> (f64, f64) {
    rec.enter("setup", None);
    let start = Instant::now();
    let (mut cycles, mut generating) = (0u32, Duration::ZERO);
    while cycles == 0 || start.elapsed() < Duration::from_millis(2) {
        let cycle_start = Instant::now();
        let fresh = Subject::generate(opts);
        generating += cycle_start.elapsed();
        fresh.probe(gate);
        cycles += 1;
    }
    let total = start.elapsed();
    rec.exit(&[]);
    (
        total.as_secs_f64() / f64::from(cycles),
        (total - generating).as_secs_f64() / f64::from(cycles),
    )
}

fn measuring_phase(
    opts: &Options,
    subject: &Subject,
    rec: &mut Recorder,
    gate: &mut Gate,
) -> Timed {
    // Room for every repetition up front, for the reason given in
    // `Subject::repetition`.
    let mut timed = Timed {
        setup_s: Vec::with_capacity(1024),
        build_s: Vec::with_capacity(1024),
        plain: Vec::with_capacity(1024),
        counted: Vec::with_capacity(1024),
        usage: Rusage::default(),
    };
    let usage_before = host::rusage();
    let started = Instant::now();
    loop {
        // At least five rounds: the set-up time is a median too.
        let done = timed.plain.len() + timed.counted.len();
        if done >= 5 && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let (setup, build) = setup_sample(opts, rec, gate);
        timed.setup_s.push(setup);
        timed.build_s.push(build);
        if opts.trace && done % 2 == 1 {
            host::set_counting(true);
            let mark = AllocMark::now();
            let rep = subject.repetition(rec, "repetition:counted", done as u32, gate, "");
            let (allocs, ..) = mark.since();
            host::set_counting(false);
            timed.counted.push((rep, allocs));
        } else {
            timed
                .plain
                .push(subject.repetition(rec, "repetition", done as u32, gate, ""));
        }
    }
    timed.usage = host::rusage().since(&usage_before);
    timed
}

/// Runs the workload `opts` names and reports.
pub fn run(opts: &Options) -> Outcome {
    iq_experiments::tune_allocator();
    let workers = match opts.workload {
        Workload::MegaSharded => workloads::sharded_workers(),
        _ => 1,
    };
    set_shards(workers);
    let mut rec = Recorder::new(opts.trace);
    let mut gate = Gate::default();
    rec.enter("workload", None);

    // The allocator wrapper counts from here to the end of the warm-ups,
    // which are never timed: the workload's live-bytes high-water mark
    // costs the timed repetitions nothing.
    host::set_counting(true);
    let live_mark = AllocMark::now();

    // Cold set-up: the only one that pays first-touch page faults.
    let subject = rec.span("input_generation", None, |_| Subject::generate(opts));
    rec.span("build_probe:cold", None, |_| subject.probe(&mut gate));
    let build_rss_bytes = host::rss_bytes();

    let mut cold_rep_s = 0.0;
    for i in 0..warmups(opts.workload) {
        let rep = subject.repetition(&mut rec, "warmup", i, &mut gate, "");
        if i == 0 {
            cold_rep_s = rep.wall_s;
        }
    }
    let peak_live_bytes = live_mark.since().2 as f64;
    host::set_counting(false);

    let timed = measuring_phase(opts, &subject, &mut rec, &mut gate);
    let wall = summarize(&timed.plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let floor = Floor::of(timed.plain.iter());
    let setup = summarize(&timed.setup_s);
    let last = timed.plain.last().expect("plain repetitions ran");
    if timed.plain.iter().any(|r| r.items != last.items) {
        gate.fail("repetitions of one workload processed different numbers of work items".into());
    }

    let mut values: Vec<(&'static str, f64)> = Vec::new();
    if opts.trace {
        let usage = &timed.usage;
        values.extend([
            ("experiments.build_rss_bytes", build_rss_bytes as f64),
            ("host.user_s", usage.user_s),
            ("host.sys_s", usage.sys_s),
            (
                "host.sys_share",
                usage.sys_s / usage.cpu_s().max(f64::MIN_POSITIVE),
            ),
            ("host.minor_faults", usage.minor_faults as f64),
            ("host.major_faults", usage.major_faults as f64),
            ("host.invol_ctx_switches", usage.invol_ctx_switches as f64),
            ("host.cold_rep_s", cold_rep_s),
            ("host.peak_rss_bytes", host::peak_rss_bytes() as f64),
        ]);
        if let Some(flows) = subject.fleet_flows() {
            values.push(("host.bytes_per_flow", peak_live_bytes / flows as f64));
        }
        if matches!(subject, Subject::Sim { .. }) {
            let build = median(&timed.build_s);
            values.push(("experiments.build_s", build));
            values.push(("experiments.build_share", build / wall.median));
        }
        values.extend(per_layer(
            opts, &subject, &mut rec, &mut gate, workers, &timed,
        ));
    } else {
        let items = last.items as f64;
        values.extend([
            ("events_per_s", items / floor.wall_s),
            ("cpu_ns_per_event", floor.cpu_s * 1e9 / items),
            ("peak_live_bytes", peak_live_bytes),
            ("setup_s", setup.median),
        ]);
    }
    rec.exit(&[]);

    if opts.trace {
        let coverage = spans::child_coverage(rec.spans(), 0);
        if coverage < 0.95 {
            gate.fail(format!(
                "the root span's children cover only {:.1} % of it",
                100.0 * coverage
            ));
        }
        let path = opts
            .out_dir
            .join(format!("trace-{}.json", opts.workload.name()));
        let written = std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(rec.spans()).to_pretty()));
        if let Err(e) = written {
            gate.fail(format!("cannot write {}: {e}", path.display()));
        }
    }

    let declared: Vec<MetricDef> = if opts.trace {
        names::PER_LAYER.to_vec()
    } else {
        names::END_TO_END.iter().map(|(def, _)| *def).collect()
    };
    for (name, _) in &values {
        assert!(
            declared.iter().any(|d| d.name == *name),
            "`{name}` is measured but not declared in names.rs"
        );
    }
    let metrics: Vec<(MetricDef, Option<f64>)> = declared
        .into_iter()
        .map(|def| {
            let value = values.iter().find(|(n, _)| *n == def.name).map(|&(_, v)| v);
            (def, value)
        })
        .collect();

    let exact_counts = match last.mc {
        Some((states, _)) => vec![("mc.states".to_string(), states)],
        None => last.counts.simulated(),
    };
    let samples = |f: fn(&Part) -> f64| {
        let row = |r: &Rep| Json::Arr(r.parts.iter().map(|p| f(p).into()).collect());
        Json::Arr(timed.plain.iter().map(row).collect())
    };
    let detail = obj([
        ("workers", (workers as u64).into()),
        ("items_per_rep", last.items.into()),
        ("rep_wall_s", summary_json(&wall)),
        (
            "rep_cpu_s",
            summary_json(&summarize(
                &timed.plain.iter().map(|r| r.cpu_s).collect::<Vec<_>>(),
            )),
        ),
        ("floor_rep_wall_s", floor.wall_s.into()),
        ("floor_rep_cpu_s", floor.cpu_s.into()),
        // Every sample the floors were taken from, one row per timed
        // repetition and one column per operation, for whoever wants
        // another estimate than the floor.
        ("samples_wall_s", samples(|p| p.wall_s)),
        ("samples_cpu_s", samples(|p| p.cpu_s)),
        ("setup_s", summary_json(&setup)),
        ("warmups", u64::from(warmups(opts.workload)).into()),
        ("cold_rep_s", cold_rep_s.into()),
        ("peak_rss_bytes", host::peak_rss_bytes().into()),
        ("timed", rusage_json(&timed.usage)),
        (
            "digests",
            Json::Obj(
                gate.digests
                    .iter()
                    .map(|(k, v)| (k.clone(), format!("{v:#018x}").into()))
                    .collect(),
            ),
        ),
        (
            "exact_counts",
            Json::Obj(
                exact_counts
                    .into_iter()
                    .map(|(k, v)| (k, v.into()))
                    .collect(),
            ),
        ),
        (
            "not_applicable",
            Json::Arr(
                metrics
                    .iter()
                    .filter(|(_, v)| v.is_none())
                    .map(|(def, _)| def.name.into())
                    .collect(),
            ),
        ),
    ]);

    Outcome {
        correct: gate.correct(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        detail,
        failures: gate.failures,
    }
}

/// The per-layer numbers of a traced run that come from the timed
/// repetitions' counters, from extra repetitions, from the drives, and
/// from the attribution model built on all three.
fn per_layer(
    opts: &Options,
    subject: &Subject,
    rec: &mut Recorder,
    gate: &mut Gate,
    workers: usize,
    timed: &Timed,
) -> Vec<(&'static str, f64)> {
    let mut values = Vec::new();
    let last = timed.plain.last().expect("plain repetitions ran");
    let c = &last.counts;
    let floor = Floor::of(timed.plain.iter());
    let wall = floor.wall_s;
    values.push((
        "bench.tracing_overhead",
        Floor::of(timed.counted.iter().map(|(r, _)| r)).wall_s / wall - 1.0,
    ));
    values.push((
        "host.allocs_per_kevent",
        median_of(&timed.counted, |(r, allocs)| {
            *allocs as f64 * 1e3 / r.items as f64
        }),
    ));
    if let Some((states, depth)) = last.mc {
        values.push(("mc.states", states as f64));
        values.push(("mc.depth_reached", f64::from(depth)));
    }

    if let Subject::Sim { runs, .. } = subject {
        values.extend([
            ("netsim.sim.events", c.events as f64),
            ("netsim.sim.packets_sent", c.packets_sent as f64),
            ("netsim.sim.timers_fired", c.timers_fired as f64),
            ("netsim.sched.pushes", c.pushes as f64),
            ("netsim.sched.far_spills", c.far_spills as f64),
            ("netsim.shard.workers", workers as f64),
            ("netsim.shard.parks", c.parks as f64),
            ("netsim.shard.steals", c.steals as f64),
            ("netsim.shard.worker_parks", c.worker_parks as f64),
            ("netsim.shard.windows", c.windows as f64),
            ("netsim.shard.ingress_msgs", c.ingress_msgs as f64),
            ("rudp.segments_sent", c.segments_sent as f64),
            ("rudp.rto", c.rto as f64),
            ("rudp.sack_truncations", c.sack_truncations as f64),
            ("core.window_rescales", c.window_rescales as f64),
            ("core.cond_corrections", c.cond_corrections as f64),
            ("core.reliability_reports", c.reliability_reports as f64),
            (
                "core.deferred_announcements",
                c.deferred_announcements as f64,
            ),
            ("echo.callbacks_upper", c.callbacks_upper as f64),
            ("echo.callbacks_lower", c.callbacks_lower as f64),
        ]);
        // Σexecute ÷ (wall × workers) is the definition ROADMAP item
        // 1(a) asks for, computed outside from `phase_profile`.
        let worker_ns = (wall * 1e9) as u64 * workers as u64;
        let shares = [
            (
                "netsim.sim.timer_cancel_share",
                share(c.timers_cancelled, c.timers_cancelled + c.timers_fired),
            ),
            (
                "netsim.sim.loss_share",
                share(
                    c.packets_sent.saturating_sub(c.packets_delivered),
                    c.packets_sent,
                ),
            ),
            ("netsim.sched.near_hit_share", share(c.near_hits, c.pushes)),
            ("netsim.sched.wheel_share", share(c.wheel_pushes, c.pushes)),
            (
                "netsim.packet.pool_hit_share",
                share(c.pool_hits, c.pool_hits + c.pool_misses),
            ),
            ("netsim.shard.execute_share", share(c.execute_ns, worker_ns)),
            ("netsim.shard.sync_share", share(c.sync_ns, worker_ns)),
            (
                "rudp.retransmit_share",
                share(c.retransmits, c.segments_sent),
            ),
            (
                "rudp.duplicate_share",
                share(c.duplicates, c.segments_received),
            ),
            ("rudp.abandoned_share", share(c.abandoned, c.segments_sent)),
            (
                "rudp.discarded_share",
                share(c.discarded, c.discarded + c.submitted),
            ),
        ];
        values.extend(shares.into_iter().filter_map(|(name, v)| Some((name, v?))));

        if opts.workload == Workload::PaperSweep {
            for (i, (scenario, _)) in runs.iter().enumerate() {
                let def = names::PER_LAYER
                    .iter()
                    .find(|d| d.name.strip_prefix("experiments.ns_per_event.") == Some(*scenario))
                    .expect("every sweep scenario has its metric");
                let fastest = timed
                    .plain
                    .iter()
                    .map(|r| r.parts[i].wall_s)
                    .fold(f64::INFINITY, f64::min);
                values.push((def.name, fastest * 1e9 / last.parts[i].items as f64));
            }
            // One repetition observed: telemetry capture on.
            set_telemetry_capture(true);
            let rep = subject.repetition(rec, "repetition:telemetry", 0, gate, "+telemetry");
            set_telemetry_capture(false);
            let t = &rep.counts;
            values.push(("telemetry.observed_slowdown", rep.wall_s / wall));
            values.push(("telemetry.records", t.telemetry_records as f64));
            values.extend(
                share(
                    t.telemetry_evicted,
                    t.telemetry_records + t.telemetry_evicted,
                )
                .map(|v| ("telemetry.evicted_share", v)),
            );
            values.push(("obs.series", t.obs_series as f64));
        }
        if opts.workload == Workload::MegaSharded {
            // The same world once more on one worker, in this process:
            // what the pool bought in wall time and what it cost in CPU.
            // Its digest must equal the pool's.
            set_shards(1);
            let rep = subject.repetition(rec, "repetition:1worker", 0, gate, "");
            set_shards(workers);
            values.push(("netsim.shard.speedup", rep.wall_s / wall));
            values.push(("netsim.shard.cpu_overhead", floor.cpu_s / rep.cpu_s - 1.0));
        }
        if let Some(registry) = &last.registry {
            let budget = Budget::new(opts.quick);
            let seconds = rec.span("drive:obs.collect_s", None, |_| {
                drives::observe::collect_s(budget, registry)
            });
            values.push(("obs.collect_s", seconds));
        }
    }

    // Counting stays on for the drives: `rudp.cycle_allocs` and
    // `rudp.conn_bytes_*` are read from the allocator wrapper.
    host::set_counting(true);
    let driven = drives::run_all(rec, Budget::new(opts.quick), Sizing::new(opts.quick));
    host::set_counting(false);
    let drive = |name: &str| {
        driven
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("every drive ran")
    };

    // The attribution model: operations counted in the workload × the
    // isolated cost of one, as a share of the repetition. Spans inside
    // the crates are a later change; until then this is a model, and
    // `bench.unattributed_share` says how much it leaves unexplained.
    let estimates: Vec<(&'static str, f64)> = match subject {
        Subject::Sim { .. } => {
            let fleet = subject.fleet_flows().is_some();
            let hold = drive(if fleet {
                "netsim.sched.hold_ns_large"
            } else {
                "netsim.sched.hold_ns_small"
            });
            let cycle = if fleet {
                drive("rudp.cycle_ns_fleet")
            } else {
                ["lda", "cubic", "bbr", "rrr"]
                    .iter()
                    .map(|cc| drive(&format!("rudp.cycle_ns_hot.{cc}")))
                    .sum::<f64>()
                    / 4.0
            };
            vec![
                ("netsim.sched.est_share", c.pushes as f64 * hold),
                ("rudp.est_share", c.segments_sent as f64 * cycle),
            ]
        }
        // Every explored state was cloned, reached by one apply and
        // hashed at least once: a lower bound.
        Subject::Mc(_) => vec![(
            "mc.est_share",
            last.items as f64 * (drive("mc.clone_ns") + drive("mc.hash_ns") + drive("mc.apply_ns")),
        )],
    };
    let wall_ns = wall * 1e9;
    let attributed: f64 = estimates.iter().map(|(_, ns)| ns / wall_ns).sum();
    values.extend(estimates.into_iter().map(|(name, ns)| (name, ns / wall_ns)));
    values.push(("bench.unattributed_share", 1.0 - attributed));
    values.extend(driven);
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn floor_takes_the_fastest_sample_of_each_operation() {
        let rep = |samples: &[(f64, f64)]| {
            let mut rep = Rep {
                wall_s: 0.0,
                cpu_s: 0.0,
                items: 0,
                parts: Vec::new(),
                counts: Counts::default(),
                mc: None,
                registry: None,
            };
            for &(wall_s, cpu_s) in samples {
                rep.add_part(Part {
                    wall_s,
                    cpu_s,
                    items: 10,
                });
            }
            rep
        };
        // The first repetition was disturbed in its second operation,
        // the second in its first.
        let reps = [
            rep(&[(1.0, 0.5), (5.0, 2.5)]),
            rep(&[(3.0, 1.5), (2.0, 1.75)]),
        ];
        let floor = Floor::of(reps.iter());
        assert_eq!((floor.wall_s, floor.cpu_s), (3.0, 2.25));
        assert_eq!(reps[0].wall_s, 6.0);
    }

    /// The names the harness prints are the names `BENCHMARK.json`
    /// declares, in both directions: `run` refuses to report a name that
    /// is not declared (it would panic here), and every declared name is
    /// measured by at least one workload. (`names::tests` holds the
    /// committed file to the same tables.) One test, because a run uses
    /// process-wide switches: shard workers, telemetry capture, counting.
    #[test]
    fn every_declared_name_is_measured_and_nothing_else_is() {
        let out_dir =
            std::env::temp_dir().join(format!("iq-benchmark-test-{}", std::process::id()));
        for trace in [false, true] {
            let mut measured = BTreeSet::new();
            for workload in Workload::ALL {
                let outcome = run(&Options {
                    workload,
                    seed: 3,
                    seconds: 0.01,
                    trace,
                    quick: true,
                    out_dir: out_dir.clone(),
                });
                assert!(
                    outcome.correct,
                    "{}: {:?}",
                    workload.name(),
                    outcome.failures
                );
                assert_eq!(outcome.failed, 0);
                assert!(outcome.attempted >= 3);
                for (def, value) in &outcome.metrics {
                    if let Some(v) = value {
                        assert!(v.is_finite(), "{} on {}", def.name, workload.name());
                        measured.insert(def.name);
                    }
                }
                if trace {
                    let path = out_dir.join(format!("trace-{}.json", workload.name()));
                    let spans =
                        crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
                    let spans = spans.as_arr().unwrap();
                    assert_eq!(spans[0].get("name").unwrap().as_str(), Some("workload"));
                    assert!(spans
                        .iter()
                        .any(|s| s.get("name").unwrap().as_str() == Some("repetition")));
                }
            }
            let declared: BTreeSet<&str> = if trace {
                names::PER_LAYER.iter().map(|d| d.name).collect()
            } else {
                names::END_TO_END.iter().map(|(d, _)| d.name).collect()
            };
            assert_eq!(measured, declared, "trace={trace}");
        }
        let _ = std::fs::remove_dir_all(out_dir);
    }
}
