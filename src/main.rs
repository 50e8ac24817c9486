//! `iqrudp` — command-line front end for the IQ-RUDP reproduction.
//!
//! ```text
//! iqrudp [FLAGS] tables [SIZE] [t1..t9]     regenerate the paper's tables
//!                                           (t9: CC × scheme matrix)
//! iqrudp [FLAGS] figures [SIZE]             regenerate the figures (+ SVGs)
//! iqrudp [FLAGS] ablations [SIZE]           run the design-choice ablations
//! iqrudp [FLAGS] diag [tN|avgN] [SIZE] [SEEDS]
//!                                           per-scheme transport counters
//! iqrudp [FLAGS] bench [SIZE] [OPTS]        reproduce the committed fingerprints
//! iqrudp trace [FRAMES] [SEED]              dump a membership trace as TSV
//! iqrudp demo                               one coordinated flow, annotated
//! iqrudp mc [OPTS]                          model-check the coordination protocol
//! iqrudp [FLAGS] obs [SIZE] [OPTS]          print a scenario's metric exposition
//! ```
//!
//! `mc` runs the bounded model checker over a named scenario
//! (`--scenario basic|deferred|two-flow`), exploring every interleaving
//! of delivery, reordering, bounded drop, and timer firing up to
//! `--depth` transitions with `--drops`/`--ticks` budgets, and checks
//! the three coordination invariants on every application transition.
//! Exits 1 on a violation (printing a replayable minimal
//! counterexample). `--seed-break reinflate|cond|deferral` flips the
//! polarity: it seeds that coordination bug and exits 1 unless the
//! checker catches it — the self-test that the invariants have teeth.
//! The exploration's wall time and states/s go to stderr; stdout keeps
//! the exact lines CI greps.
//!
//! `bench` is the reproduction gate: it runs a fixed scenario sweep and
//! prints each scenario's events and two fingerprints. Options: `--only
//! NAME` (run a single scenario), `--check PATH` (fail unless the run
//! has the size, the scenario names and every events count and
//! fingerprint that the committed `BENCH_netsim.json` records), `--out
//! PATH` (write the run in that format; nothing is written without it).
//! It measures no time or memory — `benchmark/run.sh` does.
//!
//! `SIZE` scales the experiment workloads (1.0 = paper scale). `tables`,
//! `figures`, `ablations` and `diag` take their arguments in any order:
//! a positive number is the size (for `diag`, a second one is the seed
//! count) and a name the subcommand knows is the selection; anything
//! else prints the usage line and exits 2. `figures` writes Figures 1–4
//! as SVG into `figures/` and exits 1, naming the path, if it cannot.
//! Flags:
//!
//! * `-j N` / `--jobs N` — run scenarios on N worker threads (default:
//!   one per core). Rendered output is byte-identical for any N.
//! * `--shards N` — worker threads inside a scenario's sharded world
//!   (only `mega_flows` has more than one shard); results are
//!   byte-identical for any N (0 = one per core, default 1).
//! * `--verify-determinism` — run every scenario twice with the same
//!   seed and abort if any metric differs bit-for-bit.
//! * `--no-timing` — suppress the per-scenario wall-clock / events-per-
//!   second report on stderr.
//! * `--telemetry DIR` — capture the structured telemetry bus for every
//!   scenario and write one JSONL stream per scenario into `DIR`. The
//!   dumps are byte-identical for any `-j`, and rendered tables do not
//!   change.
//! * `--metrics DIR` — write each scenario's metric registry into `DIR`
//!   as `NNN_<scenario>.prom` (Prometheus text exposition) and
//!   `NNN_<scenario>.jsonl` (one JSON object per sample). Sim-plane
//!   metrics are byte-identical for any `-j`/`--shards`; engine-plane
//!   metrics (scheduler placement, pool hit rates, phase times) vary
//!   with thread scheduling.
//!
//! `obs` runs one bench scenario (default `bulk_rudp`, pick with
//! `--only NAME`) and prints its full exposition on stdout; `--verify`
//! re-runs it at `--shards 2` and `4` and fails unless the sim-plane
//! exposition is byte-identical. Only `mega_flows` has shards to spread,
//! so `--verify` on any other scenario exits 2.

use iq_experiments::ablations::run_all_ablations;
use iq_experiments::figures::{figure1, figure4_from_rows, figures_2_3, render_figure4};
use iq_experiments::tables::*;
use iq_experiments::{Executor, RunResult, Scenario, ScenarioReport};
use iq_metrics::{bar_chart, line_plot, PlotConfig};
use iq_trace::{MembershipConfig, MembershipTrace};

/// A table: its name on the command line, its runner and its renderer.
type Table = (
    &'static str,
    fn(&Executor, Size) -> Vec<RunResult>,
    fn(&[RunResult]) -> String,
);

/// What `tables` runs, in this order; `diag tN` runs one of them.
const TABLES: [Table; 9] = [
    ("t1", run_table1, render_table1),
    ("t2", run_table2, render_table2),
    ("t3", run_table3, render_table3),
    ("t4", run_table4, render_table4),
    ("t5", run_table5, render_table5),
    ("t6", run_table6, render_table6),
    ("t7", run_table7, render_table7),
    ("t8", run_table8, render_table8),
    ("t9", run_table9, render_table9),
];

/// A table `diag avgN` averages over seeds: its name and scenarios.
type Averaged = (&'static str, fn(Size) -> Vec<Scenario>);

/// The tables `diag avgN` knows.
const AVERAGED: [Averaged; 4] = [
    ("avg5", table5_scenarios),
    ("avg6", table6_scenarios),
    ("avg7", table7_scenarios),
    ("avg8", table8_scenarios),
];

/// Reads the positional arguments of `tables`, `figures`, `ablations`
/// and `diag`, in any order: positive numbers (the size, then `diag`'s
/// seed count), at most `max_numbers` of them, and at most one of
/// `names`, the selection. `None` for anything else.
fn positional<'a>(
    args: &'a [String],
    names: &[&str],
    max_numbers: usize,
) -> Option<(Vec<f64>, Option<&'a str>)> {
    let (mut numbers, mut name) = (Vec::new(), None);
    for arg in args.iter().map(String::as_str) {
        if name.is_none() && names.contains(&arg) {
            name = Some(arg);
            continue;
        }
        match arg.parse::<f64>() {
            Ok(x) if x > 0.0 && x.is_finite() && numbers.len() < max_numbers => numbers.push(x),
            _ => return None,
        }
    }
    Some((numbers, name))
}

/// The size (default 1.0) and selection of `tables`, `figures` and
/// `ablations`; the usage line and exit 2 for anything else.
fn size_and_name<'a>(args: &'a [String], names: &[&str]) -> (Size, Option<&'a str>) {
    let (numbers, name) = positional(args, names, 1).unwrap_or_else(|| usage());
    (Size(numbers.first().copied().unwrap_or(1.0)), name)
}

/// `diag`'s selection, size and seed count: `t5`, 0.3 and 8 when absent,
/// and a seed count only with an `avgN`.
fn diag_args(args: &[String]) -> Option<(&str, Size, u32)> {
    let names: Vec<&str> = TABLES
        .iter()
        .map(|t| t.0)
        .chain(AVERAGED.map(|a| a.0))
        .collect();
    let (numbers, name) = positional(args, &names, 2)?;
    let which = name.unwrap_or("t5");
    let seeds = match numbers.get(1) {
        None => 8,
        Some(&n) if which.starts_with("avg") && n.fract() == 0.0 && n <= f64::from(u32::MAX) => {
            n as u32
        }
        Some(_) => return None,
    };
    Some((which, Size(numbers.first().copied().unwrap_or(0.3)), seeds))
}

fn cmd_tables(exec: &Executor, args: &[String]) {
    let (size, only) = size_and_name(args, &TABLES.map(|t| t.0));
    for (name, run, render) in TABLES {
        if only.is_none_or(|only| only == name) {
            println!("{}", render(&run(exec, size)));
        }
    }
}

fn cmd_figures(exec: &Executor, args: &[String]) {
    let (size, _) = size_and_name(args, &[]);
    let f1 = figure1();
    println!(
        "Figure 1: {} frames, group sizes {:.0}..{:.0}",
        f1.len(),
        f1.values().fold(f64::INFINITY, f64::min),
        f1.values().fold(0.0, f64::max)
    );
    let (iq, rudp) = figures_2_3(exec, size);
    println!(
        "Figures 2/3: IQ-RUDP mean jitter {:.2} ms, RUDP {:.2} ms",
        iq.mean(),
        rudp.mean()
    );
    let points = figure4_from_rows(&run_table6(exec, size));
    println!("{}", render_figure4(&points));
    let labels: Vec<String> = points
        .iter()
        .map(|p| format!("{:.0} Mb", p.iperf_bps / 1e6))
        .collect();
    let svgs = [
        (
            "figure1_membership_dynamics.svg",
            line_plot(
                &PlotConfig::new("Figure 1: Membership dynamics", "frame", "group size"),
                &[("audience", &f1)],
            ),
        ),
        (
            "figures_2_3_jitter.svg",
            line_plot(
                &PlotConfig::new(
                    "Figures 2/3: per-packet delay jitter",
                    "packet",
                    "jitter (ms)",
                ),
                &[("IQ-RUDP", &iq), ("RUDP", &rudp)],
            ),
        ),
        (
            "figure4_improvement_overreaction.svg",
            bar_chart(
                &PlotConfig::new(
                    "Figure 4: Performance improvement - overreaction",
                    "iperf background rate",
                    "percent",
                ),
                &labels,
                &[
                    (
                        "throughput gain %",
                        points.iter().map(|p| p.throughput_gain_pct).collect(),
                    ),
                    (
                        "jitter reduction %",
                        points.iter().map(|p| p.jitter_reduction_pct).collect(),
                    ),
                ],
            ),
        ),
    ];
    let dir = std::path::Path::new("figures");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    for (name, svg) in svgs {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, svg) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("wrote figures/*.svg");
}

/// `iqrudp diag [tN | avgN] [SIZE] [SEEDS]` — one line per scheme with
/// the transport- and coordination-level counters that the rendered
/// tables hide, for calibrating an experiment. `avgN` averages Table N
/// (5–8) over SEEDS seeds.
fn cmd_diag(exec: &Executor, args: &[String]) {
    let (which, size, seeds) = diag_args(args).unwrap_or_else(|| usage());
    let rows = match AVERAGED.iter().find(|a| a.0 == which) {
        Some((_, scenarios)) => exec.run_averaged(&scenarios(size), seeds),
        None => {
            let (_, run, _) = TABLES
                .iter()
                .find(|t| t.0 == which)
                .expect("diag_args admits only the names of TABLES and AVERAGED");
            run(exec, size)
        }
    };
    for r in &rows {
        println!(
            "{:<24} dur={:<6.1} tp={:<7.1} jit={:<7.2}ms tagD={:<6.1} tagJ={:<6.2} \
             cb=({}, {}) coord={:?} offered={} delivered={} finished={} stats={:?}",
            r.label,
            r.duration_s,
            r.throughput_kbps,
            r.jitter_s * 1e3,
            r.tagged_delay_ms,
            r.tagged_jitter_ms,
            r.callbacks.0,
            r.callbacks.1,
            r.coordination
                .map(|c| (c.window_rescales, format!("{:.2}", c.cumulative_factor))),
            r.msgs_offered,
            r.msgs_delivered,
            r.finished,
            r.sender_stats.map(|st| (
                st.segments_sent,
                st.retransmits,
                st.timeouts,
                st.segments_abandoned,
                st.msgs_discarded
            ))
        );
    }
}

fn cmd_bench(exec: &Executor, args: &[String]) {
    let mut opts = iq_experiments::BenchOptions {
        size: Size::FULL,
        out_path: None,
        check_path: None,
        only: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => opts.out_path = Some(p.clone()),
                None => die("--out requires a path"),
            },
            "--check" => match it.next() {
                Some(p) => opts.check_path = Some(p.clone()),
                None => die("--check requires a path"),
            },
            "--only" => match it.next() {
                Some(n) => opts.only = Some(n.clone()),
                None => die("--only requires a scenario name"),
            },
            other => match other.parse::<f64>() {
                Ok(s) if s > 0.0 => opts.size = Size(s),
                _ => die(&format!("bench: unknown argument `{other}`")),
            },
        }
    }
    match iq_experiments::bench_main(exec, &opts) {
        Ok(run) => {
            for sc in &run.scenarios {
                println!(
                    "{:<18} {:>10} events  fingerprint {:#018x}  counters {:#018x}",
                    sc.name, sc.events, sc.fingerprint, sc.counter_fingerprint
                );
            }
        }
        Err(e) => {
            eprintln!("bench: {e}");
            std::process::exit(1);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: iqrudp [-j N] [--shards N] [--verify-determinism] [--no-timing] \
         [--telemetry DIR] [--metrics DIR] \
         <tables [SIZE] [tN] | figures [SIZE] | ablations [SIZE] | \
         diag [tN | avgN] [SIZE] [SEEDS] | \
         bench [SIZE] [--only NAME] [--check PATH] [--out PATH] | \
         trace [FRAMES] [SEED] | demo | \
         mc [--scenario NAME] [--cc lda|cubic|bbr|rrr] [--depth N] \
         [--drops K] [--ticks K] \
         [--seed-break reinflate|cond|deferral] | \
         obs [SIZE] [--only NAME] [--verify]>"
    );
    std::process::exit(2);
}

/// `iqrudp obs [SIZE] [--only NAME] [--verify]` — run one bench
/// scenario and print its metric exposition (Prometheus text, both
/// planes) on stdout. `--verify` re-runs the scenario at `--shards 2`
/// and `4` and fails unless each re-run spread over several shards and
/// rendered a byte-identical sim-plane exposition ([`verify_rerun`]).
/// Combine with the global `--metrics DIR` flag to also write
/// `.prom`/`.jsonl` dumps.
fn cmd_obs(exec: &Executor, args: &[String]) {
    let mut size = Size(0.05);
    let mut only = "bulk_rudp".to_string();
    let mut verify = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--only" => match it.next() {
                Some(n) => only = n.clone(),
                None => die("--only requires a scenario name"),
            },
            "--verify" => verify = true,
            other => match other.parse::<f64>() {
                Ok(s) if s > 0.0 => size = Size(s),
                _ => die(&format!("obs: unknown argument `{other}`")),
            },
        }
    }
    let mut specs = iq_experiments::benchmode::bench_specs(size);
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    specs.retain(|s| s.name == only);
    if specs.is_empty() {
        die(&format!(
            "obs: no scenario named `{only}` (available: {})",
            names.join(", ")
        ));
    }

    let reports = exec.run(&specs);
    for rep in &reports {
        let mut reg = rep.result.obs.clone();
        reg.sort();
        let text = iq_obs::expo::render_prom(&reg, None);
        match iq_obs::expo::validate_prom(&text) {
            Ok(n) => eprintln!(
                "obs: `{}` exposition parses ({n} samples), counter fingerprint {:#018x}",
                rep.name,
                reg.sim_fingerprint()
            ),
            Err(e) => {
                eprintln!("obs: `{}` exposition INVALID: {e}", rep.name);
                std::process::exit(1);
            }
        }
        print!("{text}");
    }

    if verify {
        for shards in [2usize, 4] {
            let mut at_n = exec.clone();
            at_n.config.threads = shards;
            if let Err((code, why)) = verify_rerun(&reports, &at_n.run(&specs), shards) {
                eprintln!("obs verify: {why}");
                std::process::exit(code);
            }
        }
        eprintln!(
            "obs verify: `{only}` sim-plane metrics byte-identical across \
             --shards {}/2/4 — ok",
            exec.config.threads
        );
    }
}

/// Checks `again`, the re-run of `first` at `--shards {shards}`: each
/// re-run must have run on more than one shard, or it repeated the first
/// run's schedule and proves nothing (exit code 2), and must render the
/// same sim-plane metrics (exit code 1). The error names the scenario.
fn verify_rerun(
    first: &[ScenarioReport],
    again: &[ScenarioReport],
    shards: usize,
) -> Result<(), (i32, String)> {
    for (a, b) in first.iter().zip(again) {
        if b.result.shards_used <= 1 {
            return Err((
                2,
                format!(
                    "`{}` has one shard, so --shards {shards} re-ran the same schedule; \
                     pick a sharded scenario (--only mega_flows)",
                    a.name
                ),
            ));
        }
        if a.result.obs.sim_text() != b.result.obs.sim_text() {
            return Err((
                1,
                format!("FAILED — `{}` sim-plane metrics diverged at --shards {shards}", a.name),
            ));
        }
    }
    Ok(())
}

fn cmd_mc(args: &[String]) {
    use iq_mc::{check, replay, scenario_names, scenario_with_cc, CheckerConfig, Mutation};
    use iq_rudp::CcAlgorithm;

    let mut name = "basic".to_string();
    let mut cc = CcAlgorithm::default();
    let mut cfg = CheckerConfig::default();
    let mut mutation = Mutation::None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scenario" => match it.next() {
                Some(s) => name = s.clone(),
                None => die("--scenario requires a name"),
            },
            "--cc" => match it.next().map(|s| CcAlgorithm::from_name(s)) {
                Some(Some(alg)) => cc = alg,
                _ => die("--cc requires one of: lda, cubic, bbr, rrr, fixed"),
            },
            // 62: `check` keeps a state's remaining depth in six bits; at
            // 0 it would run no iteration and pass vacuously.
            "--depth" => match it.next().and_then(|v| v.parse().ok()) {
                Some(d @ 1..=62) => cfg.max_depth = d,
                _ => die("--depth requires a positive integer, at most 62"),
            },
            "--drops" => match it.next().and_then(|v| v.parse().ok()) {
                Some(d) => cfg.drop_budget = d,
                None => die("--drops requires an integer"),
            },
            "--ticks" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => cfg.tick_budget = t,
                None => die("--ticks requires an integer"),
            },
            "--seed-break" => match it.next().map(|s| Mutation::from_name(s)) {
                Some(Some(m)) => mutation = m,
                _ => die("--seed-break requires one of: reinflate, cond, deferral"),
            },
            other => die(&format!("mc: unknown argument `{other}`")),
        }
    }
    let cc_name = cc.name();
    let spec = scenario_with_cc(&name, cc).unwrap_or_else(|| {
        die(&format!(
            "unknown scenario `{name}` (available: {})",
            scenario_names().join(", ")
        ))
    });

    let started = std::time::Instant::now();
    let report = check(&spec, mutation, &cfg);
    let wall = started.elapsed().as_secs_f64();
    // stderr: stdout is what CI greps and tests compare.
    let depths: Vec<String> = depths_run(cfg.max_depth, &report)
        .iter()
        .map(u32::to_string)
        .collect();
    eprintln!(
        "mc: {} expansions of {} distinct states in {:.3} s ({:.0} states/s); \
         {} expansions over depths {}",
        report.explored,
        report.distinct,
        wall,
        report.explored as f64 / wall.max(1e-9),
        report.work,
        depths.join(" "),
    );
    println!(
        "mc: scenario {} cc {} depth {} (reached {}) drops {} ticks {}: \
         {} states explored, space {}",
        spec.name,
        cc_name,
        cfg.max_depth,
        report.depth_reached,
        cfg.drop_budget,
        cfg.tick_budget,
        report.explored,
        if report.complete { "exhausted" } else { "bounded by depth" },
    );
    match report.counterexample {
        Some(ce) => {
            println!("VIOLATION: {}", ce.violation);
            println!("minimal counterexample ({} steps):", ce.trace.len());
            print!("{}", iq_mc::trace::render(&ce.trace));
            let replayed = replay(&spec, mutation, &cfg, &ce.trace);
            let found = &ce.violation;
            match replayed {
                Some(v)
                    if (v.invariant, v.flow, v.step, &v.detail)
                        == (found.invariant, found.flow, found.step, &found.detail) =>
                {
                    println!("replay: reproduced");
                }
                _ => {
                    println!("replay: FAILED to reproduce");
                    std::process::exit(2);
                }
            }
            // A violation is success when we seeded the bug ourselves.
            if mutation == Mutation::None {
                std::process::exit(1);
            }
        }
        None => {
            println!("no violations");
            if mutation != Mutation::None {
                eprintln!("mc: seeded mutation {mutation:?} was NOT caught");
                std::process::exit(1);
            }
        }
    }
}

/// The depths `iq_mc::check` ran to give `report`, in order, by the
/// schedule its module doc states: bounds doubling from 1, capped at
/// `max_depth`, up to the first at or past the depth that answered;
/// then, when that answer is a violation or an exhausted space, the
/// skipped depths from the last doubling below it up to the answer.
fn depths_run(max_depth: u32, report: &iq_mc::CheckReport) -> Vec<u32> {
    let answered = report.depth_reached;
    let mut depths = Vec::new();
    let mut bound = 0;
    while bound < answered {
        bound = (2 * bound).clamp(1, max_depth);
        depths.push(bound);
    }
    if report.counterexample.is_some() || report.complete {
        let clean = depths.len().checked_sub(2).map_or(0, |i| depths[i]);
        depths.extend((clean + 1..=answered).filter(|&depth| depth != bound));
    }
    depths
}

fn cmd_trace(args: &[String]) {
    let len = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000usize);
    let seed = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0x4d42_6f6e);
    let trace = MembershipTrace::generate(&MembershipConfig {
        seed,
        len,
        ..MembershipConfig::default()
    });
    for (i, g) in trace.samples.iter().enumerate() {
        println!("{i}\t{g}");
    }
}

fn cmd_demo() {
    use iq_echo::{AdaptiveSourceAgent, EchoSinkAgent, Policy, ResolutionAdapter, SourceConfig};
    use iq_netsim::{build_dumbbell, time, Addr, DumbbellSpec, FlowId, Simulator};
    use iq_workload::CbrSource;

    let mut sim = Simulator::new(1);
    // For the ground-truth line at the end: the fold of flow 1's packet
    // records, which the default ring capacity holds without eviction.
    let (sink, bus) = iq_telemetry::TelemetrySink::new_bus(0);
    sim.attach_telemetry(sink);
    let db = build_dumbbell(&mut sim, &DumbbellSpec::paper_default(2));
    sim.add_agent(
        db.left_hosts[1],
        9,
        Box::new(CbrSource::new(
            Addr::new(db.right_hosts[1], 9),
            FlowId(99),
            18e6,
            972,
        )),
    );
    sim.add_agent(db.right_hosts[1], 9, Box::new(iq_workload::UdpSink::new()));
    let mut cfg = SourceConfig::new(1, vec![1400; 600]);
    cfg.rudp.upper_threshold = Some(0.15);
    cfg.rudp.lower_threshold = Some(0.01);
    cfg.datagram_mode = true;
    let sink_cfg = cfg.rudp.clone();
    let src = AdaptiveSourceAgent::new(
        cfg,
        Policy::Resolution(ResolutionAdapter::default()),
        Addr::new(db.right_hosts[0], 1),
        FlowId(1),
    );
    let tx = sim.add_agent(db.left_hosts[0], 1, Box::new(src));
    let rx = sim.add_agent(
        db.right_hosts[0],
        1,
        Box::new(EchoSinkAgent::new(
            sink_cfg.builder(1, FlowId(1)).build_receiver(),
            iq_metrics::FlowMetrics::new(),
        )),
    );
    sim.run_until(time::secs(60.0));
    let src = sim.agent::<AdaptiveSourceAgent>(tx).unwrap();
    let sink = sim.agent::<EchoSinkAgent>(rx).unwrap();
    println!(
        "delivered {}/{} messages in {:.1} s at {:.1} KB/s (jitter {:.2} ms); \
         {} upper callbacks, {} window re-adjustments",
        sink.metrics.messages(),
        src.offered_msgs,
        sink.metrics.duration_s(),
        sink.metrics.throughput_kbps(),
        sink.metrics.jitter_s() * 1e3,
        src.callbacks.0,
        src.coordination_log().window_rescales,
    );
    let bus = bus
        .lock()
        .expect("an emit panicked while holding the telemetry bus");
    let fs = iq_telemetry::TelemetryReport::from_records(&bus.flow_records(1));
    println!(
        "ground truth: {} packets sent, {:.2}% network loss",
        fs.sent_packets,
        100.0 * fs.loss_ratio()
    );
}

fn main() {
    iq_experiments::tune_allocator();
    // The runner flags may stand anywhere on the line; what is left is
    // the command and its own arguments.
    let (exec, args) =
        Executor::from_args(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    match args.first().map(|s| s.as_str()) {
        Some("tables") => cmd_tables(&exec, &args[1..]),
        Some("figures") => cmd_figures(&exec, &args[1..]),
        Some("ablations") => {
            let (size, _) = size_and_name(&args[1..], &[]);
            println!("{}", run_all_ablations(&exec, size));
        }
        Some("diag") => cmd_diag(&exec, &args[1..]),
        Some("bench") => cmd_bench(&exec, &args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("demo") => cmd_demo(),
        Some("mc") => cmd_mc(&args[1..]),
        Some("obs") => cmd_obs(&exec, &args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_positive_number_is_the_size_and_a_known_name_the_selection() {
        let tables = TABLES.map(|t| t.0);
        let parse =
            |line: &str| positional(&args(line), &tables, 1).map(|(n, t)| (n, t.map(String::from)));
        let t3 = Some("t3".to_string());
        assert_eq!(parse(""), Some((vec![], None)));
        assert_eq!(parse("t3"), Some((vec![], t3.clone())));
        assert_eq!(parse("0.05 t3"), Some((vec![0.05], t3.clone())));
        assert_eq!(parse("t3 0.05"), Some((vec![0.05], t3)));
        for refused in [
            "0.05 t10", "t3 t4", "0.05 0.1", "0", "-1", "NaN", "inf", "f4", "--out",
        ] {
            assert_eq!(parse(refused), None, "`tables {refused}` must exit 2");
        }
        // `figures` and `ablations` know no name.
        assert_eq!(positional(&args("0.05"), &[], 1), Some((vec![0.05], None)));
        assert_eq!(positional(&args("t3"), &[], 1), None);
    }

    #[test]
    fn obs_verify_refuses_a_one_shard_rerun_and_catches_a_mismatch() {
        use iq_experiments::{run_scenario_with, PolicySpec, RunConfig, Scheme};
        // A world built and never run: a report to copy and edit.
        let mut sc = Scenario::new(Scheme::RudpPlain, PolicySpec::None, vec![1400]);
        sc.deadline_s = 0.0;
        let report = |shards_used| {
            let mut result = run_scenario_with(&sc, RunConfig::default());
            result.shards_used = shards_used;
            ScenarioReport { name: "bulk".into(), result, wall_s: 0.0, events_per_sec: 0.0 }
        };
        let first = [report(1)];
        let one_shard = verify_rerun(&first, &[report(1)], 2).unwrap_err();
        assert_eq!(one_shard.0, 2);
        assert!(one_shard.1.contains("`bulk` has one shard"), "{}", one_shard.1);
        assert_eq!(verify_rerun(&first, &[report(2)], 2), Ok(()));
        let mut diverged = report(2);
        diverged.result.obs.counter(iq_obs::Plane::Sim, "iq_probe_total", &[], 1);
        let mismatch = verify_rerun(&first, &[diverged], 2).unwrap_err();
        assert_eq!(mismatch.0, 1);
        assert!(mismatch.1.contains("`bulk` sim-plane metrics diverged"), "{}", mismatch.1);
    }

    #[test]
    fn diag_takes_a_table_or_an_average_a_size_and_a_seed_count() {
        let parse = |line: &str| diag_args(&args(line)).map(|(w, s, n)| (w.to_string(), s.0, n));
        let row = |w: &str, size, seeds| Some((w.to_string(), size, seeds));
        assert_eq!(parse(""), row("t5", 0.3, 8));
        assert_eq!(parse("t3 0.05"), row("t3", 0.05, 8));
        assert_eq!(parse("0.05 t9"), row("t9", 0.05, 8));
        assert_eq!(parse("avg7 0.05 2"), row("avg7", 0.05, 2));
        assert_eq!(parse("avg5"), row("avg5", 0.3, 8));
        for refused in [
            "t10",
            "avg4",
            "avg9",
            "t3 0.05 2",
            "avg7 0.05 2.5",
            "avg7 0.05 2 3",
            "t3 t4",
        ] {
            assert_eq!(parse(refused), None, "`diag {refused}` must exit 2");
        }
    }
}
