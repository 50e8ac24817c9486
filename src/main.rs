//! `iqrudp` — command-line front end for the IQ-RUDP reproduction.
//!
//! ```text
//! iqrudp [FLAGS] tables [SIZE] [t1..t9]     regenerate the paper's tables
//!                                           (t9: CC × scheme matrix)
//! iqrudp [FLAGS] figures [SIZE]             regenerate the figures (+ SVGs)
//! iqrudp [FLAGS] ablations [SIZE]           run the design-choice ablations
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
//! `SIZE` scales the experiment workloads (1.0 = paper scale). Flags:
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
//! exposition is byte-identical.

use iq_experiments::ablations::run_all_ablations;
use iq_experiments::figures::{figure1, figure4_from_rows, figures_2_3, render_figure4};
use iq_experiments::tables::*;
use iq_experiments::Executor;
use iq_metrics::{line_plot, PlotConfig};
use iq_trace::{MembershipConfig, MembershipTrace};

fn parse_size(args: &[String], idx: usize) -> Size {
    Size(args.get(idx).and_then(|s| s.parse().ok()).unwrap_or(1.0))
}

fn cmd_tables(exec: &Executor, args: &[String]) {
    let size = parse_size(args, 0);
    let only = args.get(1).map(|s| s.as_str());
    let want = |k: &str| only.is_none() || only == Some(k);
    if want("t1") {
        println!("{}", render_table1(&run_table1(exec, size)));
    }
    if want("t2") {
        println!("{}", render_table2(&run_table2(exec, size)));
    }
    if want("t3") {
        println!("{}", render_table3(&run_table3(exec, size)));
    }
    if want("t4") {
        println!("{}", render_table4(&run_table4(exec, size)));
    }
    if want("t5") {
        println!("{}", render_table5(&run_table5(exec, size)));
    }
    if want("t6") {
        println!("{}", render_table6(&run_table6(exec, size)));
    }
    if want("t7") {
        println!("{}", render_table7(&run_table7(exec, size)));
    }
    if want("t8") {
        println!("{}", render_table8(&run_table8(exec, size)));
    }
    if want("t9") {
        println!("{}", render_table9(&run_table9(exec, size)));
    }
}

fn cmd_figures(exec: &Executor, args: &[String]) {
    let size = parse_size(args, 0);
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
    let rows = run_table6(exec, size);
    println!("{}", render_figure4(&figure4_from_rows(&rows)));
    let _ = std::fs::create_dir_all("figures");
    let _ = std::fs::write(
        "figures/figure1_membership_dynamics.svg",
        line_plot(
            &PlotConfig::new("Figure 1: Membership dynamics", "frame", "group size"),
            &[("audience", &f1)],
        ),
    );
    let _ = std::fs::write(
        "figures/figures_2_3_jitter.svg",
        line_plot(
            &PlotConfig::new("Figures 2/3: per-packet delay jitter", "packet", "jitter (ms)"),
            &[("IQ-RUDP", &iq), ("RUDP", &rudp)],
        ),
    );
    println!("wrote figures/*.svg");
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

/// `iqrudp obs [SIZE] [--only NAME] [--verify]` — run one bench
/// scenario and print its metric exposition (Prometheus text, both
/// planes) on stdout. `--verify` re-runs the scenario at `--shards 2`
/// and `4` and fails unless the sim-plane exposition is byte-identical
/// every time. Combine with the global `--metrics DIR` flag to also
/// write `.prom`/`.jsonl` dumps.
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
            let again = at_n.run(&specs);
            for (a, b) in reports.iter().zip(&again) {
                if a.result.obs.sim_text() != b.result.obs.sim_text() {
                    eprintln!(
                        "obs verify: FAILED — `{}` sim-plane metrics diverged at \
                         --shards {shards}",
                        a.name
                    );
                    std::process::exit(1);
                }
            }
        }
        eprintln!(
            "obs verify: `{only}` sim-plane metrics byte-identical across \
             --shards {}/2/4 — ok",
            exec.config.threads
        );
    }
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
        Box::new(EchoSinkAgent::new(1, sink_cfg, FlowId(1))),
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
            let size = parse_size(&args[1..], 0);
            println!("{}", run_all_ablations(&exec, size));
        }
        Some("bench") => cmd_bench(&exec, &args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("demo") => cmd_demo(),
        Some("mc") => cmd_mc(&args[1..]),
        Some("obs") => cmd_obs(&exec, &args[1..]),
        _ => {
            eprintln!(
                "usage: iqrudp [-j N] [--shards N] [--verify-determinism] [--no-timing] \
                 [--telemetry DIR] [--metrics DIR] \
                 <tables [SIZE] [tN] | figures [SIZE] | ablations [SIZE] | \
                 bench [SIZE] [--only NAME] [--check PATH] [--out PATH] | \
                 trace [FRAMES] [SEED] | demo | \
                 mc [--scenario NAME] [--cc lda|cubic|bbr|rrr] [--depth N] \
                 [--drops K] [--ticks K] \
                 [--seed-break reinflate|cond|deferral] | \
                 obs [SIZE] [--only NAME] [--verify]>"
            );
            std::process::exit(2);
        }
    }
}