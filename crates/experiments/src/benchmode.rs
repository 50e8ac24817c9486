//! The reproduction gate behind `iqrudp bench`.
//!
//! Runs a fixed, deterministic scenario sweep — the paper's coordinated,
//! marking and conflict workloads, the extra congestion controllers, and
//! the 100k-flow fleet with its 1/2/4/8-worker shard curve — and reduces
//! each scenario to the three numbers no PR may move by accident:
//! `events`, `fingerprint` and `counter_fingerprint`. `BENCH_netsim.json`
//! commits them, one scenario per line, so `git diff` of that file is
//! the drift report; `--check FILE` fails (non-zero exit) when the run
//! and the file disagree on the sweep size, the scenario names or their
//! order, or any of the three numbers, and `--out FILE` writes the run.
//!
//! Nothing here measures time or memory: speed claims are made and
//! judged in `benchmark/`, and `--timing`'s stderr lines are for a human.

use crate::runner::{Executor, ScenarioReport, ScenarioSpec};
use crate::scenario::{app_frame_sizes, PolicySpec, Scenario, Scheme, VbrSpec};
use crate::tables::{conflict_scenario, seeded, Size};
use iq_rudp::CcAlgorithm;

/// The schema string a reference file must carry.
const SCHEMA: &str = "iq-bench-netsim/v4";

/// Options for one bench invocation (a parsed `iqrudp bench` command
/// line).
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Workload scale (1.0 = the committed reference scale).
    pub size: Size,
    /// When set, the run is written to this file.
    pub out_path: Option<String>,
    /// When set, the run must reproduce this file.
    pub check_path: Option<String>,
    /// When set, run only the scenario with this name (plus, for
    /// `mega_flows`, its shard scaling curve).
    pub only: Option<String>,
}

/// One scenario's deterministic outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchScenario {
    /// Scenario name (stable across runs).
    pub name: String,
    /// Simulator events processed.
    pub events: u64,
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
}

/// One sweep: what ran, or what a reference file records.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Workload scale the sweep ran at.
    pub size: f64,
    /// Per-scenario outputs, in declaration order.
    pub scenarios: Vec<BenchScenario>,
}

/// The fixed sweep: one scenario per hot-path profile.
///
/// Names are stable identifiers — CI and the trajectory tooling key off
/// them — so change them only with a deliberate baseline reset. The
/// sweep is one world: its trace seeds are the tables' at seed 0, taken
/// through the same [`seeded`].
pub fn bench_specs(size: Size) -> Vec<ScenarioSpec> {
    let frames = |n: usize, trace: u64| app_frame_sizes(size.frames(n), trace);
    let mut specs = Vec::new();

    // 1. Bulk RUDP transfer: data/ack event volume plus RTO timer churn.
    let mut sc = Scenario::new(
        Scheme::RudpPlain,
        PolicySpec::None,
        vec![1400u32; size.frames(60_000)],
    );
    sc.deadline_s = 900.0;
    specs.push(ScenarioSpec::new("bulk_rudp", sc));

    // 2. Coordinated adaptive flow against CBR cross traffic: the
    //    paper's core workload — congestion, loss recovery, callbacks.
    let mut sc = Scenario::new(
        Scheme::Coordinated,
        PolicySpec::Resolution,
        frames(8000, seeded(0, 7)),
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
        frames(12_000, seeded(0, 11)),
    );
    sc.fps = Some(100.0);
    sc.datagram_mode = true;
    sc.loss_tolerance = 0.40;
    sc.thresholds = (Some(0.10), Some(0.02));
    sc.cross.vbr = Some(VbrSpec {
        fps: 500.0,
        mean_bps: 10e6,
        seed: seeded(0, 13),
    });
    sc.deadline_s = 600.0;
    specs.push(ScenarioSpec::new("marking_vbr", sc));

    // 4. TCP bulk against a competing TCP flow: the second transport's
    //    state machine plus two full-speed flows through one queue.
    let mut sc = Scenario::new(
        Scheme::Tcp,
        PolicySpec::None,
        vec![1400u32; size.frames(40_000)],
    );
    sc.cross.tcp_bulk = true;
    sc.deadline_s = 600.0;
    specs.push(ScenarioSpec::new("tcp_fairness", sc));

    // 5. Early-drop recovery: a RED bottleneck under 14 Mb/s of CBR
    //    cross traffic drops segments before its queue fills, which
    //    drives the retransmission and dup-ack machinery (the `lossy`
    //    of its name is these drops: no link loses packets at random).
    let mut sc = Scenario::new(
        Scheme::RudpPlain,
        PolicySpec::None,
        vec![1400u32; size.frames(25_000)],
    );
    sc.dumbbell.pairs = 3;
    sc.red_bottleneck = true;
    sc.cross.cbr_bps = Some(14e6);
    sc.deadline_s = 900.0;
    specs.push(ScenarioSpec::new("red_lossy", sc));

    // 6. Many-flow incast: hundreds of concurrent connections sharing
    //    one bottleneck — per-connection state, ACK fan-in and timer
    //    load that the single-flow profiles never reach.
    let sc = Scenario::incast(200, size.frames(150), 1400);
    specs.push(ScenarioSpec::new("many_flows", sc));

    // 7. CUBIC under the Table-3 conflict workload: the cubic window
    //    curve (cbrt, per-ACK target steps) plus the coordinator's
    //    re-inflation seam on a non-LDA controller.
    let mut sc = conflict_scenario(&frames(9000, seeded(0, 17)), Scheme::Coordinated);
    sc.cc = CcAlgorithm::from_name("cubic").expect("known name");
    specs.push(ScenarioSpec::new("cubic_conflict", sc));

    // 8. BBR-like model under many-flow incast: per-connection
    //    rate/min-RTT sampling and BDP recomputation across hundreds
    //    of concurrent flows.
    let mut sc = Scenario::incast(200, size.frames(150), 1400);
    sc.cc = CcAlgorithm::from_name("bbr").expect("known name");
    specs.push(ScenarioSpec::new("bbr_many_flows", sc));

    // 9. RRR on the same conflict workload without coordination:
    //    loss-proportional rate reduction reacting to raw loss ratios.
    let mut sc = conflict_scenario(&frames(9000, seeded(0, 19)), Scheme::Uncoordinated);
    sc.cc = CcAlgorithm::from_name("rrr").expect("known name");
    specs.push(ScenarioSpec::new("rrr_table3", sc));

    // 10. The sharded 100k-flow population: 8 independent legs × 12 800
    //     flows, executed by the conservative-lookahead parallel engine
    //     with `--shards` OS threads. The flow count never scales down —
    //     the point is per-connection state pressure at fleet size — so
    //     `size` only scales the per-flow message count.
    let msgs = ((8.0 * size.0).ceil() as usize).max(2);
    specs.push(ScenarioSpec::new(
        "mega_flows",
        Scenario::mega(8, 12_800, msgs, 1400),
    ));

    specs
}

fn to_bench_scenario(name: String, r: &ScenarioReport) -> BenchScenario {
    BenchScenario {
        name,
        events: r.result.events_processed,
        fingerprint: crate::runner::result_fingerprint(&r.result),
        counter_fingerprint: r.result.obs.sim_fingerprint(),
    }
}

/// Renders a `BENCH_netsim.json` document: one scenario per line, every
/// count and fingerprint a decimal integer.
pub fn render_json(run: &BenchRun) -> String {
    let rows: Vec<String> = run
        .scenarios
        .iter()
        .map(|sc| {
            format!(
                "    {{\"name\": \"{}\", \"events\": {}, \"fingerprint\": {}, \
                 \"counter_fingerprint\": {}}}",
                sc.name, sc.events, sc.fingerprint, sc.counter_fingerprint
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"size\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        run.size,
        rows.join(",\n")
    )
}

/// The number after `"key":` in a JSON fragment (first match), read as
/// `u64` for a fingerprint: all 64 bits are used, which no `f64` holds.
fn number<T: std::str::FromStr>(json: &str, key: &str) -> Option<T> {
    let needle = format!("\"{key}\":");
    let rest = json[json.find(&needle)? + needle.len()..].trim_start();
    let digits = rest
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()?;
    digits.parse().ok()
}

/// Parses a document [`render_json`] wrote. Anything but the v4 schema
/// — the older ones carried wall-clock sections — is refused with the
/// command that regenerates the file.
fn parse_json(json: &str) -> Result<BenchRun, String> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!(
            "not an {SCHEMA} file; regenerate it with \
             `iqrudp --no-timing bench 1.0 --out BENCH_netsim.json`"
        ));
    }
    let size = number(json, "size").ok_or("no `size`")?;
    let mut scenarios = Vec::new();
    for line in json.lines() {
        let Some(name) = line
            .split("\"name\": \"")
            .nth(1)
            .and_then(|r| r.split('"').next())
        else {
            continue;
        };
        let field = |key| number(line, key).ok_or_else(|| format!("`{name}`: no `{key}`"));
        scenarios.push(BenchScenario {
            name: name.to_string(),
            events: field("events")?,
            fingerprint: field("fingerprint")?,
            counter_fingerprint: field("counter_fingerprint")?,
        });
    }
    Ok(BenchRun { size, scenarios })
}

/// Names `got` and each output on which it differs from `want`, the row
/// it must reproduce (`whose` says where that one came from); `None`
/// when the two agree.
fn disagreement(got: &BenchScenario, want: &BenchScenario, whose: &str) -> Option<String> {
    let diffs: Vec<String> = [
        ("events", got.events, want.events),
        ("fingerprint", got.fingerprint, want.fingerprint),
        (
            "counter_fingerprint",
            got.counter_fingerprint,
            want.counter_fingerprint,
        ),
    ]
    .iter()
    .filter(|(_, got, want)| got != want)
    .map(|(field, got, want)| format!("{field} {got} ({whose} {want})"))
    .collect();
    (!diffs.is_empty()).then(|| format!("`{}`: {}", got.name, diffs.join(", ")))
}

/// One message per disagreement between the run and a reference. The
/// workloads depend on the sweep size, so another size is itself one.
/// Every scenario that ran must be in the reference; unless the run was
/// a `subset` (`--only`), the reference must also hold nothing else, in
/// the same order — a renamed or dropped scenario compares, and fails.
fn drift(run: &BenchRun, reference: &BenchRun, subset: bool) -> Vec<String> {
    if run.size != reference.size {
        return vec![format!(
            "size {} (committed {}): another size is another workload",
            run.size, reference.size
        )];
    }
    let mut drifted = Vec::new();
    for now in &run.scenarios {
        match reference.scenarios.iter().find(|r| r.name == now.name) {
            Some(want) => drifted.extend(disagreement(now, want, "committed")),
            None => drifted.push(format!("`{}`: not in the reference", now.name)),
        }
    }
    if !subset {
        let ran = |name: &String| run.scenarios.iter().any(|s| &s.name == name);
        for want in reference.scenarios.iter().filter(|w| !ran(&w.name)) {
            drifted.push(format!(
                "`{}`: in the reference, not in this run",
                want.name
            ));
        }
        let names = |r: &BenchRun| {
            r.scenarios
                .iter()
                .map(|s| s.name.clone())
                .collect::<Vec<_>>()
        };
        if drifted.is_empty() && names(run) != names(reference) {
            drifted.push("scenarios are not in the reference's order".to_string());
        }
    }
    drifted
}

/// Runs the sweep on `exec`, compares it with `check_path` when that is
/// set and writes it to `out_path` when that is (a run that failed a
/// check is not written). After the sweep `mega_flows` is re-run alone
/// at 1, 2, 4 and 8 shard threads — four executors that differ from
/// `exec` in that — and recorded as `mega_flows_shardsN`:
/// determinism across thread counts is a hard property, not a perf
/// budget, so every curve entry must reproduce the 1-thread one exactly.
///
/// `Err` carries the process exit code and a human-readable message: 2
/// for an `only` the sweep has no scenario of (nothing has run), 1 when
/// a check fails or a file cannot be read or written.
pub fn bench_main(exec: &Executor, opts: &BenchOptions) -> Result<BenchRun, (i32, String)> {
    let mut specs = bench_specs(opts.size);
    if let Some(only) = &opts.only {
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        specs.retain(|s| &s.name == only);
        if specs.is_empty() {
            let available = names.join(", ");
            return Err((
                2,
                format!("no scenario named `{only}` (available: {available})"),
            ));
        }
    }
    let mut scenarios: Vec<BenchScenario> = exec
        .run(&specs)
        .iter()
        .map(|r| to_bench_scenario(r.name.clone(), r))
        .collect();
    if let Some(mega) = specs.iter().find(|s| s.name == "mega_flows") {
        // One run at a time, so the curve entries never contend with
        // each other for cores.
        let curve = scenarios.len();
        for n in [1usize, 2, 4, 8] {
            let mut at_n = exec.clone();
            at_n.config.threads = n;
            let reports = at_n.run(std::slice::from_ref(mega));
            scenarios.push(to_bench_scenario(
                format!("mega_flows_shards{n}"),
                &reports[0],
            ));
        }
        let first = &scenarios[curve];
        for s in &scenarios[curve + 1..] {
            if let Some(d) = disagreement(s, first, &first.name) {
                return Err((1, format!("shard determinism violation: {d}")));
            }
        }
        eprintln!(
            "bench check: 2, 4 and 8 shard threads reproduce `{}` — ok",
            first.name
        );
    }
    let run = BenchRun {
        size: opts.size.0,
        scenarios,
    };
    if let Some(path) = &opts.check_path {
        let committed =
            std::fs::read_to_string(path).map_err(|e| (1, format!("cannot read {path}: {e}")))?;
        let reference = parse_json(&committed).map_err(|e| (1, format!("{path}: {e}")))?;
        let drifted = drift(&run, &reference, opts.only.is_some());
        if !drifted.is_empty() {
            return Err((
                1,
                format!("results drifted from {path}:\n  {}", drifted.join("\n  ")),
            ));
        }
        eprintln!(
            "bench check: {} scenario(s) reproduce the committed events and fingerprints — ok",
            run.scenarios.len()
        );
    }
    if let Some(path) = &opts.out_path {
        std::fs::write(path, render_json(&run))
            .map_err(|e| (1, format!("cannot write {path}: {e}")))?;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(name: &str, fingerprint: u64) -> BenchScenario {
        BenchScenario {
            name: name.into(),
            events: 100,
            // Past 2^53: an f64 round trip would not tell these apart.
            fingerprint,
            counter_fingerprint: u64::MAX - 1,
        }
    }

    fn run(scenarios: Vec<BenchScenario>, size: f64) -> BenchRun {
        BenchRun { size, scenarios }
    }

    #[test]
    fn v4_render_parse_round_trip() {
        let written = run(
            vec![scenario("a", u64::MAX), scenario("b", (1 << 53) + 1)],
            0.25,
        );
        let doc = render_json(&written);
        assert!(doc.contains("\"schema\": \"iq-bench-netsim/v4\""));
        assert_eq!(doc.lines().count(), written.scenarios.len() + 6);
        assert_eq!(parse_json(&doc), Ok(written));

        // The older schemas carried wall-clock sections; no reader is kept.
        let v3 = doc.replace("netsim/v4", "netsim/v3");
        let err = parse_json(&v3).unwrap_err();
        assert!(err.contains("bench 1.0 --out BENCH_netsim.json"), "{err}");
        // A row that lost a field names the scenario and the field.
        let err =
            parse_json(&doc.replace("\"events\": 100, \"fingerprint\": 9", "\"fingerprint\": 9"));
        assert_eq!(err, Err("`b`: no `events`".to_string()));
    }

    #[test]
    fn committed_reference_is_the_full_sweep() {
        let committed = parse_json(include_str!("../../../BENCH_netsim.json")).expect("v4 file");
        assert_eq!(committed.size, 1.0);
        let mut names: Vec<String> = bench_specs(Size::FULL)
            .into_iter()
            .map(|s| s.name)
            .collect();
        names.extend([1, 2, 4, 8].map(|n| format!("mega_flows_shards{n}")));
        let got: Vec<&str> = committed
            .scenarios
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(got, names);
        let curve = &committed.scenarios[committed.scenarios.len() - 4..];
        for s in &curve[1..] {
            assert_eq!(disagreement(s, &curve[0], "1 thread"), None);
        }
    }

    #[test]
    fn check_names_each_scenario_whose_results_drifted() {
        let committed = run(vec![scenario("a", u64::MAX), scenario("b", 7)], 1.0);
        assert!(drift(&committed, &committed, false).is_empty());

        // `a` off by one in the last bit, `b` gone, `c` new: each is named.
        let now = run(vec![scenario("a", u64::MAX - 1), scenario("c", 9)], 1.0);
        let drifted = drift(&now, &committed, false);
        assert_eq!(drifted.len(), 3, "{drifted:?}");
        assert!(drifted[0].starts_with("`a`: fingerprint 18446744073709551614 (committed"));
        assert_eq!(drifted[1], "`c`: not in the reference");
        assert_eq!(drifted[2], "`b`: in the reference, not in this run");

        // The same scenarios in another order are not the same sweep.
        let swapped = run(vec![scenario("b", 7), scenario("a", u64::MAX)], 1.0);
        let drifted = drift(&swapped, &committed, false);
        assert_eq!(drifted, ["scenarios are not in the reference's order"]);

        // Another sweep size is another workload: an error, not a pass.
        let resized = run(vec![scenario("a", u64::MAX), scenario("b", 7)], 0.5);
        let drifted = drift(&resized, &committed, false);
        assert_eq!(drifted.len(), 1, "{drifted:?}");
        assert!(
            drifted[0].starts_with("size 0.5 (committed 1)"),
            "{drifted:?}"
        );

        // `--only b`: the rest of the reference may go unrun, but `b`
        // must be there.
        let only_b = run(vec![scenario("b", 7)], 1.0);
        assert!(drift(&only_b, &committed, true).is_empty());
        assert_eq!(drift(&only_b, &committed, false).len(), 1);
        let drifted = drift(&run(vec![scenario("c", 9)], 1.0), &committed, true);
        assert_eq!(drifted, ["`c`: not in the reference"]);
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
