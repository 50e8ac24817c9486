//! What the harness prints and writes, and what it does with results
//! it reads back: the per-run output of a workload process, the pass
//! over all workloads (`run.sh` without `--workload`), the `--sets`
//! noise self-test, and `compare A.json B.json`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::host::HostInfo;
use crate::json::{self, obj, Json};
use crate::measure::{Options, Outcome};
use crate::names::{self, Better};
use crate::stats::summarize;
use crate::workloads::Workload;

/// Prefix of the output line that carries a run's detail object to the
/// parent process; the last line is the driver's and holds exactly the
/// keys its contract names.
const DETAIL_PREFIX: &str = "#detail ";

fn host_json(host: &HostInfo) -> Json {
    obj([
        ("nproc", (host.nproc as u64).into()),
        ("cpu_model", host.cpu_model.as_str().into()),
        ("kernel", host.kernel.as_str().into()),
        ("loadavg_at_start", host.loadavg.as_str().into()),
    ])
}

fn print_host(host: &HostInfo) {
    println!(
        "# host: nproc={} cpu=\"{}\" kernel={} loadavg=\"{}\"",
        host.nproc, host.cpu_model, host.kernel, host.loadavg
    );
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{v:.4e}")
    }
}

/// Prints one workload's run: every metric by name with its unit, the
/// repetition quartiles beside the timings, digests and exact counts,
/// and as the last line the driver's JSON object.
pub fn print_run(opts: &Options, host: &HostInfo, outcome: &Outcome) {
    println!(
        "# iq-benchmark workload={} seed={} seconds={} trace={} comparable={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        !opts.quick
    );
    print_host(host);
    let d = &outcome.detail;
    let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let workers = num(d.get("workers"));
    if opts.workload == Workload::MegaSharded && workers < 2.0 {
        println!(
            "# DEGENERATE HOST: one core, so the worker pool runs inline and this is mega_serial"
        );
    }
    for key in ["rep_wall_s", "rep_cpu_s", "setup_s"] {
        let s = d.get(key);
        let f = |k: &str| fmt_value(num(s.and_then(|s| s.get(k))));
        println!(
            "# {key}: n={} median={} q1={} q3={} min={} max={} (no percentile above the median has ten samples beyond it)",
            f("n"), f("median"), f("q1"), f("q3"), f("min"), f("max")
        );
    }
    println!(
        "# floor of a repetition (per operation the fastest sample, summed): wall {} s, CPU {} s",
        fmt_value(num(d.get("floor_rep_wall_s"))),
        fmt_value(num(d.get("floor_rep_cpu_s")))
    );
    println!(
        "# warm-ups={} (never timed; the first took {} s) workers={} items/repetition={} VmHWM={} bytes",
        num(d.get("warmups")),
        fmt_value(num(d.get("cold_rep_s"))),
        workers,
        num(d.get("items_per_rep")),
        num(d.get("peak_rss_bytes"))
    );
    for (section, label) in [("digests", "digest"), ("exact_counts", "count")] {
        for (k, v) in d.get(section).and_then(Json::as_obj).unwrap_or_default() {
            let shown = v
                .as_str()
                .map_or_else(|| fmt_value(num(Some(v))), str::to_string);
            println!("# {label} {k} {shown}");
        }
    }
    for (def, value) in &outcome.metrics {
        let bound = names::bound(def.name)
            .map(|b| format!(", may worsen {:.0} %", 100.0 * b))
            .unwrap_or_default();
        match value {
            Some(v) => println!(
                "{:<44} {:>14} {:<9} ({} is better{bound})",
                def.name,
                fmt_value(*v),
                def.unit,
                def.better.as_str()
            ),
            None => println!(
                "# {:<42} does not apply to {}",
                def.name,
                opts.workload.name()
            ),
        }
    }
    println!(
        "{:<44} {:>14} {:<9} ({} of {} operations failed)",
        "failed_share",
        fmt_value(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        "share",
        outcome.failed,
        outcome.attempted
    );
    for failure in &outcome.failures {
        println!("# FAILED {failure}");
    }
    println!("{DETAIL_PREFIX}{}", outcome.detail.to_line());
    // The driver's contract wants every declared metric on this line;
    // one that does not apply to the workload reads 0 here and is left
    // out of results.json.
    let metrics = outcome
        .metrics
        .iter()
        .map(|(def, v)| {
            (
                def.name.to_string(),
                obj([
                    ("value", v.unwrap_or(0.0).into()),
                    ("unit", def.unit.into()),
                ]),
            )
        })
        .collect();
    let line = obj([
        ("correct", outcome.correct.into()),
        ("attempted", outcome.attempted.max(1).into()),
        ("failed", outcome.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.to_line());
}

/// Options of the pass over workloads.
#[derive(Debug, Clone)]
pub struct PassOptions {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub sets: u32,
    pub out_dir: PathBuf,
    /// Results file; runs are appended to an existing one with `append`.
    pub out: PathBuf,
    pub append: bool,
}

/// One child process's result, as kept in the results file.
fn run_child(
    opts: &PassOptions,
    workload: Workload,
    trace: bool,
    set: u32,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .stdout(Stdio::piped());
    if opts.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a workload process: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (mut detail, mut last) = (Json::Null, String::new());
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading a workload process: {e}"))?;
        if let Some(text) = line.strip_prefix(DETAIL_PREFIX) {
            detail = json::parse(text)?;
        } else {
            if !line.starts_with('{') {
                println!("{line}");
            }
            last = line;
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a workload process: {e}"))?;
    let result =
        json::parse(&last).map_err(|e| format!("{}: no result line ({e})", workload.name()))?;
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    if !status.success() && correct {
        return Err(format!(
            "{}: the workload process exited with {status}",
            workload.name()
        ));
    }
    // The result line must carry exactly the declared names.
    let declared: Vec<&str> = if trace {
        names::PER_LAYER.iter().map(|def| def.name).collect()
    } else {
        names::END_TO_END.iter().map(|(def, _)| def.name).collect()
    };
    let printed: Vec<&str> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    if printed != declared {
        return Err(format!(
            "{}: the result line's metric names are not the declared ones",
            workload.name()
        ));
    }
    let Json::Obj(mut members) = result else {
        return Err(format!(
            "{}: the result line is not an object",
            workload.name()
        ));
    };
    // The result line reads 0 for a metric that does not apply to the
    // workload; the results file leaves such a metric out.
    let not_applicable = detail
        .get("not_applicable")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    for (key, value) in &mut members {
        if let (true, Json::Obj(metrics)) = (key == "metrics", value) {
            metrics.retain(|(name, _)| !not_applicable.iter().any(|n| n.as_str() == Some(name)));
        }
    }
    members.insert(0, ("workload".to_string(), workload.name().into()));
    members.insert(1, ("seed".to_string(), opts.seed.into()));
    members.insert(2, ("set".to_string(), u64::from(set).into()));
    members.insert(3, ("trace".to_string(), trace.into()));
    members.push(("detail".to_string(), detail));
    Ok(Json::Obj(members))
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn run_is(run: &Json, workload: &str, trace: bool) -> bool {
    run.get("workload").and_then(Json::as_str) == Some(workload)
        && run.get("trace").and_then(Json::as_bool) == Some(trace)
}

/// The untraced run of `workload` in set `set`.
fn untraced_run<'a>(runs: &'a [Json], workload: &str, set: u32) -> Option<&'a Json> {
    runs.iter().find(|r| {
        run_is(r, workload, false) && r.get("set").and_then(Json::as_f64) == Some(f64::from(set))
    })
}

/// Runs each workload in its own fresh child process, one after
/// another; prints, checks and writes the results file. Returns the
/// failures (empty when everything held).
pub fn pass(opts: &PassOptions) -> Vec<String> {
    let host = HostInfo::read();
    println!(
        "# iq-benchmark pass: seed={} seconds/run={} sets={} trace={} comparable={}",
        opts.seed,
        opts.seconds,
        opts.sets,
        u8::from(opts.trace),
        !opts.quick
    );
    print_host(&host);
    let mut failures = Vec::new();
    let mut runs = Vec::new();
    for set in 0..opts.sets {
        for trace in [false, true] {
            if trace && !opts.trace {
                continue;
            }
            for &workload in &opts.workloads {
                println!();
                match run_child(opts, workload, trace, set) {
                    Ok(run) => {
                        if run.get("correct").and_then(Json::as_bool) != Some(true) {
                            failures.push(format!(
                                "{} (set {set}): a correctness check failed",
                                workload.name()
                            ));
                        }
                        runs.push(run);
                    }
                    Err(why) => failures.push(why),
                }
            }
        }
    }

    // The two mega workloads simulate the same world.
    for set in 0..opts.sets {
        let digest = |workload: &str| {
            untraced_run(&runs, workload, set)?
                .get("detail")?
                .get("digests")?
                .get("mega")?
                .as_str()
        };
        if let (Some(a), Some(b)) = (digest("mega_serial"), digest("mega_sharded")) {
            if a == b {
                println!("\n# mega_serial and mega_sharded report the same result digest {a}");
            } else {
                failures.push(format!(
                    "mega_serial digest {a} != mega_sharded digest {b} (set {set})"
                ));
            }
        }
    }
    if opts.sets > 1 {
        // Smoke sizes run for fractions of a second: their timings are
        // printed but bind nothing. Exact counts and digests always do.
        failures.extend(sets_disagreements(&runs, opts.sets, !opts.quick));
    }

    println!("\n# summary (untraced runs, set 0)");
    for (def, bound) in names::END_TO_END {
        for &workload in &opts.workloads {
            let value =
                untraced_run(&runs, workload.name(), 0).and_then(|r| metric_value(r, def.name));
            if let Some(v) = value {
                println!(
                    "{:<14} {:<18} {:>14} {:<6} ({} is better, may worsen {:.0} %)",
                    workload.name(),
                    def.name,
                    fmt_value(v),
                    def.unit,
                    def.better.as_str(),
                    100.0 * bound
                );
            }
        }
    }

    let mut all_runs = Vec::new();
    if opts.append {
        if let Ok(text) = std::fs::read_to_string(&opts.out) {
            match json::parse(&text) {
                Ok(old) => all_runs.extend(
                    old.get("runs")
                        .and_then(Json::as_arr)
                        .unwrap_or_default()
                        .iter()
                        .cloned(),
                ),
                Err(why) => failures.push(format!("{}: {why}", opts.out.display())),
            }
        }
    }
    all_runs.extend(runs);
    let doc = obj([
        ("schema", "iq-benchmark/v1".into()),
        ("comparable", (!opts.quick).into()),
        ("seed", opts.seed.into()),
        ("seconds_per_run", opts.seconds.into()),
        ("host", host_json(&host)),
        ("runs", Json::Arr(all_runs)),
    ]);
    let written = opts
        .out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&opts.out, doc.to_pretty()));
    match written {
        Ok(()) => println!("# wrote {}", opts.out.display()),
        Err(e) => failures.push(format!("cannot write {}: {e}", opts.out.display())),
    }
    for failure in &failures {
        println!("# FAILED {failure}");
    }
    failures
}

/// The noise self-test: two sets of runs of the same code must agree on
/// every end-to-end metric within its bound (where `metrics_bind`), and
/// on every exact count and digest exactly.
fn sets_disagreements(runs: &[Json], sets: u32, metrics_bind: bool) -> Vec<String> {
    let mut out = Vec::new();
    for workload in Workload::ALL.map(Workload::name) {
        let Some(first) = untraced_run(runs, workload, 0) else {
            continue;
        };
        for set in 1..sets {
            let Some(other) = untraced_run(runs, workload, set) else {
                continue;
            };
            for (def, bound) in names::END_TO_END {
                let (Some(a), Some(b)) =
                    (metric_value(first, def.name), metric_value(other, def.name))
                else {
                    continue;
                };
                let apart = (a - b).abs() / a.min(b);
                let verdict = if apart <= bound { "agree" } else { "DISAGREE" };
                println!(
                    "# sets 0/{set} {workload:<14} {:<18} {} vs {}: {:.2} % apart, bound {:.0} % — {verdict}",
                    def.name,
                    fmt_value(a),
                    fmt_value(b),
                    100.0 * apart,
                    100.0 * bound
                );
                if apart > bound && metrics_bind {
                    out.push(format!(
                        "{workload} {}: sets 0 and {set} are {:.1} % apart, more than the {:.0} % bound",
                        def.name,
                        100.0 * apart,
                        100.0 * bound
                    ));
                }
            }
            for section in ["exact_counts", "digests"] {
                let read = |r: &Json| r.get("detail").and_then(|d| d.get(section)).cloned();
                if read(first) != read(other) {
                    out.push(format!(
                        "{workload}: {section} differ between sets 0 and {set}"
                    ));
                }
            }
        }
    }
    out
}

/// The verdict on one metric of one workload between two revisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Worse,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// Judges `b` (the change) against `a` (the base), paired in order.
///
/// *Improved* needs the change to win at least nine tenths of the
/// pairs (ties count for neither) and the medians to differ by more
/// than the distance between the base's quartiles. *Worse* is a median
/// worse than the base's by more than `bound`. Otherwise, where either
/// side's quartile spread is wider than the bound the metric is
/// *unresolved*, unless every run of the change reads better than
/// every run of the base.
///
/// Returns the verdict and the pairs the change won.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, usize) {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (sa, sb) = (summarize(a), summarize(b));
    let pairs = a.len().min(b.len());
    let won = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
    let worse_by = match better {
        Better::Lower => (sb.median - sa.median) / sa.median,
        Better::Higher => (sa.median - sb.median) / sa.median,
    };
    let verdict = if beats(sb.median, sa.median)
        && won * 10 >= pairs * 9
        && (sb.median - sa.median).abs() > sa.q3 - sa.q1
    {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Worse
    } else if (sa.iqr_share() > bound || sb.iqr_share() > bound)
        && !b.iter().all(|&y| a.iter().all(|&x| beats(y, x)))
    {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, won)
}

fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{}: a --quick result is not comparable",
            path.display()
        ));
    }
    Ok(doc
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .to_vec())
}

/// `compare A.json B.json`: per workload and end-to-end metric, both
/// medians and quartiles, the ratio with its base, the share of pairs
/// won, and the verdict. Returns whether nothing got worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_runs, b_runs) = (load_runs(a_path)?, load_runs(b_path)?);
    println!(
        "# base A = {}, change B = {}",
        a_path.display(),
        b_path.display()
    );
    let mut nothing_worse = true;
    for workload in Workload::ALL.map(Workload::name) {
        for (def, bound) in names::END_TO_END {
            let values = |runs: &[Json]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| run_is(r, workload, false))
                    .filter_map(|r| metric_value(r, def.name))
                    .collect()
            };
            let (a, b) = (values(&a_runs), values(&b_runs));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (sa, sb) = (summarize(&a), summarize(&b));
            let (verdict, won) = judge(&a, &b, def.better, bound);
            nothing_worse &= verdict != Verdict::Worse;
            println!(
                "{workload:<14} {:<18} A {} [{}, {}]  B {} [{}, {}] {}  B/A {:.4} of {}  won {won}/{}  bound {:.0} %  {}",
                def.name,
                fmt_value(sa.median),
                fmt_value(sa.q1),
                fmt_value(sa.q3),
                fmt_value(sb.median),
                fmt_value(sb.q1),
                fmt_value(sb.q3),
                def.unit,
                sb.median / sa.median,
                fmt_value(sa.median),
                a.len().min(b.len()),
                100.0 * bound,
                verdict.as_str()
            );
        }
        let facts = |runs: &[Json]| {
            runs.iter()
                .find(|r| run_is(r, workload, false))
                .and_then(|r| r.get("detail"))
                .map(|d| (d.get("digests").cloned(), d.get("exact_counts").cloned()))
        };
        if let (Some(fa), Some(fb)) = (facts(&a_runs), facts(&b_runs)) {
            if fa != fb {
                println!(
                    "{workload:<14} simulated behaviour CHANGED between A and B (digests or exact counts differ)"
                );
            }
        }
    }
    Ok(nothing_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_follows_the_bounds_and_the_pair_rule() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(
            judge(&base, &faster, Better::Lower, 0.05),
            (Verdict::Improved, 10)
        );
        assert_eq!(judge(&base, &slower, Better::Lower, 0.05).0, Verdict::Worse);
        assert_eq!(
            judge(&base, &same, Better::Lower, 0.05).0,
            Verdict::Unchanged
        );
        // Direction matters.
        assert_eq!(
            judge(&base, &faster, Better::Higher, 0.05).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &slower, Better::Higher, 0.05).0,
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let base = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 7.0, 11.0, 10.0, 12.0];
        let change = [10.5, 13.0, 8.5, 12.5, 9.5, 12.0, 7.5, 11.5, 10.0, 12.5];
        assert_eq!(
            judge(&base, &change, Better::Lower, 0.05).0,
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the base.
        let all_better = [6.0, 6.5, 6.9, 6.2, 6.8, 6.1, 6.4, 6.6, 6.3, 6.7];
        assert_eq!(
            judge(&base, &all_better, Better::Lower, 0.05).0,
            Verdict::Improved
        );
        // A small gain that does not clear the base's own spread is not a gain.
        let slightly: Vec<f64> = base.iter().map(|v| v * 0.99).collect();
        assert_eq!(
            judge(&base, &slightly, Better::Lower, 0.5).0,
            Verdict::Unchanged
        );
    }

    #[test]
    fn sets_must_agree_within_bounds_and_exactly_on_counts() {
        let run = |set: u64, rate: f64, events: u64| {
            obj([
                ("workload", "paper_sweep".into()),
                ("set", set.into()),
                ("trace", false.into()),
                (
                    "metrics",
                    obj([(
                        "events_per_s",
                        obj([("value", rate.into()), ("unit", "1/s".into())]),
                    )]),
                ),
                (
                    "detail",
                    obj([
                        ("exact_counts", obj([("netsim.sim.events", events.into())])),
                        ("digests", obj([("bulk_rudp", "0x1".into())])),
                    ]),
                ),
            ])
        };
        assert!(sets_disagreements(&[run(0, 100.0, 5), run(1, 104.0, 5)], 2, true).is_empty());
        let apart = sets_disagreements(&[run(0, 100.0, 5), run(1, 130.0, 5)], 2, true);
        assert_eq!(apart.len(), 1);
        assert!(apart[0].contains("events_per_s"));
        assert!(sets_disagreements(&[run(0, 100.0, 5), run(1, 130.0, 5)], 2, false).is_empty());
        let counts = sets_disagreements(&[run(0, 100.0, 5), run(1, 100.0, 6)], 2, false);
        assert_eq!(
            counts,
            ["paper_sweep: exact_counts differ between sets 0 and 1"]
        );
    }

    #[test]
    fn values_print_compactly() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(1.5), "1.5");
        assert_eq!(fmt_value(12.0), "12");
        assert_eq!(fmt_value(29_412_345.6), "2.9412e7");
        assert_eq!(fmt_value(0.000_123_4), "1.2340e-4");
    }
}
