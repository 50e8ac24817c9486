//! The repo benchmark's harness. `run.sh` builds and runs it; see
//! `README.md` beside it and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! iq-benchmark [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//!              [--workload NAME] [--sets N] [--out FILE] [--append]
//! iq-benchmark compare A.json B.json
//! iq-benchmark manifest
//! ```
//!
//! With `--workload` (and no `--sets`) the workload is measured in this
//! process — the form the driver calls, one fresh process per run.
//! Otherwise every workload (or the one named) runs in a fresh child
//! process of its own, one after another.

mod checks;
mod drives;
mod host;
mod json;
mod measure;
mod names;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "usage: run.sh [--seed N] [--workload NAME] [--seconds S] [--trace [0|1]] \
[--quick] [--sets N] [--out FILE] [--append]\n       run.sh compare A.json B.json\n       \
run.sh manifest\nworkloads: paper_sweep mega_serial mega_sharded mc_explore";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    sets: Option<u32>,
    out_dir: PathBuf,
    out: Option<PathBuf>,
    append: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        sets: None,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
        append: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("no workload `{name}`"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
                parsed.seconds = Some(s);
            }
            "--sets" => {
                let n: u32 = value("a number")?
                    .parse()
                    .map_err(|_| "--sets needs a whole number".to_string())?;
                if !(1..=64).contains(&n) {
                    return Err("--sets must be between 1 and 64".into());
                }
                parsed.sets = Some(n);
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value("a directory")?),
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            "--append" => parsed.append = true,
            "--quick" => parsed.quick = true,
            // The driver writes `--trace 0` or `--trace 1`; by hand the
            // bare flag is enough.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", names::manifest().to_pretty());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return match report::compare(a.as_ref(), b.as_ref()) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(why) => {
                    eprintln!("compare: {why}");
                    ExitCode::from(2)
                }
            };
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        0.3
    } else {
        names::RUN_SECONDS as f64
    });

    if let (Some(workload), None) = (args.workload, args.sets) {
        let opts = measure::Options {
            workload,
            seed: args.seed,
            seconds,
            trace: args.trace,
            quick: args.quick,
            out_dir: args.out_dir,
        };
        let host = host::HostInfo::read();
        let outcome = measure::run(&opts);
        report::print_run(&opts, &host, &outcome);
        return if outcome.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let failures = report::pass(&report::PassOptions {
        workloads: args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
        sets: args.sets.unwrap_or(1),
        out: args
            .out
            .unwrap_or_else(|| args.out_dir.join("results.json")),
        out_dir: args.out_dir,
        append: args.append,
    });
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
