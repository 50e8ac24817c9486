//! Regenerates every table and figure of the IQ-RUDP paper.
//!
//! ```text
//! cargo run --release --example paper_tables            # full scale
//! cargo run --release --example paper_tables -- 0.3     # scaled down
//! cargo run --release --example paper_tables -- 1.0 t3  # one table
//! ```
//!
//! Absolute numbers differ from the paper's EMULAB testbed; the
//! comparisons (who wins, by roughly what factor) are the reproduction
//! target. See EXPERIMENTS.md for the paper-vs-measured record.

use iq_experiments::figures::{figure1, figure4_from_rows, figures_2_3, render_figure4};
use iq_metrics::{bar_chart, line_plot, PlotConfig};
use iq_experiments::tables::{
    render_table1, render_table2, render_table3, render_table4, render_table5, render_table6,
    render_table7, render_table8, run_table1, run_table2, run_table3, run_table4, run_table5,
    run_table6, run_table7, run_table8, Size,
};
use iq_experiments::Executor;

fn main() {
    iq_experiments::tune_allocator();
    // The runner flags are `iqrudp`'s and may stand anywhere, so
    // `paper_tables -- -j 4 1.0 t3` works. Output on stdout is
    // byte-identical for any worker count; the timing report goes to
    // stderr (`--no-timing` drops it).
    let (exec, args) = Executor::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let exec = &exec;
    let size = Size(args.first().and_then(|s| s.parse().ok()).unwrap_or(1.0));
    let only: Option<&str> = args.get(1).map(|s| s.as_str());
    let want = |k: &str| only.is_none() || only == Some(k);

    let figdir = std::path::Path::new("figures");
    let save = |name: &str, svg: String| {
        if std::fs::create_dir_all(figdir).is_ok() {
            let path = figdir.join(name);
            if std::fs::write(&path, svg).is_ok() {
                println!("   -> wrote {}", path.display());
            }
        }
    };
    if want("f1") {
        let f1 = figure1();
        println!(
            "== Figure 1: Membership dynamics == ({} frames, group size min {} max {}; \
             first 10: {:?})",
            f1.len(),
            f1.values().fold(f64::INFINITY, f64::min),
            f1.values().fold(0.0, f64::max),
            f1.points.iter().take(10).map(|&(_, v)| v as u32).collect::<Vec<_>>()
        );
        save(
            "figure1_membership_dynamics.svg",
            line_plot(
                &PlotConfig::new("Figure 1: Membership dynamics", "frame", "group size"),
                &[("audience", &f1)],
            ),
        );
        println!();
    }
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
    let mut t6_rows = None;
    if want("t6") || want("f4") {
        let rows = run_table6(exec, size);
        if want("t6") {
            println!("{}", render_table6(&rows));
        }
        t6_rows = Some(rows);
    }
    if want("t7") {
        println!("{}", render_table7(&run_table7(exec, size)));
    }
    if want("t8") {
        println!("{}", render_table8(&run_table8(exec, size)));
    }
    if want("f23") {
        let (iq, rudp) = figures_2_3(exec, size);
        println!(
            "== Figures 2/3: per-packet delay jitter == IQ-RUDP: {} samples, mean {:.2} ms, \
             peak {:.2} ms | RUDP: {} samples, mean {:.2} ms, peak {:.2} ms",
            iq.len(),
            iq.mean(),
            iq.values().fold(0.0, f64::max),
            rudp.len(),
            rudp.mean(),
            rudp.values().fold(0.0, f64::max),
        );
        save(
            "figure2_jitter_iqrudp.svg",
            line_plot(
                &PlotConfig::new("Figure 2: Delay jitter - IQ-RUDP", "packet", "jitter (ms)"),
                &[("IQ-RUDP", &iq)],
            ),
        );
        save(
            "figure3_jitter_rudp.svg",
            line_plot(
                &PlotConfig::new("Figure 3: Delay jitter - RUDP", "packet", "jitter (ms)"),
                &[("RUDP", &rudp)],
            ),
        );
        println!();
    }
    if want("f4") {
        if let Some(rows) = &t6_rows {
            let points = figure4_from_rows(rows);
            println!("{}", render_figure4(&points));
            let labels: Vec<String> = points
                .iter()
                .map(|p| format!("{:.0} Mb", p.iperf_bps / 1e6))
                .collect();
            save(
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
            );
        }
    }
}
