//! Ad-hoc diagnostics for experiment calibration: prints one row per
//! scheme with the transport- and coordination-level counters that the
//! rendered tables hide. Usage:
//!
//! ```text
//! diag t5 0.3              # table 5 at 0.3 scale
//! diag avg7 0.3 8          # table 7 averaged over 8 seeds
//! diag -j 4 t5 0.3         # same, on 4 worker threads
//! ```
//!
//! The runner flags are `iqrudp`'s (`Executor::from_args`): `-j N`,
//! `--shards N`, `--verify-determinism`, `--no-timing`, `--telemetry
//! DIR`, `--metrics DIR`.

use iq_experiments::tables::*;
use iq_experiments::Executor;

fn main() {
    let (exec, args) = Executor::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let exec = &exec;
    let which = args.first().cloned().unwrap_or_else(|| "t5".into());
    let size = Size(args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.3));
    let rows = if let Some(n) = which.strip_prefix("avg") {
        let seeds: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
        let scens = match n {
            "5" => table5_scenarios(size),
            "6" => table6_scenarios(size),
            "7" => table7_scenarios(size),
            "8" => table8_scenarios(size),
            _ => panic!("unknown avg table"),
        };
        exec.run_averaged(&scens, seeds)
    } else {
        match which.as_str() {
            "t1" => run_table1(exec, size),
            "t2" => run_table2(exec, size),
            "t3" => run_table3(exec, size),
            "t4" => run_table4(exec, size),
            "t5" => run_table5(exec, size),
            "t6" => run_table6(exec, size),
            "t7" => run_table7(exec, size),
            "t8" => run_table8(exec, size),
            _ => panic!("unknown table"),
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
