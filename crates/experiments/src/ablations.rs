//! Ablation studies of the design choices behind IQ-RUDP, beyond the
//! paper's own tables:
//!
//! 1. **Measuring period** — the cadence of metrics/callbacks trades
//!    reaction speed against burst noise (§2.1's "measuring period" is
//!    never swept in the paper).
//! 2. **Adaptation policy** — the three application adaptations of
//!    §2.3.2 (frequency, resolution, reliability) on one workload.
//! 3. **Receiver loss tolerance** — how much reliability the §3.3
//!    scheme actually trades for timeliness.

use iq_metrics::{fmt, Table};
use iq_netsim::time;

use crate::runner::Executor;
use crate::scenario::{PolicySpec, RunResult, Scenario, Scheme};
use crate::tables::Size;

/// Ablation 1: sweep the transport's measuring period on the §3.4
/// over-reaction workload. Returns `(period_ms, iq, rudp)` triples.
pub fn ablation_measure_period(exec: &Executor, size: Size) -> Vec<(u64, RunResult, RunResult)> {
    let periods_ms = [50u64, 100, 200, 400];
    let mut scenarios = Vec::new();
    for &p in &periods_ms {
        for scheme in [Scheme::Coordinated, Scheme::Uncoordinated] {
            let mut sc = Scenario::new(
                scheme,
                PolicySpec::Resolution,
                vec![1400; size.frames(2000)],
            );
            sc.fps = Some(60.0);
            sc.datagram_mode = true;
            sc.thresholds = (Some(0.15), Some(0.01));
            sc.measure_period = Some(time::millis(p));
            sc.cross.cbr_bps = Some(14e6);
            sc.deadline_s = 600.0;
            scenarios.push(sc);
        }
    }
    let rows = exec.run_scenarios(&scenarios);
    periods_ms
        .iter()
        .zip(rows.chunks(2))
        .map(|(&p, pair)| (p, pair[0].clone(), pair[1].clone()))
        .collect()
}

/// Renders ablation 1.
pub fn render_measure_period(rows: &[(u64, RunResult, RunResult)]) -> String {
    let mut t = Table::new(
        "Ablation: measuring period (over-reaction workload)",
        &[
            "Period(ms)",
            "IQ tp(KB/s)",
            "RUDP tp",
            "IQ jitter(ms)",
            "RUDP jitter",
        ],
    );
    for (p, iq, rudp) in rows {
        t.row(&[
            p.to_string(),
            fmt(iq.throughput_kbps, 1),
            fmt(rudp.throughput_kbps, 1),
            fmt(iq.jitter_s * 1e3, 2),
            fmt(rudp.jitter_s * 1e3, 2),
        ]);
    }
    t.render()
}

/// Ablation 2: the three application adaptation dimensions of §2.3.2 on
/// one congested rate-based workload, all coordinated. Returns
/// `(label, result)` pairs (plus a no-adaptation control).
pub fn ablation_policies(exec: &Executor, size: Size) -> Vec<(&'static str, RunResult)> {
    let specs: [(&'static str, PolicySpec); 4] = [
        ("none", PolicySpec::None),
        ("frequency", PolicySpec::Frequency),
        ("resolution", PolicySpec::Resolution),
        ("reliability (marking)", PolicySpec::Marking),
    ];
    let scenarios: Vec<Scenario> = specs
        .iter()
        .map(|&(_, policy)| {
            let mut sc = Scenario::new(
                Scheme::Coordinated,
                policy,
                vec![1400; size.frames(2000)],
            );
            sc.fps = Some(80.0);
            sc.datagram_mode = true;
            sc.loss_tolerance = 0.40;
            sc.thresholds = (Some(0.10), Some(0.02));
            sc.cross.cbr_bps = Some(15e6);
            sc.deadline_s = 600.0;
            sc
        })
        .collect();
    let rows = exec.run_scenarios(&scenarios);
    specs
        .iter()
        .zip(rows)
        .map(|(&(label, _), r)| (label, r))
        .collect()
}

/// Renders ablation 2.
pub fn render_policies(rows: &[(&'static str, RunResult)]) -> String {
    let mut t = Table::new(
        "Ablation: adaptation dimension (coordinated, same workload)",
        &[
            "Policy",
            "Duration(s)",
            "Thpt(KB/s)",
            "Delivered(%)",
            "Jitter(ms)",
        ],
    );
    for (label, r) in rows {
        t.row(&[
            label.to_string(),
            fmt(r.duration_s, 1),
            fmt(r.throughput_kbps, 1),
            fmt(r.delivered_pct, 1),
            fmt(r.jitter_s * 1e3, 2),
        ]);
    }
    t.render()
}

/// Ablation 3: sweep the receiver's loss tolerance on the §3.3
/// reliability workload. Returns `(tolerance, result)` pairs.
pub fn ablation_tolerance(exec: &Executor, size: Size) -> Vec<(f64, RunResult)> {
    let tolerances = [0.0, 0.2, 0.4, 0.6];
    let scenarios: Vec<Scenario> = tolerances
        .iter()
        .map(|&tol| {
            let mut sc = Scenario::new(
                Scheme::Coordinated,
                PolicySpec::Marking,
                vec![1400; size.frames(3000)],
            );
            sc.fps = Some(100.0);
            sc.datagram_mode = true;
            sc.loss_tolerance = tol;
            sc.thresholds = (Some(0.10), Some(0.02));
            sc.min_lower_gap_s = 1.5;
            sc.cross.cbr_bps = Some(12e6);
            sc.deadline_s = 600.0;
            sc
        })
        .collect();
    let rows = exec.run_scenarios(&scenarios);
    tolerances.iter().copied().zip(rows).collect()
}

/// Renders ablation 3.
pub fn render_tolerance(rows: &[(f64, RunResult)]) -> String {
    let mut t = Table::new(
        "Ablation: receiver loss tolerance (reliability workload)",
        &[
            "Tolerance",
            "Duration(s)",
            "Delivered(%)",
            "Tagged delay(ms)",
            "Tagged jitter(ms)",
        ],
    );
    for (tol, r) in rows {
        t.row(&[
            format!("{tol:.1}"),
            fmt(r.duration_s, 1),
            fmt(r.delivered_pct, 1),
            fmt(r.tagged_delay_ms, 2),
            fmt(r.tagged_jitter_ms, 2),
        ]);
    }
    t.render()
}

/// Ablation 4: drop-tail vs RED at the bottleneck, on the §3.4
/// over-reaction workload, for both schemes. RED's early signalling
/// spreads losses out, which interacts with the error-ratio thresholds
/// the whole coordination machinery keys off.
pub fn ablation_queue_discipline(
    exec: &Executor,
    size: Size,
) -> Vec<(&'static str, RunResult, RunResult)> {
    let mut out = Vec::new();
    for (label, red) in [("drop-tail", false), ("RED", true)] {
        let mut scenarios = Vec::new();
        for scheme in [Scheme::Coordinated, Scheme::Uncoordinated] {
            let mut sc = Scenario::new(
                scheme,
                PolicySpec::Resolution,
                vec![1400; size.frames(2000)],
            );
            sc.fps = Some(60.0);
            sc.datagram_mode = true;
            sc.thresholds = (Some(0.15), Some(0.01));
            sc.red_bottleneck = red;
            sc.cross.cbr_bps = Some(14e6);
            sc.deadline_s = 600.0;
            scenarios.push(sc);
        }
        let rows = exec.run_scenarios(&scenarios);
        out.push((label, rows[0].clone(), rows[1].clone()));
    }
    out
}

/// Renders ablation 4.
pub fn render_queue_discipline(rows: &[(&'static str, RunResult, RunResult)]) -> String {
    let mut t = Table::new(
        "Ablation: bottleneck queue discipline (over-reaction workload)",
        &[
            "Queue",
            "IQ tp(KB/s)",
            "RUDP tp",
            "IQ jitter(ms)",
            "RUDP jitter",
        ],
    );
    for (label, iq, rudp) in rows {
        t.row(&[
            label.to_string(),
            fmt(iq.throughput_kbps, 1),
            fmt(rudp.throughput_kbps, 1),
            fmt(iq.jitter_s * 1e3, 2),
            fmt(rudp.jitter_s * 1e3, 2),
        ]);
    }
    t.render()
}

/// Runs all ablations and returns the rendered report.
pub fn run_all_ablations(exec: &Executor, size: Size) -> String {
    let mut out = String::new();
    out.push_str(&render_measure_period(&ablation_measure_period(exec, size)));
    out.push('\n');
    out.push_str(&render_policies(&ablation_policies(exec, size)));
    out.push('\n');
    out.push_str(&render_tolerance(&ablation_tolerance(exec, size)));
    out.push('\n');
    out.push_str(&render_queue_discipline(&ablation_queue_discipline(exec, size)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_period_sweep_shapes() {
        let rows = ablation_measure_period(&Executor::new(0), Size(0.05));
        assert_eq!(rows.len(), 4);
        for (_, iq, rudp) in &rows {
            assert!(iq.finished && rudp.finished);
        }
        let s = render_measure_period(&rows);
        assert_eq!(s.lines().count(), 3 + 4);
    }

    #[test]
    fn policy_ablation_covers_all_dimensions() {
        let rows = ablation_policies(&Executor::new(0), Size(0.05));
        assert_eq!(rows.len(), 4);
        // Reliability is the only policy allowed to drop messages.
        for (label, r) in &rows {
            assert!(r.finished, "{label} did not finish");
            if *label != "reliability (marking)" {
                assert!(
                    r.delivered_pct > 99.0,
                    "{label} dropped messages: {}",
                    r.delivered_pct
                );
            }
        }
    }

    #[test]
    fn queue_discipline_ablation_runs_both_disciplines() {
        let rows = ablation_queue_discipline(&Executor::new(0), Size(0.05));
        assert_eq!(rows.len(), 2);
        for (label, iq, rudp) in &rows {
            assert!(iq.finished && rudp.finished, "{label} did not finish");
        }
    }

    #[test]
    fn tolerance_zero_delivers_everything() {
        let rows = ablation_tolerance(&Executor::new(0), Size(0.05));
        assert_eq!(rows.len(), 4);
        let (tol0, r0) = &rows[0];
        assert_eq!(*tol0, 0.0);
        assert!(r0.finished);
        assert!(r0.delivered_pct > 99.9, "tolerance 0 lost data");
        // Delivered fraction is non-increasing in tolerance (weakly).
        for pair in rows.windows(2) {
            assert!(pair[1].1.delivered_pct <= pair[0].1.delivered_pct + 3.0);
        }
    }
}
