//! Ablation studies of the design choices behind IQ-RUDP, beyond the
//! paper's own tables, each one [`Experiment`] run once a row:
//!
//! 1. **Measuring period** — the cadence of metrics/callbacks trades
//!    reaction speed against burst noise (§2.1's "measuring period" is
//!    never swept in the paper).
//! 2. **Adaptation policy** — the three application adaptations of
//!    §2.3.2 (frequency, resolution, reliability) on one workload.
//! 3. **Receiver loss tolerance** — how much reliability the §3.3
//!    scheme actually trades for timeliness.
//! 4. **Queue discipline** — drop-tail vs RED at the bottleneck.

use iq_metrics::fmt;
use iq_netsim::time;

use crate::scenario::{PolicySpec, Scenario, Scheme};
use crate::tables::{
    conflict_scenario, group_label, label, overreaction_scenario, pairs, per_row, rows_at, Column,
    Experiment, Layout,
};

/// What `iqrudp ablations` runs and prints, in order.
pub const ABLATIONS: [Experiment; 4] = [MEASURE_PERIOD, POLICY, TOLERANCE, QUEUE];

/// IQ-RUDP's and RUDP's throughput and jitter side by side, from a
/// group of two rows.
const IQ_RUDP_COLUMNS: [Column; 4] = [
    ("IQ tp(KB/s)", |g| fmt(g[0].mean(|r| r.throughput_kbps), 1)),
    ("RUDP tp", |g| fmt(g[1].mean(|r| r.throughput_kbps), 1)),
    ("IQ jitter(ms)", |g| fmt(g[0].mean(|r| r.jitter_s) * 1e3, 2)),
    ("RUDP jitter", |g| fmt(g[1].mean(|r| r.jitter_s) * 1e3, 2)),
];

/// Ablation 1: the transport's measuring period swept on the §3.4
/// over-reaction workload, for both schemes.
const MEASURE_PERIOD: Experiment = Experiment {
    name: "period",
    rows: |size, seed| {
        let frames = vec![1400; size.frames(2000)];
        let periods_ms = [
            (50, ["50 / IQ-RUDP", "50 / RUDP"]),
            (100, ["100 / IQ-RUDP", "100 / RUDP"]),
            (200, ["200 / IQ-RUDP", "200 / RUDP"]),
            (400, ["400 / IQ-RUDP", "400 / RUDP"]),
        ];
        pairs(seed, &periods_ms, |&ms, scheme| {
            let mut sc = overreaction_scenario(&frames, scheme);
            sc.measure_period = Some(time::millis(ms));
            sc
        })
    },
    layouts: &[Layout {
        title: "Ablation: measuring period (over-reaction workload)",
        group: 2,
        columns: &[
            ("Period(ms)", group_label),
            IQ_RUDP_COLUMNS[0],
            IQ_RUDP_COLUMNS[1],
            IQ_RUDP_COLUMNS[2],
            IQ_RUDP_COLUMNS[3],
        ],
    }],
};

/// Ablation 2: the three application adaptation dimensions of §2.3.2
/// on one congested rate-based workload, all coordinated, plus a
/// no-adaptation control.
const POLICY: Experiment = Experiment {
    name: "policy",
    rows: |size, seed| {
        let policies = [
            ("none", PolicySpec::None),
            ("frequency", PolicySpec::Frequency),
            ("resolution", PolicySpec::Resolution),
            ("reliability (marking)", PolicySpec::Marking),
        ];
        rows_at(seed, &policies, |&policy| {
            let frames = vec![1400; size.frames(2000)];
            let mut sc = Scenario::new(Scheme::Coordinated, policy, frames);
            sc.fps = Some(80.0);
            sc.datagram_mode = true;
            sc.loss_tolerance = 0.40;
            sc.thresholds = (Some(0.10), Some(0.02));
            sc.cross.cbr_bps = Some(15e6);
            sc.deadline_s = 600.0;
            sc
        })
    },
    layouts: &[per_row(
        "Ablation: adaptation dimension (coordinated, same workload)",
        &[
            ("Policy", label),
            ("Duration(s)", |g| fmt(g[0].mean(|r| r.duration_s), 1)),
            ("Thpt(KB/s)", |g| fmt(g[0].mean(|r| r.throughput_kbps), 1)),
            ("Delivered(%)", |g| fmt(g[0].mean(|r| r.delivered_pct), 1)),
            ("Jitter(ms)", |g| fmt(g[0].mean(|r| r.jitter_s) * 1e3, 2)),
        ],
    )],
};

/// Ablation 3: the receiver's loss tolerance swept on the §3.3
/// conflict (reliability) workload, coordinated.
const TOLERANCE: Experiment = Experiment {
    name: "tolerance",
    rows: |size, seed| {
        let frames = vec![1400; size.frames(3000)];
        let tolerances = [("0.0", 0.0), ("0.2", 0.2), ("0.4", 0.4), ("0.6", 0.6)];
        rows_at(seed, &tolerances, |&tolerance| {
            let mut sc = conflict_scenario(&frames, Scheme::Coordinated);
            sc.loss_tolerance = tolerance;
            sc
        })
    },
    layouts: &[per_row(
        "Ablation: receiver loss tolerance (reliability workload)",
        &[
            ("Tolerance", label),
            ("Duration(s)", |g| fmt(g[0].mean(|r| r.duration_s), 1)),
            ("Delivered(%)", |g| fmt(g[0].mean(|r| r.delivered_pct), 1)),
            ("Tagged delay(ms)", |g| {
                fmt(g[0].mean(|r| r.tagged_delay_ms), 2)
            }),
            ("Tagged jitter(ms)", |g| {
                fmt(g[0].mean(|r| r.tagged_jitter_ms), 2)
            }),
        ],
    )],
};

/// Ablation 4: drop-tail vs RED at the bottleneck, on the §3.4
/// over-reaction workload, for both schemes. RED's early signalling
/// spreads losses out, which interacts with the error-ratio thresholds
/// the whole coordination machinery keys off.
const QUEUE: Experiment = Experiment {
    name: "queue",
    rows: |size, seed| {
        let frames = vec![1400; size.frames(2000)];
        let disciplines = [
            (false, ["drop-tail / IQ-RUDP", "drop-tail / RUDP"]),
            (true, ["RED / IQ-RUDP", "RED / RUDP"]),
        ];
        pairs(seed, &disciplines, |&red, scheme| {
            let mut sc = overreaction_scenario(&frames, scheme);
            sc.red_bottleneck = red;
            sc
        })
    },
    layouts: &[Layout {
        title: "Ablation: bottleneck queue discipline (over-reaction workload)",
        group: 2,
        columns: &[
            ("Queue", group_label),
            IQ_RUDP_COLUMNS[0],
            IQ_RUDP_COLUMNS[1],
            IQ_RUDP_COLUMNS[2],
            IQ_RUDP_COLUMNS[3],
        ],
    }],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Executor;
    use crate::tables::{render, run, Row, Size};

    /// Every row of `exp` at seed 0, one run each.
    fn run_small(exp: &Experiment) -> Vec<Row> {
        let rows = run(exp, &Executor::new(0), Size(0.05), 0, 1);
        assert!(
            rows.iter().all(|r| r.runs.len() == 1),
            "{}: one draw is one run",
            exp.name
        );
        rows
    }

    #[test]
    fn measure_period_sweep_shapes() {
        let rows = run_small(&MEASURE_PERIOD);
        assert_eq!(rows.len(), 2 * 4);
        for r in &rows {
            assert!(r.runs[0].finished, "{} did not finish", r.label);
        }
        let s = render(&MEASURE_PERIOD, &rows);
        assert_eq!(s.lines().count(), 3 + 4);
    }

    #[test]
    fn policy_ablation_covers_all_dimensions() {
        let rows = run_small(&POLICY);
        assert_eq!(rows.len(), 4);
        // Reliability is the only policy allowed to drop messages.
        for r in &rows {
            let run = &r.runs[0];
            assert!(run.finished, "{} did not finish", r.label);
            if r.label != "reliability (marking)" {
                assert!(
                    run.delivered_pct > 99.0,
                    "{} dropped messages: {}",
                    r.label,
                    run.delivered_pct
                );
            }
        }
    }

    #[test]
    fn queue_discipline_ablation_runs_both_disciplines() {
        let rows = run_small(&QUEUE);
        assert_eq!(rows.len(), 2 * 2);
        for r in &rows {
            assert!(r.runs[0].finished, "{} did not finish", r.label);
        }
    }

    #[test]
    fn tolerance_zero_delivers_everything() {
        let rows = run_small(&TOLERANCE);
        assert_eq!(rows.len(), 4);
        let (r0, run0) = (&rows[0], &rows[0].runs[0]);
        assert_eq!(r0.label, "0.0");
        assert!(run0.finished);
        assert!(run0.delivered_pct > 99.9, "tolerance 0 lost data");
        // Delivered fraction is non-increasing in tolerance (weakly).
        for pair in rows.windows(2) {
            assert!(pair[1].runs[0].delivered_pct <= pair[0].runs[0].delivered_pct + 3.0);
        }
    }
}
