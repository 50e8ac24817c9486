//! The four figures of the paper's evaluation.

use iq_metrics::TimeSeries;
use iq_trace::MembershipTrace;

use crate::runner::Executor;
use crate::tables::{run, Row, Size, TABLE3, TABLE6_IPERF};

/// Figure 1: membership dynamics — the group-size trace driving the
/// changing-application workloads.
pub fn figure1() -> TimeSeries {
    let trace = MembershipTrace::paper_default();
    let mut s = TimeSeries::new();
    for (i, &g) in trace.samples.iter().enumerate() {
        s.record(i as u64, f64::from(g));
    }
    s
}

/// Figures 2 and 3: per-packet delay jitter at the receiver for the
/// conflict experiment, coordinated (Figure 2) vs uncoordinated
/// (Figure 3). Returns `(iq_rudp_series, rudp_series)`: each row's
/// receiver-side series at its first draw, the one draw it runs,
/// whatever the run's configuration.
pub fn figures_2_3(exec: &Executor, size: Size) -> (TimeSeries, TimeSeries) {
    let mut series = run(&TABLE3, exec, size, 0, 1)
        .into_iter()
        .map(|mut row| row.runs.swap_remove(0).jitter_series);
    let iq = series.next().expect("Table 3 has an IQ-RUDP row");
    let rudp = series.next().expect("Table 3 has an RUDP row");
    (iq, rudp)
}

/// One bar group of Figure 4.
#[derive(Debug, Clone, Copy)]
pub struct Figure4Point {
    /// Background iperf rate, bits/second.
    pub iperf_bps: f64,
    /// Throughput improvement of IQ-RUDP over RUDP, percent.
    pub throughput_gain_pct: f64,
    /// Jitter reduction of IQ-RUDP relative to RUDP, percent.
    pub jitter_reduction_pct: f64,
}

/// Figure 4: performance improvement from coordination against
/// over-reaction, as a function of congestion level, computed from
/// already-run Table 6 rows (pairs of IQ-RUDP/RUDP per iperf rate, each
/// the mean of its runs; the paper reports +6→25 % throughput and
/// −20→76 % jitter as congestion grows).
pub fn figure4_from_rows(rows: &[Row]) -> Vec<Figure4Point> {
    assert_eq!(rows.len(), 2 * TABLE6_IPERF.len(), "expected table 6 rows");
    TABLE6_IPERF
        .iter()
        .enumerate()
        .map(|(i, &(iperf_bps, _))| {
            let [iq_tp, rudp_tp] = [0, 1].map(|k| rows[2 * i + k].mean(|r| r.throughput_kbps));
            let [iq_jitter, rudp_jitter] = [0, 1].map(|k| rows[2 * i + k].mean(|r| r.jitter_s));
            let throughput_gain_pct = if rudp_tp > 0.0 {
                100.0 * (iq_tp / rudp_tp - 1.0)
            } else {
                0.0
            };
            let jitter_reduction_pct = if rudp_jitter > 0.0 {
                100.0 * (1.0 - iq_jitter / rudp_jitter)
            } else {
                0.0
            };
            Figure4Point {
                iperf_bps,
                throughput_gain_pct,
                jitter_reduction_pct,
            }
        })
        .collect()
}

/// Renders Figure 4 as text rows.
pub fn render_figure4(points: &[Figure4Point]) -> String {
    use std::fmt::Write;
    let mut out = String::from("== Figure 4: Performance improvement - overreaction ==\n");
    let _ = writeln!(out, "iperf(Mbps)  throughput gain(%)  jitter reduction(%)");
    for p in points {
        let _ = writeln!(
            out,
            "{:<11}  {:<18.1}  {:.1}",
            p.iperf_bps / 1e6,
            p.throughput_gain_pct,
            p.jitter_reduction_pct
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bus carries what the receiver-side accumulator records: the
    /// times of a captured run's `msg_delivered` records for flow 1, fed
    /// through `iq_metrics::jitter_series`, give the run's
    /// `jitter_series`, delay and jitter bit for bit. The reference only — no product path
    /// derives a figure from the JSONL.
    #[test]
    fn bus_derived_jitter_series_matches_receiver_accumulator() {
        use crate::scenario::{run_scenario_with, PolicySpec, RunConfig, Scenario, Scheme};
        let mut sc = Scenario::new(Scheme::RudpPlain, PolicySpec::None, vec![1400; 80]);
        sc.cross.cbr_bps = Some(8e6);
        sc.deadline_s = 60.0;
        let capture = RunConfig {
            telemetry: true,
            ..RunConfig::default()
        };
        let r = run_scenario_with(&sc, capture);
        let records = iq_telemetry::parse_jsonl(&r.telemetry).expect("captured telemetry parses");
        let delivered: Vec<u64> = records
            .iter()
            .filter(|r| r.flow == 1)
            .filter(|r| matches!(r.event, iq_telemetry::TelemetryEvent::MsgDelivered { .. }))
            .map(|r| r.at)
            .collect();
        let (rebuilt, gaps) = iq_metrics::jitter_series(delivered.iter().copied());
        assert_eq!(gaps.mean().to_bits(), r.inter_arrival_s.to_bits());
        assert_eq!(gaps.stddev().to_bits(), r.jitter_s.to_bits());
        assert!(
            !rebuilt.is_empty(),
            "the run delivered no message on the bus"
        );
        assert_eq!(rebuilt.len(), r.jitter_series.len());
        for (a, b) in rebuilt.points.iter().zip(&r.jitter_series.points) {
            assert_eq!(a.0, b.0, "jitter sample timestamps diverge");
            assert_eq!(
                a.1.to_bits(),
                b.1.to_bits(),
                "jitter sample values diverge at t={}",
                a.0
            );
        }
    }

    #[test]
    fn figure1_mirrors_the_trace() {
        let s = figure1();
        let trace = MembershipTrace::paper_default();
        assert_eq!(s.len(), trace.len());
        assert_eq!(s.points[0].1, f64::from(trace.samples[0]));
    }

    #[test]
    fn figure4_math() {
        use crate::scenario::RunResult;
        fn row(tp: f64, jit: f64) -> Row {
            let run = RunResult {
                label: "x",
                duration_s: 1.0,
                throughput_kbps: tp,
                inter_arrival_s: 0.0,
                jitter_s: jit,
                tagged_delay_ms: 0.0,
                tagged_jitter_ms: 0.0,
                msgs_offered: 0,
                msgs_delivered: 0,
                delivered_pct: 0.0,
                jitter_series: TimeSeries::new(),
                finished: true,
                coordination: None,
                callbacks: (0, 0),
                sender_stats: None,
                events_processed: 0,
                telemetry: String::new(),
                shards_used: 1,
                obs: iq_obs::Registry::new(),
                phase_profile: Vec::new(),
                sched: iq_netsim::SchedTotals::default(),
                telemetry_evicted: 0,
            };
            Row {
                label: "x",
                runs: vec![run],
            }
        }
        let rows = vec![
            row(110.0, 0.8),  // 12M IQ
            row(100.0, 1.0),  // 12M RUDP
            row(125.0, 0.5),  // 16M IQ
            row(100.0, 1.0),  // 16M RUDP
            row(150.0, 0.25), // 18M IQ
            row(100.0, 1.0),  // 18M RUDP
        ];
        let pts = figure4_from_rows(&rows);
        assert!((pts[0].throughput_gain_pct - 10.0).abs() < 1e-9);
        assert!((pts[0].jitter_reduction_pct - 20.0).abs() < 1e-9);
        assert!((pts[2].throughput_gain_pct - 50.0).abs() < 1e-9);
        assert!((pts[2].jitter_reduction_pct - 75.0).abs() < 1e-9);
        let rendered = render_figure4(&pts);
        assert_eq!(rendered.lines().count(), 5);
    }
}
