//! The eight tables of the paper's evaluation, one builder each.
//!
//! Every function returns the scenarios (so tests and benches can scale
//! them down) plus a `run_*` entry point producing rendered rows. The
//! configurations mirror §3.1's setup: a 20 Mb bottleneck with 30 ms
//! path RTT, 1400 B maximum segments, MBone-trace application frames at
//! 3000 B/member, and iperf-style CBR or MBone-VBR cross traffic.
//! Absolute magnitudes differ from the paper's testbed; the comparisons
//! (who wins, direction, rough factor) are the reproduction target.

use iq_metrics::{fmt, Table};
use iq_rudp::CcAlgorithm;

use crate::runner::{render_conflict, render_overreaction, render_time_tp_ia_jitter, Executor};
use crate::scenario::{app_frame_sizes, PolicySpec, RunResult, Scenario, Scheme, VbrSpec};

/// Scale knob for tests: 1.0 = paper-sized runs, smaller = faster.
#[derive(Debug, Clone, Copy)]
pub struct Size(pub f64);

impl Size {
    /// Paper-scale runs (the default for benches and the harness).
    pub const FULL: Size = Size(1.0);
    /// Quick runs for unit tests.
    ///
    /// The smoke schedules must still outlast the transport's congestion
    /// ramp: the LDA window grows additively (+1 segment per 100 ms
    /// period) from 2 segments, so it takes ~5 s of simulated time to
    /// overshoot the ~26-segment bottleneck share and produce the first
    /// loss period. Below 0.25 the rate-based table-3 schedule (3000
    /// frames at 100 fps, scaled) ends before congestion onset and the
    /// conflict scenarios degenerate into loss-free runs.
    pub const SMOKE: Size = Size(0.25);

    /// `full` scaled to this size, never below 40 (the schedules'
    /// floor).
    pub(crate) fn frames(&self, full: usize) -> usize {
        ((full as f64 * self.0) as usize).max(40)
    }
}

// ---------------------------------------------------------------- Table 1

/// Table 1: basic performance comparison under 18 Mb CBR cross traffic.
pub fn table1_scenarios(size: Size) -> Vec<Scenario> {
    let frames = app_frame_sizes(size.frames(1000), 7);
    let base = |scheme, policy| {
        let mut sc = Scenario::new(scheme, policy, frames.clone());
        sc.cross.cbr_bps = Some(18e6);
        sc.thresholds = (Some(0.15), Some(0.01));
        sc.deadline_s = 900.0;
        sc
    };
    vec![
        base(Scheme::Tcp, PolicySpec::None),
        base(Scheme::RudpPlain, PolicySpec::None),
        base(Scheme::AppAdaptOnly, PolicySpec::Resolution),
        base(Scheme::Coordinated, PolicySpec::Resolution),
    ]
}

/// Runs Table 1 and returns its rows.
pub fn run_table1(exec: &Executor, size: Size) -> Vec<RunResult> {
    let mut rows = exec.run_averaged(&table1_scenarios(size), 3);
    rows[2].label = "App adaptation only";
    rows[3].label = "IQ-RUDP w/ app adaptation";
    rows
}

/// Renders Table 1.
pub fn render_table1(rows: &[RunResult]) -> String {
    render_time_tp_ia_jitter("Table 1: Basic performance comparison", rows)
}

// ---------------------------------------------------------------- Table 2

/// Table 2: fairness against a competing TCP bulk flow.
pub fn table2_scenarios(size: Size) -> Vec<Scenario> {
    let frames = vec![1400u32; size.frames(4000)];
    let base = |scheme| {
        let mut sc = Scenario::new(scheme, PolicySpec::None, frames.clone());
        sc.cross.tcp_bulk = true;
        sc.deadline_s = 300.0;
        sc
    };
    vec![base(Scheme::Tcp), base(Scheme::RudpPlain)]
}

/// Runs Table 2.
pub fn run_table2(exec: &Executor, size: Size) -> Vec<RunResult> {
    exec.run_averaged(&table2_scenarios(size), 3)
}

/// Renders Table 2.
pub fn render_table2(rows: &[RunResult]) -> String {
    render_time_tp_ia_jitter("Table 2: Fairness test (vs TCP cross flow)", rows)
}

// ------------------------------------------------------------ Tables 3/4

/// Table 3: coordination against conflict, changing application.
///
/// MBone-trace frames at a fixed frame rate, split into datagrams with
/// the §3.3 marking policy (thresholds 30 %/5 %, tolerance 40 %), over
/// 10 Mb CBR cross traffic.
pub fn table3_scenarios(size: Size) -> Vec<Scenario> {
    let frames = app_frame_sizes(size.frames(3000), 11);
    vec![
        conflict_scenario(&frames, Scheme::Coordinated),
        conflict_scenario(&frames, Scheme::Uncoordinated),
    ]
}

/// The Table-3 conflict workload under `scheme`: MBone frames at a
/// fixed rate, marking policy, 12 Mb CBR cross traffic. Shared by
/// Table 3 and the CC × scheme matrix (Table 9).
pub(crate) fn conflict_scenario(frames: &[u32], scheme: Scheme) -> Scenario {
    let mut sc = Scenario::new(scheme, PolicySpec::Marking, frames.to_vec());
    sc.fps = Some(100.0);
    sc.datagram_mode = true;
    sc.loss_tolerance = 0.40;
    // The paper's 30 %/5 % thresholds fit EMULAB's loss regime; our
    // drop-tail bottleneck produces smaller per-period ratios, so
    // the thresholds scale down with it (see DESIGN.md).
    sc.thresholds = (Some(0.10), Some(0.02));
    sc.min_lower_gap_s = 1.5;
    sc.cross.cbr_bps = Some(12e6);
    sc.deadline_s = 600.0;
    sc
}

/// Runs Table 3.
pub fn run_table3(exec: &Executor, size: Size) -> Vec<RunResult> {
    exec.run_averaged(&table3_scenarios(size), 3)
}

/// Renders Table 3.
pub fn render_table3(rows: &[RunResult]) -> String {
    render_conflict(
        "Table 3: Coordination against conflict - changing application",
        rows,
    )
}

/// Table 4: coordination against conflict, changing network.
///
/// Fixed-size datagrams sent as fast as RUDP allows, marking policy,
/// VBR UDP cross traffic plus 10 Mb CBR.
pub fn table4_scenarios(size: Size) -> Vec<Scenario> {
    let frames = vec![1400u32; size.frames(5000)];
    let base = |scheme| {
        let mut sc = Scenario::new(scheme, PolicySpec::Marking, frames.clone());
        sc.datagram_mode = true;
        sc.loss_tolerance = 0.40;
        sc.thresholds = (Some(0.10), Some(0.02));
        sc.min_lower_gap_s = 1.5;
        sc.cross.cbr_bps = Some(12e6);
        sc.cross.vbr = Some(VbrSpec {
            fps: 500.0,
            mean_bps: 6e6,
            seed: 13,
        });
        sc.deadline_s = 600.0;
        sc
    };
    vec![base(Scheme::Coordinated), base(Scheme::Uncoordinated)]
}

/// Runs Table 4.
pub fn run_table4(exec: &Executor, size: Size) -> Vec<RunResult> {
    exec.run_averaged(&table4_scenarios(size), 3)
}

/// Renders Table 4.
pub fn render_table4(rows: &[RunResult]) -> String {
    render_conflict(
        "Table 4: Coordination against conflict - changing network",
        rows,
    )
}

// ------------------------------------------------------------ Tables 5/6

/// Table 5: coordination against over-reaction, changing application.
///
/// MBone-trace frames as datagrams, §3.4 resolution policy (thresholds
/// 15 %/1 %), moderate CBR cross traffic.
pub fn table5_scenarios(size: Size) -> Vec<Scenario> {
    let frames = app_frame_sizes(size.frames(2000), 17);
    let base = |scheme| {
        let mut sc = Scenario::new(scheme, PolicySpec::Resolution, frames.clone());
        sc.fps = Some(60.0); // rate-based source (§3.1 setting 1)
        sc.datagram_mode = true;
        sc.thresholds = (Some(0.15), Some(0.01));
        sc.cross.cbr_bps = Some(14e6);
        sc.deadline_s = 600.0;
        sc
    };
    vec![base(Scheme::Coordinated), base(Scheme::Uncoordinated)]
}

/// Runs Table 5.
pub fn run_table5(exec: &Executor, size: Size) -> Vec<RunResult> {
    exec.run_averaged(&table5_scenarios(size), 3)
}

/// Renders Table 5.
pub fn render_table5(rows: &[RunResult]) -> String {
    let labels: Vec<String> = rows.iter().map(|r| r.label.to_string()).collect();
    render_overreaction(
        "Table 5: Coordination against overreaction - changing app",
        &labels,
        rows,
    )
}

/// The iperf rates swept by Table 6, bits/second.
pub const TABLE6_IPERF_BPS: [f64; 3] = [12e6, 16e6, 18e6];

/// Table 6: over-reaction, changing network, at increasing congestion.
pub fn table6_scenarios(size: Size) -> Vec<Scenario> {
    let frames = vec![1400u32; size.frames(4000)];
    let mut scenarios = Vec::new();
    for &cbr in &TABLE6_IPERF_BPS {
        for scheme in [Scheme::Coordinated, Scheme::Uncoordinated] {
            let mut sc = Scenario::new(scheme, PolicySpec::Resolution, frames.clone());
            sc.datagram_mode = true;
            sc.thresholds = (Some(0.15), Some(0.01));
            sc.cross.cbr_bps = Some(cbr);
            sc.cross.vbr = Some(VbrSpec {
                fps: 500.0,
                mean_bps: 2.5e6,
                seed: 13,
            });
            sc.deadline_s = 900.0;
            scenarios.push(sc);
        }
    }
    scenarios
}

/// Runs Table 6; rows come in (IQ-RUDP, RUDP) pairs per iperf rate.
pub fn run_table6(exec: &Executor, size: Size) -> Vec<RunResult> {
    exec.run_averaged(&table6_scenarios(size), 3)
}

/// Renders Table 6.
pub fn render_table6(rows: &[RunResult]) -> String {
    let labels: Vec<String> = TABLE6_IPERF_BPS
        .iter()
        .flat_map(|&bps| {
            let mb = bps / 1e6;
            [
                format!("{mb:.0}Mbps IQ-RUDP"),
                format!("{mb:.0}Mbps RUDP"),
            ]
        })
        .collect();
    render_overreaction(
        "Table 6: Coordination against overreaction - changing network",
        &labels,
        rows,
    )
}

// ------------------------------------------------------------ Tables 7/8

/// Table 7: limited adaptation granularity, changing application.
///
/// As Table 5 but the application may only adapt at frames divisible by
/// 20; RUDP vs IQ-RUDP (without `ADAPT_COND`).
pub fn table7_scenarios(size: Size) -> Vec<Scenario> {
    let frames = app_frame_sizes(size.frames(2000), 17);
    let base = |scheme| {
        let mut sc =
            Scenario::new(scheme, PolicySpec::Deferred { granularity: 20 }, frames.clone());
        sc.fps = Some(60.0);
        sc.datagram_mode = true;
        sc.thresholds = (Some(0.15), Some(0.01));
        sc.measure_period = Some(iq_netsim::time::millis(200));
        sc.cross.cbr_bps = Some(14e6);
        sc.deadline_s = 600.0;
        sc
    };
    vec![base(Scheme::Coordinated), base(Scheme::Uncoordinated)]
}

/// Runs Table 7.
pub fn run_table7(exec: &Executor, size: Size) -> Vec<RunResult> {
    let mut rows = exec.run_averaged(&table7_scenarios(size), 3);
    rows[0].label = "IQ-RUDP w/o ADAPT_COND";
    rows
}

/// Renders Table 7.
pub fn render_table7(rows: &[RunResult]) -> String {
    let labels: Vec<String> = rows.iter().map(|r| r.label.to_string()).collect();
    render_overreaction(
        "Table 7: Limited adaptation granularity - changing app",
        &labels,
        rows,
    )
}

/// Table 8: limited granularity, changing network, on the 125 ms
/// one-way-delay path with a rate-based application and 14 Mb CBR cross
/// traffic; three schemes.
pub fn table8_scenarios(size: Size) -> Vec<Scenario> {
    // The deferral/obsolete-information dynamics play out in the first
    // ~30 s; longer schedules only dilute the scheme differences into a
    // long backlog drain, so the schedule is capped.
    let frames = vec![1400u32; size.frames(3000).min(1000)];
    let base = |scheme| {
        let mut sc =
            Scenario::new(scheme, PolicySpec::Deferred { granularity: 20 }, frames.clone());
        sc.dumbbell = iq_netsim::DumbbellSpec::long_rtt(3);
        sc.fps = Some(120.0);
        sc.datagram_mode = true;
        sc.thresholds = (Some(0.10), Some(0.02));
        sc.measure_period = Some(iq_netsim::time::millis(300));
        sc.cross.cbr_bps = Some(16e6);
        sc.cross.vbr = Some(VbrSpec {
            fps: 500.0,
            mean_bps: 3e6,
            seed: 29,
        });
        sc.deadline_s = 600.0;
        sc
    };
    vec![
        base(Scheme::CoordinatedWithCond),
        base(Scheme::Coordinated),
        base(Scheme::Uncoordinated),
    ]
}

/// Runs Table 8.
pub fn run_table8(exec: &Executor, size: Size) -> Vec<RunResult> {
    let mut rows = exec.run_averaged(&table8_scenarios(size), 3);
    rows[1].label = "IQ-RUDP w/o ADAPT_COND";
    rows
}

/// Renders Table 8.
pub fn render_table8(rows: &[RunResult]) -> String {
    let labels: Vec<String> = rows.iter().map(|r| r.label.to_string()).collect();
    render_overreaction(
        "Table 8: Limited adaptation granularity - changing network",
        &labels,
        rows,
    )
}

// ---------------------------------------------------------------- Table 9

/// Table 9 (not in the paper): the coordination-benefit matrix across
/// congestion controllers — the Table-3 conflict workload run under
/// every [`CcAlgorithm`], coordinated and uncoordinated (ROADMAP item
/// 4: stress-test the coordination schemes beyond LDA).
pub fn table9_scenarios(size: Size) -> Vec<Scenario> {
    let frames = app_frame_sizes(size.frames(3000), 11);
    let mut out = Vec::new();
    for alg in CcAlgorithm::all_adaptive() {
        for scheme in [Scheme::Coordinated, Scheme::Uncoordinated] {
            let mut sc = conflict_scenario(&frames, scheme);
            sc.cc = alg.clone();
            out.push(sc);
        }
    }
    out
}

/// Row label for one CC × scheme cell (static so [`RunResult::label`]
/// stays a `&'static str`).
fn cc_row_label(alg: &CcAlgorithm, scheme: Scheme) -> &'static str {
    let coordinated = scheme == Scheme::Coordinated;
    match (alg.name(), coordinated) {
        ("lda", true) => "LDA / coordinated",
        ("lda", false) => "LDA / uncoordinated",
        ("cubic", true) => "CUBIC / coordinated",
        ("cubic", false) => "CUBIC / uncoordinated",
        ("bbr", true) => "BBR-like / coordinated",
        ("bbr", false) => "BBR-like / uncoordinated",
        ("rrr", true) => "RRR / coordinated",
        ("rrr", false) => "RRR / uncoordinated",
        (_, true) => "other / coordinated",
        (_, false) => "other / uncoordinated",
    }
}

/// Runs Table 9. Rows come out in [`CcAlgorithm::all_adaptive`] order,
/// coordinated before uncoordinated within each controller.
pub fn run_table9(exec: &Executor, size: Size) -> Vec<RunResult> {
    let scenarios = table9_scenarios(size);
    let mut rows = exec.run_averaged(&scenarios, 3);
    for (row, sc) in rows.iter_mut().zip(&scenarios) {
        row.label = cc_row_label(&sc.cc, sc.scheme);
    }
    rows
}

/// Renders Table 9: the full matrix plus a per-controller benefit
/// summary (coordinated minus uncoordinated).
pub fn render_table9(rows: &[RunResult]) -> String {
    let mut out = render_conflict(
        "Table 9: Coordination benefit across congestion controllers",
        rows,
    );
    let mut t = Table::new(
        "Coordination benefit (coordinated - uncoordinated)",
        &[
            "Controller",
            "dRecvd(pp)",
            "dTaggedJitter(ms)",
            "dJitter(ms)",
        ],
    );
    for pair in rows.chunks_exact(2) {
        let (c, u) = (&pair[0], &pair[1]);
        let controller = c.label.split(" /").next().unwrap_or(c.label);
        t.row(&[
            controller.to_string(),
            fmt(c.delivered_pct - u.delivered_pct, 1),
            fmt(c.tagged_jitter_ms - u.tagged_jitter_ms, 2),
            fmt((c.jitter_s - u.jitter_s) * 1e3, 2),
        ]);
    }
    out.push('\n');
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_builders_have_expected_row_counts() {
        assert_eq!(table1_scenarios(Size::SMOKE).len(), 4);
        assert_eq!(table2_scenarios(Size::SMOKE).len(), 2);
        assert_eq!(table3_scenarios(Size::SMOKE).len(), 2);
        assert_eq!(table4_scenarios(Size::SMOKE).len(), 2);
        assert_eq!(table5_scenarios(Size::SMOKE).len(), 2);
        assert_eq!(table6_scenarios(Size::SMOKE).len(), 6);
        assert_eq!(table7_scenarios(Size::SMOKE).len(), 2);
        assert_eq!(table8_scenarios(Size::SMOKE).len(), 3);
        assert_eq!(table9_scenarios(Size::SMOKE).len(), 8);
    }

    #[test]
    fn table9_covers_every_adaptive_controller_twice() {
        let scenarios = table9_scenarios(Size::SMOKE);
        for (i, alg) in CcAlgorithm::all_adaptive().iter().enumerate() {
            assert_eq!(&scenarios[2 * i].cc, alg);
            assert_eq!(scenarios[2 * i].scheme, Scheme::Coordinated);
            assert_eq!(&scenarios[2 * i + 1].cc, alg);
            assert_eq!(scenarios[2 * i + 1].scheme, Scheme::Uncoordinated);
        }
        // Labels are distinct per cell.
        let labels: std::collections::BTreeSet<&str> = scenarios
            .iter()
            .map(|sc| cc_row_label(&sc.cc, sc.scheme))
            .collect();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn size_scaling_bounds() {
        assert_eq!(Size::FULL.frames(1000), 1000);
        assert_eq!(Size(0.5).frames(1000), 500);
        assert_eq!(Size(0.0001).frames(1000), 40);
    }
}
