//! The paper's evaluation as values: one [`Experiment`] per table —
//! [`TABLES`], the paper's eight plus the controller matrix — and per
//! ablation ([`crate::ablations::ABLATIONS`]), run by [`run`] and
//! printed by [`render`].
//!
//! An experiment is a grid: its rows cross one workload with a few
//! schemes, and its layouts say which columns of the rows' results each
//! printed line shows. The configurations mirror §3.1's setup: a 20 Mb
//! bottleneck with 30 ms path RTT, 1400 B maximum segments, MBone-trace
//! application frames at 3000 B/member, and iperf-style CBR or MBone-VBR
//! cross traffic. Absolute magnitudes differ from the paper's testbed;
//! the comparisons (who wins, direction, rough factor) are the
//! reproduction target.

use iq_metrics::{fmt, Table};
use iq_netsim::time;
use iq_rudp::CcAlgorithm;

use crate::runner::Executor;
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

/// One printed column: its header and what it shows for one group of
/// consecutive results.
pub type Column = (&'static str, fn(&[RunResult]) -> String);

/// One printed table of an experiment.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// The table's title.
    pub title: &'static str,
    /// How many consecutive results one printed line covers.
    pub group: usize,
    /// The columns, left to right.
    pub columns: &'static [Column],
}

/// A layout of one printed line per result.
pub(crate) const fn per_row(title: &'static str, columns: &'static [Column]) -> Layout {
    Layout { title, group: 1, columns }
}

/// One table or ablation: the scenarios it runs and how it prints them.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Its name on the command line (`iqrudp tables t3`).
    pub name: &'static str,
    /// How many seeds each row is averaged over
    /// ([`Executor::run_averaged`]).
    pub seeds: u32,
    /// The rows at a size, in run order: each a label and a scenario.
    pub rows: fn(Size) -> Vec<(&'static str, Scenario)>,
    /// What [`render`] prints, in order.
    pub layouts: &'static [Layout],
}

/// Runs every row of `exp` at `size` as one [`Executor::run_averaged`]
/// batch and labels each result with its row's label.
pub fn run(exp: &Experiment, exec: &Executor, size: Size) -> Vec<RunResult> {
    let (labels, scenarios): (Vec<_>, Vec<_>) = (exp.rows)(size).into_iter().unzip();
    let mut results = exec.run_averaged(&scenarios, exp.seeds);
    for (r, label) in results.iter_mut().zip(labels) {
        r.label = label;
    }
    results
}

/// Renders every layout of `exp` over its `results`, a blank line
/// between two.
pub fn render(exp: &Experiment, results: &[RunResult]) -> String {
    let tables: Vec<String> = exp
        .layouts
        .iter()
        .map(|layout| {
            let headers: Vec<&str> = layout.columns.iter().map(|c| c.0).collect();
            let mut t = Table::new(layout.title, &headers);
            for group in results.chunks(layout.group) {
                let cells: Vec<String> = layout.columns.iter().map(|c| (c.1)(group)).collect();
                t.row(&cells);
            }
            t.render()
        })
        .collect();
    tables.join("\n")
}

/// What `iqrudp tables` runs and prints, in order.
pub const TABLES: [Experiment; 9] = [
    TABLE1, TABLE2, TABLE3, TABLE4, TABLE5, TABLE6, TABLE7, TABLE8, TABLE9,
];

/// An experiment's rows.
type Rows = Vec<(&'static str, Scenario)>;

/// The rows `build` makes of each labelled scheme, in order.
fn per_scheme(schemes: &[(&'static str, Scheme)], build: impl Fn(Scheme) -> Scenario) -> Rows {
    schemes.iter().map(|&(label, scheme)| (label, build(scheme))).collect()
}

/// The comparison of §3.3–§3.5: the coordinated scheme, then its
/// uncoordinated control.
const IQ_VS_RUDP: [(&str, Scheme); 2] = [
    ("IQ-RUDP", Scheme::Coordinated),
    ("RUDP", Scheme::Uncoordinated),
];

/// [`IQ_VS_RUDP`] once per group: two rows a group, labelled by the
/// group's own pair of labels.
pub(crate) fn pairs<T>(
    groups: &[(T, [&'static str; 2])],
    build: impl Fn(&T, Scheme) -> Scenario,
) -> Rows {
    let build = &build;
    groups
        .iter()
        .flat_map(|(group, labels)| {
            labels
                .iter()
                .zip(IQ_VS_RUDP)
                .map(move |(&label, (_, scheme))| (label, build(group, scheme)))
        })
        .collect()
}

/// The §3.3 conflict workload under `scheme`: MBone frames at a fixed
/// rate, split into datagrams with the marking policy (thresholds
/// scaled from 30 %/5 %, tolerance 40 %), over 12 Mb CBR cross traffic.
/// Tables 3, 4 and 9, the loss-tolerance ablation and `bench` build on
/// it.
pub fn conflict_scenario(frames: &[u32], scheme: Scheme) -> Scenario {
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

/// The §3.4 over-reaction workload under `scheme`: a 60 fps source
/// (§3.1 setting 1) sending datagrams under the resolution policy
/// (thresholds 15 %/1 %), over 14 Mb CBR cross traffic. Tables 5 and 7
/// and the measuring-period and queue-discipline ablations build on it.
pub(crate) fn overreaction_scenario(frames: &[u32], scheme: Scheme) -> Scenario {
    let mut sc = Scenario::new(scheme, PolicySpec::Resolution, frames.to_vec());
    sc.fps = Some(60.0);
    sc.datagram_mode = true;
    sc.thresholds = (Some(0.15), Some(0.01));
    sc.cross.cbr_bps = Some(14e6);
    sc.deadline_s = 600.0;
    sc
}

/// The first result's label.
pub(crate) fn label(g: &[RunResult]) -> String {
    g[0].label.to_string()
}

/// What a group's labels share: the first label up to its ` /`.
pub(crate) fn group_label(g: &[RunResult]) -> String {
    g[0].label.split(" /").next().unwrap_or_default().to_string()
}

/// Time, throughput, inter-arrival and jitter, in seconds (Tables 1
/// and 2).
const TIME_TP_IA_JITTER: &[Column] = &[
    ("Transport Tested", label),
    ("Time(s)", |g| fmt(g[0].duration_s, 1)),
    ("Throughput(KB/s)", |g| fmt(g[0].throughput_kbps, 1)),
    ("Inter-arrival(s)", |g| fmt(g[0].inter_arrival_s, 3)),
    ("Jitter(s)", |g| fmt(g[0].jitter_s, 3)),
];

/// The conflict columns (Tables 3, 4 and 9): how much arrived, and how
/// late the tagged and all messages were.
const CONFLICT: &[Column] = &[
    ("Scheme", label),
    ("Duration(s)", |g| fmt(g[0].duration_s, 1)),
    ("Mesgs Recvd(%)", |g| fmt(g[0].delivered_pct, 1)),
    ("Tagged Delay(ms)", |g| fmt(g[0].tagged_delay_ms, 1)),
    ("Tagged Jitter(ms)", |g| fmt(g[0].tagged_jitter_ms, 2)),
    ("Delay(ms)", |g| fmt(g[0].inter_arrival_s * 1e3, 1)),
    ("Jitter(ms)", |g| fmt(g[0].jitter_s * 1e3, 2)),
];

/// The over-reaction columns (Tables 5–8): throughput first.
const OVERREACTION: &[Column] = &[
    ("Scheme", label),
    ("Throughput(KB/s)", |g| fmt(g[0].throughput_kbps, 1)),
    ("Duration(s)", |g| fmt(g[0].duration_s, 1)),
    ("Delay(ms)", |g| fmt(g[0].inter_arrival_s * 1e3, 2)),
    ("Jitter(ms)", |g| fmt(g[0].jitter_s * 1e3, 2)),
];

/// Table 1: basic performance comparison under 18 Mb CBR cross traffic;
/// the two adaptive rows run the resolution policy.
const TABLE1: Experiment = Experiment {
    name: "t1",
    seeds: 3,
    rows: |size| {
        let frames = app_frame_sizes(size.frames(1000), 7);
        let schemes = [
            ("TCP", Scheme::Tcp),
            ("IQ-RUDP", Scheme::RudpPlain),
            ("App adaptation only", Scheme::AppAdaptOnly),
            ("IQ-RUDP w/ app adaptation", Scheme::Coordinated),
        ];
        per_scheme(&schemes, |scheme| {
            let policy = match scheme {
                Scheme::Tcp | Scheme::RudpPlain => PolicySpec::None,
                _ => PolicySpec::Resolution,
            };
            let mut sc = Scenario::new(scheme, policy, frames.clone());
            sc.cross.cbr_bps = Some(18e6);
            sc.thresholds = (Some(0.15), Some(0.01));
            sc.deadline_s = 900.0;
            sc
        })
    },
    layouts: &[per_row("Table 1: Basic performance comparison", TIME_TP_IA_JITTER)],
};

/// Table 2: fairness against a competing TCP bulk flow.
const TABLE2: Experiment = Experiment {
    name: "t2",
    seeds: 3,
    rows: |size| {
        let frames = vec![1400u32; size.frames(4000)];
        per_scheme(&[("TCP", Scheme::Tcp), ("IQ-RUDP", Scheme::RudpPlain)], |scheme| {
            let mut sc = Scenario::new(scheme, PolicySpec::None, frames.clone());
            sc.cross.tcp_bulk = true;
            sc.deadline_s = 300.0;
            sc
        })
    },
    layouts: &[per_row("Table 2: Fairness test (vs TCP cross flow)", TIME_TP_IA_JITTER)],
};

/// Table 3: coordination against conflict, changing application — the
/// conflict workload on the MBone trace.
pub(crate) const TABLE3: Experiment = Experiment {
    name: "t3",
    seeds: 3,
    rows: |size| {
        let frames = app_frame_sizes(size.frames(3000), 11);
        per_scheme(&IQ_VS_RUDP, |scheme| conflict_scenario(&frames, scheme))
    },
    layouts: &[per_row("Table 3: Coordination against conflict - changing application", CONFLICT)],
};

/// Table 4: coordination against conflict, changing network — the
/// conflict workload with fixed-size datagrams sent as fast as RUDP
/// allows, plus VBR UDP cross traffic.
const TABLE4: Experiment = Experiment {
    name: "t4",
    seeds: 3,
    rows: |size| {
        let frames = vec![1400u32; size.frames(5000)];
        per_scheme(&IQ_VS_RUDP, |scheme| {
            let mut sc = conflict_scenario(&frames, scheme);
            sc.fps = None;
            sc.cross.vbr = Some(VbrSpec {
                fps: 500.0,
                mean_bps: 6e6,
                seed: 13,
            });
            sc
        })
    },
    layouts: &[per_row("Table 4: Coordination against conflict - changing network", CONFLICT)],
};

/// Table 5: coordination against over-reaction, changing application —
/// the over-reaction workload on the MBone trace.
const TABLE5: Experiment = Experiment {
    name: "t5",
    seeds: 3,
    rows: |size| {
        let frames = app_frame_sizes(size.frames(2000), 17);
        per_scheme(&IQ_VS_RUDP, |scheme| overreaction_scenario(&frames, scheme))
    },
    layouts: &[per_row("Table 5: Coordination against overreaction - changing app", OVERREACTION)],
};

/// The iperf rates swept by Table 6, bits/second, each with its
/// IQ-RUDP and RUDP row labels.
pub(crate) const TABLE6_IPERF: [(f64, [&str; 2]); 3] = [
    (12e6, ["12Mbps IQ-RUDP", "12Mbps RUDP"]),
    (16e6, ["16Mbps IQ-RUDP", "16Mbps RUDP"]),
    (18e6, ["18Mbps IQ-RUDP", "18Mbps RUDP"]),
];

/// Table 6: over-reaction, changing network, at increasing congestion;
/// rows come in (IQ-RUDP, RUDP) pairs per iperf rate.
pub(crate) const TABLE6: Experiment = Experiment {
    name: "t6",
    seeds: 3,
    rows: |size| {
        let frames = vec![1400u32; size.frames(4000)];
        pairs(&TABLE6_IPERF, |&cbr, scheme| {
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
            sc
        })
    },
    layouts: &[per_row(
        "Table 6: Coordination against overreaction - changing network",
        OVERREACTION,
    )],
};

/// Table 7: limited adaptation granularity, changing application — the
/// over-reaction workload, but the application may only adapt at frames
/// divisible by 20; RUDP vs IQ-RUDP without `ADAPT_COND`.
const TABLE7: Experiment = Experiment {
    name: "t7",
    seeds: 3,
    rows: |size| {
        let frames = app_frame_sizes(size.frames(2000), 17);
        let schemes = [
            ("IQ-RUDP w/o ADAPT_COND", Scheme::Coordinated),
            ("RUDP", Scheme::Uncoordinated),
        ];
        per_scheme(&schemes, |scheme| {
            let mut sc = overreaction_scenario(&frames, scheme);
            sc.policy = PolicySpec::Deferred { granularity: 20 };
            sc.measure_period = Some(time::millis(200));
            sc
        })
    },
    layouts: &[per_row("Table 7: Limited adaptation granularity - changing app", OVERREACTION)],
};

/// Table 8: limited granularity, changing network, on the 125 ms
/// one-way-delay path with a rate-based application and 16 Mb CBR plus
/// VBR cross traffic; three schemes.
const TABLE8: Experiment = Experiment {
    name: "t8",
    seeds: 3,
    rows: |size| {
        // The deferral/obsolete-information dynamics play out in the
        // first ~30 s; longer schedules only dilute the scheme
        // differences into a long backlog drain, so the schedule is
        // capped.
        let frames = vec![1400u32; size.frames(3000).min(1000)];
        let schemes = [
            ("IQ-RUDP w/ ADAPT_COND", Scheme::CoordinatedWithCond),
            ("IQ-RUDP w/o ADAPT_COND", Scheme::Coordinated),
            ("RUDP", Scheme::Uncoordinated),
        ];
        per_scheme(&schemes, |scheme| {
            let mut sc =
                Scenario::new(scheme, PolicySpec::Deferred { granularity: 20 }, frames.clone());
            sc.dumbbell = iq_netsim::DumbbellSpec::long_rtt(3);
            sc.fps = Some(120.0);
            sc.datagram_mode = true;
            sc.thresholds = (Some(0.10), Some(0.02));
            sc.measure_period = Some(time::millis(300));
            sc.cross.cbr_bps = Some(16e6);
            sc.cross.vbr = Some(VbrSpec {
                fps: 500.0,
                mean_bps: 3e6,
                seed: 29,
            });
            sc.deadline_s = 600.0;
            sc
        })
    },
    layouts: &[per_row("Table 8: Limited adaptation granularity - changing network", OVERREACTION)],
};

/// Table 9 (not in the paper): the coordination-benefit matrix across
/// congestion controllers — the Table-3 conflict workload under every
/// adaptive [`CcAlgorithm`], coordinated then uncoordinated, to
/// stress-test the coordination schemes beyond LDA — and per controller
/// what coordinating changed.
const TABLE9: Experiment = Experiment {
    name: "t9",
    seeds: 3,
    rows: |size| {
        let frames = app_frame_sizes(size.frames(3000), 11);
        let controllers = [
            ("lda", ["LDA / coordinated", "LDA / uncoordinated"]),
            ("cubic", ["CUBIC / coordinated", "CUBIC / uncoordinated"]),
            ("bbr", ["BBR-like / coordinated", "BBR-like / uncoordinated"]),
            ("rrr", ["RRR / coordinated", "RRR / uncoordinated"]),
        ];
        pairs(&controllers, |name, scheme| {
            let mut sc = conflict_scenario(&frames, scheme);
            sc.cc = CcAlgorithm::from_name(name).expect("a name CcAlgorithm::name gives");
            sc
        })
    },
    layouts: &[
        per_row("Table 9: Coordination benefit across congestion controllers", CONFLICT),
        Layout {
            title: "Coordination benefit (coordinated - uncoordinated)",
            group: 2,
            columns: &[
                ("Controller", group_label),
                ("dRecvd(pp)", |g| fmt(g[0].delivered_pct - g[1].delivered_pct, 1)),
                ("dTaggedJitter(ms)", |g| {
                    fmt(g[0].tagged_jitter_ms - g[1].tagged_jitter_ms, 2)
                }),
                ("dJitter(ms)", |g| fmt((g[0].jitter_s - g[1].jitter_s) * 1e3, 2)),
            ],
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablations::ABLATIONS;

    #[test]
    fn table_builders_have_expected_row_counts() {
        let counts: Vec<(&str, usize)> = TABLES
            .iter()
            .chain(&ABLATIONS)
            .map(|exp| (exp.name, (exp.rows)(Size::SMOKE).len()))
            .collect();
        assert_eq!(
            counts,
            [
                ("t1", 4),
                ("t2", 2),
                ("t3", 2),
                ("t4", 2),
                ("t5", 2),
                ("t6", 6),
                ("t7", 2),
                ("t8", 3),
                ("t9", 8),
                ("period", 8),
                ("policy", 4),
                ("tolerance", 4),
                ("queue", 4),
            ]
        );
        for exp in TABLES.iter().chain(&ABLATIONS) {
            let n = (exp.rows)(Size::SMOKE).len();
            for layout in exp.layouts {
                assert_eq!(n % layout.group, 0, "{}: {}", exp.name, layout.title);
            }
        }
        assert!(TABLES.iter().all(|t| t.seeds == 3));
        assert!(ABLATIONS.iter().all(|a| a.seeds == 1));
    }

    #[test]
    fn table9_covers_every_adaptive_controller_twice() {
        let rows = (TABLE9.rows)(Size::SMOKE);
        for (i, alg) in CcAlgorithm::all_adaptive().iter().enumerate() {
            assert_eq!(&rows[2 * i].1.cc, alg);
            assert_eq!(rows[2 * i].1.scheme, Scheme::Coordinated);
            assert_eq!(&rows[2 * i + 1].1.cc, alg);
            assert_eq!(rows[2 * i + 1].1.scheme, Scheme::Uncoordinated);
        }
        // Labels are distinct per cell.
        let labels: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.0).collect();
        assert_eq!(labels.len(), 8);
    }

    /// Every layout of all thirteen experiments, rendered from one
    /// synthetic result copied to each row under the row's label: the
    /// headers, the column order, each column's field, scale and
    /// decimals, the group lines and the blank line between layouts.
    /// Every second row reads lower throughput and delivery and higher
    /// jitter, so a group column that reads the wrong member shows.
    #[test]
    fn every_layout_renders_a_known_answer() {
        let synthetic = RunResult {
            label: "",
            duration_s: 12.34,
            throughput_kbps: 456.78,
            inter_arrival_s: 0.01234,
            jitter_s: 0.005678,
            tagged_delay_ms: 9.876,
            tagged_jitter_ms: 3.456,
            msgs_offered: 0,
            msgs_delivered: 0,
            delivered_pct: 87.61,
            jitter_series: iq_metrics::TimeSeries::new(),
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
        let rendered: Vec<String> = TABLES
            .iter()
            .chain(&ABLATIONS)
            .map(|exp| {
                let results: Vec<RunResult> = (exp.rows)(Size::SMOKE)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (label, _))| {
                        let odd = (i % 2) as f64;
                        RunResult {
                            label,
                            throughput_kbps: synthetic.throughput_kbps - 100.0 * odd,
                            jitter_s: synthetic.jitter_s * (1.0 + odd),
                            tagged_jitter_ms: synthetic.tagged_jitter_ms + odd,
                            delivered_pct: synthetic.delivered_pct - 10.0 * odd,
                            ..synthetic.clone()
                        }
                    })
                    .collect();
                render(exp, &results)
            })
            .collect();
        // The last column's padding is trimmed: this file keeps no
        // trailing spaces.
        let rendered = rendered.join("\n");
        let trimmed: Vec<&str> = rendered.lines().map(str::trim_end).collect();
        assert_eq!(trimmed.join("\n"), KNOWN_ANSWER);
    }

    const KNOWN_ANSWER: &str = r#"== Table 1: Basic performance comparison ==
Transport Tested           Time(s)  Throughput(KB/s)  Inter-arrival(s)  Jitter(s)
---------------------------------------------------------------------------------
TCP                        12.3     456.8             0.012             0.006
IQ-RUDP                    12.3     356.8             0.012             0.011
App adaptation only        12.3     456.8             0.012             0.006
IQ-RUDP w/ app adaptation  12.3     356.8             0.012             0.011

== Table 2: Fairness test (vs TCP cross flow) ==
Transport Tested  Time(s)  Throughput(KB/s)  Inter-arrival(s)  Jitter(s)
------------------------------------------------------------------------
TCP               12.3     456.8             0.012             0.006
IQ-RUDP           12.3     356.8             0.012             0.011

== Table 3: Coordination against conflict - changing application ==
Scheme   Duration(s)  Mesgs Recvd(%)  Tagged Delay(ms)  Tagged Jitter(ms)  Delay(ms)  Jitter(ms)
------------------------------------------------------------------------------------------------
IQ-RUDP  12.3         87.6            9.9               3.46               12.3       5.68
RUDP     12.3         77.6            9.9               4.46               12.3       11.36

== Table 4: Coordination against conflict - changing network ==
Scheme   Duration(s)  Mesgs Recvd(%)  Tagged Delay(ms)  Tagged Jitter(ms)  Delay(ms)  Jitter(ms)
------------------------------------------------------------------------------------------------
IQ-RUDP  12.3         87.6            9.9               3.46               12.3       5.68
RUDP     12.3         77.6            9.9               4.46               12.3       11.36

== Table 5: Coordination against overreaction - changing app ==
Scheme   Throughput(KB/s)  Duration(s)  Delay(ms)  Jitter(ms)
-------------------------------------------------------------
IQ-RUDP  456.8             12.3         12.34      5.68
RUDP     356.8             12.3         12.34      11.36

== Table 6: Coordination against overreaction - changing network ==
Scheme          Throughput(KB/s)  Duration(s)  Delay(ms)  Jitter(ms)
--------------------------------------------------------------------
12Mbps IQ-RUDP  456.8             12.3         12.34      5.68
12Mbps RUDP     356.8             12.3         12.34      11.36
16Mbps IQ-RUDP  456.8             12.3         12.34      5.68
16Mbps RUDP     356.8             12.3         12.34      11.36
18Mbps IQ-RUDP  456.8             12.3         12.34      5.68
18Mbps RUDP     356.8             12.3         12.34      11.36

== Table 7: Limited adaptation granularity - changing app ==
Scheme                  Throughput(KB/s)  Duration(s)  Delay(ms)  Jitter(ms)
----------------------------------------------------------------------------
IQ-RUDP w/o ADAPT_COND  456.8             12.3         12.34      5.68
RUDP                    356.8             12.3         12.34      11.36

== Table 8: Limited adaptation granularity - changing network ==
Scheme                  Throughput(KB/s)  Duration(s)  Delay(ms)  Jitter(ms)
----------------------------------------------------------------------------
IQ-RUDP w/ ADAPT_COND   456.8             12.3         12.34      5.68
IQ-RUDP w/o ADAPT_COND  356.8             12.3         12.34      11.36
RUDP                    456.8             12.3         12.34      5.68

== Table 9: Coordination benefit across congestion controllers ==
Scheme                    Duration(s)  Mesgs Recvd(%)  Tagged Delay(ms)  Tagged Jitter(ms)  Delay(ms)  Jitter(ms)
-----------------------------------------------------------------------------------------------------------------
LDA / coordinated         12.3         87.6            9.9               3.46               12.3       5.68
LDA / uncoordinated       12.3         77.6            9.9               4.46               12.3       11.36
CUBIC / coordinated       12.3         87.6            9.9               3.46               12.3       5.68
CUBIC / uncoordinated     12.3         77.6            9.9               4.46               12.3       11.36
BBR-like / coordinated    12.3         87.6            9.9               3.46               12.3       5.68
BBR-like / uncoordinated  12.3         77.6            9.9               4.46               12.3       11.36
RRR / coordinated         12.3         87.6            9.9               3.46               12.3       5.68
RRR / uncoordinated       12.3         77.6            9.9               4.46               12.3       11.36

== Coordination benefit (coordinated - uncoordinated) ==
Controller  dRecvd(pp)  dTaggedJitter(ms)  dJitter(ms)
------------------------------------------------------
LDA         10.0        -1.00              -5.68
CUBIC       10.0        -1.00              -5.68
BBR-like    10.0        -1.00              -5.68
RRR         10.0        -1.00              -5.68

== Ablation: measuring period (over-reaction workload) ==
Period(ms)  IQ tp(KB/s)  RUDP tp  IQ jitter(ms)  RUDP jitter
------------------------------------------------------------
50          456.8        356.8    5.68           11.36
100         456.8        356.8    5.68           11.36
200         456.8        356.8    5.68           11.36
400         456.8        356.8    5.68           11.36

== Ablation: adaptation dimension (coordinated, same workload) ==
Policy                 Duration(s)  Thpt(KB/s)  Delivered(%)  Jitter(ms)
------------------------------------------------------------------------
none                   12.3         456.8       87.6          5.68
frequency              12.3         356.8       77.6          11.36
resolution             12.3         456.8       87.6          5.68
reliability (marking)  12.3         356.8       77.6          11.36

== Ablation: receiver loss tolerance (reliability workload) ==
Tolerance  Duration(s)  Delivered(%)  Tagged delay(ms)  Tagged jitter(ms)
-------------------------------------------------------------------------
0.0        12.3         87.6          9.88              3.46
0.2        12.3         77.6          9.88              4.46
0.4        12.3         87.6          9.88              3.46
0.6        12.3         77.6          9.88              4.46

== Ablation: bottleneck queue discipline (over-reaction workload) ==
Queue      IQ tp(KB/s)  RUDP tp  IQ jitter(ms)  RUDP jitter
-----------------------------------------------------------
drop-tail  456.8        356.8    5.68           11.36
RED        456.8        356.8    5.68           11.36"#;

    #[test]
    fn size_scaling_bounds() {
        assert_eq!(Size::FULL.frames(1000), 1000);
        assert_eq!(Size(0.5).frames(1000), 500);
        assert_eq!(Size(0.0001).frames(1000), 40);
    }
}
