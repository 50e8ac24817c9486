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

use crate::runner::{Executor, ScenarioSpec};
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

/// The input seed that experiment seed `seed` gives where seed 0 gives
/// `literal`, for every trace seed and every row's base sim seed. Seed 0
/// is the identity and any other moves every input: `literal` is xored
/// with SplitMix64's finalizer of `seed` times an odd constant, a
/// bijection that maps only 0 to 0.
pub fn seeded(seed: u64, literal: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    literal ^ z ^ (z >> 31)
}

/// How many draws `iqrudp tables` and `figures` take of a drawing row.
pub const DRAWS: u32 = 3;

/// A row that has run: its label and its runs, one per draw.
#[derive(Debug, Clone)]
pub struct Row {
    /// The row's label.
    pub label: &'static str,
    /// Its runs in draw order; one when its world draws nothing.
    pub runs: Vec<RunResult>,
}

impl Row {
    /// The mean of `f` over the runs, summed in draw order (one: its own).
    pub fn mean(&self, f: impl Fn(&RunResult) -> f64) -> f64 {
        self.runs.iter().map(f).sum::<f64>() / self.runs.len() as f64
    }
}

/// One printed column: its header and what it shows for one group of
/// consecutive rows.
pub type Column = (&'static str, fn(&[Row]) -> String);

/// One printed table of an experiment.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// The table's title.
    pub title: &'static str,
    /// How many consecutive rows one printed line covers.
    pub group: usize,
    /// The columns, left to right.
    pub columns: &'static [Column],
}

/// A layout of one printed line per row.
pub(crate) const fn per_row(title: &'static str, columns: &'static [Column]) -> Layout {
    Layout {
        title,
        group: 1,
        columns,
    }
}

/// One table or ablation: the scenarios it runs and how it prints them.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Its name on the command line (`iqrudp tables t3`).
    pub name: &'static str,
    /// The rows at a size and at the inputs [`seeded`] from a seed.
    pub rows: fn(Size, u64) -> Rows,
    /// What [`render`] prints, in order.
    pub layouts: &'static [Layout],
}

/// Whether a run of `sc` samples an RNG, so that another sim seed may
/// change its result: the marking policy's unmark draw and a RED
/// bottleneck's early drop are the only consumers a dumbbell world has.
fn draws_randomness(sc: &Scenario) -> bool {
    sc.policy == PolicySpec::Marking || sc.red_bottleneck
}

/// Runs every row of `exp` at `size` and `seed` as one
/// [`Executor::run`] batch: `draws` times at sim seeds 7,919 apart when
/// the row draws randomness, once otherwise.
pub fn run(exp: &Experiment, exec: &Executor, size: Size, seed: u64, draws: u32) -> Vec<Row> {
    let rows = (exp.rows)(size, seed);
    let runs = |sc: &Scenario| {
        if draws_randomness(sc) {
            u64::from(draws.max(1))
        } else {
            1
        }
    };
    let specs: Vec<ScenarioSpec> = rows
        .iter()
        .flat_map(|(_, sc)| (0..runs(sc)).map(move |i| (sc, sc.seed.wrapping_add(i * 7919))))
        .map(|(sc, seed)| ScenarioSpec::from(Scenario { seed, ..sc.clone() }))
        .collect();
    let mut results = exec.run(&specs).into_iter().map(|r| r.result);
    rows.iter()
        .map(|(label, sc)| Row {
            label,
            runs: results.by_ref().take(runs(sc) as usize).collect(),
        })
        .collect()
}

/// Renders every layout of `exp` over its `rows`, a blank line between two.
pub fn render(exp: &Experiment, rows: &[Row]) -> String {
    let tables: Vec<String> = exp
        .layouts
        .iter()
        .map(|layout| {
            let headers: Vec<&str> = layout.columns.iter().map(|c| c.0).collect();
            let mut t = Table::new(layout.title, &headers);
            for group in rows.chunks(layout.group) {
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

/// An experiment's rows: each a label and a scenario.
pub type Rows = Vec<(&'static str, Scenario)>;

/// The rows `build` makes of each labelled item, in order, each at the
/// base sim seed [`seeded`] from `seed`.
pub(crate) fn rows_at<T>(
    seed: u64,
    items: &[(&'static str, T)],
    build: impl Fn(&T) -> Scenario,
) -> Rows {
    let at_seed = |sc: Scenario| Scenario {
        seed: seeded(seed, sc.seed),
        ..sc
    };
    items
        .iter()
        .map(|(label, item)| (*label, at_seed(build(item))))
        .collect()
}

/// The comparison of §3.3–§3.5: the coordinated scheme, then its
/// uncoordinated control.
const IQ_VS_RUDP: [(&str, Scheme); 2] = [
    ("IQ-RUDP", Scheme::Coordinated),
    ("RUDP", Scheme::Uncoordinated),
];

/// [`IQ_VS_RUDP`] once per group: two rows a group, labelled by the
/// group's own pair of labels, at `seed` as [`rows_at`] takes it.
pub(crate) fn pairs<T>(
    seed: u64,
    groups: &[(T, [&'static str; 2])],
    build: impl Fn(&T, Scheme) -> Scenario,
) -> Rows {
    let build = &build;
    groups
        .iter()
        .flat_map(|(group, labels)| {
            let labelled = [0, 1].map(|i| (labels[i], IQ_VS_RUDP[i].1));
            rows_at(seed, &labelled, |&scheme| build(group, scheme))
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

/// The first row's label.
pub(crate) fn label(g: &[Row]) -> String {
    g[0].label.to_string()
}

/// What a group's labels share: the first label up to its ` /`.
pub(crate) fn group_label(g: &[Row]) -> String {
    g[0].label
        .split(" /")
        .next()
        .unwrap_or_default()
        .to_string()
}

/// What coordinating changed `f` by: a pair's first row's mean less its
/// second's.
fn gain(g: &[Row], f: fn(&RunResult) -> f64) -> f64 {
    g[0].mean(f) - g[1].mean(f)
}

/// Time, throughput, inter-arrival and jitter, in seconds (Tables 1
/// and 2).
const TIME_TP_IA_JITTER: &[Column] = &[
    ("Transport Tested", label),
    ("Time(s)", |g| fmt(g[0].mean(|r| r.duration_s), 1)),
    ("Throughput(KB/s)", |g| {
        fmt(g[0].mean(|r| r.throughput_kbps), 1)
    }),
    ("Inter-arrival(s)", |g| {
        fmt(g[0].mean(|r| r.inter_arrival_s), 3)
    }),
    ("Jitter(s)", |g| fmt(g[0].mean(|r| r.jitter_s), 3)),
];

/// The conflict columns (Tables 3, 4 and 9): how much arrived, and how
/// late the tagged and all messages were.
const CONFLICT: &[Column] = &[
    ("Scheme", label),
    ("Duration(s)", |g| fmt(g[0].mean(|r| r.duration_s), 1)),
    ("Mesgs Recvd(%)", |g| fmt(g[0].mean(|r| r.delivered_pct), 1)),
    ("Tagged Delay(ms)", |g| {
        fmt(g[0].mean(|r| r.tagged_delay_ms), 1)
    }),
    ("Tagged Jitter(ms)", |g| {
        fmt(g[0].mean(|r| r.tagged_jitter_ms), 2)
    }),
    ("Delay(ms)", |g| {
        fmt(g[0].mean(|r| r.inter_arrival_s) * 1e3, 1)
    }),
    ("Jitter(ms)", |g| fmt(g[0].mean(|r| r.jitter_s) * 1e3, 2)),
];

/// The over-reaction columns (Tables 5–8): throughput first.
const OVERREACTION: &[Column] = &[
    ("Scheme", label),
    ("Throughput(KB/s)", |g| {
        fmt(g[0].mean(|r| r.throughput_kbps), 1)
    }),
    ("Duration(s)", |g| fmt(g[0].mean(|r| r.duration_s), 1)),
    ("Delay(ms)", |g| {
        fmt(g[0].mean(|r| r.inter_arrival_s) * 1e3, 2)
    }),
    ("Jitter(ms)", |g| fmt(g[0].mean(|r| r.jitter_s) * 1e3, 2)),
];

/// Table 1: basic performance comparison under 18 Mb CBR cross traffic;
/// the two adaptive rows run the resolution policy.
const TABLE1: Experiment = Experiment {
    name: "t1",
    rows: |size, seed| {
        let frames = app_frame_sizes(size.frames(1000), seeded(seed, 7));
        let schemes = [
            ("TCP", Scheme::Tcp),
            ("IQ-RUDP", Scheme::RudpPlain),
            ("App adaptation only", Scheme::AppAdaptOnly),
            ("IQ-RUDP w/ app adaptation", Scheme::Coordinated),
        ];
        rows_at(seed, &schemes, |&scheme| {
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
    layouts: &[per_row(
        "Table 1: Basic performance comparison",
        TIME_TP_IA_JITTER,
    )],
};

/// Table 2: fairness against a competing TCP bulk flow.
const TABLE2: Experiment = Experiment {
    name: "t2",
    rows: |size, seed| {
        let frames = vec![1400u32; size.frames(4000)];
        rows_at(
            seed,
            &[("TCP", Scheme::Tcp), ("IQ-RUDP", Scheme::RudpPlain)],
            |&scheme| {
                let mut sc = Scenario::new(scheme, PolicySpec::None, frames.clone());
                sc.cross.tcp_bulk = true;
                sc.deadline_s = 300.0;
                sc
            },
        )
    },
    layouts: &[per_row(
        "Table 2: Fairness test (vs TCP cross flow)",
        TIME_TP_IA_JITTER,
    )],
};

/// Table 3: coordination against conflict, changing application — the
/// conflict workload on the MBone trace.
pub(crate) const TABLE3: Experiment = Experiment {
    name: "t3",
    rows: |size, seed| {
        let frames = app_frame_sizes(size.frames(3000), seeded(seed, 11));
        rows_at(seed, &IQ_VS_RUDP, |&scheme| {
            conflict_scenario(&frames, scheme)
        })
    },
    layouts: &[per_row(
        "Table 3: Coordination against conflict - changing application",
        CONFLICT,
    )],
};

/// Table 4: coordination against conflict, changing network — the
/// conflict workload with fixed-size datagrams sent as fast as RUDP
/// allows, plus VBR UDP cross traffic.
const TABLE4: Experiment = Experiment {
    name: "t4",
    rows: |size, seed| {
        let frames = vec![1400u32; size.frames(5000)];
        rows_at(seed, &IQ_VS_RUDP, |&scheme| {
            let mut sc = conflict_scenario(&frames, scheme);
            sc.fps = None;
            sc.cross.vbr = Some(VbrSpec {
                fps: 500.0,
                mean_bps: 6e6,
                seed: seeded(seed, 13),
            });
            sc
        })
    },
    layouts: &[per_row(
        "Table 4: Coordination against conflict - changing network",
        CONFLICT,
    )],
};

/// Table 5: coordination against over-reaction, changing application —
/// the over-reaction workload on the MBone trace.
const TABLE5: Experiment = Experiment {
    name: "t5",
    rows: |size, seed| {
        let frames = app_frame_sizes(size.frames(2000), seeded(seed, 17));
        rows_at(seed, &IQ_VS_RUDP, |&scheme| {
            overreaction_scenario(&frames, scheme)
        })
    },
    layouts: &[per_row(
        "Table 5: Coordination against overreaction - changing app",
        OVERREACTION,
    )],
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
    rows: |size, seed| {
        let frames = vec![1400u32; size.frames(4000)];
        pairs(seed, &TABLE6_IPERF, |&cbr, scheme| {
            let mut sc = Scenario::new(scheme, PolicySpec::Resolution, frames.clone());
            sc.datagram_mode = true;
            sc.thresholds = (Some(0.15), Some(0.01));
            sc.cross.cbr_bps = Some(cbr);
            sc.cross.vbr = Some(VbrSpec {
                fps: 500.0,
                mean_bps: 2.5e6,
                seed: seeded(seed, 13),
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
    rows: |size, seed| {
        let frames = app_frame_sizes(size.frames(2000), seeded(seed, 17));
        let schemes = [
            ("IQ-RUDP w/o ADAPT_COND", Scheme::Coordinated),
            ("RUDP", Scheme::Uncoordinated),
        ];
        rows_at(seed, &schemes, |&scheme| {
            let mut sc = overreaction_scenario(&frames, scheme);
            sc.policy = PolicySpec::Deferred { granularity: 20 };
            sc.measure_period = Some(time::millis(200));
            sc
        })
    },
    layouts: &[per_row(
        "Table 7: Limited adaptation granularity - changing app",
        OVERREACTION,
    )],
};

/// Table 8: limited granularity, changing network, on the 125 ms
/// one-way-delay path with a rate-based application and 16 Mb CBR plus
/// VBR cross traffic; three schemes.
const TABLE8: Experiment = Experiment {
    name: "t8",
    rows: |size, seed| {
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
        rows_at(seed, &schemes, |&scheme| {
            let mut sc = Scenario::new(
                scheme,
                PolicySpec::Deferred { granularity: 20 },
                frames.clone(),
            );
            sc.dumbbell = iq_netsim::DumbbellSpec::long_rtt(3);
            sc.fps = Some(120.0);
            sc.datagram_mode = true;
            sc.thresholds = (Some(0.10), Some(0.02));
            sc.measure_period = Some(time::millis(300));
            sc.cross.cbr_bps = Some(16e6);
            sc.cross.vbr = Some(VbrSpec {
                fps: 500.0,
                mean_bps: 3e6,
                seed: seeded(seed, 29),
            });
            sc.deadline_s = 600.0;
            sc
        })
    },
    layouts: &[per_row(
        "Table 8: Limited adaptation granularity - changing network",
        OVERREACTION,
    )],
};

/// Table 9 (not in the paper): the coordination-benefit matrix across
/// congestion controllers — the Table-3 conflict workload under every
/// adaptive [`CcAlgorithm`], coordinated then uncoordinated, to
/// stress-test the coordination schemes beyond LDA — and per controller
/// what coordinating changed.
const TABLE9: Experiment = Experiment {
    name: "t9",
    rows: |size, seed| {
        let frames = app_frame_sizes(size.frames(3000), seeded(seed, 11));
        let controllers = [
            ("lda", ["LDA / coordinated", "LDA / uncoordinated"]),
            ("cubic", ["CUBIC / coordinated", "CUBIC / uncoordinated"]),
            (
                "bbr",
                ["BBR-like / coordinated", "BBR-like / uncoordinated"],
            ),
            ("rrr", ["RRR / coordinated", "RRR / uncoordinated"]),
        ];
        pairs(seed, &controllers, |name, scheme| {
            let mut sc = conflict_scenario(&frames, scheme);
            sc.cc = CcAlgorithm::from_name(name).expect("a name CcAlgorithm::name gives");
            sc
        })
    },
    layouts: &[
        per_row(
            "Table 9: Coordination benefit across congestion controllers",
            CONFLICT,
        ),
        Layout {
            title: "Coordination benefit (coordinated - uncoordinated)",
            group: 2,
            columns: &[
                ("Controller", group_label),
                ("dRecvd(pp)", |g| fmt(gain(g, |r| r.delivered_pct), 1)),
                ("dTaggedJitter(ms)", |g| {
                    fmt(gain(g, |r| r.tagged_jitter_ms), 2)
                }),
                ("dJitter(ms)", |g| fmt(gain(g, |r| r.jitter_s) * 1e3, 2)),
            ],
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablations::ABLATIONS;
    use crate::runner::result_fingerprint;

    #[test]
    fn table_builders_have_expected_row_counts() {
        let counts: Vec<(&str, usize)> = TABLES
            .iter()
            .chain(&ABLATIONS)
            .map(|exp| (exp.name, (exp.rows)(Size::SMOKE, 0).len()))
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
            let n = (exp.rows)(Size::SMOKE, 0).len();
            for layout in exp.layouts {
                assert_eq!(n % layout.group, 0, "{}: {}", exp.name, layout.title);
            }
        }
    }

    /// Each experiment's trace seeds as the literals its rows held before
    /// [`seeded`]: (name, application-frame trace, VBR trace).
    const TRACES_AT_SEED_0: [(&str, Option<u64>, Option<u64>); 13] = [
        ("t1", Some(7), None),
        ("t2", None, None),
        ("t3", Some(11), None),
        ("t4", None, Some(13)),
        ("t5", Some(17), None),
        ("t6", None, Some(13)),
        ("t7", Some(17), None),
        ("t8", None, Some(29)),
        ("t9", Some(11), None),
        ("period", None, None),
        ("policy", None, None),
        ("tolerance", None, None),
        ("queue", None, None),
    ];

    /// Seed 0 builds the scenarios the tables always ran: the same frames,
    /// VBR seed and sim seed. Seed 1 moves every row's sim seed, every
    /// trace-driven row's frames and every VBR seed, and nothing else a
    /// seed could reach.
    #[test]
    fn the_seed_reaches_every_trace_and_sim_seed() {
        for x in [0, 7, 42, u64::MAX] {
            assert_eq!(seeded(0, x), x);
            assert!((1..1000).all(|seed| seeded(seed, x) != x), "{x}");
        }
        let sim_seed = Scenario::new(Scheme::Tcp, PolicySpec::None, Vec::new()).seed;
        let vbr_seed = |sc: &Scenario| sc.cross.vbr.as_ref().map(|v| v.seed);
        let experiments = TABLES.iter().chain(&ABLATIONS);
        for (exp, &(name, trace, vbr)) in experiments.zip(&TRACES_AT_SEED_0) {
            assert_eq!(exp.name, name);
            let (at_0, at_1) = ((exp.rows)(Size::SMOKE, 0), (exp.rows)(Size::SMOKE, 1));
            assert_eq!(at_0.len(), at_1.len(), "{name}");
            for ((label, a), (_, b)) in at_0.iter().zip(&at_1) {
                assert_eq!(a.seed, sim_seed, "{name} / {label}");
                assert_ne!(b.seed, a.seed, "{name} / {label}");
                match trace {
                    Some(trace) => {
                        let frames = app_frame_sizes(a.frame_sizes.len(), trace);
                        assert_eq!(a.frame_sizes, frames, "{name} / {label}");
                        assert_ne!(b.frame_sizes, a.frame_sizes, "{name} / {label}");
                    }
                    None => {
                        assert!(a.frame_sizes.iter().all(|&f| f == 1400), "{name} / {label}");
                        assert_eq!(b.frame_sizes, a.frame_sizes, "{name} / {label}");
                    }
                }
                assert_eq!(vbr_seed(a), vbr, "{name} / {label}");
                match (vbr, vbr_seed(b)) {
                    (Some(at_0), Some(at_1)) => assert_ne!(at_1, at_0, "{name} / {label}"),
                    (at_0, at_1) => assert_eq!((at_0, at_1), (None, None), "{name} / {label}"),
                }
            }
        }
    }

    /// A row the draw rule calls drawless gives the same result at two sim
    /// seeds, so a second draw could only repeat it; t3's rows, which mark
    /// datagrams at random, give two. One batch: the drawless rows at
    /// 0.05, t3 at the smoke size, where its losses start.
    #[test]
    fn only_a_drawing_row_runs_again() {
        let drawless: Rows = TABLES
            .iter()
            .chain(&ABLATIONS)
            .flat_map(|exp| (exp.rows)(Size(0.05), 0))
            .filter(|(_, sc)| !draws_randomness(sc))
            .collect();
        assert_eq!(drawless.len(), 32);
        let drawing = (TABLE3.rows)(Size::SMOKE, 0);
        assert!(drawing.iter().all(|(_, sc)| draws_randomness(sc)));
        let specs: Vec<ScenarioSpec> = drawless
            .iter()
            .chain(&drawing)
            .flat_map(|(_, sc)| {
                [0, 7919].map(|offset| {
                    let mut s = sc.clone();
                    s.seed += offset;
                    ScenarioSpec::from(s)
                })
            })
            .collect();
        let reports = Executor::new(0).run(&specs);
        let fingerprints: Vec<u64> = reports
            .iter()
            .map(|r| result_fingerprint(&r.result))
            .collect();
        let mut pairs = drawless.iter().chain(&drawing).zip(fingerprints.chunks(2));
        for ((label, _), f) in pairs.by_ref().take(drawless.len()) {
            assert_eq!(
                f[0], f[1],
                "{label}: drawless, yet another sim seed moved it"
            );
        }
        for ((label, _), f) in pairs {
            assert_ne!(
                f[0], f[1],
                "{label}: draws, yet another sim seed did not move it"
            );
        }
    }

    #[test]
    fn table9_covers_every_adaptive_controller_twice() {
        let rows = (TABLE9.rows)(Size::SMOKE, 0);
        let adaptive = CcAlgorithm::ALL
            .iter()
            .filter(|a| !matches!(a, CcAlgorithm::Fixed { .. }));
        for (i, alg) in adaptive.enumerate() {
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
    /// synthetic result, each row's one run, under the row's label: the
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
                let rows: Vec<Row> = (exp.rows)(Size::SMOKE, 0)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (label, _))| {
                        let odd = (i % 2) as f64;
                        let run = RunResult {
                            label,
                            throughput_kbps: synthetic.throughput_kbps - 100.0 * odd,
                            jitter_s: synthetic.jitter_s * (1.0 + odd),
                            tagged_jitter_ms: synthetic.tagged_jitter_ms + odd,
                            delivered_pct: synthetic.delivered_pct - 10.0 * odd,
                            ..synthetic.clone()
                        };
                        Row {
                            label,
                            runs: vec![run],
                        }
                    })
                    .collect();
                render(exp, &rows)
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
