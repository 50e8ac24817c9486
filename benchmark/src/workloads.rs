//! The four workloads: what each one runs and why it is in the set.
//!
//! All four are closed, run-to-completion batches: nothing arrives on a
//! schedule, so there is no offered rate and no generator lateness to
//! report. Sizes are fixed here; `--seed` sets `Scenario::seed` and
//! derives the trace seeds; `--quick` shrinks everything for smoke use
//! and the output is then marked not comparable.

use std::sync::Arc;

use iq_experiments::{app_frame_sizes, PolicySpec, Scenario, Scheme, VbrSpec};
use iq_mc::{CheckerConfig, Mutation};
use iq_rudp::CcAlgorithm;

/// A workload of the benchmark; the names are those of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    MegaSerial,
    MegaSharded,
    McExplore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::MegaSerial,
        Workload::MegaSharded,
        Workload::McExplore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::MegaSerial => "mega_serial",
            Workload::MegaSharded => "mega_sharded",
            Workload::McExplore => "mc_explore",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why the workload is in the set.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSweep => {
                "seven single-flow paper scenarios on the serial simulator: per-event CPU cost \
                 with a cache-resident working set; memory and the shard engine do nothing"
            }
            Workload::MegaSerial => {
                "25,600 mixed flows over 16 shards drained inline on one core: per-flow state \
                 far past cache, world build and harvest; no scheduling effects"
            }
            Workload::MegaSharded => {
                "the same world on the worker pool (min(nproc,4) workers): ready queue, \
                 park/wake, mailboxes; a pool change shows here and nowhere else"
            }
            Workload::McExplore => {
                "bounded model check of the deferred scenario: rudp+core+echo with no netsim; \
                 every transition clones and hashes whole connections"
            }
        }
    }
}

/// The mega world at full size: 8 legs of 3,200 flows, 4 messages each.
const MEGA_LEGS: u32 = 8;
const MEGA_FLOWS_PER_LEG: u32 = 3_200;
const MEGA_MSGS_PER_FLOW: usize = 4;

/// Flows of a mega scenario; 0 for any other.
pub fn fleet_flows(sc: &Scenario) -> u64 {
    u64::from(sc.mega_legs) * u64::from(sc.incast_flows)
}

/// Worker threads `mega_sharded` asks the pool for.
pub fn sharded_workers() -> usize {
    crate::host::nproc().min(4)
}

/// Derives the `k`-th input seed of a run from `--seed`.
fn derive(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

fn scaled(full: usize, quick: bool) -> usize {
    if quick {
        (full / 10).max(40)
    } else {
        full
    }
}

/// The Table-3 conflict workload (`tables::conflict_scenario` is
/// crate-private, so it is rebuilt from the public fields).
fn conflict(frames: Vec<u32>, scheme: Scheme, cc: &str) -> Scenario {
    let mut sc = Scenario::new(scheme, PolicySpec::Marking, frames);
    sc.fps = Some(100.0);
    sc.datagram_mode = true;
    sc.loss_tolerance = 0.40;
    sc.thresholds = (Some(0.10), Some(0.02));
    sc.min_lower_gap_s = 1.5;
    sc.cross.cbr_bps = Some(12e6);
    sc.deadline_s = 600.0;
    sc.cc = CcAlgorithm::from_name(cc).expect("known controller name");
    sc
}

/// The seven single-flow shapes of the paper's evaluation, at the
/// message and frame counts `iqrudp bench 1.0` uses for them.
pub fn paper_sweep(seed: u64, quick: bool) -> Vec<(&'static str, Scenario)> {
    let frames = |n: usize, k: u64| app_frame_sizes(scaled(n, quick), derive(seed, k));
    let mut out = Vec::new();

    // Data/ACK event volume plus RTO timer churn.
    let mut sc = Scenario::new(
        Scheme::RudpPlain,
        PolicySpec::None,
        vec![1400; scaled(60_000, quick)],
    );
    sc.deadline_s = 900.0;
    out.push(("bulk_rudp", sc));

    // The paper's core workload: congestion, loss recovery, callbacks,
    // window re-inflation.
    let mut sc = Scenario::new(
        Scheme::Coordinated,
        PolicySpec::Resolution,
        frames(8_000, 1),
    );
    sc.cross.cbr_bps = Some(18e6);
    sc.thresholds = (Some(0.15), Some(0.01));
    sc.deadline_s = 900.0;
    out.push(("coordinated_cbr", sc));

    // Many small datagrams, abandonment, Fwd segments, Eq. 1.
    let mut sc = Scenario::new(
        Scheme::CoordinatedWithCond,
        PolicySpec::Marking,
        frames(12_000, 2),
    );
    sc.fps = Some(100.0);
    sc.datagram_mode = true;
    sc.loss_tolerance = 0.40;
    sc.thresholds = (Some(0.10), Some(0.02));
    sc.cross.vbr = Some(VbrSpec {
        fps: 500.0,
        mean_bps: 10e6,
        seed: derive(seed, 3),
    });
    sc.deadline_s = 600.0;
    out.push(("marking_vbr", sc));

    // The second transport: two full-speed TCP flows through one queue.
    let mut sc = Scenario::new(
        Scheme::Tcp,
        PolicySpec::None,
        vec![1400; scaled(40_000, quick)],
    );
    sc.cross.tcp_bulk = true;
    sc.deadline_s = 600.0;
    out.push(("tcp_fairness", sc));

    // RED drops drive retransmission far harder than clean congestion.
    let mut sc = Scenario::new(
        Scheme::RudpPlain,
        PolicySpec::None,
        vec![1400; scaled(25_000, quick)],
    );
    sc.red_bottleneck = true;
    sc.cross.cbr_bps = Some(14e6);
    sc.deadline_s = 900.0;
    out.push(("red_lossy", sc));

    out.push((
        "cubic_conflict",
        conflict(frames(9_000, 4), Scheme::Coordinated, "cubic"),
    ));
    out.push((
        "rrr_table3",
        conflict(frames(9_000, 5), Scheme::Uncoordinated, "rrr"),
    ));

    for (_, sc) in &mut out {
        sc.seed = seed;
    }
    out
}

/// The mega world: CUBIC/LDA/BBR/RRR × four sender classes over 16
/// shards. A quarter of `iqrudp bench`'s 102,400 flows, so that a run
/// fits many repetitions; its 250 MiB heap is still far past any cache.
pub fn mega(seed: u64, quick: bool) -> Scenario {
    let mut sc = if quick {
        Scenario::mega(MEGA_LEGS, 100, 2, 1400)
    } else {
        Scenario::mega(MEGA_LEGS, MEGA_FLOWS_PER_LEG, MEGA_MSGS_PER_FLOW, 1400)
    };
    sc.seed = seed;
    sc
}

/// What `mc_explore` checks. Exhaustive, hence seedless.
pub struct McInput {
    pub spec: Arc<iq_mc::ScenarioSpec>,
    pub cfg: CheckerConfig,
}

pub fn mc(quick: bool) -> McInput {
    McInput {
        spec: iq_mc::scenario("deferred").expect("`deferred` is a built-in scenario"),
        cfg: CheckerConfig {
            max_depth: if quick { 8 } else { 10 },
            drop_budget: 1,
            tick_budget: 2,
        },
    }
}

/// The seeded bug the checker must still find before `mc_explore` is
/// timed, so "faster by checking less" fails.
pub fn mc_teeth_mutation() -> Mutation {
    Mutation::from_name("deferral").expect("`deferral` is a built-in mutation")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_whys_fit_the_manifest() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{}: why is {} chars",
                w.name(),
                w.why().len()
            );
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn the_seed_reaches_every_generated_input() {
        let a = paper_sweep(1, true);
        let b = paper_sweep(2, true);
        assert_eq!(a.len(), 7);
        for ((name, x), (_, y)) in a.iter().zip(&b) {
            assert_ne!(x.seed, y.seed, "{name}");
        }
        // Trace-driven scenarios get different frames from different seeds,
        // and the same frames from the same seed.
        assert_ne!(a[1].1.frame_sizes, b[1].1.frame_sizes);
        assert_eq!(a[1].1.frame_sizes, paper_sweep(1, true)[1].1.frame_sizes);
        assert_ne!(mega(1, true).seed, mega(2, true).seed);
    }
}
