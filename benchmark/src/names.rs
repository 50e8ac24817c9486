//! Every metric the benchmark prints: name, unit, which way is better,
//! and for end-to-end metrics the regression bound. `BENCHMARK.json` is
//! this table written out (`iq-benchmark manifest`); a test holds the
//! two to each other, and `README.md` has a paragraph per name.

use crate::json::{obj, Json};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Seconds one run measures; the driver passes it as `--seconds`. Long
/// enough for ≈30 repetitions, so that on a shared host every operation
/// runs undisturbed at least once; short enough that the driver's
/// 4 + 22 × 4 runs (each ≈3 s longer than this, for the cold set-up and
/// the warm-ups) and two builds take ≈45 of its 57 minutes.
pub const RUN_SECONDS: u64 = 24;

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen before a change counts as a regression. One bound
/// serves all four workloads, so it is set by the noisiest of them: on
/// the shared 2-core development host the memory-bound mega rows spread
/// 5–12 % between ten runs, the median of ten moved 8 % from one set to
/// the next, and the driver's host spread `paper_sweep` 28 %, so the
/// timings get the widest bound there is. Claims
/// smaller than that are what `ab.sh` and its paired verdicts are for.
pub const END_TO_END: [(MetricDef, f64); 4] = [
    (higher("events_per_s", "1/s"), 0.25),
    (lower("cpu_ns_per_event", "ns"), 0.25),
    (lower("peak_live_bytes", "bytes"), 0.05),
    (lower("setup_s", "s"), 0.25),
];

/// Per-layer metrics, grouped by layer (crate or module) in the order
/// the README's layer table lists them.
pub const PER_LAYER: &[MetricDef] = &[
    // experiments: world build against the repetition it is part of.
    lower("experiments.build_s", "s"),
    lower("experiments.build_share", "share"),
    lower("experiments.build_rss_bytes", "bytes"),
    lower("experiments.ns_per_event.bulk_rudp", "ns"),
    lower("experiments.ns_per_event.coordinated_cbr", "ns"),
    lower("experiments.ns_per_event.marking_vbr", "ns"),
    lower("experiments.ns_per_event.tcp_fairness", "ns"),
    lower("experiments.ns_per_event.red_lossy", "ns"),
    lower("experiments.ns_per_event.cubic_conflict", "ns"),
    lower("experiments.ns_per_event.rrr_table3", "ns"),
    // netsim.sim / netsim.link
    lower("netsim.sim.events", "count"),
    lower("netsim.sim.packets_sent", "count"),
    lower("netsim.sim.timers_fired", "count"),
    lower("netsim.sim.timer_cancel_share", "share"),
    lower("netsim.sim.loss_share", "share"),
    lower("netsim.sim.forward_ns", "ns"),
    lower("netsim.sim.timer_ns", "ns"),
    lower("netsim.link.forward_ns_overload", "ns"),
    // netsim.sched
    lower("netsim.sched.pushes", "count"),
    higher("netsim.sched.near_hit_share", "share"),
    lower("netsim.sched.wheel_share", "share"),
    lower("netsim.sched.far_spills", "count"),
    lower("netsim.sched.hold_ns_small", "ns"),
    lower("netsim.sched.hold_ns_large", "ns"),
    lower("netsim.sched.est_share", "share"),
    // netsim.packet
    higher("netsim.packet.pool_hit_share", "share"),
    lower("netsim.packet.payload_ns_inline", "ns"),
    lower("netsim.packet.payload_ns_pooled", "ns"),
    // netsim.shard
    higher("netsim.shard.workers", "count"),
    higher("netsim.shard.execute_share", "share"),
    lower("netsim.shard.sync_share", "share"),
    lower("netsim.shard.parks", "count"),
    lower("netsim.shard.steals", "count"),
    lower("netsim.shard.worker_parks", "count"),
    lower("netsim.shard.windows", "count"),
    lower("netsim.shard.ingress_msgs", "count"),
    higher("netsim.shard.speedup", "x"),
    lower("netsim.shard.cpu_overhead", "share"),
    // rudp
    lower("rudp.segments_sent", "count"),
    lower("rudp.retransmit_share", "share"),
    lower("rudp.rto", "count"),
    lower("rudp.duplicate_share", "share"),
    lower("rudp.abandoned_share", "share"),
    lower("rudp.discarded_share", "share"),
    lower("rudp.sack_truncations", "count"),
    lower("rudp.cycle_ns_hot.lda", "ns"),
    lower("rudp.cycle_ns_hot.cubic", "ns"),
    lower("rudp.cycle_ns_hot.bbr", "ns"),
    lower("rudp.cycle_ns_hot.rrr", "ns"),
    lower("rudp.cycle_ns_fleet", "ns"),
    lower("rudp.cycle_ns_lossy", "ns"),
    lower("rudp.cycle_allocs", "count"),
    lower("rudp.conn_setup_ns", "ns"),
    lower("rudp.conn_bytes_idle", "bytes"),
    lower("rudp.conn_bytes_active", "bytes"),
    lower("rudp.clone_ns", "ns"),
    lower("rudp.est_share", "share"),
    // core, echo, attrs: the coordination API.
    higher("core.window_rescales", "count"),
    higher("core.cond_corrections", "count"),
    higher("core.reliability_reports", "count"),
    higher("core.deferred_announcements", "count"),
    lower("echo.callbacks_upper", "count"),
    lower("echo.callbacks_lower", "count"),
    lower("core.report_ns", "ns"),
    lower("core.send_overhead_ns", "ns"),
    lower("echo.adapt_ns", "ns"),
    lower("attrs.list_ns", "ns"),
    lower("attrs.service_ns", "ns"),
    // tcp
    lower("tcp.cycle_ns", "ns"),
    // telemetry, obs, metrics
    lower("telemetry.disabled_emit_ns", "ns"),
    lower("telemetry.emit_ns", "ns"),
    lower("telemetry.jsonl_ns_per_record", "ns"),
    lower("obs.hist_record_ns", "ns"),
    lower("obs.collect_s", "s"),
    lower("metrics.on_message_ns", "ns"),
    lower("telemetry.observed_slowdown", "x"),
    higher("telemetry.records", "count"),
    lower("telemetry.evicted_share", "share"),
    higher("obs.series", "count"),
    // trace
    lower("trace.generate_ns_per_frame", "ns"),
    // mc
    higher("mc.states", "count"),
    higher("mc.depth_reached", "count"),
    lower("mc.clone_ns", "ns"),
    lower("mc.hash_ns", "ns"),
    lower("mc.apply_ns", "ns"),
    lower("mc.est_share", "share"),
    // host
    lower("host.user_s", "s"),
    lower("host.sys_s", "s"),
    lower("host.sys_share", "share"),
    lower("host.minor_faults", "count"),
    lower("host.major_faults", "count"),
    lower("host.invol_ctx_switches", "count"),
    lower("host.cold_rep_s", "s"),
    lower("host.peak_rss_bytes", "bytes"),
    lower("host.allocs_per_kevent", "1/kevent"),
    lower("host.bytes_per_flow", "bytes"),
    // bench: how far to trust the attribution.
    lower("bench.tracing_overhead", "share"),
    lower("bench.unattributed_share", "share"),
];

/// The regression bound of an end-to-end metric.
pub fn bound(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(def, _)| def.name == name)
        .map(|&(_, bound)| bound)
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let metric = |def: &MetricDef| {
        [
            ("name", Json::from(def.name)),
            ("unit", def.unit.into()),
            ("better", def.better.as_str().into()),
        ]
    };
    obj([
        (
            "command",
            Json::Arr(vec!["bash".into(), "benchmark/run.sh".into()]),
        ),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| obj([("name", w.name().into()), ("why", w.why().into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(def, bound)| {
                        let [n, u, b] = metric(def);
                        obj([n, u, b, ("bound", (*bound).into())])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|def| obj(metric(def))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn find(name: &str) -> Option<MetricDef> {
        END_TO_END
            .iter()
            .map(|(def, _)| def)
            .chain(PER_LAYER)
            .find(|def| def.name == name)
            .copied()
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_manifest_contract() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} is declared twice", def.name);
            assert!(
                def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                def.name,
                def.unit
            );
        }
        assert!(PER_LAYER.len() <= 128);
        for (def, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|&(_, b)| b <= bound("setup_s").unwrap()));
        for (scenario, _) in crate::workloads::paper_sweep(1, true) {
            assert!(find(&format!("experiments.ns_per_event.{scenario}")).is_some());
        }
    }

    #[test]
    fn committed_manifest_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh manifest`"
        );
    }
}
