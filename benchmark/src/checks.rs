//! The correctness gate: every operation the benchmark times is also
//! checked, and a failed check counts against `attempted`.
//!
//! No digest is pinned in a committed file — a legitimate protocol fix
//! must not need a benchmark edit. Digests are compared between the
//! repetitions of one run (and between `mega_serial` and `mega_sharded`
//! when both ran) and printed, so an A/B shows when simulated behaviour
//! changed.

use std::collections::BTreeMap;

use iq_experiments::{RunResult, Scenario};
use iq_mc::{CheckReport, CheckerConfig, Mutation};
use iq_telemetry::Fnv64;

/// FNV-1a over everything simulated that a [`RunResult`] reports:
/// metric fields, sender stats, coordination log, jitter series and the
/// sim-plane counter fingerprint. Engine-plane fields (phase profile,
/// scheduler totals, worker count) legitimately vary and are left out,
/// as is captured telemetry (its presence depends on the run mode).
pub fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv64::new();
    for v in [
        r.duration_s,
        r.throughput_kbps,
        r.inter_arrival_s,
        r.jitter_s,
        r.tagged_delay_ms,
        r.tagged_jitter_ms,
        r.delivered_pct,
    ] {
        h.write_f64(v);
    }
    for v in [
        r.msgs_offered,
        r.msgs_delivered,
        r.callbacks.0,
        r.callbacks.1,
        r.events_processed,
    ] {
        h.write_u64(v);
    }
    h.write_bool(r.finished);
    if let Some(s) = &r.sender_stats {
        for v in [
            s.msgs_submitted,
            s.msgs_discarded,
            s.segments_sent,
            s.retransmits,
            s.segments_abandoned,
            s.segments_acked,
            s.timeouts,
            s.bytes_acked,
        ] {
            h.write_u64(v);
        }
    }
    if let Some(c) = &r.coordination {
        for v in [
            c.window_rescales,
            c.cond_corrections,
            c.reliability_reports,
            c.deferred_announcements,
            c.frequency_reports,
        ] {
            h.write_u64(v);
        }
        h.write_f64(c.cumulative_factor);
    }
    for &(t, v) in &r.jitter_series.points {
        h.write_u64(t);
        h.write_f64(v);
    }
    h.write_u64(r.obs.sim_fingerprint());
    h.finish()
}

/// Checks one simulator operation on its own: it finished before its
/// deadline, delivered no more than it offered, and delivered at least
/// what its receiver's loss tolerance allows it to drop.
pub fn check_run(sc: &Scenario, r: &RunResult) -> Result<(), String> {
    if !r.finished {
        return Err(format!(
            "did not finish within {} simulated s",
            sc.deadline_s
        ));
    }
    if r.msgs_delivered > r.msgs_offered {
        return Err(format!(
            "delivered {} of {} offered messages",
            r.msgs_delivered, r.msgs_offered
        ));
    }
    let floor = 100.0 * (1.0 - sc.loss_tolerance);
    if r.delivered_pct < floor {
        return Err(format!(
            "delivered {:.2} % of the offered messages, below the {floor:.0} % its loss \
             tolerance allows",
            r.delivered_pct
        ));
    }
    Ok(())
}

/// Checks one `iq_mc::check` report on its own.
pub fn check_mc(report: &CheckReport) -> Result<(), String> {
    match &report.counterexample {
        Some(ce) => Err(format!(
            "counterexample of {} steps: {:?}",
            ce.trace.len(),
            ce.violation
        )),
        None if report.explored == 0 => Err("explored no state".to_string()),
        None => Ok(()),
    }
}

/// Shows the checker still has teeth: under the seeded `deferral` bug it
/// must return a counterexample that `iq_mc::replay` reproduces.
pub fn check_mc_teeth(
    spec: &std::sync::Arc<iq_mc::ScenarioSpec>,
    mutation: Mutation,
    cfg: &CheckerConfig,
) -> Result<(), String> {
    let report = iq_mc::check(spec, mutation, cfg);
    let ce = report
        .counterexample
        .ok_or("the seeded deferral bug was not found: the checker lost its teeth")?;
    if iq_mc::replay(spec, mutation, cfg, &ce.trace).is_none() {
        return Err("the counterexample for the seeded bug does not replay".to_string());
    }
    Ok(())
}

/// Holds every operation of one run to the first result seen under its
/// name, and counts attempts and failures.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// First digest (or state count) seen per operation name.
    pub digests: BTreeMap<String, u64>,
    /// One line per failure, for the output.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one operation: `own` is its stand-alone check, `digest`
    /// must equal every earlier digest recorded under `name`.
    pub fn record(&mut self, name: &str, own: Result<(), String>, digest: u64) {
        self.attempted += 1;
        let first = *self.digests.entry(name.to_string()).or_insert(digest);
        let outcome = own.and_then(|()| {
            if digest == first {
                Ok(())
            } else {
                Err(format!(
                    "result {digest:#018x} differs from the first repetition's {first:#018x}"
                ))
            }
        });
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(format!("{name}: {why}"));
        }
    }

    /// Records a failure that belongs to no single operation (set-up).
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_experiments::{run_scenario, PolicySpec, Scheme};

    fn small() -> Scenario {
        let mut sc = Scenario::new(Scheme::Coordinated, PolicySpec::Resolution, vec![1400; 120]);
        sc.cross.cbr_bps = Some(12e6);
        sc.thresholds = (Some(0.10), Some(0.02));
        sc.deadline_s = 120.0;
        sc
    }

    #[test]
    fn digest_is_stable_for_a_fixed_result_and_sees_every_field_group() {
        let r = run_scenario(&small());
        assert_eq!(digest(&r), digest(&r.clone()));
        assert_eq!(digest(&r), digest(&run_scenario(&small())));

        let mut m = r.clone();
        m.msgs_delivered += 1;
        assert_ne!(digest(&r), digest(&m), "metric fields");
        let mut m = r.clone();
        m.sender_stats.as_mut().unwrap().retransmits += 1;
        assert_ne!(digest(&r), digest(&m), "sender stats");
        let mut m = r.clone();
        m.coordination.as_mut().unwrap().window_rescales += 1;
        assert_ne!(digest(&r), digest(&m), "coordination log");
        let mut m = r.clone();
        m.jitter_series.points.pop();
        assert_ne!(digest(&r), digest(&m), "jitter series");
        let mut m = r.clone();
        m.obs = iq_obs::Registry::new();
        assert_ne!(digest(&r), digest(&m), "sim-plane counters");

        // Engine-plane facts must not move it.
        let mut m = r.clone();
        m.shards_used = 9;
        m.phase_profile.clear();
        assert_eq!(digest(&r), digest(&m));
    }

    #[test]
    fn run_check_flags_unfinished_and_under_delivered_runs() {
        let sc = small();
        let r = run_scenario(&sc);
        assert_eq!(check_run(&sc, &r), Ok(()));

        let mut cut = sc.clone();
        cut.deadline_s = 0.0;
        assert!(check_run(&cut, &run_scenario(&cut))
            .unwrap_err()
            .contains("did not finish"));

        let mut m = r.clone();
        m.delivered_pct = 99.0;
        assert!(check_run(&sc, &m).unwrap_err().contains("loss tolerance"));
        let mut tolerant = sc.clone();
        tolerant.loss_tolerance = 0.4;
        assert_eq!(check_run(&tolerant, &m), Ok(()));

        let mut m = r.clone();
        m.msgs_delivered = m.msgs_offered + 1;
        assert!(check_run(&sc, &m).is_err());
    }

    #[test]
    fn gate_counts_failures_and_holds_repetitions_to_the_first_digest() {
        let mut g = Gate::default();
        g.record("a", Ok(()), 1);
        g.record("a", Ok(()), 1);
        g.record("b", Ok(()), 2);
        assert!(g.correct());
        g.record("a", Ok(()), 3);
        g.record("b", Err("broke".into()), 2);
        assert_eq!((g.attempted, g.failed), (5, 2));
        assert!(!g.correct());
        assert!(g.failures[0].starts_with("a: result"));
        assert_eq!(g.failures[1], "b: broke");
        assert_eq!(g.digests["a"], 1);
    }

    #[test]
    fn the_checker_has_teeth_and_the_real_protocol_passes() {
        let input = crate::workloads::mc(true);
        assert_eq!(
            check_mc_teeth(
                &input.spec,
                crate::workloads::mc_teeth_mutation(),
                &input.cfg
            ),
            Ok(())
        );
        // The unmutated protocol yields no counterexample, so it has no teeth.
        assert!(check_mc_teeth(&input.spec, Mutation::None, &input.cfg).is_err());
        let report = iq_mc::check(&input.spec, Mutation::None, &input.cfg);
        assert_eq!(check_mc(&report), Ok(()));
    }
}
