//! Integration tests for the coordination schemes themselves: scaled-
//! down versions of the paper's experiments asserting the *directional*
//! outcomes that define each scheme.

use iq_experiments::tables::{Size, TABLES};
use iq_experiments::{run_scenario_with, PolicySpec, RunConfig, RunResult, Scenario, Scheme};

/// A run under the default configuration: one thread, no capture.
fn run(sc: &Scenario) -> RunResult {
    run_scenario_with(sc, RunConfig::default())
}

/// The scenarios of the table named `name`, at smoke size.
fn scenarios(name: &str) -> Vec<Scenario> {
    let table = TABLES
        .into_iter()
        .find(|t| t.name == name)
        .expect("a table");
    (table.rows)(Size::SMOKE, 0)
        .into_iter()
        .map(|(_, sc)| sc)
        .collect()
}

/// §3.3 conflict: coordinated discard means fewer messages delivered
/// (within tolerance) but no slower completion than uncoordinated RUDP.
#[test]
fn conflict_coordination_trades_messages_for_time() {
    let scenarios = scenarios("t3");
    let iq = run(&scenarios[0]);
    let rudp = run(&scenarios[1]);
    assert!(iq.finished && rudp.finished);
    // The coordinated run discards unmarked datagrams...
    assert!(
        iq.msgs_delivered < rudp.msgs_delivered,
        "iq {} !< rudp {}",
        iq.msgs_delivered,
        rudp.msgs_delivered
    );
    // ...but never below the receiver's tolerance floor.
    assert!(iq.delivered_pct >= 100.0 * (1.0 - 0.40) - 1.0);
    // And it finishes no later.
    assert!(iq.duration_s <= rudp.duration_s * 1.05);
    // Only the coordinated sender discarded at the API.
    assert!(iq.sender_stats.unwrap().msgs_discarded > 0);
    assert_eq!(rudp.sender_stats.unwrap().msgs_discarded, 0);
}

/// §3.4 over-reaction: the coordinated scheme re-inflates the window
/// after reported downsampling; the uncoordinated one never rescales.
#[test]
fn overreaction_coordination_rescales_window() {
    let mut sc = Scenario::new(Scheme::Coordinated, PolicySpec::Resolution, vec![1400; 400]);
    sc.datagram_mode = true;
    sc.thresholds = (Some(0.05), Some(0.005));
    sc.cross.cbr_bps = Some(18e6);
    sc.deadline_s = 180.0;
    let iq = run(&sc);
    sc.scheme = Scheme::Uncoordinated;
    let rudp = run(&sc);

    assert!(iq.finished && rudp.finished);
    let iq_log = iq.coordination.unwrap();
    let rudp_log = rudp.coordination.unwrap();
    assert!(iq_log.window_rescales > 0, "no coordination happened");
    assert_eq!(rudp_log.window_rescales, 0);
    // Adaptation actually engaged in both runs.
    assert!(iq.callbacks.0 > 0 && rudp.callbacks.0 > 0);
}

/// §3.5 obsolete information: with ADAPT_COND the transport corrects
/// deferred adaptations; the ordering of the three schemes holds.
#[test]
fn granularity_cond_correction_orders_schemes() {
    let scenarios = scenarios("t8");
    let cond = run(&scenarios[0]);
    let nocond = run(&scenarios[1]);
    let rudp = run(&scenarios[2]);
    assert!(cond.finished && nocond.finished && rudp.finished);
    // Eq. (1) was actually used, and only in the COND scheme.
    assert!(cond.coordination.unwrap().cond_corrections > 0);
    assert_eq!(nocond.coordination.unwrap().cond_corrections, 0);
    assert_eq!(rudp.coordination.unwrap().window_rescales, 0);
    // The paper's ordering: COND does at least as well as the others.
    assert!(
        cond.throughput_kbps >= nocond.throughput_kbps * 0.98,
        "cond {} < nocond {}",
        cond.throughput_kbps,
        nocond.throughput_kbps
    );
    assert!(
        cond.throughput_kbps >= rudp.throughput_kbps * 0.98,
        "cond {} < rudp {}",
        cond.throughput_kbps,
        rudp.throughput_kbps
    );
}

/// §3.4 on the telemetry bus: every `window_reinflate` record follows
/// the down-sample that caused it within one smoothed RTT — the
/// coordination is synchronous with the application's report, not a
/// delayed side effect.
#[test]
fn reinflation_follows_downsample_within_one_rtt_on_the_bus() {
    use iq_telemetry::{parse_jsonl, TelemetryEvent};
    let mut sc = Scenario::new(Scheme::Coordinated, PolicySpec::Resolution, vec![1400; 400]);
    sc.datagram_mode = true;
    sc.thresholds = (Some(0.05), Some(0.005));
    sc.cross.cbr_bps = Some(18e6);
    sc.deadline_s = 180.0;
    let r = run_scenario_with(
        &sc,
        RunConfig {
            telemetry: true,
            ..RunConfig::default()
        },
    );
    assert!(r.finished);
    assert!(
        r.coordination.unwrap().window_rescales > 0,
        "no coordination happened"
    );

    let records = parse_jsonl(&r.telemetry).expect("captured telemetry parses");
    let mut last_downsample: Option<u64> = None;
    let mut reinflations = 0u64;
    for rec in records.iter().filter(|rec| rec.flow == 1) {
        match &rec.event {
            TelemetryEvent::AdaptPktSize { .. } => last_downsample = Some(rec.at),
            TelemetryEvent::WindowReinflate {
                srtt_ms, factor, ..
            } => {
                let t = last_downsample
                    .expect("window re-inflation without a preceding down-sample report");
                let rtt_ns = (srtt_ms * 1e6) as u64;
                assert!(
                    rec.at.saturating_sub(t) <= rtt_ns,
                    "re-inflation at {} lags its down-sample at {t} by more than \
                     one RTT ({rtt_ns} ns)",
                    rec.at
                );
                assert!(*factor > 1.0, "re-inflation factor must exceed 1");
                reinflations += 1;
            }
            _ => {}
        }
    }
    assert!(reinflations > 0, "bus carried no window_reinflate records");
}

/// The cc-disabled scheme ("app adaptation only") really runs with a
/// pinned window.
#[test]
fn app_adaptation_only_disables_congestion_control() {
    let mut sc = Scenario::new(
        Scheme::AppAdaptOnly,
        PolicySpec::Resolution,
        vec![1400; 150],
    );
    sc.datagram_mode = true;
    sc.thresholds = (Some(0.05), Some(0.005));
    sc.cross.cbr_bps = Some(17e6);
    sc.deadline_s = 180.0;
    let r = run(&sc);
    assert!(r.finished);
    // The application adapted (it is the only control loop left).
    assert!(r.callbacks.0 > 0, "app never adapted");
}

/// TCP rows run through the same harness and produce sane metrics.
#[test]
fn tcp_scheme_flows_through_harness() {
    let mut sc = Scenario::new(Scheme::Tcp, PolicySpec::None, vec![5000; 100]);
    sc.cross.cbr_bps = Some(10e6);
    sc.deadline_s = 120.0;
    let r = run(&sc);
    assert!(r.finished);
    assert!(r.throughput_kbps > 0.0);
    assert!(r.msgs_delivered > 0);
    assert!(r.coordination.is_none());
}

/// Scheme labels match the paper's row names.
#[test]
fn scheme_labels() {
    assert_eq!(Scheme::Tcp.label(), "TCP");
    assert_eq!(Scheme::Uncoordinated.label(), "RUDP");
    assert_eq!(Scheme::Coordinated.label(), "IQ-RUDP");
    assert_eq!(Scheme::CoordinatedWithCond.label(), "IQ-RUDP w/ ADAPT_COND");
}
