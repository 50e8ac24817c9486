//! End-to-end checks of the bounded model checker: clean scenarios
//! verify, explored-state counts are deterministic (and pinned, so CI
//! notices state-space drift), every seeded mutation is caught with a
//! replayable minimal counterexample, and on the real code all three
//! invariants hold across every explored interleaving.

use iq_mc::{check, replay, scenario, scenario_with_cc, CheckerConfig, Invariant, Mutation, World};
use iq_rudp::CcAlgorithm;

fn cfg(max_depth: u32, drop_budget: u32) -> CheckerConfig {
    CheckerConfig {
        max_depth,
        drop_budget,
        tick_budget: 2,
    }
}

#[test]
fn basic_scenario_is_clean_and_complete() {
    let spec = scenario("basic").unwrap();
    let report = check(&spec, Mutation::None, &cfg(30, 1));
    assert!(
        report.counterexample.is_none(),
        "violation on main: {report:?}"
    );
    assert!(
        report.complete,
        "basic space should close under the budgets"
    );
    assert_eq!(report.depth_reached, 11);
    // Pinned: a change here means the protocol state space changed —
    // deliberate protocol changes update the pin, anything else is a
    // determinism or hashing regression.
    assert_eq!(report.explored, 5289);
}

#[test]
fn basic_scenario_is_clean_and_complete_under_cubic() {
    // The coordination invariants are controller-independent: the same
    // space closes (and stays clean) when the transport runs CUBIC.
    // CUBIC's extra digest state (w_max, ssthresh, K, epoch age) makes
    // the count differ from LDA's — both pins are deliberate.
    let spec = scenario_with_cc("basic", CcAlgorithm::from_name("cubic").unwrap()).unwrap();
    let report = check(&spec, Mutation::None, &cfg(30, 1));
    assert!(
        report.counterexample.is_none(),
        "violation on main: {report:?}"
    );
    assert!(report.complete, "basic space should close under cubic");
    assert_eq!(report.depth_reached, 11);
    assert_eq!(report.explored, 5477);
}

#[test]
fn basic_scenario_is_clean_and_complete_under_bbr() {
    let spec = scenario_with_cc("basic", CcAlgorithm::from_name("bbr").unwrap()).unwrap();
    let report = check(&spec, Mutation::None, &cfg(30, 1));
    assert!(
        report.counterexample.is_none(),
        "violation on main: {report:?}"
    );
    assert!(report.complete, "basic space should close under bbr");
    assert_eq!(report.explored, 5268);
}

#[test]
fn basic_scenario_is_clean_and_complete_under_rrr_and_fixed() {
    // The two controllers ROADMAP 4(d) asks about first. Both digest
    // one f64, like LDA; on this script the counts come out equal to
    // LDA's and BBR's respectively.
    for (cc, states) in [("rrr", 5289), ("fixed", 5268)] {
        let spec = scenario_with_cc("basic", CcAlgorithm::from_name(cc).unwrap()).unwrap();
        let report = check(&spec, Mutation::None, &cfg(30, 1));
        assert!(
            report.counterexample.is_none(),
            "violation under {cc}: {report:?}"
        );
        assert!(report.complete, "basic space should close under {cc}");
        assert_eq!(report.depth_reached, 11, "{cc}");
        assert_eq!(report.explored, states, "{cc}");
    }
}

#[test]
fn lda_pin_is_unchanged_by_cc_selection_plumbing() {
    // `scenario(name)` and `scenario_with_cc(name, lda)` must be the
    // same state space bit-for-bit: the trait refactor may not move
    // LDA's trajectories or digests.
    let spec = scenario_with_cc("basic", CcAlgorithm::default()).unwrap();
    let report = check(&spec, Mutation::None, &cfg(30, 1));
    assert_eq!(report.explored, 5289);
    assert_eq!(report.depth_reached, 11);
}

#[test]
fn deferred_scenario_is_clean_at_bounded_depth() {
    let spec = scenario("deferred").unwrap();
    let report = check(&spec, Mutation::None, &cfg(10, 0));
    assert!(
        report.counterexample.is_none(),
        "violation on main: {report:?}"
    );
    assert_eq!(report.explored, 144_704);
}

#[test]
fn deferred_scenario_with_a_drop_matches_the_benchmark_count() {
    // The repo benchmark's `mc_explore` input, which its harness holds
    // to this exact count. Depth 7 of the same input is the hasher's
    // collision check: both counts were first measured under byte-wise
    // FNV-1a, and a count is the same under any hash that does not
    // collide on the space — a collision would merge two states and
    // lower it.
    let spec = scenario("deferred").unwrap();
    let shallow = check(&spec, Mutation::None, &cfg(7, 1));
    assert_eq!(shallow.explored, 7_165);
    let report = check(&spec, Mutation::None, &cfg(10, 1));
    assert!(
        report.counterexample.is_none(),
        "violation on main: {report:?}"
    );
    assert_eq!(report.depth_reached, 10);
    assert!(!report.complete);
    assert_eq!(report.explored, 381_099);
    // Depths 1, 2, 4, 8 and 10, where every depth to 10 made 529,897
    // expansions: the same answer for 28.1 % fewer.
    assert_eq!(report.work, 3 + 9 + 110 + 28_965 + 381_099);
}

#[test]
fn deferred_scenario_is_clean_with_two_drops() {
    // ROADMAP 4(d)'s reach: coordinator + deferral + more than one loss.
    let spec = scenario("deferred").unwrap();
    let report = check(&spec, Mutation::None, &cfg(10, 2));
    assert!(
        report.counterexample.is_none(),
        "violation on main: {report:?}"
    );
    assert_eq!(report.explored, 500_170);
}

#[test]
fn two_flow_scenario_is_clean_under_rrr_with_a_drop() {
    // ROADMAP 4(d)'s reach: cross-flow interleavings under a rate-based
    // controller (Relative Rate Reduction).
    let spec = scenario_with_cc("two-flow", CcAlgorithm::from_name("rrr").unwrap()).unwrap();
    let report = check(&spec, Mutation::None, &cfg(8, 1));
    assert!(
        report.counterexample.is_none(),
        "violation under rrr: {report:?}"
    );
    assert_eq!(report.explored, 381_714);
}

#[test]
fn two_flow_scenario_is_clean_at_bounded_depth() {
    let spec = scenario("two-flow").unwrap();
    let report = check(&spec, Mutation::None, &cfg(8, 0));
    assert!(
        report.counterexample.is_none(),
        "violation on main: {report:?}"
    );
    assert_eq!(report.explored, 149_404);
}

#[test]
fn two_flow_scenario_is_exhausted_without_timers() {
    // With the timer axis off, the cross-flow delivery/app interleaving
    // space closes: every reachable interleaving is checked.
    let spec = scenario("two-flow").unwrap();
    let config = CheckerConfig {
        max_depth: 30,
        drop_budget: 0,
        tick_budget: 0,
    };
    let report = check(&spec, Mutation::None, &config);
    assert!(
        report.counterexample.is_none(),
        "violation on main: {report:?}"
    );
    assert!(report.complete, "two-flow space should close without ticks");
    assert_eq!(report.depth_reached, 12);
    assert_eq!(report.explored, 61_858);
}

#[test]
fn exploration_is_deterministic() {
    let spec = scenario("basic").unwrap();
    let a = check(&spec, Mutation::None, &cfg(30, 1));
    let b = check(&spec, Mutation::None, &cfg(30, 1));
    assert_eq!(a.explored, b.explored);
    assert_eq!(a.depth_reached, b.depth_reached);
}

#[test]
fn clone_from_into_a_pooled_world_equals_clone() {
    // The checker refills pooled worlds with `clone_from`; along a walk
    // that mixes application steps, deliveries, drops and ticks, a
    // refilled world must be indistinguishable from a fresh clone — by
    // hash, by enabled choices, and by where every choice leads. The
    // pooled world is left one transition *ahead* each time, so the
    // next refill overwrites queues and rings that are out of step.
    for name in ["deferred", "two-flow"] {
        let spec = scenario(name).unwrap();
        let mut world = World::new(spec.clone(), Mutation::None, 1, 2);
        let mut pooled = world.clone();
        for step in 0.. {
            pooled.clone_from(&world);
            let fresh = world.clone();
            assert_eq!(
                pooled.state_hash(),
                fresh.state_hash(),
                "{name} step {step}"
            );
            assert_eq!(
                pooled.state_hash(),
                world.state_hash(),
                "{name} step {step}"
            );
            let choices = world.choices();
            assert_eq!(pooled.choices(), choices, "{name} step {step}");
            assert_eq!(pooled.now, world.now);
            for &choice in &choices {
                let (mut a, mut b) = (fresh.clone(), fresh.clone());
                b.clone_from(&pooled);
                assert!(a.apply(choice).is_none() && b.apply(choice).is_none());
                assert_eq!(
                    a.state_hash(),
                    b.state_hash(),
                    "{name} step {step} {choice}"
                );
            }
            let Some(&last) = choices.last() else { break };
            let _ = pooled.apply(last);
            let _ = world.apply(choices[(3 + 7 * step) % choices.len()]);
        }
        assert!(world.quiescent(), "{name}: the walk runs the scenario out");
    }
}

/// Runs a seeded mutation, asserts the checker catches it with the
/// expected invariant, and that replaying the recorded trace
/// reproduces the identical violation.
fn catches(scenario_name: &str, mutation: Mutation, expected: Invariant) {
    let spec = scenario(scenario_name).unwrap();
    let config = cfg(10, 0);
    let report = check(&spec, mutation, &config);
    let ce = report
        .counterexample
        .unwrap_or_else(|| panic!("{mutation:?} not caught on {scenario_name}"));
    assert_eq!(ce.violation.invariant, expected, "{}", ce.violation);
    assert_eq!(
        ce.trace.len() as u32,
        report.depth_reached,
        "iterative deepening should make the trace minimal"
    );
    let replayed = replay(&spec, mutation, &config, &ce.trace)
        .expect("replaying the counterexample must reproduce the violation");
    assert_eq!(replayed.invariant, ce.violation.invariant);
    assert_eq!(replayed.flow, ce.violation.flow);
    assert_eq!(replayed.step, ce.violation.step);
}

#[test]
fn seeded_reinflate_bug_is_caught() {
    catches("basic", Mutation::SkipReinflate, Invariant::Reinflation);
}

#[test]
fn seeded_reinflate_bug_is_caught_under_cubic() {
    // The invariants keep their teeth on a non-LDA controller.
    let spec = scenario_with_cc("basic", CcAlgorithm::from_name("cubic").unwrap()).unwrap();
    let config = cfg(10, 0);
    let report = check(&spec, Mutation::SkipReinflate, &config);
    let ce = report
        .counterexample
        .expect("SkipReinflate not caught under cubic");
    assert_eq!(ce.violation.invariant, Invariant::Reinflation);
    let replayed = replay(&spec, Mutation::SkipReinflate, &config, &ce.trace)
        .expect("replaying the counterexample must reproduce the violation");
    assert_eq!(replayed.invariant, Invariant::Reinflation);
}

#[test]
fn seeded_cond_correction_bug_is_caught() {
    catches(
        "deferred",
        Mutation::DropCondCorrection,
        Invariant::CondCorrection,
    );
}

#[test]
fn seeded_deferral_bug_is_caught() {
    catches("deferred", Mutation::IgnoreDeferral, Invariant::Deferral);
}

#[test]
fn replay_rejects_a_foreign_trace() {
    let spec = scenario("basic").unwrap();
    // Deliver-data at index 5 is never enabled in the initial state.
    let trace = [iq_mc::Choice::DeliverData { flow: 0, idx: 5 }];
    assert!(replay(&spec, Mutation::None, &cfg(10, 0), &trace).is_none());
}

#[test]
fn replay_reproduces_only_a_trace_that_ends_at_its_violation() {
    // A trace that breaks before its last choice, or not at all, is not
    // the counterexample it claims to be: `replay` returned the first
    // violation it met, so one more enabled choice after the breaking
    // one still "reproduced".
    for (name, mutation) in [
        ("basic", Mutation::SkipReinflate),
        ("deferred", Mutation::DropCondCorrection),
        ("deferred", Mutation::IgnoreDeferral),
    ] {
        let spec = scenario(name).unwrap();
        let config = cfg(10, 0);
        let ce = check(&spec, mutation, &config).counterexample.unwrap();
        assert!(replay(&spec, mutation, &config, &ce.trace).is_some());

        let mut world = World::new(
            spec.clone(),
            mutation,
            config.drop_budget,
            config.tick_budget,
        );
        let (&last, path) = ce.trace.split_last().unwrap();
        for &choice in path {
            assert!(world.apply(choice).is_none());
        }
        assert!(world.apply(last).is_some());
        let after = *world
            .choices()
            .first()
            .expect("a choice is enabled past the violation");
        let longer = [ce.trace.as_slice(), &[after]].concat();
        assert!(
            replay(&spec, mutation, &config, &longer).is_none(),
            "{name} {mutation:?} + {after}"
        );
        assert!(
            replay(&spec, mutation, &config, path).is_none(),
            "{name} {mutation:?} minus its last"
        );
    }
}
