//! The parallel experiment runner must be invisible in the results: any
//! worker count and any submission order must reproduce the serial
//! output bit-for-bit. These tests pin that contract at the integration
//! level (the unit tests in `runner.rs` cover the executor internals).

use iq_experiments::tables::{render, Experiment, Row, Size, TABLES};
use iq_experiments::{run_scenario_with, Executor, RunConfig, ScenarioReport, ScenarioSpec};
use proptest::prelude::*;

/// The table named `name`.
fn table(name: &str) -> Experiment {
    TABLES
        .into_iter()
        .find(|t| t.name == name)
        .expect("a table")
}

/// The scenarios of table `name` at `size`, under their default names.
fn table_specs(name: &str, size: Size) -> Vec<ScenarioSpec> {
    (table(name).rows)(size, 0)
        .into_iter()
        .map(|(_, sc)| ScenarioSpec::from(sc))
        .collect()
}

/// A cheap scenario set: table 1 at minimum scale (40 frames per run).
fn small_specs() -> Vec<ScenarioSpec> {
    table_specs("t1", Size(0.02))
}

#[test]
fn rendered_table_is_byte_identical_across_worker_counts() {
    let serial = Executor::new(1).run(&small_specs());
    let parallel = Executor::new(4).run(&small_specs());
    let row = |r: ScenarioReport| Row {
        label: r.result.label,
        runs: vec![r.result],
    };
    let rows_serial: Vec<_> = serial.into_iter().map(row).collect();
    let rows_parallel: Vec<_> = parallel.into_iter().map(row).collect();
    let rendered_serial = render(&table("t1"), &rows_serial);
    let rendered_parallel = render(&table("t1"), &rows_parallel);
    assert_eq!(
        rendered_serial, rendered_parallel,
        "rendered table differs between -j 1 and -j 4"
    );
    // Not vacuous: the render carries real measurements.
    assert!(rendered_serial.lines().count() >= rows_serial.len());
}

#[test]
fn conflict_table_survives_oversubscribed_pool() {
    // More workers than scenarios: workers must drain and exit cleanly
    // and order must still match declaration order.
    let specs = table_specs("t3", Size(0.05));
    let reports = Executor::new(8).run(&specs);
    assert_eq!(reports.len(), specs.len());
    for (report, spec) in reports.iter().zip(&specs) {
        assert_eq!(report.name, spec.name);
        assert!(report.wall_s >= 0.0);
        assert!(report.events_per_sec > 0.0, "no events counted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Submitting the same scenarios in any order yields, per scenario,
    /// exactly the result of running it alone: no cross-scenario state
    /// leaks through the worker pool.
    #[test]
    fn permuted_submission_order_is_result_invariant(
        swaps in prop::collection::vec((0usize..4, 0usize..4), 0..6),
        workers in 1usize..5,
    ) {
        let mut specs = small_specs();
        // Distinct seeds so every spec has a distinguishable result.
        for (i, spec) in specs.iter_mut().enumerate() {
            spec.scenario.seed = 1000 + i as u64;
        }
        // The deterministic projection of a result: every measurement
        // plus the canonical sim-plane metric text. Engine-plane data
        // (phase profiler wall-clock, pool hit/miss that depends on how
        // warm the worker thread's pool already is) is the one part of
        // a RunResult that legitimately varies with execution context.
        fn canonical(r: &iq_experiments::scenario::RunResult) -> (String, String) {
            let mut reg = r.obs.clone();
            reg.sort();
            let mut c = r.clone();
            c.phase_profile.clear();
            c.obs = iq_obs::Registry::new();
            (format!("{c:?}"), reg.sim_text())
        }
        let baseline: Vec<(String, String)> = specs
            .iter()
            .map(|s| canonical(&run_scenario_with(&s.scenario, RunConfig::default())))
            .collect();

        let mut permuted = specs.clone();
        let n = permuted.len();
        for &(a, b) in &swaps {
            permuted.swap(a % n, b % n);
        }
        let reports = Executor::new(workers).run(&permuted);
        prop_assert_eq!(reports.len(), permuted.len());
        for (report, spec) in reports.iter().zip(&permuted) {
            // Reports come back in submission order...
            prop_assert_eq!(&report.name, &spec.name);
            // ...and each carries the exact solo-run result.
            let solo = specs.iter().position(|s| s.name == spec.name).unwrap();
            prop_assert_eq!(canonical(&report.result), baseline[solo].clone());
        }
    }
}
