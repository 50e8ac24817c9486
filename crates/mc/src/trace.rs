//! Counterexample rendering and deterministic replay.
//!
//! A counterexample is just the `Vec<Choice>` that led to the
//! violation. Because every transition is deterministic given the
//! choice sequence, re-applying the trace on a fresh [`World`]
//! reproduces the exact failing state — [`replay`] is both the
//! debugging entry point and the checker's own self-test that traces
//! are faithful.

use std::fmt;
use std::sync::Arc;

use crate::invariant::Violation;
use crate::world::{Choice, Mutation, ScenarioSpec, World};

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::App { flow } => write!(f, "app(flow {flow})"),
            Choice::DeliverData { flow, idx } => {
                write!(f, "deliver-data(flow {flow}, idx {idx})")
            }
            Choice::DropData { flow, idx } => write!(f, "drop-data(flow {flow}, idx {idx})"),
            Choice::DeliverAck { flow, idx } => {
                write!(f, "deliver-ack(flow {flow}, idx {idx})")
            }
            Choice::DropAck { flow, idx } => write!(f, "drop-ack(flow {flow}, idx {idx})"),
            Choice::Tick { flow } => write!(f, "tick(flow {flow})"),
        }
    }
}

/// Renders a trace as numbered lines, one choice per line.
pub fn render(trace: &[Choice]) -> String {
    let mut out = String::new();
    for (i, c) in trace.iter().enumerate() {
        out.push_str(&format!("  {:>3}. {c}\n", i + 1));
    }
    out
}

/// Re-applies a recorded trace on a fresh world and returns the
/// violation its final transition produces (if any).
///
/// A choice that is not enabled in the replayed state (stale index,
/// exhausted script) stops the replay and returns `None`, and so does a
/// violation before the final choice: the trace does not end where it
/// broke. A trace recorded by [`crate::check`] against the same
/// scenario, mutation, and budgets always stays enabled and violates on
/// its last choice.
pub fn replay(
    spec: &Arc<ScenarioSpec>,
    mutation: Mutation,
    cfg: &crate::checker::CheckerConfig,
    trace: &[Choice],
) -> Option<Violation> {
    let mut world = World::new(Arc::clone(spec), mutation, cfg.drop_budget, cfg.tick_budget);
    let (last, path) = trace.split_last()?;
    for choice in path {
        if !world.choices().contains(choice) || world.apply(*choice).is_some() {
            return None;
        }
    }
    if !world.choices().contains(last) {
        return None;
    }
    world.apply(*last)
}
