//! Explicit-state bounded model checking for the IQ-RUDP coordination
//! protocol.
//!
//! Simulation runs one interleaving per seed; coordination bugs hide in
//! the ones it never draws. This crate drives the *same* sans-io
//! protocol state machines the simulator uses — [`iq_rudp::SenderConn`],
//! [`iq_rudp::ReceiverConn`], and the [`iq_core::Coordinator`] — through
//! **every** interleaving of message delivery, reordering, bounded
//! drop, and timer firing that a small scripted scenario admits, and
//! asserts the paper's coordination contract on each application
//! transition:
//!
//! 1. **Re-inflation** (§3.4): a reported resolution adaptation with
//!    sub-MSS frames rescales the window exactly once, by the §3.4
//!    factor, clamped to the congestion-control bounds.
//! 2. **Obsolete-information correction** (§3.5, Eq. 1): in
//!    `CoordinatedWithCond` mode the factor uses the error ratio the
//!    application adapted *under* (explicit `ADAPT_COND` or the armed
//!    deferral snapshot), corrected to current conditions.
//! 3. **Deferral** (§3.5): an `ADAPT_WHEN` announcement changes nothing
//!    now and arms exactly one pending adaptation.
//!
//! ## Architecture
//!
//! * [`world`] — the checker's state: per-flow connection triples plus
//!   explicit in-flight segment sets, advanced by [`world::Choice`]
//!   transitions. Where the simulator pops the earliest pending event,
//!   the checker enumerates every enabled choice.
//! * [`invariant`] — the three contract predicates, checked against
//!   pre/post [`invariant::Snapshot`]s of a transition.
//! * [`checker`] — iterative-deepening DFS (bounds doubling, then a
//!   walk back over the skipped depths) with a visited table keyed
//!   on [`world::World::state_hash`] (one `iq_telemetry::StateHasher`
//!   pass over the full control state, timestamps taken relative to
//!   the clock so equivalent states reached at different times
//!   collide). Successor worlds come from a pool and are refilled with
//!   `clone_from`, so a transition allocates nothing in steady state.
//! * [`trace`] — human-readable counterexample traces and deterministic
//!   replay.
//!
//! Seeded mutations ([`world::Mutation`]) deliberately break one
//! coordination path at a time; the checker finding each one is the
//! self-test proving the invariants have teeth (`iqrudp mc
//! --seed-break ...`, and the `mc-smoke` CI job).

#![warn(missing_docs)]

pub mod checker;
pub mod invariant;
pub mod trace;
pub mod world;

pub use checker::{check, CheckReport, CheckerConfig, Counterexample};
pub use invariant::{Invariant, Snapshot, Violation};
pub use trace::replay;
pub use world::{
    scenario, scenario_names, scenario_with_cc, AppStep, Choice, Mutation, ScenarioSpec, World,
};
