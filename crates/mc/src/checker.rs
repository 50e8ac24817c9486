//! Bounded exploration: iterative-deepening DFS with a visited table.
//!
//! Iterative deepening buys two properties cheaply: the first
//! counterexample found is *minimal* (no shorter trace violates), and
//! an iteration that finishes without hitting its depth cutoff proves
//! the whole reachable space (under the drop budget) was covered — the
//! report's `complete` flag.
//!
//! The visited table maps a state hash to the largest remaining depth
//! it was explored with; a state is re-expanded only when revisited
//! with *more* depth to spend, the standard IDDFS memoization. All
//! iteration is over the deterministic [`World::choices`] vector — no
//! hash-map iteration anywhere — so explored-state counts are stable
//! run to run and pinned in CI.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::invariant::Violation;
use crate::world::{Choice, Mutation, ScenarioSpec, World};

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct CheckerConfig {
    /// Maximum transitions per trace.
    pub max_depth: u32,
    /// Total segment drops allowed along one trace.
    pub drop_budget: u32,
    /// Total timer firings allowed along one trace (see
    /// [`World::ticks_left`](crate::world::World::ticks_left) for why
    /// this must be bounded).
    pub tick_budget: u32,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            drop_budget: 1,
            tick_budget: 2,
        }
    }
}

/// A minimal violating trace.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The choices leading to the violation, in order.
    pub trace: Vec<Choice>,
    /// What broke on the final transition.
    pub violation: Violation,
}

/// The outcome of a bounded exploration.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Unique states expanded in the deepest iteration run.
    pub explored: u64,
    /// Depth of the deepest iteration run.
    pub depth_reached: u32,
    /// Whether that iteration covered the entire bounded space (no
    /// trace was cut off by the depth bound).
    pub complete: bool,
    /// The minimal counterexample, when a violation exists.
    pub counterexample: Option<Counterexample>,
}

/// The visited table's hasher: [`World::state_hash`] is already
/// avalanched, so the key is used as its own hash instead of being
/// SipHash'd again.
#[derive(Default)]
struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the visited table is keyed by u64 only");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One exploration's working storage, reused across the deepening
/// iterations: after the first few transitions of a run nothing here
/// allocates except the visited table's growth.
#[derive(Default)]
struct Dfs {
    /// State hash → largest remaining depth it was expanded with.
    visited: HashMap<u64, u32, BuildHasherDefault<KeyIsHash>>,
    /// The enabled choices of every state on the current path, one
    /// segment per recursion level, stacked.
    choices: Vec<Choice>,
    /// Scratch successor worlds, one per recursion level not currently
    /// on the path; refilled with `clone_from`, so their queues and
    /// rings are allocated once.
    pool: Vec<World>,
    explored: u64,
    cutoff: bool,
}

impl Dfs {
    fn run(
        &mut self,
        world: &World,
        remaining: u32,
        trace: &mut Vec<Choice>,
    ) -> Option<Counterexample> {
        match self.visited.entry(world.state_hash()) {
            Entry::Occupied(e) if *e.get() >= remaining => return None,
            Entry::Occupied(mut e) => {
                e.insert(remaining);
            }
            Entry::Vacant(e) => {
                e.insert(remaining);
            }
        }
        self.explored += 1;
        let start = self.choices.len();
        world.push_choices(&mut self.choices);
        let end = self.choices.len();
        if start == end {
            return None;
        }
        if remaining == 0 {
            self.cutoff = true;
            self.choices.truncate(start);
            return None;
        }
        let mut next = self.pool.pop().unwrap_or_else(|| world.clone());
        for i in start..end {
            let choice = self.choices[i];
            next.clone_from(world);
            trace.push(choice);
            if let Some(violation) = next.apply(choice) {
                return Some(Counterexample {
                    trace: trace.clone(),
                    violation,
                });
            }
            if let Some(ce) = self.run(&next, remaining - 1, trace) {
                return Some(ce);
            }
            trace.pop();
        }
        self.pool.push(next);
        self.choices.truncate(start);
        None
    }
}

/// Explores `spec` under `mutation` up to the configured bounds.
///
/// Runs depths `1..=max_depth` in order; returns on the first depth
/// that yields a violation (minimal counterexample) or covers the
/// space completely.
pub fn check(spec: &Arc<ScenarioSpec>, mutation: Mutation, cfg: &CheckerConfig) -> CheckReport {
    let mut report = CheckReport {
        explored: 0,
        depth_reached: 0,
        complete: false,
        counterexample: None,
    };
    let root = World::new(Arc::clone(spec), mutation, cfg.drop_budget, cfg.tick_budget);
    let mut dfs = Dfs::default();
    let mut trace = Vec::new();
    for depth in 1..=cfg.max_depth {
        // One table, cleared: never two alive, and no larger than the
        // deepest iteration grows it.
        dfs.visited.clear();
        dfs.explored = 0;
        dfs.cutoff = false;
        let found = dfs.run(&root, depth, &mut trace);
        report.explored = dfs.explored;
        report.depth_reached = depth;
        if let Some(ce) = found {
            report.counterexample = Some(ce);
            return report;
        }
        if !dfs.cutoff {
            report.complete = true;
            return report;
        }
    }
    report
}
