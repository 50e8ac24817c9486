//! Drives for `iq-mc`: what one model-checker transition is made of —
//! cloning a world, hashing it, applying a choice.

use std::hint::black_box;

use iq_mc::{Mutation, World};

use super::{ns_per_op, Budget};
use crate::workloads;

/// The worlds along a fixed walk through the `deferred` scenario: at
/// step `i` the walk takes choice `(3 + 7i) mod enabled`, which mixes
/// application steps, deliveries, drops and ticks.
pub struct Walk {
    worlds: Vec<World>,
}

impl Walk {
    pub fn new() -> Self {
        let input = workloads::mc(false);
        let mut world = World::new(
            input.spec,
            Mutation::None,
            input.cfg.drop_budget,
            input.cfg.tick_budget,
        );
        let mut worlds = vec![world.clone()];
        for i in 0..input.cfg.max_depth as usize {
            let choices = world.choices();
            if choices.is_empty() {
                break;
            }
            let violation = world.apply(choices[(3 + 7 * i) % choices.len()]);
            assert!(
                violation.is_none(),
                "the unmutated protocol violates nothing"
            );
            worlds.push(world.clone());
        }
        Self { worlds }
    }

    fn each_world(&self, budget: Budget, mut op: impl FnMut(&World)) -> f64 {
        ns_per_op(
            budget,
            || (),
            |_| {
                for _ in 0..16 {
                    for world in &self.worlds {
                        op(world);
                    }
                }
                16 * self.worlds.len() as u64
            },
        )
    }

    /// Nanoseconds per `World::clone` (and drop).
    pub fn clone_ns(&self, budget: Budget) -> f64 {
        self.each_world(budget, |w| {
            black_box(w.clone());
        })
    }

    /// Nanoseconds per `World::state_hash`.
    pub fn hash_ns(&self, budget: Budget) -> f64 {
        self.each_world(budget, |w| {
            black_box(w.state_hash());
        })
    }

    /// Nanoseconds per `World::apply` of the first enabled choice: a
    /// clone-and-apply loop minus the clone-only loop.
    pub fn apply_ns(&self, budget: Budget) -> f64 {
        let with_apply = self.each_world(budget, |w| {
            if let Some(&choice) = w.choices().first() {
                let mut next = w.clone();
                black_box(next.apply(choice));
            }
        });
        let without = self.each_world(budget, |w| {
            black_box(w.choices().first().copied());
            black_box(w.clone());
        });
        with_apply - without
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_visits_distinct_states() {
        let walk = Walk::new();
        assert!(
            walk.worlds.len() >= 6,
            "walked {} states",
            walk.worlds.len()
        );
        let mut hashes: Vec<u64> = walk.worlds.iter().map(World::state_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), walk.worlds.len());
    }
}
