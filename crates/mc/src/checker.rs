//! Bounded exploration: iterative-deepening DFS with a visited table.
//!
//! Iterative deepening buys two properties cheaply: the first
//! counterexample found is *minimal* (no shorter trace violates), and
//! an iteration that finishes without hitting its depth cutoff proves
//! the whole reachable space (under the drop budget) was covered — the
//! report's `complete` flag.
//!
//! The visited table keeps, per state hash, the largest remaining depth
//! the state was expanded with; a state is re-expanded only when
//! revisited with *more* depth to spend, the standard IDDFS
//! memoization. All iteration is over the deterministic
//! [`World::choices`] vector — the table is only ever probed — so
//! explored-state counts are stable run to run and pinned in CI.
//!
//! # Which depths run
//!
//! Every iteration starts from a cleared table, so its report does not
//! depend on the iterations before it. The answer is the first depth of
//! `1..=max_depth` whose iteration *settles* — finds a violation, or
//! ends without a cutoff — else `max_depth`, and two facts let [`check`]
//! find that depth without running them all:
//!
//! 1. A violation on a transition out of a state at distance `< d` from
//!    the root is reached by every bound `≥ d`. Along a shortest path,
//!    each state is admitted with at least `d` minus its distance left
//!    (a state met with more depth than before is expanded again), so
//!    every choice out of it is taken, unless another violation ends the
//!    iteration first.
//! 2. A visited-table decision compares two remaining depths of the same
//!    state, which a larger bound raises by the same amount, so it does
//!    not depend on the bound. An iteration at `d` that ends without a
//!    cutoff therefore makes the same traversal at every larger bound.
//!
//! So an iteration that ends *clean* — no violation, and a cutoff —
//! proves every shallower one ended clean too. `check` doubles the
//! bound (1, 2, 4, 8, …, capped at `max_depth`) while iterations end
//! clean. At the first that settles it walks back over the depths it
//! skipped, from the last clean bound plus one, one at a time: the first
//! of those that settles is the answer, and the settled bound is when
//! none does. That is the iteration the every-depth loop stopped at, so
//! the report is that loop's, field for field, but for
//! [`CheckReport::work`]. On the benchmark's input the depths are 1, 2,
//! 4, 8 and 10: 410,186 expansions where every depth made 529,897. A
//! search that ends in a violation or an exhausted space can run one
//! iteration more than that loop did: the settled bound, past the
//! answer.
//!
//! # The frontier
//!
//! A state admitted with one transition left has only leaves for
//! children, and most transitions are of this kind: 360,435 of the
//! 500,473 on the benchmark's input. `Dfs::run` hands such a state to
//! `Dfs::frontier`, which applies and hashes every child first and then
//! admits all the hashes in one loop, so a leaf's hash no longer waits
//! on the visited-table probe of the leaf before it. It decides what
//! admitting each leaf as it is made would: `apply` never reads the
//! table, and the admissions keep choice order. A violation on a child
//! ends the batch after the children before it are admitted, which is
//! where a one-by-one loop stands when it meets it.

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
    /// Expansions in the deepest iteration run: a state met again with
    /// more depth left than before is expanded, and counted, again.
    pub explored: u64,
    /// Distinct states among those expansions (the visited table's
    /// occupancy when that iteration ended).
    pub distinct: u64,
    /// Depth of the deepest iteration run.
    pub depth_reached: u32,
    /// Whether that iteration covered the entire bounded space (no
    /// trace was cut off by the depth bound).
    pub complete: bool,
    /// The minimal counterexample, when a violation exists.
    pub counterexample: Option<Counterexample>,
    /// Expansions summed over every iteration run, the deepest one
    /// included: what the exploration cost, where `explored` is what its
    /// answering iteration found.
    pub work: u64,
}

/// Bits of a [`Visited`] slot that hold the depth instead of the hash.
const DEPTH_BITS: u32 = 6;
const DEPTH_MASK: u64 = (1 << DEPTH_BITS) - 1;

/// Slots in a segment past which it splits instead of doubling: 64 KiB,
/// so a split rehashes in cache and holds one segment and its two
/// halves alive, never half the table.
const SEGMENT_CAP: usize = 1 << 13;

/// The visited table: one word per state, in segments found by the
/// hash's top bits (extendible hashing), each open-addressed with linear
/// probing.
///
/// A slot is the state hash with its low [`DEPTH_BITS`] bits replaced by
/// `remaining + 1`, so 0 is an empty slot and "seen with at least this
/// much depth" is one compare on the one cache line the probe touched.
/// The 58 bits kept are the key: two states whose hashes agree on them
/// are one state to the checker (2^-58 a pair; the pinned counts are
/// what would show it).
///
/// The table is born as one 16-slot segment. A segment past three
/// quarters doubles while it is below [`SEGMENT_CAP`], and at the cap
/// splits on its next hash bit into two segments of the same length,
/// again while a half is past three quarters; the directory doubles
/// when the splitting segment's prefix is as long as the directory's.
/// Capacity is not content: `admit` answers from the (key, largest
/// remaining) pairs alone, however they are laid out.
struct Visited {
    /// Indexed by a hash's top `global` bits: the segment holding it.
    /// Each segment is named by the `2^(global - depth)` consecutive
    /// entries that share its prefix.
    directory: Vec<u32>,
    /// At least 1, so the index shift is below 64.
    global: u32,
    segments: Vec<Segment>,
    /// States held, over all segments.
    occupied: usize,
}

/// The states whose hashes agree on their top `depth` bits.
struct Segment {
    /// Power-of-two length, at most [`SEGMENT_CAP`]; at most three
    /// quarters occupied.
    slots: Vec<u64>,
    occupied: usize,
    depth: u32,
    /// `64 - log2(slots.len())`: a probe starts at the key bits just
    /// below the `depth` the segment shares.
    shift: u32,
}

impl Segment {
    fn new(len: usize, depth: u32) -> Self {
        Self {
            slots: vec![0; len],
            occupied: 0,
            depth,
            shift: u64::BITS - len.trailing_zeros(),
        }
    }

    /// Index of the first slot `word` (a hash or a slot) probes. The
    /// depth bits are masked off, so that a deep split never lets them
    /// move a key's home.
    fn home(&self, word: u64) -> usize {
        (((word & !DEPTH_MASK) << self.depth) >> self.shift) as usize
    }

    /// Stores `slot`, whose key the segment does not hold.
    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(slot);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
        self.occupied += 1;
    }

    fn overfull(&self) -> bool {
        self.occupied * 4 > self.slots.len() * 3
    }
}

impl Default for Visited {
    fn default() -> Self {
        Self {
            directory: vec![0; 2],
            global: 1,
            segments: vec![Segment::new(Self::BORN, 0)],
            occupied: 0,
        }
    }
}

impl Visited {
    /// Small enough that an exploration of a handful of states (a seeded
    /// bug found at depth 2) pays nothing to set up.
    const BORN: usize = 16;

    /// Empties the table and keeps its segments and directory.
    fn clear(&mut self) {
        for segment in &mut self.segments {
            segment.slots.fill(0);
            segment.occupied = 0;
        }
        self.occupied = 0;
    }

    /// Whether the state `hash` is to be expanded with `remaining` depth:
    /// `false` when it was already admitted with as much or more,
    /// otherwise `true` and the table now says `remaining`.
    fn admit(&mut self, hash: u64, remaining: u32) -> bool {
        debug_assert!(
            u64::from(remaining) < DEPTH_MASK,
            "`check` bounds max_depth"
        );
        let want = (hash & !DEPTH_MASK) | u64::from(remaining + 1);
        let s = self.directory[(hash >> (u64::BITS - self.global)) as usize] as usize;
        let segment = &mut self.segments[s];
        let mask = segment.slots.len() - 1;
        let mut i = segment.home(want);
        loop {
            let slot = segment.slots[i];
            if slot == 0 {
                break;
            }
            if (slot ^ want) <= DEPTH_MASK {
                // Same key, so the words order by depth.
                if slot >= want {
                    return false;
                }
                segment.slots[i] = want;
                return true;
            }
            i = (i + 1) & mask;
        }
        segment.slots[i] = want;
        segment.occupied += 1;
        self.occupied += 1;
        if segment.overfull() {
            self.grow(s);
        }
        true
    }

    /// Brings segment `s`, just past three quarters, back under: doubles
    /// it below the cap, else splits it on bit `depth`, and splits again
    /// a half that is still past three quarters.
    #[cold]
    fn grow(&mut self, s: usize) {
        let segment = &mut self.segments[s];
        let (len, depth) = (segment.slots.len(), segment.depth);
        if len < SEGMENT_CAP {
            let old = std::mem::replace(segment, Segment::new(len * 2, depth));
            for slot in old.slots.into_iter().filter(|&slot| slot != 0) {
                segment.place(slot);
            }
            return;
        }
        let old = std::mem::replace(segment, Segment::new(SEGMENT_CAP, depth + 1));
        let mut high = Segment::new(SEGMENT_CAP, depth + 1);
        let held = old.slots.iter().copied().find(|&slot| slot != 0).unwrap();
        for slot in old.slots.into_iter().filter(|&slot| slot != 0) {
            if (slot << depth) >> (u64::BITS - 1) == 0 {
                segment.place(slot);
            } else {
                high.place(slot);
            }
        }
        if depth == self.global {
            self.directory = self.directory.iter().flat_map(|&e| [e, e]).collect();
            self.global += 1;
        }
        // The entries naming `s`, those sharing its prefix with `held`:
        // the upper half of them names `high`.
        let span = 1 << (self.global - depth);
        let first = (held >> (u64::BITS - self.global)) as usize & !(span - 1);
        let h = self.segments.len();
        self.directory[first + span / 2..first + span].fill(h as u32);
        self.segments.push(high);
        for half in [s, h] {
            if self.segments[half].overfull() {
                self.grow(half);
            }
        }
    }
}

/// One exploration's working storage, reused across the deepening
/// iterations: after the first few transitions of a run nothing here
/// allocates except the visited table's growth.
#[derive(Default)]
struct Dfs {
    visited: Visited,
    /// The enabled choices of every state on the current path, one
    /// segment per recursion level, stacked.
    choices: Vec<Choice>,
    /// The choices taken from the root to the current state.
    trace: Vec<Choice>,
    /// Scratch successor worlds, one per recursion level not currently
    /// on the path; refilled with `clone_from`, so their queues and
    /// rings are allocated once.
    pool: Vec<World>,
    /// The frontier batch: each leaf child's hash, and whether it has an
    /// enabled choice (left `false` once `cutoff` is set).
    leaves: Vec<(u64, bool)>,
    explored: u64,
    cutoff: bool,
}

impl Dfs {
    /// A scratch world holding a copy of `src`: a pooled one refilled,
    /// or a fresh clone while the pool is still filling.
    fn copy_of(&mut self, src: &World) -> World {
        match self.pool.pop() {
            Some(mut world) => {
                world.clone_from(src);
                world
            }
            None => src.clone(),
        }
    }

    /// One deepening iteration: explores from `root` with `depth`
    /// transitions to spend, and reports it alone (`work` is its own
    /// expansions).
    fn iterate(&mut self, root: &World, depth: u32) -> CheckReport {
        // One table, cleared: never two alive, and no larger than the
        // deepest iteration grows it. A `run` that found a violation
        // returned without popping, so `trace` and `choices` hold its
        // path, and the walk back runs right after such a `run`.
        self.visited.clear();
        self.choices.clear();
        self.trace.clear();
        self.explored = 0;
        self.cutoff = false;
        // `run` consumes the world it is handed, so each iteration gets
        // a pooled copy of the root.
        let mut start = self.copy_of(root);
        let found = self.run(&mut start, depth);
        self.pool.push(start);
        CheckReport {
            explored: self.explored,
            distinct: self.visited.occupied as u64,
            depth_reached: depth,
            complete: found.is_none() && !self.cutoff,
            counterexample: found,
            work: self.explored,
        }
    }

    /// Explores from `world` and *consumes* it: every child but the last
    /// runs on a pooled copy, the last on `world` itself, so the caller
    /// must refill or drop `world` before reading it again. `remaining`
    /// is at least 1: `check` runs no depth 0, and the leaves at the
    /// cutoff are admitted by [`Dfs::frontier`].
    fn run(&mut self, world: &mut World, remaining: u32) -> Option<Counterexample> {
        debug_assert!(remaining >= 1, "a leaf is `frontier`'s to admit");
        if !self.visited.admit(world.state_hash(), remaining) {
            return None;
        }
        self.explored += 1;
        let start = self.choices.len();
        world.push_choices(&mut self.choices);
        let end = self.choices.len();
        if start == end {
            return None;
        }
        if remaining == 1 {
            return self.frontier(world, start);
        }
        let last = end - 1;
        if start < last {
            let mut next = self.copy_of(world);
            for i in start..last {
                if i > start {
                    next.clone_from(world);
                }
                if let Some(ce) = self.step(&mut next, self.choices[i], remaining) {
                    return Some(ce);
                }
            }
            self.pool.push(next);
        }
        let choice = self.choices[last];
        self.choices.truncate(start);
        self.step(world, choice, remaining)
    }

    /// Takes `choice` in `world` and explores from there.
    fn step(
        &mut self,
        world: &mut World,
        choice: Choice,
        remaining: u32,
    ) -> Option<Counterexample> {
        self.trace.push(choice);
        if let Some(violation) = world.apply(choice) {
            return Some(Counterexample {
                trace: self.trace.clone(),
                violation,
            });
        }
        let found = self.run(world, remaining - 1);
        self.trace.pop();
        found
    }

    /// The children of an admitted state with one transition left, whose
    /// enabled choices are `choices[start..]`, all of them leaves (the
    /// module doc's frontier). Each is applied (the last in place,
    /// consuming `world` as `run` does), hashed and tested for an enabled
    /// choice; then all are admitted in choice order, and each leaf
    /// admitted is counted and, when it has an enabled choice, marks the
    /// iteration cut off. A violation on a child admits the children
    /// before it and none after it.
    fn frontier(&mut self, world: &mut World, start: usize) -> Option<Counterexample> {
        let end = self.choices.len();
        let mut next = (start + 1 < end).then(|| self.copy_of(world));
        let mut found = None;
        self.leaves.clear();
        for i in start..end {
            let choice = self.choices[i];
            let child = match next.as_mut() {
                Some(next) if i + 1 < end => {
                    if i > start {
                        next.clone_from(world);
                    }
                    next
                }
                _ => &mut *world,
            };
            if let Some(violation) = child.apply(choice) {
                found = Some((choice, violation));
                break;
            }
            // Whether the depth bound cuts something off below this leaf.
            let open = !self.cutoff && {
                child.push_choices(&mut self.choices);
                let open = self.choices.len() > end;
                self.choices.truncate(end);
                open
            };
            self.leaves.push((child.state_hash(), open));
        }
        if let Some(next) = next {
            self.pool.push(next);
        }
        for &(hash, open) in &self.leaves {
            if self.visited.admit(hash, 0) {
                self.explored += 1;
                self.cutoff |= open;
            }
        }
        self.choices.truncate(start);
        let (choice, violation) = found?;
        self.trace.push(choice);
        Some(Counterexample {
            trace: self.trace.clone(),
            violation,
        })
    }
}

/// Explores `spec` under `mutation` up to the configured bounds.
///
/// Reports the first depth of `1..=max_depth` whose iteration yields a
/// violation (minimal counterexample) or covers the space completely,
/// else depth `max_depth`, and runs only the depths that the module
/// doc's schedule cannot skip.
pub fn check(spec: &Arc<ScenarioSpec>, mutation: Mutation, cfg: &CheckerConfig) -> CheckReport {
    assert!(
        cfg.max_depth >= 1,
        "CheckerConfig::max_depth is 0: a check runs depths 1..=max_depth, so it would admit \
         not even the root"
    );
    assert!(
        u64::from(cfg.max_depth) < DEPTH_MASK,
        "CheckerConfig::max_depth is {}: the visited table keeps a state's remaining depth \
         in {DEPTH_BITS} bits, so it must be below {DEPTH_MASK}",
        cfg.max_depth
    );
    let root = World::new(Arc::clone(spec), mutation, cfg.drop_budget, cfg.tick_budget);
    let mut dfs = Dfs::default();
    let mut work = 0;
    // The deepest bound run that ended with no violation and a cutoff
    // (depth 0 until one has), and the shallowest that ended otherwise.
    let mut clean = CheckReport {
        explored: 0,
        distinct: 0,
        depth_reached: 0,
        complete: false,
        counterexample: None,
        work: 0,
    };
    let mut settled: Option<CheckReport> = None;
    let mut report = loop {
        let depth = match settled.as_ref().map(|s| s.depth_reached) {
            None if clean.depth_reached == cfg.max_depth => break clean,
            None => (2 * clean.depth_reached).clamp(1, cfg.max_depth),
            Some(at) if at == clean.depth_reached + 1 => break settled.unwrap(),
            Some(_) => clean.depth_reached + 1,
        };
        let iteration = dfs.iterate(&root, depth);
        work += iteration.explored;
        if iteration.counterexample.is_none() && !iteration.complete {
            clean = iteration;
        } else {
            settled = Some(iteration);
        }
    };
    report.work = work;
    report
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::world::scenario;

    /// What [`Visited::admit`] replaced: a map from the 58 key bits to
    /// the largest remaining depth admitted.
    fn model_admit(model: &mut HashMap<u64, u32>, hash: u64, remaining: u32) -> bool {
        match model.get(&(hash >> DEPTH_BITS)) {
            Some(&seen) if seen >= remaining => false,
            _ => {
                model.insert(hash >> DEPTH_BITS, remaining);
                true
            }
        }
    }

    proptest! {
        /// Random `(hash, remaining)` streams against the map: fresh
        /// hashes (enough of them for three doublings and more), hashes
        /// crowded onto four home slots so that probe runs collide and
        /// wrap, repeats of an earlier hash with rising and falling
        /// `remaining`, and hashes that differ from an earlier one only
        /// below bit 6 — which alias by design. Three rounds over each
        /// stream with `clear()` between them.
        #[test]
        fn visited_matches_a_hash_map(
            ops in prop::collection::vec(
                (0u8..8, any::<u64>(), any::<usize>(), 0u32..63),
                1..400,
            ),
        ) {
            let mut table = Visited::default();
            let mut model = HashMap::new();
            let mut grown = 0;
            for round in 0..3 {
                let mut seen: Vec<u64> = Vec::new();
                for &(kind, fresh, at, remaining) in &ops {
                    let hash = match kind {
                        0..=2 => fresh,
                        3 => (fresh >> 4) | ((fresh & 3) << 62),
                        4 | 5 if !seen.is_empty() => seen[at % seen.len()],
                        6 if !seen.is_empty() => seen[at % seen.len()] ^ (fresh & DEPTH_MASK),
                        _ => fresh.rotate_left(round),
                    };
                    seen.push(hash);
                    prop_assert_eq!(
                        table.admit(hash, remaining),
                        model_admit(&mut model, hash, remaining),
                        "hash {:#x} remaining {} round {}", hash, remaining, round
                    );
                    prop_assert_eq!(table.occupied, model.len());
                    for segment in &table.segments {
                        prop_assert!(segment.slots.len().is_power_of_two());
                        prop_assert!(segment.occupied * 4 <= segment.slots.len() * 3);
                    }
                }
                let occupied: usize = table
                    .segments
                    .iter()
                    .map(|segment| segment.slots.iter().filter(|&&slot| slot != 0).count())
                    .sum();
                prop_assert_eq!(occupied, model.len());
                // Nothing shrinks, and a round that admitted more than
                // 48 states crossed 16 → 32 → 64 → 128.
                prop_assert!(capacity(&table) >= grown);
                prop_assert!(model.len() <= 48 || capacity(&table) >= 128);
                grown = capacity(&table);
                table.clear();
                model.clear();
                prop_assert_eq!(table.occupied, 0);
                for segment in &table.segments {
                    prop_assert_eq!(segment.occupied, 0);
                    prop_assert!(segment.slots.iter().all(|&slot| slot == 0));
                }
                prop_assert_eq!(capacity(&table), grown, "clear keeps the allocation");
            }
        }
    }

    fn capacity(table: &Visited) -> usize {
        table
            .segments
            .iter()
            .map(|segment| segment.slots.len())
            .sum()
    }

    /// The table's shape: the directory has `2^global` entries; each
    /// segment is at most three quarters full, a power of two no longer
    /// than [`SEGMENT_CAP`], named by exactly `2^(global - depth)`
    /// consecutive entries, and holds only words with their prefix; the
    /// segments' occupancies sum to the table's.
    fn assert_well_formed(table: &Visited) {
        assert_eq!(table.directory.len(), 1 << table.global);
        assert!(table
            .directory
            .iter()
            .all(|&e| (e as usize) < table.segments.len()));
        let mut first = vec![usize::MAX; table.segments.len()];
        for (i, &e) in table.directory.iter().enumerate().rev() {
            first[e as usize] = i;
        }
        let (mut named, mut occupied) = (0, 0);
        for (k, segment) in table.segments.iter().enumerate() {
            let len = segment.slots.len();
            assert!(
                len.is_power_of_two() && len <= SEGMENT_CAP,
                "segment {k}: {len} slots"
            );
            assert!(
                segment.occupied * 4 <= len * 3,
                "segment {k} past three quarters"
            );
            let held = segment.slots.iter().filter(|&&slot| slot != 0).count();
            assert_eq!(held, segment.occupied, "segment {k}");
            occupied += held;
            assert!(segment.depth <= table.global, "segment {k}");
            // Its entries start at a multiple of `span`, and the `span`
            // from there are its: with every segment's, that is each
            // directory entry once.
            let span = 1 << (table.global - segment.depth);
            let first = first[k];
            assert_eq!(first % span, 0, "segment {k} at depth {}", segment.depth);
            assert!(table.directory[first..first + span]
                .iter()
                .all(|&e| e as usize == k));
            named += span;
            let prefix = (first / span) as u64;
            for &slot in segment.slots.iter().filter(|&&slot| slot != 0) {
                let top = slot.checked_shr(u64::BITS - segment.depth).unwrap_or(0);
                assert_eq!(top, prefix, "segment {k} holds {slot:#x}");
            }
        }
        assert_eq!(
            named,
            table.directory.len(),
            "a segment named outside its span"
        );
        assert_eq!(occupied, table.occupied);
    }

    #[test]
    fn visited_matches_a_hash_map_past_the_split_path() {
        // The proptest stays inside the first segment; a split starts at
        // 6,144 entries. Three rounds, `clear()` between them, each
        // 12,000 mixed operations on spread hashes and then 33,000 on
        // hashes sharing their top 20 bits (over 20,000 of them fresh),
        // so that one segment splits down one side again and again: the
        // half that takes every entry is still past three quarters and
        // splits again before `admit` returns.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut table = Visited::default();
        let mut model = HashMap::new();
        let mut ops = 0;
        for round in 0..3u64 {
            let prefix = next() >> 44 << 44;
            let mut seen: Vec<u64> = Vec::new();
            let mut shared = 0;
            for i in 0..45_000 {
                let fresh = if i < 12_000 {
                    next()
                } else {
                    prefix | (next() >> 20)
                };
                let r = next();
                let hash = match r % 8 {
                    0..=3 | 7 => fresh,
                    4 | 5 if !seen.is_empty() => seen[(r >> 8) as usize % seen.len()],
                    6 if !seen.is_empty() => {
                        seen[(r >> 8) as usize % seen.len()] ^ (fresh & DEPTH_MASK)
                    }
                    _ => fresh,
                };
                shared += usize::from(hash >> 44 == prefix >> 44);
                seen.push(hash);
                // Rising and falling: a repeat draws its depth afresh.
                let remaining = (r >> 40) as u32 % 63;
                assert_eq!(
                    table.admit(hash, remaining),
                    model_admit(&mut model, hash, remaining),
                    "hash {hash:#x} remaining {remaining} round {round} op {i}"
                );
                assert_eq!(table.occupied, model.len());
                ops += 1;
            }
            assert!(
                shared >= 20_000,
                "round {round}: {shared} hashes share the prefix"
            );
            assert_well_formed(&table);
            assert!(table.segments.len() > 1, "round {round} split");
            assert!(
                table.global > 20,
                "round {round}: the shared prefix split down"
            );
            let directory = table.directory.clone();
            let lens: Vec<usize> = table.segments.iter().map(|s| s.slots.len()).collect();
            table.clear();
            model.clear();
            assert_eq!(table.occupied, 0);
            assert!(table.segments.iter().all(|s| s.occupied == 0));
            assert!(table
                .segments
                .iter()
                .all(|s| s.slots.iter().all(|&slot| slot == 0)));
            assert_eq!(table.directory, directory, "clear keeps the directory");
            let kept: Vec<usize> = table.segments.iter().map(|s| s.slots.len()).collect();
            assert_eq!(kept, lens, "clear keeps every segment");
        }
        assert!(ops >= 100_000);
    }

    #[test]
    fn run_consumes_its_copy_and_leaves_the_root_alone() {
        // `run` applies the last choice of every state to the world it
        // was handed, so that world comes back somewhere down the last
        // branch; the root it was copied from must not, and a refilled
        // copy must explore exactly as a fresh one does.
        let spec = scenario("deferred").unwrap();
        let root = World::new(spec, Mutation::None, 1, 2);
        let before = root.state_hash();
        let mut dfs = Dfs::default();
        let mut counts = Vec::new();
        for _ in 0..2 {
            dfs.visited.clear();
            dfs.explored = 0;
            let mut copy = dfs.copy_of(&root);
            assert_eq!(copy.state_hash(), before);
            assert!(dfs.run(&mut copy, 7).is_none());
            assert_ne!(copy.state_hash(), before, "the last child ran in place");
            assert_eq!(root.state_hash(), before);
            assert!(dfs.trace.is_empty() && dfs.choices.is_empty());
            counts.push((dfs.explored, dfs.visited.occupied));
            // Back to the pool as it is: the second round's copy is this
            // one or another dirty one, refilled.
            dfs.pool.push(copy);
        }
        // 7,165 is `deferred_scenario_with_a_drop_matches_the_benchmark_count`'s
        // depth-7 pin.
        assert_eq!(counts[0].0, 7_165);
        assert_eq!(counts[0], counts[1]);
    }

    /// One iteration as `Dfs::run` made it before the frontier batch,
    /// without its pool or in-place last child, so that the oracle
    /// shares no transition code with `check`: each child is cloned,
    /// applied and explored before its next sibling is touched.
    #[derive(Default)]
    struct OneByOne {
        visited: Visited,
        trace: Vec<Choice>,
        explored: u64,
        cutoff: bool,
    }

    impl OneByOne {
        fn iterate(root: &World, depth: u32) -> CheckReport {
            let mut dfs = Self::default();
            let found = dfs.run(root, depth);
            CheckReport {
                explored: dfs.explored,
                distinct: dfs.visited.occupied as u64,
                depth_reached: depth,
                complete: found.is_none() && !dfs.cutoff,
                counterexample: found,
                work: dfs.explored,
            }
        }

        fn run(&mut self, world: &World, remaining: u32) -> Option<Counterexample> {
            if !self.visited.admit(world.state_hash(), remaining) {
                return None;
            }
            self.explored += 1;
            let choices = world.choices();
            if choices.is_empty() {
                return None;
            }
            if remaining == 0 {
                self.cutoff = true;
                return None;
            }
            for choice in choices {
                let mut child = world.clone();
                self.trace.push(choice);
                if let Some(violation) = child.apply(choice) {
                    return Some(Counterexample {
                        trace: self.trace.clone(),
                        violation,
                    });
                }
                if let Some(ce) = self.run(&child, remaining - 1) {
                    return Some(ce);
                }
                self.trace.pop();
            }
            None
        }
    }

    /// What `check` ran before the doubling schedule and the frontier
    /// batch: every depth from 1, each explored one child at a time,
    /// stopping at the first iteration that yields a violation or covers
    /// the space. `work` sums what it ran.
    fn every_depth(
        spec: &Arc<ScenarioSpec>,
        mutation: Mutation,
        cfg: &CheckerConfig,
    ) -> CheckReport {
        let root = World::new(Arc::clone(spec), mutation, cfg.drop_budget, cfg.tick_budget);
        let mut report = CheckReport {
            explored: 0,
            distinct: 0,
            depth_reached: 0,
            complete: false,
            counterexample: None,
            work: 0,
        };
        let mut work = 0;
        for depth in 1..=cfg.max_depth {
            report = OneByOne::iterate(&root, depth);
            work += report.explored;
            if report.counterexample.is_some() || report.complete {
                break;
            }
        }
        report.work = work;
        report
    }

    /// Every field but `work`, which is what the schedule changes.
    fn assert_same_answer(got: &CheckReport, want: &CheckReport, what: &str) {
        assert_eq!(got.explored, want.explored, "explored: {what}");
        assert_eq!(got.distinct, want.distinct, "distinct: {what}");
        assert_eq!(
            got.depth_reached, want.depth_reached,
            "depth_reached: {what}"
        );
        assert_eq!(got.complete, want.complete, "complete: {what}");
        match (&got.counterexample, &want.counterexample) {
            (None, None) => {}
            (Some(got), Some(want)) => {
                assert_eq!(got.trace, want.trace, "trace: {what}");
                let (g, w) = (&got.violation, &want.violation);
                assert_eq!(g.invariant, w.invariant, "invariant: {what}");
                assert_eq!(g.flow, w.flow, "flow: {what}");
                assert_eq!(g.step, w.step, "step: {what}");
                assert_eq!(g.detail, w.detail, "detail: {what}");
            }
            (got, want) => panic!("counterexample {got:?}, want {want:?}: {what}"),
        }
    }

    #[test]
    fn doubling_answers_what_every_depth_answers() {
        // Each cell runs both at max_depth 1, 2, … 11, but goes no deeper
        // once the oracle's answer explores more than this many states:
        // the deep `deferred` and `two-flow` cells (and `basic` with a
        // drop and timers past depth 8) are 10^4–10^7 states each, a
        // minute and more in a debug build. What they would add is more
        // clean doublings, which the shallower depths take too; the
        // 449 cells that run take 3 s, and the CLI pins hold the deep
        // ones in release.
        const DEEPEST_ANSWER: u64 = 2_500;
        let mut cells = 0;
        for name in ["basic", "deferred", "two-flow"] {
            let spec = scenario(name).unwrap();
            for mutation in [
                Mutation::None,
                Mutation::SkipReinflate,
                Mutation::DropCondCorrection,
                Mutation::IgnoreDeferral,
            ] {
                for (drop_budget, tick_budget) in [(0, 0), (0, 2), (1, 0), (1, 2)] {
                    for max_depth in 1..=11 {
                        let cfg = CheckerConfig {
                            max_depth,
                            drop_budget,
                            tick_budget,
                        };
                        let want = every_depth(&spec, mutation, &cfg);
                        let got = check(&spec, mutation, &cfg);
                        assert_same_answer(&got, &want, &format!("{name} {mutation:?} {cfg:?}"));
                        cells += 1;
                        if want.explored > DEEPEST_ANSWER {
                            break;
                        }
                    }
                }
            }
        }
        assert!(cells > 400, "{cells} cells");

        // Every violation above is on the first child of its parent (an
        // application step, and those come first). One more cell puts it
        // on a later one, so that the frontier admits earlier siblings
        // before it returns: `two-flow` with flow 0 sending only plain
        // messages, whose minimal counterexample is flow 1's two steps,
        // with flow 0's step enabled ahead of the second.
        let two_flow = scenario("two-flow").unwrap();
        let plain = two_flow.flows[0][0].clone();
        let spec = Arc::new(ScenarioSpec {
            name: "staggered",
            flows: vec![vec![plain.clone(), plain], two_flow.flows[1].clone()],
            ..(*two_flow).clone()
        });
        let cfg = CheckerConfig {
            max_depth: 4,
            drop_budget: 1,
            tick_budget: 2,
        };
        let want = every_depth(&spec, Mutation::SkipReinflate, &cfg);
        let got = check(&spec, Mutation::SkipReinflate, &cfg);
        assert_same_answer(&got, &want, "staggered");
        let depth = got.depth_reached as usize;
        let ce = got.counterexample.expect("flow 1's adaptation is caught");
        assert_eq!(ce.trace.len(), depth, "found at the frontier");
        let (last, path) = ce.trace.split_last().unwrap();
        let mut parent = World::new(spec, Mutation::SkipReinflate, 1, 2);
        for &choice in path {
            assert!(parent.apply(choice).is_none());
        }
        let at = parent.choices().iter().position(|choice| choice == last);
        assert!(at > Some(0), "{last:?} is child {at:?} of its parent");
    }

    #[test]
    #[should_panic(expected = "CheckerConfig::max_depth is 0")]
    fn a_zero_depth_is_refused() {
        // It ran no iteration, and reported a seeded bug as not caught
        // and a clean scenario as "0 states explored" / "no violations".
        let cfg = CheckerConfig {
            max_depth: 0,
            ..CheckerConfig::default()
        };
        check(&scenario("basic").unwrap(), Mutation::None, &cfg);
    }

    #[test]
    fn the_walk_back_starts_from_an_empty_trace() {
        // `--seed-break cond --depth 10 --drops 0`: the bug is three steps
        // deep, so `check` runs depths 1, 2 and 4, then walks back to 3
        // right after depth 4 found a violation. That `run` returned
        // without popping; a depth 3 that kept its trace reported a
        // four-step "minimal" counterexample.
        let spec = scenario("deferred").unwrap();
        let root = World::new(Arc::clone(&spec), Mutation::DropCondCorrection, 0, 2);
        let mut dfs = Dfs::default();
        assert!(dfs.iterate(&root, 4).counterexample.is_some());
        assert!(!dfs.trace.is_empty(), "a violation leaves its path behind");
        let walked = dfs.iterate(&root, 3);
        assert_same_answer(
            &walked,
            &Dfs::default().iterate(&root, 3),
            "depth 3 after 4",
        );
        let cfg = CheckerConfig {
            max_depth: 10,
            drop_budget: 0,
            tick_budget: 2,
        };
        let report = check(&spec, Mutation::DropCondCorrection, &cfg);
        assert_eq!(report.depth_reached, 3);
        assert_eq!(report.counterexample.unwrap().trace.len(), 3);
        let ran = [1, 2, 4, 3].map(|depth| Dfs::default().iterate(&root, depth).explored);
        assert_eq!(report.work, ran.iter().sum::<u64>());
    }
}
