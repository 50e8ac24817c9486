//! The two-tier event scheduler: a hierarchical timer wheel backed by an
//! overflow heap.
//!
//! The old scheduler was a single `BinaryHeap<Event>`: every push and pop
//! paid `O(log n)` comparisons and moved events up and down a deep heap.
//! Discrete-event simulations schedule overwhelmingly into the *near*
//! future (per-hop serialization, propagation, RTO and measuring-period
//! timers), which a timer wheel turns into `O(1)` bucket pushes.
//!
//! ## Structure
//!
//! * **near** — a small sorted vector holding every event below
//!   `near_end`. This is the only structure events are
//!   popped from, so pop order is exactly the sort order: `(time, seq)`.
//! * **wheel** — [`LEVELS`] rings of [`SLOTS`] buckets each. Level 0
//!   buckets span 2^20 ns (≈ 1.05 ms), each higher level is [`SLOTS`]
//!   times coarser (≈ 268 ms, ≈ 68.7 s). A bucket is a plain
//!   `Vec<Event>`; a drained level-0 bucket trades buffers with `near`,
//!   so the buffers circulate and steady-state scheduling never
//!   allocates.
//! * **far** — a binary heap for events beyond the top level's horizon
//!   (≈ 4.9 h ahead). Rare in practice; migrated into the wheel as the
//!   horizon advances.
//!
//! ## Determinism
//!
//! Pop order is bit-for-bit identical to the old `BinaryHeap`: ascending
//! `(time, seq)`. The argument: every event is *popped* from `near`,
//! which orders by `(time, seq)`; an event enters `near` no later than
//! the moment `near_end` passes its timestamp; and `near_end` only
//! advances to the start of the earliest non-empty bucket (or the far
//! heap's minimum), so no event still sitting in a bucket can precede
//! anything already poppable. Wheel buckets are unordered, but a bucket
//! *becomes* `near` whole before any of its events pop, and is sorted
//! into `(time, seq)` order on the way. `tests/scheduler_diff.rs`
//! pins this equivalence against a model `BinaryHeap` under vendored
//! proptest op streams.

use std::collections::BinaryHeap;

use iq_obs::counter_inc;

use crate::event::Event;
use crate::time::Time;

/// Engine-plane scheduler counters: where pushes landed (near vector,
/// wheel level, far heap) and how often buckets drained or cascaded.
///
/// These count *placements*, so an event cascading from level 2 through
/// level 1 into `near` is counted once per placement. Under the sharded
/// engine the placement of a push depends on how far `near_end` has
/// advanced, which depends on the lookahead-window interleaving — so
/// these are engine-plane metrics (never fingerprinted), unlike the
/// sim-plane `SimCounters`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Pushes appended straight onto the `near` vector (the fast path).
    pub near_hits: u64,
    /// Pushes that binary-inserted mid-`near` (rare same-window earlier
    /// arrivals, e.g. cross-shard injections).
    pub near_inserts: u64,
    /// Pushes landing in each wheel level's buckets.
    pub wheel_pushes: [u64; LEVELS],
    /// Pushes spilling past the wheel horizon into the far heap.
    pub far_spills: u64,
    /// Level-0 buckets drained whole into `near`.
    pub bucket_drains: u64,
    /// Drains taken via the coarse-floor fast path (no multi-level scan).
    pub fast_drains: u64,
    /// Higher-level buckets cascaded down into finer structures.
    pub cascades: u64,
    /// Events migrated out of the far heap as the horizon advanced.
    pub far_adoptions: u64,
}

impl SchedStats {
    /// Total pushes across all placement classes.
    pub fn pushes(&self) -> u64 {
        self.near_hits
            + self.near_inserts
            + self.wheel_pushes.iter().sum::<u64>()
            + self.far_spills
    }
}

/// log2 of the number of buckets per wheel level.
const SLOT_BITS: u32 = 8;
/// Buckets per wheel level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; beyond the top level events overflow into the far heap.
pub const LEVELS: usize = 3;
/// log2 of the level-0 bucket width in nanoseconds (2^20 ns ≈ 1.05 ms).
const G0_BITS: u32 = 20;

/// Bit shift converting a time to an absolute bucket number at `level`.
#[inline]
const fn shift(level: usize) -> u32 {
    G0_BITS + SLOT_BITS * level as u32
}

/// Absolute bucket number of `t` at `level`.
#[inline]
const fn bucket_of(t: Time, level: usize) -> u64 {
    t >> shift(level)
}

/// Exclusive end time of absolute bucket `b` at `level` (saturating).
#[inline]
fn bucket_end(b: u64, level: usize) -> Time {
    ((b as u128 + 1) << shift(level)).min(u64::MAX as u128) as u64
}

/// One wheel level: a ring of buckets, an occupancy bitmap so empty
/// stretches are skipped word-at-a-time, and an event count so an empty
/// level costs one branch during refill.
struct Level {
    buckets: Vec<Vec<Event>>,
    occupied: [u64; SLOTS / 64],
    events: usize,
}

const WORDS: usize = SLOTS / 64;

impl Level {
    fn new() -> Self {
        Self {
            buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            events: 0,
        }
    }

    #[inline]
    fn push(&mut self, abs_bucket: u64, ev: Event) {
        let i = (abs_bucket as usize) & (SLOTS - 1);
        self.buckets[i].push(ev);
        self.occupied[i / 64] |= 1u64 << (i % 64);
        self.events += 1;
    }

    #[inline]
    fn clear_bit(&mut self, i: usize) {
        self.occupied[i / 64] &= !(1u64 << (i % 64));
    }

    #[inline]
    fn is_occupied(&self, i: usize) -> bool {
        self.occupied[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// First occupied absolute bucket in `[from, from + SLOTS)` — the
    /// level's whole ring window — via word-wise bitmap scan (at most
    /// `WORDS + 1` word tests).
    fn next_occupied(&self, from: u64) -> Option<u64> {
        if self.events == 0 {
            return None;
        }
        let start = (from as usize) & (SLOTS - 1);
        let first_word = start / 64;
        let first_bit = start % 64;
        let w = self.occupied[first_word] >> first_bit;
        if w != 0 {
            return Some(from + u64::from(w.trailing_zeros()));
        }
        let mut offset = (64 - first_bit) as u64;
        for k in 1..=WORDS {
            let idx = (first_word + k) % WORDS;
            let mut w = self.occupied[idx];
            if k == WORDS {
                // Wrapped back to the first word: only the ring slots
                // before `start` remain unscanned.
                w &= (1u64 << first_bit).wrapping_sub(1);
            }
            if w != 0 {
                return Some(from + offset + u64::from(w.trailing_zeros()));
            }
            offset += 64;
        }
        None
    }
}

/// The pluggable seam between the simulator's run loop and its supply
/// of events.
///
/// The run loop needs exactly four capabilities — schedule, inspect the
/// next timestamp, consume the next event, and count what is pending —
/// and this trait names them. [`EventQueue`] is the production
/// implementation; an explicit-state model checker (or a replay/record
/// harness) can stand in its own source that enumerates or scripts
/// event orderings instead of always yielding the earliest one.
///
/// The contract mirrors the queue's determinism guarantee: for a given
/// push history, `next_event` must return events in a reproducible
/// order, and `next_time` must name the timestamp `next_event` would
/// yield next. Implementations are free to *choose* that order (that is
/// the model checker's whole point) but not to change it between
/// identical runs.
pub trait EventSource {
    /// Schedules an event.
    fn push_event(&mut self, ev: Event);

    /// Timestamp of the event [`Self::next_event`] would yield, if any.
    /// May migrate events internally, hence `&mut`.
    fn next_time(&mut self) -> Option<Time>;

    /// Removes and yields the next event.
    fn next_event(&mut self) -> Option<Event>;

    /// Number of pending events.
    fn pending(&self) -> usize;

    /// Yields the next event only if it is due at or before `deadline`.
    /// Implementations with a cheaper fused peek-then-pop (the wheel's
    /// [`EventQueue::pop_before`]) should override this.
    fn next_event_before(&mut self, deadline: Time) -> Option<Event> {
        match self.next_time() {
            Some(t) if t <= deadline => self.next_event(),
            _ => None,
        }
    }
}

/// The simulator's pending-event set: push events in any order, pop them
/// in ascending `(time, seq)` order.
pub struct EventQueue {
    /// Events below `near_end`, sorted descending by `(time, seq)` so the
    /// next event pops from the end. A drained level-0 bucket *becomes*
    /// `near` (a buffer swap, then one in-place `sort_unstable`, which
    /// beats per-event heap sifts for the handful of events a bucket
    /// holds); the bucket's slot keeps `near`'s emptied buffer.
    /// `Event`'s `Ord` is reversed (min-queue through a max-heap), so an
    /// ascending sort by that `Ord` *is* descending `(time, seq)`.
    near: Vec<Event>,
    /// Overflow for pushes below `near_end` that can't take `near`'s
    /// append fast path. A `Vec::insert` into the middle of a deep `near`
    /// is `O(len)` memmove per event — ruinous when a dense bucket (a
    /// timer burst, a window's worth of cross-shard arrivals) is resident
    /// while handlers keep scheduling into its span. Parking those events
    /// here is `O(log n)`, and `pop` takes the earlier of `near`'s tail
    /// and this heap's top, which preserves the exact global `(time, seq)`
    /// pop order. Reversed `Ord` makes the max-heap top the earliest.
    near_over: BinaryHeap<Event>,
    /// Exclusive upper bound of the times fully migrated into `near`.
    near_end: Time,
    levels: Vec<Level>,
    /// Events at or beyond the top level's horizon.
    far: BinaryHeap<Event>,
    len: usize,
    /// Proven lower bound on the earliest event held above level 0
    /// (levels 1+, far heap). Level-0 buckets ending at or before this
    /// can drain without scanning the coarser levels — the refill fast
    /// path. Conservative: pushes lower it, only a full scan raises it.
    coarse_floor: Time,
    stats: SchedStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue starting at time zero.
    pub fn new() -> Self {
        Self {
            near: Vec::new(),
            near_over: BinaryHeap::new(),
            near_end: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            far: BinaryHeap::new(),
            len: 0,
            coarse_floor: 0,
            stats: SchedStats::default(),
        }
    }

    /// Engine-plane placement/drain counters accumulated so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Current structure occupancy: events resident in each wheel
    /// level, the far heap, and the near vector (gauges, sampled at
    /// collection time).
    pub fn occupancy(&self) -> ([usize; LEVELS], usize, usize) {
        let mut levels = [0usize; LEVELS];
        for (i, l) in self.levels.iter().enumerate() {
            levels[i] = l.events;
        }
        (levels, self.far.len(), self.near.len() + self.near_over.len())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current drain cursor (absolute bucket number) at `level`.
    #[inline]
    fn cursor(&self, level: usize) -> u64 {
        bucket_of(self.near_end, level)
    }

    /// Schedules an event. `O(1)` for the common (near-future) case.
    pub fn push(&mut self, ev: Event) {
        self.len += 1;
        if ev.at < self.near_end {
            // Appending beats the binary insert for the dominant case: an
            // event earlier than everything pending (same-timestamp local
            // deliveries scheduled from the event being executed land
            // here, since `seq` grows monotonically).
            match self.near.last() {
                Some(last) if ev.cmp(last) != std::cmp::Ordering::Greater => {
                    counter_inc!(self.stats.near_inserts);
                    self.near_over.push(ev);
                }
                _ => {
                    counter_inc!(self.stats.near_hits);
                    self.near.push(ev);
                }
            }
            return;
        }
        for level in 0..LEVELS {
            let b = bucket_of(ev.at, level);
            if b - self.cursor(level) < SLOTS as u64 {
                if level > 0 {
                    let start = ((b as u128) << shift(level)).min(u64::MAX as u128) as u64;
                    self.coarse_floor = self.coarse_floor.min(start);
                }
                counter_inc!(self.stats.wheel_pushes[level]);
                self.levels[level].push(b, ev);
                return;
            }
        }
        counter_inc!(self.stats.far_spills);
        self.coarse_floor = self.coarse_floor.min(ev.at);
        self.far.push(ev);
    }

    /// Whether the overlay heap (not `near`) holds the earliest pending
    /// event. Reversed `Ord`: `Greater` means earlier `(time, seq)`.
    #[inline]
    fn overlay_first(&self) -> bool {
        match (self.near.last(), self.near_over.peek()) {
            (Some(n), Some(o)) => o.cmp(n) == std::cmp::Ordering::Greater,
            (None, Some(_)) => true,
            _ => false,
        }
    }

    /// Earliest pending `(time)`; `None` when empty. May migrate events
    /// internally, hence `&mut`.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.refill();
        match (self.near.last(), self.near_over.peek()) {
            (Some(n), Some(o)) => Some(n.at.min(o.at)),
            (Some(n), None) => Some(n.at),
            (None, Some(o)) => Some(o.at),
            (None, None) => None,
        }
    }

    /// Removes and returns the earliest event (ties broken by `seq`).
    pub fn pop(&mut self) -> Option<Event> {
        self.refill();
        let ev = if self.overlay_first() {
            self.near_over.pop()
        } else {
            self.near.pop()
        };
        if ev.is_some() {
            self.len -= 1;
        }
        ev
    }

    /// Removes and returns the earliest event if its time is at or before
    /// `deadline` — the simulator's run-loop primitive, saving a separate
    /// peek-then-pop round trip per event.
    pub fn pop_before(&mut self, deadline: Time) -> Option<Event> {
        self.refill();
        if self.overlay_first() {
            match self.near_over.peek() {
                Some(ev) if ev.at <= deadline => {
                    self.len -= 1;
                    self.near_over.pop()
                }
                _ => None,
            }
        } else {
            match self.near.last() {
                Some(ev) if ev.at <= deadline => {
                    self.len -= 1;
                    self.near.pop()
                }
                _ => None,
            }
        }
    }

    /// Advances `near_end` to `t`, cascading any higher-level bucket the
    /// cursor just entered down into finer levels (or `near`).
    ///
    /// Buckets *skipped* by a multi-bucket cursor jump are empty by
    /// construction: `refill` only jumps to the earliest occupied
    /// bucket's start (or the far minimum), so an occupied skipped
    /// bucket would have been the jump target instead.
    fn advance_to(&mut self, t: Time) {
        debug_assert!(t >= self.near_end, "cursor moved backwards");
        let old: [u64; LEVELS] = [self.cursor(0), self.cursor(1), self.cursor(2)];
        self.near_end = t;
        // Top-down so a level-2 bucket cascades through level 1 before
        // the level-1 cursor's own entry-cascade runs.
        if self.cursor(LEVELS - 1) != old[LEVELS - 1] {
            // Entering a new top-level bucket also widens the horizon:
            // adopt far events that now fit in the wheel.
            self.cascade(LEVELS - 1, self.cursor(LEVELS - 1));
            self.adopt_far();
        }
        for level in (1..LEVELS - 1).rev() {
            if self.cursor(level) != old[level] {
                self.cascade(level, self.cursor(level));
            }
        }
    }

    /// Re-distributes bucket `abs` of `level` into finer structures.
    fn cascade(&mut self, level: usize, abs: u64) {
        let i = (abs as usize) & (SLOTS - 1);
        if !self.levels[level].is_occupied(i) {
            return;
        }
        counter_inc!(self.stats.cascades);
        // The buffer is dropped, not handed back: this slot comes round
        // again one ring turn (≈ 68.7 s at level 1) later, and until then
        // its capacity would hold one burst's worth of memory for nothing.
        let events = std::mem::take(&mut self.levels[level].buckets[i]);
        self.levels[level].clear_bit(i);
        self.levels[level].events -= events.len();
        for ev in events {
            debug_assert_eq!(bucket_of(ev.at, level), abs, "bucket collision");
            self.len -= 1; // push re-counts
            self.push(ev);
        }
    }

    /// Moves far-heap events that now fall inside the wheel horizon.
    fn adopt_far(&mut self) {
        let horizon = self.cursor(LEVELS - 1) + SLOTS as u64;
        while let Some(ev) = self.far.peek() {
            if bucket_of(ev.at, LEVELS - 1) >= horizon {
                break;
            }
            let ev = self.far.pop().expect("peeked");
            counter_inc!(self.stats.far_adoptions);
            self.len -= 1; // push re-counts
            self.push(ev);
        }
    }

    /// Makes level-0 bucket `b` the new `near` and advances the cursor
    /// past it. Only sound when `near` is empty and nothing above level 0
    /// can hold an event before the bucket's end (the callers' invariant).
    fn drain_level0(&mut self, b: u64) {
        counter_inc!(self.stats.bucket_drains);
        debug_assert!(self.near.is_empty(), "drained over pending near events");
        let i = (b as usize) & (SLOTS - 1);
        // A swap, not a copy: the bucket's buffer becomes `near` and the
        // slot keeps `near`'s emptied one, so no capacity is held twice.
        std::mem::swap(&mut self.near, &mut self.levels[0].buckets[i]);
        self.levels[0].clear_bit(i);
        self.levels[0].events -= self.near.len();
        debug_assert!(
            self.near.iter().all(|ev| bucket_of(ev.at, 0) == b),
            "bucket collision"
        );
        self.near.sort_unstable();
        let end = bucket_end(b, 0).max(self.near_end);
        self.advance_to(end); // may cross a coarser boundary
    }

    /// Ensures `near` holds the earliest pending event (if any exist).
    ///
    /// Each iteration finds the bucket with the minimum start time
    /// across all levels (each level scans its full ring window). A
    /// level-0 minimum is drained into `near`; a coarser minimum is
    /// entered via [`Self::advance_to`], which cascades it down for the
    /// next iteration. Ties prefer the coarser level: a level-k bucket
    /// sharing a start with a level-0 bucket may hold events *inside*
    /// that level-0 bucket's span, so it must cascade before the
    /// level-0 bucket is drained.
    fn refill(&mut self) {
        // An overlay event (always below `near_end`) precedes everything
        // still in the wheels or far heap, so no migration is needed to
        // pop it — and skipping refill keeps `drain_level0`'s "`near` is
        // empty" swap invariant intact.
        while self.near.is_empty() && self.near_over.is_empty() && self.len > 0 {
            // Fast path: a level-0 bucket ending at or before the coarse
            // floor drains without touching the coarser levels at all.
            if let Some(b) = self.levels[0].next_occupied(self.cursor(0)) {
                if bucket_end(b, 0) <= self.coarse_floor {
                    counter_inc!(self.stats.fast_drains);
                    self.drain_level0(b);
                    continue;
                }
            }
            // Slow path: minimum-start scan across every level, which
            // also re-proves the coarse floor for future fast drains.
            let mut best: Option<(Time, usize, u64)> = None;
            let mut coarse_min = self.far.peek().map_or(Time::MAX, |ev| ev.at);
            for level in 0..LEVELS {
                let cur = self.cursor(level);
                if let Some(b) = self.levels[level].next_occupied(cur) {
                    let start = ((b as u128) << shift(level)).min(u64::MAX as u128) as u64;
                    if level > 0 {
                        coarse_min = coarse_min.min(start);
                    }
                    // `<=`: later (coarser) levels win ties.
                    if best.is_none_or(|(s, _, _)| start <= s) {
                        best = Some((start, level, b));
                    }
                }
            }
            self.coarse_floor = coarse_min;
            match best {
                Some((_, 0, b)) => {
                    // Nothing anywhere starts before this bucket ends
                    // (coarser bucket starts are aligned to level-0
                    // boundaries, and the far heap lies beyond the wheel
                    // horizon), so the whole bucket is safe to migrate.
                    self.drain_level0(b);
                }
                Some((start, _, _)) => {
                    // Entering the coarser bucket cascades its events
                    // down; the next iteration re-evaluates.
                    self.advance_to(start.max(self.near_end));
                }
                None => match self.far.peek().map(|ev| ev.at) {
                    // The far minimum is beyond every wheel horizon, so
                    // jumping there cascades/adopts everything relevant.
                    Some(t) => self.advance_to(t.max(self.near_end)),
                    None => return, // only `near` had events, and it's empty
                },
            }
        }
    }
}

impl EventSource for EventQueue {
    fn push_event(&mut self, ev: Event) {
        self.push(ev);
    }

    fn next_time(&mut self) -> Option<Time> {
        self.peek_time()
    }

    fn next_event(&mut self) -> Option<Event> {
        self.pop()
    }

    fn pending(&self) -> usize {
        self.len()
    }

    fn next_event_before(&mut self, deadline: Time) -> Option<Event> {
        self.pop_before(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::packet::AgentId;

    fn ev(at: Time, seq: u64) -> Event {
        Event {
            at,
            seq,
            kind: EventKind::Start { agent: AgentId(0) },
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        for (at, seq) in [(30, 0), (10, 1), (20, 2), (10, 3), (10, 0)] {
            q.push(ev(at, seq));
        }
        let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop().map(|e| (e.at, e.seq))).collect();
        assert_eq!(order, [(10, 0), (10, 1), (10, 3), (20, 2), (30, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn spans_all_tiers() {
        let mut q = EventQueue::new();
        // near/level-0, level-1, level-2, and far-heap territory.
        let times = [
            0,
            50_000,                  // level 0
            5_000_000,               // level 1 (5 ms)
            1_000_000_000,           // level 2 (1 s)
            100_000_000_000,         // level 2 outer
            5_000_000_000_000,       // far heap (5000 s)
            u64::MAX,                // saturated timer
        ];
        for (seq, &at) in times.iter().enumerate() {
            q.push(ev(at, seq as u64));
        }
        let popped: Vec<Time> = std::iter::from_fn(|| q.pop().map(|e| e.at)).collect();
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue, at: Time| {
            q.push(ev(at, seq));
            seq += 1;
        };
        push(&mut q, 1_000_000);
        push(&mut q, 2_000_000);
        assert_eq!(q.pop().unwrap().at, 1_000_000);
        // Schedule at the *popped* time (the simulator does this for
        // local deliveries) and earlier than already-pending events.
        push(&mut q, 1_000_000);
        push(&mut q, 1_500_000);
        assert_eq!(q.pop().unwrap().at, 1_000_000);
        assert_eq!(q.pop().unwrap().at, 1_500_000);
        assert_eq!(q.pop().unwrap().at, 2_000_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(ev(7_777_777, 0));
        q.push(ev(3_333, 1));
        assert_eq!(q.peek_time(), Some(3_333));
        assert_eq!(q.pop().unwrap().at, 3_333);
        assert_eq!(q.peek_time(), Some(7_777_777));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_across_migrations() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(ev(i * 7_919_113, i)); // spread across tiers
        }
        assert_eq!(q.len(), 1000);
        for _ in 0..500 {
            q.pop();
        }
        assert_eq!(q.len(), 500);
        for i in 0..100u64 {
            let t = q.peek_time().unwrap() + i;
            q.push(ev(t, 10_000 + i));
        }
        assert_eq!(q.len(), 600);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 600);
        assert_eq!(q.len(), 0);
    }

    /// The queue is usable through `dyn EventSource` — the seam the
    /// model checker plugs into — and the default `next_event_before`
    /// agrees with the specialized override.
    #[test]
    fn event_source_trait_object_drives_the_queue() {
        let mut q = EventQueue::new();
        let src: &mut dyn EventSource = &mut q;
        for (at, seq) in [(20, 0), (10, 1), (30, 2)] {
            src.push_event(ev(at, seq));
        }
        assert_eq!(src.pending(), 3);
        assert_eq!(src.next_time(), Some(10));
        assert!(src.next_event_before(5).is_none());
        assert_eq!(src.next_event_before(10).unwrap().at, 10);
        assert_eq!(src.next_event().unwrap().at, 20);
        // Default impl (through a shim that hides the override) matches.
        struct Shim(EventQueue);
        impl EventSource for Shim {
            fn push_event(&mut self, ev: Event) {
                self.0.push(ev);
            }
            fn next_time(&mut self) -> Option<Time> {
                self.0.peek_time()
            }
            fn next_event(&mut self) -> Option<Event> {
                self.0.pop()
            }
            fn pending(&self) -> usize {
                self.0.len()
            }
        }
        let mut s = Shim(EventQueue::new());
        s.push_event(ev(40, 0));
        assert!(s.next_event_before(39).is_none());
        assert_eq!(s.next_event_before(40).unwrap().at, 40);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn long_idle_gap_jumps_without_spinning() {
        let mut q = EventQueue::new();
        q.push(ev(0, 0));
        q.push(ev(3_600_000_000_000, 1)); // one hour later, far territory
        assert_eq!(q.pop().unwrap().at, 0);
        assert_eq!(q.pop().unwrap().at, 3_600_000_000_000);
    }
}
