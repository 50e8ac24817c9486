//! The event scheduler: one ring of time buckets for the near future and
//! one binary heap for everything beyond it.
//!
//! Discrete-event simulations schedule overwhelmingly into the *near*
//! future (per-hop serialization, propagation, RTO and measuring-period
//! timers). A ring turns those pushes into `O(1)` bucket appends where a
//! single `BinaryHeap<Event>` pays `O(log n)` sifts per push and pop.
//!
//! ## Structure
//!
//! * **near** / **near_over** — every event below `near_end`: a vector
//!   sorted so the next event pops from its end, plus a heap for pushes
//!   that cannot append to it. These are the only structures events are
//!   popped from, so pop order is exactly `(time, seq)`.
//! * **ring** — [`SLOTS`] buckets of 2^20 ns (≈ 1.05 ms) each, covering
//!   the ≈ 268 ms after `near_end`. A bucket is a plain `Vec<Event>`; a
//!   drained bucket trades buffers with `near`, so a slot's next bucket
//!   starts on a buffer an earlier one grew, and a steady load stops
//!   allocating once every slot has been round.
//! * **far** — a binary heap for events beyond the ring's horizon. An
//!   event stays there until its bucket is the next to drain.
//!
//! ## Retention
//!
//! A fleet's flows all open at time zero, and that burst grows whatever
//! it passes through. None of these buffers keeps that: `near` and
//! `near_over` when they are found empty, `far` when a drain has left
//! it mostly empty, shrink to a small multiple of what they hold or of
//! a private floor (`retained`). A load within four floors never
//! meets the allocator; what a burst grew goes back as soon as the
//! burst has drained. Capacity is not content, so none of this can
//! touch the pop order.
//!
//! ## Determinism
//!
//! Pop order is ascending `(time, seq)`, bit-for-bit what a single
//! `BinaryHeap<Event>` produces. Every event is *popped* from `near` or
//! `near_over`, which together order by `(time, seq)`; an event enters
//! them no later than the moment `near_end` passes its timestamp; and
//! `near_end` only ever advances to the end of the earliest bucket that
//! holds anything, in the ring or in `far`, taking that bucket's events
//! from both. Buckets are unordered, but a bucket *becomes* `near` whole
//! before any of its events pop, and is sorted on the way.
//! `tests/scheduler_diff.rs` pins the equivalence against a model
//! `BinaryHeap` under vendored proptest op streams.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::event::Event;
use crate::time::Time;

/// Engine-plane scheduler counters: where pushes landed (near vector,
/// ring, far heap) and how many buckets drained.
///
/// Under the sharded engine the placement of a push depends on how far
/// `near_end` has advanced, which depends on the lookahead-window
/// interleaving — so these are engine-plane metrics (never
/// fingerprinted), unlike the sim-plane `SimCounters`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Pushes appended straight onto the `near` vector (the fast path).
    pub near_hits: u64,
    /// Pushes below `near_end` that could not append and went to the
    /// `near_over` heap (rare same-window earlier arrivals, e.g.
    /// cross-shard injections).
    pub near_inserts: u64,
    /// Pushes landing in a ring bucket.
    pub wheel_pushes: u64,
    /// Pushes past the ring's horizon, into the far heap.
    pub far_spills: u64,
    /// Buckets drained whole into `near`.
    pub bucket_drains: u64,
}

/// Buckets in the ring.
pub const SLOTS: usize = 256;
/// Words in the ring's occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// log2 of a bucket's width in nanoseconds (2^20 ns ≈ 1.05 ms).
const BUCKET_BITS: u32 = 20;

/// A bucket's usual load, for [`retained`]: an empty `near` — and so
/// the ring slot it is swapped into — keeps room for two to four times
/// this. Steady-state buckets hold a few dozen events.
const BUCKET_FLOOR: usize = 32;
/// Likewise for `near_over`, which takes every push a resident bucket's
/// handlers make into its own span.
const OVER_FLOOR: usize = 128;
/// Likewise for `far`: a shard's retransmission timers.
const FAR_FLOOR: usize = 128;

/// The retention rule for a reused buffer: the capacity it should
/// shrink to, if it should shrink at all. Asked when the buffer has just
/// been emptied to be handed back (`holds` = 0), or has just lost
/// content and stays where it is (`far`).
///
/// A buffer keeps room for twice what it `holds`, or twice `floor` — the
/// owner's private guess at a usual load — if that is more, and gives
/// the rest back once its capacity is more than double that. What a
/// burst grew therefore returns to the allocator as soon as the burst
/// has passed through, and a buffer whose load stays at or under
/// `4 * floor` is never touched. What the buffer last carried is
/// deliberately no input: while a burst lasts every buffer has just
/// carried it, and all three mailbox buffers of a boundary would stay
/// burst-sized exactly when a mega world's live bytes peak (DESIGN.md
/// §11 has the measurement).
pub(crate) fn retained(capacity: usize, holds: usize, floor: usize) -> Option<usize> {
    let keep = 2 * holds.max(floor);
    (capacity > 2 * keep).then_some(keep)
}

/// Absolute bucket number of `t`.
#[inline]
const fn bucket_of(t: Time) -> u64 {
    t >> BUCKET_BITS
}

/// Exclusive end time of absolute bucket `b` (saturating).
#[inline]
fn bucket_end(b: u64) -> Time {
    (b << BUCKET_BITS).saturating_add(1 << BUCKET_BITS)
}

/// The simulator's pending-event set: push events in any order, pop them
/// in ascending `(time, seq)` order.
pub struct EventQueue {
    /// Events below `near_end`, sorted descending by `(time, seq)` so the
    /// next event pops from the end. A drained bucket *becomes* `near` (a
    /// buffer swap, then one in-place `sort_unstable`, which beats
    /// per-event heap sifts for the handful of events a bucket holds);
    /// the bucket's slot keeps `near`'s emptied buffer. `Event`'s `Ord`
    /// is reversed (min-queue through a max-heap), so an ascending sort
    /// by that `Ord` *is* descending `(time, seq)`.
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
    /// Its bucket is the ring's cursor.
    near_end: Time,
    /// The ring: absolute bucket `b` lives in slot `b % SLOTS`. Every
    /// ring event's bucket is within `SLOTS` of the cursor, so a slot
    /// never holds two buckets at once.
    buckets: Vec<Vec<Event>>,
    /// One bit per non-empty slot, so empty stretches are skipped a word
    /// at a time.
    occupied: [u64; WORDS],
    /// Events in the ring.
    in_ring: usize,
    /// Events whose bucket was at or beyond the ring's horizon when they
    /// were pushed.
    far: BinaryHeap<Event>,
    len: usize,
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
            buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            in_ring: 0,
            far: BinaryHeap::new(),
            len: 0,
            stats: SchedStats::default(),
        }
    }

    /// Engine-plane placement/drain counters accumulated so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Current structure occupancy: events resident in the ring, the far
    /// heap, and `near` plus `near_over` (gauges, sampled at collection
    /// time).
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.in_ring, self.far.len(), self.near.len() + self.near_over.len())
    }

    /// Events every buffer of the queue has room for, full or not.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        let ring: usize = self.buckets.iter().map(Vec::capacity).sum();
        self.near.capacity() + self.near_over.capacity() + ring + self.far.capacity()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
                Some(last) if ev.cmp(last) != Ordering::Greater => {
                    self.stats.near_inserts += 1;
                    self.near_over.push(ev);
                }
                _ => {
                    self.stats.near_hits += 1;
                    self.near.push(ev);
                }
            }
            return;
        }
        let b = bucket_of(ev.at);
        if b - bucket_of(self.near_end) < SLOTS as u64 {
            self.stats.wheel_pushes += 1;
            let i = (b as usize) & (SLOTS - 1);
            self.buckets[i].push(ev);
            self.occupied[i / 64] |= 1u64 << (i % 64);
            self.in_ring += 1;
        } else {
            self.stats.far_spills += 1;
            self.far.push(ev);
        }
    }

    /// Time of the earliest pending event, and whether it sits in
    /// `near_over` (else at `near`'s tail). May migrate events
    /// internally, hence `&mut`.
    #[inline]
    fn head(&mut self) -> Option<(Time, bool)> {
        self.refill();
        match (self.near.last(), self.near_over.peek()) {
            // Reversed `Ord`: `Greater` means earlier `(time, seq)`.
            (Some(n), Some(o)) if o.cmp(n) == Ordering::Greater => Some((o.at, true)),
            (Some(n), _) => Some((n.at, false)),
            (None, Some(o)) => Some((o.at, true)),
            (None, None) => None,
        }
    }

    /// Earliest pending time; `None` when empty.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.head().map(|(at, _)| at)
    }

    /// Removes and returns the earliest event (ties broken by `seq`).
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_before(Time::MAX)
    }

    /// Removes and returns the earliest event if its time is at or before
    /// `deadline` — the simulator's run-loop primitive, saving a separate
    /// peek-then-pop round trip per event.
    pub fn pop_before(&mut self, deadline: Time) -> Option<Event> {
        let (at, over) = self.head()?;
        if at > deadline {
            return None;
        }
        self.len -= 1;
        if over {
            self.near_over.pop()
        } else {
            self.near.pop()
        }
    }

    /// First occupied absolute bucket in `[from, from + SLOTS)` — the
    /// ring's whole window — via word-wise bitmap scan (at most
    /// `WORDS + 1` word tests).
    fn next_occupied(&self, from: u64) -> Option<u64> {
        if self.in_ring == 0 {
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

    /// Ensures `near` or `near_over` holds the earliest pending event (if
    /// any exist): when both are empty, the earliest bucket that holds
    /// anything becomes `near`.
    ///
    /// An event below `near_end` precedes everything still in the ring or
    /// the far heap, so nothing migrates while one is pending — which
    /// also keeps the swap from clobbering a non-empty `near`.
    fn refill(&mut self) {
        if !self.near.is_empty() || !self.near_over.is_empty() {
            return;
        }
        let ring = self.next_occupied(bucket_of(self.near_end));
        let far = self.far.peek().map(|ev| bucket_of(ev.at));
        let b = match (ring, far) {
            (Some(r), Some(f)) => r.min(f),
            (Some(b), None) | (None, Some(b)) => b,
            (None, None) => return,
        };
        self.stats.bucket_drains += 1;
        // Both are empty here, and `near`'s buffer is about to wait a
        // ring turn in a slot: what a burst grew goes back first.
        if let Some(keep) = retained(self.near.capacity(), 0, BUCKET_FLOOR) {
            self.near.shrink_to(keep);
        }
        if let Some(keep) = retained(self.near_over.capacity(), 0, OVER_FLOOR) {
            self.near_over.shrink_to(keep);
        }
        if ring == Some(b) {
            // A swap, not a copy: the bucket's buffer becomes `near` and
            // the slot keeps `near`'s emptied one.
            let i = (b as usize) & (SLOTS - 1);
            std::mem::swap(&mut self.near, &mut self.buckets[i]);
            self.occupied[i / 64] &= !(1u64 << (i % 64));
            self.in_ring -= self.near.len();
        }
        // A far event stays in `far` after the cursor brings its bucket
        // inside the ring's horizon, while later pushes to that bucket go
        // to the ring: the same bucket can arrive from both sides.
        while let Some(ev) = self.far.peek_mut() {
            if bucket_of(ev.at) != b {
                break;
            }
            self.near.push(PeekMut::pop(ev));
        }
        if let Some(keep) = retained(self.far.capacity(), self.far.len(), FAR_FLOOR) {
            self.far.shrink_to(keep);
        }
        debug_assert!(self.near.iter().all(|ev| bucket_of(ev.at) == b));
        self.near.sort_unstable();
        debug_assert!(bucket_end(b) >= self.near_end, "cursor moved backwards");
        self.near_end = bucket_end(b);
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
        let times = [
            0,
            50_000,            // ring, first bucket
            5_000_000,         // ring (5 ms)
            1_000_000_000,     // far heap (1 s, past the 268 ms horizon)
            5_000_000_000_000, // far heap (5000 s)
            u64::MAX,          // saturated timer
        ];
        for (seq, &at) in times.iter().enumerate() {
            q.push(ev(at, seq as u64));
        }
        assert_eq!(q.occupancy(), (3, 3, 0));
        let popped: Vec<Time> = std::iter::from_fn(|| q.pop().map(|e| e.at)).collect();
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    /// A far event stays in `far` when the cursor brings its bucket
    /// inside the ring's horizon, and later pushes to that bucket go to
    /// the ring: the drain must merge both sides in `(time, seq)` order.
    #[test]
    fn bucket_fed_from_ring_and_far_pops_in_order() {
        const MS: Time = 1_000_000;
        let mut q = EventQueue::new();
        q.push(ev(u64::MAX, 0)); // saturated timer: pops last
        q.push(ev(300 * MS, 1)); // beyond the horizon: far
        q.push(ev(100 * MS, 2));
        assert_eq!(q.pop().unwrap().at, 100 * MS); // the cursor moves
        q.push(ev(300 * MS + 7, 3)); // same bucket, now inside: ring
        q.push(ev(300 * MS, 4)); // equal timestamp, later seq
        q.push(ev(300 * MS - 1, 5));
        assert_eq!(q.occupancy(), (3, 2, 0));
        assert_eq!(q.stats().far_spills, 2);
        let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop().map(|e| (e.at, e.seq))).collect();
        assert_eq!(
            order,
            [
                (300 * MS - 1, 5),
                (300 * MS, 1),
                (300 * MS, 4),
                (300 * MS + 7, 3),
                (u64::MAX, 0)
            ]
        );
        assert!(q.is_empty());
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
            q.push(ev(i * 7_919_113, i)); // ≈ 7.9 s span: ring and far
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

    #[test]
    fn rule_keeps_steady_buffers_and_trims_burst_grown_ones() {
        assert_eq!(retained(64, 0, 32), None, "a steady bucket's buffer");
        assert_eq!(retained(128, 0, 32), None, "four floors: still kept");
        assert_eq!(retained(256, 0, 32), Some(64), "burst-grown, now empty");
        assert_eq!(retained(4000, 1000, 128), None, "a quarter full");
        assert_eq!(retained(4001, 1000, 128), Some(2000), "less than a quarter");
        assert_eq!(retained(0, 0, 32), None);
    }

    /// What a start-up burst grew goes back once the burst has drained:
    /// 20,000 events into one bucket (and 5,000 more into its span while
    /// it is resident, which take `near_over`), then a small steady
    /// load. Capacity is not content, so the pop sequence must be a
    /// `BinaryHeap`'s throughout.
    #[test]
    fn burst_capacity_is_given_back_and_order_is_untouched() {
        const MS: Time = 1_000_000;
        /// Room the steady phase may end with: far below the burst's
        /// 25,000 events, far above the 64 it holds.
        const STEADY_BOUND: usize = 2048;
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue, model: &mut BinaryHeap<Event>, at: Time| {
            q.push(ev(at, seq));
            model.push(ev(at, seq));
            seq += 1;
        };
        let pop = |q: &mut EventQueue, model: &mut BinaryHeap<Event>| {
            let (got, want) = (q.pop().unwrap(), model.pop().unwrap());
            assert_eq!((got.at, got.seq), (want.at, want.seq));
            want.at
        };

        for i in 0..20_000 {
            push(&mut q, &mut model, 5 * MS + i % 1000);
        }
        let first = pop(&mut q, &mut model); // the bucket is resident now
        for i in 0..5_000 {
            push(&mut q, &mut model, first + 1000 + i % 700);
        }
        // One event a bucket later so the drain ends in a refill.
        push(&mut q, &mut model, 7 * MS);
        while model.len() > 1 {
            pop(&mut q, &mut model);
        }
        assert!(q.capacity() >= 25_000, "the burst never grew the buffers");
        let mut now = pop(&mut q, &mut model);

        // The hold model at 64 pending: near, ring and far offsets.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut delta = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 20 {
                0..=12 => 1_000 + x % 49_000,
                13..=18 => 15 * MS,
                _ => 300 * MS + x % (200 * MS),
            }
        };
        for _ in 0..64 {
            let at = now + delta();
            push(&mut q, &mut model, at);
        }
        for _ in 0..1_000 {
            now = pop(&mut q, &mut model);
            let at = now + delta();
            push(&mut q, &mut model, at);
        }
        assert!(
            q.capacity() <= STEADY_BOUND,
            "64 pending events sit in room for {}",
            q.capacity()
        );
        while !model.is_empty() {
            pop(&mut q, &mut model);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn long_idle_gap_jumps_without_spinning() {
        let mut q = EventQueue::new();
        q.push(ev(0, 0));
        q.push(ev(3_600_000_000_000, 1)); // one hour later, far heap
        assert_eq!(q.pop().unwrap().at, 0);
        assert_eq!(q.pop().unwrap().at, 3_600_000_000_000);
    }
}
