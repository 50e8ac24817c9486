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
//!   drained bucket trades buffers with `near`, so the buffers circulate
//!   and steady-state scheduling never allocates.
//! * **far** — a binary heap for events beyond the ring's horizon. An
//!   event stays there until its bucket is the next to drain.
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

use iq_obs::counter_inc;

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
        let b = bucket_of(ev.at);
        if b - bucket_of(self.near_end) < SLOTS as u64 {
            counter_inc!(self.stats.wheel_pushes);
            let i = (b as usize) & (SLOTS - 1);
            self.buckets[i].push(ev);
            self.occupied[i / 64] |= 1u64 << (i % 64);
            self.in_ring += 1;
        } else {
            counter_inc!(self.stats.far_spills);
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
        counter_inc!(self.stats.bucket_drains);
        if ring == Some(b) {
            // A swap, not a copy: the bucket's buffer becomes `near` and
            // the slot keeps `near`'s emptied one, so no capacity is held
            // twice.
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
    fn long_idle_gap_jumps_without_spinning() {
        let mut q = EventQueue::new();
        q.push(ev(0, 0));
        q.push(ev(3_600_000_000_000, 1)); // one hour later, far heap
        assert_eq!(q.pop().unwrap().at, 0);
        assert_eq!(q.pop().unwrap().at, 3_600_000_000_000);
    }
}
