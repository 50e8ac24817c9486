//! Differential tests of [`SeqRing`] against a `BTreeMap` model.
//!
//! The sender's inflight table and the receiver's reorder buffer used to
//! be `BTreeMap<u64, _>`; `SeqRing` replaced them on the hot path. These
//! properties pin the ring to the map's observable behaviour — inserts
//! (forward, duplicate, and below the current head), point removals,
//! in-order pops, cumulative drains that cross holes (the `cum_ack` /
//! `fwd_seq` abandonment paths), and bounded mutation sweeps — over
//! randomized op streams with loss, reordering, and skips. Every ring
//! starts on its inline slab, so the streams also carry it across the
//! move to the heap, stretched forwards and re-anchored backwards, and
//! jumps of up to two pages carry it onto pages and across them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use iq_rudp::ring::PAGE_SLOTS;
use iq_rudp::SeqRing;
use proptest::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};

/// Inline→heap moves the random-op streams made, by the insert that
/// caused them: past the window's end, and below its head.
static MOVED_FORWARD: AtomicUsize = AtomicUsize::new(0);
static MOVED_BACKWARD: AtomicUsize = AtomicUsize::new(0);

/// Moves onto pages (a window past [`PAGE_SLOTS`]) the streams made, the
/// same two ways.
static PAGED_FORWARD: AtomicUsize = AtomicUsize::new(0);
static PAGED_BACKWARD: AtomicUsize = AtomicUsize::new(0);

/// Asserts the ring and map agree on everything a caller can observe.
fn assert_same<const FIRST: usize>(ring: &SeqRing<u32, FIRST>, model: &BTreeMap<u64, u32>) {
    prop_assert_eq!(ring.len(), model.len());
    prop_assert_eq!(ring.is_empty(), model.is_empty());
    prop_assert_eq!(ring.first_seq(), model.first_key_value().map(|(&k, _)| k));
    let got: Vec<(u64, u32)> = ring.iter().map(|(s, &v)| (s, v)).collect();
    let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    prop_assert_eq!(got, want);
    if let Some((&last, _)) = model.last_key_value() {
        prop_assert!(ring.end_seq() > last, "end_seq must cover the last entry");
    }
}

/// Runs one random op stream against a ring with `FIRST` inline slots
/// and the map, comparing after every op.
fn random_ops_match<const FIRST: usize>(ops: &[(u32, u64)]) {
    let mut ring: SeqRing<u32, FIRST> = SeqRing::new();
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    let mut cursor = 16u64; // headroom for below-head inserts
    let mut tick = 0u32;

    for &(op, raw) in ops {
        tick += 1;
        let inline = ring.capacity() == FIRST;
        let unpaged = ring.capacity() <= PAGE_SLOTS;
        let head = ring.first_seq();
        match op {
            // Forward insert at (or slightly past) the cursor,
            // leaving reorder holes behind.
            0 => {
                let seq = cursor + raw % 4;
                cursor = seq + 1;
                prop_assert_eq!(ring.insert(seq, tick), model.insert(seq, tick));
            }
            // Insert at or below the current head: the ring must
            // re-anchor (and possibly grow) without losing entries.
            1 => {
                let head = ring.first_seq().unwrap_or(cursor);
                let seq = head.saturating_sub(raw % 8);
                prop_assert_eq!(ring.insert(seq, tick), model.insert(seq, tick));
            }
            // Point removal of an existing key (SACK-style).
            2 => {
                let seq = model
                    .keys()
                    .nth(raw as usize % model.len().max(1))
                    .copied()
                    .unwrap_or(raw);
                prop_assert_eq!(ring.take(seq), model.remove(&seq));
            }
            // Point removal of an arbitrary (likely absent) key.
            3 => {
                prop_assert_eq!(ring.take(raw), model.remove(&raw));
            }
            // In-order pop.
            4 => {
                prop_assert_eq!(ring.pop_first(), model.pop_first());
            }
            // Cumulative drain below a bound, crossing holes — the
            // `cum_ack` / `fwd_seq` abandonment path. The bound can
            // land far past the head.
            5 => {
                let bound = ring.first_seq().unwrap_or(0) + raw;
                loop {
                    let want = model
                        .first_key_value()
                        .filter(|&(&k, _)| k < bound)
                        .map(|(&k, &v)| (k, v));
                    let got = ring.pop_first_below(bound);
                    prop_assert_eq!(got, want);
                    if want.is_none() {
                        break;
                    }
                    model.pop_first();
                }
            }
            // Bounded mutation sweep (the dup-ack hint scan).
            6 => {
                let bound = ring.first_seq().unwrap_or(0) + raw;
                let mut visited = Vec::new();
                ring.for_each_mut_below(bound, |seq, v| {
                    *v = v.wrapping_add(1);
                    visited.push(seq);
                });
                let mut expected = Vec::new();
                for (&k, v) in model.range_mut(..bound) {
                    *v = v.wrapping_add(1);
                    expected.push(k);
                }
                prop_assert_eq!(visited, expected, "sweep order/coverage");
            }
            // A jump of up to two pages past the cursor (even `raw`) or
            // below the head (odd): the window goes onto pages, and
            // across them as the stream slides on.
            _ => {
                let dist = raw * PAGE_SLOTS as u64 / 24;
                let seq = if raw % 2 == 0 {
                    cursor + dist
                } else {
                    ring.first_seq().unwrap_or(cursor).saturating_sub(dist)
                };
                cursor = cursor.max(seq + 1);
                prop_assert_eq!(ring.insert(seq, tick), model.insert(seq, tick));
            }
        }
        assert_same(&ring, &model);
        // Only an insert widens the window: below the head if it moved
        // the head down.
        let below = head.is_some_and(|h| ring.first_seq() < Some(h));
        if inline && ring.capacity() > FIRST {
            let moved = if below {
                &MOVED_BACKWARD
            } else {
                &MOVED_FORWARD
            };
            moved.fetch_add(1, Ordering::Relaxed);
        }
        if unpaged && ring.capacity() > PAGE_SLOTS {
            let paged = if below {
                &PAGED_BACKWARD
            } else {
                &PAGED_FORWARD
            };
            paged.fetch_add(1, Ordering::Relaxed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cases behind [`ring_matches_btreemap_under_random_ops`], on
    /// the receiver's two inline slots, the default four, and eight.
    fn random_op_cases(
        ops in prop::collection::vec((0u32..8, 0u64..48), 1..400),
    ) {
        random_ops_match::<2>(&ops);
        random_ops_match::<4>(&ops);
        random_ops_match::<8>(&ops);
    }

    /// A receiver-shaped stream: segments from a sliding window arrive
    /// reordered, some are lost, and every few arrivals the sender's
    /// `fwd_seq` floor jumps ahead, abandoning everything below — the
    /// drain must cross the ring head and any holes in one sweep.
    #[test]
    fn receiver_stream_with_loss_reorder_and_fwd_skips(
        arrivals in prop::collection::vec((0u64..24, prop::bool::weighted(0.8)), 1..300),
        fwd_step in 1u64..40,
    ) {
        let mut ring: SeqRing<u32, 2> = SeqRing::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let mut base = 0u64;
        let mut floor = 0u64;

        for (i, &(offset, keep)) in arrivals.iter().enumerate() {
            // The window slides forward as the stream progresses.
            if i % 5 == 4 {
                base += offset % 6;
            }
            let seq = base + offset;
            if keep && seq >= floor {
                let v = seq as u32;
                prop_assert_eq!(ring.insert(seq, v), model.insert(seq, v));
            }
            // Periodic fwd_seq abandonment, possibly past the head and
            // across holes left by losses.
            if i % 7 == 6 {
                floor += fwd_step;
                while let Some((got_seq, got_v)) = ring.pop_first_below(floor) {
                    let (want_seq, want_v) = model.pop_first().expect("model ahead of ring");
                    prop_assert_eq!((got_seq, got_v), (want_seq, want_v));
                }
                prop_assert!(
                    model.first_key_value().is_none_or(|(&k, _)| k >= floor),
                    "ring stopped draining before the floor"
                );
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.first_seq(), model.first_key_value().map(|(&k, _)| k));
        }
        assert_same(&ring, &model);
    }
}

#[test]
fn ring_matches_btreemap_under_random_ops() {
    random_op_cases();
    // The streams are seeded, so this is a fact about them, not luck:
    // they move rings to the heap and onto pages in both directions,
    // many times over.
    let (forward, backward) = (
        MOVED_FORWARD.load(Ordering::Relaxed),
        MOVED_BACKWARD.load(Ordering::Relaxed),
    );
    assert!(
        forward >= 32 && backward >= 32,
        "inline→heap moves: {forward} forward, {backward} on a backward re-anchor"
    );
    let (forward, backward) = (
        PAGED_FORWARD.load(Ordering::Relaxed),
        PAGED_BACKWARD.load(Ordering::Relaxed),
    );
    println!("moves onto pages: {forward} forward, {backward} on a backward re-anchor");
    assert!(
        forward >= 32 && backward >= 32,
        "moves onto pages: {forward} forward, {backward} on a backward re-anchor"
    );
}
