//! Differential tests of [`SackRanges`] against a `Vec<(u64, u64)>`
//! model.
//!
//! The block stores its ranges wire-sized — one 64-bit base, then a
//! 16-bit offset and a 16-bit length per range — where it used to hold
//! eight `(u64, u64)` pairs. Representation is not content: everything a
//! caller can observe (`push`, `extend_last`, `from_slice`, `iter`,
//! `last`, `len`, `is_full`, `==`) must match a plain vector of absolute
//! pairs that refuses exactly what the block documents it refuses — a
//! ninth range, and a range whose offset from the first start or whose
//! length does not fit 16 bits. The streams sit where that is decided:
//! bases up to `u64::MAX − 65_535`, offsets and lengths at 65,534 /
//! 65,535 / 65,536.

use std::sync::atomic::{AtomicUsize, Ordering};

use iq_rudp::{SackRanges, MAX_SACK_RANGES};
use proptest::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};

/// The largest offset and the largest length a block can store.
const SPAN: u64 = 65_535;

/// Pushes the random streams saw refused, by reason.
static REFUSED_FULL: AtomicUsize = AtomicUsize::new(0);
static REFUSED_NO_FIT: AtomicUsize = AtomicUsize::new(0);

/// First starts the streams anchor a block at: small, mid, and as high
/// as leaves room for one full span below `u64::MAX`.
const BASES: [u64; 6] = [
    0,
    5,
    1 << 40,
    u64::MAX - 2 * SPAN - 2,
    u64::MAX - SPAN - 1,
    u64::MAX - SPAN,
];

/// Offsets and lengths around the 16-bit edge.
const EDGES: [u64; 8] = [0, 1, 2, 9, SPAN - 1, SPAN, SPAN + 1, 70_000];

/// The reference: absolute pairs, refusing what the block refuses.
#[derive(Default)]
struct Model(Vec<(u64, u64)>);

impl Model {
    fn fits(&self, (start, end): (u64, u64)) -> bool {
        let base = self.0.first().map_or(start, |&(first, _)| first);
        start >= base && start - base <= SPAN && end >= start && end - start <= SPAN
    }

    fn push(&mut self, range: (u64, u64)) -> bool {
        if self.0.len() == MAX_SACK_RANGES {
            REFUSED_FULL.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if !self.fits(range) {
            REFUSED_NO_FIT.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.0.push(range);
        true
    }

    fn extend_last(&mut self, seq: u64) -> bool {
        match self.0.last_mut() {
            Some((start, end)) if *end == seq && seq < u64::MAX && *end - *start < SPAN => {
                *end += 1;
                true
            }
            _ => false,
        }
    }
}

/// Asserts the block and the model agree on everything observable.
fn assert_same(block: &SackRanges, model: &Model) {
    prop_assert_eq!(block.len(), model.0.len());
    prop_assert_eq!(block.is_empty(), model.0.is_empty());
    prop_assert_eq!(block.is_full(), model.0.len() == MAX_SACK_RANGES);
    prop_assert_eq!(block.iter().collect::<Vec<_>>(), model.0.clone());
    prop_assert_eq!(block.last(), model.0.last().copied());
    prop_assert!(*block == model.0, "PartialEq<Vec> disagrees with iter()");
    // A block rebuilt from its ranges is the same block, whatever
    // scratch the original carries past `len` or from a refused push.
    prop_assert!(SackRanges::from_slice(&model.0) == *block);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cases behind [`block_matches_vec_under_random_ops`].
    fn random_op_cases(
        ops in prop::collection::vec((0u32..10, 0usize..64, 0usize..64), 1..120),
    ) {
        let mut block = SackRanges::new();
        let mut model = Model::default();
        // Where an empty block will be anchored next.
        let mut anchor = BASES[0];

        for &(op, a, b) in &ops {
            let base = model.0.first().map_or(anchor, |&(first, _)| first);
            let last_end = model.0.last().map_or(base, |&(_, end)| end);
            let edge = |i: usize| EDGES[i % EDGES.len()];
            // `None`: the op's range is past `u64::MAX`; skip it.
            let range = match op {
                // The receiver's shape: the next range a small gap past
                // the last one, a few segments long (drawn most often,
                // so blocks fill up).
                0 | 7.. => last_end
                    .checked_add(1 + a as u64 % 3)
                    .and_then(|start| Some((start, start.checked_add(1 + b as u64 % 4)?))),
                // Offset and length picked at the 16-bit edge.
                1 => base
                    .checked_add(edge(a))
                    .and_then(|start| Some((start, start.checked_add(edge(b))?))),
                // Below the first start, or inverted: never fits.
                2 if a % 2 == 0 => base.checked_sub(1 + edge(b)).map(|start| (start, start + 1)),
                2 => Some((last_end.saturating_add(2), last_end)),
                _ => None,
            };
            match op {
                0..=2 | 7.. => {
                    if let Some(range) = range {
                        let before = block;
                        let accepted = block.push(range);
                        prop_assert_eq!(accepted, model.push(range), "push({:?})", range);
                        if !accepted {
                            prop_assert!(block == before, "a refused push changed the block");
                        }
                    }
                }
                // Grow the last range by the seq right after it …
                3 => prop_assert_eq!(block.extend_last(last_end), model.extend_last(last_end)),
                // … and refuse any other.
                4 => {
                    let seq = last_end.wrapping_add(edge(a)).wrapping_sub(edge(b));
                    prop_assert_eq!(block.extend_last(seq), model.extend_last(seq));
                }
                // Stretch the last range towards the longest a block
                // holds, then extend it across that.
                5 => {
                    if let Some(&(start, end)) = model.0.last() {
                        let room = (SPAN - (end - start)).min(u64::MAX - end);
                        for step in 0..room.min(3 + a as u64) {
                            let seq = end + step;
                            prop_assert_eq!(block.extend_last(seq), model.extend_last(seq));
                        }
                    }
                }
                // Start over, anchored somewhere else.
                6 => {
                    block = SackRanges::new();
                    model = Model::default();
                    anchor = BASES[a % BASES.len()];
                }
            }
            assert_same(&block, &model);
        }
    }
}

#[test]
fn block_matches_vec_under_random_ops() {
    random_op_cases();
    // The streams are seeded, so this is a fact about them, not luck:
    // both refusals are crossed many times over.
    let (full, no_fit) = (
        REFUSED_FULL.load(Ordering::Relaxed),
        REFUSED_NO_FIT.load(Ordering::Relaxed),
    );
    assert!(
        full >= 32 && no_fit >= 32,
        "refused pushes: {full} into a full block, {no_fit} that do not fit 16 bits"
    );
}

#[test]
fn offsets_and_lengths_stop_at_sixteen_bits() {
    for base in BASES {
        for (offset, length, fits) in [
            (SPAN - 1, 0, true),
            (SPAN, 0, true),
            (SPAN + 1, 0, false),
            (0, SPAN - 1, true),
            (0, SPAN, true),
            (0, SPAN + 1, false),
        ] {
            let (Some(start), Some(first_end)) = (base.checked_add(offset), base.checked_add(1))
            else {
                continue;
            };
            let Some(end) = start.checked_add(length) else {
                continue;
            };
            let mut block = SackRanges::from_slice(&[(base, first_end)]);
            let before = block;
            assert_eq!(
                block.push((start, end)),
                fits,
                "base {base} +{offset} len {length}"
            );
            if fits {
                assert_eq!(block.last(), Some((start, end)));
                assert_eq!(block.iter().next(), Some((base, first_end)));
            } else {
                assert!(block == before, "a refused push changed the block");
            }
        }
    }
    // A range 65,535 long cannot be extended; one short of it can, once.
    let mut block = SackRanges::from_slice(&[(7, 7 + SPAN - 1)]);
    assert!(block.extend_last(7 + SPAN - 1));
    assert!(!block.extend_last(7 + SPAN));
    assert_eq!(block.last(), Some((7, 7 + SPAN)));
    // Nor can the range that ends at `u64::MAX`.
    let mut block = SackRanges::from_slice(&[(u64::MAX - 1, u64::MAX)]);
    assert!(!block.extend_last(u64::MAX));
    assert_eq!(block.last(), Some((u64::MAX - 1, u64::MAX)));
}

#[test]
#[should_panic(expected = "does not fit the block")]
fn from_slice_refuses_what_push_refuses() {
    SackRanges::from_slice(&[(10, 11), (10 + SPAN + 1, 10 + SPAN + 2)]);
}
