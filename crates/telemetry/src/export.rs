//! The hashers that fold observations and states into one word: the
//! byte-exact fingerprint hasher and the model checker's state digest.

/// The 64-bit FNV-1a hasher behind the determinism fingerprints.
///
/// The parallel runner's bit-exact scenario fingerprint and the
/// `iq-obs` metric fingerprints fold their observations through this
/// hasher, so "two runs fingerprint equal" means byte-identical
/// serialized observations. Its output is committed to files
/// (`BENCH_netsim.json`), so it stays byte-exact FNV-1a; the model
/// checker's state digests use [`StateHasher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self { state: Self::BASIS }
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds one `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds one `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Folds a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write(&[u8::from(v)]);
    }

    /// Folds an `f64` by exact bit pattern (any difference, however
    /// small, is a distinct state — same rule as the runner's
    /// determinism check).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The word-at-a-time hasher behind every model-checker state digest
/// (`state_digest` / `digest` in `iq-rudp` and `iq-core`,
/// `World::state_hash` in `iq-mc`).
///
/// A state digest is a stream of ≈ 100 fixed-width words, hashed once
/// per explored state, and all the checker needs of the result is that
/// distinct streams get distinct values (explored-state counts do not
/// depend on *which* values, DESIGN.md §13). So each `write_*` absorbs
/// its argument as one 64-bit word with one rotate-xor-multiply instead
/// of [`Fnv64`]'s eight dependent byte steps, and consecutive words go
/// to four lanes in turn, so a word's multiply waits for the word four
/// back and not for its neighbour. The lanes rotate instead of being
/// indexed: each word mixes into position 0, which then moves to the
/// back, so word `i` still lands in lane `i mod 4` but every position is
/// a constant and the four stay in registers. [`finish`] un-rotates
/// once, folds the word count and the lanes into one word and
/// avalanches it, so that both the high
/// bits (the visited table's slot) and the low ones depend on every
/// word. `write_u8(5)` and `write_u64(5)` absorb the same word: digest
/// streams are self-delimiting by construction (tags and length
/// prefixes), not by operand width. Byte and text fingerprints, whose
/// values are committed to files, stay on [`Fnv64`].
///
/// [`finish`]: StateHasher::finish
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateHasher {
    /// Rotated left once per word: lane `i` sits at position
    /// `(i + LANES - words % LANES) % LANES`, and the next word's lane,
    /// `words % LANES`, at position 0.
    lanes: [u64; Self::LANES],
    /// Words absorbed.
    words: u64,
}

impl StateHasher {
    const LANES: usize = 4;
    /// Non-zero so that a stream of leading zero words still moves the
    /// state (the golden-ratio constant, also the finisher's multiplier);
    /// each lane starts from its own rotation of it.
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    const MUL: u64 = 0x517c_c1b7_2722_0a95;

    /// A hasher that has absorbed nothing.
    pub fn new() -> Self {
        Self {
            lanes: [
                Self::SEED,
                Self::SEED.rotate_left(16),
                Self::SEED.rotate_left(32),
                Self::SEED.rotate_left(48),
            ],
            words: 0,
        }
    }

    #[inline]
    fn mix(state: u64, v: u64) -> u64 {
        (state.rotate_left(5) ^ v).wrapping_mul(Self::MUL)
    }

    /// Absorbs one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        // Spelled out: a slice rotate measured slower than indexing by
        // the word count.
        let [a, b, c, d] = self.lanes;
        self.lanes = [b, c, d, Self::mix(a, v)];
        self.words += 1;
    }

    /// Absorbs one `u8` as a word.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    /// Absorbs a `bool` as a word.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
    }

    /// Absorbs an `f64` by exact bit pattern (any difference, however
    /// small, is a distinct state).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The avalanched hash of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        let turned = self.words as usize % Self::LANES;
        let mut x = (0..Self::LANES).fold(self.words, |x, lane| {
            Self::mix(x, self.lanes[(lane + Self::LANES - turned) % Self::LANES])
        });
        x ^= x >> 32;
        x = x.wrapping_mul(Self::SEED);
        x ^ (x >> 29)
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The form the lanes had before they rotated: the word count picks
    /// the lane, so the array is indexed at run time and lives in memory.
    struct Indexed {
        lanes: [u64; StateHasher::LANES],
        words: u64,
    }

    impl Indexed {
        fn new() -> Self {
            Self {
                lanes: StateHasher::new().lanes,
                words: 0,
            }
        }

        fn write_u64(&mut self, v: u64) {
            let lane = &mut self.lanes[self.words as usize % StateHasher::LANES];
            *lane = StateHasher::mix(*lane, v);
            self.words += 1;
        }

        fn finish(&self) -> u64 {
            let mut x = self
                .lanes
                .iter()
                .fold(self.words, |x, &lane| StateHasher::mix(x, lane));
            x ^= x >> 32;
            x = x.wrapping_mul(StateHasher::SEED);
            x ^ (x >> 29)
        }
    }

    proptest! {
        /// Every prefix of a random stream, so that `finish` un-rotates
        /// from each of the four residues of the word count.
        #[test]
        fn state_hasher_matches_the_indexed_lanes(
            words in prop::collection::vec(any::<u64>(), 0..65),
        ) {
            let mut rotated = StateHasher::new();
            let mut indexed = Indexed::new();
            prop_assert_eq!(rotated.finish(), indexed.finish());
            for (i, &w) in words.iter().enumerate() {
                rotated.write_u64(w);
                indexed.write_u64(w);
                prop_assert_eq!(rotated.finish(), indexed.finish(), "after word {}", i);
            }
        }
    }

    fn state_hash(words: &[u64]) -> u64 {
        let mut h = StateHasher::new();
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }

    #[test]
    fn state_hasher_known_answers() {
        // Nothing is committed under these values (explored-state counts
        // do not depend on them), but a constant changed by accident
        // should be loud.
        assert_eq!(state_hash(&[]), 0x527c_305e_a5c8_3370);
        assert_eq!(state_hash(&[0]), 0xa24e_a7bd_5a6c_14db);
        assert_eq!(state_hash(&[1, 2, 3]), 0x1e6e_26e1_33e8_4fb8);
        let mut h = StateHasher::new();
        h.write_u8(7);
        h.write_bool(true);
        h.write_f64(0.25);
        h.write_u64(u64::MAX);
        assert_eq!(h.finish(), 0x4dcc_6b28_d308_063e);
    }

    #[test]
    fn state_hasher_separates_order_length_and_width_aliases() {
        assert_ne!(state_hash(&[1, 2]), state_hash(&[2, 1]));
        // A zero word is not a no-op, at the start or later.
        assert_ne!(state_hash(&[0]), state_hash(&[]));
        assert_ne!(state_hash(&[5, 0]), state_hash(&[5]));
        let mut narrow = StateHasher::new();
        narrow.write_u8(0);
        assert_ne!(narrow.finish(), StateHasher::new().finish());
        // Every write absorbs one word, whatever the operand's width.
        let mut wide = StateHasher::new();
        wide.write_u64(0);
        assert_eq!(narrow, wide);
        // Neighbouring inputs differ in the bits a hash table uses: the
        // low ones (bucket) and the top seven (tag).
        let (a, b) = (state_hash(&[1]), state_hash(&[2]));
        assert_ne!(a & 0xffff, b & 0xffff);
        assert_ne!(a >> 57, b >> 57);
    }

    #[test]
    fn state_hasher_lanes_keep_order_zeros_and_length() {
        // Order matters across lanes (neighbours) and within one (four
        // apart), wherever in the stream the pair sits.
        let words: Vec<u64> = (1..=12).collect();
        for gap in [1, 4] {
            for i in 0..words.len() - gap {
                let mut swapped = words.clone();
                swapped.swap(i, i + gap);
                assert_ne!(
                    state_hash(&swapped),
                    state_hash(&words),
                    "words {i} and {}",
                    i + gap
                );
            }
        }
        // A leading run of zero words moves the hash at every length, so
        // no lane starts from a fixed point of the mix.
        let zeros = [0u64; 9];
        for len in 0..zeros.len() {
            assert_ne!(
                state_hash(&zeros[..len]),
                state_hash(&zeros[..=len]),
                "{len} zeros"
            );
        }
        // Two streams that differ only in length differ, also when the
        // extra word lands in a lane the shorter stream never touched.
        assert_ne!(state_hash(&[5, 0, 0, 0, 0]), state_hash(&[5, 0, 0, 0]));
        assert_ne!(state_hash(&[5, 6, 7]), state_hash(&[5, 6, 7, 0]));
    }
}
