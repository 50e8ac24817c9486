//! A dense, sequence-indexed ring buffer for per-connection transport
//! state.
//!
//! RUDP assigns sequence numbers contiguously per connection, so the set
//! of outstanding sender segments (and the receiver's reorder buffer)
//! always lives in a narrow window `[head, head + span)` that slides
//! forward as cumulative ACKs and in-order delivery advance. A
//! `BTreeMap<u64, T>` pays pointer chasing and node allocation for
//! ordering the structure gets for free; [`SeqRing`] stores the window
//! in `Option<T>` slots addressed by their offset from the head, so
//! lookups are O(1), iteration is a linear scan, and a window that
//! slides without widening allocates nothing. The slots live in one of
//! three tiers; a ring moves up a tier when its window outgrows the one
//! it is on, and never back:
//!
//! * the first `FIRST` slots (a type parameter, [`FIRST_SLOTS`] unless
//!   the holder says otherwise) are part of the ring itself, so a flow
//!   whose window never outgrows them never calls the allocator for it;
//! * up to [`PAGE_SLOTS`], a power-of-two heap slab indexed by
//!   `(head + offset) & mask`, which doubles (a copy) as the window
//!   widens;
//! * past that, pages of [`PAGE_SLOTS`] slots. Slot `head + offset` is
//!   split by shift and mask into a page and a slot, and the ring grows
//!   only by adding a page at either end, so no slot is copied. A page
//!   the head leaves is empty and rotates to the back, where the window
//!   reuses it.
//!
//! [`PAGE_SLOTS`] is `MAX_CWND`, so an in-flight window never pages:
//! only an application's backlog does.
//!
//! Semantics match a `BTreeMap<u64, T>` restricted to the access
//! patterns the protocol uses; `tests/ring_diff.rs` pins that
//! equivalence with differential property tests.

use std::collections::VecDeque;

/// Default number of slots in a ring's first slab, which is stored
/// inline. Most flows of a large fleet never have more than a few
/// segments outstanding; a flow that does moves to a heap slab of at
/// least twice the size and doubles from there.
pub const FIRST_SLOTS: usize = 4;

/// Slots in a page, and the widest heap slab: a window wider than this
/// lives in pages.
pub const PAGE_SLOTS: usize = 1024;

const PAGE_SHIFT: u32 = PAGE_SLOTS.trailing_zeros();

/// Where a ring's slots live.
#[derive(Debug, Clone)]
enum Slab<T, const FIRST: usize> {
    /// The first slab, inside the ring (and so inside whatever holds
    /// the ring): no allocation until the window outgrows it.
    Inline([Option<T>; FIRST]),
    /// A power-of-two heap slab of more than `FIRST` slots and at most
    /// [`PAGE_SLOTS`].
    Heap(Box<[Option<T>]>),
    /// Pages of [`PAGE_SLOTS`] slots; the head lies in the first.
    Paged(VecDeque<Box<[Option<T>]>>),
}

/// Moves the first `n` pages, which the head has left empty, to the
/// back. Out of line: the head leaves a page once in [`PAGE_SLOTS`]
/// slots.
#[cold]
fn rotate<T>(pages: &mut VecDeque<Box<[Option<T>]>>, n: usize) {
    pages.rotate_left(n);
}

/// An empty page.
fn page<T>() -> Box<[Option<T>]> {
    (0..PAGE_SLOTS).map(|_| None).collect()
}

impl<T, const FIRST: usize> Slab<T, FIRST> {
    fn capacity(&self) -> usize {
        match self {
            Slab::Inline(_) => FIRST,
            Slab::Heap(slots) => slots.len(),
            Slab::Paged(pages) => pages.len() << PAGE_SHIFT,
        }
    }

    /// The slot at physical index `p`: masked into a ring slab, split
    /// into a page and a slot on pages.
    fn slot(&self, p: usize) -> &Option<T> {
        let slots: &[Option<T>] = match self {
            Slab::Inline(slots) => slots,
            Slab::Heap(slots) => slots,
            Slab::Paged(pages) => return &pages[p >> PAGE_SHIFT][p & (PAGE_SLOTS - 1)],
        };
        &slots[p & (slots.len() - 1)]
    }

    fn slot_mut(&mut self, p: usize) -> &mut Option<T> {
        let slots: &mut [Option<T>] = match self {
            Slab::Inline(slots) => slots,
            Slab::Heap(slots) => slots,
            Slab::Paged(pages) => return &mut pages[p >> PAGE_SHIFT][p & (PAGE_SLOTS - 1)],
        };
        let mask = slots.len() - 1;
        &mut slots[p & mask]
    }

    /// The slots of a ring slab, `None` on pages: a loop over the
    /// window reads a ring slab by mask, without a match per slot.
    fn ring(&self) -> Option<&[Option<T>]> {
        match self {
            Slab::Inline(slots) => Some(slots),
            Slab::Heap(slots) => Some(slots),
            Slab::Paged(_) => None,
        }
    }

    fn ring_mut(&mut self) -> Option<&mut [Option<T>]> {
        match self {
            Slab::Inline(slots) => Some(slots),
            Slab::Heap(slots) => Some(slots),
            Slab::Paged(_) => None,
        }
    }

    /// Physical index `p`, reached by the head, as the head's new
    /// index: wrapped into a ring slab; on pages, every page wholly
    /// below `p` is empty and rotates to the back.
    fn rebase(&mut self, p: usize) -> usize {
        let len = match self {
            Slab::Inline(slots) => slots.len(),
            Slab::Heap(slots) => slots.len(),
            Slab::Paged(pages) => {
                if p >= PAGE_SLOTS {
                    rotate(pages, p >> PAGE_SHIFT);
                }
                PAGE_SLOTS
            }
        };
        p & (len - 1)
    }
}

/// A sparse window of `T` values keyed by contiguous-ish `u64` sequence
/// numbers, backed by `Option<T>` slots, the first `FIRST` of them (a
/// power of two: slots are addressed by mask) inline.
#[derive(Debug)]
pub struct SeqRing<T, const FIRST: usize = FIRST_SLOTS> {
    /// Sequence number of the slot at physical index `head`; meaningful
    /// only while `span > 0`. Invariant: when `len > 0` the head slot is
    /// occupied (leading empties are trimmed after every removal), and
    /// every slot outside the window is empty.
    head_seq: u64,
    /// Physical index of `head_seq`'s slot.
    head: usize,
    /// Width of the active window `[head_seq, head_seq + span)`.
    span: usize,
    /// Occupied slots within the window.
    len: usize,
    /// Slot storage.
    slab: Slab<T, FIRST>,
}

// Hand-written for `clone_from`: the model checker refills one scratch
// connection per transition, and the derive's `clone_from` would drop
// the slab and allocate a new one each time. The destructuring is
// exhaustive so that a new field cannot be added without deciding how
// it is copied.
impl<T: Clone, const FIRST: usize> Clone for SeqRing<T, FIRST> {
    fn clone(&self) -> Self {
        let Self {
            head_seq,
            head,
            span,
            len,
            slab,
        } = self;
        Self {
            head_seq: *head_seq,
            head: *head,
            span: *span,
            len: *len,
            slab: slab.clone(),
        }
    }

    /// Same result as `*self = src.clone()`, physical layout included;
    /// a heap slab is reused when both have the same capacity.
    fn clone_from(&mut self, src: &Self) {
        let Self {
            head_seq,
            head,
            span,
            len,
            slab,
        } = src;
        self.head_seq = *head_seq;
        self.head = *head;
        self.span = *span;
        self.len = *len;
        match (&mut self.slab, slab) {
            (Slab::Inline(dst), Slab::Inline(src)) => dst.clone_from(src),
            // `Box<[T]>::clone_from` clones element-wise into the
            // existing allocation when the lengths match and
            // reallocates otherwise.
            (Slab::Heap(dst), Slab::Heap(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl<T, const FIRST: usize> Default for SeqRing<T, FIRST> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const FIRST: usize> SeqRing<T, FIRST> {
    /// An empty ring on its inline slab; allocates nothing.
    pub fn new() -> Self {
        const { assert!(FIRST.is_power_of_two() && FIRST <= PAGE_SLOTS) };
        Self {
            head_seq: 0,
            head: 0,
            span: 0,
            len: 0,
            slab: Slab::Inline([const { None }; FIRST]),
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot capacity (for tests and sizing diagnostics): `FIRST`
    /// while the ring is on its inline slab, a power of two up to
    /// [`PAGE_SLOTS`] on a heap slab, and a multiple of it on pages (it
    /// never shrinks).
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Lowest occupied sequence number.
    pub fn first_seq(&self) -> Option<u64> {
        (self.len > 0).then_some(self.head_seq)
    }

    /// One past the highest sequence the window covers (0 when empty).
    /// Occupied seqs all satisfy `first_seq() <= seq < end_seq()`,
    /// except when the window abuts `u64::MAX`: the sum saturates there
    /// instead of overflowing, so an entry at `u64::MAX` itself reports
    /// `end_seq() == u64::MAX`.
    pub fn end_seq(&self) -> u64 {
        if self.len == 0 {
            0
        } else {
            self.head_seq.saturating_add(self.span as u64)
        }
    }

    /// How far past the head the window may reach without more room.
    fn room(&self) -> usize {
        match &self.slab {
            Slab::Inline(_) => FIRST,
            Slab::Heap(slots) => slots.len(),
            Slab::Paged(pages) => (pages.len() << PAGE_SHIFT) - self.head,
        }
    }

    /// Physical index of `seq`'s slot, if the window covers it.
    fn slot_index(&self, seq: u64) -> Option<usize> {
        if self.span == 0 || seq < self.head_seq {
            return None;
        }
        let offset = seq - self.head_seq;
        if offset >= self.span as u64 {
            return None;
        }
        Some(self.head + offset as usize)
    }

    /// Whether `seq` is occupied.
    pub fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// Borrows the entry at `seq`.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.slot_index(seq)
            .and_then(|p| self.slab.slot(p).as_ref())
    }

    /// Mutably borrows the entry at `seq`.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        self.slot_index(seq)
            .and_then(move |p| self.slab.slot_mut(p).as_mut())
    }

    /// Relocates the window into a heap slab of at least `min_cap` (at
    /// most [`PAGE_SLOTS`]) slots, with the head at physical index 0.
    #[cold]
    fn grow(&mut self, min_cap: usize) {
        let new_cap = min_cap.next_power_of_two();
        let mut new_slots: Vec<Option<T>> = Vec::with_capacity(new_cap);
        let (head, slab) = (self.head, &mut self.slab);
        new_slots.extend((0..self.span).map(|off| slab.slot_mut(head + off).take()));
        new_slots.resize_with(new_cap, || None);
        self.slab = Slab::Heap(new_slots.into_boxed_slice());
        self.head = 0;
    }

    /// Moves the window, at most [`PAGE_SLOTS`] wide, onto one page with
    /// the head at its first slot. A heap slab of [`PAGE_SLOTS`] slots
    /// becomes that page, rotated in place; a smaller slab is copied.
    #[cold]
    fn page_in(&mut self) {
        let first = match &mut self.slab {
            Slab::Heap(slots) if slots.len() == PAGE_SLOTS => {
                slots.rotate_left(self.head);
                std::mem::take(slots)
            }
            slab => {
                let mut first = page();
                for (off, slot) in first.iter_mut().enumerate().take(self.span) {
                    *slot = slab.slot_mut(self.head + off).take();
                }
                first
            }
        };
        self.slab = Slab::Paged(VecDeque::from([first]));
        self.head = 0;
    }

    /// Makes room for the window to reach `end` slots past the head,
    /// which [`Self::room`] says it has not.
    #[cold]
    fn reserve(&mut self, end: usize) {
        if !matches!(self.slab, Slab::Paged(_)) {
            if end <= PAGE_SLOTS {
                return self.grow(end);
            }
            self.page_in();
        }
        if let Slab::Paged(pages) = &mut self.slab {
            pages.resize_with((self.head + end).div_ceil(PAGE_SLOTS), page);
        }
    }

    /// Makes room for the head to move `back` slots down and the window
    /// to widen to `needed` slots, which it has not. On pages, a page
    /// wholly past the window is empty and moves to the front before a
    /// new one is allocated.
    #[cold]
    fn reserve_front(&mut self, back: usize, needed: usize) {
        if !matches!(self.slab, Slab::Paged(_)) {
            if needed <= PAGE_SLOTS {
                return self.grow(needed);
            }
            self.page_in();
        }
        if let Slab::Paged(pages) = &mut self.slab {
            while self.head < back {
                let used = (self.head + self.span).div_ceil(PAGE_SLOTS);
                let spare = if pages.len() > used {
                    pages.pop_back()
                } else {
                    None
                };
                pages.push_front(spare.unwrap_or_else(page));
                self.head += PAGE_SLOTS;
            }
        }
    }

    /// Inserts `value` at `seq`, returning the previous occupant if any.
    /// The window stretches to cover `seq` in either direction (the
    /// receiver re-anchors backwards when an out-of-order segment lands
    /// below the current head).
    pub fn insert(&mut self, seq: u64, value: T) -> Option<T> {
        if self.len == 0 {
            self.head = 0;
            self.head_seq = seq;
            self.span = 1;
        } else if seq >= self.head_seq {
            let offset = seq - self.head_seq;
            let offset = usize::try_from(offset).expect("seq window exceeds usize");
            if offset >= self.span {
                if offset >= self.room() {
                    self.reserve(offset + 1);
                }
                self.span = offset + 1;
            }
        } else {
            let back = self.head_seq - seq;
            let needed = (self.span as u64)
                .checked_add(back)
                .and_then(|n| usize::try_from(n).ok())
                .expect("seq window exceeds usize");
            let back = back as usize;
            let fits = match self.slab {
                Slab::Paged(_) => back <= self.head,
                _ => needed <= self.capacity(),
            };
            if !fits {
                self.reserve_front(back, needed);
            }
            self.head = match &self.slab {
                Slab::Paged(_) => self.head - back,
                slab => {
                    let cap = slab.capacity();
                    (self.head + cap - back) & (cap - 1)
                }
            };
            self.head_seq = seq;
            self.span = needed;
        }
        let p = self.head + (seq - self.head_seq) as usize;
        let old = self.slab.slot_mut(p).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Drops empty slots at the front so `head_seq` stays the lowest
    /// occupied sequence (or resets the window when nothing is left).
    fn trim_front(&mut self) {
        if self.len == 0 {
            self.span = 0;
            return;
        }
        if self.slab.slot(self.head).is_some() {
            return;
        }
        let mut skip = 1;
        while self.slab.slot(self.head + skip).is_none() {
            skip += 1;
        }
        self.head = self.slab.rebase(self.head + skip);
        self.head_seq += skip as u64;
        self.span -= skip;
    }

    /// Removes and returns the entry at `seq`.
    pub fn take(&mut self, seq: u64) -> Option<T> {
        let p = self.slot_index(seq)?;
        let v = self.slab.slot_mut(p).take()?;
        self.len -= 1;
        self.trim_front();
        Some(v)
    }

    /// Removes and returns the lowest entry.
    pub fn pop_first(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        let seq = self.head_seq;
        let v = self
            .slab
            .slot_mut(self.head)
            .take()
            .expect("head slot occupied");
        self.len -= 1;
        if self.len == 0 {
            self.span = 0;
        } else {
            self.head = self.slab.rebase(self.head + 1);
            self.head_seq += 1;
            self.span -= 1;
            self.trim_front();
        }
        Some((seq, v))
    }

    /// Removes and returns the lowest entry if its seq is below `bound`
    /// (the cumulative-ACK drain loop).
    pub fn pop_first_below(&mut self, bound: u64) -> Option<(u64, T)> {
        if self.len == 0 || self.head_seq >= bound {
            return None;
        }
        self.pop_first()
    }

    /// Iterates occupied entries in ascending sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let ring = self.slab.ring();
        let mask = ring.map_or(0, |slots| slots.len() - 1);
        (0..self.span).filter_map(move |off| {
            let p = self.head + off;
            let slot = match ring {
                Some(slots) => &slots[p & mask],
                None => self.slab.slot(p),
            };
            slot.as_ref().map(|v| (self.head_seq + off as u64, v))
        })
    }

    /// Calls `f` on every occupied entry with seq below `bound`, in
    /// ascending order (the dup-hint loss-detection sweep).
    pub fn for_each_mut_below(&mut self, bound: u64, mut f: impl FnMut(u64, &mut T)) {
        let (head, head_seq) = (self.head, self.head_seq);
        let below = bound.saturating_sub(head_seq);
        let end = usize::try_from(below).map_or(self.span, |n| n.min(self.span));
        let mut visit = |off: usize, slot: &mut Option<T>| {
            if let Some(v) = slot {
                f(head_seq + off as u64, v);
            }
        };
        if let Some(slots) = self.slab.ring_mut() {
            let mask = slots.len() - 1;
            for off in 0..end {
                visit(off, &mut slots[(head + off) & mask]);
            }
        } else {
            for off in 0..end {
                visit(off, self.slab.slot_mut(head + off));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default-shaped ring the tests run on (a bare `SeqRing::new()`
    /// leaves `FIRST` to inference, which defaults do not feed).
    type Ring = SeqRing<u32>;

    fn occupied(r: &Ring) -> Vec<(u64, u32)> {
        r.iter().map(|(s, &v)| (s, v)).collect()
    }

    #[test]
    fn insert_get_take_roundtrip() {
        let mut r = Ring::new();
        assert!(r.is_empty());
        assert_eq!(r.insert(10, 1), None);
        assert_eq!(r.insert(12, 3), None);
        assert_eq!(r.insert(10, 2), Some(1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(10), Some(&2));
        assert_eq!(r.get(11), None);
        assert_eq!(r.first_seq(), Some(10));
        assert_eq!(r.end_seq(), 13);
        assert_eq!(r.take(12), Some(3));
        assert_eq!(r.take(12), None);
        assert_eq!(r.take(10), Some(2));
        assert!(r.is_empty());
        assert_eq!(r.end_seq(), 0);
    }

    #[test]
    fn head_trims_past_holes() {
        let mut r = Ring::new();
        for seq in 0..6 {
            r.insert(seq, seq as u32);
        }
        r.take(1);
        r.take(2);
        assert_eq!(r.first_seq(), Some(0));
        r.take(0); // head advances over the 1..=2 hole straight to 3
        assert_eq!(r.first_seq(), Some(3));
        assert_eq!(occupied(&r), vec![(3, 3), (4, 4), (5, 5)]);
    }

    #[test]
    fn pop_first_below_is_a_cumulative_drain() {
        let mut r = Ring::new();
        for seq in 5..10 {
            r.insert(seq, seq as u32);
        }
        let mut popped = vec![];
        while let Some((s, _)) = r.pop_first_below(8) {
            popped.push(s);
        }
        assert_eq!(popped, vec![5, 6, 7]);
        assert_eq!(r.first_seq(), Some(8));
    }

    #[test]
    fn growth_preserves_contents_and_order() {
        let mut r = Ring::new();
        for seq in 0..200u64 {
            r.insert(seq, seq as u32);
        }
        assert!(r.capacity() >= 200);
        assert_eq!(r.len(), 200);
        let got = occupied(&r);
        assert_eq!(got.len(), 200);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, &(s, v))| s == i as u64 && v == i as u32));
    }

    #[test]
    fn first_slab_is_small_and_doubles_to_hold_a_window() {
        let mut r = Ring::new();
        assert_eq!(
            r.capacity(),
            FIRST_SLOTS,
            "a new ring is on its inline slab"
        );
        // The spill boundary: `FIRST_SLOTS` entries fit inline, one
        // more moves the window to a heap slab of twice the size.
        for seq in 100..100 + FIRST_SLOTS as u64 {
            r.insert(seq, seq as u32);
        }
        assert!(matches!(r.slab, Slab::Inline(_)));
        r.insert(100 + FIRST_SLOTS as u64, 0);
        assert!(matches!(r.slab, Slab::Heap(_)));
        assert_eq!(r.capacity(), 2 * FIRST_SLOTS);
        let mut caps = vec![r.capacity()];
        for seq in 101..164u64 {
            r.insert(seq, seq as u32);
            if r.capacity() != *caps.last().unwrap() {
                caps.push(r.capacity());
            }
        }
        assert_eq!(caps, [8, 16, 32, 64], "grows by doubling, on demand");
        assert_eq!(r.len(), 64);
        assert!(occupied(&r)
            .into_iter()
            .eq((100..164u64).map(|s| (s, s as u32))));
        // A window that slides without widening never leaves the
        // inline slab, and a drained heap ring does not move back.
        let mut small = Ring::new();
        for seq in 0..1_000u64 {
            small.insert(seq, 0u32);
            if seq >= 3 {
                small.pop_first();
            }
        }
        assert!(matches!(small.slab, Slab::Inline(_)));
        while r.pop_first().is_some() {}
        assert_eq!(r.capacity(), 64);
    }

    #[test]
    fn backward_reanchor_crosses_the_spill_boundary() {
        // The receiver's path onto the heap: out-of-order arrivals
        // below the head widen the window past the inline slab.
        let mut r = Ring::new();
        r.insert(10, 10u32);
        r.insert(11, 11);
        r.insert(8, 8);
        assert!(matches!(r.slab, Slab::Inline(_)), "a 4-wide window fits");
        r.insert(7, 7);
        assert!(matches!(r.slab, Slab::Heap(_)));
        assert_eq!(occupied(&r), vec![(7, 7), (8, 8), (10, 10), (11, 11)]);
        assert_eq!(r.first_seq(), Some(7));
        assert_eq!(r.get(9), None);
    }

    #[test]
    fn window_slides_without_growing() {
        let mut r = Ring::new();
        for seq in 0..8u64 {
            r.insert(seq, 0);
        }
        let cap = r.capacity();
        // Slide the window far past the initial capacity: pop one, push
        // one. Capacity must stay put.
        for seq in 8..10_000u64 {
            r.pop_first();
            r.insert(seq, 0);
        }
        assert_eq!(r.capacity(), cap);
        assert_eq!(r.len(), 8);
        assert_eq!(r.first_seq(), Some(9992));
    }

    #[test]
    fn insert_below_head_reanchors() {
        let mut r = Ring::new();
        r.insert(20, 20);
        r.insert(22, 22);
        // An out-of-order arrival below the current head.
        r.insert(17, 17);
        assert_eq!(r.first_seq(), Some(17));
        assert_eq!(occupied(&r), vec![(17, 17), (20, 20), (22, 22)]);
        assert_eq!(r.take(17), Some(17));
        assert_eq!(r.first_seq(), Some(20));
    }

    #[test]
    fn insert_far_below_head_grows() {
        let mut r = Ring::new();
        r.insert(100, 1);
        for seq in (0..100).rev() {
            r.insert(seq, 2);
        }
        assert_eq!(r.len(), 101);
        assert_eq!(r.first_seq(), Some(0));
        assert_eq!(r.get(100), Some(&1));
    }

    #[test]
    fn wraparound_adjacent_seqs() {
        // Sequence numbers right at the top of the u64 space: the
        // window arithmetic must not overflow (`end_seq` saturates
        // instead of panicking when an entry sits at u64::MAX).
        let top = u64::MAX;
        let mut r = Ring::new();
        r.insert(top - 3, 3u32);
        r.insert(top - 1, 1);
        r.insert(top, 0);
        assert_eq!(r.len(), 3);
        assert_eq!(r.first_seq(), Some(top - 3));
        assert_eq!(r.end_seq(), top); // saturated, not wrapped
        assert_eq!(occupied(&r), vec![(top - 3, 3), (top - 1, 1), (top, 0)]);
        assert_eq!(r.get(top - 2), None);
        // Re-anchor backwards while the window touches the top.
        r.insert(top - 6, 6);
        assert_eq!(r.first_seq(), Some(top - 6));
        assert_eq!(r.take(top - 6), Some(6));
        assert_eq!(r.take(top - 3), Some(3));
        assert_eq!(r.first_seq(), Some(top - 1));
        // Drain everything through the cumulative path; `pop_first` on
        // the final top-of-space entry must not advance head_seq past
        // u64::MAX.
        assert_eq!(r.pop_first(), Some((top - 1, 1)));
        assert_eq!(r.pop_first(), Some((top, 0)));
        assert!(r.is_empty());
        assert_eq!(r.end_seq(), 0);
    }

    #[test]
    fn growth_with_gap_spanning_ring_boundary() {
        // Build a window that physically wraps the slab boundary with a
        // reassembly hole in the middle, then force a grow: the relocated
        // window must preserve contents, order, and the hole.
        let mut r = Ring::new();
        for seq in 0..8u64 {
            r.insert(seq, seq as u32);
        }
        assert_eq!(r.capacity(), 8);
        for _ in 0..6 {
            r.pop_first();
        }
        // head now sits at physical index 6; extend the window across
        // the boundary, skipping seq 9 (the gap).
        r.insert(8, 8);
        for seq in 10..13u64 {
            r.insert(seq, seq as u32);
        }
        assert_eq!(r.capacity(), 8, "still within the original slab");
        // One more lands past the slab: grow while the gap spans the old
        // physical boundary.
        r.insert(14, 14);
        assert!(r.capacity() > 8);
        assert_eq!(
            occupied(&r),
            vec![
                (6, 6),
                (7, 7),
                (8, 8),
                (10, 10),
                (11, 11),
                (12, 12),
                (14, 14)
            ]
        );
        assert_eq!(r.get(9), None);
        assert_eq!(r.get(13), None);
        assert_eq!(r.end_seq(), 15);
    }

    #[test]
    fn insert_at_capacity_grows_instead_of_evicting() {
        // Exactly filling the slab and then inserting one past it must
        // grow, never silently overwrite the oldest entry.
        let mut r = Ring::new();
        for seq in 0..8u64 {
            r.insert(seq, seq as u32);
        }
        assert_eq!(r.len(), r.capacity());
        r.insert(8, 8);
        assert_eq!(r.len(), 9);
        assert_eq!(r.get(0), Some(&0), "oldest entry survived the grow");
        assert_eq!(r.get(8), Some(&8));
        // Same at the re-anchor path: a backward insert past capacity.
        let mut r = Ring::new();
        for seq in 100..108u64 {
            r.insert(seq, seq as u32);
        }
        r.insert(99, 99);
        assert_eq!(r.len(), 9);
        assert_eq!(r.first_seq(), Some(99));
        assert_eq!(r.get(107), Some(&107));
    }

    /// A ring whose window wraps the slab boundary and has a hole:
    /// `count` entries from `base`, the first two popped, one taken.
    fn worn(base: u64, count: u64) -> Ring {
        let mut r = Ring::new();
        for seq in base..base + count {
            r.insert(seq, seq as u32);
        }
        r.pop_first();
        r.pop_first();
        r.take(base + 3);
        r.insert(base + count, 0);
        r
    }

    #[test]
    fn clone_from_matches_clone_at_any_capacity() {
        let src = worn(100, 8);
        assert_eq!(src.capacity(), 8);
        // Equal capacity (the slab is reused), larger into smaller, and
        // into rings still on their inline slab, worn and new.
        for mut dst in [worn(7, 8), worn(500, 40), worn(0, 3), Ring::new()] {
            dst.clone_from(&src);
            assert_eq!(occupied(&dst), occupied(&src));
            assert_eq!(dst.first_seq(), Some(102));
            assert_eq!(dst.end_seq(), src.end_seq());
            assert_eq!(dst.len(), src.len());
            assert_eq!(dst.capacity(), src.capacity());
            assert_eq!(format!("{dst:?}"), format!("{:?}", src.clone()));
            // And it is a working ring, independent of its source.
            dst.insert(109, 9);
            assert_eq!(dst.pop_first(), Some((102, 102)));
            assert_eq!(dst.first_seq(), Some(104));
            assert_eq!(src.first_seq(), Some(102));
            assert_eq!(src.get(109), None);
        }
        // An inline source, worn or new, puts a heap target back on
        // an inline slab.
        let src = worn(20, 3);
        assert_eq!(src.capacity(), FIRST_SLOTS);
        for mut dst in [worn(0, 8), worn(0, 3), Ring::new()] {
            dst.clone_from(&src);
            assert_eq!(format!("{dst:?}"), format!("{:?}", src.clone()));
            assert_eq!(dst.pop_first(), Some((22, 22)));
        }
        let mut dst = worn(0, 8);
        dst.clone_from(&Ring::new());
        assert!(dst.is_empty());
        assert_eq!(dst.capacity(), FIRST_SLOTS);
        assert_eq!(dst.first_seq(), None);
        assert_eq!(format!("{dst:?}"), format!("{:?}", Ring::new()));
        // Every tier into every other: paged on two pages and on four,
        // heap, inline worn and new.
        let page = PAGE_SLOTS as u64;
        let rings = || {
            [
                worn(500, page + 8),
                worn(0, 3 * page + 1),
                worn(100, 8),
                worn(20, 3),
                Ring::new(),
            ]
        };
        for src in rings() {
            for mut dst in rings() {
                dst.clone_from(&src);
                assert_eq!(format!("{dst:?}"), format!("{:?}", src.clone()));
                assert_eq!(dst.capacity(), src.capacity());
                let end = dst.end_seq();
                dst.insert(end + page, 9);
                assert_eq!(dst.get(end + page), Some(&9));
                assert_eq!(src.get(end + page), None);
                while let Some((seq, _)) = dst.pop_first() {
                    assert!(src.get(seq).is_some() || seq == end + page);
                }
            }
        }
    }

    #[test]
    fn a_wrapped_heap_window_with_a_hole_grows_into_pages() {
        let page = PAGE_SLOTS as u64;
        let mut r = Ring::new();
        for seq in 0..page {
            r.insert(seq, seq as u32);
        }
        for _ in 0..100 {
            r.pop_first();
        }
        // The window wraps the slab's end, with a hole past it.
        for seq in page..page + 100 {
            r.insert(seq, seq as u32);
        }
        r.take(page + 10);
        let Slab::Heap(slots) = &r.slab else {
            panic!("a window of {PAGE_SLOTS} slots is on a heap slab")
        };
        assert_eq!(r.capacity(), PAGE_SLOTS);
        let slab = slots.as_ptr();
        // One past the slab: the slab becomes the first page, rotated in
        // place, and a second page is added behind it.
        r.insert(page + 100, 0);
        let Slab::Paged(pages) = &r.slab else {
            panic!("a window of {} slots is on pages", PAGE_SLOTS + 1)
        };
        assert_eq!(pages[0].as_ptr(), slab, "the slab was copied");
        assert_eq!(r.capacity(), 2 * PAGE_SLOTS);
        let mut want: Vec<(u64, u32)> = (100..page + 100)
            .filter(|&s| s != page + 10)
            .map(|s| (s, s as u32))
            .collect();
        want.push((page + 100, 0));
        assert_eq!(occupied(&r), want);
        assert_eq!(r.get(page + 10), None);
        assert_eq!(r.first_seq(), Some(100));
        assert_eq!(r.end_seq(), page + 101);
        // A jump from the inline slab pages at once.
        let mut r = Ring::new();
        r.insert(7, 7);
        r.insert(7 + 3 * page, 0);
        assert!(matches!(r.slab, Slab::Paged(_)));
        assert_eq!(r.capacity(), 4 * PAGE_SLOTS);
        assert_eq!(occupied(&r), vec![(7, 7), (7 + 3 * page, 0)]);
    }

    #[test]
    fn a_backward_reanchor_below_a_paged_head_adds_a_front_page() {
        let page = PAGE_SLOTS as u64;
        let mut r = Ring::new();
        r.insert(10_000, 0);
        r.insert(10_000 + page, 1);
        assert_eq!(r.capacity(), 2 * PAGE_SLOTS);
        // The head is the first page's first slot: ten below it is a
        // new page in front.
        r.insert(9_990, 2);
        assert_eq!(r.capacity(), 3 * PAGE_SLOTS);
        assert_eq!(
            occupied(&r),
            vec![(9_990, 2), (10_000, 0), (10_000 + page, 1)]
        );
        assert_eq!(r.end_seq(), 10_001 + page);
        // The head moves to the last page; the two it left rotate to
        // the back, empty, and a re-anchor 2,000 below it takes them
        // to the front again instead of allocating.
        assert_eq!(r.pop_first(), Some((9_990, 2)));
        assert_eq!(r.pop_first(), Some((10_000, 0)));
        r.insert(10_000 + page - 2_000, 3);
        assert_eq!(r.capacity(), 3 * PAGE_SLOTS);
        assert_eq!(
            occupied(&r),
            vec![(10_000 + page - 2_000, 3), (10_000 + page, 1)]
        );
        // And past the spares, one more page.
        r.insert(10_000 + page - 3_000, 4);
        assert_eq!(r.capacity(), 4 * PAGE_SLOTS);
        assert_eq!(r.first_seq(), Some(10_000 + page - 3_000));
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(10_000 + page - 2_000), Some(&3));
    }

    #[test]
    fn a_paged_window_slides_on_its_pages() {
        assert_eq!(
            PAGE_SLOTS as f64,
            crate::MAX_CWND,
            "an in-flight window never pages"
        );
        let page = PAGE_SLOTS as u64;
        let mut r = Ring::new();
        for seq in 0..=page {
            r.insert(seq, seq as u32);
        }
        assert!(matches!(r.slab, Slab::Paged(_)));
        let cap = r.capacity();
        assert_eq!(cap, 2 * PAGE_SLOTS);
        for seq in page + 1..11 * page {
            assert_eq!(
                r.pop_first(),
                Some((seq - page - 1, (seq - page - 1) as u32))
            );
            r.insert(seq, seq as u32);
        }
        assert_eq!(r.capacity(), cap, "the pages the head left were reused");
        assert_eq!(r.len(), PAGE_SLOTS + 1);
        assert!(occupied(&r)
            .into_iter()
            .eq((10 * page - 1..11 * page).map(|s| (s, s as u32))));
    }

    #[test]
    fn for_each_mut_below_respects_bound() {
        let mut r = Ring::new();
        for seq in 0..10u64 {
            r.insert(seq, 0u32);
        }
        r.take(3);
        r.for_each_mut_below(7, |_, v| *v += 1);
        let bumped: Vec<u64> = r.iter().filter(|&(_, &v)| v == 1).map(|(s, _)| s).collect();
        assert_eq!(bumped, vec![0, 1, 2, 4, 5, 6]);
    }
}
