//! An inline-first FIFO for per-connection queues.
//!
//! A connection's queues (retransmissions, events, delivered messages,
//! outgoing control segments) hold an entry or two for most of a flow's
//! life, and in a large fleet most flows never hold more. A `Vec` or
//! `VecDeque` pays an allocator call for the first of them;
//! [`InlineQueue`] keeps the first `N` in an array inside the
//! connection, which is allocated anyway, and only entries past those
//! go to a heap `VecDeque`. The array is paid for by every connection
//! when it is built, in bytes written, so each `N` is the smallest
//! that keeps a fleet flow off the heap; DESIGN.md §12 lists them.

use std::collections::VecDeque;

/// A FIFO whose first `N` entries live in the value itself.
///
/// Entries are pushed inline while there is room *and* nothing has
/// spilled, so every inline entry is older than every spilled one and
/// popping inline-first preserves arrival order. A queue that stays
/// long (one busy connection) drains its inline slots once and then
/// runs on the `VecDeque` alone, at the price of one branch per call.
pub struct InlineQueue<T, const N: usize> {
    /// Physical index of the oldest inline entry.
    head: u8,
    /// Occupied inline slots, `head` onwards (wrapping).
    inline_len: u8,
    inline: [Option<T>; N],
    /// Entries that arrived while the inline slots were full or while
    /// earlier spilled entries were still queued. Boxed so that a queue
    /// that never spills carries a pointer, not a `VecDeque` header
    /// (the boxing is the point: 8 bytes in every connection of a fleet
    /// against 32); once allocated it stays, empty between bursts.
    #[allow(clippy::box_collection)]
    spill: Option<Box<VecDeque<T>>>,
}

impl<T, const N: usize> Default for InlineQueue<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

/// The queued entries, oldest first: where they sit (which inline slot
/// the head is on, whether a drained spill buffer is being kept) is not
/// part of a queue's value, and `clone` / `clone_from` do not preserve
/// it.
impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineQueue<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

// Hand-written for `clone_from`, like the connections that hold these
// (the model checker refills pooled connections once per transition):
// neither method allocates for a spill that holds nothing, and a
// refilled queue keeps the spill buffer it has.
impl<T: Clone, const N: usize> Clone for InlineQueue<T, N> {
    fn clone(&self) -> Self {
        let Self {
            head,
            inline_len,
            inline,
            spill,
        } = self;
        Self {
            head: *head,
            inline_len: *inline_len,
            inline: inline.clone(),
            spill: spill.as_ref().filter(|spill| !spill.is_empty()).cloned(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            head,
            inline_len,
            inline,
            spill,
        } = src;
        self.head = *head;
        self.inline_len = *inline_len;
        self.inline.clone_from(inline);
        match (&mut self.spill, spill) {
            (Some(kept), Some(spill)) => kept.clone_from(spill),
            (Some(kept), None) => kept.clear(),
            (None, Some(spill)) if !spill.is_empty() => self.spill = Some(spill.clone()),
            (None, _) => {}
        }
    }
}

impl<T, const N: usize> InlineQueue<T, N> {
    /// An empty queue; allocates nothing.
    pub fn new() -> Self {
        const { assert!(N >= 1 && N <= u8::MAX as usize) };
        Self {
            head: 0,
            inline_len: 0,
            inline: [const { None }; N],
            spill: None,
        }
    }

    /// Entries queued on the heap.
    fn spill_len(&self) -> usize {
        self.spill.as_ref().map_or(0, |spill| spill.len())
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        usize::from(self.inline_len) + self.spill_len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inline_len == 0 && self.spill_len() == 0
    }

    /// Whether any entry has gone to the heap and is still queued.
    pub fn spilled(&self) -> bool {
        self.spill_len() > 0
    }

    /// Appends `value`.
    pub fn push_back(&mut self, value: T) {
        let len = usize::from(self.inline_len);
        if len < N && self.spill_len() == 0 {
            self.inline[(usize::from(self.head) + len) % N] = Some(value);
            self.inline_len += 1;
        } else {
            self.spill.get_or_insert_default().push_back(value);
        }
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.inline_len == 0 {
            return self.spill.as_mut()?.pop_front();
        }
        let head = usize::from(self.head);
        self.head = ((head + 1) % N) as u8;
        self.inline_len -= 1;
        self.inline[head].take()
    }

    /// Iterates oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let head = usize::from(self.head);
        (0..usize::from(self.inline_len))
            .filter_map(move |i| self.inline[(head + i) % N].as_ref())
            .chain(self.spill.iter().flat_map(|spill| spill.iter()))
    }

    /// Drops every entry; the spill keeps its allocation.
    pub fn clear(&mut self) {
        if self.is_empty() {
            return; // the usual case: agents clear after every input
        }
        self.inline.fill_with(|| None);
        self.head = 0;
        self.inline_len = 0;
        if let Some(spill) = &mut self.spill {
            spill.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents<const N: usize>(q: &InlineQueue<u32, N>) -> Vec<u32> {
        q.iter().copied().collect()
    }

    #[test]
    fn fifo_across_the_spill_boundary() {
        let mut q: InlineQueue<u32, 4> = InlineQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
        for v in 0..4 {
            q.push_back(v);
        }
        assert_eq!(q.len(), 4);
        assert!(!q.spilled(), "the first N entries stay inline");
        q.push_back(4);
        assert!(q.spilled(), "entry N + 1 goes to the heap");
        assert_eq!(contents(&q), [0, 1, 2, 3, 4]);
        // Room inline, but an older entry is still on the heap: the new
        // one must queue behind it.
        assert_eq!(q.pop_front(), Some(0));
        q.push_back(5);
        assert_eq!(contents(&q), [1, 2, 3, 4, 5]);
        assert_eq!(q.len(), 5);
        for want in 1..=5 {
            assert_eq!(q.pop_front(), Some(want));
        }
        assert!(q.is_empty() && !q.spilled());
        assert_eq!(q.pop_front(), None);
        // Drained, it fills inline again, from wherever the head stopped.
        for v in 10..14 {
            q.push_back(v);
        }
        assert!(!q.spilled());
        assert_eq!(contents(&q), [10, 11, 12, 13]);
    }

    #[test]
    fn inline_slots_wrap() {
        let mut q: InlineQueue<u32, 2> = InlineQueue::new();
        for v in 0..50 {
            q.push_back(v);
            if v % 2 == 1 {
                assert_eq!(q.pop_front(), Some(v - 1));
                assert_eq!(q.pop_front(), Some(v));
            }
            assert!(!q.spilled());
        }
        assert!(q.is_empty());
    }

    #[test]
    fn one_slot_queue() {
        let mut q: InlineQueue<u32, 1> = InlineQueue::new();
        q.push_back(1);
        assert!(!q.spilled());
        q.push_back(2);
        q.push_back(3);
        assert_eq!(contents(&q), [1, 2, 3]);
        assert_eq!(q.pop_front(), Some(1));
        assert_eq!(q.pop_front(), Some(2));
        q.push_back(4);
        assert_eq!(contents(&q), [3, 4]);
    }

    #[test]
    fn clear_empties_both_parts() {
        let mut q: InlineQueue<u32, 2> = InlineQueue::new();
        for v in 0..5 {
            q.push_back(v);
        }
        q.pop_front();
        q.clear();
        assert!(q.is_empty() && !q.spilled());
        assert_eq!(contents(&q), [] as [u32; 0]);
        q.push_back(9);
        assert!(!q.spilled(), "a cleared queue fills inline first again");
        assert_eq!(contents(&q), [9]);
    }

    /// A queue with a wrapped inline part: `count` entries from `base`,
    /// one popped.
    fn worn(base: u32, count: u32) -> InlineQueue<u32, 4> {
        let mut q = InlineQueue::new();
        q.push_back(0);
        q.pop_front();
        for v in base..base + count {
            q.push_back(v);
        }
        q.pop_front();
        q
    }

    #[test]
    fn clone_from_matches_clone() {
        for src in [worn(100, 3), worn(100, 9)] {
            let want = src.clone();
            assert_eq!(format!("{want:?}"), format!("{src:?}"));
            // Into a fresh queue, an emptier one, and a dirtier
            // (spilled) one.
            for mut dst in [InlineQueue::new(), worn(7, 2), worn(7, 30)] {
                dst.clone_from(&src);
                assert_eq!(format!("{dst:?}"), format!("{want:?}"));
                // Same future, independent of the source.
                let mut reference = want.clone();
                for v in 0..6 {
                    dst.push_back(v);
                    reference.push_back(v);
                    assert_eq!(dst.pop_front(), reference.pop_front());
                }
                assert_eq!(contents(&dst), contents(&reference));
                assert_eq!(format!("{dst:?}"), format!("{reference:?}"));
            }
            assert_eq!(format!("{src:?}"), format!("{want:?}"));
        }
    }
}
