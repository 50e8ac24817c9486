//! Slab storage for in-flight packets and armed timers.
//!
//! Events used to carry their ~100-byte [`Packet`] inline, so every heap
//! sift moved the whole thing; and cancelled timers accumulated forever
//! in a `HashSet<u64>`. Both are replaced by slabs with free lists:
//!
//! * `PacketSlab` parks a packet once at send time and hands the event
//!   a 4-byte [`PacketKey`]. Steady-state traffic recycles slots, so
//!   sends stop hitting the allocator.
//! * `TimerSlab` gives each armed timer a generation-checked slot.
//!   Cancelling (or firing) frees the slot immediately and bumps its
//!   generation, so the stale wheel event turns into a cheap no-op when
//!   it pops — nothing is ever remembered about dead timers.

use crate::packet::{AgentId, Packet};
use crate::sched::retained;

/// Key of a packet parked in the simulator's `PacketSlab`.
///
/// Only valid inside the simulator that issued it; each key is consumed
/// exactly once (delivery, drop, or loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketKey(pub(crate) u32);

struct PacketSlot {
    pkt: Option<Packet>,
    /// Destination agent resolved once at send time.
    dst_agent: Option<AgentId>,
}

/// A shard's usual packets in flight, for [`retained`]: a slab nothing
/// is keyed in keeps room for two to four times this.
const SLAB_FLOOR: usize = 64;

/// Owns every packet currently in flight (queued, serializing,
/// propagating, or awaiting delivery).
#[derive(Default)]
pub(crate) struct PacketSlab {
    slots: Vec<PacketSlot>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Parks a packet, returning its key. `dst_agent` is the delivery
    /// target resolved at send time (re-resolved at arrival only if the
    /// agent did not exist yet).
    pub(crate) fn insert(&mut self, pkt: Packet, dst_agent: Option<AgentId>) -> PacketKey {
        match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                debug_assert!(slot.pkt.is_none(), "free list slot occupied");
                slot.pkt = Some(pkt);
                slot.dst_agent = dst_agent;
                PacketKey(i)
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(PacketSlot {
                    pkt: Some(pkt),
                    dst_agent,
                });
                PacketKey(i)
            }
        }
    }

    /// The packet behind `key`.
    pub(crate) fn get(&self, key: PacketKey) -> &Packet {
        self.slots[key.0 as usize]
            .pkt
            .as_ref()
            .expect("packet key used after free")
    }

    /// The send-time-resolved destination agent.
    pub(crate) fn dst_agent(&self, key: PacketKey) -> Option<AgentId> {
        self.slots[key.0 as usize].dst_agent
    }

    /// Removes the packet, freeing the slot for reuse. A slab left with
    /// no key outstanding has nothing to re-key, so that is when it
    /// gives back what a burst grew it to.
    pub(crate) fn take(&mut self, key: PacketKey) -> Packet {
        let slot = &mut self.slots[key.0 as usize];
        let pkt = slot.pkt.take().expect("packet key used after free");
        slot.dst_agent = None;
        self.free.push(key.0);
        if self.free.len() == self.slots.len() {
            if let Some(keep) = retained(self.slots.capacity(), 0, SLAB_FLOOR) {
                self.slots.clear();
                self.slots.shrink_to(keep);
                self.free.clear();
                self.free.shrink_to(keep);
            }
        }
        pkt
    }

    /// Total slots ever allocated (bounded by peak in-flight packets).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Currently occupied slots.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Key of an armed timer: slot index in the low 32 bits, slot generation
/// in the high 32. A key is live only while the generations match, so a
/// fire-after-cancel (or cancel-after-fire) is detected in O(1) with no
/// auxiliary set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerKey(pub(crate) u64);

impl TimerKey {
    #[inline]
    fn parts(self) -> (u32, u32) {
        ((self.0 & 0xFFFF_FFFF) as u32, (self.0 >> 32) as u32)
    }
}

struct TimerSlot {
    gen: u32,
    armed: bool,
    agent: AgentId,
    token: u64,
}

/// Slab of armed timers. Memory is bounded by the peak number of
/// *concurrently armed* timers — cancelled and fired slots are recycled
/// immediately (this replaces the old ever-growing `cancelled_timers`
/// set).
#[derive(Default)]
pub(crate) struct TimerSlab {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
}

impl TimerSlab {
    /// Arms a timer for `agent` carrying `token`.
    pub(crate) fn insert(&mut self, agent: AgentId, token: u64) -> TimerKey {
        let idx = match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                debug_assert!(!slot.armed, "free list slot armed");
                slot.armed = true;
                slot.agent = agent;
                slot.token = token;
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(TimerSlot {
                    gen: 0,
                    armed: true,
                    agent,
                    token,
                });
                i
            }
        };
        let gen = self.slots[idx as usize].gen;
        TimerKey(u64::from(idx) | (u64::from(gen) << 32))
    }

    /// Fires the timer if it is still armed under this key's generation,
    /// returning its target; stale keys (cancelled timers) return `None`.
    /// Either way the slot ends up free.
    pub(crate) fn fire(&mut self, key: TimerKey) -> Option<(AgentId, u64)> {
        let (idx, gen) = key.parts();
        let slot = self.slots.get_mut(idx as usize)?;
        if slot.gen != gen || !slot.armed {
            return None; // cancelled; its slot was already recycled
        }
        let out = (slot.agent, slot.token);
        slot.armed = false;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        Some(out)
    }

    /// Cancels an armed timer; stale or already-fired keys are a no-op.
    /// The scheduled wheel event becomes a ghost that [`Self::fire`]
    /// ignores when it pops.
    pub(crate) fn cancel(&mut self, key: TimerKey) {
        let (idx, gen) = key.parts();
        let Some(slot) = self.slots.get_mut(idx as usize) else {
            return;
        };
        if slot.gen == gen && slot.armed {
            slot.armed = false;
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(idx);
        }
    }

    /// Total slots ever allocated (bounded by peak concurrently armed).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{payload, Addr, FlowId, NodeId};

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            src: Addr::new(NodeId(0), 1),
            dst: Addr::new(NodeId(1), 2),
            size: 100,
            flow: FlowId(1),
            sent_at: 0,
            payload: payload(id),
        }
    }

    #[test]
    fn packet_slots_recycle() {
        let mut s = PacketSlab::default();
        let a = s.insert(pkt(1), Some(AgentId(0)));
        let b = s.insert(pkt(2), None);
        assert_eq!(s.get(a).id, 1);
        assert_eq!(s.dst_agent(a), Some(AgentId(0)));
        assert_eq!(s.take(a).id, 1);
        let c = s.insert(pkt(3), None);
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(s.get(c).id, 3, "reused slot holds the new packet");
        assert_eq!(s.dst_agent(c), None, "stale dst_agent cleared");
        assert_eq!(s.get(b).id, 2);
        assert_eq!(s.capacity(), 2);
        assert_eq!(s.live(), 2);
    }

    #[test]
    fn a_drained_burst_goes_back() {
        let mut s = PacketSlab::default();
        let keys: Vec<PacketKey> = (0..10_000).map(|i| s.insert(pkt(i), None)).collect();
        assert!(s.slots.capacity() >= 10_000);
        // While one key is out nothing moves: its slot must stay put.
        for &k in &keys[1..] {
            s.take(k);
        }
        assert!(s.slots.capacity() >= 10_000);
        assert_eq!(s.get(keys[0]).id, 0);
        s.take(keys[0]);
        assert_eq!(s.live(), 0);
        assert_eq!(s.slots.capacity(), 2 * SLAB_FLOOR);
        assert_eq!(s.free.capacity(), 2 * SLAB_FLOOR);
        // Keys start over, and a load within four floors is left alone.
        let keys: Vec<PacketKey> = (0..4 * SLAB_FLOOR as u64)
            .map(|i| s.insert(pkt(i), None))
            .collect();
        assert_eq!(keys[0], PacketKey(0));
        for k in keys {
            s.take(k);
        }
        assert_eq!(
            s.capacity(),
            4 * SLAB_FLOOR,
            "emptied, and its slots are still there"
        );
    }

    #[test]
    #[should_panic(expected = "packet key used after free")]
    fn double_take_is_caught() {
        let mut s = PacketSlab::default();
        let k = s.insert(pkt(1), None);
        s.take(k);
        s.take(k);
    }

    #[test]
    fn stale_timer_keys_are_inert() {
        let mut t = TimerSlab::default();
        let k1 = t.insert(AgentId(7), 42);
        t.cancel(k1);
        assert_eq!(t.fire(k1), None, "cancelled timer must not fire");
        // Slot is recycled under a new generation...
        let k2 = t.insert(AgentId(8), 43);
        assert_ne!(k1, k2, "generation distinguishes reuses of a slot");
        // ...and the old key still cannot touch it.
        t.cancel(k1);
        assert_eq!(t.fire(k2), Some((AgentId(8), 43)));
        assert_eq!(t.fire(k2), None, "double fire is inert");
        assert_eq!(t.capacity(), 1, "one slot served every cycle");
    }

    #[test]
    fn timer_slab_stays_bounded_across_cycles() {
        let mut t = TimerSlab::default();
        for i in 0..10_000u64 {
            let a = t.insert(AgentId(0), i);
            let b = t.insert(AgentId(1), i);
            t.cancel(a); // cancelled before firing
            assert!(t.fire(b).is_some());
            assert!(t.fire(a).is_none());
        }
        assert!(
            t.capacity() <= 2,
            "slab grew to {} slots for 2 concurrent timers",
            t.capacity()
        );
    }
}
