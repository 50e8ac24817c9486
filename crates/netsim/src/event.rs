//! Scheduled events and their ordering.
//!
//! Events are ordered by `(time, seq)` where `seq` is a monotonically
//! increasing tiebreaker, so simultaneous events execute in the order they
//! were scheduled. This makes runs bit-for-bit deterministic.
//!
//! An [`Event`] is deliberately small (32 bytes): packets travel as
//! 4-byte [`PacketKey`]s into the simulator's packet slab and timers as
//! 8-byte generation-checked [`TimerKey`]s, so moving an event through
//! the scheduler never copies packet contents.

use std::cmp::Ordering;

use crate::packet::{AgentId, LinkId};
use crate::slab::{PacketKey, TimerKey};
use crate::time::Time;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver a packet to the agent bound to its destination address.
    Deliver {
        /// Receiving agent.
        agent: AgentId,
        /// Slab key of the packet being delivered.
        packet: PacketKey,
    },
    /// A link finished serializing a packet: the packet starts
    /// propagating and the transmitter may pick up the next one.
    LinkTxDone {
        /// The link whose transmitter finished.
        link: LinkId,
    },
    /// A packet reaches the far end of a link and must be routed onward
    /// or delivered.
    LinkArrival {
        /// Link whose far end was reached.
        link: LinkId,
        /// Slab key of the arriving packet.
        packet: PacketKey,
    },
    /// A timer set by an agent. The key resolves to `(agent, token)` in
    /// the timer slab — or to nothing, if the timer was cancelled.
    Timer {
        /// Generation-checked timer slot key.
        key: TimerKey,
    },
    /// First activation of an agent.
    Start {
        /// Agent being activated.
        agent: AgentId,
    },
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    /// Firing time.
    pub at: Time,
    /// Scheduling-order tiebreaker.
    pub seq: u64,
    /// What to do when the event fires.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(at: Time, seq: u64) -> Event {
        Event {
            at,
            seq,
            kind: EventKind::Start { agent: AgentId(0) },
        }
    }

    #[test]
    fn heap_pops_earliest_first() {
        let mut h = BinaryHeap::new();
        h.push(ev(30, 0));
        h.push(ev(10, 1));
        h.push(ev(20, 2));
        assert_eq!(h.pop().unwrap().at, 10);
        assert_eq!(h.pop().unwrap().at, 20);
        assert_eq!(h.pop().unwrap().at, 30);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut h = BinaryHeap::new();
        h.push(ev(10, 5));
        h.push(ev(10, 2));
        h.push(ev(10, 9));
        assert_eq!(h.pop().unwrap().seq, 2);
        assert_eq!(h.pop().unwrap().seq, 5);
        assert_eq!(h.pop().unwrap().seq, 9);
    }

    #[test]
    fn event_is_compact() {
        // The point of slab keys: scheduler moves stay cheap. Guard the
        // size so a future field doesn't silently fatten every event.
        assert!(
            std::mem::size_of::<Event>() <= 32,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
    }
}
