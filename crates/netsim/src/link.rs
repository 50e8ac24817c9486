//! Unidirectional links with rate, propagation delay, and drop-tail queues.
//!
//! A link models the classic store-and-forward pipeline: packets wait in a
//! bounded FIFO queue, are serialized one at a time at the link rate, then
//! propagate for a fixed delay before arriving at the far end. When the
//! queue is full an arriving packet is dropped (drop-tail), which is the
//! loss model of the paper's EMULAB bottleneck.
//!
//! An optional random-loss and reordering model supports failure-injection
//! tests that exercise retransmission paths independently of congestion.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::slab::PacketKey;
use crate::time::{Time, TimeDelta};

/// Active queue management discipline for a link's output queue.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueDiscipline {
    /// Drop arriving packets only when the queue is full (the paper's
    /// EMULAB router behaviour and the default everywhere).
    DropTail,
    /// Random Early Detection (Floyd & Jacobson, scaled to byte queues):
    /// probabilistic drops ramp up as the *averaged* queue size goes from
    /// a quarter to three quarters of the link's `queue_bytes`,
    /// signalling congestion before the buffer overflows.
    Red,
}

/// RED's drop probability as the averaged queue reaches its upper
/// threshold.
const RED_MAX_P: f64 = 0.1;

/// RED's EWMA weight for the averaged queue size.
const RED_WEIGHT: f64 = 0.002;

/// Immutable link configuration.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Transmission rate in bits per second. `<= 0` means infinitely fast.
    pub rate_bps: f64,
    /// One-way propagation delay.
    pub delay: TimeDelta,
    /// Queue capacity in bytes. Packets that would overflow are dropped.
    pub queue_bytes: u32,
    /// Independent probability of losing each packet after transmission
    /// (failure injection; `0.0` for a clean link).
    pub random_loss: f64,
    /// Extra jitter bound added uniformly to propagation (failure
    /// injection; can reorder packets when non-zero).
    pub jitter: TimeDelta,
    /// Queue management discipline.
    pub discipline: QueueDiscipline,
}

impl LinkSpec {
    /// A clean link with the given rate, delay, and queue size.
    pub fn new(rate_bps: f64, delay: TimeDelta, queue_bytes: u32) -> Self {
        Self {
            rate_bps,
            delay,
            queue_bytes,
            random_loss: 0.0,
            jitter: 0,
            discipline: QueueDiscipline::DropTail,
        }
    }

    /// Switches the queue to RED, its thresholds set by `queue_bytes`.
    pub fn with_red(mut self) -> Self {
        self.discipline = QueueDiscipline::Red;
        self
    }

    /// Adds an independent per-packet loss probability.
    pub fn with_random_loss(mut self, p: f64) -> Self {
        self.random_loss = p.clamp(0.0, 1.0);
        self
    }

    /// Adds uniform propagation jitter in `[0, jitter]`.
    pub fn with_jitter(mut self, jitter: TimeDelta) -> Self {
        self.jitter = jitter;
        self
    }
}

/// Per-link counters exposed for experiment reporting and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets accepted into the queue.
    pub enqueued_packets: u64,
    /// Packets lost to drop-tail (queue-full) drops.
    pub dropped_packets: u64,
    /// Packets lost to the random-loss failure model.
    pub random_losses: u64,
    /// Packets dropped early by RED (before the queue was full).
    pub red_drops: u64,
    /// Packets fully serialized onto the wire.
    pub transmitted_packets: u64,
}

/// A queue entry: just the slab key and the wire size. The packet itself
/// stays parked in the simulator's slab, so queue churn moves 8 bytes.
#[derive(Debug, Clone, Copy)]
pub struct QueuedPacket {
    /// Slab key of the queued packet.
    pub key: PacketKey,
    /// Wire size in bytes (cached here: it drives serialization time and
    /// queue accounting, and is needed after the slab entry is dropped).
    pub size: u32,
}

/// Mutable state of a link inside the simulator that transmits on it.
/// The link's endpoints are not here: they are facts of the topology,
/// kept once per world in the simulator's endpoints table.
#[derive(Debug)]
pub struct LinkState {
    /// Immutable configuration.
    pub spec: LinkSpec,
    /// `Some(i)` when the far end lives on another shard, so arrivals
    /// leave via the simulator's `i`-th outbox instead of its event
    /// queue. `None` on every link of a serial simulation.
    pub(crate) egress: Option<u32>,
    /// Messages sent across this egress link so far; feeds the
    /// content-derived boundary sequence numbers.
    pub(crate) egress_seq: u64,
    queue: VecDeque<QueuedPacket>,
    queued_bytes: u32,
    /// RED's exponentially averaged queue size, bytes.
    avg_queue: f64,
    /// Whether the transmitter is currently serializing a packet.
    busy: bool,
    /// One-entry `tx_time` memo. Traffic on a link is dominated by one
    /// or two packet sizes, so this skips the float division on almost
    /// every transmission while producing bit-identical times.
    tx_memo: (u32, TimeDelta),
    /// Running counters.
    pub stats: LinkStats,
}

/// Result of offering a packet to a link queue.
#[derive(Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Queued; transmitter already busy, nothing to schedule.
    Queued,
    /// Queued and the transmitter was idle: caller must start transmission.
    StartTx,
    /// Dropped by drop-tail.
    Dropped,
}

impl LinkState {
    /// Creates an idle link with empty queue.
    pub fn new(spec: LinkSpec) -> Self {
        Self {
            spec,
            egress: None,
            egress_seq: 0,
            queue: VecDeque::new(),
            queued_bytes: 0,
            avg_queue: 0.0,
            busy: false,
            tx_memo: (u32::MAX, 0),
            stats: LinkStats::default(),
        }
    }

    /// Current queue occupancy in bytes (excluding the packet in
    /// serialization).
    pub fn queued_bytes(&self) -> u32 {
        self.queued_bytes
    }

    /// Number of packets waiting (excluding the packet in serialization).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the transmitter is serializing a packet.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Offers a packet (by slab key and wire size) to the queue, applying
    /// the configured discipline. On [`Enqueue::Dropped`] the caller still
    /// owns the key and must release the slab entry.
    pub fn enqueue(&mut self, key: PacketKey, sz: u32, rng: &mut SmallRng) -> Enqueue {
        // RED early drop, evaluated on the averaged queue size.
        if self.spec.discipline == QueueDiscipline::Red {
            let capacity = self.spec.queue_bytes;
            let (min_th, max_th) = (capacity / 4, (u64::from(capacity) * 3 / 4) as u32);
            self.avg_queue =
                (1.0 - RED_WEIGHT) * self.avg_queue + RED_WEIGHT * f64::from(self.queued_bytes);
            let drop_p = if self.avg_queue < f64::from(min_th) {
                0.0
            } else if self.avg_queue >= f64::from(max_th) {
                1.0
            } else {
                RED_MAX_P * (self.avg_queue - f64::from(min_th)) / f64::from(max_th - min_th)
            };
            if drop_p > 0.0 && rng.gen::<f64>() < drop_p {
                self.stats.red_drops += 1;
                self.stats.dropped_packets += 1;
                return Enqueue::Dropped;
            }
        }
        if self.queued_bytes.saturating_add(sz) > self.spec.queue_bytes {
            self.stats.dropped_packets += 1;
            return Enqueue::Dropped;
        }
        self.queued_bytes += sz;
        self.stats.enqueued_packets += 1;
        self.queue.push_back(QueuedPacket { key, size: sz });
        if self.busy {
            Enqueue::Queued
        } else {
            self.busy = true;
            Enqueue::StartTx
        }
    }

    /// Takes the next packet for serialization. Caller must have been told
    /// to start (via [`Enqueue::StartTx`]) or have just finished a
    /// transmission. Returns `None` when the queue drained, in which case
    /// the transmitter goes idle.
    pub fn begin_tx(&mut self) -> Option<QueuedPacket> {
        match self.queue.pop_front() {
            Some(q) => {
                self.queued_bytes -= q.size;
                self.stats.transmitted_packets += 1;
                Some(q)
            }
            None => {
                self.busy = false;
                None
            }
        }
    }

    /// Serialization time for a packet of `size` wire bytes on this link.
    pub fn tx_time(&self, size: u32) -> TimeDelta {
        crate::time::transmission_time(size, self.spec.rate_bps)
    }

    /// [`Self::tx_time`] through the one-entry memo (hot path).
    pub fn tx_time_cached(&mut self, size: u32) -> TimeDelta {
        if self.tx_memo.0 != size {
            self.tx_memo = (size, self.tx_time(size));
        }
        self.tx_memo.1
    }

    /// Arrival time at the far end for a transmission finishing at
    /// `tx_done`, before jitter.
    pub fn arrival_time(&self, tx_done: Time) -> Time {
        tx_done.saturating_add(self.spec.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    fn link(queue_bytes: u32) -> LinkState {
        LinkState::new(LinkSpec::new(8e6, crate::time::millis(1), queue_bytes))
    }

    #[test]
    fn first_enqueue_starts_transmitter() {
        let mut l = link(10_000);
        assert_eq!(l.enqueue(PacketKey(0), 1000, &mut rng()), Enqueue::StartTx);
        assert_eq!(l.enqueue(PacketKey(1), 1000, &mut rng()), Enqueue::Queued);
        assert!(l.is_busy());
        assert_eq!(l.queue_len(), 2);
    }

    #[test]
    fn drop_tail_on_overflow() {
        let mut l = link(2500);
        assert_eq!(l.enqueue(PacketKey(0), 1000, &mut rng()), Enqueue::StartTx);
        assert_eq!(l.enqueue(PacketKey(1), 1000, &mut rng()), Enqueue::Queued);
        assert_eq!(l.enqueue(PacketKey(2), 1000, &mut rng()), Enqueue::Dropped);
        assert_eq!(l.stats.dropped_packets, 1);
        // A smaller packet that fits is still accepted after a drop.
        assert_eq!(l.enqueue(PacketKey(3), 500, &mut rng()), Enqueue::Queued);
    }

    #[test]
    fn begin_tx_drains_in_fifo_order_and_idles() {
        let mut l = link(10_000);
        l.enqueue(PacketKey(1), 100, &mut rng());
        l.enqueue(PacketKey(2), 200, &mut rng());
        assert_eq!(l.begin_tx().unwrap().key, PacketKey(1));
        assert_eq!(l.begin_tx().unwrap().key, PacketKey(2));
        assert!(l.begin_tx().is_none());
        assert!(!l.is_busy());
        assert_eq!(l.queued_bytes(), 0);
    }

    #[test]
    fn tx_time_uses_link_rate() {
        let l = link(10_000);
        // 1000 bytes at 8 Mb/s = 1 ms.
        assert_eq!(l.tx_time(1000), crate::time::millis(1));
    }

    #[test]
    fn red_drops_early_when_average_queue_high() {
        let mut l = LinkState::new(LinkSpec::new(8e6, crate::time::millis(1), 10_000).with_red());
        let mut r = rng();
        // Keep the queue full long enough for the slow (0.002) average
        // to pass max_th: after ~700 arrivals it is above 7,500 B.
        let mut dropped = 0;
        for i in 0..1000 {
            if l.enqueue(PacketKey(i), 500, &mut r) == Enqueue::Dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "RED never dropped");
        assert!(l.stats.red_drops > 0, "drops were not early drops");
        // Early drops happen before the buffer is exhausted.
        assert!(l.queued_bytes() <= l.spec.queue_bytes);
    }

    #[test]
    fn red_is_quiet_below_min_threshold() {
        let mut l = LinkState::new(LinkSpec::new(8e6, crate::time::millis(1), 100_000).with_red());
        let mut r = rng();
        for i in 0..10 {
            assert_ne!(l.enqueue(PacketKey(i), 500, &mut r), Enqueue::Dropped);
            l.begin_tx();
        }
        assert_eq!(l.stats.red_drops, 0);
    }
}
