//! Simulation observability: per-flow accounting and a bounded packet
//! event log.
//!
//! Both are opt-in, before the run starts: the per-flow counters via
//! [`crate::Simulator::enable_flow_stats`] because a world of many flows
//! pays a table row and an index entry per flow on every shard, the
//! packet log via [`crate::Simulator::enable_packet_log`] because a long
//! run can produce millions of events. The tests and the demo that
//! compare against ground truth turn them on; experiments read their
//! results from the endpoints and run with neither, and asking a world
//! for counters it never kept is a panic, not a row of zeroes.

use iq_telemetry::{PacketKind, TelemetryEvent, TelemetrySink};

use crate::packet::{FlowId, LinkId};
use crate::time::Time;

/// Ground-truth counters for one flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets injected by agents.
    pub sent_packets: u64,
    /// Bytes injected.
    pub sent_bytes: u64,
    /// Packets handed to their destination agent.
    pub delivered_packets: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Packets dropped at queues (drop-tail or RED).
    pub dropped_packets: u64,
    /// Packets lost to the random-loss failure model.
    pub random_losses: u64,
}

impl FlowStats {
    /// Ground-truth network loss ratio for this flow.
    pub fn loss_ratio(&self) -> f64 {
        if self.sent_packets == 0 {
            return 0.0;
        }
        (self.dropped_packets + self.random_losses) as f64 / self.sent_packets as f64
    }
}

/// What happened to a packet at one point of its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketEventKind {
    /// Injected by an agent.
    Sent,
    /// Handed to the destination agent.
    Delivered,
    /// Dropped by a queue (drop-tail or RED early drop).
    DroppedAtQueue(LinkId),
    /// Lost by the random-loss model on a link.
    LostRandom(LinkId),
}

/// One entry of the packet event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketEvent {
    /// When it happened.
    pub at: Time,
    /// The packet's simulator-assigned id.
    pub packet_id: u64,
    /// The packet's flow.
    pub flow: FlowId,
    /// Wire size in bytes.
    pub size: u32,
    /// What happened.
    pub kind: PacketEventKind,
}

/// Flow ids below this threshold use the O(1) dense lookup table
/// (512 KiB at worst — the table is grown lazily to the highest id
/// actually seen); higher ids fall back to a linear scan. Sized to
/// cover the 100k-flow `mega_flows` population, where a linear scan
/// would cost O(flows) on every packet event.
const DENSE_IDS: u32 = 1 << 17;

/// The per-flow counters of a collector that keeps them.
#[derive(Debug, Default)]
struct FlowTable {
    /// Per-flow counters in first-seen order. Iteration (and therefore
    /// table output) follows this vector, so insertion order is part of
    /// the deterministic surface.
    flows: Vec<(FlowId, FlowStats)>,
    /// Direct-index lookup for small flow ids: `dense[flow.0]` holds
    /// `index into flows + 1` (0 = unseen). Incast workloads run
    /// hundreds of interleaved flows, where the old linear scan cost
    /// O(flows) on every packet event; this is O(1) for the ids real
    /// scenarios use. Ids ≥ [`DENSE_IDS`] (notably [`FlowId::ANON`])
    /// fall back to a scan.
    dense: Vec<u32>,
}

/// Collects flow counters and packet events, each when enabled, and
/// mirrors packet events onto the telemetry bus.
#[derive(Debug, Default)]
pub struct TraceCollector {
    flows: Option<FlowTable>,
    log: Vec<PacketEvent>,
    log_capacity: usize,
    /// Events that arrived after the log filled.
    pub log_overflow: u64,
    /// Structured telemetry bus; packet events are mirrored onto it
    /// when a sink is attached (the bus-based successor of the log).
    pub(crate) telemetry: TelemetrySink,
}

impl FlowTable {
    /// Counters slot for `flow`, creating it on first sight.
    #[inline]
    fn flow_mut(&mut self, flow: FlowId) -> &mut FlowStats {
        if flow.0 < DENSE_IDS {
            let fi = flow.0 as usize;
            if fi >= self.dense.len() {
                self.dense.resize(fi + 1, 0);
            }
            let slot = self.dense[fi];
            if slot != 0 {
                return &mut self.flows[(slot - 1) as usize].1;
            }
            self.flows.push((flow, FlowStats::default()));
            self.dense[fi] = self.flows.len() as u32;
            return &mut self.flows.last_mut().expect("just pushed").1;
        }
        let idx = match self.flows.iter().position(|&(f, _)| f == flow) {
            Some(i) => i,
            None => {
                self.flows.push((flow, FlowStats::default()));
                self.flows.len() - 1
            }
        };
        &mut self.flows[idx].1
    }

    /// Counters for one flow (zeroes if never seen). O(1) for ids below
    /// `DENSE_IDS`, like the recording side; a scan for the rest.
    fn flow(&self, flow: FlowId) -> FlowStats {
        let idx = if flow.0 < DENSE_IDS {
            match self.dense.get(flow.0 as usize) {
                Some(&slot) if slot != 0 => Some((slot - 1) as usize),
                _ => None,
            }
        } else {
            self.flows.iter().position(|&(f, _)| f == flow)
        };
        idx.map(|i| self.flows[i].1).unwrap_or_default()
    }
}

impl TraceCollector {
    /// Starts the per-flow counters (see [`crate::Simulator::enable_flow_stats`]).
    pub fn enable_flow_stats(&mut self) {
        self.flows.get_or_insert_default();
    }

    /// Enables the packet log with the given capacity.
    pub fn enable_log(&mut self, capacity: usize) {
        self.log_capacity = capacity;
        self.log.reserve(capacity.min(1 << 20));
    }

    #[inline]
    pub(crate) fn record(&mut self, ev: PacketEvent) {
        // One test for both tables (`|`, not `||`): a world that enabled
        // neither pays this branch and the telemetry sink's.
        if self.flows.is_some() | (self.log_capacity > 0) {
            self.record_tables(ev);
        }
        self.telemetry.emit_with(ev.at, u64::from(ev.flow.0), || {
            let (kind, link) = match ev.kind {
                PacketEventKind::Sent => (PacketKind::Sent, -1),
                PacketEventKind::Delivered => (PacketKind::Delivered, -1),
                PacketEventKind::DroppedAtQueue(l) => (PacketKind::DroppedQueue, i64::from(l.0)),
                PacketEventKind::LostRandom(l) => (PacketKind::LostRandom, i64::from(l.0)),
            };
            TelemetryEvent::Packet {
                packet_id: ev.packet_id,
                size: ev.size,
                kind,
                link,
            }
        });
    }

    /// The part of [`Self::record`] only an enabled table pays.
    fn record_tables(&mut self, ev: PacketEvent) {
        if let Some(table) = &mut self.flows {
            let f = table.flow_mut(ev.flow);
            match ev.kind {
                PacketEventKind::Sent => {
                    f.sent_packets += 1;
                    f.sent_bytes += u64::from(ev.size);
                }
                PacketEventKind::Delivered => {
                    f.delivered_packets += 1;
                    f.delivered_bytes += u64::from(ev.size);
                }
                PacketEventKind::DroppedAtQueue(_) => f.dropped_packets += 1,
                PacketEventKind::LostRandom(_) => f.random_losses += 1,
            }
        }
        if self.log_capacity > 0 {
            if self.log.len() < self.log_capacity {
                self.log.push(ev);
            } else {
                self.log_overflow += 1;
            }
        }
    }

    /// The flow table.
    ///
    /// # Panics
    /// Panics when the counters were never enabled: zeroes would read as
    /// a silent network, and two such worlds would compare equal.
    fn table(&self) -> &FlowTable {
        self.flows.as_ref().expect(
            "flow_stats() on a simulator that keeps no per-flow counters: call \
             enable_flow_stats() before the run starts",
        )
    }

    /// Counters for one flow (zeroes if it sent nothing).
    ///
    /// # Panics
    /// Panics unless [`Self::enable_flow_stats`] was called.
    pub fn flow(&self, flow: FlowId) -> FlowStats {
        self.table().flow(flow)
    }

    /// All flows seen so far, in first-seen (deterministic) order.
    ///
    /// # Panics
    /// Panics unless [`Self::enable_flow_stats`] was called.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &FlowStats)> {
        self.table().flows.iter().map(|(k, v)| (*k, v))
    }

    /// The recorded events (empty unless enabled).
    pub fn log(&self) -> &[PacketEvent] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A collector that keeps per-flow counters.
    fn counting() -> TraceCollector {
        let mut t = TraceCollector::default();
        t.enable_flow_stats();
        t
    }

    fn ev(kind: PacketEventKind) -> PacketEvent {
        PacketEvent {
            at: 0,
            packet_id: 1,
            flow: FlowId(7),
            size: 100,
            kind,
        }
    }

    #[test]
    fn counters_accumulate_per_flow() {
        let mut t = counting();
        t.record(ev(PacketEventKind::Sent));
        t.record(ev(PacketEventKind::Sent));
        t.record(ev(PacketEventKind::Delivered));
        t.record(ev(PacketEventKind::DroppedAtQueue(LinkId(0))));
        let f = t.flow(FlowId(7));
        assert_eq!(f.sent_packets, 2);
        assert_eq!(f.sent_bytes, 200);
        assert_eq!(f.delivered_packets, 1);
        assert_eq!(f.dropped_packets, 1);
        assert!((f.loss_ratio() - 0.5).abs() < 1e-12);
        // Unknown flow: zeroes.
        assert_eq!(t.flow(FlowId(9)).sent_packets, 0);
    }

    #[test]
    fn flow_lookup_covers_dense_scanned_and_unseen_ids() {
        let mut t = counting();
        let sent = |flow| PacketEvent {
            flow,
            ..ev(PacketEventKind::Sent)
        };
        // Interleaved, so slots and ids do not line up; `ANON` is past
        // `DENSE_IDS` and takes the scan.
        for flow in [FlowId(7), FlowId::ANON, FlowId(3), FlowId(7), FlowId::ANON, FlowId::ANON] {
            t.record(sent(flow));
        }
        assert_eq!(t.flow(FlowId(7)).sent_packets, 2);
        assert_eq!(t.flow(FlowId(3)).sent_packets, 1);
        assert_eq!(t.flow(FlowId::ANON).sent_packets, 3);
        // Unseen: inside the dense table, past its end, and past DENSE_IDS.
        for unseen in [FlowId(5), FlowId(8), FlowId(DENSE_IDS - 1), FlowId(DENSE_IDS)] {
            assert_eq!(t.flow(unseen), FlowStats::default(), "{unseen:?}");
        }
        // What the lookup finds is what iteration reports.
        for (id, stats) in t.flows() {
            assert_eq!(t.flow(id), *stats);
        }
    }

    #[test]
    fn log_is_off_by_default_and_bounded_when_on() {
        let mut t = TraceCollector::default();
        t.record(ev(PacketEventKind::Sent));
        assert!(t.log().is_empty());
        assert!(t.flows.is_none(), "nothing enabled, nothing kept");

        t.enable_log(2);
        t.record(ev(PacketEventKind::Sent));
        t.record(ev(PacketEventKind::Delivered));
        t.record(ev(PacketEventKind::Sent));
        assert_eq!(t.log().len(), 2);
        assert_eq!(t.log_overflow, 1);
        assert!(t.flows.is_none(), "the log does not bring the flow table with it");
    }

    #[test]
    fn zero_sent_flow_has_zero_loss() {
        assert_eq!(counting().flow(FlowId(1)).loss_ratio(), 0.0);
    }
}
