//! Summaries derived from a telemetry stream.

use std::collections::BTreeMap;

use crate::event::{PacketKind, TelemetryEvent, TelemetryRecord};

/// Aggregate view of one telemetry stream.
///
/// Everything here is derived purely from the records, so a report built
/// from a parsed JSONL file equals one built from the live bus.
///
/// The `packet` totals are the network's ground truth for the flows the
/// records cover; they are exact only over a stream nothing was evicted
/// from, which is what [`crate::TelemetryBus::flow_records`] checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Record count per event type, keyed by wire label.
    pub counts: BTreeMap<&'static str, u64>,
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

impl TelemetryReport {
    /// Builds a report from records, in any order.
    pub fn from_records(records: &[TelemetryRecord]) -> Self {
        let mut rep = TelemetryReport::default();
        for r in records {
            *rep.counts.entry(r.event.kind()).or_insert(0) += 1;
            if let TelemetryEvent::Packet { size, kind, .. } = &r.event {
                match kind {
                    PacketKind::Sent => {
                        rep.sent_packets += 1;
                        rep.sent_bytes += u64::from(*size);
                    }
                    PacketKind::Delivered => {
                        rep.delivered_packets += 1;
                        rep.delivered_bytes += u64::from(*size);
                    }
                    PacketKind::DroppedQueue => rep.dropped_packets += 1,
                    PacketKind::LostRandom => rep.random_losses += 1,
                }
            }
        }
        rep
    }

    /// Count for one event type by wire label (0 when absent).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Ground-truth network loss ratio: queue drops and random losses
    /// over packets sent (0 when nothing was sent).
    pub fn loss_ratio(&self) -> f64 {
        if self.sent_packets == 0 {
            return 0.0;
        }
        (self.dropped_packets + self.random_losses) as f64 / self.sent_packets as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CwndReason;

    fn delivered(at: u64, flow: u64, seq: u64) -> TelemetryRecord {
        TelemetryRecord {
            at,
            seq,
            flow,
            event: TelemetryEvent::MsgDelivered {
                msg_id: seq,
                size: 1000,
                marked: false,
                latency_ns: 2_000_000,
            },
        }
    }

    #[test]
    fn report_counts_records_by_label() {
        let records = vec![
            TelemetryRecord {
                at: 10,
                seq: 0,
                flow: 1,
                event: TelemetryEvent::CwndUpdate {
                    cwnd: 4.0,
                    reason: CwndReason::Period,
                },
            },
            TelemetryRecord {
                at: 20,
                seq: 1,
                flow: 1,
                event: TelemetryEvent::CwndUpdate {
                    cwnd: 2.0,
                    reason: CwndReason::Timeout,
                },
            },
            TelemetryRecord {
                at: 30,
                seq: 2,
                flow: 1,
                event: TelemetryEvent::WindowReinflate {
                    rate_chg: 0.2,
                    factor: 1.25,
                    cwnd: 2.5,
                    srtt_ms: 30.0,
                },
            },
            delivered(40, 1, 3),
        ];
        let rep = TelemetryReport::from_records(&records);
        assert_eq!(rep.count("cwnd_update"), 2);
        assert_eq!(rep.count("window_reinflate"), 1);
        assert_eq!(rep.count("msg_delivered"), 1);
        assert_eq!(rep.count("absent_kind"), 0);
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let rep = TelemetryReport::from_records(&[]);
        assert_eq!(rep, TelemetryReport::default());
        assert_eq!(rep.count("msg_delivered"), 0);
    }

    fn packet(kind: PacketKind) -> TelemetryRecord {
        TelemetryRecord {
            at: 0,
            seq: 0,
            flow: 7,
            event: TelemetryEvent::Packet {
                packet_id: 1,
                size: 100,
                kind,
                link: -1,
            },
        }
    }

    #[test]
    fn packet_records_fold_into_ground_truth_totals() {
        let records: Vec<_> = [
            PacketKind::Sent,
            PacketKind::Sent,
            PacketKind::Delivered,
            PacketKind::DroppedQueue,
        ]
        .into_iter()
        .map(packet)
        .collect();
        let rep = TelemetryReport::from_records(&records);
        assert_eq!(rep.sent_packets, 2);
        assert_eq!(rep.sent_bytes, 200);
        assert_eq!(rep.delivered_packets, 1);
        assert_eq!(rep.delivered_bytes, 100);
        assert_eq!(rep.dropped_packets, 1);
        assert_eq!(rep.random_losses, 0);
        assert!((rep.loss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(rep.count("packet"), 4);
    }

    #[test]
    fn zero_sent_flow_has_zero_loss() {
        assert_eq!(TelemetryReport::from_records(&[]).loss_ratio(), 0.0);
    }
}
