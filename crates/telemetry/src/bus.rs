//! The per-flow ring-buffer bus and the cheap sink handle emit points
//! hold.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::event::{TelemetryEvent, TelemetryRecord};

/// Default per-flow ring capacity: enough for every decision-level event
/// of a long scenario while bounding the packet-level firehose.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Bounded event storage for one flow.
#[derive(Debug, Default)]
struct FlowRing {
    buf: VecDeque<TelemetryRecord>,
    /// Oldest records evicted once the ring filled.
    evicted: u64,
}

/// Collects [`TelemetryRecord`]s into per-flow ring buffers.
///
/// Each record gets a global monotonic sequence number at push time, so
/// a merged export reproduces exact emission order regardless of how
/// records were bucketed per flow.
#[derive(Debug)]
pub struct TelemetryBus {
    per_flow_capacity: usize,
    flows: BTreeMap<u64, FlowRing>,
    next_seq: u64,
}

impl TelemetryBus {
    /// Creates a bus whose flows each hold at most `per_flow_capacity`
    /// records (0 means [`DEFAULT_RING_CAPACITY`]).
    pub fn new(per_flow_capacity: usize) -> Self {
        Self {
            per_flow_capacity: if per_flow_capacity == 0 {
                DEFAULT_RING_CAPACITY
            } else {
                per_flow_capacity
            },
            flows: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Appends one event, evicting the flow's oldest record when its
    /// ring is full.
    pub fn push(&mut self, at: u64, flow: u64, event: TelemetryEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ring = self.flows.entry(flow).or_default();
        if ring.buf.len() >= self.per_flow_capacity {
            ring.buf.pop_front();
            ring.evicted += 1;
        }
        ring.buf.push_back(TelemetryRecord {
            at,
            seq,
            flow,
            event,
        });
    }

    /// Total records currently held.
    pub fn len(&self) -> usize {
        self.flows.values().map(|r| r.buf.len()).sum()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted from `flow`'s ring by overflow.
    pub fn evicted(&self, flow: u64) -> u64 {
        self.flows.get(&flow).map_or(0, |r| r.evicted)
    }

    /// Records evicted across all flows.
    pub fn total_evicted(&self) -> u64 {
        self.flows.values().map(|r| r.evicted).sum()
    }

    /// `flow`'s records in emission order (none for a flow that emitted
    /// nothing): what a per-flow ground-truth fold
    /// ([`crate::TelemetryReport::from_records`]) reads.
    ///
    /// # Panics
    /// Panics, naming the ring capacity, when the flow's ring evicted
    /// anything: totals over what is left are not ground truth.
    pub fn flow_records(&self, flow: u64) -> Vec<TelemetryRecord> {
        let Some(ring) = self.flows.get(&flow) else {
            return Vec::new();
        };
        assert!(
            ring.evicted == 0,
            "flow {flow}'s ring (capacity {}) evicted {} records: a fold over the rest is not \
             ground truth; build the bus with a larger capacity",
            self.per_flow_capacity,
            ring.evicted
        );
        ring.buf.iter().cloned().collect()
    }

    /// All held records merged back into emission order.
    pub fn records(&self) -> Vec<TelemetryRecord> {
        let mut out: Vec<TelemetryRecord> = self
            .flows
            .values()
            .flat_map(|r| r.buf.iter().cloned())
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }
}

impl Default for TelemetryBus {
    fn default() -> Self {
        Self::new(0)
    }
}

/// A cheap, clonable handle emit points hold.
///
/// The disabled sink (the default) is a `None` and every emit is one
/// branch; nothing is allocated, locked, or formatted. An attached sink
/// shares one [`TelemetryBus`] behind an `Arc<Mutex<_>>` — simulations
/// are single-threaded, so the lock is uncontended and exists only to
/// keep the handle `Send + Sync` for the parallel scenario runner.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    bus: Option<Arc<Mutex<TelemetryBus>>>,
}

impl TelemetrySink {
    /// The disabled sink: every emit is a no-op.
    pub fn disabled() -> Self {
        Self { bus: None }
    }

    /// A sink feeding `bus`.
    pub fn attached(bus: Arc<Mutex<TelemetryBus>>) -> Self {
        Self { bus: Some(bus) }
    }

    /// Creates a fresh bus and a sink feeding it.
    pub fn new_bus(per_flow_capacity: usize) -> (Self, Arc<Mutex<TelemetryBus>>) {
        let bus = Arc::new(Mutex::new(TelemetryBus::new(per_flow_capacity)));
        (Self::attached(bus.clone()), bus)
    }

    /// Whether emits reach a bus.
    pub fn is_enabled(&self) -> bool {
        self.bus.is_some()
    }

    /// Emits one event (no-op when disabled).
    pub fn emit(&self, at: u64, flow: u64, event: TelemetryEvent) {
        if let Some(bus) = &self.bus {
            bus.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(at, flow, event);
        }
    }

    /// Emits the event `f` builds — `f` runs only when the sink is
    /// enabled, so emit points that must gather extra state stay free
    /// when telemetry is off.
    pub fn emit_with(&self, at: u64, flow: u64, f: impl FnOnce() -> TelemetryEvent) {
        if let Some(bus) = &self.bus {
            bus.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(at, flow, f());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cwnd: f64) -> TelemetryEvent {
        TelemetryEvent::CwndUpdate {
            cwnd,
            reason: crate::event::CwndReason::Period,
        }
    }

    #[test]
    fn disabled_sink_is_noop() {
        let s = TelemetrySink::disabled();
        assert!(!s.is_enabled());
        s.emit(0, 1, ev(1.0));
        s.emit_with(0, 1, || panic!("must not run"));
    }

    #[test]
    fn records_merge_in_emission_order_across_flows() {
        let (s, bus) = TelemetrySink::new_bus(16);
        s.emit(10, 2, ev(1.0));
        s.emit(20, 1, ev(2.0));
        s.emit(30, 2, ev(3.0));
        let b = bus.lock().unwrap();
        let recs = b.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| (r.seq, r.flow)).collect::<Vec<_>>(),
            vec![(0, 2), (1, 1), (2, 2)]
        );
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut bus = TelemetryBus::new(2);
        for i in 0..5 {
            bus.push(i, 7, ev(i as f64));
        }
        assert_eq!(bus.len(), 2);
        assert_eq!(bus.evicted(7), 3);
        assert_eq!(bus.total_evicted(), 3);
        // The newest records survive.
        let recs = bus.records();
        assert_eq!(recs[0].seq, 3);
        assert_eq!(recs[1].seq, 4);
        // Unknown flow: zero evictions.
        assert_eq!(bus.evicted(9), 0);
    }

    #[test]
    fn flow_records_answer_only_for_a_flow_that_kept_every_record() {
        let mut bus = TelemetryBus::new(2);
        bus.push(0, 1, ev(0.0));
        bus.push(1, 2, ev(1.0));
        bus.push(2, 1, ev(2.0));
        let seqs: Vec<u64> = bus.flow_records(1).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 2]);
        assert!(bus.flow_records(9).is_empty());
        bus.push(3, 1, ev(3.0));
        // Flow 2 evicted nothing, so it still answers.
        assert_eq!(bus.flow_records(2).len(), 1);
        let evicted = std::panic::catch_unwind(|| bus.flow_records(1));
        let msg = *evicted
            .expect_err("an evicting ring must not answer")
            .downcast::<String>()
            .unwrap();
        assert!(
            msg.starts_with("flow 1's ring (capacity 2) evicted 1 records"),
            "{msg}"
        );
    }
}
