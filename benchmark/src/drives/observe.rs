//! Drives for the observation layers: `iq-telemetry`, `iq-obs`,
//! `iq-metrics`, and the `iq-trace` generator behind every frame trace.

use std::hint::black_box;

use iq_metrics::FlowMetrics;
use iq_obs::{expo::render_prom, Hist, Registry};
use iq_telemetry::{to_jsonl, CwndReason, TelemetryEvent, TelemetrySink};
use iq_trace::{MembershipConfig, MembershipTrace};

use super::{ns_per_op, Budget};

fn cwnd_event(i: u64) -> TelemetryEvent {
    TelemetryEvent::CwndUpdate {
        cwnd: i as f64,
        reason: CwndReason::Rescale,
    }
}

/// Nanoseconds per `TelemetrySink::emit`: on the disabled sink (the
/// "one branch" every emit point pays in an ordinary run) or into an
/// attached bus with the default ring.
pub fn emit_ns(budget: Budget, enabled: bool) -> f64 {
    ns_per_op(
        budget,
        || {
            if enabled {
                TelemetrySink::new_bus(0).0
            } else {
                TelemetrySink::disabled()
            }
        },
        |sink| {
            let sink = black_box(&*sink);
            for i in 0..1024 {
                sink.emit(i, i % 4, cwnd_event(black_box(i)));
            }
            1024
        },
    )
}

/// Nanoseconds per record to serialize a captured bus as JSONL.
pub fn jsonl_ns_per_record(budget: Budget) -> f64 {
    const RECORDS: u64 = 4096;
    ns_per_op(
        budget,
        || {
            let (sink, bus) = TelemetrySink::new_bus(0);
            for i in 0..RECORDS {
                sink.emit(i, i % 4, cwnd_event(i));
            }
            let records = bus.lock().expect("no other holder of the bus").records();
            records
        },
        |records| {
            black_box(to_jsonl(black_box(records)));
            RECORDS
        },
    )
}

/// Nanoseconds per `Hist::record` over values spread across the
/// histogram's decades.
pub fn hist_record_ns(budget: Budget) -> f64 {
    ns_per_op(budget, Hist::new, |hist| {
        let mut v = 1u64;
        for _ in 0..1024 {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(black_box(v >> (v % 48)));
        }
        1024
    })
}

/// Seconds to render one run's registry the ways a run's consumers do:
/// the canonical sim-plane text, its fingerprint, and the Prometheus
/// exposition of both planes.
pub fn collect_s(budget: Budget, registry: &Registry) -> f64 {
    let mut sorted = registry.clone();
    sorted.sort();
    ns_per_op(
        budget,
        || (),
        |_| {
            black_box(registry.sim_text());
            black_box(registry.sim_fingerprint());
            black_box(render_prom(&sorted, None));
            1
        },
    ) * 1e-9
}

/// Nanoseconds per `FlowMetrics::on_message`, every fifth one tagged.
pub fn on_message_ns(budget: Budget) -> f64 {
    ns_per_op(
        budget,
        || (),
        |_| {
            // A fresh accumulator per batch: its jitter series grows
            // with every message.
            let mut metrics = FlowMetrics::new();
            for i in 0..4096u64 {
                metrics.on_message(
                    i * 1_000_000 + (i % 7) * 1000,
                    i * 1_000_000,
                    1400,
                    i % 5 == 0,
                );
            }
            black_box(metrics.messages());
            4096
        },
    )
}

/// Nanoseconds per frame of `MembershipTrace::generate`, the generator
/// behind `app_frame_sizes` and the VBR cross traffic.
pub fn trace_generate_ns_per_frame(budget: Budget) -> f64 {
    const FRAMES: usize = 8000;
    let mut seed = 0u64;
    ns_per_op(
        budget,
        || (),
        |_| {
            seed += 1;
            black_box(MembershipTrace::generate(&MembershipConfig {
                seed,
                len: FRAMES,
                ..MembershipConfig::default()
            }));
            FRAMES as u64
        },
    )
}
