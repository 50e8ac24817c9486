//! Drives for the coordination API — `iq-core`, `iq-echo`, `iq-attrs`:
//! the tax an application pays for telling the transport what it did.

use std::hint::black_box;
use std::time::Instant;

use iq_attrs::{names, AttrList, AttrService};
use iq_core::{CoordinationMode, Coordinator};
use iq_echo::{FrequencyAdapter, MarkingAdapter, ResolutionAdapter};
use iq_rudp::NetCond;

use super::transport::{config, Pair, BATCH_CYCLES, MSG_BYTES};
use super::{ns_per_op, Budget, SAMPLES};
use crate::stats::median;

/// Nanoseconds per `Coordinator::report_adaptation` on a warm sender,
/// alternating a deferral announcement (`ADAPT_WHEN`) with its
/// execution (`ADAPT_PKTSIZE` + `ADAPT_COND_ERATIO`, the Eq. 1 path).
pub fn report_ns(budget: Budget) -> f64 {
    let cfg = config("lda");
    let announce = AttrList::new().with(names::ADAPT_WHEN, 2i64);
    let execute = AttrList::new()
        .with(names::ADAPT_PKTSIZE, 0.2)
        .with(names::ADAPT_WHEN, 0i64)
        .with(names::ADAPT_COND_ERATIO, 0.3);
    ns_per_op(
        budget,
        || {
            let (mut pair, _) = Pair::warm(7, &cfg);
            let mut coord = Coordinator::new(CoordinationMode::CoordinatedWithCond);
            // Re-inflation applies to frames below the MSS; one send
            // tells the coordinator the frame size.
            let _ = coord.send(&mut pair.sender, 0, MSG_BYTES, true);
            (pair, coord)
        },
        |(pair, coord)| {
            for _ in 0..128 {
                coord.report_adaptation(&mut pair.sender, 0, black_box(&announce));
                coord.report_adaptation(&mut pair.sender, 0, black_box(&execute));
            }
            256
        },
    )
}

/// Nanoseconds `Coordinator::send` adds per message over a bare
/// `SenderConn::send_message`: the same cycle timed both ways in
/// alternating batches on two warm pairs.
pub fn send_overhead_ns(budget: Budget) -> f64 {
    let cfg = config("lda");
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let (mut bare, mut msgs) = Pair::warm(7, &cfg);
        let (mut via, _) = Pair::warm(8, &cfg);
        let mut coord = Coordinator::new(CoordinationMode::Coordinated);
        let (mut bare_ns, mut via_ns, mut bare_msgs, mut via_msgs) = (0u128, 0u128, 0u64, 0u64);
        let start = Instant::now();
        while start.elapsed() < budget.sample {
            let t = Instant::now();
            for _ in 0..BATCH_CYCLES {
                bare_msgs += bare.cycle(&mut msgs, |_| false);
            }
            bare_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            for _ in 0..BATCH_CYCLES {
                via_msgs += via.cycle_with(
                    &mut msgs,
                    |_| false,
                    |sender, now| {
                        let _ = coord.send(sender, now, MSG_BYTES, true);
                    },
                );
            }
            via_ns += t.elapsed().as_nanos();
        }
        samples.push(
            via_ns as f64 / via_msgs.max(1) as f64 - bare_ns as f64 / bare_msgs.max(1) as f64,
        );
    }
    median(&samples)
}

/// Nanoseconds per policy decision, over one upper and one lower
/// threshold callback of each IQ-ECho adapter.
pub fn adapt_ns(budget: Budget) -> f64 {
    let cond = NetCond {
        eratio: 0.2,
        eratio_smoothed: 0.2,
        srtt_ms: 30.0,
        cwnd: 32.0,
        rate_kbps: 1000.0,
    };
    ns_per_op(
        budget,
        || {
            (
                MarkingAdapter::default(),
                ResolutionAdapter::default(),
                FrequencyAdapter::default(),
            )
        },
        |(marking, resolution, frequency)| {
            for _ in 0..128 {
                let cond = black_box(&cond);
                black_box(marking.on_upper(cond));
                black_box(marking.on_lower(cond));
                black_box(resolution.on_upper(cond));
                black_box(resolution.on_lower(cond));
                black_box(frequency.on_upper(cond));
                black_box(frequency.on_lower(cond));
            }
            128 * 6
        },
    )
}

/// Nanoseconds to build, read and drop a three-attribute `AttrList`.
pub fn attr_list_ns(budget: Budget) -> f64 {
    ns_per_op(
        budget,
        || (),
        |_| {
            for i in 0..256 {
                let list = AttrList::new()
                    .with(names::ADAPT_PKTSIZE, black_box(0.2))
                    .with(names::ADAPT_WHEN, black_box(i as i64))
                    .with(names::ADAPT_COND_ERATIO, 0.3);
                black_box(list.get_float(names::ADAPT_PKTSIZE));
                black_box(list.get_int(names::ADAPT_WHEN));
                black_box(list.get_float(names::ADAPT_COND_ERATIO));
            }
            256
        },
    )
}

/// Nanoseconds per `AttrService` update followed by a query of the same
/// attribute (what exporting one `NET_*` metric and reading it costs).
pub fn attr_service_ns(budget: Budget) -> f64 {
    ns_per_op(budget, AttrService::new, |service| {
        for i in 0..256 {
            service.update(names::NET_ERROR_RATIO, black_box(f64::from(i) * 1e-3));
            black_box(service.query_float(names::NET_ERROR_RATIO));
        }
        256
    })
}
