//! Layer drives: small loops that call one layer's public functions in
//! isolation, at the working-set size the workloads have, and report
//! nanoseconds per operation.
//!
//! A drive measures a layer from outside: it says what the layer costs
//! when nothing else runs, which is the most a faster layer can save
//! per operation on a workload where nothing contends. Each drive warms
//! up, then times three samples and reports their median.

pub mod coord;
pub mod mc;
pub mod netsim;
pub mod observe;
pub mod transport;

use std::time::{Duration, Instant};

use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads;

/// How long one timed sample of a drive runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub sample: Duration,
}

impl Budget {
    pub fn new(quick: bool) -> Self {
        Self {
            sample: Duration::from_millis(if quick { 5 } else { 60 }),
        }
    }
}

const SAMPLES: usize = 3;

/// Median nanoseconds per operation over [`SAMPLES`] timed samples.
///
/// `setup` builds fresh state for each sample (untimed); `batch` does a
/// fixed chunk of work on it and returns how many operations that was.
/// The first sample's state is also used for an untimed warm-up batch.
pub fn ns_per_op<S>(
    budget: Budget,
    mut setup: impl FnMut() -> S,
    mut batch: impl FnMut(&mut S) -> u64,
) -> f64 {
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let mut state = setup();
        batch(&mut state);
        let start = Instant::now();
        let mut ops = 0u64;
        while start.elapsed() < budget.sample {
            ops += batch(&mut state);
        }
        samples.push(start.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&samples)
}

/// What the drives need to know about the workload they run beside.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Connection pairs the fleet drive cycles through.
    pub fleet_pairs: u32,
    /// Pending events of the large hold-model queue.
    pub large_queue: usize,
}

impl Sizing {
    /// The mega world's flow count, and about ten pending events
    /// (timers, packets in flight) per flow.
    pub fn new(quick: bool) -> Self {
        let flows = workloads::fleet_flows(&workloads::mega(0, quick));
        Self {
            fleet_pairs: flows as u32,
            large_queue: (10 * flows as usize).next_power_of_two(),
        }
    }
}

/// Runs every drive, each inside its own span, and returns
/// `(metric name, value)` pairs.
pub fn run_all(rec: &mut Recorder, budget: Budget, sizing: Sizing) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut drive = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        let value = rec.span(&format!("drive:{name}"), None, |_| f());
        out.push((name, value));
    };

    drive("netsim.sim.forward_ns", &mut || {
        netsim::forward_ns(budget, 0.5)
    });
    drive("netsim.link.forward_ns_overload", &mut || {
        netsim::forward_ns(budget, 2.0)
    });
    drive("netsim.sim.timer_ns", &mut || netsim::timer_ns(budget));
    drive("netsim.sched.hold_ns_small", &mut || {
        netsim::hold_ns(budget, 64)
    });
    drive("netsim.sched.hold_ns_large", &mut || {
        netsim::hold_ns(budget, sizing.large_queue)
    });
    drive("netsim.packet.payload_ns_inline", &mut || {
        netsim::payload_ns_inline(budget)
    });
    drive("netsim.packet.payload_ns_pooled", &mut || {
        netsim::payload_ns_pooled(budget)
    });

    let mut hot_allocs = 0u64;
    for (name, cc) in [
        ("rudp.cycle_ns_hot.lda", "lda"),
        ("rudp.cycle_ns_hot.cubic", "cubic"),
        ("rudp.cycle_ns_hot.bbr", "bbr"),
        ("rudp.cycle_ns_hot.rrr", "rrr"),
    ] {
        drive(name, &mut || {
            let (ns, allocs) = transport::cycle_ns_hot(budget, cc);
            hot_allocs += allocs;
            ns
        });
    }
    drive("rudp.cycle_allocs", &mut || hot_allocs as f64);
    drive("rudp.cycle_ns_fleet", &mut || {
        transport::cycle_ns_fleet(budget, sizing.fleet_pairs)
    });
    drive("rudp.cycle_ns_lossy", &mut || {
        transport::cycle_ns_lossy(budget)
    });
    drive("rudp.conn_setup_ns", &mut || {
        transport::conn_setup_ns(budget)
    });
    let (mut idle, mut active) = (0.0, 0.0);
    drive("rudp.conn_bytes_idle", &mut || {
        (idle, active) = transport::conn_bytes();
        idle
    });
    drive("rudp.conn_bytes_active", &mut || active);
    drive("rudp.clone_ns", &mut || transport::clone_ns(budget));
    drive("tcp.cycle_ns", &mut || transport::tcp_cycle_ns(budget));

    drive("core.report_ns", &mut || coord::report_ns(budget));
    drive("core.send_overhead_ns", &mut || {
        coord::send_overhead_ns(budget)
    });
    drive("echo.adapt_ns", &mut || coord::adapt_ns(budget));
    drive("attrs.list_ns", &mut || coord::attr_list_ns(budget));
    drive("attrs.service_ns", &mut || coord::attr_service_ns(budget));

    drive("telemetry.disabled_emit_ns", &mut || {
        observe::emit_ns(budget, false)
    });
    drive("telemetry.emit_ns", &mut || observe::emit_ns(budget, true));
    drive("telemetry.jsonl_ns_per_record", &mut || {
        observe::jsonl_ns_per_record(budget)
    });
    drive("obs.hist_record_ns", &mut || {
        observe::hist_record_ns(budget)
    });
    drive("metrics.on_message_ns", &mut || {
        observe::on_message_ns(budget)
    });
    drive("trace.generate_ns_per_frame", &mut || {
        observe::trace_generate_ns_per_frame(budget)
    });

    let walk = mc::Walk::new();
    drive("mc.clone_ns", &mut || walk.clone_ns(budget));
    drive("mc.hash_ns", &mut || walk.hash_ns(budget));
    drive("mc.apply_ns", &mut || walk.apply_ns(budget));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_divides_elapsed_time_by_operations() {
        let budget = Budget {
            sample: Duration::from_millis(2),
        };
        let mut setups = 0;
        let ns = ns_per_op(
            budget,
            || setups += 1,
            |_| {
                std::thread::sleep(Duration::from_micros(200));
                10
            },
        );
        assert_eq!(setups, SAMPLES);
        // 200 µs per batch of 10 operations: at least 20 µs each.
        assert!(ns >= 20_000.0, "{ns}");
    }
}
