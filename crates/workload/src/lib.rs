//! # iq-workload
//!
//! Cross-traffic generators for the IQ-RUDP experiments:
//!
//! * [`CbrSource`] — fixed-rate UDP, the stand-in for the paper's
//!   *iperf* background traffic.
//! * [`VbrSource`] — variable-bit-rate UDP at a fixed frame rate with
//!   frame sizes driven by the MBone membership trace (§3.1's changing-
//!   network workload).
//! * [`UdpSink`] — counts arrivals.

#![warn(missing_docs)]

use iq_netsim::{payload, time, Addr, Agent, Ctx, FlowId, Packet, TimeDelta};

/// Wire overhead modelled for plain UDP datagrams (IP + UDP).
pub const UDP_HEADER_BYTES: u32 = 28;

/// Payload marker for plain UDP traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpDatagram;

const SEND_TOKEN: u64 = 1;

/// Constant-bit-rate UDP source (iperf-like).
///
/// Emits fixed-size datagrams at a fixed rate from time 0 on, for as
/// long as the world runs.
pub struct CbrSource {
    dst: Addr,
    flow: FlowId,
    /// Datagram payload size in bytes.
    datagram_bytes: u32,
    /// Inter-datagram gap, precomputed once: the source re-arms its
    /// timer on every send, so this sits on the per-packet path.
    interval: TimeDelta,
}

impl CbrSource {
    /// Creates a CBR source.
    pub fn new(dst: Addr, flow: FlowId, rate_bps: f64, datagram_bytes: u32) -> Self {
        let wire = f64::from(datagram_bytes + UDP_HEADER_BYTES) * 8.0;
        Self {
            dst,
            flow,
            datagram_bytes,
            interval: time::secs(wire / rate_bps.max(1.0)),
        }
    }
}

impl Agent for CbrSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(0, SEND_TOKEN);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send(
            self.dst,
            self.datagram_bytes + UDP_HEADER_BYTES,
            self.flow,
            payload(UdpDatagram),
        );
        ctx.set_timer(self.interval, SEND_TOKEN);
    }
}

/// Maximum VBR datagram payload, bytes: a frame leaves as datagrams of
/// at most this size.
const MTU: u32 = 1400;

/// Variable-bit-rate UDP source: a fixed frame rate with per-frame sizes
/// from a trace. Each frame is burst onto the network as MTU-sized
/// datagrams, emulating "a content delivery server that uses multiple
/// unicast streams to multicast" (§3.1).
pub struct VbrSource {
    dst: Addr,
    flow: FlowId,
    /// Frames per second (paper: 500).
    fps: f64,
    /// Per-frame sizes in bytes; the trace loops when exhausted.
    frame_sizes: Vec<u32>,
    next_frame: usize,
}

impl VbrSource {
    /// Creates a VBR source that loops its trace.
    pub fn new(dst: Addr, flow: FlowId, fps: f64, frame_sizes: Vec<u32>) -> Self {
        assert!(!frame_sizes.is_empty(), "VBR source needs a trace");
        Self {
            dst,
            flow,
            fps,
            frame_sizes,
            next_frame: 0,
        }
    }
}

impl Agent for VbrSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(0, SEND_TOKEN);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.next_frame >= self.frame_sizes.len() {
            self.next_frame = 0;
        }
        let size = self.frame_sizes[self.next_frame];
        self.next_frame += 1;
        // Burst the frame as MTU datagrams.
        let mut remaining = size;
        while remaining > 0 {
            let len = remaining.min(MTU);
            remaining -= len;
            ctx.send(
                self.dst,
                len + UDP_HEADER_BYTES,
                self.flow,
                payload(UdpDatagram),
            );
        }
        ctx.set_timer(time::secs(1.0 / self.fps), SEND_TOKEN);
    }
}

/// Counts UDP arrivals.
#[derive(Default)]
pub struct UdpSink {
    /// Datagrams received. Background traffic runs as long as the world
    /// does and nothing reads more of it, so this is all the sink holds.
    pub received: u64,
}

impl UdpSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Agent for UdpSink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.payload_as::<UdpDatagram>().is_some() {
            self.received += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::{LinkSpec, Simulator};

    #[test]
    fn cbr_hits_configured_rate() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(20e6, time::millis(5), 100_000));
        sim.add_agent(
            a,
            1,
            Box::new(CbrSource::new(Addr::new(b, 1), FlowId(9), 8e6, 972)),
        );
        let rx = sim.add_agent(b, 1, Box::new(UdpSink::new()));
        sim.run_until(time::secs(5.0));
        let sink = sim.agent::<UdpSink>(rx).unwrap();
        // 8 Mb/s of 1000 B wire datagrams = 1000/s.
        let expected = 5.0 * 8e6 / 8000.0;
        let got = sink.received as f64;
        assert!(
            (got - expected).abs() / expected < 0.02,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn vbr_bursts_frames_at_frame_rate() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(100e6, time::millis(1), 1_000_000));
        // 100 fps, frames of 4000 B => 3 datagrams per frame.
        sim.add_agent(
            a,
            1,
            Box::new(VbrSource::new(
                Addr::new(b, 1),
                FlowId(9),
                100.0,
                vec![4000],
            )),
        );
        let rx = sim.add_agent(b, 1, Box::new(UdpSink::new()));
        sim.run_until(time::secs(1.0));
        let sink = sim.agent::<UdpSink>(rx).unwrap();
        // ~100 frames x 3 datagrams.
        assert!((295..=303).contains(&sink.received), "{}", sink.received);
    }
}
