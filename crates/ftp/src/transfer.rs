//! The IQ-FTP sender and receiver agents.
//!
//! The sender streams a file's blocks most-critical-first over a
//! coordinated IQ-RUDP connection, marking blocks whose priority clears
//! an adaptive cutoff. Under congestion (upper-threshold callback) the
//! cutoff rises — more of the low-priority tail becomes droppable — and
//! the coordinator's discard-unmarked reaction sheds it before it enters
//! the network. When congestion clears, the cutoff relaxes.

use iq_attrs::{names, AttrList};
use iq_core::{CoordinationMode, Coordinator};
use iq_metrics::FlowMetrics;
use iq_netsim::{time, Addr, Agent, Ctx, FlowId, Packet, Time};
use iq_rudp::{
    ConnEvent, DeliveredMsg, RudpConfig, SenderConn, SenderDriver, RUDP_TIMER_TOKEN,
};

use crate::file::{Block, FileSpec};

/// Configuration of an [`FtpSenderAgent`].
pub struct FtpConfig {
    /// Connection identifier (must match the receiver).
    pub conn_id: u32,
    /// Transport settings; thresholds drive the cutoff adaptation.
    pub rudp: RudpConfig,
    /// Coordination mode (uncoordinated = plain selectively lossy RUDP).
    pub mode: CoordinationMode,
    /// Initial priority cutoff: blocks at or above it are marked
    /// (guaranteed); 0 means everything starts guaranteed.
    pub initial_cutoff: f64,
    /// Cutoff increase per congestion callback.
    pub cutoff_step: f64,
    /// Highest cutoff the sender will ever use (protects the most
    /// critical contents from ever becoming droppable).
    pub max_cutoff: f64,
    /// Settle time between cutoff increases.
    pub min_adapt_gap: iq_netsim::TimeDelta,
    /// Segments kept queued in the transport.
    pub backlog_target: usize,
}

impl FtpConfig {
    /// Defaults: 10 %/2 % thresholds, tolerance 0.5, cutoff starting at
    /// 0 and stepping by 0.2 up to 0.8.
    pub fn new(conn_id: u32) -> Self {
        let rudp = RudpConfig {
            loss_tolerance: 0.5,
            upper_threshold: Some(0.10),
            lower_threshold: Some(0.02),
            ..RudpConfig::default()
        };
        Self {
            conn_id,
            rudp,
            mode: CoordinationMode::Coordinated,
            initial_cutoff: 0.0,
            cutoff_step: 0.2,
            max_cutoff: 0.8,
            min_adapt_gap: time::secs(1.0),
            backlog_target: 128,
        }
    }
}

/// Transfer summary, computed sender-side after the run.
#[derive(Debug, Clone, Copy)]
pub struct TransferReport {
    /// Blocks in the file.
    pub total_blocks: u64,
    /// Blocks submitted to the transport (not discarded at the API).
    pub submitted_blocks: u64,
    /// Blocks discarded by coordination before entering the network.
    pub discarded_blocks: u64,
    /// Cutoff adaptations performed.
    pub cutoff_raises: u64,
    /// Final cutoff.
    pub final_cutoff: f64,
}

/// Streams a [`FileSpec`] most-critical-first with an adaptive cutoff.
pub struct FtpSenderAgent {
    driver: SenderDriver,
    coordinator: Coordinator,
    /// Blocks in transfer order; `next_block` indexes into it.
    order: Vec<Block>,
    next_block: usize,
    cutoff: f64,
    cutoff_step: f64,
    max_cutoff: f64,
    min_adapt_gap: iq_netsim::TimeDelta,
    backlog_target: usize,
    last_raise: Option<Time>,
    cutoff_raises: u64,
    /// msg_id → block, for receiver-side accounting.
    sent_map: Vec<Block>,
    finished: bool,
}

impl FtpSenderAgent {
    /// Creates a sender streaming `file` to `peer`.
    pub fn new(cfg: FtpConfig, file: &FileSpec, peer: Addr, flow: FlowId) -> Self {
        Self {
            driver: SenderDriver::new(SenderConn::new(cfg.conn_id, cfg.rudp.clone()), peer, flow),
            coordinator: Coordinator::new(cfg.mode),
            order: file.transfer_order(),
            next_block: 0,
            cutoff: cfg.initial_cutoff,
            cutoff_step: cfg.cutoff_step,
            max_cutoff: cfg.max_cutoff,
            min_adapt_gap: cfg.min_adapt_gap,
            backlog_target: cfg.backlog_target,
            last_raise: None,
            cutoff_raises: 0,
            sent_map: Vec::new(),
            finished: false,
        }
    }

    /// The block a delivered `msg_id` corresponds to.
    pub fn block_for_msg(&self, msg_id: u64) -> Option<Block> {
        self.sent_map.get(msg_id as usize).copied()
    }

    /// Current priority cutoff.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Whether every block has been submitted (or discarded).
    pub fn schedule_done(&self) -> bool {
        self.finished
    }

    /// Post-run summary.
    pub fn report(&self) -> TransferReport {
        let stats = self.driver.conn.stats();
        TransferReport {
            total_blocks: self.order.len() as u64,
            submitted_blocks: stats.msgs_submitted,
            discarded_blocks: stats.msgs_discarded,
            cutoff_raises: self.cutoff_raises,
            final_cutoff: self.cutoff,
        }
    }

    fn process_events(&mut self, now: Time) {
        while let Some(ev) = self.coordinator.next_event(&mut self.driver.conn) {
            match ev {
                ConnEvent::UpperThreshold(_) => {
                    if let Some(last) = self.last_raise {
                        if now.saturating_sub(last) < self.min_adapt_gap {
                            continue;
                        }
                    }
                    self.last_raise = Some(now);
                    self.cutoff = (self.cutoff + self.cutoff_step).min(self.max_cutoff);
                    self.cutoff_raises += 1;
                    // Describe the reliability adaptation: the fraction
                    // of remaining blocks now below the cutoff.
                    let remaining = &self.order[self.next_block.min(self.order.len())..];
                    let droppable = remaining
                        .iter()
                        .filter(|b| b.priority < self.cutoff)
                        .count() as f64;
                    let frac = if remaining.is_empty() {
                        0.0
                    } else {
                        droppable / remaining.len() as f64
                    };
                    let attrs = AttrList::new().with(names::ADAPT_MARK, frac);
                    self.coordinator
                        .report_adaptation(&mut self.driver.conn, now, &attrs);
                }
                ConnEvent::LowerThreshold(_) if self.cutoff > 0.0 => {
                    self.cutoff = (self.cutoff - self.cutoff_step).max(0.0);
                    let attrs = AttrList::new().with(
                        names::ADAPT_MARK,
                        if self.cutoff > 0.0 { 0.1 } else { 0.0 },
                    );
                    self.coordinator
                        .report_adaptation(&mut self.driver.conn, now, &attrs);
                }
                _ => {}
            }
        }
    }

    fn refill(&mut self, now: Time) {
        while self.next_block < self.order.len()
            && self.driver.conn.backlog_segments() < self.backlog_target
        {
            let block = self.order[self.next_block];
            self.next_block += 1;
            let marked = block.priority >= self.cutoff;
            let outcome =
                self.coordinator
                    .send(&mut self.driver.conn, now, block.size, marked);
            if matches!(outcome, iq_rudp::SendOutcome::Queued { .. }) {
                self.sent_map.push(block);
            }
        }
        if self.next_block >= self.order.len() && !self.finished {
            self.finished = true;
            self.driver.conn.finish();
        }
    }
}

impl Agent for FtpSenderAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.refill(ctx.now());
        self.driver.pump(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.driver.handle_packet(ctx, &pkt) {
            self.process_events(ctx.now());
            self.refill(ctx.now());
            self.driver.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == RUDP_TIMER_TOKEN {
            self.driver.handle_timer(ctx);
            self.process_events(ctx.now());
            self.refill(ctx.now());
            self.driver.pump(ctx);
        }
    }
}

/// The receiving side: an RUDP sink that keeps delivered messages so the
/// harness can compute per-priority completeness.
pub struct FtpReceiverAgent {
    inner: iq_rudp::RudpSinkAgent,
}

impl FtpReceiverAgent {
    /// Creates a receiver for connection `conn_id` (same transport
    /// config as the sender, for the tolerance advertisement).
    pub fn new(conn_id: u32, rudp: RudpConfig, flow: FlowId) -> Self {
        Self {
            inner: iq_rudp::RudpSinkAgent::new(conn_id, rudp, flow).keep_messages(),
        }
    }

    /// Whether the transfer completed.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// Receiver metrics.
    pub fn metrics(&self) -> &FlowMetrics {
        &self.inner.metrics
    }

    /// Delivered messages (msg ids map to blocks via the sender).
    pub fn messages(&self) -> &[DeliveredMsg] {
        &self.inner.messages
    }
}

impl Agent for FtpReceiverAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.inner.on_packet(ctx, pkt);
    }
}

/// Computes `(delivered_at_or_above, total_at_or_above)` for blocks with
/// priority ≥ `threshold`, joining receiver messages with the sender's
/// block map.
pub fn completeness_at(
    sender: &FtpSenderAgent,
    receiver: &FtpReceiverAgent,
    threshold: f64,
) -> (u64, u64) {
    let total = sender
        .order
        .iter()
        .filter(|b| b.priority >= threshold)
        .count() as u64;
    let delivered = receiver
        .messages()
        .iter()
        .filter_map(|m| sender.block_for_msg(m.msg_id))
        .filter(|b| b.priority >= threshold)
        .count() as u64;
    (delivered, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::{LinkSpec, Simulator};

    fn run_transfer(
        link_bps: f64,
        mode: CoordinationMode,
        n_blocks: u64,
    ) -> (Simulator, iq_netsim::AgentId, iq_netsim::AgentId) {
        let mut sim = Simulator::new(9);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(a, b, LinkSpec::new(link_bps, time::millis(10), 16_000));
        let file = FileSpec::with_center_focus(n_blocks, 1400);
        let mut cfg = FtpConfig::new(1);
        cfg.mode = mode;
        let rudp = cfg.rudp.clone();
        let tx = sim.add_agent(
            a,
            1,
            Box::new(FtpSenderAgent::new(cfg, &file, Addr::new(b, 1), FlowId(1))),
        );
        let rx = sim.add_agent(b, 1, Box::new(FtpReceiverAgent::new(1, rudp, FlowId(1))));
        sim.run_until(time::secs(300.0));
        (sim, tx, rx)
    }

    #[test]
    fn clean_link_delivers_every_block() {
        let (sim, tx, rx) = run_transfer(20e6, CoordinationMode::Coordinated, 300);
        let sender = sim.agent::<FtpSenderAgent>(tx).unwrap();
        let receiver = sim.agent::<FtpReceiverAgent>(rx).unwrap();
        assert!(receiver.is_finished());
        assert!(sender.schedule_done());
        let (got, total) = completeness_at(sender, receiver, 0.0);
        assert_eq!(got, total);
        assert_eq!(total, 300);
        assert_eq!(sender.report().cutoff_raises, 0);
    }

    #[test]
    fn critical_blocks_arrive_first() {
        let (sim, tx, rx) = run_transfer(20e6, CoordinationMode::Coordinated, 200);
        let sender = sim.agent::<FtpSenderAgent>(tx).unwrap();
        let receiver = sim.agent::<FtpReceiverAgent>(rx).unwrap();
        // Mean priority of the first half of deliveries exceeds the
        // second half: critical content led the transfer.
        let prios: Vec<f64> = receiver
            .messages()
            .iter()
            .filter_map(|m| sender.block_for_msg(m.msg_id))
            .map(|b| b.priority)
            .collect();
        let half = prios.len() / 2;
        let first: f64 = prios[..half].iter().sum::<f64>() / half as f64;
        let second: f64 = prios[half..].iter().sum::<f64>() / (prios.len() - half) as f64;
        assert!(first > second, "first {first} !> second {second}");
    }

    #[test]
    fn congestion_sheds_low_priority_blocks_only() {
        // A thin link forces cutoff raises; coordination discards the
        // low-priority tail at the API.
        let (sim, tx, rx) = run_transfer(1.2e6, CoordinationMode::Coordinated, 500);
        let sender = sim.agent::<FtpSenderAgent>(tx).unwrap();
        let receiver = sim.agent::<FtpReceiverAgent>(rx).unwrap();
        assert!(receiver.is_finished(), "transfer did not finish");
        let report = sender.report();
        assert!(report.cutoff_raises > 0, "cutoff never adapted");
        assert!(report.discarded_blocks > 0, "nothing was shed");
        // Everything above the final cutoff made it.
        let (got, total) = completeness_at(sender, receiver, 0.85);
        assert_eq!(got, total, "critical content lost");
        // The overall file is incomplete (that is the point).
        let (all_got, all_total) = completeness_at(sender, receiver, 0.0);
        assert!(all_got < all_total);
    }

    #[test]
    fn uncoordinated_mode_keeps_sending_everything() {
        let (sim, tx, _rx) = run_transfer(1.2e6, CoordinationMode::Uncoordinated, 400);
        let sender = sim.agent::<FtpSenderAgent>(tx).unwrap();
        // The cutoff still adapts app-side, but the transport never
        // discards (coordination is off).
        assert_eq!(sender.report().discarded_blocks, 0);
    }
}
