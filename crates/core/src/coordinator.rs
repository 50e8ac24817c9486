//! The coordinator: IQ-RUDP's re-adaptation engine.
//!
//! Sits between the application (IQ-ECho sends carrying `ADAPT_*`
//! attributes) and the RUDP sender. In coordinated modes it translates
//! reported application adaptations into transport parameter
//! re-adjustments (§2.3.1 "Keys to the Solution", observation 3):
//!
//! * **Reliability adaptation** (`ADAPT_MARK`) → start discarding
//!   unmarked datagrams before they enter the network (§3.3); no window
//!   change.
//! * **Resolution adaptation** (`ADAPT_PKTSIZE = rate_chg`) → scale the
//!   window by `1/(1 − rate_chg)` when frames are below the MSS, so the
//!   joint application+transport reaction matches the fair share instead
//!   of overshooting downward (§3.4).
//! * **Frequency adaptation** (`ADAPT_FREQ`) → no window change (the
//!   frequency reduction already has the window's intended effect).
//! * **Deferred adaptation** (`ADAPT_WHEN`) → remember the announcement;
//!   the transport keeps adapting on its own until the application
//!   reports execution (§3.5).
//! * **Obsolete information** (`ADAPT_COND`) → apply Eq. (1), correcting
//!   the resolution factor for network drift during the delay.

use iq_attrs::AttrList;
use iq_netsim::Time;
use iq_rudp::{ConnEvent, SendOutcome, SenderConn};
use iq_telemetry::{CwndReason, TelemetryEvent};

use crate::report::{cond_window_factor, resolution_window_factor, AdaptReport};

/// How much coordination the transport performs — the experimental
/// variable of every table in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinationMode {
    /// Plain RUDP: application attributes are ignored; each level adapts
    /// independently (the paper's "RUDP" rows).
    Uncoordinated,
    /// IQ-RUDP: transport re-adapts on reported application adaptations
    /// (the paper's "IQ-RUDP" / "IQ-RUDP w/o ADAPT_COND" rows).
    Coordinated,
    /// IQ-RUDP with `ADAPT_COND`: additionally corrects deferred
    /// adaptations for obsolete network information (Eq. 1).
    CoordinatedWithCond,
}

/// Counters describing what coordination actually did during a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordinationLog {
    /// Window re-adjustments applied (resolution adaptations).
    pub window_rescales: u64,
    /// Of those, how many used the Eq. (1) correction.
    pub cond_corrections: u64,
    /// Reliability reports that toggled discard-unmarked.
    pub reliability_reports: u64,
    /// Deferred-adaptation announcements received.
    pub deferred_announcements: u64,
    /// Frequency reports (accepted, but deliberately no window change).
    pub frequency_reports: u64,
    /// Product of all window factors applied (diagnostic).
    pub cumulative_factor: f64,
}

/// Folds another flow's log in: the counts add, the window factors
/// multiply.
impl std::ops::AddAssign for CoordinationLog {
    fn add_assign(&mut self, log: Self) {
        self.window_rescales += log.window_rescales;
        self.cond_corrections += log.cond_corrections;
        self.reliability_reports += log.reliability_reports;
        self.deferred_announcements += log.deferred_announcements;
        self.frequency_reports += log.frequency_reports;
        self.cumulative_factor *= log.cumulative_factor;
    }
}

/// A deferred adaptation the application announced but has not yet
/// executed.
#[derive(Debug, Clone, Copy)]
struct PendingAdaptation {
    /// Error ratio at announcement time (transport's own view), used
    /// when the application does not supply `ADAPT_COND`.
    eratio_at_announce: f64,
}

/// The IQ-RUDP coordination layer for one sending connection.
///
/// The coordinator does not own the connection; every call borrows it.
/// This lets the embedding agent keep the connection inside its
/// [`iq_netsim::SenderDriver`] while the coordinator supplies policy.
#[derive(Clone)]
pub struct Coordinator {
    mode: CoordinationMode,
    pending: Option<PendingAdaptation>,
    /// Size of the most recent application message, for the frames-below-
    /// MSS condition on resolution re-adjustment.
    last_msg_size: u32,
    log: CoordinationLog,
}

impl Coordinator {
    /// Creates a coordinator with the given mode.
    pub fn new(mode: CoordinationMode) -> Self {
        Self {
            mode,
            pending: None,
            last_msg_size: 0,
            log: CoordinationLog {
                cumulative_factor: 1.0,
                ..CoordinationLog::default()
            },
        }
    }

    /// The active coordination mode.
    pub fn mode(&self) -> CoordinationMode {
        self.mode
    }

    /// What coordination has done so far.
    pub fn log(&self) -> CoordinationLog {
        self.log
    }

    /// Whether a deferred adaptation is armed (announced, not executed).
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The smoothed error ratio snapshotted when the armed deferral was
    /// announced, if one is armed.
    pub fn pending_eratio(&self) -> Option<f64> {
        self.pending.map(|p| p.eratio_at_announce)
    }

    /// Folds the coordination state into a model-checker digest.
    pub fn state_digest(&self, h: &mut iq_telemetry::StateHasher) {
        h.write_u8(match self.mode {
            CoordinationMode::Uncoordinated => 0,
            CoordinationMode::Coordinated => 1,
            CoordinationMode::CoordinatedWithCond => 2,
        });
        h.write_bool(self.pending.is_some());
        h.write_f64(self.pending.map_or(0.0, |p| p.eratio_at_announce));
        h.write_u64(u64::from(self.last_msg_size));
        h.write_u64(self.log.window_rescales);
        h.write_u64(self.log.cond_corrections);
        h.write_u64(self.log.reliability_reports);
        h.write_u64(self.log.deferred_announcements);
        h.write_u64(self.log.frequency_reports);
        h.write_f64(self.log.cumulative_factor);
    }

    /// The application-facing send call: `CMwritev_attr`. Attributes
    /// describe adaptations taking effect with this message.
    pub fn send_with_attrs(
        &mut self,
        conn: &mut SenderConn,
        now: Time,
        size: u32,
        marked: bool,
        attrs: &AttrList,
    ) -> SendOutcome {
        self.last_msg_size = size;
        if !attrs.is_empty() {
            self.handle_report(conn, now, AdaptReport::from_attrs(attrs));
        }
        conn.send_message(now, size, marked)
    }

    /// Plain send without attributes.
    pub fn send(
        &mut self,
        conn: &mut SenderConn,
        now: Time,
        size: u32,
        marked: bool,
    ) -> SendOutcome {
        self.last_msg_size = size;
        conn.send_message(now, size, marked)
    }

    /// Reports an adaptation outside a send (a callback return value).
    pub fn report_adaptation(&mut self, conn: &mut SenderConn, now: Time, attrs: &AttrList) {
        if !attrs.is_empty() {
            self.handle_report(conn, now, AdaptReport::from_attrs(attrs));
        }
    }

    fn handle_report(&mut self, conn: &mut SenderConn, now: Time, report: AdaptReport) {
        if self.mode == CoordinationMode::Uncoordinated {
            return;
        }
        // Timing: a future announcement arms the pending state and
        // nothing else happens until execution.
        if report.is_deferred() {
            self.log.deferred_announcements += 1;
            self.pending = Some(PendingAdaptation {
                eratio_at_announce: conn.net_cond().eratio_smoothed,
            });
            return;
        }
        // Reliability: enable/disable discard-unmarked. No window change
        // (§2.3.2: "a reliability adaptation does not lead to changes in
        // IQ-RUDP's window algorithm").
        if let Some(mark_ratio) = report.mark_ratio {
            self.log.reliability_reports += 1;
            conn.set_discard_unmarked(mark_ratio > 0.0);
        }
        // Frequency: deliberately no window change.
        if report.freq_chg.is_some() {
            self.log.frequency_reports += 1;
        }
        // Resolution: re-inflate the window, but only when application
        // frames are below the segment size — larger frames already
        // shrink the number of segments proportionally. Size *increases*
        // (negative rate_chg) deliberately leave the window alone: the
        // growing frames are the application's probe for spare
        // bandwidth, and the congestion window's own loss response
        // already polices it (deflating here would pin the flow below
        // its share during every recovery).
        if let Some(rate_chg) = report.rate_chg {
            let frames_below_mss = self.last_msg_size <= iq_rudp::MSS;
            let pending = self.pending.take();
            if frames_below_mss && rate_chg > 0.0 {
                // (eratio_then, eratio_now) when Eq. (1) was applied.
                let mut cond_used: Option<(f64, f64)> = None;
                let factor = match (self.mode, report.cond_eratio, pending) {
                    // Scheme 3: the application told us the conditions it
                    // based the (possibly delayed) adaptation on.
                    (CoordinationMode::CoordinatedWithCond, Some(then), _) => {
                        self.log.cond_corrections += 1;
                        let now_e = conn.net_cond().eratio_smoothed;
                        cond_used = Some((then, now_e));
                        cond_window_factor(rate_chg, then, now_e)
                    }
                    // Scheme 3 without an explicit ADAPT_COND: fall back
                    // to the transport's own snapshot taken when the
                    // deferral was announced.
                    (CoordinationMode::CoordinatedWithCond, None, Some(p)) => {
                        self.log.cond_corrections += 1;
                        let now_e = conn.net_cond().eratio_smoothed;
                        cond_used = Some((p.eratio_at_announce, now_e));
                        cond_window_factor(rate_chg, p.eratio_at_announce, now_e)
                    }
                    // Scheme 2 (or an immediate adaptation): plain §3.4
                    // factor.
                    _ => resolution_window_factor(rate_chg),
                };
                self.log.window_rescales += 1;
                self.log.cumulative_factor *= factor;
                let cwnd = conn.scale_cwnd(factor);
                let sink = conn.telemetry();
                let flow = conn.telemetry_flow();
                if let Some((eratio_then, eratio_now)) = cond_used {
                    sink.emit(
                        now,
                        flow,
                        TelemetryEvent::AdaptCond {
                            eratio_then,
                            eratio_now,
                        },
                    );
                }
                sink.emit_with(now, flow, || TelemetryEvent::WindowReinflate {
                    rate_chg,
                    factor,
                    cwnd,
                    srtt_ms: conn.net_cond().srtt_ms,
                });
                sink.emit(
                    now,
                    flow,
                    TelemetryEvent::CwndUpdate {
                        cwnd,
                        reason: CwndReason::Rescale,
                    },
                );
            }
        }
    }

    /// Removes and returns the oldest pending transport event. The
    /// embedding agent forwards threshold events to the application's
    /// registered callbacks; looping on this drains the connection in
    /// place, with no buffer on either side.
    pub fn next_event(&mut self, conn: &mut SenderConn) -> Option<ConnEvent> {
        conn.pop_event()
    }

    /// Drains every pending transport event ([`Self::next_event`] until
    /// it runs dry) into a fresh `Vec`.
    pub fn take_events(&mut self, conn: &mut SenderConn) -> Vec<ConnEvent> {
        std::iter::from_fn(|| self.next_event(conn)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_attrs::names;
    use iq_rudp::{RudpConfig, Segment};

    fn setup(mode: CoordinationMode) -> (Coordinator, SenderConn) {
        let mut conn = SenderConn::new(1, RudpConfig::default());
        // Handshake so the window is live.
        let _ = conn.poll_transmit(0);
        conn.on_segment(
            0,
            &Segment::SynAck {
                loss_tolerance: 0.4,
                recv_window: 1024,
            },
        );
        conn.scale_cwnd(10.0); // cwnd 20 for visible effects
        (Coordinator::new(mode), conn)
    }

    #[test]
    fn resolution_report_scales_window() {
        let (mut c, mut conn) = setup(CoordinationMode::Coordinated);
        let before = conn.cwnd();
        let attrs = AttrList::new().with(names::ADAPT_PKTSIZE, 0.2);
        c.send_with_attrs(&mut conn, 0, 1000, true, &attrs);
        assert!((conn.cwnd() - before * 1.25).abs() < 1e-9);
        assert_eq!(c.log().window_rescales, 1);
    }

    #[test]
    fn uncoordinated_mode_ignores_reports() {
        let (mut c, mut conn) = setup(CoordinationMode::Uncoordinated);
        let before = conn.cwnd();
        let attrs = AttrList::new()
            .with(names::ADAPT_PKTSIZE, 0.2)
            .with(names::ADAPT_MARK, 0.5);
        c.send_with_attrs(&mut conn, 0, 1000, true, &attrs);
        assert_eq!(conn.cwnd(), before);
        assert!(!conn.discard_unmarked());
        assert_eq!(c.log().window_rescales, 0);
    }

    #[test]
    fn reliability_report_toggles_discard() {
        let (mut c, mut conn) = setup(CoordinationMode::Coordinated);
        c.report_adaptation(&mut conn, 0, &AttrList::new().with(names::ADAPT_MARK, 0.4));
        assert!(conn.discard_unmarked());
        // Unmarking probability dropped to zero: discard turns off.
        c.report_adaptation(&mut conn, 0, &AttrList::new().with(names::ADAPT_MARK, 0.0));
        assert!(!conn.discard_unmarked());
        assert_eq!(c.log().reliability_reports, 2);
    }

    #[test]
    fn frequency_report_leaves_window_alone() {
        let (mut c, mut conn) = setup(CoordinationMode::Coordinated);
        let before = conn.cwnd();
        c.report_adaptation(&mut conn, 0, &AttrList::new().with(names::ADAPT_FREQ, 0.5));
        assert_eq!(conn.cwnd(), before);
        assert_eq!(c.log().frequency_reports, 1);
    }

    #[test]
    fn large_frames_skip_window_rescale() {
        let (mut c, mut conn) = setup(CoordinationMode::Coordinated);
        let before = conn.cwnd();
        // Frame far above MSS: reducing it already reduces segments.
        let attrs = AttrList::new().with(names::ADAPT_PKTSIZE, 0.2);
        c.send_with_attrs(&mut conn, 0, 30_000, true, &attrs);
        assert_eq!(conn.cwnd(), before);
    }

    #[test]
    fn deferred_announcement_then_execution() {
        let (mut c, mut conn) = setup(CoordinationMode::Coordinated);
        let before = conn.cwnd();
        // Announce: adaptation in 20 messages. No window change yet.
        c.report_adaptation(
            &mut conn,
            0,
            &AttrList::new().with(names::ADAPT_WHEN, 20i64),
        );
        assert_eq!(conn.cwnd(), before);
        assert_eq!(c.log().deferred_announcements, 1);
        // Execute.
        let attrs = AttrList::new().with(names::ADAPT_PKTSIZE, 0.2);
        c.send_with_attrs(&mut conn, 0, 1000, true, &attrs);
        assert!((conn.cwnd() - before * 1.25).abs() < 1e-9);
    }

    #[test]
    fn cond_mode_applies_equation_one() {
        let (mut c, mut conn) = setup(CoordinationMode::CoordinatedWithCond);
        let before = conn.cwnd();
        // Transport's own smoothed eratio is 0 (clean start); the app
        // says it decided at eratio 0.3. Factor = (1-0)/(1-0.3) * 1.25.
        let attrs = AttrList::new()
            .with(names::ADAPT_PKTSIZE, 0.2)
            .with(names::ADAPT_COND_ERATIO, 0.3);
        c.send_with_attrs(&mut conn, 0, 1000, true, &attrs);
        let expect = (1.0 / 0.7) * 1.25;
        assert!((conn.cwnd() - before * expect).abs() < 1e-6);
        assert_eq!(c.log().cond_corrections, 1);
    }

    #[test]
    fn a_nan_cond_ratio_gets_the_plain_factor() {
        // A NaN ADAPT_COND used to count a rescale and a correction that
        // `scale_cwnd` then ignored, and left `cumulative_factor` NaN
        // for the rest of the run.
        let (mut c, mut conn) = setup(CoordinationMode::CoordinatedWithCond);
        assert_eq!(conn.cwnd(), 20.0);
        let attrs = AttrList::new()
            .with(names::ADAPT_PKTSIZE, 0.2)
            .with(names::ADAPT_COND_ERATIO, f64::NAN);
        c.send_with_attrs(&mut conn, 0, 1000, true, &attrs);
        assert!((conn.cwnd() - 25.0).abs() < 1e-9, "cwnd {}", conn.cwnd());
        let log = c.log();
        assert_eq!((log.window_rescales, log.cond_corrections), (1, 0));
        assert!((log.cumulative_factor - 1.25).abs() < 1e-12, "{log:?}");
    }

    #[test]
    fn coordinated_mode_ignores_cond_attribute() {
        // Scheme 2: ADAPT_COND present but the mode does not use it.
        let (mut c, mut conn) = setup(CoordinationMode::Coordinated);
        let before = conn.cwnd();
        let attrs = AttrList::new()
            .with(names::ADAPT_PKTSIZE, 0.2)
            .with(names::ADAPT_COND_ERATIO, 0.3);
        c.send_with_attrs(&mut conn, 0, 1000, true, &attrs);
        assert!((conn.cwnd() - before * 1.25).abs() < 1e-9);
        assert_eq!(c.log().cond_corrections, 0);
    }
}
