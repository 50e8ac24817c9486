//! Per-connection measurement periods.
//!
//! IQ-RUDP maintains "a group of network performance metrics ... anytime
//! during a connection's lifetime" (§2.1). The sender counts segments
//! sent, acknowledged, and lost within fixed measuring periods; at each
//! period boundary it produces a [`NetCond`] snapshot used for (a) the
//! LDA window adjustment, (b) the error ratio the application reads, and (c)
//! the application's error-ratio threshold callbacks.

use iq_netsim::{Time, TimeDelta};

/// Weight of the newest period in the smoothed error ratio.
const ERATIO_WEIGHT: f64 = 0.3;

/// A snapshot of network condition at a period boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCond {
    /// Loss ("error") ratio of the last period, in `[0, 1]`.
    pub eratio: f64,
    /// Smoothed loss ratio (exponentially weighted over periods).
    pub eratio_smoothed: f64,
    /// Smoothed round-trip time, milliseconds.
    pub srtt_ms: f64,
    /// Current congestion window, segments.
    pub cwnd: f64,
    /// Acked goodput over the last period, KB/s.
    pub rate_kbps: f64,
}

/// Counts per-period sender activity. The period length is a per-class
/// constant (`RudpConfig::measure_period`) the connection passes in.
#[derive(Debug, Clone)]
pub struct PeriodMeter {
    period_start: Time,
    sent: u64,
    lost: u64,
    acked_bytes: u64,
    /// `None` until the first period closes, which seeds it.
    eratio_smoothed: Option<f64>,
    last: NetCond,
}

impl Default for PeriodMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl PeriodMeter {
    /// Creates a meter whose first period starts at time 0.
    pub fn new() -> Self {
        Self {
            period_start: 0,
            sent: 0,
            lost: 0,
            acked_bytes: 0,
            eratio_smoothed: None,
            last: NetCond::default(),
        }
    }

    /// Records a (re)transmitted data segment.
    pub fn on_send(&mut self) {
        self.sent += 1;
    }

    /// Records a detected loss (fast-retransmit trigger, timeout, or
    /// abandonment of an unmarked segment).
    pub fn on_loss(&mut self) {
        self.lost += 1;
    }

    /// Records `bytes` newly acknowledged.
    pub fn on_acked(&mut self, bytes: u64) {
        self.acked_bytes += bytes;
    }

    /// Time at which the current period, `period` long, ends.
    pub fn deadline(&self, period: TimeDelta) -> Time {
        self.period_start + period
    }

    /// Closes the period if `now` passed its deadline; returns the fresh
    /// snapshot when one was produced. `srtt_ms` and `cwnd` are provided
    /// by the connection for inclusion in the snapshot.
    pub fn maybe_roll(
        &mut self,
        now: Time,
        period: TimeDelta,
        srtt_ms: f64,
        cwnd: f64,
    ) -> Option<NetCond> {
        if now < self.deadline(period) {
            return None;
        }
        let eratio = if self.sent == 0 {
            0.0
        } else {
            (self.lost as f64 / self.sent as f64).min(1.0)
        };
        let elapsed_s = (now - self.period_start) as f64 / 1e9;
        let rate_kbps = if elapsed_s > 0.0 {
            self.acked_bytes as f64 / 1000.0 / elapsed_s
        } else {
            0.0
        };
        let v = self.eratio_smoothed.unwrap_or(eratio);
        let smoothed = v + ERATIO_WEIGHT * (eratio - v);
        self.eratio_smoothed = Some(smoothed);
        let cond = NetCond {
            eratio,
            eratio_smoothed: smoothed,
            srtt_ms,
            cwnd,
            rate_kbps,
        };
        self.last = cond;
        self.sent = 0;
        self.lost = 0;
        self.acked_bytes = 0;
        self.period_start = now;
        Some(cond)
    }

    /// Most recent completed snapshot.
    pub fn last(&self) -> NetCond {
        self.last
    }

    /// Replaces the snapshot's window with the one the controller chose
    /// in reaction to it, which is what the sender's period events
    /// report.
    pub(crate) fn set_last_cwnd(&mut self, cwnd: f64) {
        self.last.cwnd = cwnd;
    }

    /// Folds the meter state into a model-checker digest. Times are
    /// hashed relative to `now` so equivalent states reached at
    /// different absolute clocks still collide.
    pub(crate) fn digest(&self, now: Time, period: TimeDelta, h: &mut iq_telemetry::StateHasher) {
        h.write_u64(self.deadline(period).saturating_sub(now));
        h.write_u64(self.sent);
        h.write_u64(self.lost);
        h.write_u64(self.acked_bytes);
        h.write_f64(self.last.eratio);
        h.write_f64(self.last.eratio_smoothed);
        h.write_f64(self.last.rate_kbps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::time::millis;

    const PERIOD: TimeDelta = millis(100);

    #[test]
    fn no_roll_before_deadline() {
        let mut m = PeriodMeter::new();
        m.on_send();
        assert!(m.maybe_roll(millis(50), PERIOD, 30.0, 10.0).is_none());
    }

    #[test]
    fn eratio_is_lost_over_sent() {
        let mut m = PeriodMeter::new();
        for _ in 0..10 {
            m.on_send();
        }
        m.on_loss();
        m.on_loss();
        let c = m.maybe_roll(millis(100), PERIOD, 30.0, 10.0).unwrap();
        assert!((c.eratio - 0.2).abs() < 1e-9);
        assert_eq!(c.srtt_ms, 30.0);
        assert_eq!(c.cwnd, 10.0);
    }

    #[test]
    fn counters_reset_each_period() {
        let mut m = PeriodMeter::new();
        m.on_send();
        m.on_loss();
        m.maybe_roll(millis(100), PERIOD, 0.0, 0.0).unwrap();
        m.on_send();
        let c = m.maybe_roll(millis(200), PERIOD, 0.0, 0.0).unwrap();
        assert_eq!(c.eratio, 0.0);
    }

    #[test]
    fn idle_period_has_zero_eratio() {
        let mut m = PeriodMeter::new();
        let c = m.maybe_roll(millis(150), PERIOD, 0.0, 0.0).unwrap();
        assert_eq!(c.eratio, 0.0);
        assert_eq!(c.rate_kbps, 0.0);
    }

    #[test]
    fn rate_counts_acked_bytes() {
        let mut m = PeriodMeter::new();
        m.on_acked(50_000);
        let c = m.maybe_roll(millis(100), PERIOD, 0.0, 0.0).unwrap();
        // 50 KB over 0.1 s = 500 KB/s.
        assert!((c.rate_kbps - 500.0).abs() < 1e-9);
    }

    #[test]
    fn smoothed_eratio_lags_instantaneous() {
        let mut m = PeriodMeter::new();
        let mut t = millis(100);
        // First period: heavy loss.
        for _ in 0..10 {
            m.on_send();
        }
        for _ in 0..5 {
            m.on_loss();
        }
        m.maybe_roll(t, PERIOD, 0.0, 0.0);
        // Next periods: clean.
        for _ in 0..5 {
            t += millis(100);
            for _ in 0..10 {
                m.on_send();
            }
            m.maybe_roll(t, PERIOD, 0.0, 0.0);
        }
        let c = m.last();
        assert_eq!(c.eratio, 0.0);
        assert!(c.eratio_smoothed > 0.0 && c.eratio_smoothed < 0.2);
    }

    #[test]
    fn first_period_seeds_the_smoothed_eratio() {
        let mut m = PeriodMeter::new();
        for _ in 0..4 {
            m.on_send();
        }
        m.on_loss();
        let c = m.maybe_roll(millis(100), PERIOD, 0.0, 0.0).unwrap();
        assert_eq!(c.eratio, 0.25);
        assert_eq!(c.eratio_smoothed, 0.25);
    }

    #[test]
    fn smoothed_eratio_converges_toward_a_constant_loss() {
        let mut m = PeriodMeter::new();
        let mut t = 0;
        // A clean first period seeds the average at 0; then every
        // period loses half its segments.
        for lost in std::iter::once(0).chain(std::iter::repeat_n(5, 30)) {
            t += millis(100);
            for _ in 0..10 {
                m.on_send();
            }
            for _ in 0..lost {
                m.on_loss();
            }
            m.maybe_roll(t, PERIOD, 0.0, 0.0).unwrap();
        }
        assert!((m.last().eratio_smoothed - 0.5).abs() < 1e-3);
    }
}
