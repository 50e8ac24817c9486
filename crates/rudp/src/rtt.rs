//! Round-trip time estimation (Jacobson/Karels SRTT + RTTVAR, Karn's
//! rule applied by the caller via the `echo_tx_at` convention).

use iq_netsim::{time, Time, TimeDelta};

use crate::types::RudpConfig;

/// SRTT/RTTVAR estimator with exponential RTO backoff. State only: the
/// RTO clamps are per-class constants, read from the connection's
/// shared [`RudpConfig`] where the RTO is computed.
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    /// Current backoff multiplier (doubles on timeout, resets on sample).
    backoff: u32,
}

impl RttEstimator {
    /// Creates an estimator with no sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one RTT sample (seconds since the echoed transmission).
    pub fn sample(&mut self, rtt_s: f64) {
        const ALPHA: f64 = 1.0 / 8.0;
        const BETA: f64 = 1.0 / 4.0;
        match self.srtt {
            None => {
                self.srtt = Some(rtt_s);
                self.rttvar = rtt_s / 2.0;
            }
            Some(srtt) => {
                let err = rtt_s - srtt;
                self.rttvar = (1.0 - BETA) * self.rttvar + BETA * err.abs();
                self.srtt = Some(srtt + ALPHA * err);
            }
        }
        self.backoff = 0;
    }

    /// Records a sample from transmission/arrival timestamps.
    ///
    /// Zero-delay echoes are legal (sub-nanosecond links in tests round
    /// to the same tick); they must still seed the estimator or the RTO
    /// stays pinned at its initial value. Only a clock running backwards
    /// is discarded. The sample is floored at 1 µs so `rttvar` cannot
    /// collapse to exactly zero.
    pub fn sample_times(&mut self, tx_at: Time, now: Time) {
        if now >= tx_at {
            self.sample(((now - tx_at) as f64 / 1e9).max(1e-6));
        }
    }

    /// Smoothed RTT in seconds, or `default` before the first sample.
    pub fn srtt_or(&self, default: f64) -> f64 {
        self.srtt.unwrap_or(default)
    }

    /// Smoothed RTT in milliseconds (0 before the first sample).
    pub fn srtt_ms(&self) -> f64 {
        self.srtt.unwrap_or(0.0) * 1e3
    }

    /// Smoothed RTT as a time delta, or `None` before the first sample
    /// (feeds the congestion controllers' ACK hook).
    pub fn srtt(&self) -> Option<TimeDelta> {
        self.srtt.map(|s| (s * 1e9) as TimeDelta)
    }

    /// Current retransmission timeout including backoff, clamped to
    /// `cfg`'s `[min_rto, max_rto]`.
    pub fn rto(&self, cfg: &RudpConfig) -> TimeDelta {
        let base = match self.srtt {
            None => time::millis(1000),
            Some(srtt) => time::secs(srtt + 4.0 * self.rttvar),
        };
        base.clamp(cfg.min_rto, cfg.max_rto)
            .saturating_mul(1u64 << self.backoff.min(6))
            .min(cfg.max_rto)
    }

    /// Doubles the RTO after a retransmission timeout (Karn backoff).
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(6);
    }

    /// Current Karn backoff level (0 when no timeout is outstanding).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Folds the estimator state into a model-checker digest.
    pub(crate) fn digest(&self, h: &mut iq_telemetry::StateHasher) {
        h.write_bool(self.srtt.is_some());
        h.write_f64(self.srtt.unwrap_or(0.0));
        h.write_f64(self.rttvar);
        h.write_u64(u64::from(self.backoff));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::time::millis;

    fn est() -> RttEstimator {
        RttEstimator::new()
    }

    /// RTO clamps of 100 ms and 4 s.
    fn cfg() -> RudpConfig {
        RudpConfig {
            min_rto: millis(100),
            max_rto: time::secs(4.0),
            ..RudpConfig::default()
        }
    }

    #[test]
    fn initial_rto_is_one_second() {
        assert_eq!(est().rto(&cfg()), millis(1000));
    }

    #[test]
    fn converges_on_stable_rtt() {
        let mut e = est();
        for _ in 0..50 {
            e.sample(0.030);
        }
        assert!((e.srtt_or(0.0) - 0.030).abs() < 1e-6);
        assert!((e.srtt_ms() - 30.0).abs() < 1e-3);
        // Variance decays toward zero, so RTO clamps to the floor.
        assert_eq!(e.rto(&cfg()), millis(100));
    }

    #[test]
    fn rto_tracks_variance() {
        let mut e = est();
        e.sample(0.1);
        // First sample: srtt=0.1, rttvar=0.05 => rto = 0.3 s.
        assert_eq!(e.rto(&cfg()), millis(300));
    }

    #[test]
    fn backoff_doubles_and_resets() {
        let mut e = est();
        e.sample(0.1);
        let base = e.rto(&cfg());
        e.on_timeout();
        assert_eq!(e.rto(&cfg()), (base * 2).min(time::secs(4.0)));
        e.on_timeout();
        assert_eq!(e.rto(&cfg()), (base * 4).min(time::secs(4.0)));
        e.sample(0.1);
        assert!(e.rto(&cfg()) <= base + millis(1));
    }

    #[test]
    fn rto_respects_max() {
        let mut e = est();
        e.sample(2.0);
        for _ in 0..10 {
            e.on_timeout();
        }
        assert_eq!(e.rto(&cfg()), time::secs(4.0));
    }

    #[test]
    fn sample_times_ignores_clock_anomalies() {
        let mut e = est();
        e.sample_times(100, 50); // now < tx_at: ignored
        assert_eq!(e.srtt_ms(), 0.0);
        e.sample_times(0, 30_000_000);
        assert!((e.srtt_ms() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn zero_delay_sample_seeds_the_estimator() {
        let mut e = est();
        e.sample_times(1_000, 1_000); // same tick: must not be discarded
        assert!(e.srtt_ms() > 0.0, "estimator still unseeded");
        // Seeded with the 1 µs floor, so the RTO leaves its 1 s initial
        // value and clamps to the configured minimum.
        assert_eq!(e.rto(&cfg()), millis(100));
    }
}
