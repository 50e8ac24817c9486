//! Round-trip time estimation, shared by both transports through
//! [`crate::endpoint`].

use crate::time::{self, Time, TimeDelta};

/// Jacobson/Karels SRTT + RTTVAR estimator with exponential RTO backoff
/// (Karn's rule is the caller's: it samples only unretransmitted
/// segments). State only: each transport passes its own RTO clamps to
/// [`RttEstimator::rto`].
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    /// Current backoff exponent (one more per timeout, reset by a sample).
    backoff: u32,
}

impl RttEstimator {
    /// Creates an estimator with no sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the sample of a segment sent at `tx_at` and acknowledged
    /// at `now`.
    ///
    /// Zero-delay echoes are legal (sub-nanosecond links in tests round
    /// to the same tick); they must still seed the estimator or the RTO
    /// stays pinned at its initial value. Only a clock running backwards
    /// is discarded. The sample is floored at 1 µs so `rttvar` cannot
    /// collapse to exactly zero.
    pub fn sample_times(&mut self, tx_at: Time, now: Time) {
        const ALPHA: f64 = 1.0 / 8.0;
        const BETA: f64 = 1.0 / 4.0;
        if now < tx_at {
            return;
        }
        let rtt_s = ((now - tx_at) as f64 / 1e9).max(1e-6);
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

    /// Smoothed RTT in milliseconds (0 before the first sample).
    pub fn srtt_ms(&self) -> f64 {
        self.srtt.unwrap_or(0.0) * 1e3
    }

    /// Current retransmission timeout including backoff, clamped to
    /// `[min, max]`: 1 s before the first sample.
    pub fn rto(&self, min: TimeDelta, max: TimeDelta) -> TimeDelta {
        let base = match self.srtt {
            None => time::millis(1000),
            Some(srtt) => time::secs(srtt + 4.0 * self.rttvar),
        };
        base.clamp(min, max)
            .saturating_mul(1u64 << self.backoff.min(6))
            .min(max)
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
    pub fn digest(&self, h: &mut iq_telemetry::StateHasher) {
        h.write_bool(self.srtt.is_some());
        h.write_f64(self.srtt.unwrap_or(0.0));
        h.write_f64(self.rttvar);
        h.write_u64(u64::from(self.backoff));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{millis, SECOND};

    /// The RTO clamps of the two transports: RUDP's, then TCP's.
    const CLAMPS: [(TimeDelta, TimeDelta); 2] =
        [(millis(100), 4 * SECOND), (millis(200), 8 * SECOND)];

    fn sampled(rtt: TimeDelta) -> RttEstimator {
        let mut e = RttEstimator::new();
        e.sample_times(0, rtt);
        e
    }

    #[test]
    fn initial_rto_is_one_second() {
        for (min, max) in CLAMPS {
            assert_eq!(RttEstimator::new().rto(min, max), millis(1000));
        }
    }

    #[test]
    fn converges_on_stable_rtt() {
        let mut e = RttEstimator::new();
        for i in 0..50 {
            e.sample_times(i * SECOND, i * SECOND + millis(30));
        }
        assert!((e.srtt_ms() - 30.0).abs() < 1e-3);
        // Variance decays toward zero, so the RTO clamps to the floor.
        for (min, max) in CLAMPS {
            assert_eq!(e.rto(min, max), min);
        }
    }

    #[test]
    fn rto_tracks_variance() {
        // First sample: srtt 0.1 s, rttvar 0.05 s, so the RTO is 0.3 s.
        for (min, max) in CLAMPS {
            assert_eq!(sampled(millis(100)).rto(min, max), millis(300));
        }
    }

    #[test]
    fn backoff_doubles_and_resets() {
        for (min, max) in CLAMPS {
            let mut e = sampled(millis(100));
            let base = e.rto(min, max);
            e.on_timeout();
            assert_eq!(e.rto(min, max), (base * 2).min(max));
            e.on_timeout();
            assert_eq!(e.rto(min, max), (base * 4).min(max));
            assert_eq!(e.backoff(), 2);
            e.sample_times(0, millis(100));
            assert_eq!(e.backoff(), 0);
            assert!(e.rto(min, max) <= base + millis(1));
        }
    }

    #[test]
    fn rto_respects_max() {
        for (min, max) in CLAMPS {
            let mut e = sampled(2 * SECOND);
            for _ in 0..10 {
                e.on_timeout();
            }
            assert_eq!(e.rto(min, max), max);
        }
    }

    #[test]
    fn converges_and_backs_off() {
        for (min, max) in CLAMPS {
            let mut e = RttEstimator::new();
            for i in 0..40 {
                e.sample_times(i * SECOND, i * SECOND + millis(30));
            }
            assert!((e.srtt_ms() - 30.0).abs() < 0.5);
            let base = e.rto(min, max);
            e.on_timeout();
            assert!(e.rto(min, max) >= base * 2 || e.rto(min, max) == max);
            e.sample_times(0, millis(30));
            assert!(e.rto(min, max) <= base + millis(10));
        }
    }

    #[test]
    fn sample_times_ignores_clock_anomalies() {
        let mut e = RttEstimator::new();
        e.sample_times(100, 50); // now < tx_at: ignored
        assert_eq!(e.srtt_ms(), 0.0);
        e.sample_times(0, millis(30));
        assert!((e.srtt_ms() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn zero_delay_sample_seeds_the_estimator() {
        for (min, max) in CLAMPS {
            let e = sampled(0); // same tick: must not be discarded
            assert!(e.srtt_ms() > 0.0, "estimator still unseeded");
            // Seeded with the 1 µs floor, so the RTO leaves its 1 s
            // initial value and clamps to the floor.
            assert_eq!(e.rto(min, max), min);
        }
    }
}
