//! RTT estimation for the TCP model (Jacobson/Karels, same structure as
//! the RUDP estimator but kept local so the baseline crate stands alone).

use iq_netsim::{time, Time, TimeDelta};

/// SRTT/RTTVAR estimator with exponential RTO backoff.
#[derive(Debug, Clone)]
pub struct TcpRtt {
    srtt: Option<f64>,
    rttvar: f64,
    min_rto: TimeDelta,
    max_rto: TimeDelta,
    backoff: u32,
}

impl TcpRtt {
    /// Creates an estimator with the given RTO clamps.
    pub fn new(min_rto: TimeDelta, max_rto: TimeDelta) -> Self {
        Self {
            srtt: None,
            rttvar: 0.0,
            min_rto,
            max_rto,
            backoff: 0,
        }
    }

    /// Records a sample from transmission/arrival timestamps. A same-tick
    /// echo is a sample, floored at 1 µs; only `now < tx_at` is discarded.
    pub fn sample_times(&mut self, tx_at: Time, now: Time) {
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
                self.rttvar = 0.75 * self.rttvar + 0.25 * err.abs();
                self.srtt = Some(srtt + err / 8.0);
            }
        }
        self.backoff = 0;
    }

    /// Smoothed RTT in milliseconds (0 before the first sample).
    pub fn srtt_ms(&self) -> f64 {
        self.srtt.unwrap_or(0.0) * 1e3
    }

    /// Current retransmission timeout including backoff.
    pub fn rto(&self) -> TimeDelta {
        let base = match self.srtt {
            None => time::millis(1000),
            Some(srtt) => time::secs(srtt + 4.0 * self.rttvar),
        };
        base.clamp(self.min_rto, self.max_rto)
            .saturating_mul(1u64 << self.backoff.min(6))
            .min(self.max_rto)
    }

    /// Doubles the RTO after a retransmission timeout.
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_netsim::time::millis;

    #[test]
    fn converges_and_backs_off() {
        let mut r = TcpRtt::new(millis(200), time::secs(8.0));
        assert_eq!(r.rto(), millis(1000));
        for i in 0..40u64 {
            r.sample_times(i * 1_000_000_000, i * 1_000_000_000 + 30_000_000);
        }
        assert!((r.srtt_ms() - 30.0).abs() < 0.5);
        let base = r.rto();
        r.on_timeout();
        assert!(r.rto() >= base * 2 || r.rto() == time::secs(8.0));
        r.sample_times(0, 30_000_000);
        assert!(r.rto() <= base + millis(10));
    }

    #[test]
    fn zero_delay_sample_seeds_the_estimator() {
        let mut r = TcpRtt::new(millis(200), time::secs(8.0));
        r.sample_times(100, 50); // now < tx_at: ignored
        assert_eq!(r.srtt_ms(), 0.0);
        r.sample_times(1_000, 1_000); // same tick: must not be discarded
        assert!(r.srtt_ms() > 0.0, "estimator still unseeded");
        // Seeded with the 1 µs floor, so the RTO leaves its 1 s initial
        // value and clamps to the configured minimum.
        assert_eq!(r.rto(), millis(200));
    }
}
