//! Congestion control: five controllers behind one closed type.
//!
//! Which controller a connection runs is a [`CcAlgorithm`] value in
//! [`CcConfig`]; the sender stores it inline as a [`CcController`], so
//! the per-ACK hot path stays allocation- and vtable-free. A controller
//! is chosen, not tuned: every one reads named constants, the same for
//! every connection of every scenario. A caller that needs a second value
//! of one brings the field back with it.
//!
//! Controllers:
//!
//! - **LDA** — the paper's loss-proportional window, a window-based
//!   analogue of the Loss-Delay Adjustment algorithm (Sisalem &
//!   Schulzrinne) IQ-RUDP says it resembles (§2). Additive increase per
//!   loss-free measuring period; `w ← w · max(0.5, 1 − 2·√loss)` on
//!   lossy periods; timeouts halve. Smoother than TCP's halving — the
//!   "smoother changes of congestion window" of §3.2.
//! - **CUBIC** — RFC 8312-style: after a loss event the window follows
//!   `W(t) = C·(t − K)³ + W_max` in time since the event, giving the
//!   concave/convex probe around the last known saturation point; a
//!   plain slow-start phase handles the initial ramp.
//! - **BBR-like** — windowed-max delivery rate × windowed-min RTT (both
//!   sampled at measuring-period boundaries from [`NetCond`]) estimate
//!   the bandwidth-delay product, and the window is pinned to
//!   `gain × BDP`.
//! - **RRR** — an interpretation of "Relative Rate Reduction Based
//!   Control with Adjustable Congestion Level" (PAPERS.md): periods at or
//!   below a target loss ratio probe additively, periods above it reduce
//!   the window in proportion to the loss excess *relative* to the
//!   target.
//! - **Fixed** — no adaptation; the paper's "application adaptation
//!   only" rows (Table 1, row 3). Coordination `scale` still applies.
//!
//! Every controller's `scale` is multiply-then-clamp against
//! `[MIN_CWND, MAX_CWND]` — the uniform contract the model checker's
//! re-inflation invariant (DESIGN.md §13) checks for all of them.

use iq_netsim::Time;

use crate::meter::NetCond;
use crate::segment::MSS;

/// Initial window of the adaptive controllers, segments.
pub const INITIAL_CWND: f64 = 2.0;
/// Window floor every controller clamps to, segments.
pub const MIN_CWND: f64 = 1.0;
/// Window ceiling every controller clamps to, segments.
pub const MAX_CWND: f64 = 1024.0;

/// Additive increase per clean period (LDA; RRR at or below its target),
/// segments.
const INCR_PER_PERIOD: f64 = 1.0;
/// LDA: multiplier on the square root of the loss ratio in the decrease
/// factor.
const LDA_BETA: f64 = 2.0;
/// CUBIC: the cubic coefficient `C`, segments/s³ (RFC 8312's default).
const CUBIC_C: f64 = 0.4;
/// CUBIC: multiplicative decrease on a loss event (RFC 8312's default).
const CUBIC_BETA: f64 = 0.7;
/// BBR-like: window gain over the estimated BDP (headroom for ACK
/// clocking).
const BBR_GAIN: f64 = 2.0;
/// BBR-like: growth per period while no BDP estimate exists yet.
const BBR_STARTUP_GAIN: f64 = 2.0;
/// BBR-like: sample window of the rate and RTT filters, periods.
const BBR_WINDOW: usize = 8;
/// RRR: the congestion level, the loss ratio it is willing to run at.
const RRR_TARGET_LOSS: f64 = 0.05;
/// RRR: gain on the relative loss excess.
const RRR_GAMMA: f64 = 1.0;

/// Congestion-control configuration of a connection class.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CcConfig {
    /// Which controller to run.
    pub algorithm: CcAlgorithm,
}

/// Typed selection of a congestion controller.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum CcAlgorithm {
    /// The paper's loss-proportional LDA window (the default).
    #[default]
    Lda,
    /// RFC 8312-style CUBIC.
    Cubic,
    /// Simplified delivery-rate × min-RTT model.
    BbrLike,
    /// Relative-rate-reduction at a fixed congestion level.
    Rrr,
    /// No adaptation: the window stays pinned (coordination `scale`
    /// still applies). The paper's "application adaptation only" mode.
    Fixed {
        /// The pinned window, segments.
        cwnd: f64,
    },
}

impl CcAlgorithm {
    /// Every algorithm, as [`Self::from_name`] gives it: `fixed` pins 64
    /// segments (the model checker's `--cc fixed`).
    pub const ALL: [Self; 5] = [
        CcAlgorithm::Lda,
        CcAlgorithm::Cubic,
        CcAlgorithm::BbrLike,
        CcAlgorithm::Rrr,
        CcAlgorithm::Fixed { cwnd: 64.0 },
    ];

    /// Stable lower-case name, used in CLI flags, scenario labels, and
    /// telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            CcAlgorithm::Lda => "lda",
            CcAlgorithm::Cubic => "cubic",
            CcAlgorithm::BbrLike => "bbr",
            CcAlgorithm::Rrr => "rrr",
            CcAlgorithm::Fixed { .. } => "fixed",
        }
    }

    /// Parses a [`Self::name`] back into its entry of [`Self::ALL`].
    /// Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.name() == name)
    }

    /// All adaptive algorithms, in stable order. The experiment matrix
    /// and the alloc smoke iterate this.
    pub fn all_adaptive() -> [Self; 4] {
        [
            CcAlgorithm::Lda,
            CcAlgorithm::Cubic,
            CcAlgorithm::BbrLike,
            CcAlgorithm::Rrr,
        ]
    }
}

/// `w` held to the `[MIN_CWND, MAX_CWND]` bounds every controller shares.
fn clamp(w: f64) -> f64 {
    w.clamp(MIN_CWND, MAX_CWND)
}

/// The controller a connection runs. Its window state is private: a
/// connection reaches it only through the hooks below, which the sender
/// calls as follows (DESIGN.md §14 has their order):
///
/// - [`on_ack`](Self::on_ack) once per ACK segment that newly
///   acknowledged data (ack-clocked controllers grow here);
/// - [`on_loss`](Self::on_loss) at most once per ACK that pushed some
///   segment past the dup threshold — one *loss event*, not one call per
///   lost segment;
/// - [`on_timeout`](Self::on_timeout) per RTO-expired segment;
/// - [`on_period`](Self::on_period) at each measuring-period boundary
///   with the fresh [`NetCond`] snapshot;
/// - [`scale`](Self::scale), the coordinator's §3.4 re-adjustment.
///
/// Every hook returns the resulting window, so callers report changes
/// without re-querying.
#[derive(Debug, Clone, PartialEq)]
pub struct CcController(Window);

#[derive(Debug, Clone, PartialEq)]
enum Window {
    Lda(f64),
    Cubic(Cubic),
    BbrLike(Bbr),
    Rrr(f64),
    Fixed(f64),
}

impl CcController {
    /// Instantiates the controller `algorithm` selects.
    pub fn new(algorithm: &CcAlgorithm) -> Self {
        Self(match *algorithm {
            CcAlgorithm::Lda => Window::Lda(INITIAL_CWND),
            CcAlgorithm::Cubic => Window::Cubic(Cubic {
                cwnd: INITIAL_CWND,
                w_max: INITIAL_CWND,
                ssthresh: f64::INFINITY,
                k: 0.0,
                epoch_start: None,
            }),
            CcAlgorithm::BbrLike => Window::BbrLike(Bbr {
                cwnd: INITIAL_CWND,
                rates: [0.0; BBR_WINDOW],
                rtts: [0.0; BBR_WINDOW],
                pos: 0,
            }),
            CcAlgorithm::Rrr => Window::Rrr(INITIAL_CWND),
            CcAlgorithm::Fixed { cwnd } => Window::Fixed(cwnd),
        })
    }

    /// Stable name of the running algorithm (matches
    /// [`CcAlgorithm::name`]).
    pub fn name(&self) -> &'static str {
        match self.0 {
            Window::Lda(_) => "lda",
            Window::Cubic(_) => "cubic",
            Window::BbrLike(_) => "bbr",
            Window::Rrr(_) => "rrr",
            Window::Fixed(_) => "fixed",
        }
    }

    /// Current window in (fractional) segments.
    pub fn cwnd(&self) -> f64 {
        match self.0 {
            Window::Lda(cwnd)
            | Window::Rrr(cwnd)
            | Window::Fixed(cwnd)
            | Window::Cubic(Cubic { cwnd, .. })
            | Window::BbrLike(Bbr { cwnd, .. }) => cwnd,
        }
    }

    /// Window rounded to the nearest whole segment, at least one.
    ///
    /// Truncation would make a window of 1.999 behave as 1 segment,
    /// stalling recovery near the floor: each additive increase has to
    /// accumulate a full segment before any of it takes effect.
    pub fn cwnd_segments(&self) -> u32 {
        (self.cwnd().round() as u32).max(1)
    }

    /// An ACK segment newly acknowledged `acked_segments` segments. Only
    /// CUBIC is ACK-clocked.
    pub fn on_ack(&mut self, now: Time, acked_segments: u32) -> f64 {
        if let Window::Cubic(c) = &mut self.0 {
            c.on_ack(now, acked_segments);
        }
        self.cwnd()
    }

    /// A loss event: at least one segment crossed the duplicate-ACK
    /// threshold in one incoming ACK. Only CUBIC reacts; the
    /// period-driven controllers see the loss in the next period's
    /// ratio, and the BBR-like rate filter already reflects what was
    /// actually delivered.
    pub fn on_loss(&mut self) -> f64 {
        if let Window::Cubic(c) = &mut self.0 {
            c.congestion_event(CUBIC_BETA);
        }
        self.cwnd()
    }

    /// A measuring period closed with snapshot `cond`.
    pub fn on_period(&mut self, cond: &NetCond) -> f64 {
        match &mut self.0 {
            // Additive increase on a clean period; multiplicative,
            // loss-proportional decrease otherwise.
            Window::Lda(cwnd) => {
                *cwnd = clamp(if cond.eratio <= 0.0 {
                    *cwnd + INCR_PER_PERIOD
                } else {
                    *cwnd * (1.0 - LDA_BETA * cond.eratio.sqrt()).max(0.5)
                });
            }
            Window::BbrLike(b) => b.on_period(cond),
            // Probe at or below the acceptable congestion level; above
            // it, reduce relative to it.
            Window::Rrr(cwnd) => {
                *cwnd = clamp(if cond.eratio <= RRR_TARGET_LOSS {
                    *cwnd + INCR_PER_PERIOD
                } else {
                    *cwnd * rrr_reduction_factor(cond.eratio)
                });
            }
            Window::Cubic(_) | Window::Fixed(_) => {}
        }
        self.cwnd()
    }

    /// A retransmission timeout fired: every adaptive controller halves
    /// (for the BBR-like model an RTO means it badly overestimated; fresh
    /// samples rebuild it).
    pub fn on_timeout(&mut self) -> f64 {
        match &mut self.0 {
            Window::Lda(cwnd) | Window::Rrr(cwnd) | Window::BbrLike(Bbr { cwnd, .. }) => {
                *cwnd = clamp(*cwnd * 0.5);
            }
            Window::Cubic(c) => c.congestion_event(0.5),
            Window::Fixed(_) => {}
        }
        self.cwnd()
    }

    /// Coordination re-adjustment: multiplies the window by `factor`,
    /// clamped to `[MIN_CWND, MAX_CWND]`. Degenerate factors (non-finite
    /// or ≤ 0) are ignored. Used by IQ-RUDP when the application reports
    /// an adaptation that changes its traffic pattern (§3.4).
    ///
    /// For the BBR-like model the multiply is transient by design: the
    /// next period re-derives the window from the filters, and the
    /// multiply bridges the gap until that snapshot.
    pub fn scale(&mut self, factor: f64) -> f64 {
        if factor.is_finite() && factor > 0.0 {
            let cwnd = match &mut self.0 {
                Window::Cubic(c) => {
                    // Scale the saturation point with the window so the
                    // re-inflation survives the next epoch instead of
                    // being undone by convergence back to the stale W_max.
                    c.w_max *= factor;
                    if c.ssthresh.is_finite() {
                        c.ssthresh *= factor;
                    }
                    c.epoch_start = None;
                    &mut c.cwnd
                }
                Window::Lda(cwnd)
                | Window::Rrr(cwnd)
                | Window::Fixed(cwnd)
                | Window::BbrLike(Bbr { cwnd, .. }) => cwnd,
            };
            *cwnd = clamp(*cwnd * factor);
        }
        self.cwnd()
    }

    /// Folds the controller state into a model-checker digest; times are
    /// hashed relative to `now` (DESIGN.md §13). The one-window
    /// controllers write exactly one `f64`: the pinned explored-state
    /// counts depend on it.
    pub fn digest(&self, now: Time, h: &mut iq_telemetry::StateHasher) {
        match &self.0 {
            Window::Lda(cwnd) | Window::Rrr(cwnd) | Window::Fixed(cwnd) => h.write_f64(*cwnd),
            Window::Cubic(c) => {
                h.write_f64(c.cwnd);
                h.write_f64(c.w_max);
                h.write_f64(c.ssthresh);
                h.write_f64(c.k);
                h.write_u64(match c.epoch_start {
                    Some(start) => now.saturating_sub(start),
                    None => u64::MAX,
                });
            }
            Window::BbrLike(b) => {
                h.write_f64(b.cwnd);
                for (&r, &t) in b.rates.iter().zip(b.rtts.iter()) {
                    h.write_f64(r);
                    h.write_f64(t);
                }
                h.write_u64(u64::from(b.pos));
            }
        }
    }
}

/// RRR's reduction factor for a period with `loss_ratio` above the
/// target: `1 − γ·(loss − target)/(1 − target)`, floored at one half. At
/// the target the factor is 1 (no reduction); at total loss it is
/// `1 − γ` (or the floor).
fn rrr_reduction_factor(loss_ratio: f64) -> f64 {
    let excess = (loss_ratio - RRR_TARGET_LOSS) / (1.0 - RRR_TARGET_LOSS);
    (1.0 - RRR_GAMMA * excess).max(0.5)
}

// -------------------------------------------------------------- CUBIC

#[derive(Debug, Clone, PartialEq)]
struct Cubic {
    cwnd: f64,
    /// Window at the last congestion event — the saturation point the
    /// cubic curve converges back to.
    w_max: f64,
    /// Slow-start threshold; `INFINITY` until the first loss.
    ssthresh: f64,
    /// Time offset `K` (seconds) at which `W(t)` reaches `w_max`.
    k: f64,
    /// Start of the current congestion-avoidance epoch; `None` after a
    /// congestion event until the next ACK re-anchors the curve.
    epoch_start: Option<Time>,
}

impl Cubic {
    /// The cubic window function `W(t) = C·(t − K)³ + W_max`, with `t`
    /// in seconds since the epoch start.
    fn w_cubic(&self, t: f64) -> f64 {
        let d = t - self.k;
        CUBIC_C * d * d * d + self.w_max
    }

    /// Registers a congestion event with multiplicative decrease
    /// `factor`, recomputing `K` and closing the epoch.
    fn congestion_event(&mut self, factor: f64) {
        self.w_max = self.cwnd;
        self.cwnd = clamp(self.cwnd * factor);
        self.ssthresh = self.cwnd;
        // K = cbrt(W_max·(1 − factor)/C): time for the curve to climb
        // from the reduced window back to W_max.
        self.k = (self.w_max * (1.0 - factor) / CUBIC_C).cbrt();
        self.epoch_start = None;
    }

    fn on_ack(&mut self, now: Time, acked_segments: u32) {
        if acked_segments == 0 {
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: one segment per acked segment.
            self.cwnd = clamp(self.cwnd + f64::from(acked_segments));
            return;
        }
        let start = *self.epoch_start.get_or_insert(now);
        let t = (now - start) as f64 / 1e9;
        let target = self.w_cubic(t);
        if target > self.cwnd {
            // Converge toward the curve at most one segment per cwnd of
            // ACKs (the RFC's cwnd += (target − cwnd)/cwnd per ACK).
            let step = (target - self.cwnd) / self.cwnd.max(1.0);
            self.cwnd = clamp(self.cwnd + step * f64::from(acked_segments));
        }
        // At or above the curve (e.g. just re-inflated by the
        // coordinator): hold and let the curve catch up.
    }
}

// ----------------------------------------------------------- BBR-like

#[derive(Debug, Clone, PartialEq)]
struct Bbr {
    cwnd: f64,
    /// Delivery-rate samples (KB/s), ring-buffered; 0 = empty slot.
    rates: [f64; BBR_WINDOW],
    /// RTT samples (ms), ring-buffered; 0 = empty slot.
    rtts: [f64; BBR_WINDOW],
    pos: u8,
}

impl Bbr {
    /// The BDP estimate in segments: windowed-max delivery rate ×
    /// windowed-min RTT over the MSS. `None` until both filters have a
    /// sample.
    fn bdp_segments(&self) -> Option<f64> {
        let max_rate = self.rates.iter().copied().fold(0.0_f64, f64::max);
        let min_rtt = self
            .rtts
            .iter()
            .copied()
            .filter(|&r| r > 0.0)
            .fold(f64::INFINITY, f64::min);
        if max_rate <= 0.0 || !min_rtt.is_finite() {
            return None;
        }
        // rate is KB/s and RTT is ms, so rate·rtt is bytes in flight.
        Some(max_rate * min_rtt / f64::from(MSS))
    }

    /// Feeds the period's delivery rate and RTT into the filters and
    /// re-derives the window from the model.
    fn on_period(&mut self, cond: &NetCond) {
        if cond.rate_kbps > 0.0 || cond.srtt_ms > 0.0 {
            self.rates[usize::from(self.pos)] = cond.rate_kbps;
            self.rtts[usize::from(self.pos)] = cond.srtt_ms;
            self.pos = (self.pos + 1) % BBR_WINDOW as u8;
        }
        self.cwnd = clamp(match self.bdp_segments() {
            Some(bdp) => BBR_GAIN * bdp,
            // Startup: grow multiplicatively until the model has data.
            None => self.cwnd * BBR_STARTUP_GAIN,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss(eratio: f64) -> NetCond {
        NetCond {
            eratio,
            ..NetCond::default()
        }
    }

    fn win(algorithm: CcAlgorithm) -> CcController {
        CcController::new(&algorithm)
    }

    fn cubic(w: &mut CcController) -> &mut Cubic {
        match &mut w.0 {
            Window::Cubic(c) => c,
            _ => unreachable!("a CUBIC controller"),
        }
    }

    fn bdp(w: &CcController) -> Option<f64> {
        match &w.0 {
            Window::BbrLike(b) => b.bdp_segments(),
            _ => unreachable!("a BBR-like controller"),
        }
    }

    #[test]
    fn additive_increase_when_clean() {
        let mut w = win(CcAlgorithm::Lda);
        w.on_period(&loss(0.0));
        w.on_period(&loss(0.0));
        assert_eq!(w.cwnd(), INITIAL_CWND + 2.0 * INCR_PER_PERIOD);
    }

    #[test]
    fn loss_proportional_decrease() {
        let mut w = win(CcAlgorithm::Lda);
        w.scale(50.0); // get to 100
        let before = w.cwnd();
        w.on_period(&loss(0.01)); // 1 − 2·√0.01 = 0.8
        assert!((w.cwnd() - before * 0.8).abs() < 1e-9);
        // Heavy loss floors at one half.
        let before = w.cwnd();
        w.on_period(&loss(0.9));
        assert!((w.cwnd() - before * 0.5).abs() < 1e-9);
    }

    #[test]
    fn timeout_halves() {
        let mut w = win(CcAlgorithm::Lda);
        w.scale(8.0); // 16
        w.on_timeout();
        assert_eq!(w.cwnd(), 8.0);
    }

    #[test]
    fn clamped_to_bounds() {
        let mut w = win(CcAlgorithm::Lda);
        for _ in 0..2000 {
            w.on_period(&loss(0.0));
        }
        assert_eq!(w.cwnd(), MAX_CWND);
        for _ in 0..100 {
            w.on_timeout();
        }
        assert_eq!(w.cwnd(), MIN_CWND);
        assert_eq!(w.cwnd_segments(), 1);
    }

    #[test]
    fn fixed_window_is_pinned() {
        let mut w = win(CcAlgorithm::Fixed { cwnd: 40.0 });
        w.on_period(&loss(0.5));
        w.on_timeout();
        w.on_ack(0, 3);
        w.on_loss();
        assert_eq!(w.cwnd(), 40.0);
        // Coordination scaling still applies to a pinned window.
        w.scale(0.5);
        assert_eq!(w.cwnd(), 20.0);
    }

    #[test]
    fn cwnd_segments_rounds_to_nearest() {
        let mut w = win(CcAlgorithm::Lda);
        w.scale(1.999 / w.cwnd());
        assert!((w.cwnd() - 1.999).abs() < 1e-12);
        // 1.999 must behave as 2 segments, not truncate to 1.
        assert_eq!(w.cwnd_segments(), 2);
        w.scale(1.4 / w.cwnd());
        assert_eq!(w.cwnd_segments(), 1);
        w.scale(2.5 / w.cwnd());
        assert_eq!(w.cwnd_segments(), 3); // round half away from zero
    }

    #[test]
    fn scale_ignores_degenerate_factors() {
        for alg in CcAlgorithm::all_adaptive() {
            let mut w = win(alg);
            let before = w.cwnd();
            w.scale(0.0);
            w.scale(-1.0);
            w.scale(f64::NAN);
            w.scale(f64::INFINITY);
            assert_eq!(w.cwnd(), before, "{}", w.name());
        }
    }

    #[test]
    fn every_controller_scale_is_multiply_then_clamp() {
        // The §3.4 contract the model checker relies on, for all five.
        for name in ["lda", "cubic", "bbr", "rrr", "fixed"] {
            let mut w = win(CcAlgorithm::from_name(name).unwrap());
            let before = w.cwnd();
            let after = w.scale(3.0);
            assert_eq!(after, (before * 3.0).clamp(MIN_CWND, MAX_CWND), "{name}");
            let before = w.cwnd();
            let after = w.scale(1e9);
            assert_eq!(after, (before * 1e9).clamp(MIN_CWND, MAX_CWND), "{name}");
        }
    }

    #[test]
    fn algorithm_names_round_trip() {
        for alg in CcAlgorithm::ALL {
            assert_eq!(CcAlgorithm::from_name(alg.name()), Some(alg));
        }
        assert_eq!(
            CcAlgorithm::from_name("fixed"),
            Some(CcAlgorithm::Fixed { cwnd: 64.0 })
        );
        assert_eq!(CcAlgorithm::from_name("reno"), None);
    }

    // ------------------------------------------------------- CUBIC

    #[test]
    fn cubic_window_function_matches_rfc_form() {
        let mut w = win(CcAlgorithm::Cubic);
        w.scale(50.0); // 100
        let c = cubic(&mut w);
        c.ssthresh = 0.0; // force congestion avoidance
        w.on_loss();
        // After a loss at w = 100: w_max = 100, cwnd = 70,
        // K = cbrt(100·0.3/0.4) = cbrt(75).
        assert!((w.cwnd() - 70.0).abs() < 1e-9);
        let c = cubic(&mut w);
        let k = (100.0 * 0.3 / 0.4_f64).cbrt();
        assert!((c.k - k).abs() < 1e-12);
        // W(K) = w_max exactly; W(0) = cwnd after the decrease.
        assert!((c.w_cubic(k) - 100.0).abs() < 1e-9);
        assert!((c.w_cubic(0.0) - 70.0).abs() < 1e-6);
        // Convex growth past K.
        assert!(c.w_cubic(k + 1.0) > 100.0);
        assert!(c.w_cubic(k + 2.0) - c.w_cubic(k + 1.0) > c.w_cubic(k + 1.0) - c.w_cubic(k));
    }

    #[test]
    fn cubic_slow_starts_then_converges_to_w_max() {
        let mut w = win(CcAlgorithm::Cubic);
        // Slow start: each acked segment adds one.
        w.on_ack(0, 2);
        assert_eq!(w.cwnd(), 4.0);
        w.on_loss();
        let reduced = w.cwnd();
        assert!((reduced - 4.0 * 0.7).abs() < 1e-9);
        // ACKs over the following seconds climb back toward w_max = 4
        // and then past it (convex region).
        let mut now = 0u64;
        for _ in 0..200 {
            now += 100_000_000; // 100 ms
            w.on_ack(now, 1);
        }
        assert!(w.cwnd() > 4.0, "cwnd {} should pass w_max", w.cwnd());
    }

    #[test]
    fn cubic_holds_above_curve_after_reinflation() {
        let mut w = win(CcAlgorithm::Cubic);
        w.on_ack(0, 8); // slow start to 10
        w.on_loss(); // w_max = 10, cwnd = 7
        let before = w.cwnd();
        w.scale(4.0); // coordinator re-inflates to 28
        assert_eq!(w.cwnd(), before * 4.0);
        // The very next ACK must not crash the window back to the old
        // curve: w_max scaled with it.
        w.on_ack(1_000_000, 1);
        assert!(w.cwnd() >= before * 4.0 - 1e-9);
    }

    // ---------------------------------------------------- BBR-like

    #[test]
    fn bbr_pins_window_to_gain_times_bdp() {
        let mut w = win(CcAlgorithm::BbrLike);
        // 1400 KB/s × 20 ms = 28 000 bytes in flight = 20 segments of
        // 1400 B; gain 2 → cwnd 40.
        let cond = NetCond {
            rate_kbps: 1400.0,
            srtt_ms: 20.0,
            ..NetCond::default()
        };
        w.on_period(&cond);
        assert_eq!(bdp(&w), Some(20.0));
        assert_eq!(w.cwnd(), 40.0);
        // Max-rate filter: a slower period does not shrink the estimate
        // while the fast sample is in the window.
        let slow = NetCond {
            rate_kbps: 700.0,
            srtt_ms: 20.0,
            ..NetCond::default()
        };
        w.on_period(&slow);
        assert_eq!(w.cwnd(), 40.0);
    }

    #[test]
    fn bbr_startup_grows_until_model_has_data() {
        let mut w = win(CcAlgorithm::BbrLike);
        let idle = NetCond::default(); // no rate, no rtt yet
        w.on_period(&idle);
        assert_eq!(w.cwnd(), 4.0); // 2 × startup gain
        w.on_period(&idle);
        assert_eq!(w.cwnd(), 8.0);
    }

    #[test]
    fn bbr_max_rate_sample_eventually_ages_out() {
        let mut w = win(CcAlgorithm::BbrLike);
        let fast = NetCond {
            rate_kbps: 1400.0,
            srtt_ms: 20.0,
            ..NetCond::default()
        };
        w.on_period(&fast);
        let slow = NetCond {
            rate_kbps: 700.0,
            srtt_ms: 20.0,
            ..NetCond::default()
        };
        for _ in 0..BBR_WINDOW {
            w.on_period(&slow);
        }
        // The fast sample fell out of the 8-period window.
        assert_eq!(bdp(&w), Some(10.0));
        assert_eq!(w.cwnd(), 20.0);
    }

    // --------------------------------------------------------- RRR

    #[test]
    fn rrr_probes_at_or_below_target() {
        let mut w = win(CcAlgorithm::Rrr);
        w.on_period(&loss(0.0));
        w.on_period(&loss(RRR_TARGET_LOSS)); // exactly at the target level
        assert_eq!(w.cwnd(), INITIAL_CWND + 2.0);
    }

    #[test]
    fn rrr_reduction_is_relative_to_target() {
        // loss 0.24: excess = (0.24 − 0.05)/0.95 = 0.2 → factor 0.8.
        assert!((rrr_reduction_factor(0.24) - 0.8).abs() < 1e-9);
        // Total loss floors at one half.
        assert_eq!(rrr_reduction_factor(1.0), 0.5);
        let mut w = win(CcAlgorithm::Rrr);
        w.scale(50.0); // 100
        w.on_period(&loss(0.24));
        assert!((w.cwnd() - 80.0).abs() < 1e-6);
    }

    #[test]
    fn rrr_timeout_halves() {
        let mut w = win(CcAlgorithm::Rrr);
        w.scale(8.0); // 16
        w.on_timeout();
        assert_eq!(w.cwnd(), 8.0);
    }

    #[test]
    fn controller_digests_differ_by_state_not_clock() {
        // CUBIC's epoch is hashed relative to `now`: the same state
        // reached at different absolute times digests identically.
        let mut a = win(CcAlgorithm::Cubic);
        let mut b = win(CcAlgorithm::Cubic);
        a.on_loss();
        a.on_ack(1_000_000, 1);
        b.on_loss();
        b.on_ack(5_000_000, 1);
        let digest_at = |w: &CcController, now: Time| {
            let mut h = iq_telemetry::StateHasher::new();
            w.digest(now, &mut h);
            h.finish()
        };
        // Same epoch age → same digest, even at different clocks.
        assert_eq!(digest_at(&a, 2_000_000), digest_at(&b, 6_000_000));
        // Different epoch age → different digest.
        assert_ne!(digest_at(&a, 2_000_000), digest_at(&a, 9_000_000));
    }

    /// One fixed script of periods, ACKs, losses, timeouts and
    /// coordinator rescales, run through every controller. Each returned
    /// window (bits and whole segments) and, every 32 steps, the state
    /// digest fold into one FNV-1a word per controller, so a refactor
    /// that moves any controller's trajectory by one bit fails here.
    #[test]
    fn every_controller_keeps_its_trajectory() {
        const EXPECT: [(&str, u64); 5] = [
            ("lda", 0x95ae_a0ed_cdd3_dba7),
            ("cubic", 0xa237_95aa_cbe5_a6f6),
            ("bbr", 0x4a4c_6fa0_23cb_aa8b),
            ("rrr", 0xdcb1_2f76_ed3b_ff1e),
            ("fixed", 0x7a93_976c_8e31_7d2e),
        ];
        const ERATIOS: [f64; 8] = [0.0, 0.0, 0.0, 0.0, 0.01, 0.05, 0.2, 1.1];
        const FACTORS: [f64; 4] = [1.25, 0.8, f64::NAN, 0.0];
        for (name, expect) in EXPECT {
            let mut w = win(CcAlgorithm::from_name(name).unwrap());
            let mut h = iq_telemetry::Fnv64::new();
            let mut rng = 0x2545_f491_4f6c_dd1d_u64;
            let mut now: Time = 0;
            for step in 1..=512u32 {
                now += 7_000_000;
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let arg = (rng >> 8) as usize;
                let cwnd = match rng % 64 {
                    0..=23 => w.on_ack(now, 1 + (arg % 3) as u32),
                    24..=43 => {
                        let cond = NetCond {
                            eratio: ERATIOS[arg % 8],
                            rate_kbps: 200.0 + ((arg >> 8) % 1800) as f64,
                            srtt_ms: 5.0 + ((arg >> 20) % 80) as f64,
                            ..NetCond::default()
                        };
                        w.on_period(&cond)
                    }
                    44 => w.on_loss(),
                    45 => w.on_timeout(),
                    _ => w.scale(FACTORS[arg % 4]),
                };
                h.write_f64(cwnd);
                h.write_u64(u64::from(w.cwnd_segments()));
                if step % 32 == 0 {
                    let mut d = iq_telemetry::StateHasher::new();
                    w.digest(now, &mut d);
                    h.write_u64(d.finish());
                }
            }
            assert_eq!(h.finish(), expect, "{name}: {:#018x}", h.finish());
        }
    }
}
