//! Pluggable congestion control.
//!
//! The transport's congestion-control seam is the [`CongestionControl`]
//! trait: period / ACK / loss / timeout / ECN hooks, a cwnd query, and
//! the coordinator's [`scale`](CongestionControl::scale) re-adjustment
//! (IQ-RUDP §3.4 window re-inflation). Which controller a connection
//! runs is a typed [`CcAlgorithm`] value in [`CcConfig`]; the sender
//! stores the chosen controller *inline* as a [`CcController`] enum so
//! the per-ACK hot path stays allocation- and vtable-free.
//!
//! Controllers:
//!
//! - [`LdaWindow`] — the paper's loss-proportional window, a window-based
//!   analogue of the Loss-Delay Adjustment algorithm (Sisalem &
//!   Schulzrinne) IQ-RUDP says it resembles (§2). Additive increase per
//!   loss-free measuring period; `w ← w · max(0.5, 1 − β·√loss)` on
//!   lossy periods; timeouts halve. Smoother than TCP's halving — the
//!   "smoother changes of congestion window" of §3.2.
//! - [`CubicWindow`] — RFC 8312-style CUBIC: after a loss event the
//!   window follows `W(t) = C·(t − K)³ + W_max` in time since the event,
//!   giving the concave/convex probe around the last known saturation
//!   point; a plain slow-start phase handles the initial ramp.
//! - [`BbrWindow`] — a simplified BBR-like model: windowed-max delivery
//!   rate × windowed-min RTT (both sampled at measuring-period
//!   boundaries from [`NetCond`]) estimate the bandwidth-delay product,
//!   and the window is pinned to `gain × BDP`.
//! - [`RrrWindow`] — an interpretation of "Relative Rate Reduction Based
//!   Control with Adjustable Congestion Level" (PAPERS.md): the operator
//!   picks a target congestion level (acceptable loss ratio); periods at
//!   or below the target probe additively, periods above it reduce the
//!   window proportionally to the loss excess *relative* to the target.
//! - [`FixedWindow`] — no adaptation; reproduces the paper's
//!   "application adaptation only" rows (Table 1, row 3). Coordination
//!   `scale` still applies, matching the old `enabled: false` behavior.
//!
//! Every controller's `scale` is multiply-then-clamp against the shared
//! `[min_cwnd, max_cwnd]` bounds — that uniform contract is what the
//! model checker's re-inflation invariant (DESIGN.md §13) checks for
//! all of them.
//!
//! A window holds *state* only. Its tunables and the bounds are the same
//! for every connection of a class, so they stay in the [`CcConfig`] the
//! connection already shares by `Arc`, and every hook that needs them
//! takes that config: a fleet pays for them once per class, not once per
//! flow.

use iq_netsim::{Time, TimeDelta};

use crate::meter::NetCond;

/// Congestion-control configuration: the algorithm plus the window
/// bounds every controller shares.
///
/// The bounds stay outside [`CcAlgorithm`] because the coordinator's
/// re-inflation contract (and the model checker's invariant) is defined
/// in terms of them regardless of controller.
#[derive(Debug, Clone, PartialEq)]
pub struct CcConfig {
    /// Which controller to run.
    pub algorithm: CcAlgorithm,
    /// Initial window, segments (adaptive controllers).
    pub initial_cwnd: f64,
    /// Window floor.
    pub min_cwnd: f64,
    /// Window ceiling.
    pub max_cwnd: f64,
}

impl Default for CcConfig {
    fn default() -> Self {
        Self {
            algorithm: CcAlgorithm::default(),
            initial_cwnd: 2.0,
            min_cwnd: 1.0,
            max_cwnd: 1024.0,
        }
    }
}

/// Typed selection of a congestion controller, with its tunables.
#[derive(Debug, Clone, PartialEq)]
pub enum CcAlgorithm {
    /// The paper's loss-proportional LDA window (the default).
    Lda(LdaParams),
    /// RFC 8312-style CUBIC.
    Cubic(CubicParams),
    /// Simplified delivery-rate × min-RTT model.
    BbrLike(BbrParams),
    /// Relative-rate-reduction with an adjustable congestion level.
    Rrr(RrrParams),
    /// No adaptation: the window stays pinned (coordination `scale`
    /// still applies). The paper's "application adaptation only" mode.
    Fixed {
        /// The pinned window, segments.
        cwnd: f64,
    },
}

impl Default for CcAlgorithm {
    fn default() -> Self {
        CcAlgorithm::Lda(LdaParams::default())
    }
}

impl CcAlgorithm {
    /// Stable lower-case name, used in CLI flags, scenario labels, and
    /// telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            CcAlgorithm::Lda(_) => "lda",
            CcAlgorithm::Cubic(_) => "cubic",
            CcAlgorithm::BbrLike(_) => "bbr",
            CcAlgorithm::Rrr(_) => "rrr",
            CcAlgorithm::Fixed { .. } => "fixed",
        }
    }

    /// Parses a [`Self::name`] back into an algorithm with default
    /// parameters (`fixed` uses the default [`CcConfig`]'s 64-segment
    /// pin). Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "lda" => Some(CcAlgorithm::Lda(LdaParams::default())),
            "cubic" => Some(CcAlgorithm::Cubic(CubicParams::default())),
            "bbr" => Some(CcAlgorithm::BbrLike(BbrParams::default())),
            "rrr" => Some(CcAlgorithm::Rrr(RrrParams::default())),
            "fixed" => Some(CcAlgorithm::Fixed { cwnd: 64.0 }),
            _ => None,
        }
    }

    /// All adaptive algorithms with default parameters, in stable order.
    /// The experiment matrix and the alloc smoke iterate this.
    pub fn all_adaptive() -> [Self; 4] {
        [
            CcAlgorithm::Lda(LdaParams::default()),
            CcAlgorithm::Cubic(CubicParams::default()),
            CcAlgorithm::BbrLike(BbrParams::default()),
            CcAlgorithm::Rrr(RrrParams::default()),
        ]
    }
}

/// Tunables for [`LdaWindow`].
#[derive(Debug, Clone, PartialEq)]
pub struct LdaParams {
    /// Additive increase per loss-free period, segments.
    pub incr_per_period: f64,
    /// Multiplier on the square root of the loss ratio for the decrease
    /// factor.
    pub beta: f64,
}

impl Default for LdaParams {
    fn default() -> Self {
        Self {
            incr_per_period: 1.0,
            beta: 2.0,
        }
    }
}

/// Tunables for [`CubicWindow`].
#[derive(Debug, Clone, PartialEq)]
pub struct CubicParams {
    /// The cubic coefficient `C`, segments/s³ (RFC 8312 default 0.4).
    pub c: f64,
    /// Multiplicative decrease on a loss event (RFC 8312 default 0.7).
    pub beta: f64,
}

impl Default for CubicParams {
    fn default() -> Self {
        Self { c: 0.4, beta: 0.7 }
    }
}

/// Tunables for [`BbrWindow`].
#[derive(Debug, Clone, PartialEq)]
pub struct BbrParams {
    /// Window gain over the estimated BDP (headroom for ACK clocking).
    pub gain: f64,
    /// Multiplicative growth per period while no BDP estimate exists
    /// yet (the startup phase).
    pub startup_gain: f64,
    /// Segment size used to convert the BDP estimate to segments.
    pub mss: u32,
}

impl Default for BbrParams {
    fn default() -> Self {
        Self {
            gain: 2.0,
            startup_gain: 2.0,
            mss: crate::segment::DEFAULT_MSS,
        }
    }
}

/// Tunables for [`RrrWindow`].
#[derive(Debug, Clone, PartialEq)]
pub struct RrrParams {
    /// The adjustable congestion level: the loss ratio the controller
    /// is willing to operate at.
    pub target_loss: f64,
    /// Gain on the relative loss excess for the reduction factor.
    pub gamma: f64,
    /// Additive increase per period at or below the target, segments.
    pub incr_per_period: f64,
}

impl Default for RrrParams {
    fn default() -> Self {
        Self {
            target_loss: 0.05,
            gamma: 1.0,
            incr_per_period: 1.0,
        }
    }
}

/// The congestion-control seam between the transport and a window
/// algorithm.
///
/// Hook contract (see DESIGN.md §14 for ordering relative to the
/// coordinator):
///
/// - [`on_ack`](Self::on_ack) fires once per processed ACK segment that
///   newly acknowledged data (ack-clocked controllers grow here).
/// - [`on_loss`](Self::on_loss) fires at most once per ACK that crossed
///   the dup-threshold for some segment — one *loss event*, not one
///   call per lost segment.
/// - [`on_period`](Self::on_period) fires at each measuring-period
///   boundary with the fresh [`NetCond`] snapshot (period-driven
///   controllers adjust here).
/// - [`on_timeout`](Self::on_timeout) fires per RTO-expired segment.
/// - [`on_ecn`](Self::on_ecn) is reserved for ECN marks; the default
///   treats a mark as a loss event, which is what ECN semantically is
///   to a loss-based controller. No transport path emits it yet.
/// - [`scale`](Self::scale) is the coordinator's re-adjustment (§3.4);
///   every implementation MUST be multiply-then-clamp so the model
///   checker's re-inflation invariant holds for any controller.
///
/// Every mutating hook returns the resulting window so callers can
/// report changes without re-querying, and takes the [`CcConfig`] the
/// controller was built from — tunables and bounds are read from it,
/// not copied into each window. Driving a window with another
/// algorithm's config is a caller bug and panics.
pub trait CongestionControl {
    /// Current window in (fractional) segments.
    fn cwnd(&self) -> f64;

    /// Window rounded to the nearest whole segment, at least one.
    ///
    /// Truncation would make a window of 1.999 behave as 1 segment,
    /// stalling recovery near the floor: each additive increase has to
    /// accumulate a full segment before any of it takes effect.
    fn cwnd_segments(&self) -> u32 {
        (self.cwnd().round() as u32).max(1)
    }

    /// An ACK segment newly acknowledged `acked_segments` segments;
    /// `srtt` is the current smoothed RTT if one exists.
    fn on_ack(
        &mut self,
        cfg: &CcConfig,
        now: Time,
        acked_segments: u32,
        srtt: Option<TimeDelta>,
    ) -> f64 {
        let _ = (cfg, now, acked_segments, srtt);
        self.cwnd()
    }

    /// A loss event: at least one segment crossed the duplicate-ACK
    /// threshold in one incoming ACK.
    fn on_loss(&mut self, cfg: &CcConfig, now: Time) -> f64 {
        let _ = (cfg, now);
        self.cwnd()
    }

    /// A measuring period closed with snapshot `cond`.
    fn on_period(&mut self, cfg: &CcConfig, now: Time, cond: &NetCond) -> f64 {
        let _ = (cfg, now, cond);
        self.cwnd()
    }

    /// A retransmission timeout fired.
    fn on_timeout(&mut self, cfg: &CcConfig, now: Time) -> f64;

    /// An ECN congestion mark arrived (no transport path emits this
    /// yet; the hook keeps the seam ECN-ready).
    fn on_ecn(&mut self, cfg: &CcConfig, now: Time) -> f64 {
        self.on_loss(cfg, now)
    }

    /// Coordination re-adjustment: multiplies the window by `factor`,
    /// clamped to the configured bounds. Degenerate factors (non-finite
    /// or ≤ 0) are ignored. Used by IQ-RUDP when the application
    /// reports an adaptation that changes its traffic pattern (§3.4).
    fn scale(&mut self, cfg: &CcConfig, factor: f64) -> f64;

    /// Folds the controller state into a model-checker digest; times
    /// must be hashed relative to `now` (DESIGN.md §13).
    fn digest(&self, now: Time, h: &mut iq_telemetry::StateHasher);
}

impl CcConfig {
    /// `w` held to the `[min_cwnd, max_cwnd]` bounds every controller
    /// shares.
    fn clamp(&self, w: f64) -> f64 {
        w.clamp(self.min_cwnd, self.max_cwnd)
    }
}

/// Multiply-then-clamp shared by every controller's `scale`: the §3.4
/// re-inflation contract the model checker pins.
fn scale_cwnd(cwnd: &mut f64, factor: f64, cfg: &CcConfig) -> f64 {
    if factor.is_finite() && factor > 0.0 {
        *cwnd = cfg.clamp(*cwnd * factor);
    }
    *cwnd
}

/// The `$variant` tunables out of a connection's config. A window only
/// ever meets the config it was built from — `SenderConn` holds both —
/// so another algorithm's is a bug in the caller.
macro_rules! params {
    ($cfg:expr, $variant:ident) => {
        match &$cfg.algorithm {
            CcAlgorithm::$variant(p) => p,
            other => wrong_config(stringify!($variant), other),
        }
    };
}

#[cold]
#[inline(never)]
fn wrong_config(window: &str, got: &CcAlgorithm) -> ! {
    panic!(
        "a {window} window was driven with the `{}` algorithm's config",
        got.name()
    )
}

// ---------------------------------------------------------------- LDA

/// The paper's loss-proportional congestion window (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct LdaWindow {
    cwnd: f64,
}

impl LdaWindow {
    /// Creates a window at the config's initial size.
    pub fn new(cfg: &CcConfig) -> Self {
        Self {
            cwnd: cfg.initial_cwnd,
        }
    }
}

impl CongestionControl for LdaWindow {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Additive increase on a clean period; multiplicative,
    /// loss-proportional decrease (`max(0.5, 1 − β·√loss)`) otherwise.
    fn on_period(&mut self, cfg: &CcConfig, _now: Time, cond: &NetCond) -> f64 {
        let p = params!(cfg, Lda);
        let loss_ratio = cond.eratio;
        if loss_ratio <= 0.0 {
            self.cwnd += p.incr_per_period;
        } else {
            let factor = (1.0 - p.beta * loss_ratio.sqrt()).max(0.5);
            self.cwnd *= factor;
        }
        self.cwnd = cfg.clamp(self.cwnd);
        self.cwnd
    }

    fn on_timeout(&mut self, cfg: &CcConfig, _now: Time) -> f64 {
        self.cwnd *= 0.5;
        self.cwnd = cfg.clamp(self.cwnd);
        self.cwnd
    }

    fn scale(&mut self, cfg: &CcConfig, factor: f64) -> f64 {
        scale_cwnd(&mut self.cwnd, factor, cfg)
    }

    fn digest(&self, _now: Time, h: &mut iq_telemetry::StateHasher) {
        // Exactly the pre-trait digest (one f64): the pinned
        // explored-state counts in `mc-smoke` depend on it.
        h.write_f64(self.cwnd);
    }
}

// -------------------------------------------------------------- CUBIC

/// RFC 8312-style CUBIC window (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct CubicWindow {
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

impl CubicWindow {
    /// Creates a window at the config's initial size.
    pub fn new(cfg: &CcConfig) -> Self {
        Self {
            cwnd: cfg.initial_cwnd,
            w_max: cfg.initial_cwnd,
            ssthresh: f64::INFINITY,
            k: 0.0,
            epoch_start: None,
        }
    }

    /// The cubic window function `W(t) = C·(t − K)³ + W_max`, with `t`
    /// in seconds since the epoch start.
    pub fn w_cubic(&self, p: &CubicParams, t: f64) -> f64 {
        let d = t - self.k;
        p.c * d * d * d + self.w_max
    }

    /// Registers a congestion event with multiplicative decrease
    /// `factor`, recomputing `K` and closing the epoch.
    fn congestion_event(&mut self, cfg: &CcConfig, factor: f64) -> f64 {
        self.w_max = self.cwnd;
        self.cwnd = cfg.clamp(self.cwnd * factor);
        self.ssthresh = self.cwnd;
        // K = cbrt(W_max·(1 − factor)/C): time for the curve to climb
        // from the reduced window back to W_max.
        self.k = (self.w_max * (1.0 - factor) / params!(cfg, Cubic).c).cbrt();
        self.epoch_start = None;
        self.cwnd
    }
}

impl CongestionControl for CubicWindow {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_ack(
        &mut self,
        cfg: &CcConfig,
        now: Time,
        acked_segments: u32,
        _srtt: Option<TimeDelta>,
    ) -> f64 {
        if acked_segments == 0 {
            return self.cwnd;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: one segment per acked segment.
            self.cwnd = cfg.clamp(self.cwnd + f64::from(acked_segments));
            return self.cwnd;
        }
        let start = *self.epoch_start.get_or_insert(now);
        let t = (now - start) as f64 / 1e9;
        let target = self.w_cubic(params!(cfg, Cubic), t);
        if target > self.cwnd {
            // Converge toward the curve at most one segment per cwnd of
            // ACKs (the RFC's cwnd += (target − cwnd)/cwnd per ACK).
            let step = (target - self.cwnd) / self.cwnd.max(1.0);
            self.cwnd = cfg.clamp(self.cwnd + step * f64::from(acked_segments));
        }
        // At or above the curve (e.g. just re-inflated by the
        // coordinator): hold and let the curve catch up.
        self.cwnd
    }

    fn on_loss(&mut self, cfg: &CcConfig, _now: Time) -> f64 {
        self.congestion_event(cfg, params!(cfg, Cubic).beta)
    }

    fn on_timeout(&mut self, cfg: &CcConfig, _now: Time) -> f64 {
        self.congestion_event(cfg, 0.5)
    }

    fn scale(&mut self, cfg: &CcConfig, factor: f64) -> f64 {
        if factor.is_finite() && factor > 0.0 {
            // Scale the saturation point with the window so the §3.4
            // re-inflation survives the next epoch instead of being
            // undone by convergence back to the stale W_max.
            self.w_max *= factor;
            if self.ssthresh.is_finite() {
                self.ssthresh *= factor;
            }
            self.epoch_start = None;
        }
        scale_cwnd(&mut self.cwnd, factor, cfg)
    }

    fn digest(&self, now: Time, h: &mut iq_telemetry::StateHasher) {
        h.write_f64(self.cwnd);
        h.write_f64(self.w_max);
        h.write_f64(self.ssthresh);
        h.write_f64(self.k);
        h.write_u64(match self.epoch_start {
            Some(start) => now.saturating_sub(start),
            None => u64::MAX,
        });
    }
}

// ----------------------------------------------------------- BBR-like

/// Sample window length for the BBR-like rate/RTT filters, periods.
const BBR_WINDOW: usize = 8;

/// Simplified BBR-like model window (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct BbrWindow {
    cwnd: f64,
    /// Delivery-rate samples (KB/s), ring-buffered; 0 = empty slot.
    rates: [f64; BBR_WINDOW],
    /// RTT samples (ms), ring-buffered; 0 = empty slot.
    rtts: [f64; BBR_WINDOW],
    pos: u8,
}

impl BbrWindow {
    /// Creates a window at the config's initial size.
    pub fn new(cfg: &CcConfig) -> Self {
        Self {
            cwnd: cfg.initial_cwnd,
            rates: [0.0; BBR_WINDOW],
            rtts: [0.0; BBR_WINDOW],
            pos: 0,
        }
    }

    /// The current BDP estimate in segments of `mss` bytes: windowed-max
    /// delivery rate × windowed-min RTT over MSS. `None` until both
    /// filters have a sample.
    pub fn bdp_segments(&self, mss: u32) -> Option<f64> {
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
        Some(max_rate * min_rtt / f64::from(mss))
    }
}

impl CongestionControl for BbrWindow {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Feeds the period's delivery rate and RTT into the filters and
    /// re-derives the window from the model.
    fn on_period(&mut self, cfg: &CcConfig, _now: Time, cond: &NetCond) -> f64 {
        let p = params!(cfg, BbrLike);
        if cond.rate_kbps > 0.0 || cond.srtt_ms > 0.0 {
            self.rates[usize::from(self.pos)] = cond.rate_kbps;
            self.rtts[usize::from(self.pos)] = cond.srtt_ms;
            self.pos = (self.pos + 1) % BBR_WINDOW as u8;
        }
        match self.bdp_segments(p.mss) {
            Some(bdp) => self.cwnd = cfg.clamp(p.gain * bdp),
            // Startup: grow multiplicatively until the model has data.
            None => self.cwnd = cfg.clamp(self.cwnd * p.startup_gain),
        }
        self.cwnd
    }

    /// Individual losses do not move a model-based window; the rate
    /// filter already reflects what was actually delivered.
    fn on_loss(&mut self, _cfg: &CcConfig, _now: Time) -> f64 {
        self.cwnd
    }

    fn on_timeout(&mut self, cfg: &CcConfig, _now: Time) -> f64 {
        // An RTO means the model badly overestimated; back off like a
        // loss-based controller and let fresh samples rebuild it.
        self.cwnd = cfg.clamp(self.cwnd * 0.5);
        self.cwnd
    }

    fn scale(&mut self, cfg: &CcConfig, factor: f64) -> f64 {
        // Model-based: the next period re-derives cwnd from the
        // filters, so a coordination re-inflation is transient by
        // design (the model sees the post-adaptation rate within a
        // period anyway). The immediate multiply still matters — it
        // bridges the gap until that next snapshot.
        scale_cwnd(&mut self.cwnd, factor, cfg)
    }

    fn digest(&self, _now: Time, h: &mut iq_telemetry::StateHasher) {
        h.write_f64(self.cwnd);
        for (&r, &t) in self.rates.iter().zip(self.rtts.iter()) {
            h.write_f64(r);
            h.write_f64(t);
        }
        h.write_u64(u64::from(self.pos));
    }
}

// ---------------------------------------------------------------- RRR

/// Relative-rate-reduction window (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RrrWindow {
    cwnd: f64,
}

impl RrrWindow {
    /// Creates a window at the config's initial size.
    pub fn new(cfg: &CcConfig) -> Self {
        Self {
            cwnd: cfg.initial_cwnd,
        }
    }
}

impl RrrParams {
    /// The reduction factor applied for a period with `loss_ratio`
    /// above the target: `1 − γ·(loss − target)/(1 − target)`, floored
    /// at one half. At the target the factor is 1 (no reduction); at
    /// total loss it is `1 − γ` (or the 0.5 floor).
    pub fn reduction_factor(&self, loss_ratio: f64) -> f64 {
        let excess = (loss_ratio - self.target_loss) / (1.0 - self.target_loss);
        (1.0 - self.gamma * excess).max(0.5)
    }
}

impl CongestionControl for RrrWindow {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_period(&mut self, cfg: &CcConfig, _now: Time, cond: &NetCond) -> f64 {
        let p = params!(cfg, Rrr);
        if cond.eratio <= p.target_loss {
            // At or below the acceptable congestion level: probe.
            self.cwnd += p.incr_per_period;
        } else {
            self.cwnd *= p.reduction_factor(cond.eratio);
        }
        self.cwnd = cfg.clamp(self.cwnd);
        self.cwnd
    }

    fn on_timeout(&mut self, cfg: &CcConfig, _now: Time) -> f64 {
        self.cwnd = cfg.clamp(self.cwnd * 0.5);
        self.cwnd
    }

    fn scale(&mut self, cfg: &CcConfig, factor: f64) -> f64 {
        scale_cwnd(&mut self.cwnd, factor, cfg)
    }

    fn digest(&self, _now: Time, h: &mut iq_telemetry::StateHasher) {
        h.write_f64(self.cwnd);
    }
}

// -------------------------------------------------------------- Fixed

/// Pinned window: no adaptation, coordination `scale` still applies.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedWindow {
    cwnd: f64,
}

impl FixedWindow {
    /// Creates a window pinned at `cwnd`.
    pub fn new(cwnd: f64) -> Self {
        Self { cwnd }
    }
}

impl CongestionControl for FixedWindow {
    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn on_timeout(&mut self, _cfg: &CcConfig, _now: Time) -> f64 {
        self.cwnd
    }

    fn scale(&mut self, cfg: &CcConfig, factor: f64) -> f64 {
        scale_cwnd(&mut self.cwnd, factor, cfg)
    }

    fn digest(&self, _now: Time, h: &mut iq_telemetry::StateHasher) {
        h.write_f64(self.cwnd);
    }
}

// ------------------------------------------------------ enum dispatch

/// The controller a connection actually runs: enum dispatch over the
/// concrete implementations, stored inline in the sender so the per-ACK
/// hot path performs no heap allocation and no virtual calls.
#[derive(Debug, Clone, PartialEq)]
pub enum CcController {
    /// LDA (the default).
    Lda(LdaWindow),
    /// CUBIC.
    Cubic(CubicWindow),
    /// BBR-like.
    BbrLike(BbrWindow),
    /// RRR.
    Rrr(RrrWindow),
    /// Pinned window.
    Fixed(FixedWindow),
}

impl CcController {
    /// Instantiates the controller selected by `cfg.algorithm`.
    pub fn new(cfg: &CcConfig) -> Self {
        match cfg.algorithm {
            CcAlgorithm::Lda(_) => CcController::Lda(LdaWindow::new(cfg)),
            CcAlgorithm::Cubic(_) => CcController::Cubic(CubicWindow::new(cfg)),
            CcAlgorithm::BbrLike(_) => CcController::BbrLike(BbrWindow::new(cfg)),
            CcAlgorithm::Rrr(_) => CcController::Rrr(RrrWindow::new(cfg)),
            CcAlgorithm::Fixed { cwnd } => CcController::Fixed(FixedWindow::new(cwnd)),
        }
    }

    /// Stable name of the running algorithm (matches
    /// [`CcAlgorithm::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            CcController::Lda(_) => "lda",
            CcController::Cubic(_) => "cubic",
            CcController::BbrLike(_) => "bbr",
            CcController::Rrr(_) => "rrr",
            CcController::Fixed(_) => "fixed",
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $w:ident => $body:expr) => {
        match $self {
            CcController::Lda($w) => $body,
            CcController::Cubic($w) => $body,
            CcController::BbrLike($w) => $body,
            CcController::Rrr($w) => $body,
            CcController::Fixed($w) => $body,
        }
    };
}

impl CongestionControl for CcController {
    fn cwnd(&self) -> f64 {
        dispatch!(self, w => w.cwnd())
    }

    fn cwnd_segments(&self) -> u32 {
        dispatch!(self, w => w.cwnd_segments())
    }

    fn on_ack(
        &mut self,
        cfg: &CcConfig,
        now: Time,
        acked_segments: u32,
        srtt: Option<TimeDelta>,
    ) -> f64 {
        dispatch!(self, w => w.on_ack(cfg, now, acked_segments, srtt))
    }

    fn on_loss(&mut self, cfg: &CcConfig, now: Time) -> f64 {
        dispatch!(self, w => w.on_loss(cfg, now))
    }

    fn on_period(&mut self, cfg: &CcConfig, now: Time, cond: &NetCond) -> f64 {
        dispatch!(self, w => w.on_period(cfg, now, cond))
    }

    fn on_timeout(&mut self, cfg: &CcConfig, now: Time) -> f64 {
        dispatch!(self, w => w.on_timeout(cfg, now))
    }

    fn on_ecn(&mut self, cfg: &CcConfig, now: Time) -> f64 {
        dispatch!(self, w => w.on_ecn(cfg, now))
    }

    fn scale(&mut self, cfg: &CcConfig, factor: f64) -> f64 {
        dispatch!(self, w => w.scale(cfg, factor))
    }

    fn digest(&self, now: Time, h: &mut iq_telemetry::StateHasher) {
        dispatch!(self, w => w.digest(now, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::DEFAULT_MSS;

    fn loss(eratio: f64) -> NetCond {
        NetCond {
            eratio,
            ..NetCond::default()
        }
    }

    /// The default config: LDA with default tunables.
    fn lda() -> CcConfig {
        CcConfig::default()
    }

    fn with(algorithm: CcAlgorithm) -> CcConfig {
        CcConfig {
            algorithm,
            ..CcConfig::default()
        }
    }

    fn win() -> LdaWindow {
        LdaWindow::new(&lda())
    }

    #[test]
    fn additive_increase_when_clean() {
        let mut w = win();
        let start = w.cwnd();
        w.on_period(&lda(), 0, &loss(0.0));
        w.on_period(&lda(), 0, &loss(0.0));
        assert_eq!(w.cwnd(), start + 2.0 * LdaParams::default().incr_per_period);
    }

    #[test]
    fn loss_proportional_decrease() {
        let cfg = with(CcAlgorithm::Lda(LdaParams {
            beta: 1.0,
            ..LdaParams::default()
        }));
        let mut w = LdaWindow::new(&cfg);
        w.scale(&cfg, 50.0); // get to 100
        let before = w.cwnd();
        w.on_period(&cfg, 0, &loss(0.09)); // sqrt(0.09) = 0.3
        assert!((w.cwnd() - before * 0.7).abs() < 1e-9);
        // Heavy loss floors at one half.
        let before = w.cwnd();
        w.on_period(&cfg, 0, &loss(0.9));
        assert!((w.cwnd() - before * 0.5).abs() < 1e-9);
    }

    #[test]
    fn timeout_halves() {
        let mut w = win();
        w.scale(&lda(), 8.0); // 16
        w.on_timeout(&lda(), 0);
        assert_eq!(w.cwnd(), 8.0);
    }

    #[test]
    fn clamped_to_bounds() {
        let mut w = win();
        for _ in 0..2000 {
            w.on_period(&lda(), 0, &loss(0.0));
        }
        assert_eq!(w.cwnd(), 1024.0);
        for _ in 0..100 {
            w.on_timeout(&lda(), 0);
        }
        assert_eq!(w.cwnd(), 1.0);
        assert_eq!(w.cwnd_segments(), 1);
    }

    #[test]
    fn fixed_window_is_pinned() {
        let cfg = with(CcAlgorithm::Fixed { cwnd: 40.0 });
        let mut w = CcController::new(&cfg);
        w.on_period(&cfg, 0, &loss(0.5));
        w.on_timeout(&cfg, 0);
        w.on_ack(&cfg, 0, 3, None);
        w.on_loss(&cfg, 0);
        assert_eq!(w.cwnd(), 40.0);
        // Coordination scaling still applies to a pinned window.
        w.scale(&cfg, 0.5);
        assert_eq!(w.cwnd(), 20.0);
    }

    #[test]
    fn cwnd_segments_rounds_to_nearest() {
        let mut w = win();
        w.scale(&lda(), 1.999 / w.cwnd());
        assert!((w.cwnd() - 1.999).abs() < 1e-12);
        // 1.999 must behave as 2 segments, not truncate to 1.
        assert_eq!(w.cwnd_segments(), 2);
        w.scale(&lda(), 1.4 / w.cwnd());
        assert_eq!(w.cwnd_segments(), 1);
        w.scale(&lda(), 2.5 / w.cwnd());
        assert_eq!(w.cwnd_segments(), 3); // round half away from zero
    }

    #[test]
    fn scale_ignores_degenerate_factors() {
        for alg in CcAlgorithm::all_adaptive() {
            let cfg = with(alg);
            let mut w = CcController::new(&cfg);
            let before = w.cwnd();
            w.scale(&cfg, 0.0);
            w.scale(&cfg, -1.0);
            w.scale(&cfg, f64::NAN);
            w.scale(&cfg, f64::INFINITY);
            assert_eq!(w.cwnd(), before, "{}", w.name());
        }
    }

    #[test]
    fn every_controller_scale_is_multiply_then_clamp() {
        // The §3.4 contract the model checker relies on, for all five.
        let algs = [
            CcAlgorithm::Lda(LdaParams::default()),
            CcAlgorithm::Cubic(CubicParams::default()),
            CcAlgorithm::BbrLike(BbrParams::default()),
            CcAlgorithm::Rrr(RrrParams::default()),
            CcAlgorithm::Fixed { cwnd: 64.0 },
        ];
        for alg in algs {
            let cfg = with(alg);
            let mut w = CcController::new(&cfg);
            let before = w.cwnd();
            let after = w.scale(&cfg, 3.0);
            assert_eq!(
                after,
                (before * 3.0).clamp(cfg.min_cwnd, cfg.max_cwnd),
                "{}",
                w.name()
            );
            let before = w.cwnd();
            let after = w.scale(&cfg, 1e9);
            assert_eq!(after, (before * 1e9).clamp(cfg.min_cwnd, cfg.max_cwnd));
        }
    }

    #[test]
    fn algorithm_names_round_trip() {
        for alg in CcAlgorithm::all_adaptive() {
            let name = alg.name();
            assert_eq!(CcAlgorithm::from_name(name), Some(alg));
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
        let p = CubicParams::default();
        let cfg = CcConfig {
            initial_cwnd: 100.0,
            ..with(CcAlgorithm::Cubic(p.clone()))
        };
        let mut w = CubicWindow::new(&cfg);
        w.ssthresh = 0.0; // force congestion avoidance
        w.on_loss(&cfg, 0);
        // After a loss at w = 100: w_max = 100, cwnd = 70,
        // K = cbrt(100·0.3/0.4) = cbrt(75).
        assert!((w.cwnd() - 70.0).abs() < 1e-9);
        let k = (100.0 * 0.3 / 0.4_f64).cbrt();
        assert!((w.k - k).abs() < 1e-12);
        // W(K) = w_max exactly; W(0) = cwnd after the decrease.
        assert!((w.w_cubic(&p, k) - 100.0).abs() < 1e-9);
        assert!((w.w_cubic(&p, 0.0) - 70.0).abs() < 1e-6);
        // Convex growth past K.
        assert!(w.w_cubic(&p, k + 1.0) > 100.0);
        assert!(
            w.w_cubic(&p, k + 2.0) - w.w_cubic(&p, k + 1.0)
                > w.w_cubic(&p, k + 1.0) - w.w_cubic(&p, k)
        );
    }

    #[test]
    fn cubic_slow_starts_then_converges_to_w_max() {
        let cfg = with(CcAlgorithm::Cubic(CubicParams::default()));
        let mut w = CubicWindow::new(&cfg);
        // Slow start: each acked segment adds one.
        w.on_ack(&cfg, 0, 2, None);
        assert_eq!(w.cwnd(), 4.0);
        w.on_loss(&cfg, 0);
        let reduced = w.cwnd();
        assert!((reduced - 4.0 * 0.7).abs() < 1e-9);
        // ACKs over the following seconds climb back toward w_max = 4
        // and then past it (convex region).
        let mut now = 0u64;
        for _ in 0..200 {
            now += 100_000_000; // 100 ms
            w.on_ack(&cfg, now, 1, None);
        }
        assert!(w.cwnd() > 4.0, "cwnd {} should pass w_max", w.cwnd());
    }

    #[test]
    fn cubic_holds_above_curve_after_reinflation() {
        let cfg = with(CcAlgorithm::Cubic(CubicParams::default()));
        let mut w = CubicWindow::new(&cfg);
        w.on_ack(&cfg, 0, 8, None); // slow start to 10
        w.on_loss(&cfg, 0); // w_max = 10, cwnd = 7
        let before = w.cwnd();
        w.scale(&cfg, 4.0); // coordinator re-inflates to 28
        assert_eq!(w.cwnd(), before * 4.0);
        // The very next ACK must not crash the window back to the old
        // curve: w_max scaled with it.
        w.on_ack(&cfg, 1_000_000, 1, None);
        assert!(w.cwnd() >= before * 4.0 - 1e-9);
    }

    // ---------------------------------------------------- BBR-like

    #[test]
    fn bbr_pins_window_to_gain_times_bdp() {
        let cfg = with(CcAlgorithm::BbrLike(BbrParams::default()));
        let mut w = BbrWindow::new(&cfg);
        // 1400 KB/s × 20 ms = 28 000 bytes in flight = 20 segments of
        // 1400 B; gain 2 → cwnd 40.
        let cond = NetCond {
            rate_kbps: 1400.0,
            srtt_ms: 20.0,
            ..NetCond::default()
        };
        w.on_period(&cfg, 0, &cond);
        assert_eq!(w.bdp_segments(DEFAULT_MSS), Some(20.0));
        assert_eq!(w.cwnd(), 40.0);
        // Max-rate filter: a slower period does not shrink the estimate
        // while the fast sample is in the window.
        let slow = NetCond {
            rate_kbps: 700.0,
            srtt_ms: 20.0,
            ..NetCond::default()
        };
        w.on_period(&cfg, 0, &slow);
        assert_eq!(w.cwnd(), 40.0);
    }

    #[test]
    fn bbr_startup_grows_until_model_has_data() {
        let cfg = with(CcAlgorithm::BbrLike(BbrParams::default()));
        let mut w = BbrWindow::new(&cfg);
        let idle = NetCond::default(); // no rate, no rtt yet
        w.on_period(&cfg, 0, &idle);
        assert_eq!(w.cwnd(), 4.0); // 2 × startup_gain
        w.on_period(&cfg, 0, &idle);
        assert_eq!(w.cwnd(), 8.0);
    }

    #[test]
    fn bbr_max_rate_sample_eventually_ages_out() {
        let cfg = with(CcAlgorithm::BbrLike(BbrParams::default()));
        let mut w = BbrWindow::new(&cfg);
        let fast = NetCond {
            rate_kbps: 1400.0,
            srtt_ms: 20.0,
            ..NetCond::default()
        };
        w.on_period(&cfg, 0, &fast);
        let slow = NetCond {
            rate_kbps: 700.0,
            srtt_ms: 20.0,
            ..NetCond::default()
        };
        for _ in 0..BBR_WINDOW {
            w.on_period(&cfg, 0, &slow);
        }
        // The fast sample fell out of the 8-period window.
        assert_eq!(w.bdp_segments(DEFAULT_MSS), Some(10.0));
        assert_eq!(w.cwnd(), 20.0);
    }

    // --------------------------------------------------------- RRR

    #[test]
    fn rrr_probes_at_or_below_target() {
        let cfg = with(CcAlgorithm::Rrr(RrrParams::default()));
        let mut w = RrrWindow::new(&cfg);
        let start = w.cwnd();
        w.on_period(&cfg, 0, &loss(0.0));
        w.on_period(&cfg, 0, &loss(0.05)); // exactly at the target level
        assert_eq!(w.cwnd(), start + 2.0);
    }

    #[test]
    fn rrr_reduction_is_relative_to_target() {
        let p = RrrParams {
            target_loss: 0.05,
            gamma: 1.0,
            incr_per_period: 1.0,
        };
        // loss 0.24: excess = (0.24 − 0.05)/0.95 = 0.2 → factor 0.8.
        let f = p.reduction_factor(0.24);
        assert!((f - 0.8).abs() < 1e-9);
        // Total loss floors at one half regardless of gamma.
        assert_eq!(p.reduction_factor(1.0), 0.5);
        let cfg = CcConfig {
            initial_cwnd: 100.0,
            ..with(CcAlgorithm::Rrr(p))
        };
        let mut w = RrrWindow::new(&cfg);
        w.on_period(&cfg, 0, &loss(0.24));
        assert!((w.cwnd() - 80.0).abs() < 1e-6);
        // A higher congestion level tolerates the same loss untouched.
        let tolerant = RrrParams {
            target_loss: 0.30,
            ..RrrParams::default()
        };
        assert!(tolerant.reduction_factor(0.24) >= 1.0);
    }

    #[test]
    fn rrr_timeout_halves() {
        let cfg = CcConfig {
            initial_cwnd: 16.0,
            ..with(CcAlgorithm::Rrr(RrrParams::default()))
        };
        let mut w = RrrWindow::new(&cfg);
        w.on_timeout(&cfg, 0);
        assert_eq!(w.cwnd(), 8.0);
    }

    #[test]
    fn controller_digests_differ_by_state_not_clock() {
        // CUBIC's epoch is hashed relative to `now`: the same state
        // reached at different absolute times digests identically.
        let cfg = with(CcAlgorithm::Cubic(CubicParams::default()));
        let mut a = CcController::new(&cfg);
        let mut b = CcController::new(&cfg);
        a.on_loss(&cfg, 0);
        a.on_ack(&cfg, 1_000_000, 1, None);
        b.on_loss(&cfg, 0);
        b.on_ack(&cfg, 5_000_000, 1, None);
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

    #[test]
    #[should_panic(expected = "a Lda window was driven with the `cubic` algorithm's config")]
    fn a_window_refuses_another_algorithms_config() {
        let mut w = win();
        w.on_period(
            &with(CcAlgorithm::Cubic(CubicParams::default())),
            0,
            &loss(0.0),
        );
    }
}
