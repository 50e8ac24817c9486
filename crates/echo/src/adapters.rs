//! Application adaptation policies from the paper's evaluation.
//!
//! Each adapter encapsulates one application-level adaptation strategy,
//! reacting to the transport's error-ratio threshold callbacks and
//! describing what it did through `ADAPT_*` attributes (the paper's
//! callback-return / `CMwritev_attr` information flow).

use iq_attrs::{names, AttrList};
use iq_rudp::NetCond;
use rand::rngs::SmallRng;
use rand::Rng;

/// One tagged (control) datagram every this many (§3.3).
const TAG_EVERY: u64 = 5;

/// Cap on the marking adapter's unmarking probability.
const MAX_UNMARK: f64 = 0.95;

/// Floor on the resolution adapter's frame scale: the application's
/// minimum useful resolution.
const MIN_SCALE: f64 = 0.25;

/// Growth of the frame scale at the lower threshold (§3.4: 10 %).
const RECOVERY_STEP: f64 = 0.10;

/// Ceiling on the frequency adapter's interval stretch.
const MAX_INTERVAL_SCALE: f64 = 8.0;

/// §3.3's reliability adaptation: trade reliability for timeliness by
/// probabilistically unmarking raw-data packets while keeping every
/// fifth packet tagged (control information that must be delivered).
#[derive(Debug, Clone, Default)]
pub struct MarkingAdapter {
    /// Current probability of unmarking a non-control datagram.
    pub unmark_prob: f64,
    /// How callbacks have moved the probability (diagnostics).
    pub adaptations: u64,
}

/// The error ratio adapters act on: the smoothed value (the paper's
/// measuring periods are long enough to smooth burst losses; our short
/// periods use an EWMA instead), bounded away from degenerate extremes.
pub fn effective_eratio(cond: &NetCond) -> f64 {
    cond.eratio_smoothed.clamp(0.0, 0.5)
}

impl MarkingAdapter {
    /// Upper-threshold callback: unmark with probability
    /// `max(0.40, 1.25·eratio)` (the paper's `max(40, (5/4)·eratio)` %).
    pub fn on_upper(&mut self, cond: &NetCond) -> AttrList {
        self.adaptations += 1;
        self.unmark_prob = (1.25 * effective_eratio(cond)).clamp(0.40, MAX_UNMARK);
        AttrList::new().with(names::ADAPT_MARK, self.unmark_prob)
    }

    /// Lower-threshold callback: reduce the unmarking probability by 20
    /// percentage points.
    pub fn on_lower(&mut self, _cond: &NetCond) -> AttrList {
        self.adaptations += 1;
        self.unmark_prob = (self.unmark_prob - 0.20).max(0.0);
        AttrList::new().with(names::ADAPT_MARK, self.unmark_prob)
    }

    /// Marking decision for the `idx`-th datagram: control datagrams
    /// (every fifth) are always tagged; the rest are unmarked with the
    /// current probability.
    pub fn mark(&mut self, idx: u64, rng: &mut SmallRng) -> bool {
        if idx.is_multiple_of(TAG_EVERY) {
            return true;
        }
        !(self.unmark_prob > 0.0 && rng.gen::<f64>() < self.unmark_prob)
    }
}

/// §3.4's resolution adaptation: down-sample data (shrink frames) by a
/// fraction equal to the error ratio on the upper threshold; grow frames
/// back by 10% on the lower threshold.
#[derive(Debug, Clone)]
pub struct ResolutionAdapter {
    /// Current frame-size scale in `[0.25, 1]` (`MIN_SCALE` to full).
    pub scale: f64,
    /// Number of adaptations performed.
    pub adaptations: u64,
}

impl Default for ResolutionAdapter {
    fn default() -> Self {
        Self {
            scale: 1.0,
            adaptations: 0,
        }
    }
}

impl ResolutionAdapter {
    /// Upper-threshold callback: reduce frame size by `rate_chg` equal to
    /// the error ratio. Returns the attributes describing the change.
    pub fn on_upper(&mut self, cond: &NetCond) -> AttrList {
        let rate_chg = effective_eratio(cond);
        let new_scale = (self.scale * (1.0 - rate_chg)).max(MIN_SCALE);
        if new_scale >= self.scale {
            return AttrList::new(); // already at the floor
        }
        // Effective change after the floor clamp.
        let effective = 1.0 - new_scale / self.scale;
        self.scale = new_scale;
        self.adaptations += 1;
        AttrList::new().with(names::ADAPT_PKTSIZE, effective)
    }

    /// Lower-threshold callback: increase frame size by 10%.
    pub fn on_lower(&mut self, _cond: &NetCond) -> AttrList {
        let new_scale = (self.scale * (1.0 + RECOVERY_STEP)).min(1.0);
        if new_scale <= self.scale {
            return AttrList::new(); // already at full resolution
        }
        let effective = 1.0 - new_scale / self.scale; // negative: increase
        self.scale = new_scale;
        self.adaptations += 1;
        AttrList::new().with(names::ADAPT_PKTSIZE, effective)
    }
}

/// A frequency adaptation: send the same frames, less often.
#[derive(Debug, Clone)]
pub struct FrequencyAdapter {
    /// Multiplier on the inter-frame interval, in `[1, 8]`.
    pub interval_scale: f64,
    /// Number of adaptations performed.
    pub adaptations: u64,
}

impl Default for FrequencyAdapter {
    fn default() -> Self {
        Self {
            interval_scale: 1.0,
            adaptations: 0,
        }
    }
}

impl FrequencyAdapter {
    /// Upper-threshold callback: reduce frequency by the error ratio
    /// (interval grows by `1/(1 − eratio)`).
    pub fn on_upper(&mut self, cond: &NetCond) -> AttrList {
        let chg = effective_eratio(cond);
        if chg <= 0.0 {
            return AttrList::new();
        }
        self.interval_scale = (self.interval_scale / (1.0 - chg)).min(MAX_INTERVAL_SCALE);
        self.adaptations += 1;
        AttrList::new().with(names::ADAPT_FREQ, chg)
    }

    /// Lower-threshold callback: increase frequency by 10%.
    pub fn on_lower(&mut self, _cond: &NetCond) -> AttrList {
        if self.interval_scale <= 1.0 {
            return AttrList::new();
        }
        self.interval_scale = (self.interval_scale / 1.1).max(1.0);
        self.adaptations += 1;
        AttrList::new().with(names::ADAPT_FREQ, -0.1)
    }
}

/// Maps the `ADAPT_*` attributes an adapter returned into telemetry
/// events, one per attribute present.
///
/// Pure translation, shared by every emit point that reports application
/// adaptations (the adaptive source, channels, the FTP agent): the
/// attribute list is already the paper's description of "what the
/// application did", so telemetry reuses it instead of inventing a
/// second vocabulary.
pub fn adaptation_events(attrs: &AttrList) -> Vec<iq_telemetry::TelemetryEvent> {
    use iq_telemetry::TelemetryEvent as E;
    let mut out = Vec::new();
    if let Some(unmark_prob) = attrs.get_float(names::ADAPT_MARK) {
        out.push(E::AdaptMark { unmark_prob });
    }
    if let Some(rate_chg) = attrs.get_float(names::ADAPT_PKTSIZE) {
        out.push(E::AdaptPktSize { rate_chg });
    }
    if let Some(rate_chg) = attrs.get_float(names::ADAPT_FREQ) {
        out.push(E::AdaptFreq { rate_chg });
    }
    if let Some(frames_ahead) = attrs.get_int(names::ADAPT_WHEN) {
        out.push(E::AdaptWhen { frames_ahead });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cond(eratio: f64) -> NetCond {
        NetCond {
            eratio,
            eratio_smoothed: eratio,
            ..NetCond::default()
        }
    }

    #[test]
    fn marking_probability_follows_paper_formula() {
        let mut m = MarkingAdapter::default();
        // Small eratio: floor of 40%.
        let attrs = m.on_upper(&cond(0.10));
        assert!((m.unmark_prob - 0.40).abs() < 1e-12);
        assert_eq!(attrs.get_float(names::ADAPT_MARK), Some(0.40));
        // Large eratio: 1.25x of the (0.5-clamped) effective ratio.
        m.on_upper(&cond(0.44));
        assert!((m.unmark_prob - 0.55).abs() < 1e-12);
        // Ratios beyond the clamp saturate at 1.25 * 0.5.
        m.on_upper(&cond(0.9));
        assert!((m.unmark_prob - 0.625).abs() < 1e-12);
        // Lower threshold: -20 points.
        m.on_lower(&cond(0.01));
        assert!((m.unmark_prob - 0.425).abs() < 1e-12);
    }

    #[test]
    fn marking_tags_every_fifth_packet() {
        let mut m = MarkingAdapter::default();
        m.on_upper(&cond(0.9)); // heavy unmarking
        let mut rng = SmallRng::seed_from_u64(1);
        for idx in (0..100).step_by(5) {
            assert!(m.mark(idx, &mut rng), "control datagram must be tagged");
        }
        // Non-control datagrams get unmarked at roughly the probability.
        let unmarked = (0..10_000u64)
            .filter(|i| i % 5 != 0)
            .filter(|&i| !m.mark(i, &mut rng))
            .count();
        let frac = unmarked as f64 / 8000.0;
        assert!((frac - m.unmark_prob).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn marking_inactive_marks_everything() {
        let mut m = MarkingAdapter::default();
        let mut rng = SmallRng::seed_from_u64(2);
        assert!((0..1000).all(|i| m.mark(i, &mut rng)));
    }

    #[test]
    fn resolution_scales_down_by_eratio_and_back_up() {
        let mut r = ResolutionAdapter::default();
        let attrs = r.on_upper(&cond(0.20));
        assert!((r.scale - 0.80).abs() < 1e-12);
        assert!((attrs.get_float(names::ADAPT_PKTSIZE).unwrap() - 0.2).abs() < 1e-12);
        let attrs = r.on_lower(&cond(0.0));
        assert!((r.scale - 0.88).abs() < 1e-12);
        // Increase reported as a negative rate_chg.
        assert!(attrs.get_float(names::ADAPT_PKTSIZE).unwrap() < 0.0);
    }

    #[test]
    fn resolution_floor_and_ceiling() {
        let mut r = ResolutionAdapter::default();
        for _ in 0..50 {
            r.on_upper(&cond(0.8));
        }
        assert!((r.scale - MIN_SCALE).abs() < 1e-9);
        // At the floor, further reductions report nothing.
        assert!(r.on_upper(&cond(0.8)).is_empty());
        for _ in 0..100 {
            r.on_lower(&cond(0.0));
        }
        assert!((r.scale - 1.0).abs() < 1e-12);
        assert!(r.on_lower(&cond(0.0)).is_empty());
    }

    #[test]
    fn adaptation_events_map_each_attribute() {
        use iq_telemetry::TelemetryEvent as E;
        let attrs = AttrList::new()
            .with(names::ADAPT_PKTSIZE, 0.2)
            .with(names::ADAPT_WHEN, 20i64);
        let evs = adaptation_events(&attrs);
        assert!(evs.contains(&E::AdaptPktSize { rate_chg: 0.2 }));
        assert!(evs.contains(&E::AdaptWhen { frames_ahead: 20 }));
        assert_eq!(evs.len(), 2);
        assert!(adaptation_events(&AttrList::new()).is_empty());
    }

    #[test]
    fn frequency_stretches_interval() {
        let mut f = FrequencyAdapter::default();
        f.on_upper(&cond(0.5));
        assert!((f.interval_scale - 2.0).abs() < 1e-12);
        f.on_lower(&cond(0.0));
        assert!((f.interval_scale - 2.0 / 1.1).abs() < 1e-12);
        // Cannot go below 1.
        for _ in 0..100 {
            f.on_lower(&cond(0.0));
        }
        assert_eq!(f.interval_scale, 1.0);
        assert!(f.on_lower(&cond(0.0)).is_empty());
    }
}
