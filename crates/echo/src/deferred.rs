//! Deferred (limited-granularity) adaptation, §3.5.
//!
//! Some applications "cannot adapt until all packets belonging to the
//! same frame or frame group have been sent". This wrapper delays the
//! execution of a resolution adaptation until the next frame whose
//! sequence number is divisible by the granularity (the paper uses 20),
//! announcing the delay to the transport through `ADAPT_WHEN` and —
//! optionally — describing the conditions the decision was based on
//! through `ADAPT_COND` at execution time.

use iq_attrs::{names, AttrList};
use iq_rudp::NetCond;

use crate::adapters::ResolutionAdapter;

/// A decided-but-not-yet-executed adaptation.
#[derive(Debug, Clone, Copy)]
struct Decision {
    /// Which threshold fired.
    upper: bool,
    /// Error ratio at decision time.
    eratio: f64,
    /// Frame at which the adaptation executes.
    execute_at_frame: u64,
}

/// Wraps a [`ResolutionAdapter`] with frame-granularity deferral.
#[derive(Debug, Clone)]
pub struct DeferredResolution {
    /// The underlying resolution policy.
    pub inner: ResolutionAdapter,
    /// Adaptations may only execute at frames divisible by this.
    pub granularity: u64,
    /// Whether execution attaches `ADAPT_COND` (scheme 3 vs scheme 2).
    pub include_cond: bool,
    pending: Option<Decision>,
}

impl DeferredResolution {
    /// Creates a deferred wrapper around a fresh [`ResolutionAdapter`];
    /// the paper's granularity is 20.
    pub fn new(granularity: u64, include_cond: bool) -> Self {
        Self {
            inner: ResolutionAdapter::default(),
            granularity: granularity.max(1),
            include_cond,
            pending: None,
        }
    }

    fn next_boundary(&self, frame: u64) -> u64 {
        let g = self.granularity;
        frame.div_ceil(g).max(1) * g
    }

    /// Threshold callback: records the decision and returns the
    /// `ADAPT_WHEN` announcement for the transport. A newer decision
    /// replaces an older pending one.
    pub fn on_threshold(&mut self, upper: bool, cond: &NetCond, frame: u64) -> AttrList {
        let execute_at_frame = self.next_boundary(frame + 1);
        self.pending = Some(Decision {
            upper,
            // Deliberately record the ratio seen at callback time: a
            // deferred application decides on whatever it sees then, and
            // that snapshot is exactly the "obsolete information" the
            // ADAPT_COND correction (§3.5 scheme 3) exists to fix. The
            // paper's measuring periods are long, so its per-period
            // ratios carry no single-burst spikes; ours are short, so
            // spikes are capped at twice the smoothed level.
            eratio: cond.eratio.min(2.0 * cond.eratio_smoothed).clamp(0.0, 0.5),
            execute_at_frame,
        });
        AttrList::new().with(names::ADAPT_WHEN, (execute_at_frame - frame) as i64)
    }

    /// Called for every frame emission: if a pending decision is due at
    /// `frame`, executes it and returns the execution attributes to
    /// attach to this frame's `CMwritev_attr` call.
    pub fn on_frame(&mut self, frame: u64) -> AttrList {
        let Some(d) = self.pending else {
            return AttrList::new();
        };
        if frame < d.execute_at_frame {
            return AttrList::new();
        }
        self.pending = None;
        let cond = NetCond {
            eratio: d.eratio,
            eratio_smoothed: d.eratio,
            ..NetCond::default()
        };
        let mut attrs = if d.upper {
            self.inner.on_upper(&cond)
        } else {
            self.inner.on_lower(&cond)
        };
        if attrs.is_empty() {
            return attrs; // clamped away; nothing to report
        }
        if self.include_cond {
            attrs.set(names::ADAPT_COND_ERATIO, d.eratio);
        }
        attrs
    }

    /// Whether a decision is waiting for its frame boundary.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(eratio: f64) -> NetCond {
        NetCond {
            eratio,
            eratio_smoothed: eratio,
            ..NetCond::default()
        }
    }

    #[test]
    fn defers_to_next_multiple_of_granularity() {
        let mut d = DeferredResolution::new(20, false);
        let attrs = d.on_threshold(true, &cond(0.3), 7);
        // Next boundary after frame 7 is 20, i.e. 13 frames away.
        assert_eq!(attrs.get_int(names::ADAPT_WHEN), Some(13));
        assert!(d.has_pending());
        // Frames before the boundary do nothing.
        for f in 8..20 {
            assert!(d.on_frame(f).is_empty());
        }
        let exec = d.on_frame(20);
        assert!((exec.get_float(names::ADAPT_PKTSIZE).unwrap() - 0.3).abs() < 1e-12);
        assert!(!d.has_pending());
        assert!((d.inner.scale - 0.7).abs() < 1e-12);
    }

    #[test]
    fn decision_exactly_on_boundary_waits_a_full_cycle() {
        let mut d = DeferredResolution::new(20, false);
        let attrs = d.on_threshold(true, &cond(0.2), 20);
        assert_eq!(attrs.get_int(names::ADAPT_WHEN), Some(20));
        assert!(d.on_frame(21).is_empty());
        assert!(!d.on_frame(40).is_empty());
    }

    #[test]
    fn newer_decision_replaces_pending() {
        let mut d = DeferredResolution::new(20, false);
        d.on_threshold(true, &cond(0.10), 5);
        d.on_threshold(true, &cond(0.30), 12);
        let exec = d.on_frame(20);
        // The executed reduction reflects the newer 0.30 ratio.
        assert!((exec.get_float(names::ADAPT_PKTSIZE).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn include_cond_attaches_decision_eratio() {
        let mut d = DeferredResolution::new(20, true);
        d.on_threshold(true, &cond(0.25), 3);
        let exec = d.on_frame(20);
        assert_eq!(exec.get_float(names::ADAPT_COND_ERATIO), Some(0.25));
    }

    #[test]
    fn lower_threshold_defers_increases_too() {
        let mut d = DeferredResolution::new(10, false);
        // Shrink first so an increase is possible.
        d.on_threshold(true, &cond(0.5), 1);
        d.on_frame(10);
        assert!((d.inner.scale - 0.5).abs() < 1e-12);
        d.on_threshold(false, &cond(0.0), 11);
        let exec = d.on_frame(20);
        assert!(exec.get_float(names::ADAPT_PKTSIZE).unwrap() < 0.0);
        assert!((d.inner.scale - 0.55).abs() < 1e-12);
    }
}
