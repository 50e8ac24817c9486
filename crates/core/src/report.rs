//! Adaptation reports: the typed view of the `ADAPT_*` quality
//! attributes an application attaches to sends or callback returns.
//!
//! The paper's coordination mechanism (§2.3.2) needs three pieces of
//! information about an application adaptation: its **impact** on
//! traffic (frequency / resolution / reliability), its **timing**
//! (`ADAPT_WHEN`), and the **network conditions** it was based on
//! (`ADAPT_COND`). This module parses an [`AttrList`] into that view.

use iq_attrs::{names, AttrList};

/// A parsed application-adaptation description.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdaptReport {
    /// `ADAPT_FREQ`: fraction by which message frequency was reduced
    /// (negative = increased).
    pub freq_chg: Option<f64>,
    /// `ADAPT_MARK`: fraction of datagrams now left unmarked.
    pub mark_ratio: Option<f64>,
    /// `ADAPT_PKTSIZE`: fraction by which per-message size was reduced
    /// (`rate_chg`; negative = increased).
    pub rate_chg: Option<f64>,
    /// `ADAPT_WHEN`: messages until the adaptation takes effect
    /// (`Some(0)` = effective now, `None` = not stated).
    pub when: Option<i64>,
    /// `ADAPT_COND`: the error ratio the application observed when it
    /// decided to adapt.
    pub cond_eratio: Option<f64>,
}

impl AdaptReport {
    /// Parses the `ADAPT_*` attributes out of `attrs`. A NaN or infinite
    /// ratio reads as absent: `clamp` passes NaN through, so one would
    /// reach the window and stay in `CoordinationLog::cumulative_factor`.
    pub fn from_attrs(attrs: &AttrList) -> Self {
        let ratio = |name: &str| attrs.get_float(name).filter(|v| v.is_finite());
        Self {
            freq_chg: ratio(names::ADAPT_FREQ),
            mark_ratio: ratio(names::ADAPT_MARK),
            rate_chg: ratio(names::ADAPT_PKTSIZE),
            when: attrs.get_int(names::ADAPT_WHEN),
            cond_eratio: ratio(names::ADAPT_COND_ERATIO),
        }
    }

    /// Whether the report carries any adaptation information at all.
    pub fn is_empty(&self) -> bool {
        self.freq_chg.is_none()
            && self.mark_ratio.is_none()
            && self.rate_chg.is_none()
            && self.when.is_none()
            && self.cond_eratio.is_none()
    }

    /// Whether the adaptation is announced for later rather than
    /// already in effect.
    pub fn is_deferred(&self) -> bool {
        matches!(self.when, Some(n) if n > 0)
    }
}

/// The window re-adjustment factor for a resolution adaptation that
/// reduced message sizes by `rate_chg` (§3.4): the window (in packets)
/// grows to `1/(1 - rate_chg)` of its value so the *bit rate* stays
/// matched to the connection's share instead of shrinking twice.
///
/// `rate_chg` is clamped to `(-4.0, 0.95]`; negative values (size
/// increases) symmetrically shrink the window.
pub fn resolution_window_factor(rate_chg: f64) -> f64 {
    let r = rate_chg.clamp(-4.0, 0.95);
    1.0 / (1.0 - r)
}

/// The obsolete-information correction of Eq. (1) (§3.5, scheme 3).
///
/// When the application adapted late using a stale error ratio
/// `eratio_then`, and the network has meanwhile moved to `eratio_now`,
/// the window change becomes
/// `(1 - eratio_now) / (1 - eratio_then) · 1/(1 - rate_chg)`.
///
/// The paper's typeset formula stacks the two fractions ambiguously; the
/// surrounding prose ("this change accounts for the network change
/// during the application's delay of adaptation") says the correction
/// multiplies the §3.4 factor, which is what we implement.
pub fn cond_window_factor(rate_chg: f64, eratio_then: f64, eratio_now: f64) -> f64 {
    let then = eratio_then.clamp(0.0, 0.95);
    let now = eratio_now.clamp(0.0, 0.95);
    ((1.0 - now) / (1.0 - then)) * resolution_window_factor(rate_chg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_attrs::names;

    #[test]
    fn parses_all_fields() {
        let attrs = AttrList::new()
            .with(names::ADAPT_PKTSIZE, 0.2)
            .with(names::ADAPT_WHEN, 12i64)
            .with(names::ADAPT_COND_ERATIO, 0.3)
            .with(names::ADAPT_MARK, 0.4)
            .with(names::ADAPT_FREQ, 0.1);
        let r = AdaptReport::from_attrs(&attrs);
        assert_eq!(r.rate_chg, Some(0.2));
        assert_eq!(r.when, Some(12));
        assert_eq!(r.cond_eratio, Some(0.3));
        assert_eq!(r.mark_ratio, Some(0.4));
        assert_eq!(r.freq_chg, Some(0.1));
        assert!(r.is_deferred());
        assert!(!r.is_empty());
    }

    #[test]
    fn empty_list_is_empty_report() {
        let r = AdaptReport::from_attrs(&AttrList::new());
        assert!(r.is_empty());
        assert!(!r.is_deferred());
    }

    #[test]
    fn a_non_finite_ratio_is_no_report() {
        for name in [names::ADAPT_MARK, names::ADAPT_PKTSIZE] {
            for bad in [f64::NAN, f64::INFINITY] {
                let r = AdaptReport::from_attrs(&AttrList::new().with(name, bad));
                assert!(r.is_empty(), "{name} = {bad}: {r:?}");
            }
        }
    }

    #[test]
    fn when_zero_is_not_deferred() {
        let attrs = AttrList::new().with(names::ADAPT_WHEN, 0i64);
        assert!(!AdaptReport::from_attrs(&attrs).is_deferred());
    }

    #[test]
    fn resolution_factor_matches_paper() {
        // 20% smaller frames -> window grows to 1/(1-0.2) = 1.25x.
        assert!((resolution_window_factor(0.20) - 1.25).abs() < 1e-12);
        // A 10% size increase shrinks the window to 1/1.1.
        assert!((resolution_window_factor(-0.10) - 1.0 / 1.1).abs() < 1e-12);
        // Degenerate reductions clamp instead of dividing by ~zero.
        assert!(resolution_window_factor(0.9999).is_finite());
    }

    #[test]
    fn cond_factor_corrects_for_drift() {
        // Network unchanged: reduces to the plain resolution factor.
        let plain = resolution_window_factor(0.2);
        assert!((cond_window_factor(0.2, 0.3, 0.3) - plain).abs() < 1e-12);
        // Congestion worsened (0.1 -> 0.4): window grows less.
        assert!(cond_window_factor(0.2, 0.1, 0.4) < plain);
        // Congestion eased: window grows more.
        assert!(cond_window_factor(0.2, 0.4, 0.1) > plain);
    }
}
