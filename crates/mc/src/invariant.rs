//! The coordination contract as checkable predicates.
//!
//! Every application transition is judged by comparing a pre/post
//! [`Snapshot`] pair against the *unmutated* adaptation report — the
//! checker recomputes what the coordinator should have done from the
//! paper's formulas ([`iq_core::resolution_window_factor`],
//! [`iq_core::cond_window_factor`]) and flags any divergence.

use iq_core::{
    cond_window_factor, resolution_window_factor, AdaptReport, CoordinationMode, Coordinator,
};
use iq_rudp::{SenderConn, MAX_CWND, MIN_CWND};

/// Tolerance for floating-point window comparisons.
const EPS: f64 = 1e-6;

/// The three checked coordination invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// §3.4: a sub-MSS resolution adaptation rescales the window
    /// exactly once, by the resolution factor, within the cc clamps.
    Reinflation,
    /// §3.5 Eq. (1): `CoordinatedWithCond` corrects the factor using
    /// the error ratio the application adapted under.
    CondCorrection,
    /// §3.5: a deferral announcement changes nothing now and arms
    /// exactly one pending adaptation.
    Deferral,
}

impl Invariant {
    /// Short stable name (reports, CI grep).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Reinflation => "reinflation",
            Invariant::CondCorrection => "cond-correction",
            Invariant::Deferral => "deferral",
        }
    }
}

/// A violated invariant, with enough context to read the failure.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Human-readable explanation (expected vs. observed).
    pub detail: String,
    /// Flow whose application step tripped the check.
    pub flow: usize,
    /// Script step index within that flow.
    pub step: usize,
}

impl Violation {
    fn new(invariant: Invariant, detail: String) -> Self {
        Self {
            invariant,
            detail,
            flow: 0,
            step: 0,
        }
    }

    /// Attaches the flow/step location.
    pub fn at(mut self, flow: usize, step: usize) -> Self {
        self.flow = flow;
        self.step = step;
        self
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant {} violated at flow {} step {}: {}",
            self.invariant.name(),
            self.flow,
            self.step,
            self.detail
        )
    }
}

/// The observable coordination state around one transition.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Congestion window, segments.
    pub cwnd: f64,
    /// Window rescales performed so far.
    pub rescales: u64,
    /// Eq. (1) corrections performed so far.
    pub cond_corrections: u64,
    /// Whether a deferred adaptation is armed.
    pub has_pending: bool,
    /// Error ratio snapshotted when the armed deferral was announced.
    pub pending_eratio: Option<f64>,
    /// The transport's current smoothed error ratio.
    pub eratio_smoothed: f64,
    /// Whether unmarked sends are being discarded.
    pub discard_unmarked: bool,
}

impl Snapshot {
    /// Captures the checked state of a sender/coordinator pair.
    pub fn capture(sender: &SenderConn, coord: &Coordinator) -> Self {
        let log = coord.log();
        Self {
            cwnd: sender.cwnd(),
            rescales: log.window_rescales,
            cond_corrections: log.cond_corrections,
            has_pending: coord.has_pending(),
            pending_eratio: coord.pending_eratio(),
            eratio_smoothed: sender.net_cond().eratio_smoothed,
            discard_unmarked: sender.discard_unmarked(),
        }
    }
}

/// Judges one application transition. `report` is parsed from the
/// *unmutated* script attributes; `pre`/`post` bracket the coordinator
/// call (which may have seen mutated attributes).
pub fn check_invariants(
    mode: CoordinationMode,
    msg_size: u32,
    report: &AdaptReport,
    pre: &Snapshot,
    post: &Snapshot,
) -> Option<Violation> {
    if mode == CoordinationMode::Uncoordinated {
        // Out of scope: uncoordinated transports ignore reports by
        // design, so there is nothing to contract-check.
        return None;
    }

    // Invariant 3: a deferral announcement is pure arming.
    if report.is_deferred() {
        if (post.cwnd - pre.cwnd).abs() > EPS {
            return Some(Violation::new(
                Invariant::Deferral,
                format!("announcement changed cwnd {} -> {}", pre.cwnd, post.cwnd),
            ));
        }
        if post.rescales != pre.rescales {
            return Some(Violation::new(
                Invariant::Deferral,
                format!(
                    "announcement rescaled the window ({} -> {})",
                    pre.rescales, post.rescales
                ),
            ));
        }
        if !post.has_pending {
            return Some(Violation::new(
                Invariant::Deferral,
                "announcement did not arm a pending adaptation".into(),
            ));
        }
        return None;
    }

    if let Some(rate_chg) = report.rate_chg {
        if msg_size <= iq_rudp::MSS && rate_chg > 0.0 {
            // Invariant 2 decides which factor invariant 1 must apply.
            let (factor, cond_expected) = match (mode, report.cond_eratio, pre.has_pending) {
                (CoordinationMode::CoordinatedWithCond, Some(then), _) => (
                    cond_window_factor(rate_chg, then, pre.eratio_smoothed),
                    true,
                ),
                (CoordinationMode::CoordinatedWithCond, None, true) => (
                    cond_window_factor(
                        rate_chg,
                        pre.pending_eratio.unwrap_or(0.0),
                        pre.eratio_smoothed,
                    ),
                    true,
                ),
                _ => (resolution_window_factor(rate_chg), false),
            };
            let expect = (pre.cwnd * factor).clamp(MIN_CWND, MAX_CWND);

            if post.rescales != pre.rescales + 1 {
                return Some(Violation::new(
                    Invariant::Reinflation,
                    format!(
                        "expected exactly one window rescale ({} -> {}), got {}",
                        pre.rescales,
                        pre.rescales + 1,
                        post.rescales
                    ),
                ));
            }
            if (post.cwnd - expect).abs() > EPS {
                // Attribute the miss: if the plain §3.4 factor explains
                // the observed window, the Eq. (1) correction is what
                // went missing.
                let plain =
                    (pre.cwnd * resolution_window_factor(rate_chg)).clamp(MIN_CWND, MAX_CWND);
                let inv = if cond_expected
                    && (post.cwnd - expect).abs() > EPS
                    && (factor - resolution_window_factor(rate_chg)).abs() > EPS
                    && (post.cwnd - plain).abs() <= EPS
                {
                    Invariant::CondCorrection
                } else {
                    Invariant::Reinflation
                };
                return Some(Violation::new(
                    inv,
                    format!(
                        "cwnd {} * factor {factor:.6} should be {expect:.6}, got {:.6}",
                        pre.cwnd, post.cwnd
                    ),
                ));
            }
            if cond_expected && post.cond_corrections != pre.cond_corrections + 1 {
                return Some(Violation::new(
                    Invariant::CondCorrection,
                    format!(
                        "expected an Eq. (1) correction ({} -> {}), got {}",
                        pre.cond_corrections,
                        pre.cond_corrections + 1,
                        post.cond_corrections
                    ),
                ));
            }
            // Execution consumes the armed deferral.
            if post.has_pending {
                return Some(Violation::new(
                    Invariant::Deferral,
                    "executed adaptation left the pending deferral armed".into(),
                ));
            }
        }
    }
    None
}
