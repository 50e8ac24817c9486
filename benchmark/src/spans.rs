//! The in-memory span recorder of traced runs.
//!
//! A span is recorded from the harness's own code around each call into
//! a layer: name, start, end, the span that caused it, the repetition
//! it belongs to, and the counts read at its boundaries. Spans stay in
//! memory and are written out when the run ends. Spans *inside* the
//! crates are a later change (ROADMAP item 2).

use std::time::Instant;

use crate::json::{obj, Json};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share
    /// it); `None` for set-up and drives.
    pub rep: Option<u32>,
    /// Counts read when the span closed (`netsim.sim.events`, …).
    pub counts: Vec<(String, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; nesting follows call order.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled` (traced runs);
    /// otherwise `enter`/`exit` do nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, rep: Option<u32>) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            rep,
            counts: Vec::new(),
        });
    }

    /// Closes the innermost open span, attaching `counts`.
    pub fn exit(&mut self, counts: &[(&str, u64)]) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
        self.spans[i].counts = counts.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &str, rep: Option<u32>, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name, rep);
        let out = f(self);
        self.exit(&[]);
        out
    }

    /// Whether this is a traced run's recorder.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of span `i`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_time_ns(spans: &[Span], i: usize) -> u64 {
    spans[i].duration_ns() - covered_ns(spans, i)
}

/// Share of span `i`'s duration covered by its direct children.
pub fn child_coverage(spans: &[Span], i: usize) -> f64 {
    match spans[i].duration_ns() {
        0 => 1.0,
        d => covered_ns(spans, i) as f64 / d as f64,
    }
}

fn covered_ns(spans: &[Span], i: usize) -> u64 {
    let (lo, hi) = (spans[i].start_ns, spans[i].end_ns);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.max(lo), s.end_ns.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// The trace file: every span with its self time, in recording order.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("id", (i as u64).into()),
                    ("name", s.name.as_str().into()),
                    ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                    ("rep", s.rep.map_or(Json::Null, |r| u64::from(r).into())),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("self_ns", self_time_ns(spans, i).into()),
                    (
                        "counts",
                        Json::Obj(
                            s.counts
                                .iter()
                                .map(|(k, v)| (k.clone(), (*v).into()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            rep: None,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),       // child
            span("a.inner", 15, 35, Some(1)), // grandchild: not root's
            span("b", 40, 70, Some(0)),       // adjacent to a
            span("c", 90, 100, Some(0)),      // ends with the parent
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 30 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 20);
        assert_eq!(self_time_ns(&spans, 2), 20);
        assert!((child_coverage(&spans, 0) - 0.70).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 50, 80, Some(0)),
            span("inside_a", 20, 30, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 70);
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_silent_when_disabled() {
        let mut rec = Recorder::new(true);
        rec.enter("root", None);
        rec.span("child", Some(3), |rec| rec.span("leaf", Some(3), |_| ()));
        rec.enter("sibling", None);
        rec.exit(&[("n", 7)]);
        rec.exit(&[]);
        let s = rec.spans();
        let parents: Vec<_> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert_eq!(s[1].rep, Some(3));
        assert_eq!(s[3].counts, [("n".to_string(), 7)]);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[3].end_ns);

        let mut off = Recorder::new(false);
        off.span("x", None, |_| ());
        assert!(off.spans().is_empty());
    }
}
