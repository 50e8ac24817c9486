//! Wall-clock phase profiler for the sharded-simulation worker loop.
//!
//! Each shard owns one [`PhaseProfiler`]; the worker calls
//! [`PhaseProfiler::enter`] at phase boundaries (a handful of
//! `Instant::now()` calls per lookahead window, never per event). The
//! resulting breakdown answers the question the flat shard-scaling
//! curve could not: is a shard executing, flushing, draining ingress,
//! or lookahead-limited idle?
//!
//! Phase times are wall-clock and therefore live on the *engine* plane:
//! they are reported and recorded but never fingerprinted.

use std::time::Instant;

pub const PHASES: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Lookahead-limited (neighbor clocks too far behind) or not
    /// scheduled on a worker thread.
    Idle = 0,
    /// Draining cross-shard ingress mailboxes.
    Ingress = 1,
    /// Executing local events inside `run_window`.
    Execute = 2,
    /// Flushing the egress outbox to neighbor mailboxes.
    Flush = 3,
}

pub const PHASE_NAMES: [&str; PHASES] = ["idle", "ingress", "execute", "flush"];

#[derive(Debug)]
pub struct PhaseProfiler {
    current: Phase,
    since: Option<Instant>,
    nanos: [u64; PHASES],
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseProfiler {
    pub fn new() -> Self {
        PhaseProfiler {
            current: Phase::Idle,
            since: None,
            nanos: [0; PHASES],
        }
    }

    /// Close the current phase and start `phase`. The first call starts
    /// the clock without attributing the time before it.
    #[inline]
    pub fn enter(&mut self, phase: Phase) {
        let now = Instant::now();
        if let Some(since) = self.since {
            self.nanos[self.current as usize] += now.duration_since(since).as_nanos() as u64;
        }
        self.current = phase;
        self.since = Some(now);
    }

    /// Close the current phase and stop the clock.
    pub fn finish(&mut self) {
        if let Some(since) = self.since.take() {
            self.nanos[self.current as usize] +=
                Instant::now().duration_since(since).as_nanos() as u64;
        }
        self.current = Phase::Idle;
    }

    pub fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot { nanos: self.nanos }
    }
}

/// Accumulated per-phase wall time for one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    pub nanos: [u64; PHASES],
}

impl PhaseSnapshot {
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Percentage of total time in `phase` (0 when nothing recorded).
    pub fn percent(&self, phase: Phase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.nanos[phase as usize] as f64 * 100.0 / total as f64
        }
    }

    /// One-line human summary, e.g. `exec 62.1% flush 3.0% ingress 1.2% idle 33.7%`.
    pub fn brief(&self) -> String {
        format!(
            "exec {:.1}% flush {:.1}% ingress {:.1}% idle {:.1}%",
            self.percent(Phase::Execute),
            self.percent(Phase::Flush),
            self.percent(Phase::Ingress),
            self.percent(Phase::Idle),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_time_to_phases() {
        let mut p = PhaseProfiler::new();
        p.enter(Phase::Execute);
        std::hint::black_box((0..10_000).sum::<u64>());
        p.enter(Phase::Flush);
        p.finish();
        let snap = p.snapshot();
        assert!(snap.total_nanos() > 0);
        assert!(snap.nanos[Phase::Execute as usize] > 0);
        // idle was never entered after the clock started
        assert_eq!(snap.nanos[Phase::Ingress as usize], 0);
        let _ = snap.brief();
    }
}
