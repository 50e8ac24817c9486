//! Engine introspection for the IQ-RUDP workspace.
//!
//! This crate is deliberately dependency-free and sits below `netsim`,
//! `rudp`, and `experiments` in the crate graph. It provides:
//!
//! - plain-`u64` counter cells, which hot paths bump in place
//!   (`cell += 1`) — never an atomic or a hash map; each shard/component
//!   owns its own cells and they are merged in deterministic
//!   (shard-index) order at collection time;
//! - [`hist::Hist`], a log-linear (HDR-style) histogram whose merge is
//!   element-wise and therefore associative and commutative;
//! - [`profile::PhaseProfiler`], a wall-clock phase timer for the
//!   sharded-simulation worker loop (idle / ingress / execute / flush);
//! - [`registry::Registry`], the pull-model metric registry components
//!   report into after a run, split into two planes:
//!   [`registry::Plane::Sim`] for deterministic sim-time counters (folded
//!   into the determinism fingerprint) and [`registry::Plane::Engine`]
//!   for wall-clock / thread-schedule-dependent mechanics;
//! - [`expo`], Prometheus-style text exposition: the one form a
//!   registry leaves the process in.

pub mod expo;
pub mod hist;
pub mod profile;
pub mod registry;

pub use hist::Hist;
pub use profile::{Phase, PhaseProfiler, PhaseSnapshot};
pub use registry::{Metric, Plane, Registry, Value};

/// FNV-1a over a byte slice; same constants as the telemetry
/// fingerprint so counter digests read consistently in reports.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
