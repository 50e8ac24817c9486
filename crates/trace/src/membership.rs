//! Synthetic MBone-style membership dynamics.
//!
//! Figure 1 of the paper drives both the changing-application workload and
//! the VBR cross traffic from an MBone trace of multicast group size over
//! time. The original trace is not available, so this module synthesizes a
//! series with the same qualitative structure: a slowly drifting baseline
//! audience, short bursts of joins (session announcements) and leaves, and
//! occasional quiet periods — i.e. "constant and very fast changes in
//! rate" (§3.3) at the frame level.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-step probability of a join/leave burst starting.
const BURST_PROB: f64 = 0.02;

/// Mean-reversion factor per step toward the baseline.
const REVERSION: f64 = 0.02;

/// Per-step random walk standard deviation, members.
const WALK_SD: f64 = 1.2;

/// Inclusive lower clamp on group size: a session has its sender.
const MIN_MEMBERS: u32 = 1;

/// Tunables for [`MembershipTrace::generate`]. Two parameter sets are in
/// use: the default (base 12, burst 10, max 45), Figure 1's trace and the
/// VBR cross traffic's, and the application frames' (base 3, burst 3,
/// max 10; `iq_experiments::app_frame_sizes`).
#[derive(Debug, Clone)]
pub struct MembershipConfig {
    /// RNG seed; equal seeds give identical traces.
    pub seed: u64,
    /// Number of samples (one per application frame).
    pub len: usize,
    /// Baseline group size the series reverts toward.
    pub base: f64,
    /// Mean burst amplitude in members (sign chosen randomly).
    pub burst_scale: f64,
    /// Inclusive upper clamp on group size.
    pub max: u32,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        Self {
            seed: 0x4d42_6f6e, // "MBon"
            len: 2000,
            base: 12.0,
            burst_scale: 10.0,
            max: 45,
        }
    }
}

/// A multicast group-size series, one sample per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipTrace {
    /// Group size per frame index.
    pub samples: Vec<u32>,
}

impl MembershipTrace {
    /// Generates a trace from `cfg`; deterministic in `cfg.seed`.
    pub fn generate(cfg: &MembershipConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut samples = Vec::with_capacity(cfg.len);
        let mut level = cfg.base;
        // An active burst decays geometrically; `burst` holds its
        // remaining amplitude (signed).
        let mut burst = 0.0f64;
        for _ in 0..cfg.len {
            if rng.gen::<f64>() < BURST_PROB {
                let magnitude = cfg.burst_scale * (0.5 + rng.gen::<f64>());
                burst += if rng.gen::<bool>() {
                    magnitude
                } else {
                    -magnitude
                };
            }
            burst *= 0.9;
            // Box-Muller-free gaussian-ish step: sum of uniforms (CLT).
            let noise: f64 = (0..4).map(|_| rng.gen::<f64>()).sum::<f64>() - 2.0;
            level += WALK_SD * noise;
            level += REVERSION * (cfg.base - level);
            let value = (level + burst)
                .round()
                .clamp(MIN_MEMBERS as f64, cfg.max as f64);
            samples.push(value as u32);
        }
        Self { samples }
    }

    /// The paper's default trace used for the changing-application tests.
    pub fn paper_default() -> Self {
        Self::generate(&MembershipConfig::default())
    }

    /// Frame sizes in bytes: group size times `bytes_per_member`.
    ///
    /// The paper uses 3000 B/member for application traffic (§3.1). The
    /// VBR cross traffic scales its own trace to a target rate instead
    /// (`iq_experiments::VbrSpec::frame_sizes`).
    pub fn frame_sizes(&self, bytes_per_member: u32) -> Vec<u32> {
        self.samples
            .iter()
            .map(|&g| g.saturating_mul(bytes_per_member))
            .collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = MembershipConfig::default();
        assert_eq!(
            MembershipTrace::generate(&cfg),
            MembershipTrace::generate(&cfg)
        );
        let other = MembershipConfig {
            seed: 99,
            ..MembershipConfig::default()
        };
        assert_ne!(
            MembershipTrace::generate(&cfg),
            MembershipTrace::generate(&other)
        );
    }

    #[test]
    fn respects_bounds() {
        let cfg = MembershipConfig {
            max: 20,
            ..MembershipConfig::default()
        };
        let t = MembershipTrace::generate(&cfg);
        assert!(t.samples.iter().all(|&g| (MIN_MEMBERS..=20).contains(&g)));
        assert_eq!(t.len(), cfg.len);
    }

    #[test]
    fn has_visible_dynamics() {
        let t = MembershipTrace::paper_default();
        let min = *t.samples.iter().min().unwrap();
        let max = *t.samples.iter().max().unwrap();
        assert!(max - min >= 10, "trace too flat: {min}..{max}");
        // Changes happen frequently: at least a third of steps move.
        let moves = t.samples.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(moves * 3 >= t.len(), "only {moves} moves in {}", t.len());
    }

    #[test]
    fn frame_sizes_scale_members() {
        let t = MembershipTrace {
            samples: vec![1, 5, 10],
        };
        assert_eq!(t.frame_sizes(3000), vec![3000, 15000, 30000]);
    }
}
