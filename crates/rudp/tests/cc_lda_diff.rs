//! Differential test of the LDA [`CcController`] against the
//! pre-refactor implementation.
//!
//! No change to congestion control may move LDA's trajectories by a
//! single bit: the determinism fingerprints, the telemetry streams, and
//! the model checker's pinned explored-state counts all hang off them.
//! `ReferenceLda` below is the pre-refactor `LdaWindow` copied verbatim
//! (config flags and all); the property drives it and the controller
//! through identical period / timeout / scale sequences and requires
//! bit-identical windows after every step.

use iq_rudp::{CcAlgorithm, CcController, NetCond};
use proptest::{prop, prop_assert_eq, proptest, ProptestConfig};

/// The pre-refactor `LdaWindow`, verbatim (including the `enabled` /
/// `fixed_cwnd` flag-soup it replaced), serving as the reference model.
mod reference {
    pub struct RefConfig {
        pub initial_cwnd: f64,
        pub min_cwnd: f64,
        pub max_cwnd: f64,
        pub incr_per_period: f64,
        pub beta: f64,
        pub enabled: bool,
        pub fixed_cwnd: f64,
    }

    impl Default for RefConfig {
        fn default() -> Self {
            Self {
                initial_cwnd: 2.0,
                min_cwnd: 1.0,
                max_cwnd: 1024.0,
                incr_per_period: 1.0,
                beta: 2.0,
                enabled: true,
                fixed_cwnd: 64.0,
            }
        }
    }

    pub struct ReferenceLda {
        cfg: RefConfig,
        cwnd: f64,
    }

    impl ReferenceLda {
        pub fn new(cfg: RefConfig) -> Self {
            let cwnd = if cfg.enabled {
                cfg.initial_cwnd
            } else {
                cfg.fixed_cwnd
            };
            Self { cfg, cwnd }
        }

        pub fn cwnd(&self) -> f64 {
            self.cwnd
        }

        pub fn cwnd_segments(&self) -> u32 {
            (self.cwnd.round() as u32).max(1)
        }

        fn clamp(&mut self) {
            self.cwnd = self.cwnd.clamp(self.cfg.min_cwnd, self.cfg.max_cwnd);
        }

        pub fn on_period(&mut self, loss_ratio: f64) -> f64 {
            if !self.cfg.enabled {
                return self.cwnd;
            }
            if loss_ratio <= 0.0 {
                self.cwnd += self.cfg.incr_per_period;
            } else {
                let factor = (1.0 - self.cfg.beta * loss_ratio.sqrt()).max(0.5);
                self.cwnd *= factor;
            }
            self.clamp();
            self.cwnd
        }

        pub fn on_timeout(&mut self) -> f64 {
            if !self.cfg.enabled {
                return self.cwnd;
            }
            self.cwnd *= 0.5;
            self.clamp();
            self.cwnd
        }

        pub fn scale(&mut self, factor: f64) -> f64 {
            if factor.is_finite() && factor > 0.0 {
                self.cwnd *= factor;
                self.clamp();
            }
            self.cwnd
        }
    }
}

use reference::{RefConfig, ReferenceLda};

fn cond_with_loss(eratio: f64) -> NetCond {
    NetCond {
        eratio,
        ..NetCond::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same loss sequences → identical cwnd trajectories, bit for bit.
    #[test]
    fn trait_lda_matches_pre_refactor_lda(
        ops in prop::collection::vec((0u32..3, 0.0f64..1.2), 1..600),
    ) {
        let mut model = ReferenceLda::new(RefConfig::default());
        let mut cc = CcController::new(&CcAlgorithm::Lda);
        prop_assert_eq!(model.cwnd().to_bits(), cc.cwnd().to_bits());

        for &(op, x) in &ops {
            let (want, got) = match op {
                // Period boundary: x doubles as the loss ratio (values
                // slightly above 1 exercise the decrease floor).
                0 => (model.on_period(x), cc.on_period(&cond_with_loss(x))),
                // Retransmission timeout.
                1 => (model.on_timeout(), cc.on_timeout()),
                // Coordination rescale, spanning shrink, grow, and the
                // degenerate factors `scale` must ignore.
                _ => {
                    let factor = if x < 0.1 {
                        f64::NAN // ignored by both
                    } else {
                        x * 2.0 - 0.2 // ~[0, 2.2], includes <= 0
                    };
                    (model.scale(factor), cc.scale(factor))
                }
            };
            prop_assert_eq!(want.to_bits(), got.to_bits());
            prop_assert_eq!(model.cwnd().to_bits(), cc.cwnd().to_bits());
            prop_assert_eq!(model.cwnd_segments(), cc.cwnd_segments());
        }
    }

    /// The old `enabled: false` mode maps onto `CcAlgorithm::Fixed`
    /// with the same step-for-step behaviour.
    #[test]
    fn fixed_controller_matches_disabled_lda(
        pinned in 1.0f64..256.0,
        ops in prop::collection::vec((0u32..3, 0.0f64..1.2), 1..200),
    ) {
        let mut model = ReferenceLda::new(RefConfig {
            enabled: false,
            fixed_cwnd: pinned,
            ..RefConfig::default()
        });
        let mut cc = CcController::new(&CcAlgorithm::Fixed { cwnd: pinned });
        for &(op, x) in &ops {
            let (want, got) = match op {
                0 => (model.on_period(x), cc.on_period(&cond_with_loss(x))),
                1 => (model.on_timeout(), cc.on_timeout()),
                _ => (model.scale(x * 2.0), cc.scale(x * 2.0)),
            };
            prop_assert_eq!(want.to_bits(), got.to_bits());
        }
    }
}
