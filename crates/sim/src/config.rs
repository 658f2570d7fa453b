//! Fleet simulation configuration and per-platform calibration.
//!
//! The paper's dataset is proprietary; the simulator substitutes it with a
//! synthetic fleet whose *statistical shape* is calibrated to the published
//! aggregates (Table I rates, Fig. 4 fault-mode mixes, Fig. 5 bit-pattern
//! signatures). Every knob lives here so the calibration is auditable.

use crate::ras::RasPolicy;
use mfp_dram::geometry::Platform;
use mfp_dram::time::SimDuration;

/// Which population a simulated DIMM belongs to.
///
/// The fleet generator draws each DIMM's category first, then samples faults
/// consistent with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimmCategory {
    /// Stable fault(s) only: produces CEs, never a UE.
    Benign,
    /// A degrading fault that may escalate to a (predictable) UE.
    Degrading,
    /// An instant catastrophic fault: UE with no actionable CE warning.
    Sudden,
}

/// Probability mix over [`DimmCategory`] for one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryMix {
    /// Fraction of benign DIMMs.
    pub benign: f64,
    /// Fraction of degrading DIMMs.
    pub degrading: f64,
    /// Fraction of sudden-failure DIMMs.
    pub sudden: f64,
}

impl CategoryMix {
    /// Validates that the mix sums to ~1.
    pub fn is_normalized(&self) -> bool {
        (self.benign + self.degrading + self.sudden - 1.0).abs() < 1e-9
    }
}

/// Mix over spatial fault modes used when sampling a fault.
///
/// Weights need not sum to one; they are normalized at sampling time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModeMix {
    /// Single-cell faults.
    pub cell: f64,
    /// Single-row faults.
    pub row: f64,
    /// Single-column faults.
    pub column: f64,
    /// Whole-bank faults.
    pub bank: f64,
    /// Whole-device (chip I/O) faults.
    pub device: f64,
}

/// Temporal behaviour of degrading faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Initial per-bit error probability at fault onset.
    pub base_severity: f64,
    /// Severity doubling time in days.
    pub growth_tau_days: f64,
    /// Severity ceiling.
    pub max_severity: f64,
    /// Probability that a degrading fault plateaus before causing a UE
    /// (irreducible prediction noise: these look risky but never fail).
    pub stall_prob: f64,
    /// Severity at which a plateaued fault stops growing.
    pub stall_severity: f64,
    /// Halving time (days) of a stalled fault's severity.
    pub stall_decay_tau_days: f64,
    /// Probability that a degrading fault spreads to a second device
    /// (connector / shared-I/O path) once severe.
    pub spread_prob: f64,
    /// Severity threshold that triggers the spread.
    pub spread_severity: f64,
}

/// Bit-pattern signature knobs for one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternConfig {
    /// Probability that a degrading fault carries the stride-4 beat-mask
    /// signature (column-select defect): beats {b, b+4}.
    pub stride4_prob: f64,
    /// Probability that a stride-4 mask lands on odd (weakened) beats —
    /// only meaningful on Purley where odd beats have reduced protection.
    pub stride4_odd_prob: f64,
    /// Probability that a degrading fault is device-wide (all 4 DQs).
    pub device_wide_prob: f64,
    /// Fraction of *benign* faults that mimic the risky signature
    /// (false-positive pressure for the predictor).
    pub mimic_prob: f64,
}

/// Full configuration of one platform's sub-fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// The platform being simulated.
    pub platform: Platform,
    /// Number of DIMMs that experience CEs (the paper's study population).
    pub dimms_with_ces: usize,
    /// Additional DIMMs whose only event is a sudden UE (no prior CEs).
    pub sudden_only_dimms: usize,
    /// Category mix among the CE population.
    pub categories: CategoryMix,
    /// Fault-mode mix for benign faults.
    pub benign_modes: FaultModeMix,
    /// Fault-mode mix for degrading faults.
    pub degrading_modes: FaultModeMix,
    /// Degradation dynamics.
    pub degradation: DegradationConfig,
    /// Bit-pattern signatures.
    pub patterns: PatternConfig,
    /// Fraction of x8-width DIMMs (remainder are x4).
    pub x8_fraction: f64,
    /// Mean extra benign faults per DIMM (Poisson).
    pub extra_fault_lambda: f64,
}

/// Whole-fleet simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Per-platform sub-fleets.
    pub platforms: Vec<PlatformConfig>,
    /// Simulated observation horizon.
    pub horizon: SimDuration,
    /// Master RNG seed: every run with the same config is identical.
    pub seed: u64,
    /// CE-storm threshold: CE interrupts per minute that trigger a storm
    /// event and logging suppression.
    pub storm_threshold: u32,
    /// How long CE logging stays suppressed after a storm.
    pub storm_suppression: SimDuration,
    /// Optional RAS mitigation policy (page offlining + PPR). The
    /// calibrated fleets leave this off — survivorship effects are baked
    /// into the benign population instead; turn it on for the RAS
    /// ablation.
    pub ras: Option<RasPolicy>,
}

impl FleetConfig {
    /// The calibrated three-platform fleet at a given scale.
    ///
    /// `scale` divides the paper's population sizes (Table I: Purley >50k /
    /// Whitley >10k / K920 >30k DIMMs with CEs). `scale = 1.0` reproduces
    /// the full population; `scale = 20.0` is a laptop-friendly 1:20 fleet.
    pub fn calibrated(scale: f64, seed: u64) -> Self {
        assert!(scale >= 1.0, "scale must be >= 1");
        let s = |n: usize, floor: usize| ((n as f64 / scale).round() as usize).max(floor);
        FleetConfig {
            platforms: vec![
                PlatformConfig::purley(s(50_000, 50), s(540, 2)),
                PlatformConfig::whitley(s(10_000, 50), s(220, 2)),
                PlatformConfig::k920(s(30_000, 50), s(100, 2)),
            ],
            horizon: SimDuration::days(270),
            seed,
            storm_threshold: 10,
            storm_suppression: SimDuration::hours(1),
            ras: None,
        }
    }

    /// The fleet used for prediction experiments (Table II): per-platform
    /// scales chosen so every platform has enough UE DIMMs in the test
    /// window for stable metrics, while staying laptop-sized. Per-DIMM
    /// rates (and therefore Table I proportions) are unaffected by scale.
    pub fn experiment(seed: u64) -> Self {
        let mut cfg = FleetConfig::calibrated(10.0, seed);
        for pc in &mut cfg.platforms {
            match pc.platform {
                Platform::IntelPurley => {}
                Platform::IntelWhitley => {
                    // 1:2 instead of 1:10.
                    pc.dimms_with_ces = 5_000;
                    pc.sudden_only_dimms = 110;
                }
                Platform::K920 => {
                    // 1:6 instead of 1:10.
                    pc.dimms_with_ces = 5_000;
                    pc.sudden_only_dimms = 17;
                }
            }
        }
        cfg
    }

    /// A small smoke-test fleet (hundreds of DIMMs, fast to simulate).
    pub fn smoke(seed: u64) -> Self {
        let mut cfg = FleetConfig::calibrated(200.0, seed);
        cfg.horizon = SimDuration::days(120);
        cfg
    }

    /// The sub-fleet configuration for `platform`, if present.
    pub fn platform(&self, platform: Platform) -> Option<&PlatformConfig> {
        self.platforms.iter().find(|p| p.platform == platform)
    }
}

impl PlatformConfig {
    /// Calibrated Intel Purley sub-fleet.
    ///
    /// Targets: ~4% of CE DIMMs reach UE; 73% of UE DIMMs predictable;
    /// single-device faults dominate UEs (Finding 2); risky CE signature =
    /// 2 DQ / 2 beats / 4-beat interval (Fig. 5).
    pub fn purley(dimms_with_ces: usize, sudden_only_dimms: usize) -> Self {
        PlatformConfig {
            platform: Platform::IntelPurley,
            dimms_with_ces,
            sudden_only_dimms,
            categories: CategoryMix {
                benign: 0.947,
                degrading: 0.053,
                sudden: 0.0,
            },
            benign_modes: FaultModeMix {
                cell: 0.66,
                row: 0.12,
                column: 0.10,
                bank: 0.07,
                device: 0.05,
            },
            degrading_modes: FaultModeMix {
                cell: 0.08,
                row: 0.38,
                column: 0.16,
                bank: 0.30,
                device: 0.08,
            },
            degradation: DegradationConfig {
                base_severity: 0.05,
                growth_tau_days: 12.0,
                max_severity: 0.95,
                stall_prob: 0.20,
                stall_severity: 0.06,
                stall_decay_tau_days: 18.0,
                spread_prob: 0.10,
                spread_severity: 0.30,
            },
            patterns: PatternConfig {
                stride4_prob: 0.70,
                stride4_odd_prob: 0.75,
                device_wide_prob: 0.10,
                mimic_prob: 0.005,
            },
            x8_fraction: 0.08,
            extra_fault_lambda: 0.25,
        }
    }

    /// Calibrated Intel Whitley sub-fleet.
    ///
    /// Targets: ~4% UE rate but only 42% predictable; UEs dominated by
    /// multi-device faults; risky CE signature = 4 error DQs / 5 error
    /// beats, intervals not significant (Fig. 5).
    pub fn whitley(dimms_with_ces: usize, sudden_only_dimms: usize) -> Self {
        PlatformConfig {
            platform: Platform::IntelWhitley,
            dimms_with_ces,
            sudden_only_dimms,
            categories: CategoryMix {
                benign: 0.966,
                degrading: 0.034,
                sudden: 0.0,
            },
            benign_modes: FaultModeMix {
                cell: 0.60,
                row: 0.13,
                column: 0.10,
                bank: 0.09,
                device: 0.08,
            },
            degrading_modes: FaultModeMix {
                cell: 0.04,
                row: 0.22,
                column: 0.08,
                bank: 0.26,
                device: 0.40,
            },
            degradation: DegradationConfig {
                base_severity: 0.05,
                growth_tau_days: 10.0,
                max_severity: 0.95,
                stall_prob: 0.45,
                stall_severity: 0.08,
                stall_decay_tau_days: 18.0,
                spread_prob: 0.85,
                spread_severity: 0.20,
            },
            patterns: PatternConfig {
                stride4_prob: 0.15,
                stride4_odd_prob: 0.50,
                device_wide_prob: 0.60,
                mimic_prob: 0.012,
            },
            x8_fraction: 0.05,
            extra_fault_lambda: 0.25,
        }
    }

    /// Calibrated K920 sub-fleet.
    ///
    /// Targets: ~2% UE rate, 82% predictable; multi-device faults dominate
    /// UEs; fewer sudden failures than either Intel platform.
    pub fn k920(dimms_with_ces: usize, sudden_only_dimms: usize) -> Self {
        PlatformConfig {
            platform: Platform::K920,
            dimms_with_ces,
            sudden_only_dimms,
            categories: CategoryMix {
                benign: 0.968,
                degrading: 0.032,
                sudden: 0.0,
            },
            benign_modes: FaultModeMix {
                cell: 0.64,
                row: 0.12,
                column: 0.10,
                bank: 0.08,
                device: 0.06,
            },
            degrading_modes: FaultModeMix {
                cell: 0.05,
                row: 0.25,
                column: 0.10,
                bank: 0.28,
                device: 0.32,
            },
            degradation: DegradationConfig {
                base_severity: 0.05,
                growth_tau_days: 12.0,
                max_severity: 0.95,
                stall_prob: 0.32,
                stall_severity: 0.07,
                stall_decay_tau_days: 18.0,
                spread_prob: 0.80,
                spread_severity: 0.22,
            },
            patterns: PatternConfig {
                stride4_prob: 0.20,
                stride4_odd_prob: 0.50,
                device_wide_prob: 0.50,
                mimic_prob: 0.012,
            },
            x8_fraction: 0.04,
            extra_fault_lambda: 0.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_includes_all_platforms() {
        let cfg = FleetConfig::calibrated(20.0, 1);
        assert_eq!(cfg.platforms.len(), 3);
        for p in Platform::ALL {
            assert!(cfg.platform(p).is_some(), "{p} missing");
        }
    }

    #[test]
    fn category_mixes_are_normalized() {
        for pc in FleetConfig::calibrated(20.0, 1).platforms {
            assert!(pc.categories.is_normalized(), "{}", pc.platform);
        }
    }

    #[test]
    fn scale_divides_population() {
        let full = FleetConfig::calibrated(1.0, 1);
        let tenth = FleetConfig::calibrated(10.0, 1);
        let n_full = full.platform(Platform::IntelPurley).unwrap().dimms_with_ces;
        let n_tenth = tenth
            .platform(Platform::IntelPurley)
            .unwrap()
            .dimms_with_ces;
        assert_eq!(n_full, 50_000);
        assert_eq!(n_tenth, 5_000);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_fractional_upscale() {
        let _ = FleetConfig::calibrated(0.5, 1);
    }

    #[test]
    fn population_floor_applies() {
        let cfg = FleetConfig::calibrated(10_000.0, 1);
        for pc in &cfg.platforms {
            assert!(pc.dimms_with_ces >= 50);
        }
    }

    #[test]
    fn ue_rate_targets_match_table1_shape() {
        // Sanity on the calibration itself: P(UE) ordering and the
        // predictable share ordering follow Table I.
        let cfg = FleetConfig::calibrated(1.0, 1);
        let p = cfg.platform(Platform::IntelPurley).unwrap();
        let w = cfg.platform(Platform::IntelWhitley).unwrap();
        let k = cfg.platform(Platform::K920).unwrap();
        // Degrading share (predictable UE source): Purley > Whitley ~ K920.
        assert!(p.categories.degrading > w.categories.degrading);
        assert!(p.categories.degrading > k.categories.degrading);
        // Sudden-only populations relative to UE counts: Whitley largest.
        let sudden_share = |pc: &PlatformConfig| {
            let predictable = pc.dimms_with_ces as f64 * pc.categories.degrading;
            pc.sudden_only_dimms as f64 / (predictable + pc.sudden_only_dimms as f64)
        };
        assert!(sudden_share(w) > sudden_share(p));
        assert!(sudden_share(p) > sudden_share(k));
    }
}
