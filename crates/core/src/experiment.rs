//! The prediction experiment driver: the protocol behind Table II and the
//! ablation studies.

use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::dataset::{build_samples, SampleSet};
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_ml::metrics::{best_vote_threshold, vote_evaluation, Evaluation};
use mfp_ml::model::{Algorithm, Model};
use mfp_sim::fleet::FleetResult;

/// Experiment protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Problem formulation (windows, lead time, sample grid).
    pub problem: ProblemConfig,
    /// Fault-classification thresholds.
    pub thresholds: FaultThresholds,
    /// End of the model-fitting period.
    pub fit_until: SimTime,
    /// End of the threshold-tuning (validation) period; test follows.
    pub validate_until: SimTime,
    /// Keep every `negative_keep`-th negative sample when fitting.
    pub negative_keep: usize,
    /// Extra negative thinning for the FT-Transformer (compute budget).
    pub ft_extra_keep: usize,
    /// Consecutive above-threshold scores required for a DIMM alarm.
    pub votes: usize,
    /// Training seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            problem: ProblemConfig::default(),
            thresholds: FaultThresholds::default(),
            fit_until: SimTime::ZERO + SimDuration::days(105),
            validate_until: SimTime::ZERO + SimDuration::days(188),
            negative_keep: 8,
            ft_extra_keep: 3,
            votes: 2,
            seed: 17,
        }
    }
}

/// One Table II cell group: an algorithm's evaluation on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoResult {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Platform evaluated on.
    pub platform: Platform,
    /// DIMM-level evaluation on the test period.
    pub evaluation: Evaluation,
    /// Whether the paper reports this combination (`X` entries are absent
    /// for the rule-based baseline outside Purley).
    pub reported_in_paper: bool,
}

/// The materialized splits of one platform's data.
#[derive(Debug, Clone)]
pub struct PlatformSplits {
    /// Samples for model fitting (negatives downsampled).
    pub fit: SampleSet,
    /// Threshold-tuning window (full density).
    pub validation: SampleSet,
    /// Held-out test window (full density).
    pub test: SampleSet,
}

/// Builds fit/validation/test splits for one platform.
pub fn build_splits(
    fleet: &FleetResult,
    platform: Platform,
    cfg: &ExperimentConfig,
) -> PlatformSplits {
    let all = build_samples(fleet, platform, &cfg.problem, &cfg.thresholds);
    let (fitval, test) = all.split_by_time(cfg.validate_until);
    let (fit_full, validation) = fitval.split_by_time(cfg.fit_until);
    PlatformSplits {
        fit: fit_full.downsample_negatives(cfg.negative_keep),
        validation,
        test,
    }
}

/// Trains one algorithm on prepared splits and evaluates it DIMM-level.
pub fn evaluate_algorithm(
    algorithm: Algorithm,
    splits: &PlatformSplits,
    platform: Platform,
    cfg: &ExperimentConfig,
) -> AlgoResult {
    let train = if algorithm == Algorithm::FtTransformer {
        splits.fit.downsample_negatives(cfg.ft_extra_keep)
    } else {
        splits.fit.clone()
    };
    let model = Model::train_seeded(algorithm, &train, cfg.seed);
    let val_scores = model.predict_set(&splits.validation);
    let threshold = best_vote_threshold(&splits.validation, &val_scores, cfg.votes);
    let test_scores = model.predict_set(&splits.test);
    let evaluation = vote_evaluation(&splits.test, &test_scores, threshold, cfg.votes);
    AlgoResult {
        algorithm,
        platform,
        evaluation,
        reported_in_paper: algorithm != Algorithm::RiskyCePattern
            || platform == Platform::IntelPurley,
    }
}

/// Feature families for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureFamily {
    /// Temporal CE counts / recency.
    Temporal,
    /// Spatial dispersion in the DRAM hierarchy.
    Spatial,
    /// Fault-mode flags.
    FaultModes,
    /// Error-bit (DQ/beat) statistics, per-event and accumulated.
    ErrorBits,
    /// Static DIMM configuration.
    Static,
}

impl FeatureFamily {
    /// All families.
    pub const ALL: [FeatureFamily; 5] = [
        FeatureFamily::Temporal,
        FeatureFamily::Spatial,
        FeatureFamily::FaultModes,
        FeatureFamily::ErrorBits,
        FeatureFamily::Static,
    ];

    /// Whether a feature (by schema name) belongs to the family.
    pub fn contains(self, name: &str) -> bool {
        match self {
            FeatureFamily::Temporal => {
                name.starts_with("ce_") || name.starts_with("storms_") || name.contains("since")
            }
            FeatureFamily::Spatial => {
                name.ends_with("_5d")
                    && (name.starts_with("banks")
                        || name.starts_with("rows")
                        || name.starts_with("cols")
                        || name.starts_with("cells")
                        || name.starts_with("max_cell"))
            }
            FeatureFamily::FaultModes => name.starts_with("fault_"),
            FeatureFamily::ErrorBits => name.starts_with("eb") || name.starts_with("trend_"),
            FeatureFamily::Static => {
                name.starts_with("mfr_")
                    || name.starts_with("process_")
                    || name == "width_x8"
                    || name == "freq_norm"
                    || name == "capacity_norm"
                    || name == "ranks"
            }
        }
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            FeatureFamily::Temporal => "temporal",
            FeatureFamily::Spatial => "spatial",
            FeatureFamily::FaultModes => "fault-modes",
            FeatureFamily::ErrorBits => "error-bits",
            FeatureFamily::Static => "static",
        }
    }
}

/// Returns a copy of `set` with one feature family zeroed out.
pub fn ablate_family(set: &SampleSet, family: FeatureFamily) -> SampleSet {
    let mut out = set.clone();
    let cols: Vec<usize> = set
        .schema
        .iter()
        .enumerate()
        .filter(|(_, n)| family.contains(n))
        .map(|(i, _)| i)
        .collect();
    let d = set.dim();
    for i in 0..out.len() {
        for &c in &cols {
            out.features[i * d + c] = 0.0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_features::extract::feature_names;
    use mfp_sim::config::FleetConfig;
    use mfp_sim::fleet::simulate_fleet;

    #[test]
    fn every_feature_belongs_to_exactly_one_family() {
        for name in feature_names() {
            let n = FeatureFamily::ALL
                .iter()
                .filter(|f| f.contains(&name))
                .count();
            assert_eq!(n, 1, "{name} is in {n} families");
        }
    }

    #[test]
    fn ablation_zeroes_only_family_columns() {
        let fleet = simulate_fleet(&FleetConfig::smoke(3));
        let cfg = ExperimentConfig {
            fit_until: SimTime::ZERO + SimDuration::days(50),
            validate_until: SimTime::ZERO + SimDuration::days(80),
            ..Default::default()
        };
        let splits = build_splits(&fleet, Platform::IntelPurley, &cfg);
        let ablated = ablate_family(&splits.fit, FeatureFamily::Static);
        assert_eq!(ablated.len(), splits.fit.len());
        let d = splits.fit.dim();
        let names = feature_names();
        #[allow(clippy::needless_range_loop)]
        for i in 0..ablated.len().min(20) {
            for c in 0..d {
                if FeatureFamily::Static.contains(&names[c]) {
                    assert_eq!(ablated.features[i * d + c], 0.0);
                } else {
                    assert_eq!(ablated.features[i * d + c], splits.fit.features[i * d + c]);
                }
            }
        }
    }

    #[test]
    fn splits_partition_by_time() {
        let fleet = simulate_fleet(&FleetConfig::smoke(5));
        let cfg = ExperimentConfig {
            fit_until: SimTime::ZERO + SimDuration::days(50),
            validate_until: SimTime::ZERO + SimDuration::days(80),
            ..Default::default()
        };
        let splits = build_splits(&fleet, Platform::IntelPurley, &cfg);
        assert!(splits.fit.times.iter().all(|&t| t < cfg.fit_until));
        assert!(splits
            .validation
            .times
            .iter()
            .all(|&t| t >= cfg.fit_until && t < cfg.validate_until));
        assert!(splits.test.times.iter().all(|&t| t >= cfg.validate_until));
    }

    #[test]
    fn baseline_evaluates_on_smoke_fleet() {
        let fleet = simulate_fleet(&FleetConfig::smoke(7));
        let cfg = ExperimentConfig {
            fit_until: SimTime::ZERO + SimDuration::days(50),
            validate_until: SimTime::ZERO + SimDuration::days(80),
            ..Default::default()
        };
        let splits = build_splits(&fleet, Platform::IntelPurley, &cfg);
        let res = evaluate_algorithm(
            Algorithm::RiskyCePattern,
            &splits,
            Platform::IntelPurley,
            &cfg,
        );
        assert!(res.reported_in_paper);
        assert!(res.evaluation.precision >= 0.0 && res.evaluation.precision <= 1.0);
    }

    #[test]
    fn risky_ce_only_reported_on_purley() {
        let fleet = simulate_fleet(&FleetConfig::smoke(7));
        let cfg = ExperimentConfig {
            fit_until: SimTime::ZERO + SimDuration::days(50),
            validate_until: SimTime::ZERO + SimDuration::days(80),
            ..Default::default()
        };
        let splits = build_splits(&fleet, Platform::K920, &cfg);
        let res = evaluate_algorithm(Algorithm::RiskyCePattern, &splits, Platform::K920, &cfg);
        assert!(!res.reported_in_paper);
    }
}
