//! The CI/CD deployment pipeline (paper §VII): automated integration,
//! testing and promotion of newly trained models into production.
//!
//! A candidate passes three gates before promotion:
//!
//! 1. **Integration tests** — the model produces valid probabilities on a
//!    probe set and handles edge rows without panicking.
//! 2. **Benchmark gate** — DIMM-level F1 on the held-out benchmark must not
//!    regress against the current production model beyond a tolerance.
//! 3. **Canary evaluation** — the candidate is scored on the most recent
//!    window and its precision must clear a floor (VIRR would otherwise go
//!    negative in production).

use crate::registry::ModelRegistry;
use mfp_dram::geometry::Platform;
use mfp_dram::time::SimTime;
use mfp_features::dataset::SampleSet;
use mfp_ml::metrics::{best_vote_threshold, vote_evaluation};
use mfp_ml::model::{Algorithm, Model};

/// Pipeline gate configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Allowed F1 regression against production before rejection.
    pub f1_tolerance: f64,
    /// Minimum canary precision (below this VIRR turns negative fast).
    pub min_canary_precision: f64,
    /// Alarm votes used at evaluation (consecutive samples >= threshold).
    pub votes: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            f1_tolerance: 0.02,
            min_canary_precision: 0.12,
            votes: 2,
        }
    }
}

/// Outcome of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// Stage name.
    pub stage: String,
    /// Whether the gate passed.
    pub passed: bool,
    /// Human-readable detail.
    pub detail: String,
}

/// Outcome of a full pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Registry id of the candidate (present once registered).
    pub model_id: Option<u64>,
    /// Per-stage results, in execution order.
    pub stages: Vec<StageResult>,
    /// Whether the candidate reached production.
    pub deployed: bool,
}

/// Trains, validates and (when all gates pass) promotes a model.
///
/// `train` fits the model; `benchmark` tunes the threshold and measures the
/// registered evaluation; `canary` stands for the freshest window.
#[allow(clippy::too_many_arguments)] // the pipeline's stages each need their split
pub fn run_pipeline(
    registry: &ModelRegistry,
    cfg: &PipelineConfig,
    algorithm: Algorithm,
    platform: Platform,
    now: SimTime,
    train: &SampleSet,
    benchmark: &SampleSet,
    canary: &SampleSet,
) -> PipelineRun {
    let mut run = PipelineRun {
        model_id: None,
        stages: Vec::new(),
        deployed: false,
    };

    // Train the candidate.
    let model = Model::train(algorithm, train);

    // Gate 1: integration tests.
    let probe_ok = integration_test(&model, benchmark);
    run.stages.push(StageResult {
        stage: "integration".into(),
        passed: probe_ok,
        detail: if probe_ok {
            "probabilities valid on probe rows".into()
        } else {
            "invalid probability output".into()
        },
    });
    if !probe_ok {
        return run;
    }

    // Threshold tuning + benchmark evaluation.
    let scores = model.predict_set(benchmark);
    let threshold = best_vote_threshold(benchmark, &scores, cfg.votes);
    let eval = vote_evaluation(benchmark, &scores, threshold, cfg.votes);

    // Gate 2: benchmark non-regression.
    let production_f1 = registry
        .production(platform)
        .map(|e| e.benchmark.f1)
        .unwrap_or(0.0);
    let bench_ok = eval.f1 + cfg.f1_tolerance >= production_f1;
    run.stages.push(StageResult {
        stage: "benchmark".into(),
        passed: bench_ok,
        detail: format!(
            "candidate F1 {:.3} vs production F1 {:.3}",
            eval.f1, production_f1
        ),
    });
    if !bench_ok {
        return run;
    }

    // Gate 3: canary precision.
    let canary_eval = (!canary.is_empty())
        .then(|| vote_evaluation(canary, &model.predict_set(canary), threshold, cfg.votes));
    let canary_ok = canary_eval
        .map(|e| e.precision >= cfg.min_canary_precision || e.confusion.tp + e.confusion.fp == 0)
        .unwrap_or(true);
    run.stages.push(StageResult {
        stage: "canary".into(),
        passed: canary_ok,
        detail: match canary_eval {
            Some(e) => format!("canary precision {:.3}", e.precision),
            None => "no canary data; gate skipped".into(),
        },
    });
    if !canary_ok {
        return run;
    }

    // Register + promote.
    let id = registry.register(algorithm, platform, now, eval, threshold, model);
    registry.promote(id);
    run.model_id = Some(id);
    run.deployed = true;
    run
}

/// Integration test: valid probabilities on real and edge-case rows.
fn integration_test(model: &Model, probe: &SampleSet) -> bool {
    let take = probe.len().min(64);
    for i in 0..take {
        let p = model.predict_proba(probe.row(i));
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return false;
        }
    }
    if probe.dim() > 0 {
        let zeros = vec![0.0f32; probe.dim()];
        let big = vec![1e6f32; probe.dim()];
        for row in [&zeros, &big] {
            let p = model.predict_proba(row);
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Stage;
    use mfp_dram::address::DimmId;
    use mfp_rng::StdRng;

    /// Synthetic standard-schema set where eb_complex drives the label.
    /// Each DIMM holds three consecutive samples; every fourth DIMM is
    /// positive on all three, more than the gate's two votes need.
    fn labelled_set(seed: u64, n: usize, signal: bool) -> SampleSet {
        let mut s = SampleSet::new();
        let idx = s.schema.iter().position(|x| x == "eb_complex").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let mut row: Vec<f32> = (0..s.schema.len()).map(|_| rng.random::<f32>()).collect();
            let y = i % 12 < 3;
            row[idx] = if y && signal { 5.0 } else { 0.0 };
            // a handful of samples per dimm so votes can accumulate
            s.push(
                row,
                y,
                DimmId::new((i / 3) as u32, 0),
                SimTime::from_secs(i as u64 * 60),
            );
        }
        s
    }

    #[test]
    fn good_candidate_deploys() {
        let reg = ModelRegistry::new();
        let train = labelled_set(1, 400, true);
        let bench = labelled_set(2, 200, true);
        let canary = labelled_set(3, 100, true);
        let run = run_pipeline(
            &reg,
            &PipelineConfig::default(),
            Algorithm::LightGbm,
            Platform::K920,
            SimTime::ZERO,
            &train,
            &bench,
            &canary,
        );
        assert!(run.deployed, "{:?}", run.stages);
        assert!(reg.production(Platform::K920).is_some());
        assert_eq!(run.stages.len(), 3);
        assert!(run.stages.iter().all(|s| s.passed));
    }

    #[test]
    fn regression_is_rejected() {
        let reg = ModelRegistry::new();
        // First: deploy a strong model.
        let run1 = run_pipeline(
            &reg,
            &PipelineConfig::default(),
            Algorithm::LightGbm,
            Platform::K920,
            SimTime::ZERO,
            &labelled_set(1, 400, true),
            &labelled_set(2, 200, true),
            &labelled_set(3, 100, true),
        );
        assert!(run1.deployed);
        let production_before = reg.production(Platform::K920).unwrap().id;
        // Then: a candidate trained on signal-free data cannot beat it.
        let run2 = run_pipeline(
            &reg,
            &PipelineConfig::default(),
            Algorithm::RandomForest,
            Platform::K920,
            SimTime::from_secs(100),
            &labelled_set(4, 400, false),
            &labelled_set(5, 200, false),
            &labelled_set(6, 100, false),
        );
        assert!(!run2.deployed);
        assert_eq!(
            reg.production(Platform::K920).unwrap().id,
            production_before
        );
        let bench_stage = run2.stages.iter().find(|s| s.stage == "benchmark").unwrap();
        assert!(!bench_stage.passed);
    }

    #[test]
    fn empty_canary_skips_gate() {
        let reg = ModelRegistry::new();
        let run = run_pipeline(
            &reg,
            &PipelineConfig::default(),
            Algorithm::LightGbm,
            Platform::IntelPurley,
            SimTime::ZERO,
            &labelled_set(1, 400, true),
            &labelled_set(2, 200, true),
            &SampleSet::new(),
        );
        assert!(run.deployed);
        let canary_stage = run.stages.iter().find(|s| s.stage == "canary").unwrap();
        assert!(canary_stage.detail.contains("skipped"));
    }

    #[test]
    fn registry_entry_has_stage_production() {
        let reg = ModelRegistry::new();
        let run = run_pipeline(
            &reg,
            &PipelineConfig::default(),
            Algorithm::RandomForest,
            Platform::IntelWhitley,
            SimTime::ZERO,
            &labelled_set(7, 300, true),
            &labelled_set(8, 150, true),
            &labelled_set(9, 80, true),
        );
        let id = run.model_id.unwrap();
        assert_eq!(reg.get(id).unwrap().stage, Stage::Production);
    }
}
