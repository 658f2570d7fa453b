//! Digests of the Table II tree loop, for bit-identity checks across
//! builds and core counts.
//!
//! Runs the retraining loop on the benchmark's `train` fleet (calibrated
//! 1:160, seed 42, event engine, `ExperimentConfig::default()`): per
//! platform, `build_splits`; per tree algorithm, fit, score validation and
//! test, pick the vote threshold and evaluate. Prints one line per
//! platform and algorithm with a crc32 of each split, of each score
//! vector, of the feature importances, and the bits of the threshold and
//! F1. Every digest covers exact bit patterns in a fixed byte order, so
//! two runs print the same stdout exactly when the loop's outputs are
//! bit-identical. Stage times go to stderr.
//!
//! `cargo run --release -p mfp-bench --bin train_digest`
//!
//! CI runs it pinned to one CPU and unpinned, and diffs both outputs
//! against each other and against `tests/fixtures/train_digest.txt`.

use mfp_core::experiment::{build_splits, ExperimentConfig};
use mfp_dram::geometry::Platform;
use mfp_features::dataset::SampleSet;
use mfp_ml::metrics::{best_vote_threshold, vote_evaluation};
use mfp_ml::model::{Algorithm, Model};
use mfp_mlops::wal::crc32;
use mfp_sim::config::FleetConfig;
use mfp_sim::events::simulate_fleet_events;
use mfp_sim::sharded::ShardConfig;
use std::time::Instant;

/// crc32 of every field of a sample set, in row order.
fn set_digest(set: &SampleSet) -> u32 {
    let mut bytes = Vec::with_capacity(set.features.len() * 4 + set.len() * 14);
    for name in &set.schema {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
    }
    for v in &set.features {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for i in 0..set.len() {
        bytes.push(u8::from(set.labels[i]));
        bytes.extend_from_slice(&set.dimms[i].server.0.to_le_bytes());
        bytes.push(set.dimms[i].slot);
        bytes.extend_from_slice(&set.times[i].as_secs().to_le_bytes());
    }
    crc32(&bytes)
}

fn f32_digest(values: &[f32]) -> u32 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

fn f64_digest(values: &[f64]) -> u32 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

fn main() {
    let cfg = FleetConfig::calibrated(160.0, 42);
    let exp = ExperimentConfig::default();

    let t = Instant::now();
    let fleet = simulate_fleet_events(&cfg, &ShardConfig::new(8, 1));
    eprintln!(
        "sim: {} events in {:.3} s",
        fleet.log.len(),
        t.elapsed().as_secs_f64()
    );

    let (mut assembly, mut fit, mut predict, mut vote) = (0.0, 0.0, 0.0, 0.0);
    for platform in Platform::ALL {
        let t = Instant::now();
        let splits = build_splits(&fleet, platform, &exp);
        assembly += t.elapsed().as_secs_f64();
        let sets = format!(
            "fit={:08x} validation={:08x} test={:08x}",
            set_digest(&splits.fit),
            set_digest(&splits.validation),
            set_digest(&splits.test)
        );
        for algo in [Algorithm::LightGbm, Algorithm::RandomForest] {
            let t = Instant::now();
            let model = Model::train_seeded(algo, &splits.fit, exp.seed);
            fit += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let val = model.predict_set(&splits.validation);
            let test = model.predict_set(&splits.test);
            predict += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let threshold = best_vote_threshold(&splits.validation, &val, exp.votes);
            let eval = vote_evaluation(&splits.test, &test, threshold, exp.votes);
            vote += t.elapsed().as_secs_f64();
            let importance = model.feature_importance().unwrap_or(&[]);
            println!(
                "{platform} {} {sets} val_scores={:08x} test_scores={:08x} \
                 threshold={:08x} f1={:016x} ({:.4}) importance={:08x}",
                algo.slug(),
                f32_digest(&val),
                f32_digest(&test),
                eval.threshold.to_bits(),
                eval.f1.to_bits(),
                eval.f1,
                f64_digest(importance),
            );
        }
    }
    eprintln!(
        "loop: assembly {assembly:.3} s, fit {fit:.3} s, predict {predict:.3} s, \
         vote {vote:.3} s, total {:.3} s",
        assembly + fit + predict + vote
    );
}
