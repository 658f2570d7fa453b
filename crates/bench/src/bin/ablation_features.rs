//! Feature-family ablation: drops one family at a time from the LightGBM
//! model and reports the F1 impact — quantifying §VI's observation that
//! error-bit and fault-analysis features carry most of the signal while
//! workload/static features play a minor role.
//!
//! `cargo run --release -p mfp-bench --bin ablation_features [scale]`

use mfp_bench::report::{m2, print_table};
use mfp_core::prelude::*;
use mfp_dram::geometry::Platform;
use mfp_ml::metrics::{best_vote_threshold, vote_evaluation, Evaluation};
use mfp_ml::model::{Algorithm, Model};
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    eprintln!("simulating 1:{scale:.0}-scale fleet (seed 42)...");
    let fleet = simulate_fleet(&FleetConfig::calibrated(scale, 42));
    let cfg = ExperimentConfig::default();
    let platform = Platform::IntelPurley;
    let splits = build_splits(&fleet, platform, &cfg);

    let evaluate = |fit: &mfp_features::dataset::SampleSet,
                    val: &mfp_features::dataset::SampleSet,
                    test: &mfp_features::dataset::SampleSet|
     -> Evaluation {
        let model = Model::train_seeded(Algorithm::LightGbm, fit, cfg.seed);
        let val_scores = model.predict_set(val);
        let th = best_vote_threshold(val, &val_scores, cfg.votes);
        vote_evaluation(test, &model.predict_set(test), th, cfg.votes)
    };

    let full = evaluate(&splits.fit, &splits.validation, &splits.test);
    let mut rows = vec![vec![
        "(all features)".to_string(),
        m2(full.precision),
        m2(full.recall),
        m2(full.f1),
        String::new(),
    ]];
    for family in FeatureFamily::ALL {
        let fit = ablate_family(&splits.fit, family);
        let val = ablate_family(&splits.validation, family);
        let test = ablate_family(&splits.test, family);
        let e = evaluate(&fit, &val, &test);
        rows.push(vec![
            format!("- {}", family.label()),
            m2(e.precision),
            m2(e.recall),
            m2(e.f1),
            format!("{:+.2}", e.f1 - full.f1),
        ]);
    }
    print_table(
        "Feature-family ablation (LightGBM, Intel Purley)",
        &["features", "precision", "recall", "F1", "dF1"],
        &[16, 10, 7, 6, 6],
        &rows,
    );
    println!("\nExpected shape: removing error-bit features hurts most — they");
    println!("are the paper's core signal. The remaining families are largely");
    println!("redundant with them (removing one can even help at small fleet");
    println!("scales by reducing overfitting), consistent with [27]'s finding");
    println!("that non-CE features play a minor role.");
}
