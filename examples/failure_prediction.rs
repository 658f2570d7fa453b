//! Failure prediction on one platform: trains every Table II algorithm and
//! prints the DIMM-level precision / recall / F1 / VIRR comparison.
//!
//! Run with: `cargo run --release --example failure_prediction [purley|whitley|k920]`
//! (add `--ft` as a second argument to include the FT-Transformer).

use mfp_core::prelude::*;
use mfp_dram::geometry::Platform;
use mfp_ml::model::Algorithm;
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let platform = match args.get(1).map(String::as_str) {
        Some("whitley") => Platform::IntelWhitley,
        Some("k920") => Platform::K920,
        _ => Platform::IntelPurley,
    };
    let include_ft = args.iter().any(|a| a == "--ft");

    eprintln!("simulating 1:40-scale fleet...");
    let fleet = simulate_fleet(&FleetConfig::calibrated(40.0, 11));
    let cfg = ExperimentConfig::default();
    eprintln!("building samples for {platform}...");
    let splits = build_splits(&fleet, platform, &cfg);
    eprintln!(
        "fit: {} samples ({} positive) | validation: {} | test: {}",
        splits.fit.len(),
        splits.fit.positives(),
        splits.validation.len(),
        splits.test.len()
    );

    println!(
        "\n{:<22} {:>9} {:>7} {:>6} {:>6}",
        "algorithm", "precision", "recall", "F1", "VIRR"
    );
    println!("{}", "-".repeat(55));
    for algo in Algorithm::ALL {
        if algo == Algorithm::FtTransformer && !include_ft {
            continue;
        }
        let res = evaluate_algorithm(algo, &splits, platform, &cfg);
        let e = &res.evaluation;
        let note = if res.reported_in_paper {
            ""
        } else {
            "  (X in paper)"
        };
        println!(
            "{:<22} {:>9.2} {:>7.2} {:>6.2} {:>6.2}{note}",
            algo.label(),
            e.precision,
            e.recall,
            e.f1,
            e.virr
        );
    }
    println!("\nNote: a small fleet keeps this example fast; use the bench");
    println!("harness (`cargo run -p mfp-bench --bin table2`) for the");
    println!("paper-scale comparison.");
}
