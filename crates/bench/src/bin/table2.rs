//! Regenerates Table II: precision / recall / F1 / VIRR of the four
//! algorithms on the three platforms, with the paper's numbers inline and
//! Finding 4 at the end.
//!
//! `cargo run --release -p mfp-bench --bin table2 [--skip-ft] [seed]`
//! Runtime: ~3 min without the FT-Transformer, ~10 min with it.

use mfp_bench::report::{m2, paper, print_table};
use mfp_core::prelude::*;
use mfp_dram::geometry::Platform;
use mfp_ml::model::Algorithm;
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let skip_ft = args.iter().any(|a| a == "--skip-ft");
    let seed: u64 = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    eprintln!("simulating experiment fleet (seed {seed})...");
    let fleet = simulate_fleet(&FleetConfig::experiment(seed));
    let cfg = ExperimentConfig::default();

    let mut best_f1: Vec<(Platform, f64)> = Vec::new();
    for platform in Platform::ALL {
        eprintln!("building samples for {platform}...");
        let splits = build_splits(&fleet, platform, &cfg);
        eprintln!(
            "  fit {} samples ({} pos) | val {} | test {}",
            splits.fit.len(),
            splits.fit.positives(),
            splits.validation.len(),
            splits.test.len()
        );
        let mut rows = Vec::new();
        let mut best = 0.0f64;
        for algo in Algorithm::ALL {
            if algo == Algorithm::FtTransformer && skip_ft {
                continue;
            }
            let t0 = std::time::Instant::now();
            let res = evaluate_algorithm(algo, &splits, platform, &cfg);
            let e = res.evaluation;
            best = best.max(e.f1);
            let paper_cell = paper::table2(algo, platform);
            let fmt_pair = |ours: f64, reference: Option<f64>| match reference {
                Some(r) => format!("{} / {}", m2(ours), m2(r)),
                None => format!("{} / X", m2(ours)),
            };
            rows.push(vec![
                algo.label().to_string(),
                fmt_pair(e.precision, paper_cell.map(|c| c.0)),
                fmt_pair(e.recall, paper_cell.map(|c| c.1)),
                fmt_pair(e.f1, paper_cell.map(|c| c.2)),
                fmt_pair(e.virr, paper_cell.map(|c| c.3)),
                format!("{:.0?}", t0.elapsed()),
            ]);
        }
        print_table(
            &format!("Table II — {platform} (measured / paper)"),
            &[
                "algorithm",
                "precision",
                "recall",
                "F1",
                "VIRR",
                "train+eval",
            ],
            &[22, 13, 13, 13, 13, 10],
            &rows,
        );
        best_f1.push((platform, best));
    }

    println!("\nFinding 4: prediction efficacy varies across platforms.");
    for (p, f1) in &best_f1 {
        println!("  best F1 on {p}: {f1:.2}");
    }
    println!("  (paper: Purley 0.64, Whitley 0.50, K920 0.54 — Whitley weakest)");

    // Where the time went: decode cache efficiency, per-algorithm train
    // and inference latency, sample-assembly throughput.
    println!("\n-- telemetry snapshot (JSON) --");
    println!("{}", mfp_obs::global().snapshot().to_json());
}
