//! Regenerates Table I: dataset description per platform (DIMMs with CEs /
//! UEs, predictable vs sudden UE shares), with Finding 1 alongside.
//!
//! `cargo run --release -p mfp-bench --bin table1 [scale]` (default 1:10).

use mfp_bench::report::{paper, pct, print_table};
use mfp_core::study::dataset_summary;
use mfp_dram::time::SimDuration;
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    eprintln!("simulating 1:{scale:.0}-scale fleet (seed 42)...");
    let fleet = simulate_fleet(&FleetConfig::calibrated(scale, 42));
    let rows = dataset_summary(&fleet, SimDuration::hours(3));

    let mut table = Vec::new();
    for row in &rows {
        let (_, paper_pred, paper_sudden) = paper::TABLE1
            .iter()
            .find(|(p, ..)| *p == row.platform)
            .copied()
            .unwrap();
        table.push(vec![
            row.platform.to_string(),
            row.dimms_with_ces.to_string(),
            row.dimms_with_ues.to_string(),
            format!("{} / {}", pct(row.predictable_pct), pct(paper_pred)),
            format!("{} / {}", pct(row.sudden_pct), pct(paper_sudden)),
        ]);
    }
    print_table(
        "Table I: description of dataset (measured / paper)",
        &[
            "CPU platform",
            "DIMMs w/ CEs",
            "DIMMs w/ UEs",
            "predictable UE",
            "sudden UE",
        ],
        &[14, 13, 13, 17, 17],
        &table,
    );

    // Finding 1.
    let rate =
        |i: usize| 100.0 * rows[i].dimms_with_ues as f64 / rows[i].dimms_with_ces.max(1) as f64;
    println!("\nFinding 1: UE and sudden-UE rates vary across architectures.");
    println!(
        "  per-DIMM UE rate: Purley {:.1}%  Whitley {:.1}%  K920 {:.1}%",
        rate(0),
        rate(1),
        rate(2)
    );
    println!(
        "  sudden share:     Purley {:.0}%   Whitley {:.0}%   K920 {:.0}%",
        rows[0].sudden_pct, rows[1].sudden_pct, rows[2].sudden_pct
    );
}
