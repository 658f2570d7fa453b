//! Regenerates Fig. 4: relative % of UE per observed fault mode and
//! platform, with Finding 2 alongside.
//!
//! `cargo run --release -p mfp-bench --bin fig4 [scale]` (default 1:10).

use mfp_bench::report::print_table;
use mfp_core::study::relative_ue_by_fault_mode;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    eprintln!("simulating 1:{scale:.0}-scale fleet (seed 42)...");
    let fleet = simulate_fleet(&FleetConfig::calibrated(scale, 42));
    let rates = relative_ue_by_fault_mode(&fleet, &FaultThresholds::default());

    for platform_rates in &rates {
        let rows: Vec<Vec<String>> = platform_rates
            .rates
            .iter()
            .map(|(label, n, ue, pctv)| {
                vec![
                    label.clone(),
                    n.to_string(),
                    ue.to_string(),
                    format!("{pctv:.1}%"),
                    "#".repeat((pctv / 2.0).round() as usize),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Fig. 4 — {}: relative % of UE by fault mode",
                platform_rates.platform
            ),
            &["fault mode", "DIMMs", "UE DIMMs", "UE rate", ""],
            &[15, 7, 9, 8, 30],
            &rows,
        );
    }

    // Finding 2: single- vs multi-device attribution of UEs.
    println!("\nFinding 2: UE attribution by device dimension (UE DIMM counts)");
    for platform_rates in &rates {
        let ue_of = |label: &str| {
            platform_rates
                .rates
                .iter()
                .find(|(l, ..)| l == label)
                .map(|&(_, _, ue, _)| ue)
                .unwrap_or(0)
        };
        println!(
            "  {:<14} single-device: {:<5} multi-device: {}",
            platform_rates.platform.to_string(),
            ue_of("single-device"),
            ue_of("multi-device")
        );
    }
    println!("  (paper: single-device dominates on Purley; multi-device on Whitley and K920)");
}
