//! Quick calibration check: Table-I-shaped statistics from ground truth.
use mfp_dram::geometry::Platform;
use mfp_sim::prelude::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20.0);
    let cfg = FleetConfig::calibrated(scale, 42);
    let t0 = std::time::Instant::now();
    let fleet = mfp_sim::fleet::simulate_fleet(&cfg);
    eprintln!(
        "simulated {} dimms, {} events in {:?}",
        fleet.dimms.len(),
        fleet.log.len(),
        t0.elapsed()
    );
    for p in Platform::ALL {
        let dimms: Vec<_> = fleet.platform_dimms(p).collect();
        let with_ces = dimms.iter().filter(|d| d.has_ces()).count();
        let with_ue: Vec<_> = dimms.iter().filter(|d| d.first_ue().is_some()).collect();
        let predictable = with_ue.iter().filter(|d| d.outcome.logged_ces > 0).count();
        let sudden = with_ue.len() - predictable;
        println!(
            "{:<14} ce_dimms={:<6} ue_dimms={:<5} ue_rate={:.2}% predictable={:.0}% sudden={:.0}%",
            p.to_string(),
            with_ces,
            with_ue.len(),
            100.0 * with_ue.len() as f64 / with_ces.max(1) as f64,
            100.0 * predictable as f64 / with_ue.len().max(1) as f64,
            100.0 * sudden as f64 / with_ue.len().max(1) as f64,
        );
        // fault mode attribution among UE dimms with CEs
        use std::collections::BTreeMap;
        let mut modes: BTreeMap<String, usize> = BTreeMap::new();
        for d in &with_ue {
            for m in &d.fault_modes {
                *modes.entry(m.to_string()).or_default() += 1;
            }
        }
        println!("   UE dimm fault modes: {:?}", modes);
    }
}
