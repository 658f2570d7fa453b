//! RAS mitigation ablation (paper §II-C): reruns the fleet with page
//! offlining + PPR enabled and compares UE incidence and CE volume against
//! the unmitigated fleet — quantifying why sparing "limits universal
//! applicability" and failure prediction is still needed.
//!
//! `cargo run --release -p mfp-bench --bin ablation_ras [scale]`

use mfp_bench::report::print_table;
use mfp_dram::geometry::Platform;
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;
use mfp_sim::ras::{AdddcPolicy, RasPolicy};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20.0);
    eprintln!("simulating 1:{scale:.0}-scale fleets with and without RAS...");
    let base_cfg = FleetConfig::calibrated(scale, 42);
    let mut ras_cfg = base_cfg.clone();
    ras_cfg.ras = Some(RasPolicy::default());
    let mut adddc_cfg = base_cfg.clone();
    adddc_cfg.ras = Some(RasPolicy {
        adddc: Some(AdddcPolicy::default()),
        ..Default::default()
    });

    let base = simulate_fleet(&base_cfg);
    let ras = simulate_fleet(&ras_cfg);
    let adddc = simulate_fleet(&adddc_cfg);

    let mut rows = Vec::new();
    for p in Platform::ALL {
        let stat = |fleet: &mfp_sim::fleet::FleetResult| {
            let dimms: Vec<_> = fleet.platform_dimms(p).collect();
            let ue = dimms.iter().filter(|d| d.first_ue().is_some()).count();
            let ces: u32 = dimms.iter().map(|d| d.outcome.logged_ces).sum();
            let repairs: u32 = dimms.iter().map(|d| d.outcome.ras.ppr_repairs).sum();
            let offlined: u32 = dimms.iter().map(|d| d.outcome.ras.pages_offlined).sum();
            let mitigated: u32 = dimms.iter().map(|d| d.outcome.ras.faults_mitigated).sum();
            (ue, ces, repairs, offlined, mitigated)
        };
        let (ue0, ce0, ..) = stat(&base);
        let (ue1, ce1, ppr, off, mit) = stat(&ras);
        let (ue2, ..) = stat(&adddc);
        let engaged = adddc
            .platform_dimms(p)
            .filter(|d| d.outcome.adddc_engaged)
            .count();
        rows.push(vec![
            p.to_string(),
            format!("{ue0} -> {ue1} -> {ue2}"),
            format!("{ce0} -> {ce1}"),
            ppr.to_string(),
            off.to_string(),
            mit.to_string(),
            engaged.to_string(),
        ]);
    }
    print_table(
        "RAS ablation: none -> +offline/PPR -> +ADDDC",
        &[
            "platform",
            "UE DIMMs",
            "logged CEs",
            "PPR",
            "pages off",
            "faults killed",
            "ADDDC",
        ],
        &[14, 18, 22, 6, 10, 13, 6],
        &rows,
    );
    println!("\nRow-confined faults get repaired or retired (CE volume drops),");
    println!("but column/bank/device faults — the dominant UE causes — survive");
    println!("page offlining. ADDDC virtual lockstep additionally absorbs");
    println!("single-chip degradation (strongest on Purley, whose weakened");
    println!("beats it restores), yet multi-device faults still get through:");
    println!("prediction remains necessary.");
}
