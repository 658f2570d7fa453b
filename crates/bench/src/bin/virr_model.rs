//! Reproduces the §IV VIRR model (Fig. 2): the analytic
//! `VIRR = (1 - y_c / precision) * recall` surface against the VIRR
//! *measured* by replaying alarms through the VM mitigation engine.
//!
//! `cargo run --release -p mfp-bench --bin virr_model`

use mfp_bench::report::print_table;
use mfp_dram::address::DimmId;
use mfp_dram::time::SimTime;
use mfp_mlops::mitigation::{evaluate_mitigation, MitigationConfig};
use mfp_mlops::online::Alarm;
use std::collections::BTreeMap;

fn synth_alarms(tp: u32, fp: u32) -> (Vec<Alarm>, BTreeMap<DimmId, SimTime>) {
    // tp alarms on failing DIMMs, fp alarms on healthy ones, plus enough
    // failing DIMMs to reach the requested recall externally.
    let mut alarms = Vec::new();
    let mut ue_times = BTreeMap::new();
    for i in 0..tp {
        let d = DimmId::new(i, 0);
        alarms.push(Alarm {
            dimm: d,
            time: SimTime::from_secs(100),
            score: 0.9,
        });
        ue_times.insert(d, SimTime::from_secs(10_000));
    }
    for i in 0..fp {
        alarms.push(Alarm {
            dimm: DimmId::new(1_000_000 + i, 0),
            time: SimTime::from_secs(100),
            score: 0.9,
        });
    }
    (alarms, ue_times)
}

fn main() {
    let cfg = MitigationConfig::default();
    println!(
        "VM mitigation model: V_a = {} VMs/server, y_c = {}",
        cfg.vms_per_server, cfg.cold_fraction
    );

    let mut rows = Vec::new();
    // Sweep precision (via fp) and recall (via extra unalarmed failures).
    for &(tp, fp, misses) in &[
        (90u32, 10u32, 10u32), // P=0.90 R=0.90
        (80, 20, 20),          // P=0.80 R=0.80
        (60, 40, 40),          // P=0.60 R=0.60
        (50, 50, 50),          // P=0.50 R=0.50
        (30, 70, 70),          // P=0.30 R=0.30
        (10, 90, 90),          // P=0.10 R=0.10 -> VIRR ~ 0
        (5, 95, 95),           // P=0.05 < y_c   -> negative VIRR
    ] {
        let (alarms, mut ue_times) = synth_alarms(tp, fp);
        for i in 0..misses {
            ue_times.insert(DimmId::new(2_000_000 + i, 0), SimTime::from_secs(10_000));
        }
        let r = evaluate_mitigation(&alarms, &ue_times, &cfg);
        let precision = r.tp as f64 / (r.tp + r.fp) as f64;
        let recall = r.tp as f64 / (r.tp + r.fn_) as f64;
        rows.push(vec![
            format!("{precision:.2}"),
            format!("{recall:.2}"),
            format!("{:.3}", r.virr_analytic),
            format!("{:.3}", r.virr_measured),
            format!("{:.0}", r.interruptions_without),
            format!("{:.0}", r.interruptions_with),
        ]);
    }
    print_table(
        "VIRR: analytic formula vs measured through the mitigation engine",
        &[
            "precision",
            "recall",
            "VIRR (formula)",
            "VIRR (measured)",
            "V",
            "V'",
        ],
        &[10, 7, 15, 16, 7, 7],
        &rows,
    );
    println!("\nAs the paper notes: when precision < y_c = 0.1, prediction *adds*");
    println!("interruptions and VIRR turns negative (last row).");
}
