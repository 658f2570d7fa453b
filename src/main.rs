//! `memfault` — command-line front end of the workspace.
//!
//! ```text
//! memfault simulate --scale 50 --seed 42 --out fleet.bmc
//! memfault analyze  --log fleet.bmc
//! memfault predict  --scale 50 --seed 42 --platform purley --algo lightgbm
//! ```

use mfp_core::prelude::*;
use mfp_dram::bmc::BmcLog;
use mfp_dram::geometry::Platform;
use mfp_dram::time::SimDuration;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_ml::model::Algorithm;
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "memfault — memory failure prediction across CPU architectures

USAGE:
    memfault simulate [--scale N] [--seed N] [--out FILE]
        Simulate a fleet and write the BMC log (binary wire format).

    memfault analyze [--scale N] [--seed N]
        Simulate and print the paper's analyses (Table I, Fig 4 summary).

    memfault predict [--scale N] [--seed N] [--platform purley|whitley|k920]
                     [--algo risky|rf|lightgbm|ft]
        Train a failure predictor and print DIMM-level metrics.

Everything is deterministic in --seed. --scale divides the paper's
population (default 50 => a 1:50 fleet, seconds to simulate)."
    );
    ExitCode::FAILURE
}

struct Args {
    scale: f64,
    seed: u64,
    out: Option<String>,
    platform: Platform,
    algo: Algorithm,
}

fn parse(args: &[String]) -> Option<Args> {
    let mut out = Args {
        scale: 50.0,
        seed: 42,
        out: None,
        platform: Platform::IntelPurley,
        algo: Algorithm::LightGbm,
    };
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        let val = args.get(i + 1);
        match key {
            "--scale" => out.scale = val?.parse().ok()?,
            "--seed" => out.seed = val?.parse().ok()?,
            "--out" => out.out = Some(val?.clone()),
            "--platform" => {
                out.platform = match val?.as_str() {
                    "purley" => Platform::IntelPurley,
                    "whitley" => Platform::IntelWhitley,
                    "k920" => Platform::K920,
                    _ => return None,
                }
            }
            "--algo" => {
                out.algo = match val?.as_str() {
                    "risky" => Algorithm::RiskyCePattern,
                    "rf" => Algorithm::RandomForest,
                    "lightgbm" => Algorithm::LightGbm,
                    "ft" => Algorithm::FtTransformer,
                    _ => return None,
                }
            }
            _ => return None,
        }
        i += 2;
    }
    Some(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Hidden worker mode: a ProcSupervisor re-execs this binary with
    // `--shard-worker` (and the env marker) to host one shard behind
    // the MFP1 pipe protocol. Never part of the user-facing CLI.
    if std::env::var_os(mfp_mlops::procserve::WORKER_ENV).is_some()
        || argv.first().map(String::as_str) == Some("--shard-worker")
    {
        std::process::exit(mfp_mlops::procserve::shard_worker_main());
    }
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let Some(args) = parse(rest) else {
        return usage();
    };

    match cmd.as_str() {
        "simulate" => {
            eprintln!(
                "simulating 1:{:.0} fleet (seed {})...",
                args.scale, args.seed
            );
            let fleet = simulate_fleet(&FleetConfig::calibrated(args.scale, args.seed));
            let (ces, ues, storms) = fleet.log.counts();
            println!(
                "{} DIMMs, {} events ({ces} CE, {ues} UE, {storms} storms)",
                fleet.dimms.len(),
                fleet.log.len()
            );
            if let Some(path) = &args.out {
                let bytes = fleet.log.encode();
                if let Err(e) = std::fs::write(path, &bytes) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {} bytes to {path}", bytes.len());
            }
            ExitCode::SUCCESS
        }
        "analyze" => {
            let fleet = simulate_fleet(&FleetConfig::calibrated(args.scale, args.seed));
            println!("== Table I ==");
            for row in dataset_summary(&fleet, SimDuration::hours(3)) {
                println!(
                    "{:<14} CE DIMMs {:<6} UE DIMMs {:<5} predictable {:>3.0}% sudden {:>3.0}%",
                    row.platform.to_string(),
                    row.dimms_with_ces,
                    row.dimms_with_ues,
                    row.predictable_pct,
                    row.sudden_pct
                );
            }
            println!("\n== Fig 4 (UE rate by fault mode) ==");
            for pr in relative_ue_by_fault_mode(&fleet, &FaultThresholds::default()) {
                print!("{:<14}", pr.platform.to_string());
                for (label, _, _, pct) in &pr.rates {
                    print!(" {label}={pct:.1}%");
                }
                println!();
            }
            ExitCode::SUCCESS
        }
        "predict" => {
            eprintln!(
                "simulating 1:{:.0} fleet and training {} on {}...",
                args.scale,
                args.algo.label(),
                args.platform
            );
            let fleet = simulate_fleet(&FleetConfig::calibrated(args.scale, args.seed));
            let cfg = ExperimentConfig::default();
            let splits = build_splits(&fleet, args.platform, &cfg);
            let res = evaluate_algorithm(args.algo, &splits, args.platform, &cfg);
            let e = res.evaluation;
            println!(
                "{} on {}: precision {:.2} recall {:.2} F1 {:.2} VIRR {:.2} (tp={} fp={} fn={})",
                args.algo.label(),
                args.platform,
                e.precision,
                e.recall,
                e.f1,
                e.virr,
                e.confusion.tp,
                e.confusion.fp,
                e.confusion.fn_
            );
            ExitCode::SUCCESS
        }
        "decode" => {
            // Undocumented helper: validate a BMC log file.
            let Some(path) = args.out.as_ref() else {
                eprintln!("decode requires --out FILE");
                return ExitCode::FAILURE;
            };
            match std::fs::read(path).map(|b| BmcLog::decode(&b)) {
                Ok(Ok(log)) => {
                    let (ces, ues, storms) = log.counts();
                    println!(
                        "{}: {} events ({ces} CE, {ues} UE, {storms} storms)",
                        path,
                        log.len()
                    );
                    ExitCode::SUCCESS
                }
                Ok(Err(e)) => {
                    eprintln!("decode error: {e}");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
