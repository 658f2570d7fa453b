//! Hostile-telemetry end-to-end: measures alarm fidelity of the hardened
//! ingestion + online-prediction path under increasing stream corruption.
//!
//! The clean fleet log is corrupted with [`mfp_sim::chaos`] at a sweep of
//! rates, pushed through the [`Ingestor`] (validation, dedup, watermark
//! re-sequencing, gap detection) and into an [`OnlinePredictor`] running
//! in degraded-grace mode. Alarm recall/precision are reported against
//! the clean-delivery baseline run through the *same* hardened path, and
//! a lossless chaos pass (duplicates + bounded reorder only) must
//! reproduce the baseline alarms bit-for-bit.
//!
//! `cargo run --release -p mfp-bench --bin chaos_e2e -- \
//!     [--rates 0.0,0.1,0.3] [--min-recall 0.65] [--seed 23]`
//!
//! Exits non-zero if any stage fails or any swept rate's alarm recall
//! drops below the floor.

use mfp_bench::gate::{self, check};
use mfp_dram::address::DimmId;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_ml::model::Algorithm;
use mfp_mlops::prelude::*;
use mfp_sim::chaos::{inject_chaos, ChaosConfig};
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;
use std::collections::BTreeSet;

/// One pass of a delivery-ordered stream through the full hardened path:
/// ingestor (validate / dedup / re-sequence / gap-detect) feeding a fresh
/// predictor with degraded-mode scoring enabled.
struct RunOutcome {
    alarms: Vec<Alarm>,
    ingest: IngestStats,
    stale_rejected: u64,
    gaps: u64,
}

fn run_hardened(
    lake: &DataLake,
    registry: &ModelRegistry,
    platform: Platform,
    delivery: &[MemEvent],
    end: SimTime,
) -> RunOutcome {
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let mut predictor = OnlinePredictor::new(
        lake,
        &store,
        registry,
        platform,
        OnlineConfig {
            degraded_grace: SimDuration::days(2),
            ..OnlineConfig::default()
        },
    );
    let mut ingestor = Ingestor::new(
        lake,
        IngestConfig {
            lateness: SimDuration::hours(1),
            gap_threshold: Some(SimDuration::days(7)),
            ..IngestConfig::default()
        },
    );
    let mut gaps = 0u64;
    for e in delivery {
        for released in ingestor.push(e) {
            predictor.observe(&released);
        }
        for gap in ingestor.take_gaps() {
            gaps += 1;
            predictor.note_gap(gap.dimm);
        }
    }
    for released in ingestor.flush() {
        predictor.observe(&released);
    }
    predictor.finish(end);
    RunOutcome {
        alarms: predictor.alarms().to_vec(),
        ingest: ingestor.stats(),
        stale_rejected: predictor.stale_rejected(),
        gaps,
    }
}

fn alarmed_dimms(alarms: &[Alarm]) -> BTreeSet<DimmId> {
    alarms.iter().map(|a| a.dimm).collect()
}

/// Bit-level alarm equality (f32 scores compared by bits).
fn alarms_identical(a: &[Alarm], b: &[Alarm]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dimm == y.dimm && x.time == y.time && x.score.to_bits() == y.score.to_bits()
        })
}

fn main() {
    let mut rates = vec![0.0f64, 0.1, 0.3];
    let mut min_recall = 0.65f64;
    let mut seed = 23u64;
    gate::flags(|flag, v| {
        match flag {
            "--rates" => rates = gate::list(flag, v)?,
            "--min-recall" => min_recall = gate::value(flag, v)?,
            "--seed" => seed = gate::value(flag, v)?,
            _ => return Ok(false),
        }
        Ok(true)
    });

    let platform = Platform::IntelPurley;
    let fleet_cfg = FleetConfig::calibrated(50.0, seed);
    let fleet = simulate_fleet(&fleet_cfg);
    let split = SimTime::ZERO + SimDuration::days(188);
    let end = SimTime::ZERO + SimDuration::days(270);

    // Historical half: train and promote a production model, exactly as
    // the happy-path `mlops_e2e` does.
    let lake = DataLake::new();
    for t in &fleet.dimms {
        lake.register_dimm(t.id, t.platform, t.spec);
    }
    let mut historical = mfp_dram::bmc::BmcLog::new();
    for e in fleet.log.events().iter().filter(|e| e.time() < split) {
        historical.push(*e);
    }
    let rejected = lake.ingest_encoded(&historical.encode()).expect("decode");
    check(
        "lake ingests encoded BMC logs",
        rejected == 0 && !lake.is_empty(),
    );

    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let train = store
        .materialize(
            &lake,
            platform,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::days(105),
        )
        .downsample_negatives(8);
    let bench = store.materialize(
        &lake,
        platform,
        SimTime::ZERO + SimDuration::days(105),
        SimTime::ZERO + SimDuration::days(160),
    );
    let registry = ModelRegistry::new();
    let run = run_pipeline(
        &registry,
        &PipelineConfig::default(),
        Algorithm::LightGbm,
        platform,
        split,
        &train,
        &bench,
        &bench,
    );
    check("deployment pipeline promotes a model", run.deployed);

    // Online half: the clean, time-ordered delivery stream.
    let clean: Vec<MemEvent> = fleet
        .log
        .events()
        .iter()
        .filter(|e| e.time() >= split)
        .filter(|e| lake.dimm_info(e.dimm()).map(|(p, _)| p) == Some(platform))
        .copied()
        .collect();
    println!(
        "      online stream: {} events on {}",
        clean.len(),
        platform
    );

    // Baseline: clean delivery through the same hardened path.
    let baseline = run_hardened(&lake, &registry, platform, &clean, end);
    check("clean baseline raises alarms", !baseline.alarms.is_empty());
    println!(
        "      baseline alarms={} released={} (rejected={} dup={} quarantined={} gaps={})",
        baseline.alarms.len(),
        baseline.ingest.released,
        baseline.ingest.rejected,
        baseline.ingest.duplicates,
        baseline.ingest.quarantined,
        baseline.gaps,
    );
    let base_dimms = alarmed_dimms(&baseline.alarms);

    // Lossless chaos (duplicates + bounded reorder, nothing lost): the
    // ingestor must reconstruct the clean stream and the predictor must
    // raise bit-identical alarms.
    let (lossless, lstats) = inject_chaos(&clean, &ChaosConfig::lossless(seed));
    let lossless_run = run_hardened(&lake, &registry, platform, &lossless, end);
    println!(
        "      lossless chaos: delivered={} duplicated={} delayed={} -> dedup dropped={}",
        lstats.delivered, lstats.duplicated, lstats.delayed, lossless_run.ingest.duplicates,
    );
    check(
        "lossless chaos reproduces baseline alarms bit-for-bit",
        alarms_identical(&baseline.alarms, &lossless_run.alarms),
    );
    check(
        "lossless chaos quarantines nothing",
        lossless_run.ingest.quarantined == 0,
    );

    // Corruption sweep: recall/precision of alarmed DIMMs vs. baseline.
    println!("\n      rate   recall  precision  alarms  rejected  dup  quarantined  stale");
    let mut worst_recall = 1.0f64;
    for (k, &rate) in rates.iter().enumerate() {
        let cfg = ChaosConfig::hostile_at(seed.wrapping_add(k as u64), rate);
        let (hostile, _) = inject_chaos(&clean, &cfg);
        let out = run_hardened(&lake, &registry, platform, &hostile, end);
        let got = alarmed_dimms(&out.alarms);
        let hit = base_dimms.intersection(&got).count();
        let recall = if base_dimms.is_empty() {
            1.0
        } else {
            hit as f64 / base_dimms.len() as f64
        };
        let precision = if got.is_empty() {
            1.0
        } else {
            hit as f64 / got.len() as f64
        };
        worst_recall = worst_recall.min(recall);
        println!(
            "      {rate:<6.2} {recall:<7.3} {precision:<10.3} {:<7} {:<9} {:<4} {:<12} {}",
            out.alarms.len(),
            out.ingest.rejected,
            out.ingest.duplicates,
            out.ingest.quarantined,
            out.stale_rejected,
        );
    }
    check(
        &format!("alarm recall stays above the {min_recall:.2} floor at every rate"),
        worst_recall >= min_recall,
    );

    // The hardened path reported itself into the process-wide registry.
    let snap = mfp_obs::global().snapshot();
    check(
        "ingestion telemetry reaches the global registry",
        snap.counter("ingest_received") > 0 && snap.counter("ingest_released") > 0,
    );
    println!(
        "      telemetry: ingest_received={} ingest_duplicates={} ingest_quarantined={} online_degraded_scores={}",
        snap.counter("ingest_received"),
        snap.counter("ingest_duplicates"),
        snap.counter("ingest_quarantined"),
        snap.counter("online_degraded_scores"),
    );
    println!("\nChaos end-to-end: all stages passed (worst recall {worst_recall:.3}).");
}
