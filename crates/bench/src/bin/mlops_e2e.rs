//! Headless end-to-end exercise of the Fig. 6 MLOps workflow; the
//! narrated version lives in `examples/mlops_pipeline.rs`.
//!
//! `cargo run --release -p mfp-bench --bin mlops_e2e -- [--shards N [--workers M]]`
//!
//! With `--shards N` the fleet is streamed from a planned
//! `mfp_sim::events::EventFleet`: the DIMM catalog is registered from the
//! plan before any event exists, historical events stream straight into
//! the data lake in bounded batches (the merged log never materializes),
//! and only the online window is retained for replay. The event stream
//! is bit-identical to the materialized `simulate_fleet` path, so every
//! downstream check and number must be unchanged.

use mfp_bench::gate::{self, check};
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_ml::model::Algorithm;
use mfp_mlops::prelude::*;
use mfp_sim::config::FleetConfig;
use mfp_sim::events::EventFleet;
use mfp_sim::fleet::{simulate_fleet, DimmTruth};
use mfp_sim::sharded::ShardConfig;
use std::collections::BTreeMap;

/// Batches historical events into the lake so the streaming path holds at
/// most one batch at a time.
struct LakeLoader<'a> {
    lake: &'a DataLake,
    batch: Vec<MemEvent>,
    rejected: usize,
}

impl<'a> LakeLoader<'a> {
    const BATCH: usize = 4096;

    fn new(lake: &'a DataLake) -> Self {
        LakeLoader {
            lake,
            batch: Vec::with_capacity(Self::BATCH),
            rejected: 0,
        }
    }

    fn push(&mut self, event: MemEvent) {
        self.batch.push(event);
        if self.batch.len() >= Self::BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.batch.is_empty() {
            self.rejected += self.lake.ingest(&self.batch);
            self.batch.clear();
        }
    }
}

fn main() {
    let mut shards = 0usize;
    let mut workers = ShardConfig::default().workers;
    gate::flags(|flag, v| {
        match flag {
            "--shards" => shards = gate::value(flag, v)?,
            "--workers" => workers = gate::value(flag, v)?,
            _ => return Ok(false),
        }
        Ok(true)
    });

    let platform = Platform::IntelPurley;
    let fleet_cfg = FleetConfig::calibrated(50.0, 23);
    let split = SimTime::ZERO + SimDuration::days(188);
    let lake = DataLake::new();

    // Data pipeline: sequential mode materializes the merged log and
    // ships it through the binary wire format; sharded mode streams
    // historical events into the lake as they merge and keeps only the
    // online window in memory.
    let (truths, online): (Vec<DimmTruth>, Vec<MemEvent>) = if shards > 0 {
        let planned = EventFleet::plan(&fleet_cfg);
        for (id, p, spec) in planned.catalog() {
            lake.register_dimm(id, p, spec);
        }
        let mut loader = LakeLoader::new(&lake);
        let mut online = Vec::new();
        let outcome = planned.run_stream(&ShardConfig::new(shards, workers), |e| {
            if e.time() < split {
                loader.push(e);
            } else {
                online.push(e);
            }
        });
        loader.flush();
        println!(
            "      sharded fleet: {} dimms, {} events over {} shards x {} workers",
            planned.dimm_count(),
            outcome.stats.merged_events,
            outcome.stats.shards,
            outcome.stats.workers,
        );
        check(
            "lake ingests the sharded stream",
            loader.rejected == 0 && !lake.is_empty(),
        );
        (outcome.dimms, online)
    } else {
        let fleet = simulate_fleet(&fleet_cfg);
        for t in &fleet.dimms {
            lake.register_dimm(t.id, t.platform, t.spec);
        }
        let mut historical = mfp_dram::bmc::BmcLog::new();
        let mut online = Vec::new();
        for e in fleet.log.events() {
            if e.time() < split {
                historical.push(*e);
            } else {
                online.push(*e);
            }
        }
        let rejected = lake.ingest_encoded(&historical.encode()).expect("decode");
        check(
            "lake ingests encoded BMC logs",
            rejected == 0 && !lake.is_empty(),
        );
        (fleet.dimms, online)
    };
    check("fleet ground truth is available", !truths.is_empty());

    // Feature store: batch + consistency.
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
    check(
        "feature store materializes labelled samples",
        train.positives() > 0,
    );
    let probe = train.dimms[0];
    let skew = store.consistency_check(
        &lake,
        platform,
        probe,
        SimTime::ZERO + SimDuration::days(20),
    );
    check(
        "train/serve consistency check runs",
        skew.is_none_or(|d| d == 0.0),
    );

    // CI/CD.
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

    // Online prediction + mitigation.
    let mut predictor =
        OnlinePredictor::new(&lake, &store, &registry, platform, OnlineConfig::default());
    let mut ue_times: BTreeMap<mfp_dram::address::DimmId, SimTime> = BTreeMap::new();
    for e in &online {
        if lake.dimm_info(e.dimm()).map(|(p, _)| p) == Some(platform) {
            predictor.observe(e);
            if e.is_ue() {
                ue_times.entry(e.dimm()).or_insert(e.time());
            }
        }
    }
    predictor.finish(SimTime::ZERO + SimDuration::days(270));
    check(
        "online predictor raises alarms",
        !predictor.alarms().is_empty(),
    );
    let report = evaluate_mitigation(predictor.alarms(), &ue_times, &MitigationConfig::default());
    check(
        "mitigation engine computes VIRR",
        report.virr_measured.is_finite() && report.tp + report.fp > 0,
    );
    println!(
        "      alarms={} tp={} fp={} fn={} VIRR measured {:.2} / analytic {:.2}",
        predictor.alarms().len(),
        report.tp,
        report.fp,
        report.fn_,
        report.virr_measured,
        report.virr_analytic
    );

    // Monitoring.
    let live = store.materialize(
        &lake,
        platform,
        SimTime::ZERO + SimDuration::days(150),
        split,
    );
    let drift = psi_report_excluding(
        &bench,
        &live,
        10,
        &mfp_features::extract::CUMULATIVE_FEATURES,
    );
    let excluded = mfp_features::extract::CUMULATIVE_FEATURES.len();
    check(
        "drift report covers the non-excluded schema",
        drift.features.len() == bench.schema.len() - excluded,
    );
    println!("      max PSI {:.3}", drift.max_psi());

    // Process telemetry: every layer above reported into the global
    // registry; fold the snapshot into the §VII dashboard and export it.
    let snap = mfp_obs::global().snapshot();
    let dashboard = Dashboard::new();
    dashboard.import_telemetry(&snap);
    check(
        "telemetry dashboard sees all pipeline layers",
        snap.counter("sim_event_runs") >= 1
            && snap.counter("features_samples_assembled") > 0
            && snap.counter("ml_train_runs") >= 1
            && snap.counter("online_ticks") > 0,
    );
    println!("\n-- telemetry dashboard --\n{}", dashboard.render());
    println!("-- telemetry snapshot (JSON) --\n{}", snap.to_json());
    println!("\nMLOps end-to-end: all stages passed.");
}
