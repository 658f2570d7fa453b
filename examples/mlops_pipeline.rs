//! The MLOps framework end-to-end (paper §VII, Fig. 6): data pipeline →
//! feature store → CI/CD training and deployment → online streaming
//! prediction → alarms → VM mitigation (measured VIRR) → monitoring,
//! drift detection and the retraining decision.
//!
//! Run with: `cargo run --release --example mlops_pipeline`

use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_ml::model::Algorithm;
use mfp_mlops::prelude::*;
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;
use std::collections::BTreeMap;

fn main() {
    let platform = Platform::IntelPurley;
    let dash = Dashboard::new();

    // ---- Data pipeline: collectors ship BMC logs into the lake. --------
    eprintln!("simulating fleet + ingesting BMC logs...");
    let fleet = simulate_fleet(&FleetConfig::calibrated(50.0, 23));
    let lake = DataLake::new();
    for truth in &fleet.dimms {
        lake.register_dimm(truth.id, truth.platform, truth.spec);
    }
    // Ship the historical window (first 188 days) in encoded form.
    let split = SimTime::ZERO + SimDuration::days(188);
    let mut historical = mfp_dram::bmc::BmcLog::new();
    let mut live: Vec<mfp_dram::event::MemEvent> = Vec::new();
    for e in fleet.log.events() {
        if e.time() < split {
            historical.push(*e);
        } else if e.dimm().server.0 < u32::MAX {
            live.push(*e);
        }
    }
    let rejected = lake.ingest_encoded(&historical.encode()).expect("ingest");
    dash.incr("lake/events_ingested", historical.len() as u64);
    dash.incr("lake/events_rejected", rejected as u64);

    // ---- Feature store: catalog + batch materialization. ----------------
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    for view in store.views() {
        eprintln!(
            "feature view {} v{} ({} features)",
            view.name,
            view.version,
            view.schema.len()
        );
    }
    let train = store
        .materialize(
            &lake,
            platform,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::days(105),
        )
        .downsample_negatives(8);
    let benchmark = store.materialize(
        &lake,
        platform,
        SimTime::ZERO + SimDuration::days(105),
        SimTime::ZERO + SimDuration::days(160),
    );
    let canary = store.materialize(
        &lake,
        platform,
        SimTime::ZERO + SimDuration::days(160),
        split,
    );
    dash.gauge("features/train_samples", train.len() as f64);
    dash.gauge("features/train_positives", train.positives() as f64);

    // ---- CI/CD: train, gate, deploy. ------------------------------------
    eprintln!("running deployment pipeline (LightGBM)...");
    let registry = ModelRegistry::new();
    let run = run_pipeline(
        &registry,
        &PipelineConfig::default(),
        Algorithm::LightGbm,
        platform,
        split,
        &train,
        &benchmark,
        &canary,
    );
    for stage in &run.stages {
        println!(
            "pipeline stage {:<12} {}  ({})",
            stage.stage,
            if stage.passed { "PASS" } else { "FAIL" },
            stage.detail
        );
    }
    if !run.deployed {
        println!("candidate rejected; production unchanged");
        return;
    }
    let entry = registry.production(platform).expect("deployed");
    println!(
        "deployed model #{} ({}): benchmark F1 {:.2}, threshold {:.3}\n",
        entry.id,
        entry.algorithm.label(),
        entry.benchmark.f1,
        entry.threshold
    );
    dash.gauge("registry/production_f1", entry.benchmark.f1);

    // ---- Online prediction over the live stream. -------------------------
    eprintln!("streaming {} live events...", live.len());
    let feedback = FeedbackLoop::new();
    let mut predictor =
        OnlinePredictor::new(&lake, &store, &registry, platform, OnlineConfig::default());
    let mut ue_times: BTreeMap<mfp_dram::address::DimmId, SimTime> = BTreeMap::new();
    for e in &live {
        if let Some((p, _)) = lake.dimm_info(e.dimm()) {
            if p == platform {
                predictor.observe(e);
                if e.is_ue() {
                    ue_times.entry(e.dimm()).or_insert(e.time());
                    feedback.record_ue(e.dimm(), e.time());
                }
            }
        }
    }
    predictor.finish(SimTime::ZERO + SimDuration::days(270));
    for alarm in predictor.alarms() {
        feedback.record_alarm(alarm.dimm, alarm.time);
    }
    dash.incr("online/predictions", predictor.scored());
    dash.incr("online/alarms", predictor.alarms().len() as u64);
    println!(
        "online: {} model invocations, {} alarms, {} UEs in the live window",
        predictor.scored(),
        predictor.alarms().len(),
        ue_times.len()
    );

    // ---- Cloud service: VM mitigation + measured VIRR. -------------------
    let report = evaluate_mitigation(predictor.alarms(), &ue_times, &MitigationConfig::default());
    println!(
        "mitigation: tp={} fp={} fn={}  interruptions {} -> {:.0}",
        report.tp, report.fp, report.fn_, report.interruptions_without, report.interruptions_with
    );
    println!(
        "VIRR measured {:.2} vs analytic {:.2}\n",
        report.virr_measured, report.virr_analytic
    );
    dash.gauge("service/virr_measured", report.virr_measured);

    // ---- Monitoring: drift + feedback-driven retraining decision. --------
    let live_features = store.materialize(
        &lake,
        platform,
        SimTime::ZERO + SimDuration::days(150),
        split,
    );
    let drift = psi_report_excluding(
        &benchmark,
        &live_features,
        10,
        &mfp_features::extract::CUMULATIVE_FEATURES,
    );
    let (live_p, live_r) = feedback.live_precision_recall();
    dash.gauge("monitor/max_psi", drift.max_psi());
    dash.gauge("monitor/live_precision", live_p);
    dash.gauge("monitor/live_recall", live_r);
    match RetrainPolicy::default().should_retrain(&drift, &feedback) {
        Some(reason) => println!("retraining triggered: {reason}"),
        None => println!(
            "no retraining needed (max PSI {:.3}, live precision {:.2})",
            drift.max_psi(),
            live_p
        ),
    }

    println!("\n== dashboard ==\n{}", dash.render());
}
