//! Integration coverage for the extension subsystems: feature importance,
//! AutoML grid search, the RAS policies, the lifecycle orchestrator and
//! the address map.

use mfp_dram::addrmap::AddressMap;
use mfp_dram::geometry::{DeviceGeometry, Platform};
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::extract::feature_names;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_ml::model::{Algorithm, Model};
use mfp_ml::tuning::{default_gbdt_grid, grid_search};
use mfp_mlops::prelude::*;
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;
use mfp_sim::ras::RasPolicy;

#[test]
fn gbdt_importance_ranks_error_bit_features_on_purley() {
    let fleet = simulate_fleet(&FleetConfig::calibrated(50.0, 61));
    let cfg = mfp_core::experiment::ExperimentConfig::default();
    let splits = mfp_core::experiment::build_splits(&fleet, Platform::IntelPurley, &cfg);
    let model = Model::train_seeded(Algorithm::LightGbm, &splits.fit, 61);
    let imp = model.feature_importance().expect("gbdt importance");
    assert_eq!(imp.len(), feature_names().len());
    let total: f64 = imp.iter().sum();
    assert!((total - 1.0).abs() < 1e-6, "importance normalized: {total}");
    // The dominant feature must come from the error-bit family.
    let names = feature_names();
    let (top_idx, _) = imp
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    assert!(
        names[top_idx].starts_with("eb") || names[top_idx].starts_with("trend_"),
        "top feature {} should be an error-bit feature",
        names[top_idx]
    );
}

#[test]
fn automl_grid_beats_or_matches_its_median_candidate() {
    let fleet = simulate_fleet(&FleetConfig::calibrated(100.0, 62));
    let cfg = mfp_core::experiment::ExperimentConfig::default();
    let splits = mfp_core::experiment::build_splits(&fleet, Platform::IntelPurley, &cfg);
    let results = grid_search(&default_gbdt_grid(62), &splits.fit, &splits.validation, 2);
    assert_eq!(results.len(), 6);
    let best = results.first().unwrap().evaluation.f1;
    let worst = results.last().unwrap().evaluation.f1;
    assert!(best >= worst);
}

#[test]
fn ras_reduces_ce_volume_without_creating_ues() {
    let mut base = FleetConfig::smoke(63);
    let fleet_plain = simulate_fleet(&base);
    base.ras = Some(RasPolicy::default());
    let fleet_ras = simulate_fleet(&base);
    let (ce0, ue0, _) = fleet_plain.log.counts();
    let (ce1, ue1, _) = fleet_ras.log.counts();
    assert!(
        ce1 < ce0,
        "mitigation must reduce CE volume: {ce0} -> {ce1}"
    );
    assert!(ue1 <= ue0, "mitigation must never add UEs: {ue0} -> {ue1}");
}

#[test]
fn lifecycle_over_real_fleet_tracks_production() {
    let fleet = simulate_fleet(&FleetConfig::calibrated(100.0, 64));
    let lake = DataLake::new();
    for t in &fleet.dimms {
        lake.register_dimm(t.id, t.platform, t.spec);
    }
    lake.ingest(fleet.log.events());
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let registry = ModelRegistry::new();
    let feedback = FeedbackLoop::new();
    let checkpoints = run_lifecycle(
        &lake,
        &store,
        &registry,
        &feedback,
        Platform::IntelPurley,
        &LifecycleConfig::default(),
        SimTime::ZERO + SimDuration::days(150),
        SimTime::ZERO + SimDuration::days(240),
    );
    assert!(!checkpoints.is_empty());
    assert!(checkpoints.iter().any(|c| c.deployed), "{checkpoints:#?}");
    assert!(registry.production(Platform::IntelPurley).is_some());
}

#[test]
fn addrmap_roundtrips_fleet_event_addresses() {
    let fleet = simulate_fleet(&FleetConfig::smoke(65));
    let map = AddressMap::new(DeviceGeometry::default(), 2);
    for e in fleet.log.events().iter().take(2_000) {
        let addr = match e {
            mfp_dram::event::MemEvent::Ce(ce) => ce.addr,
            mfp_dram::event::MemEvent::Ue(ue) => ue.addr,
            mfp_dram::event::MemEvent::Storm(_) => continue,
        };
        let phys = map.encode(&addr);
        assert_eq!(map.decode(phys), addr, "{addr}");
    }
}
