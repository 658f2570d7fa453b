//! Crash-chaos gate and failover benchmark for the self-healing serving
//! path (`mfp_mlops::supervise` over per-shard `MFW2` WALs): simulates a
//! Purley sub-fleet, runs the supervised sharded engine under seeded
//! schedules of shard kills (with torn WAL tails), hangs and transient
//! panics, and requires the merged alarms and scores to reproduce the
//! uncrashed sequential oracle bit-for-bit at every shard count in
//! {1, 2, 4}. Restart/quarantine counts and timings land in
//! `BENCH_failover.json`; any divergence exits non-zero.
//!
//! `cargo run --release -p mfp-bench --bin failover_chaos -- \
//!     [--dimms 1200] [--horizon-days 30] [--seed 29] [--schedules 3] \
//!     [--chaos-events 6] [--batch 64] [--out BENCH_failover.json]`

use mfp_bench::report::baseline::{config_hash, num};
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_ml::metrics::{Confusion, Evaluation};
use mfp_ml::model::{Algorithm, Model};
use mfp_ml::risky_ce::RiskyCePattern;
use mfp_mlops::prelude::*;
use mfp_sim::config::FleetConfig;
use mfp_sim::events::EventFleet;
use mfp_sim::sharded::ShardConfig;
use std::path::PathBuf;
use std::time::Instant;

/// The calibrated Purley sub-fleet rescaled to roughly `dimms` DIMMs.
fn purley_fleet(dimms: usize, horizon_days: u64, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::calibrated(1.0, seed);
    cfg.platforms
        .retain(|p| p.platform == Platform::IntelPurley);
    let total: usize = cfg
        .platforms
        .iter()
        .map(|p| p.dimms_with_ces + p.sudden_only_dimms)
        .sum();
    let ratio = dimms as f64 / total as f64;
    for pc in &mut cfg.platforms {
        pc.dimms_with_ces = ((pc.dimms_with_ces as f64 * ratio).round() as usize).max(1);
        pc.sudden_only_dimms = (pc.sudden_only_dimms as f64 * ratio).round() as usize;
    }
    cfg.horizon = SimDuration::days(horizon_days);
    cfg
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mfp_failover_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn main() {
    let mut dimms = 1_200usize;
    let mut horizon_days = 30u64;
    let mut seed = 29u64;
    let mut schedules = 3usize;
    let mut chaos_events = 6usize;
    let mut batch = 64usize;
    let mut out = String::from("BENCH_failover.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--dimms" => dimms = value().parse().expect("--dimms takes an integer"),
            "--horizon-days" => {
                horizon_days = value().parse().expect("--horizon-days takes an integer");
            }
            "--seed" => seed = value().parse().expect("--seed takes an integer"),
            "--schedules" => schedules = value().parse().expect("--schedules takes an integer"),
            "--chaos-events" => {
                chaos_events = value().parse().expect("--chaos-events takes an integer");
            }
            "--batch" => batch = value().parse().expect("--batch takes an integer"),
            "--out" => out = value(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fleet_cfg = purley_fleet(dimms, horizon_days, seed);
    let online_cfg = OnlineConfig::default();
    let ingest_cfg = IngestConfig::default();
    // Score tracing on so the gate can compare the full score trace,
    // not just alarms. Compaction stays off to keep WAL replay (rather
    // than checkpoint restore) on the recovery path this gate measures;
    // since checkpoint v3 carries the trace, either path preserves it.
    let durable_cfg = DurableConfig {
        batch,
        compact_every: u64::MAX,
        record_scores: true,
        ..DurableConfig::default()
    };
    let sup_cfg = SuperviseConfig::default();
    let cfg_hash = config_hash(&format!(
        "{fleet_cfg:?}|{online_cfg:?}|{ingest_cfg:?}|{durable_cfg:?}|{sup_cfg:?}|\
         schedules={schedules}|chaos_events={chaos_events}"
    ));

    // One simulated, hardened-ingested output stream shared by all runs.
    let planned = EventFleet::plan(&fleet_cfg);
    let lake = DataLake::new();
    for (id, p, spec) in planned.catalog() {
        lake.register_dimm(id, p, spec);
    }
    let mut events: Vec<MemEvent> = Vec::new();
    planned.run_stream(&ShardConfig::default(), |e| events.push(e));
    let end = events
        .last()
        .map_or(SimTime::ZERO + fleet_cfg.horizon, |e| {
            SimTime::from_secs(e.time().as_secs()) + SimDuration::days(2)
        });
    let mut outs: Vec<IngestOutput> = Vec::new();
    ingest_bounded(
        &lake,
        ingest_cfg,
        4,
        256,
        |emit| {
            for e in &events {
                emit(*e);
            }
        },
        |o| outs.push(o),
    );
    println!(
        "failover_chaos: {} dimms, {} events, {} ingest outputs, seed {seed} ({cores} cores available)",
        planned.dimm_count(),
        events.len(),
        outs.len(),
    );

    let registry = ModelRegistry::new();
    let eval = Evaluation::from_confusion(
        Confusion {
            tp: 1,
            fp: 0,
            fn_: 0,
            tn: 1,
        },
        0.5,
    );
    let mid = registry.register(
        Algorithm::RiskyCePattern,
        Platform::IntelPurley,
        SimTime::ZERO,
        eval,
        0.5,
        Model::RiskyCe(RiskyCePattern::default()),
    );
    registry.promote(mid);

    // The uncrashed sequential oracle.
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let mut seq = OnlinePredictor::new(&lake, &store, &registry, Platform::IntelPurley, online_cfg);
    seq.set_score_trace(true);
    let t0 = Instant::now();
    for o in &outs {
        seq.apply(o);
    }
    seq.finish(end);
    let seq_secs = t0.elapsed().as_secs_f64();
    let ref_alarms = seq.alarms().to_vec();
    let ref_scores = seq.score_trace().to_vec();
    let ref_scored = seq.scored();
    println!(
        "  oracle:  {:>9} outputs, {:>5} alarms, {:>9} scored in {seq_secs:>7.2}s",
        outs.len(),
        ref_alarms.len(),
        ref_scored,
    );

    // The gate: {1, 2, 4} shards x `schedules` seeded chaos schedules,
    // each mixing kills (with torn WAL tails), hangs and transient
    // panics across the run.
    let mut identical = true;
    let mut run_secs: Vec<f64> = Vec::new();
    let mut restarts = 0u64;
    let mut panics_caught = 0u64;
    let mut hangs_detected = 0u64;
    let mut kills_injected = 0u64;
    let mut replayed_outputs = 0u64;
    let mut quarantined = 0u64;
    let mut runs = 0usize;
    for &shards in &[1usize, 2, 4] {
        for k in 0..schedules {
            let chaos_seed = seed ^ ((shards as u64) << 32) ^ (k as u64);
            let plan = ChaosPlan::seeded(chaos_seed, shards, outs.len(), chaos_events, 2);
            let dir = scratch(&format!("s{shards}k{k}"));
            let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
            let sup = Supervisor::new(
                &dir,
                &lake,
                &stores,
                &registry,
                Platform::IntelPurley,
                online_cfg,
                durable_cfg,
                sup_cfg,
            )
            .expect("open supervisor");
            let t = Instant::now();
            let outcome = sup.run(&outs, end, &plan).expect("supervised run");
            let secs = t.elapsed().as_secs_f64();
            run_secs.push(secs);
            let ok = outcome.alarms == ref_alarms
                && outcome.scores == ref_scores
                && outcome.scored == ref_scored
                && outcome.live_shards == shards;
            println!(
                "  shards {shards} schedule {k}: {:>2} restarts, {:>2} kills, {:>2} hangs, \
                 {:>2} panics, {:>7} replayed in {secs:>6.2}s, identical {ok}",
                outcome.report.restarts,
                outcome.report.kills_injected,
                outcome.report.hangs_detected,
                outcome.report.panics_caught,
                outcome.report.replayed_outputs,
            );
            identical &= ok;
            restarts += outcome.report.restarts;
            panics_caught += outcome.report.panics_caught;
            hangs_detected += outcome.report.hangs_detected;
            kills_injected += outcome.report.kills_injected;
            replayed_outputs += outcome.report.replayed_outputs;
            quarantined += outcome.report.quarantined.len() as u64;
            runs += 1;
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let mean_run = run_secs.iter().sum::<f64>() / run_secs.len().max(1) as f64;
    let max_run = run_secs.iter().cloned().fold(0.0f64, f64::max);
    let json = format!(
        "{{\n  \"bench\": \"failover_chaos\",\n  \"dimms\": {},\n  \"events\": {},\n  \
         \"outputs\": {},\n  \"horizon_days\": {horizon_days},\n  \"seed\": {seed},\n  \
         \"schedules\": {schedules},\n  \"chaos_events\": {chaos_events},\n  \
         \"batch\": {batch},\n  \"cores\": {cores},\n  \"config_hash\": \"{cfg_hash}\",\n  \
         \"oracle\": {{\"wall_secs\": {}, \"alarms\": {}, \"scored\": {ref_scored}}},\n  \
         \"chaos\": {{\"runs\": {runs}, \"identical\": {identical}, \"restarts\": {restarts}, \
         \"kills_injected\": {kills_injected}, \"hangs_detected\": {hangs_detected}, \
         \"panics_caught\": {panics_caught}, \"replayed_outputs\": {replayed_outputs}, \
         \"quarantined\": {quarantined}, \"mean_run_secs\": {}, \"max_run_secs\": {}}}\n}}\n",
        planned.dimm_count(),
        events.len(),
        outs.len(),
        num(seq_secs),
        ref_alarms.len(),
        num(mean_run),
        num(max_run),
    );
    std::fs::write(&out, &json).expect("write baseline json");
    if !identical {
        eprintln!("FAIL: a supervised chaos run diverged from the uncrashed oracle");
        std::process::exit(1);
    }
    println!("all {runs} chaos schedules recovered bit-identically; wrote {out}");
}
