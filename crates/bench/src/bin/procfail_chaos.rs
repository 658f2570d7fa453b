//! SIGKILL-chaos gate and benchmark for process-isolated serving
//! (`mfp_mlops::procserve`): simulates a Purley sub-fleet, runs one
//! worker **process** per shard behind the `MFP1` pipe protocol, and
//! subjects the fleet to seeded schedules of real `SIGKILL`s (with torn
//! WAL tails), hangs and injected apply panics. The merged alarms and
//! scores must reproduce the uncrashed sequential oracle bit-for-bit at
//! every shard count in {1, 2, 4}. Restart/kill/replay counts and
//! timings land in `BENCH_procfail.json`; any divergence exits
//! non-zero.
//!
//! This binary is also its own worker: when re-executed with
//! `--shard-worker` (or the `MFP_SHARD_WORKER` env marker) it becomes a
//! shard worker process instead of the gate driver.
//!
//! `cargo run --release -p mfp-bench --bin procfail_chaos -- \
//!     [--dimms 400] [--horizon-days 14] [--seed 31] [--schedules 2] \
//!     [--chaos-events 5] [--batch 32] [--out BENCH_procfail.json]`

use mfp_bench::report::baseline::{config_hash, num};
use mfp_dram::address::DimmId;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::spec::DimmSpec;
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
    let d = std::env::temp_dir().join(format!("mfp_procfail_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn main() {
    // Worker mode: the ProcSupervisor re-execs this binary for each
    // shard. Must run before any flag parsing.
    if std::env::var_os(WORKER_ENV).is_some()
        || std::env::args().nth(1).as_deref() == Some("--shard-worker")
    {
        std::process::exit(shard_worker_main());
    }

    let mut dimms = 400usize;
    let mut horizon_days = 14u64;
    let mut seed = 31u64;
    let mut schedules = 2usize;
    let mut chaos_events = 5usize;
    let mut batch = 32usize;
    let mut out = String::from("BENCH_procfail.json");
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
    // Score tracing on so the gate compares full traces, not just
    // alarms; compaction off keeps WAL replay (the recovery path this
    // gate measures) rather than checkpoint restore in the loop.
    let durable_cfg = DurableConfig {
        batch,
        compact_every: u64::MAX,
        record_scores: true,
        ..DurableConfig::default()
    };
    let proc_cfg = ProcConfig {
        batch,
        ..ProcConfig::default()
    };
    let cfg_hash = config_hash(&format!(
        "{fleet_cfg:?}|{online_cfg:?}|{ingest_cfg:?}|{durable_cfg:?}|{proc_cfg:?}|\
         schedules={schedules}|chaos_events={chaos_events}"
    ));

    // One simulated, hardened-ingested output stream shared by all runs.
    let planned = EventFleet::plan(&fleet_cfg);
    let lake = DataLake::new();
    let mut catalog: Vec<(DimmId, DimmSpec)> = Vec::new();
    for (id, p, spec) in planned.catalog() {
        lake.register_dimm(id, p, spec);
        catalog.push((id, spec));
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
        "procfail_chaos: {} dimms, {} events, {} ingest outputs, seed {seed} ({cores} cores available)",
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

    let command = WorkerCommand::current_exe().expect("resolve current binary");

    // The gate: {1, 2, 4} worker processes x `schedules` seeded chaos
    // schedules, each mixing real SIGKILLs (with torn WAL tails), hangs
    // and transient apply panics across the run. WAL replay is the
    // recovery path: `replayed_outputs` below counts outputs re-applied
    // from per-shard logs, and the per-run wall time includes every
    // spawn + replay + re-feed cycle — compare `mean_run_secs` against
    // `oracle.wall_secs` for the recovery overhead.
    let mut identical = true;
    let mut run_secs: Vec<f64> = Vec::new();
    let mut restarts = 0u64;
    let mut spawns = 0u64;
    let mut sigkills = 0u64;
    let mut heartbeat_misses = 0u64;
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
            let sup = ProcSupervisor::new(
                &dir,
                command.clone(),
                shards,
                Platform::IntelPurley,
                online_cfg,
                durable_cfg,
                ProblemConfig::default(),
                FaultThresholds::default(),
                ModelSpec::default_risky_ce(),
                catalog.clone(),
                proc_cfg,
            )
            .expect("open proc supervisor");
            let t = Instant::now();
            let outcome = sup.run(&outs, end, &plan).expect("process-supervised run");
            let secs = t.elapsed().as_secs_f64();
            run_secs.push(secs);
            let ok = outcome.alarms == ref_alarms
                && outcome.scores == ref_scores
                && outcome.scored == ref_scored
                && outcome.live_shards == shards;
            println!(
                "  shards {shards} schedule {k}: {:>2} restarts, {:>2} sigkills, {:>2} hangs, \
                 {:>2} panics, {:>7} replayed in {secs:>6.2}s, identical {ok}",
                outcome.report.restarts,
                outcome.report.sigkills,
                outcome.report.hangs_detected,
                outcome.report.panics_caught,
                outcome.report.replayed_outputs,
            );
            identical &= ok;
            restarts += outcome.report.restarts;
            spawns += outcome.report.spawns;
            sigkills += outcome.report.sigkills;
            heartbeat_misses += outcome.report.heartbeat_misses;
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
        "{{\n  \"bench\": \"procfail_chaos\",\n  \"dimms\": {},\n  \"events\": {},\n  \
         \"outputs\": {},\n  \"horizon_days\": {horizon_days},\n  \"seed\": {seed},\n  \
         \"schedules\": {schedules},\n  \"chaos_events\": {chaos_events},\n  \
         \"batch\": {batch},\n  \"cores\": {cores},\n  \"config_hash\": \"{cfg_hash}\",\n  \
         \"oracle\": {{\"wall_secs\": {}, \"alarms\": {}, \"scored\": {ref_scored}}},\n  \
         \"chaos\": {{\"runs\": {runs}, \"identical\": {identical}, \"restarts\": {restarts}, \
         \"spawns\": {spawns}, \"sigkills\": {sigkills}, \"heartbeat_misses\": {heartbeat_misses}, \
         \"kills_injected\": {kills_injected}, \"hangs_detected\": {hangs_detected}, \
         \"panics_caught\": {panics_caught}, \"replayed_outputs\": {replayed_outputs}, \
         \"quarantined\": {quarantined}, \"mean_run_secs\": {}, \"max_run_secs\": {}}},\n  \
         \"note\": \"mean_run_secs includes every spawn + MFW2 WAL-replay + re-feed recovery \
cycle; compare against oracle.wall_secs for the process-supervision and replay overhead\"\n}}\n",
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
        eprintln!("FAIL: a process-supervised chaos run diverged from the uncrashed oracle");
        std::process::exit(1);
    }
    println!("all {runs} chaos schedules recovered bit-identically; wrote {out}");
}
