//! Crash-chaos gate and failover benchmark for supervised serving
//! (`mfp_mlops::supervise`), on either host of its state machine:
//!
//! * `--host thread` runs each shard's `DurableShard` in this process
//!   under `Supervisor`, subjected to seeded kills (with torn WAL
//!   tails), hangs and transient panics;
//! * `--host process` runs one worker **process** per shard behind the
//!   `MFP1` pipe protocol under `ProcSupervisor`, and the kills are real
//!   `SIGKILL`s.
//!
//! Either way a Purley sub-fleet is simulated once, and the merged
//! alarms and scores of every supervised run must reproduce the
//! uncrashed sequential oracle bit-for-bit at every shard count in
//! {1, 2, 4}. Restart/kill/replay counts and timings land in the `--out`
//! JSON row (`BENCH_failover.json` and `BENCH_procfail.json` are the
//! committed thread and process rows); any divergence exits non-zero.
//!
//! This binary is also its own worker: when re-executed with
//! `--shard-worker` (or the `MFP_SHARD_WORKER` env marker) it becomes a
//! shard worker process instead of running the gate.
//!
//! `cargo run --release -p mfp-bench --bin supervise_chaos -- \
//!     --host thread|process [--dimms 1200] [--horizon-days 30] \
//!     [--seed 29] [--schedules 3] [--chaos-events 6] [--batch 64] \
//!     [--out PATH]`
//!
//! `scripts/smoke.sh failover procfail` runs both committed gates with
//! every value that differs between them.

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

/// Timed passes of the sequential oracle; the median is reported.
const ORACLE_PASSES: usize = 5;

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
    let d = std::env::temp_dir().join(format!("mfp_supervise_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    // Worker mode: the process host re-execs this binary for each
    // shard. Must run before any flag parsing.
    if std::env::var_os(WORKER_ENV).is_some()
        || std::env::args().nth(1).as_deref() == Some("--shard-worker")
    {
        std::process::exit(shard_worker_main());
    }

    let mut process = None;
    let mut dimms = 1_200usize;
    let mut horizon_days = 30u64;
    let mut seed = 29u64;
    let mut schedules = 3usize;
    let mut chaos_events = 6usize;
    let mut batch = 64usize;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage("missing value"));
        let int = |v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes an integer")))
        };
        match flag.as_str() {
            "--host" => {
                process = Some(match value().as_str() {
                    "thread" => false,
                    "process" => true,
                    other => usage(&format!("--host takes thread or process, not {other}")),
                });
            }
            "--dimms" => dimms = int(value()) as usize,
            "--horizon-days" => horizon_days = int(value()),
            "--seed" => seed = int(value()),
            "--schedules" => schedules = int(value()) as usize,
            "--chaos-events" => chaos_events = int(value()) as usize,
            "--batch" => batch = int(value()) as usize,
            "--out" => out = Some(value()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let process = process.unwrap_or_else(|| usage("--host thread|process is required"));
    let host = if process { "process" } else { "thread" };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fleet_cfg = purley_fleet(dimms, horizon_days, seed);
    let online_cfg = OnlineConfig::default();
    let ingest_cfg = IngestConfig::default();
    // Score tracing on so the gate compares the full score trace, not
    // just alarms. Compaction stays off to keep WAL replay (rather than
    // checkpoint restore) on the recovery path this gate measures;
    // since checkpoint v3 carries the trace, either path preserves it.
    let durable_cfg = DurableConfig {
        batch,
        compact_every: u64::MAX,
        record_scores: true,
        ..DurableConfig::default()
    };
    let sup_cfg = SuperviseConfig::default();
    let proc_cfg = ProcConfig {
        supervise: sup_cfg,
        batch,
        ..ProcConfig::default()
    };
    // Each host hashes its own policy struct.
    let policy = if process {
        format!("{proc_cfg:?}")
    } else {
        format!("{sup_cfg:?}")
    };
    let cfg_hash = config_hash(&format!(
        "{fleet_cfg:?}|{online_cfg:?}|{ingest_cfg:?}|{durable_cfg:?}|{policy}|\
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
        "supervise_chaos --host {host}: {} dimms, {} events, {} ingest outputs, seed {seed} \
         ({cores} cores available)",
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

    // The uncrashed sequential oracle. One pass lasts tens of
    // milliseconds, so a single timing is mostly noise.
    let mut oracle_secs = Vec::with_capacity(ORACLE_PASSES);
    let mut oracle = (Vec::new(), Vec::new(), 0);
    for _ in 0..ORACLE_PASSES {
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut seq =
            OnlinePredictor::new(&lake, &store, &registry, Platform::IntelPurley, online_cfg);
        seq.set_score_trace(true);
        let t0 = Instant::now();
        for o in &outs {
            seq.apply(o);
        }
        seq.finish(end);
        oracle_secs.push(t0.elapsed().as_secs_f64());
        oracle = (
            seq.alarms().to_vec(),
            seq.score_trace().to_vec(),
            seq.scored(),
        );
    }
    oracle_secs.sort_by(f64::total_cmp);
    let seq_secs = oracle_secs[ORACLE_PASSES / 2];
    let (ref_alarms, ref_scores, ref_scored) = oracle;
    println!(
        "  oracle:  {:>9} outputs, {:>5} alarms, {:>9} scored in {seq_secs:>7.3}s \
         (median of {ORACLE_PASSES})",
        outs.len(),
        ref_alarms.len(),
        ref_scored,
    );

    let command = WorkerCommand::current_exe().expect("resolve current binary");

    // The gate: {1, 2, 4} shards x `schedules` seeded chaos schedules,
    // each mixing kills (with torn WAL tails), hangs and transient
    // panics across the run. WAL replay is the recovery path:
    // `replayed_outputs` counts outputs re-applied from per-shard logs,
    // and the per-run wall time includes every restart + replay +
    // re-feed cycle — compare `mean_run_secs` against `oracle.wall_secs`
    // for the recovery overhead.
    let mut identical = true;
    let mut run_secs: Vec<f64> = Vec::new();
    let mut reports: Vec<SupervisorReport> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        for k in 0..schedules {
            let chaos_seed = seed ^ ((shards as u64) << 32) ^ (k as u64);
            let plan = ChaosPlan::seeded(chaos_seed, shards, outs.len(), chaos_events, 2);
            let dir = scratch(&format!("{host}_s{shards}k{k}"));
            // Only `run` is timed, as the oracle is: opening a root is
            // not recovery work.
            let (outcome, secs) = if process {
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
                .expect("open process supervisor");
                let t = Instant::now();
                let outcome = sup.run(&outs, end, &plan).expect("process-supervised run");
                (outcome, t.elapsed().as_secs_f64())
            } else {
                let stores =
                    make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
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
                (outcome, t.elapsed().as_secs_f64())
            };
            run_secs.push(secs);
            let ok = outcome.alarms == ref_alarms
                && outcome.scores == ref_scores
                && outcome.scored == ref_scored
                && outcome.live_shards == shards;
            let r = outcome.report;
            println!(
                "  shards {shards} schedule {k}: {:>2} restarts, {:>2} kills, {:>2} sigkills, \
                 {:>2} hangs, {:>2} panics, {:>7} replayed in {secs:>6.2}s, identical {ok}",
                r.restarts,
                r.kills_injected,
                r.sigkills,
                r.hangs_detected,
                r.panics_caught,
                r.replayed_outputs,
            );
            identical &= ok;
            reports.push(r);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let runs = reports.len();
    let sum = |f: fn(&SupervisorReport) -> u64| reports.iter().map(f).sum::<u64>();
    // Spawns, SIGKILLs and ack misses are process-level counts; the
    // thread row keeps the schema of its committed baseline.
    let process_counts = if process {
        format!(
            "\"spawns\": {}, \"sigkills\": {}, \"heartbeat_misses\": {}, ",
            sum(|r| r.spawns),
            sum(|r| r.sigkills),
            sum(|r| r.heartbeat_misses),
        )
    } else {
        String::new()
    };
    let mean_run = run_secs.iter().sum::<f64>() / run_secs.len().max(1) as f64;
    let max_run = run_secs.iter().cloned().fold(0.0f64, f64::max);
    let json = format!(
        "{{\n  \"bench\": \"supervise_chaos\",\n  \"host\": \"{host}\",\n  \"dimms\": {},\n  \
         \"events\": {},\n  \"outputs\": {},\n  \"horizon_days\": {horizon_days},\n  \
         \"seed\": {seed},\n  \"schedules\": {schedules},\n  \"chaos_events\": {chaos_events},\n  \
         \"batch\": {batch},\n  \"cores\": {cores},\n  \"config_hash\": \"{cfg_hash}\",\n  \
         \"oracle\": {{\"wall_secs\": {}, \"alarms\": {}, \"scored\": {ref_scored}}},\n  \
         \"chaos\": {{\"runs\": {runs}, \"identical\": {identical}, \"restarts\": {}, \
         {process_counts}\"kills_injected\": {}, \"hangs_detected\": {}, \
         \"panics_caught\": {}, \"replayed_outputs\": {}, \"quarantined\": {}, \
         \"mean_run_secs\": {}, \"max_run_secs\": {}}},\n  \
         \"note\": \"oracle.wall_secs is the median of {ORACLE_PASSES} passes; mean_run_secs \
includes every restart + MFW2 WAL-replay + re-feed recovery cycle\"\n}}\n",
        planned.dimm_count(),
        events.len(),
        outs.len(),
        num(seq_secs),
        ref_alarms.len(),
        sum(|r| r.restarts),
        sum(|r| r.kills_injected),
        sum(|r| r.hangs_detected),
        sum(|r| r.panics_caught),
        sum(|r| r.replayed_outputs),
        sum(|r| r.quarantined.len() as u64),
        num(mean_run),
        num(max_run),
    );
    if let Some(out) = &out {
        std::fs::write(out, &json).expect("write baseline json");
    }
    if !identical {
        eprintln!("FAIL: a supervised chaos run diverged from the uncrashed oracle");
        std::process::exit(1);
    }
    println!(
        "all {runs} chaos schedules recovered bit-identically on the {host} host{}",
        out.map_or(String::new(), |o| format!("; wrote {o}"))
    );
}
