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
//! uncrashed sequential oracle (timed over 5 passes, each checked
//! against the first) bit-for-bit at every shard count in {1, 2, 4}.
//! The oracle and both hosts serve one `ModelSpec`: its `registry`
//! in this process, and the spec itself in every worker's `Init`.
//! Restart/kill/replay counts and timings land in the `--out` JSON row
//! (`BENCH_failover.json` and `BENCH_procfail.json` are the committed
//! thread and process rows); any divergence exits non-zero.
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

use mfp_bench::gate::{self, Served, PASSES};
use mfp_bench::report::baseline::{config_hash, num};
use mfp_dram::geometry::Platform;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_mlops::prelude::*;
use std::time::Instant;

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
    gate::flags(|flag, v| {
        match flag {
            "--host" => {
                process = Some(match v {
                    "thread" => false,
                    "process" => true,
                    _ => return Err(format!("--host takes thread or process, not {v:?}")),
                });
            }
            "--dimms" => dimms = gate::value(flag, v)?,
            "--horizon-days" => horizon_days = gate::value(flag, v)?,
            "--seed" => seed = gate::value(flag, v)?,
            "--schedules" => schedules = gate::value(flag, v)?,
            "--chaos-events" => chaos_events = gate::value(flag, v)?,
            "--batch" => batch = gate::value(flag, v)?,
            "--out" => out = Some(v.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let process = process.unwrap_or_else(|| gate::usage("--host thread|process is required"));
    let host = if process { "process" } else { "thread" };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let platform = Platform::IntelPurley;
    let fleet_cfg = gate::fleet(dimms, horizon_days, seed, Some(platform));
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
    let served = Served::new(&fleet_cfg, ingest_cfg);
    let outs = &served.outputs;
    println!(
        "supervise_chaos --host {host}: {} dimms, {} events, {} ingest outputs, seed {seed} \
         ({cores} cores available)",
        served.fleet.dimm_count(),
        served.events.len(),
        outs.len(),
    );

    // One model for the oracle and both hosts: the thread host serves the
    // spec's registry, the process host ships the spec to its workers.
    let model = ModelSpec::default_risky_ce();
    let registry = model.registry(platform);
    let oracle = served.oracle(&registry, platform, online_cfg, true);
    println!(
        "  oracle:  {:>9} outputs, {:>5} alarms, {:>9} scored in {:>7.3}s \
         (median of {PASSES})",
        outs.len(),
        oracle.alarms.len(),
        oracle.scored,
        oracle.secs,
    );

    let command = WorkerCommand::current_exe().expect("resolve current binary");
    let catalog: Vec<_> = served
        .fleet
        .catalog()
        .map(|(id, _, spec)| (id, spec))
        .collect();

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
            let dir = gate::scratch(&format!("supervise_{host}_s{shards}k{k}"));
            // Only `run` is timed, as the oracle is: opening a root is
            // not recovery work.
            let (outcome, secs) = if process {
                let sup = ProcSupervisor::new(
                    &dir,
                    command.clone(),
                    shards,
                    platform,
                    online_cfg,
                    durable_cfg,
                    ProblemConfig::default(),
                    FaultThresholds::default(),
                    model,
                    catalog.clone(),
                    proc_cfg,
                )
                .expect("open process supervisor");
                let t = Instant::now();
                let outcome = sup
                    .run(outs, served.end, &plan)
                    .expect("process-supervised run");
                (outcome, t.elapsed().as_secs_f64())
            } else {
                let stores =
                    make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
                let sup = Supervisor::new(
                    &dir,
                    &served.lake,
                    &stores,
                    &registry,
                    platform,
                    online_cfg,
                    durable_cfg,
                    sup_cfg,
                )
                .expect("open supervisor");
                let t = Instant::now();
                let outcome = sup.run(outs, served.end, &plan).expect("supervised run");
                (outcome, t.elapsed().as_secs_f64())
            };
            run_secs.push(secs);
            let ok = outcome.alarms == oracle.alarms
                && outcome.scores == oracle.scores
                && outcome.scored == oracle.scored
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
         \"oracle\": {{\"wall_secs\": {}, \"alarms\": {}, \"scored\": {}}},\n  \
         \"chaos\": {{\"runs\": {runs}, \"identical\": {identical}, \"restarts\": {}, \
         {process_counts}\"kills_injected\": {}, \"hangs_detected\": {}, \
         \"panics_caught\": {}, \"replayed_outputs\": {}, \"quarantined\": {}, \
         \"mean_run_secs\": {}, \"max_run_secs\": {}}},\n  \
         \"note\": \"oracle.wall_secs is the median of {PASSES} passes; mean_run_secs \
includes every restart + MFW2 WAL-replay + re-feed recovery cycle\"\n}}\n",
        served.fleet.dimm_count(),
        served.events.len(),
        outs.len(),
        num(oracle.secs),
        oracle.alarms.len(),
        oracle.scored,
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
    gate::require(
        identical,
        "a supervised chaos run diverged from the uncrashed oracle",
    );
    println!(
        "all {runs} chaos schedules recovered bit-identically on the {host} host{}",
        out.map_or(String::new(), |o| format!("; wrote {o}"))
    );
}
