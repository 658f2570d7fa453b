//! Serving-scale benchmark for the sharded online engine
//! (`mfp_mlops::serve`): throughput and score latency across a
//! shard × worker matrix, with a bit-identity gate against the
//! sequential predictor on every cell and a machine-readable baseline
//! written to `BENCH_serve.json`.
//!
//! `cargo run --release -p mfp-bench --bin serve_scale -- \
//!     [--dimms 20000] [--matrix 1x1,2x2,4x4,8x4] \
//!     [--horizon-days 30] [--seed 23] [--out BENCH_serve.json]`
//!
//! The fleet is the calibrated Purley sub-population rescaled to
//! `--dimms` (the serving engine — like [`OnlinePredictor`] — is
//! single-platform; other platforms would run their own pipeline). The
//! sequential baseline drives one predictor through the same hardened
//! ingest path the pipeline uses, so every matrix cell is an
//! apples-to-apples comparison and must reproduce the baseline alarm
//! log bit-for-bit or the binary exits non-zero.
//!
//! Speedup numbers are only meaningful on a multi-core host — the JSON
//! records `cores` so a single-core CI value is never mistaken for a
//! regression. The identity check is the point on any host.

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

struct CellReport {
    shards: usize,
    workers: usize,
    wall_secs: f64,
    events_per_sec: f64,
    speedup: f64,
    p50_score_us: f64,
    p99_score_us: f64,
    identical: bool,
}

fn main() {
    let mut dimms = 20_000usize;
    let mut matrix: Vec<(usize, usize)> = vec![(1, 1), (2, 2), (4, 4), (8, 4)];
    let mut horizon_days = 30u64;
    let mut seed = 23u64;
    let mut out = String::from("BENCH_serve.json");
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
            "--matrix" => {
                matrix = value()
                    .split(',')
                    .map(|cell| {
                        let (s, w) = cell
                            .trim()
                            .split_once('x')
                            .expect("--matrix takes SHARDSxWORKERS cells");
                        (
                            s.parse().expect("--matrix shard count"),
                            w.parse().expect("--matrix worker count"),
                        )
                    })
                    .collect();
            }
            "--horizon-days" => {
                horizon_days = value().parse().expect("--horizon-days takes an integer");
            }
            "--seed" => seed = value().parse().expect("--seed takes an integer"),
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
    let cfg_hash = config_hash(&format!("{fleet_cfg:?}|{online_cfg:?}|{ingest_cfg:?}"));

    // One simulated event stream, shared by every run: the catalog comes
    // from the plan, the events from the deterministic sharded merge.
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
    println!(
        "serve_scale: {} dimms, {} events, {horizon_days}-day horizon, seed {seed} ({cores} cores available)",
        planned.dimm_count(),
        events.len(),
    );

    // The pattern model the paper deploys first: deterministic, so the
    // benchmark needs no training phase.
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

    // Sequential baseline: one predictor behind the same hardened ingest
    // the pipeline uses.
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let mut seq = OnlinePredictor::new(&lake, &store, &registry, Platform::IntelPurley, online_cfg);
    let t0 = Instant::now();
    let seq_stats = ingest_bounded(
        &lake,
        ingest_cfg,
        4,
        256,
        |emit| {
            for e in &events {
                emit(*e);
            }
        },
        |out| {
            seq.apply(&out);
        },
    );
    seq.finish(end);
    let seq_secs = t0.elapsed().as_secs_f64();
    let seq_alarms = seq.alarms().to_vec();
    let seq_eps = seq_stats.released as f64 / seq_secs.max(1e-9);
    println!(
        "  sequential: {:>9} released, {:>6} alarms in {seq_secs:>7.2}s ({:.0} events/s)",
        seq_stats.released,
        seq_alarms.len(),
        seq_eps,
    );

    println!(
        "  {:<8} {:<8} {:>9} {:>8} {:>11} {:>11} {:>10}",
        "shards", "workers", "secs", "speedup", "p50(us)", "p99(us)", "identical"
    );
    let mut cells: Vec<CellReport> = Vec::new();
    for &(shards, workers) in &matrix {
        let scfg = ServeConfig {
            online: online_cfg,
            ..ServeConfig::new(shards, workers)
        };
        let t = Instant::now();
        let outcome = serve_pipeline(
            &lake,
            &registry,
            Platform::IntelPurley,
            ProblemConfig::default(),
            FaultThresholds::default(),
            ingest_cfg,
            &scfg,
            end,
            |emit| {
                for e in &events {
                    emit(*e);
                }
            },
        );
        let secs = t.elapsed().as_secs_f64();
        let identical =
            outcome.alarms == seq_alarms && outcome.ingest.released == seq_stats.released;
        let cell = CellReport {
            shards,
            workers,
            wall_secs: secs,
            events_per_sec: outcome.ingest.released as f64 / secs.max(1e-9),
            speedup: seq_secs / secs.max(1e-9),
            p50_score_us: outcome.stats.p50_score_secs * 1e6,
            p99_score_us: outcome.stats.p99_score_secs * 1e6,
            identical,
        };
        println!(
            "  {:<8} {:<8} {:>9.2} {:>7.2}x {:>11.2} {:>11.2} {:>10}",
            cell.shards,
            cell.workers,
            cell.wall_secs,
            cell.speedup,
            cell.p50_score_us,
            cell.p99_score_us,
            cell.identical,
        );
        if !identical {
            eprintln!(
                "FAIL: sharded serving diverged from the sequential baseline at \
                 {shards} shards / {workers} workers"
            );
            std::process::exit(1);
        }
        cells.push(cell);
    }

    let runs: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"shards\": {}, \"workers\": {}, \"wall_secs\": {}, \
                 \"events_per_sec\": {}, \"speedup\": {}, \"p50_score_us\": {}, \
                 \"p99_score_us\": {}, \"identical\": {}}}",
                c.shards,
                c.workers,
                num(c.wall_secs),
                num(c.events_per_sec),
                num(c.speedup),
                num(c.p50_score_us),
                num(c.p99_score_us),
                c.identical,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_scale\",\n  \"dimms\": {},\n  \"events\": {},\n  \
         \"horizon_days\": {horizon_days},\n  \"seed\": {seed},\n  \"cores\": {cores},\n  \
         \"config_hash\": \"{cfg_hash}\",\n  \"baseline\": {{\"wall_secs\": {}, \
         \"events_per_sec\": {}, \"alarms\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        planned.dimm_count(),
        events.len(),
        num(seq_secs),
        num(seq_eps),
        seq_alarms.len(),
        runs.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write baseline json");
    println!("all sharded runs bit-identical to the sequential baseline; wrote {out}");
}
