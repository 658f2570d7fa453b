//! Durability benchmark and crash-replay identity gate for the
//! write-ahead-logged serving engine (`mfp_mlops::wal::ShardedDurable`):
//! measures the per-shard WALs' logging overhead against the bare
//! sequential predictor, then truncates every shard's log at its own
//! sampled byte offset — a simulated crash — and requires recovery +
//! resume to reproduce the baseline alarm log bit-for-bit. The bare and
//! durable runs are each timed as the median of [`PASSES`] passes, every
//! pass on a fresh store (and WAL root) and checked against the
//! reference alarms. A machine-readable baseline recording `cores` is
//! written to `BENCH_wal.json`; any divergence exits non-zero.
//!
//! `cargo run --release -p mfp-bench --bin wal_replay -- \
//!     [--dimms 2000] [--horizon-days 30] [--seed 29] [--shards 2] \
//!     [--batch 256] [--compact-every 64] [--cuts 8] [--out BENCH_wal.json]`

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
use mfp_mlops::wal::shard_dir;
use mfp_sim::config::FleetConfig;
use mfp_sim::events::EventFleet;
use mfp_sim::sharded::ShardConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed passes of the bare and the durable run; each reports its median.
/// One pass lasts about 0.1 s, so a single timing is mostly noise.
const PASSES: usize = 5;

/// The median of `PASSES` timings.
fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Exits non-zero with `what` unless `ok`.
fn require(ok: bool, what: &str) {
    if !ok {
        eprintln!("FAIL: {what}");
        std::process::exit(1);
    }
}

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
    let d = std::env::temp_dir().join(format!("mfp_wal_replay_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn main() {
    let mut dimms = 2_000usize;
    let mut horizon_days = 30u64;
    let mut seed = 29u64;
    let mut shards = 2usize;
    let mut batch = 256usize;
    let mut compact_every = 64u64;
    let mut cuts = 8usize;
    let mut out = String::from("BENCH_wal.json");
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
            "--shards" => shards = value().parse().expect("--shards takes an integer"),
            "--batch" => batch = value().parse().expect("--batch takes an integer"),
            "--compact-every" => {
                compact_every = value().parse().expect("--compact-every takes an integer");
            }
            "--cuts" => cuts = value().parse().expect("--cuts takes an integer"),
            "--out" => out = value(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    require(shards > 0, "--shards must be at least 1");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fleet_cfg = purley_fleet(dimms, horizon_days, seed);
    let online_cfg = OnlineConfig::default();
    let ingest_cfg = IngestConfig::default();
    let durable_cfg = DurableConfig {
        batch,
        compact_every,
        ..DurableConfig::default()
    };
    let cfg_hash = config_hash(&format!(
        "{fleet_cfg:?}|{online_cfg:?}|{ingest_cfg:?}|{durable_cfg:?}|shards={shards}"
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
        "wal_replay: {} dimms, {} events, {} ingest outputs, seed {seed} ({cores} cores available)",
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

    // Bare sequential baseline: no durability, just prediction. The
    // first pass's alarms are the reference every later run must match.
    let mut ref_alarms = Vec::new();
    let mut bare_secs = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut seq =
            OnlinePredictor::new(&lake, &store, &registry, Platform::IntelPurley, online_cfg);
        let t0 = Instant::now();
        for o in &outs {
            seq.apply(o);
        }
        seq.finish(end);
        bare_secs.push(t0.elapsed().as_secs_f64());
        if pass == 0 {
            ref_alarms = seq.alarms().to_vec();
        }
        require(
            seq.alarms() == ref_alarms,
            "a bare pass diverged from the first",
        );
    }
    let seq_secs = median(bare_secs);
    println!(
        "  bare:    {:>9} outputs, {:>5} alarms in {seq_secs:>7.3}s ({:.0} outputs/s, \
         median of {PASSES})",
        outs.len(),
        ref_alarms.len(),
        outs.len() as f64 / seq_secs.max(1e-9),
    );

    // Durable runs with compaction: the WALs' logging overhead.
    let wal_files = |root: &Path| -> Vec<PathBuf> {
        (0..shards)
            .map(|s| shard_dir(root, s).join("wal.log"))
            .collect()
    };
    let mut durable_secs = Vec::with_capacity(PASSES);
    let mut wal_len = 0u64;
    for pass in 0..PASSES {
        let durable_dir = scratch(&format!("durable{pass}"));
        let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let (mut durable, _) = ShardedDurable::open(
            &durable_dir,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            online_cfg,
            durable_cfg,
        )
        .expect("open durable engine");
        let t1 = Instant::now();
        for o in &outs {
            durable.push(*o).expect("wal push");
        }
        durable.finish(end).expect("wal finish");
        durable_secs.push(t1.elapsed().as_secs_f64());
        require(
            durable.alarms() == ref_alarms,
            "a durable pass diverged from the bare sequential baseline",
        );
        wal_len = wal_files(&durable_dir)
            .iter()
            .map(|f| std::fs::metadata(f).map_or(0, |m| m.len()))
            .sum();
        drop(durable);
        let _ = std::fs::remove_dir_all(&durable_dir);
    }
    let wal_secs = median(durable_secs);
    let overhead = wal_secs / seq_secs.max(1e-9);
    println!(
        "  durable: {:>9} outputs, {:>5} alarms in {wal_secs:>7.3}s ({overhead:.2}x bare, \
         median of {PASSES}; compacted wals {wal_len} bytes)",
        outs.len(),
        ref_alarms.len(),
    );

    // Full-coverage WALs for the crash gate (compaction off so every cut
    // offset exercises replay, not checkpoint restore alone).
    let full_dir = scratch("full");
    let full_stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
    let nocompact = DurableConfig {
        batch,
        compact_every: u64::MAX,
        ..DurableConfig::default()
    };
    let (mut writer, _) = ShardedDurable::open(
        &full_dir,
        &lake,
        &full_stores,
        &registry,
        Platform::IntelPurley,
        online_cfg,
        nocompact,
    )
    .expect("open full-wal engine");
    for o in &outs {
        writer.push(*o).expect("wal push");
    }
    writer.flush().expect("wal flush");
    drop(writer);
    let images: Vec<Vec<u8>> = wal_files(&full_dir)
        .iter()
        .map(|f| std::fs::read(f).expect("read wal image"))
        .collect();
    let image_bytes: usize = images.iter().map(Vec::len).sum();

    // Crash `cuts` times, each shard's log torn at its own seed-derived
    // offset: recover, re-feed the stream, compare.
    let mut rng = mfp_rng::StdRng::from_state(seed);
    let mut replay_secs: Vec<f64> = Vec::new();
    let mut replayed_total = 0u64;
    let mut identical = true;
    for k in 0..cuts {
        let crash_dir = scratch(&format!("cut{k}"));
        let offsets: Vec<usize> = images
            .iter()
            .zip(wal_files(&crash_dir))
            .map(|(image, file)| {
                let cut = (rng.next_u64() % (image.len() as u64 + 1)) as usize;
                std::fs::create_dir_all(file.parent().expect("shard dir"))
                    .expect("create shard dir");
                std::fs::write(&file, &image[..cut]).expect("write truncated wal");
                cut
            })
            .collect();
        let crash_stores =
            make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let t = Instant::now();
        let (mut resumed, reports) = ShardedDurable::open(
            &crash_dir,
            &lake,
            &crash_stores,
            &registry,
            Platform::IntelPurley,
            online_cfg,
            nocompact,
        )
        .expect("recover from truncated wals");
        let replay = t.elapsed().as_secs_f64();
        replay_secs.push(replay);
        let replayed: u64 = reports.iter().map(|r| r.outputs_replayed).sum();
        let torn: u64 = reports.iter().map(|r| r.torn_tail_bytes).sum();
        replayed_total += replayed;
        for o in &outs {
            resumed.push(*o).expect("resume push");
        }
        resumed.finish(end).expect("resume finish");
        let ok = resumed.alarms() == ref_alarms;
        println!(
            "  cut {k}: offsets {offsets:?} → {replayed:>7} replayed, {torn:>5} torn bytes, \
             replay {replay:>6.3}s, identical {ok}",
        );
        identical &= ok;
        let _ = std::fs::remove_dir_all(&crash_dir);
    }
    let _ = std::fs::remove_dir_all(&full_dir);

    let mean_replay = replay_secs.iter().sum::<f64>() / replay_secs.len().max(1) as f64;
    let max_replay = replay_secs.iter().cloned().fold(0.0f64, f64::max);
    let replay_outputs_per_sec = if mean_replay > 0.0 {
        (replayed_total as f64 / cuts.max(1) as f64) / mean_replay
    } else {
        0.0
    };

    let json = format!(
        "{{\n  \"bench\": \"wal_replay\",\n  \"dimms\": {},\n  \"events\": {},\n  \
         \"outputs\": {},\n  \"horizon_days\": {horizon_days},\n  \"seed\": {seed},\n  \
         \"cores\": {cores},\n  \"shards\": {shards},\n  \"batch\": {batch},\n  \
         \"compact_every\": {compact_every},\n  \"config_hash\": \"{cfg_hash}\",\n  \
         \"baseline\": {{\"wall_secs\": {}, \"outputs_per_sec\": {}, \"alarms\": {}}},\n  \
         \"durable\": {{\"wall_secs\": {}, \"outputs_per_sec\": {}, \"overhead_x\": {}, \
         \"compacted_wal_bytes\": {wal_len}}},\n  \
         \"recovery\": {{\"cuts\": {cuts}, \"wal_bytes\": {}, \"identical\": {identical}, \
         \"mean_replay_secs\": {}, \"max_replay_secs\": {}, \
         \"replay_outputs_per_sec\": {}}},\n  \
         \"note\": \"baseline.wall_secs and durable.wall_secs are each the median of {PASSES} \
         passes, each on a fresh store (and WAL root) with its alarms checked against the \
         reference\"\n}}\n",
        planned.dimm_count(),
        events.len(),
        outs.len(),
        num(seq_secs),
        num(outs.len() as f64 / seq_secs.max(1e-9)),
        ref_alarms.len(),
        num(wal_secs),
        num(outs.len() as f64 / wal_secs.max(1e-9)),
        num(overhead),
        image_bytes,
        num(mean_replay),
        num(max_replay),
        num(replay_outputs_per_sec),
    );
    std::fs::write(&out, &json).expect("write baseline json");
    require(
        identical,
        "crash recovery diverged from the uncrashed baseline",
    );
    println!("all {cuts} crash cuts recovered bit-identically; wrote {out}");
}
