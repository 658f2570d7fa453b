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
//! log bit-for-bit or the binary exits non-zero. Each row records the
//! shard and worker counts that ran: the engine clamps workers to
//! `1..=shards`.
//!
//! The baseline row also records the sequential predictor's tick
//! latency, `tick_p50_us` / `tick_p90_us`: in passes of their own, every
//! `apply`/`finish` call that advanced the predictor's watermark is timed
//! (the due ticks plus the event that closed their interval), each tick
//! takes its median over [`gate::PASSES`] passes, and the row reports the
//! nearest-rank 50th and 90th percentiles over ticks.
//!
//! Speedup numbers are only meaningful on a multi-core host — the JSON
//! records `cores` so a single-core CI value is never mistaken for a
//! regression. The identity check is the point on any host.

use mfp_bench::gate::{self, Served};
use mfp_bench::report::baseline::{config_hash, num};
use mfp_dram::geometry::Platform;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_mlops::prelude::*;
use std::time::Instant;

fn main() {
    let mut dimms = 20_000usize;
    let mut matrix: Vec<(usize, usize)> = vec![(1, 1), (2, 2), (4, 4), (8, 4)];
    let mut horizon_days = 30u64;
    let mut seed = 23u64;
    let mut out = String::from("BENCH_serve.json");
    gate::flags(|flag, v| {
        match flag {
            "--dimms" => dimms = gate::value(flag, v)?,
            "--matrix" => matrix = gate::cells(flag, v)?,
            "--horizon-days" => horizon_days = gate::value(flag, v)?,
            "--seed" => seed = gate::value(flag, v)?,
            "--out" => out = v.to_string(),
            _ => return Ok(false),
        }
        Ok(true)
    });

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let platform = Platform::IntelPurley;
    let fleet_cfg = gate::fleet(dimms, horizon_days, seed, Some(platform));
    let online_cfg = OnlineConfig::default();
    let ingest_cfg = IngestConfig::default();
    let cfg_hash = config_hash(&format!("{fleet_cfg:?}|{online_cfg:?}|{ingest_cfg:?}"));

    // One simulated event stream, shared by every run.
    let served = Served::new(&fleet_cfg, ingest_cfg);
    println!(
        "serve_scale: {} dimms, {} events, {horizon_days}-day horizon, seed {seed} ({cores} cores available)",
        served.fleet.dimm_count(),
        served.events.len(),
    );

    // The pattern model the paper deploys first: deterministic, so the
    // benchmark needs no training phase.
    let registry = ModelSpec::default_risky_ce().registry(platform);

    // Sequential baseline: one predictor behind the same hardened ingest
    // the pipeline uses.
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let mut seq = OnlinePredictor::new(&served.lake, &store, &registry, platform, online_cfg);
    let t0 = Instant::now();
    let seq_stats = ingest_bounded(
        &served.lake,
        ingest_cfg,
        4,
        256,
        |emit| served.replay(emit),
        |out| {
            seq.apply(&out);
        },
    );
    seq.finish(served.end);
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
    let mut runs: Vec<String> = Vec::new();
    for &(shards, workers) in &matrix {
        let scfg = ServeConfig {
            online: online_cfg,
            ..ServeConfig::new(shards, workers)
        };
        let t = Instant::now();
        let outcome = serve_pipeline(
            &served.lake,
            &registry,
            platform,
            ProblemConfig::default(),
            FaultThresholds::default(),
            ingest_cfg,
            &scfg,
            served.end,
            |emit| served.replay(emit),
        );
        let secs = t.elapsed().as_secs_f64();
        let identical =
            outcome.alarms == seq_alarms && outcome.ingest.released == seq_stats.released;
        // The engine runs at most one worker per shard: record what ran.
        let (shards, workers) = (outcome.stats.shards, outcome.stats.workers);
        let speedup = seq_secs / secs.max(1e-9);
        let p50_us = outcome.stats.p50_score_secs * 1e6;
        let p99_us = outcome.stats.p99_score_secs * 1e6;
        println!(
            "  {shards:<8} {workers:<8} {secs:>9.2} {speedup:>7.2}x {p50_us:>11.2} {p99_us:>11.2} \
             {identical:>10}"
        );
        gate::require(
            identical,
            &format!(
                "sharded serving diverged from the sequential baseline at \
                 {shards} shards / {workers} workers"
            ),
        );
        runs.push(format!(
            "    {{\"shards\": {shards}, \"workers\": {workers}, \"wall_secs\": {}, \
             \"events_per_sec\": {}, \"speedup\": {}, \"p50_score_us\": {}, \
             \"p99_score_us\": {}, \"identical\": {identical}}}",
            num(secs),
            num(outcome.ingest.released as f64 / secs.max(1e-9)),
            num(speedup),
            num(p50_us),
            num(p99_us),
        ));
    }

    let ticks = tick_latencies(&served, &registry, platform, online_cfg, &seq_alarms);
    let (tick_p50_us, tick_p90_us) = (percentile(&ticks, 0.5), percentile(&ticks, 0.9));
    println!(
        "  sequential ticks: {} per pass, p50 {tick_p50_us:.2} us, p90 {tick_p90_us:.2} us \
         (median of {} passes)",
        ticks.len(),
        gate::PASSES,
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_scale\",\n  \"dimms\": {},\n  \"events\": {},\n  \
         \"horizon_days\": {horizon_days},\n  \"seed\": {seed},\n  \"cores\": {cores},\n  \
         \"config_hash\": \"{cfg_hash}\",\n  \"baseline\": {{\"wall_secs\": {}, \
         \"events_per_sec\": {}, \"alarms\": {}, \"tick_p50_us\": {}, \
         \"tick_p90_us\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        served.fleet.dimm_count(),
        served.events.len(),
        num(seq_secs),
        num(seq_eps),
        seq_alarms.len(),
        num(tick_p50_us),
        num(tick_p90_us),
        runs.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write baseline json");
    println!("all sharded runs bit-identical to the sequential baseline; wrote {out}");
}

/// Each tick's latency in microseconds: the median over [`gate::PASSES`]
/// passes of the sequential predictor over the served outputs, on fresh
/// stores, of every `apply`/`finish` call that advanced the watermark.
/// Every pass must raise `alarms` and time the same number of ticks.
fn tick_latencies(
    served: &Served,
    registry: &ModelRegistry,
    platform: Platform,
    online: OnlineConfig,
    alarms: &[Alarm],
) -> Vec<f64> {
    let mut passes: Vec<Vec<f64>> = Vec::with_capacity(gate::PASSES);
    for _ in 0..gate::PASSES {
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut seq = OnlinePredictor::new(&served.lake, &store, registry, platform, online);
        let mut ticks = Vec::new();
        let mut timed = |seq: &mut OnlinePredictor<'_>, call: &dyn Fn(&mut OnlinePredictor<'_>)| {
            let mark = seq.watermark();
            let t = Instant::now();
            call(seq);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if seq.watermark() > mark {
                ticks.push(us);
            }
        };
        for o in &served.outputs {
            timed(&mut seq, &|p| {
                p.apply(o);
            });
        }
        timed(&mut seq, &|p| p.finish(served.end));
        gate::require(
            seq.alarms() == alarms,
            "a tick-timing pass diverged from the sequential baseline",
        );
        passes.push(ticks);
    }
    let n = passes[0].len();
    gate::require(
        passes.iter().all(|p| p.len() == n),
        "tick-timing passes ran different numbers of ticks",
    );
    (0..n)
        .map(|k| gate::median(passes.iter().map(|p| p[k]).collect()))
        .collect()
}

/// The nearest-rank `q`-th percentile of `xs`.
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}
