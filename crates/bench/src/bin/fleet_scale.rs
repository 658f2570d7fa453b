//! Fleet-scale demonstration of the event-driven simulator: wall-clock
//! scaling across shard counts and worker counts, with a bit-identity
//! check against the sequential tick oracle on every cell.
//!
//! `cargo run --release -p mfp-bench --bin fleet_scale -- \
//!     [--dimms 10000] [--shards 1,2,4,8] [--workers 1,2,4] \
//!     [--horizon-days 90] [--seed 23] [--out BENCH_fleet.json]`
//!
//! `--dimms` rescales the calibrated three-platform fleet proportionally,
//! so the Table I population mix is preserved at any size. Every
//! `(shards, workers)` cell runs a **timed** run [`PASSES`] times, each
//! with a sink that only counts and folds a cheap digest (so the
//! measurement is the engine's cost, not the comparator's; every pass's
//! digest must equal the first's), and one **untimed** verification run
//! compared event-by-event against the sequential tick oracle. The tick
//! baseline is timed over [`PASSES`] passes too; each pass's log is
//! dropped before the next starts, and the last one is the oracle. Times
//! are medians. Each row records the shard and worker counts that ran:
//! the engine never runs more workers than shards. A divergence exits
//! non-zero.
//!
//! The event engine's win over the tick walk is algorithmic (quiet time
//! is skipped) and shows up even on one core; worker speedups need a
//! multi-core host. With `--out` the run writes a machine-readable
//! baseline (JSON) recording `cores`, so a single-core CI number is never
//! mistaken for a regression.

use mfp_bench::gate::{self, PASSES};
use mfp_bench::report::baseline::{config_hash, num};
use mfp_dram::event::MemEvent;
use mfp_sim::events::EventFleet;
use mfp_sim::fleet::simulate_fleet_tick;
use mfp_sim::sharded::ShardConfig;
use std::time::Instant;

/// Cheap event digest for the timed sink: folds the merge key so the
/// measured run still touches every event, without the 152-byte
/// comparison the verification run pays outside the timer.
fn fold_event(acc: u64, e: &MemEvent) -> u64 {
    let k = 0x2545_F491_4F6C_DD1Du64;
    let x = acc
        ^ e.time().as_secs()
        ^ (u64::from(e.dimm().server.0) << 20)
        ^ (u64::from(e.dimm().slot) << 56);
    (x.wrapping_mul(k)).rotate_left(23)
}

fn main() {
    let mut dimms = 10_000usize;
    let mut shard_counts = vec![8usize];
    let mut worker_counts = vec![1usize, 2, 4];
    let mut horizon_days = 90u64;
    let mut seed = 23u64;
    let mut out: Option<String> = None;
    gate::flags(|flag, v| {
        match flag {
            "--dimms" => dimms = gate::value(flag, v)?,
            "--shards" => shard_counts = gate::list(flag, v)?,
            "--workers" => worker_counts = gate::list(flag, v)?,
            "--horizon-days" => horizon_days = gate::value(flag, v)?,
            "--seed" => seed = gate::value(flag, v)?,
            "--out" => out = Some(v.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    });

    let cfg = gate::fleet(dimms, horizon_days, seed, None);
    let fleet = EventFleet::plan(&cfg);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fleet_scale: {} dimms, {horizon_days}-day horizon, seed {seed} ({cores} cores available)",
        fleet.dimm_count(),
    );

    // One tick log alive at a time: at 100k DIMMs a log takes gigabytes.
    let mut tick_secs = Vec::with_capacity(PASSES);
    let mut baseline = None;
    for _ in 0..PASSES {
        drop(baseline.take());
        let t0 = Instant::now();
        baseline = Some(simulate_fleet_tick(&cfg));
        tick_secs.push(t0.elapsed().as_secs_f64());
    }
    let baseline = baseline.expect("PASSES is not zero");
    let seq_secs = gate::median(tick_secs);
    let seq_events = baseline.log.events();
    println!(
        "  sequential tick: {:>9} events in {seq_secs:>7.2}s  (baseline & oracle, median of {PASSES})",
        seq_events.len(),
    );

    println!(
        "  {:<7} {:<8} {:>9} {:>9} {:>8} {:>10}",
        "shards", "workers", "events", "secs", "speedup", "identical"
    );
    let mut rows: Vec<String> = Vec::new();
    let mut all_identical = true;
    for &shards in &shard_counts {
        for &workers in &worker_counts {
            let scfg = ShardConfig::new(shards, workers);

            // Timed runs: count + digest only.
            let mut secs = Vec::with_capacity(PASSES);
            let mut digests = Vec::with_capacity(PASSES);
            let mut outcome = None;
            for _ in 0..PASSES {
                drop(outcome.take());
                let mut digest = 0u64;
                let t = Instant::now();
                outcome = Some(fleet.run_stream(&scfg, |e| digest = fold_event(digest, &e)));
                secs.push(t.elapsed().as_secs_f64());
                digests.push(digest);
            }
            let secs = gate::median(secs);
            let outcome = outcome.expect("PASSES is not zero");

            // Verification run (untimed): event-by-event against the
            // sequential oracle.
            let mut idx = 0usize;
            let mut identical = digests.iter().all(|&d| d == digests[0]);
            let _ = fleet.run_stream(&scfg, |e| {
                identical &= seq_events.get(idx) == Some(&e);
                idx += 1;
            });
            identical &= idx == seq_events.len();
            identical &= outcome.stats.merged_events as usize == seq_events.len();
            identical &= outcome.dimms == baseline.dimms;
            all_identical &= identical;

            let (shards, workers) = (outcome.stats.shards, outcome.stats.workers);
            println!(
                "  {shards:<7} {workers:<8} {:>9} {secs:>9.2} {:>7.2}x {identical:>10}",
                outcome.stats.merged_events,
                seq_secs / secs.max(1e-9),
            );
            rows.push(format!(
                "    {{\"engine\": \"event\", \"shards\": {shards}, \"workers\": {workers}, \
                 \"wall_secs\": {}, \"events_per_sec\": {}, \"speedup\": {}, \
                 \"identical\": {identical}}}",
                num(secs),
                num(outcome.stats.merged_events as f64 / secs.max(1e-9)),
                num(seq_secs / secs.max(1e-9)),
            ));
        }
    }
    if let Some(path) = out {
        let json = format!(
            "{{\n  \"bench\": \"fleet_scale\",\n  \"dimms\": {},\n  \"events\": {},\n  \
             \"horizon_days\": {horizon_days},\n  \"seed\": {seed},\n  \
             \"cores\": {cores},\n  \"config_hash\": \"{}\",\n  \"baseline\": \
             {{\"engine\": \"tick\", \"wall_secs\": {}, \"events_per_sec\": {}}},\n  \"runs\": [\n{}\n  ],\n  \
             \"note\": \"baseline.wall_secs and every run's wall_secs are the median of {PASSES} \
             passes; every event pass's digest is checked against the first pass's, and one \
             untimed run per cell is compared event by event with the tick oracle\"\n}}\n",
            fleet.dimm_count(),
            seq_events.len(),
            config_hash(&format!("{cfg:?}")),
            num(seq_secs),
            num(seq_events.len() as f64 / seq_secs.max(1e-9)),
            rows.join(",\n"),
        );
        std::fs::write(&path, &json).expect("write baseline json");
        println!("wrote {path}");
    }
    gate::require(
        all_identical,
        "a run diverged from the sequential tick baseline",
    );
    println!("all runs bit-identical to the sequential tick baseline");
}
