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
//! `(shards, workers)` cell runs twice: a **timed** run whose sink only
//! counts and folds a cheap digest (so the measurement is the engine's
//! cost, not the comparator's), and an **untimed** verification run
//! compared event-by-event against the retained sequential baseline. A
//! divergence exits non-zero.
//!
//! The event engine's win over the tick walk is algorithmic (quiet time
//! is skipped) and shows up even on one core; worker speedups need a
//! multi-core host. With `--out` the run writes a machine-readable
//! baseline (JSON) recording `cores`, so a single-core CI number is never
//! mistaken for a regression.

use mfp_bench::report::baseline::{config_hash, num};
use mfp_dram::event::MemEvent;
use mfp_dram::time::SimDuration;
use mfp_sim::config::FleetConfig;
use mfp_sim::events::EventFleet;
use mfp_sim::fleet::simulate_fleet_tick;
use mfp_sim::sharded::ShardConfig;
use std::time::Instant;

/// The calibrated fleet rescaled to roughly `dimms` total DIMMs, keeping
/// the per-platform proportions of the full-population config.
fn fleet_of(dimms: usize, horizon_days: u64, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::calibrated(1.0, seed);
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
            "--shards" => {
                shard_counts = value()
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .expect("--shards takes comma-separated integers")
                    })
                    .collect();
            }
            "--workers" => {
                worker_counts = value()
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .expect("--workers takes comma-separated integers")
                    })
                    .collect();
            }
            "--horizon-days" => {
                horizon_days = value().parse().expect("--horizon-days takes an integer");
            }
            "--seed" => seed = value().parse().expect("--seed takes an integer"),
            "--out" => out = Some(value()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let cfg = fleet_of(dimms, horizon_days, seed);
    let fleet = EventFleet::plan(&cfg);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fleet_scale: {} dimms, {horizon_days}-day horizon, seed {seed} ({cores} cores available)",
        fleet.dimm_count(),
    );

    let t0 = Instant::now();
    let baseline = simulate_fleet_tick(&cfg);
    let seq_secs = t0.elapsed().as_secs_f64();
    let seq_events = baseline.log.events();
    println!(
        "  sequential tick: {:>9} events in {seq_secs:>7.2}s  (baseline & oracle)",
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

            // Timed run: count + digest only.
            let mut digest = 0u64;
            let t = Instant::now();
            let outcome = fleet.run_stream(&scfg, |e| digest = fold_event(digest, &e));
            let secs = t.elapsed().as_secs_f64();

            // Verification run (untimed): event-by-event against the
            // sequential oracle.
            let mut idx = 0usize;
            let mut identical = true;
            let _ = fleet.run_stream(&scfg, |e| {
                identical &= seq_events.get(idx) == Some(&e);
                idx += 1;
            });
            identical &= idx == seq_events.len();
            identical &= outcome.stats.merged_events as usize == seq_events.len();
            identical &= outcome.dimms == baseline.dimms;
            all_identical &= identical;

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
             {{\"engine\": \"tick\", \"wall_secs\": {}, \"events_per_sec\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
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
    if !all_identical {
        eprintln!("FAIL: a run diverged from the sequential tick baseline");
        std::process::exit(1);
    }
    println!("all runs bit-identical to the sequential tick baseline");
}
