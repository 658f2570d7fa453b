//! Fleet-scale demonstration of the sharded simulators: wall-clock scaling
//! across engines, shard counts and worker counts, with a bit-identity
//! check against the sequential tick simulator on every cell.
//!
//! `cargo run --release -p mfp-bench --bin fleet_scale -- \
//!     [--dimms 10000] [--engine tick|event|both] [--shards 1,2,4,8] \
//!     [--workers 1,2,4] [--horizon-days 90] [--seed 23] [--out BENCH_fleet.json]`
//!
//! `--dimms` rescales the calibrated three-platform fleet proportionally,
//! so the Table I population mix is preserved at any size. Every
//! `(engine, shards, workers)` cell runs twice: a **timed** run whose sink
//! only counts and folds a cheap digest (so the measurement is the
//! engine's cost, not the comparator's), and an **untimed** verification
//! run compared event-by-event against the retained sequential baseline.
//! A divergence exits non-zero.
//!
//! Speedup numbers are only meaningful on a multi-core host for the tick
//! engine; the event engine's win is algorithmic (quiet time is skipped)
//! and shows up even on one core. With `--out` the run writes a
//! machine-readable baseline (JSON) recording `cores` and an `engine`
//! field per run row, so a single-core CI number is never mistaken for a
//! regression.

use mfp_bench::report::baseline::{config_hash, num};
use mfp_dram::event::MemEvent;
use mfp_dram::time::SimDuration;
use mfp_sim::config::FleetConfig;
use mfp_sim::events::EventFleet;
use mfp_sim::fleet::simulate_fleet;
use mfp_sim::sharded::{ShardConfig, ShardedFleet, ShardedOutcome};
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

/// One engine under test, dispatching to the matching planned fleet.
enum Engine<'a> {
    Tick(&'a ShardedFleet),
    Event(&'a EventFleet),
}

impl Engine<'_> {
    fn name(&self) -> &'static str {
        match self {
            Engine::Tick(_) => "tick",
            Engine::Event(_) => "event",
        }
    }

    fn run_stream<F: FnMut(MemEvent)>(&self, scfg: &ShardConfig, sink: F) -> ShardedOutcome {
        match self {
            Engine::Tick(f) => f.run_stream(scfg, sink),
            Engine::Event(f) => f.run_stream(scfg, sink),
        }
    }
}

fn main() {
    let mut dimms = 10_000usize;
    let mut engines = vec!["tick".to_string(), "event".to_string()];
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
            "--engine" => {
                let v = value();
                engines = match v.as_str() {
                    "both" => vec!["tick".into(), "event".into()],
                    "tick" | "event" => vec![v],
                    other => {
                        eprintln!("--engine takes tick|event|both, got {other}");
                        std::process::exit(2);
                    }
                };
            }
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
    let tick_fleet = ShardedFleet::plan(&cfg);
    let event_fleet = EventFleet::plan(&cfg);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fleet_scale: {} dimms, {horizon_days}-day horizon, seed {seed}, engines [{}] ({cores} cores available)",
        tick_fleet.dimm_count(),
        engines.join(","),
    );

    let t0 = Instant::now();
    let baseline = simulate_fleet(&cfg);
    let seq_secs = t0.elapsed().as_secs_f64();
    let seq_events = baseline.log.events();
    println!(
        "  sequential tick: {:>9} events in {seq_secs:>7.2}s  (baseline & oracle)",
        seq_events.len(),
    );

    println!(
        "  {:<7} {:<7} {:<8} {:>9} {:>9} {:>8} {:>10}",
        "engine", "shards", "workers", "events", "secs", "speedup", "identical"
    );
    let mut rows: Vec<String> = Vec::new();
    let mut all_identical = true;
    for engine_name in &engines {
        let engine = match engine_name.as_str() {
            "tick" => Engine::Tick(&tick_fleet),
            _ => Engine::Event(&event_fleet),
        };
        for &shards in &shard_counts {
            for &workers in &worker_counts {
                let scfg = ShardConfig::new(shards, workers);

                // Timed run: count + digest only.
                let mut digest = 0u64;
                let t = Instant::now();
                let outcome = engine.run_stream(&scfg, |e| digest = fold_event(digest, &e));
                let secs = t.elapsed().as_secs_f64();

                // Verification run (untimed): event-by-event against the
                // sequential oracle.
                let mut idx = 0usize;
                let mut identical = true;
                let _ = engine.run_stream(&scfg, |e| {
                    identical &= seq_events.get(idx) == Some(&e);
                    idx += 1;
                });
                identical &= idx == seq_events.len();
                identical &= outcome.stats.merged_events as usize == seq_events.len();
                all_identical &= identical;

                println!(
                    "  {:<7} {shards:<7} {workers:<8} {:>9} {secs:>9.2} {:>7.2}x {identical:>10}",
                    engine.name(),
                    outcome.stats.merged_events,
                    seq_secs / secs.max(1e-9),
                );
                rows.push(format!(
                    "    {{\"engine\": \"{}\", \"shards\": {shards}, \"workers\": {workers}, \
                     \"wall_secs\": {}, \"events_per_sec\": {}, \"speedup\": {}, \
                     \"identical\": {identical}}}",
                    engine.name(),
                    num(secs),
                    num(outcome.stats.merged_events as f64 / secs.max(1e-9)),
                    num(seq_secs / secs.max(1e-9)),
                ));
            }
        }
    }
    if let Some(path) = out {
        let json = format!(
            "{{\n  \"bench\": \"fleet_scale\",\n  \"dimms\": {},\n  \"events\": {},\n  \
             \"horizon_days\": {horizon_days},\n  \"seed\": {seed},\n  \
             \"cores\": {cores},\n  \"config_hash\": \"{}\",\n  \"baseline\": \
             {{\"engine\": \"tick\", \"wall_secs\": {}, \"events_per_sec\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
            tick_fleet.dimm_count(),
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
