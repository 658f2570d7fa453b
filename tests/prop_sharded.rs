//! Property tests of the sharded event-driven fleet simulator: for
//! arbitrary seeds, shard counts and worker counts the merged event
//! stream and ground truth are bit-identical to the sequential tick
//! oracle, and a clean sharded stream passes through the hardened
//! ingestor without tripping any watermark defence (no quarantines, no
//! rejects, no dedup hits).

use mfp_dram::time::SimDuration;
use mfp_mlops::prelude::*;
use mfp_sim::prelude::*;

mod common;
use common::check;

/// A tiny calibrated fleet (~150 DIMMs, 45-day horizon): large enough to
/// exercise all three platforms and multi-shard merging, small enough to
/// simulate dozens of times per property.
fn tiny_fleet(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::calibrated(1500.0, seed);
    cfg.horizon = SimDuration::days(45);
    cfg
}

/// Sharding is a pure execution detail: any (shards, workers) choice
/// reproduces the sequential tick oracle bit for bit.
#[test]
fn sharded_equals_sequential() {
    check("sharded_equals_sequential", 8, |rng| {
        let seed = rng.random_range(0u64..1_000_000);
        let shards = rng.random_range(1usize..=8);
        let workers = rng.random_range(1usize..=4);
        let cfg = tiny_fleet(seed);
        let oracle = simulate_fleet_tick(&cfg);
        let got = simulate_fleet_events(&cfg, &ShardConfig::new(shards, workers));
        assert_eq!(
            got.log.events(),
            oracle.log.events(),
            "event stream must be invariant to (shards={}, workers={})",
            shards,
            workers
        );
        assert_eq!(
            got.dimms, oracle.dimms,
            "ground-truth order must be invariant"
        );
    });
}

/// A clean sharded stream fed through the bounded ingest bridge never
/// trips the watermark defences: the k-way merge delivers events in
/// timestamp order, so nothing is quarantined, rejected or deduped,
/// and every event is released in non-decreasing time order.
#[test]
fn clean_sharded_stream_preserves_watermark_invariants() {
    check(
        "clean_sharded_stream_preserves_watermark_invariants",
        8,
        |rng| {
            let seed = rng.random_range(0u64..1_000_000);
            let shards = rng.random_range(1usize..=8);
            let workers = rng.random_range(1usize..=4);
            let batch = rng.random_range(1usize..=512);
            let cfg = tiny_fleet(seed);
            let fleet = EventFleet::plan(&cfg);
            let lake = DataLake::new();
            for (id, platform, spec) in fleet.catalog() {
                lake.register_dimm(id, platform, spec);
            }

            let mut released = 0u64;
            let mut gaps = 0u64;
            let mut last_time = None;
            let mut merged = 0u64;
            let stats = ingest_bounded(
                &lake,
                IngestConfig::default(),
                2,
                batch,
                |emit| {
                    let outcome = fleet.run_stream(&ShardConfig::new(shards, workers), emit);
                    merged = outcome.stats.merged_events;
                },
                |out| match out {
                    IngestOutput::Released(e) => {
                        if let Some(t) = last_time {
                            assert!(t <= e.time(), "release order must be non-decreasing");
                        }
                        last_time = Some(e.time());
                        released += 1;
                    }
                    IngestOutput::Gap(_) => gaps += 1,
                },
            );

            assert_eq!(stats.quarantined, 0, "clean stream must not be quarantined");
            assert_eq!(stats.rejected, 0, "clean stream must not be rejected");
            assert_eq!(stats.duplicates, 0, "clean stream has no duplicates");
            assert_eq!(
                stats.received, merged,
                "every merged event reaches the ingestor"
            );
            assert_eq!(
                stats.released, released,
                "stats agree with the observed releases"
            );
            assert_eq!(released, merged, "every event is released exactly once");
            assert_eq!(gaps, 0, "a clean run detects no collection holes");
        },
    );
}
