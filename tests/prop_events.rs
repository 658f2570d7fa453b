//! Cross-engine identity tests for the event-driven simulator core: for
//! a matrix of plan seeds, shard counts and worker counts, the event
//! engine's merged stream and ground truth must be bit-identical to the
//! sequential tick oracle (`simulate_fleet_tick`), including under CE
//! storms and RAS policies (ADDDC lockstep included) and on the planning
//! edge cases the event core must honor (zero-DIMM fleets, fleets smaller
//! than the shard count).
//!
//! The seed/shard/worker matrix is a plain nested loop, not a sampled
//! property: every cell runs on every run.

use mfp_dram::time::SimDuration;
use mfp_sim::prelude::*;

/// A tiny calibrated fleet (~150 DIMMs, 45-day horizon): large enough to
/// exercise all three platforms, RAS-free fault diversity and
/// multi-shard merging, small enough to simulate dozens of times.
fn tiny_fleet(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::calibrated(1500.0, seed);
    cfg.horizon = SimDuration::days(45);
    cfg
}

#[test]
fn event_engine_equals_tick_across_seeds_shards_and_workers() {
    for seed in [11u64, 23, 77] {
        let cfg = tiny_fleet(seed);
        let oracle = simulate_fleet_tick(&cfg);
        for shards in [1usize, 3, 8] {
            for workers in [1usize, 4] {
                let got = simulate_fleet_events(&cfg, &ShardConfig::new(shards, workers));
                assert_eq!(
                    got.log.events(),
                    oracle.log.events(),
                    "event stream must be invariant to (seed={seed}, shards={shards}, workers={workers})"
                );
                assert_eq!(
                    got.dimms, oracle.dimms,
                    "ground-truth order must be invariant (seed={seed}, shards={shards}, workers={workers})"
                );
            }
        }
    }
}

/// Asserts both engines agree bit for bit on `cfg` at 1 and 4 shards;
/// returns the oracle's result.
fn assert_engines_agree(cfg: &FleetConfig) -> FleetResult {
    let oracle = simulate_fleet_tick(cfg);
    for shards in [1usize, 4] {
        let got = simulate_fleet_events(cfg, &ShardConfig::new(shards, 2));
        assert_eq!(got.log.events(), oracle.log.events());
        assert_eq!(got.dimms, oracle.dimms);
    }
    oracle
}

#[test]
fn event_engine_equals_tick_under_ras_policy() {
    // RAS actions mutate fault activity mid-stream (page offlining can
    // kill a fault's remaining hits), which is exactly the state the
    // event engine must thread through its per-DIMM replay.
    let mut cfg = tiny_fleet(23);
    cfg.ras = Some(RasPolicy::default());
    assert_engines_agree(&cfg);

    // The calibrated storm threshold (10 CEs a minute) never fires on a
    // tiny fleet; at 2 the storm window and suppression shape the stream.
    let mut cfg = tiny_fleet(23);
    cfg.storm_threshold = 2;
    let (_, _, storms) = assert_engines_agree(&cfg).log.counts();
    assert!(storms > 0, "the storm input must emit storms");

    // An early ADDDC trigger moves DIMMs onto lockstep decoding.
    let mut cfg = tiny_fleet(11);
    cfg.ras = Some(RasPolicy {
        adddc: Some(AdddcPolicy { activation_ces: 5 }),
        ..RasPolicy::default()
    });
    let oracle = assert_engines_agree(&cfg);
    assert!(
        oracle.dimms.iter().any(|d| d.outcome.adddc_engaged),
        "the ADDDC input must engage lockstep on some DIMM"
    );
}

#[test]
fn zero_dimm_fleet_is_identical_and_empty_on_both_engines() {
    let mut cfg = tiny_fleet(5);
    for pc in &mut cfg.platforms {
        pc.dimms_with_ces = 0;
        pc.sudden_only_dimms = 0;
    }
    let oracle = simulate_fleet_tick(&cfg);
    let got = simulate_fleet_events(&cfg, &ShardConfig::new(4, 2));
    assert!(oracle.log.is_empty(), "zero DIMMs must produce no events");
    assert_eq!(got.log.events(), oracle.log.events());
    assert_eq!(got.dimms, oracle.dimms);
    assert!(got.dimms.is_empty());
}

#[test]
fn fleet_smaller_than_shard_count_is_identical() {
    // 3 platforms x (1 CE DIMM + 1 sudden DIMM) = 6 DIMMs over 32
    // shards: most shards own nothing and must contribute nothing.
    let mut cfg = tiny_fleet(7);
    for pc in &mut cfg.platforms {
        pc.dimms_with_ces = 1;
        pc.sudden_only_dimms = 1;
    }
    let oracle = simulate_fleet_tick(&cfg);
    for scfg in [ShardConfig::new(32, 1), ShardConfig::new(32, 4)] {
        let got = simulate_fleet_events(&cfg, &scfg);
        assert_eq!(got.log.events(), oracle.log.events());
        assert_eq!(got.dimms, oracle.dimms);
    }
}
