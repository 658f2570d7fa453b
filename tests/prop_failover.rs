//! Property tests of the self-healing serving path (`mfp_mlops::wal`
//! per-shard `MFW2` durability + `mfp_mlops::supervise`): for randomized
//! event streams, shard counts and seeded crash-chaos schedules (kills,
//! hangs, torn WAL tails, transient panics), the supervised fleet's
//! merged alarms and scores are bit-identical to an uncrashed sequential
//! oracle. Also checks that each shard's on-disk WAL is a prefix decoder
//! at arbitrary cuts, and that recovering one shard never reads a
//! sibling's files (garbage injected into siblings changes nothing).

use mfp_dram::address::{CellAddr, DimmId};
use mfp_dram::bus::ErrorTransfer;
use mfp_dram::event::{CeEvent, MemEvent};
use mfp_dram::geometry::Platform;
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::SimTime;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_mlops::prelude::*;
use mfp_mlops::supervise::ChaosPlan;
use mfp_mlops::wal::{scan, shard_dir};
use mfp_rng::StdRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod common;
use common::{check, vec_of};

/// A unique scratch directory per test invocation (parallel-safe).
fn test_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "mfp_prop_failover_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn risky_ce(t: u64, dimm: DimmId, flip: bool) -> MemEvent {
    let bits: Vec<(u8, u8)> = if flip {
        vec![(1, 20), (5, 21)]
    } else {
        vec![(1, 20)]
    };
    MemEvent::Ce(CeEvent {
        time: SimTime::from_secs(t),
        dimm,
        addr: CellAddr::new(0, 0, (t / 1000) as u32 % 100, 1),
        transfer: ErrorTransfer::from_bits(bits),
    })
}

/// Registers a small Purley fleet in the lake; returns the
/// catalog so streams can address it.
fn setup(lake: &DataLake, n_dimms: usize) -> Vec<DimmId> {
    let dimms: Vec<DimmId> = (0..n_dimms as u32)
        .map(|k| DimmId::new(k, (k % 2) as u8))
        .collect();
    for &id in &dimms {
        lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
    }
    dimms
}

/// A seed-derived canonical ingest-output stream: time-ordered released
/// events over the fleet with pseudo-random collection gaps sprinkled in.
fn stream(dimms: &[DimmId], seed: u64, events: usize) -> Vec<IngestOutput> {
    let mut rng = StdRng::from_state(seed);
    let mut out = Vec::with_capacity(events + events / 8);
    for k in 0..events as u64 {
        let d = dimms[(rng.next_u64() % dimms.len() as u64) as usize];
        let risky = rng.next_u64().is_multiple_of(2);
        out.push(IngestOutput::Released(risky_ce(
            1_000 + k * 1_800,
            d,
            risky,
        )));
        if rng.next_u64().is_multiple_of(11) {
            let g = dimms[(rng.next_u64() % dimms.len() as u64) as usize];
            out.push(IngestOutput::Gap(GapRecord {
                dimm: g,
                from: SimTime::from_secs(1_000 + k * 1_800),
                to: SimTime::from_secs(2_000 + k * 1_800),
            }));
        }
    }
    out
}

/// The uncrashed sequential oracle over the same stream.
fn oracle(
    lake: &DataLake,
    registry: &ModelRegistry,
    outs: &[IngestOutput],
    end: SimTime,
) -> (Vec<Alarm>, Vec<ScoreRecord>, u64) {
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let mut p = OnlinePredictor::new(
        lake,
        &store,
        registry,
        Platform::IntelPurley,
        OnlineConfig::default(),
    );
    p.set_score_trace(true);
    for out in outs {
        p.apply(out);
    }
    p.finish(end);
    (p.alarms().to_vec(), p.score_trace().to_vec(), p.scored())
}

/// Per-shard durable config with score tracing and no compaction, so
/// score traces survive recovery and can be compared bit-for-bit.
fn traced() -> DurableConfig {
    DurableConfig {
        batch: 4,
        compact_every: u64::MAX,
        record_scores: true,
        ..DurableConfig::default()
    }
}

/// The default apply guard for direct `DurableShard` access.
fn unguarded<'a>() -> impl FnMut(&mut OnlinePredictor<'a>, &IngestOutput, u64) -> ApplyVerdict {
    |p, out, _seq| {
        p.apply(out);
        ApplyVerdict::Applied
    }
}

/// The crash-chaos gate, randomized: any seeded schedule of kills,
/// hangs, torn tails and transient panics over any shard count
/// recovers to merged alarms and scores bit-identical to the
/// uncrashed sequential oracle.
#[test]
fn supervised_chaos_recovery_is_bit_identical() {
    check("supervised_chaos_recovery_is_bit_identical", 8, |rng| {
        let seed = rng.random_range(0u64..1_000_000);
        let shards = rng.random_range(1usize..=4);
        let chaos_events = rng.random_range(0usize..8);
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake, 6);
        let outs = stream(&dimms, seed, 60);
        let end = SimTime::from_secs(40 * 86_400);
        let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, end);

        let dir = test_dir("chaos");
        let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let sup = Supervisor::new(
            &dir,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            SuperviseConfig::default(),
        )
        .unwrap();
        let plan = ChaosPlan::seeded(seed ^ 0xDEAD, shards, outs.len(), chaos_events, 2);
        let out = sup.run(&outs, end, &plan).unwrap();

        assert_eq!(out.alarms, ref_alarms, "alarms under chaos");
        assert_eq!(out.scores, ref_scores, "scores under chaos");
        assert_eq!(out.scored, ref_scored, "invocations under chaos");
        assert_eq!(out.live_shards, shards);
        assert!(
            out.report.quarantined.is_empty(),
            "seeded plans are transient"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Every shard's on-disk log under `MFW2` is an independent prefix
/// decoder: cut each shard's WAL at an arbitrary byte and the scan
/// returns exactly the records that fit; re-opening the root and
/// re-feeding the canonical stream recovers bit-identically even
/// though every shard was cut at a different offset.
#[test]
fn per_shard_wal_scan_is_a_prefix_decoder_at_arbitrary_cuts() {
    check(
        "per_shard_wal_scan_is_a_prefix_decoder_at_arbitrary_cuts",
        8,
        |rng| {
            let seed = rng.random_range(0u64..1_000_000);
            let shards = rng.random_range(1usize..=4);
            let cut_fracs: Vec<f64> = (0..4).map(|_| rng.random::<f64>()).collect();
            let lake = DataLake::new();
            let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
            let dimms = setup(&lake, 6);
            let outs = stream(&dimms, seed, 60);
            let end = SimTime::from_secs(40 * 86_400);
            let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, end);

            let dir = test_dir("cuts");
            let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
            let (mut sd, _) = ShardedDurable::open(
                &dir,
                &lake,
                &stores,
                &registry,
                Platform::IntelPurley,
                OnlineConfig::default(),
                traced(),
            )
            .unwrap();
            for out in &outs {
                sd.push(*out).unwrap();
            }
            sd.flush().unwrap();
            drop(sd);

            for s in 0..shards {
                let path = shard_dir(&dir, s).join("wal.log");
                let image = std::fs::read(&path).unwrap();
                let full = scan(&image).expect("full shard image scans");
                assert_eq!(full.torn_bytes, 0);

                // Prefix-decoder property on this shard's image.
                let cut =
                    5 + (((image.len() - 5) as f64) * cut_fracs[s % cut_fracs.len()]) as usize;
                let torn = scan(&image[..cut]).expect("cut shard image still scans");
                assert!(torn.records.len() <= full.records.len());
                assert_eq!(&torn.records[..], &full.records[..torn.records.len()]);
                assert_eq!(torn.valid_bytes + torn.torn_bytes, cut as u64);

                // Leave the shard actually cut for the recovery check below.
                std::fs::write(&path, &image[..cut]).unwrap();
            }

            let restore = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
            let (mut resumed, reports) = ShardedDurable::open(
                &dir,
                &lake,
                &restore,
                &registry,
                Platform::IntelPurley,
                OnlineConfig::default(),
                traced(),
            )
            .unwrap();
            assert_eq!(reports.len(), shards);
            for out in &outs {
                resumed.push(*out).unwrap();
            }
            resumed.finish(end).unwrap();
            assert_eq!(resumed.alarms(), ref_alarms, "alarms after per-shard cuts");
            assert_eq!(resumed.scores(), ref_scores, "scores after per-shard cuts");
            assert_eq!(resumed.scored(), ref_scored);
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}

/// Recovering one shard reads only its own directory: arbitrary
/// garbage written over every sibling's files changes neither the
/// recovery report nor the recovered state.
#[test]
fn single_shard_recovery_ignores_sibling_garbage() {
    check("single_shard_recovery_ignores_sibling_garbage", 8, |rng| {
        let seed = rng.random_range(0u64..1_000_000);
        let shards = rng.random_range(2usize..=4);
        let victim_garbage = vec_of(rng, 1..64, |r| r.next_u64() as u8);
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake, 6);
        let outs = stream(&dimms, seed, 40);

        let dir = test_dir("isolation");
        let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let (mut sd, _) = ShardedDurable::open(
            &dir,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
        )
        .unwrap();
        for out in &outs {
            sd.push(*out).unwrap();
        }
        sd.flush().unwrap();
        drop(sd);

        let keeper = (seed % shards as u64) as usize;
        let probe = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut guard = unguarded();
        let (unit, baseline) = DurableShard::open(
            shard_dir(&dir, keeper),
            &lake,
            &probe,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            keeper,
            &mut guard,
        )
        .unwrap();
        let baseline_alarms = unit.alarms().to_vec();
        let baseline_fed = unit.fed();
        drop(unit);

        for s in 0..shards {
            if s == keeper {
                continue;
            }
            let sib = shard_dir(&dir, s);
            std::fs::write(sib.join("wal.log"), &victim_garbage).unwrap();
            std::fs::write(sib.join("checkpoint.bin"), &victim_garbage).unwrap();
            std::fs::write(sib.join("quarantine.log"), &victim_garbage).unwrap();
        }

        let probe2 = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut guard2 = unguarded();
        let (unit2, after) = DurableShard::open(
            shard_dir(&dir, keeper),
            &lake,
            &probe2,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            keeper,
            &mut guard2,
        )
        .unwrap();
        assert_eq!(after, baseline, "sibling garbage leaked into recovery");
        assert_eq!(unit2.alarms(), &baseline_alarms[..]);
        assert_eq!(unit2.fed(), baseline_fed);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
