//! Property tests of the durability layer (`mfp_mlops::wal`): for
//! randomized event streams, shard counts, batch sizes and compaction
//! budgets, a crash that tears every shard's WAL at its own arbitrary
//! byte offset recovers to a state that — after re-feeding the stream —
//! is bit-identical to an uncrashed sequential run. Also checks the
//! `MFW1` record format round-trips and that a truncated image never
//! yields phantom records.

use mfp_dram::address::{CellAddr, DimmId};
use mfp_dram::bus::ErrorTransfer;
use mfp_dram::event::{CeEvent, MemEvent};
use mfp_dram::geometry::Platform;
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::SimTime;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_mlops::prelude::*;
use mfp_mlops::wal::{encode_record, scan, shard_dir, WalPayload, WalRecord};
use mfp_rng::StdRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

mod common;
use common::{check, coin};

/// A unique scratch directory per test invocation (parallel-safe).
fn test_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "mfp_prop_wal_{tag}_{}_{}",
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
) -> (Vec<Alarm>, u64) {
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let mut p = OnlinePredictor::new(
        lake,
        &store,
        registry,
        Platform::IntelPurley,
        OnlineConfig::default(),
    );
    for out in outs {
        p.apply(out);
    }
    p.finish(end);
    (p.alarms().to_vec(), p.scored())
}

/// Opens (or recovers) the `MFW2` root at `dir` with one shard per store.
fn open_root<'a>(
    dir: &Path,
    lake: &'a DataLake,
    stores: &'a [FeatureStore],
    registry: &'a ModelRegistry,
    cfg: DurableConfig,
) -> (ShardedDurable<'a>, Vec<RecoveryReport>) {
    ShardedDurable::open(
        dir,
        lake,
        stores,
        registry,
        Platform::IntelPurley,
        OnlineConfig::default(),
        cfg,
    )
    .unwrap()
}

/// `MFW1` records round-trip through encode/scan, and truncating the
/// image at an arbitrary byte yields exactly the record prefix that
/// fits — never a phantom or corrupted record.
#[test]
fn wal_image_scan_is_a_prefix_decoder() {
    check("wal_image_scan_is_a_prefix_decoder", 8, |case| {
        let seed = case.random_range(0u64..1_000_000);
        let records = case.random_range(1usize..12);
        let cut_frac = case.random::<f64>();
        let mut rng = StdRng::from_state(seed);
        let dimms: Vec<DimmId> = (0..4u32).map(|k| DimmId::new(k, 0)).collect();
        let mut image = b"MFW1\x01".to_vec();
        let mut encoded: Vec<WalRecord> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..records {
            let record = if rng.next_u64().is_multiple_of(3) {
                WalRecord {
                    seq,
                    payload: WalPayload::Gap(GapRecord {
                        dimm: dimms[(rng.next_u64() % 4) as usize],
                        from: SimTime::from_secs(rng.next_u64() % 1_000_000),
                        to: SimTime::from_secs(rng.next_u64() % 1_000_000),
                    }),
                }
            } else {
                let n = 1 + (rng.next_u64() % 6) as usize;
                let events: Vec<MemEvent> = (0..n as u64)
                    .map(|i| risky_ce(seq * 1_800 + i * 7, dimms[(i % 4) as usize], i % 2 == 0))
                    .collect();
                WalRecord {
                    seq,
                    payload: WalPayload::Events(events),
                }
            };
            seq += record.outputs();
            image.extend_from_slice(&encode_record(&record));
            encoded.push(record);
        }

        // Full image: every record comes back byte-exact.
        let full = scan(&image).expect("full image scans");
        assert_eq!(&full.records, &encoded);
        assert_eq!(full.torn_bytes, 0);

        // Arbitrary truncation: a (possibly empty) strict prefix of the
        // encoded records, plus a measured torn tail covering the rest.
        let cut = 5 + ((image.len() - 5) as f64 * cut_frac) as usize;
        let torn = scan(&image[..cut]).expect("truncated image still scans");
        assert!(torn.records.len() <= encoded.len());
        assert_eq!(&torn.records[..], &encoded[..torn.records.len()]);
        assert_eq!(torn.valid_bytes + torn.torn_bytes, cut as u64);
    });
}

/// Crash anywhere, recover, resume: alarms and model-invocation
/// counts match the uncrashed oracle for arbitrary streams, shard
/// counts, batch sizes and compaction budgets, with every shard's log
/// torn at its own offset.
#[test]
fn crash_recovery_resumes_bit_identically() {
    check("crash_recovery_resumes_bit_identically", 8, |rng| {
        let seed = rng.random_range(0u64..1_000_000);
        let shards = rng.random_range(1usize..=4);
        let batch = rng.random_range(1usize..=16);
        let compact_every = if coin(rng) {
            u64::MAX
        } else {
            rng.random_range(2u64..32)
        };
        let cut_fracs: Vec<f64> = (0..shards).map(|_| rng.random::<f64>()).collect();
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake, 6);
        let outs = stream(&dimms, seed, 60);
        let end = SimTime::from_secs(40 * 86_400);
        let (ref_alarms, ref_scored) = oracle(&lake, &registry, &outs, end);

        // Run the full stream durably, then crash by truncating each
        // shard's WAL at an arbitrary byte offset.
        let dir = test_dir("crash");
        let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let cfg = DurableConfig {
            batch,
            compact_every,
            ..DurableConfig::default()
        };
        let (mut writer, fresh) = open_root(&dir, &lake, &stores, &registry, cfg);
        assert!(fresh.iter().all(|r| *r == RecoveryReport::default()));
        for out in &outs {
            writer.push(*out).unwrap();
        }
        writer.flush().unwrap();
        drop(writer);
        for (s, frac) in cut_fracs.iter().enumerate() {
            let wal_path = shard_dir(&dir, s).join("wal.log");
            let image = std::fs::read(&wal_path).unwrap();
            let cut = (image.len() as f64 * frac) as usize;
            std::fs::write(&wal_path, &image[..cut]).unwrap();
        }

        // Recover, then re-feed the stream: each shard skips the prefix
        // it recovered and resumes from the first output the crash lost.
        let restore_stores =
            make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let (mut resumed, reports) = open_root(&dir, &lake, &restore_stores, &registry, cfg);
        for (s, report) in reports.iter().enumerate() {
            assert!(resumed.shard(s).consumed() >= report.checkpoint_applied);
        }
        assert!(resumed.consumed() <= outs.len() as u64);
        for out in &outs {
            resumed.push(*out).unwrap();
        }
        resumed.finish(end).unwrap();

        assert_eq!(resumed.alarms(), ref_alarms, "alarms after recovery");
        assert_eq!(
            resumed.scored(),
            ref_scored,
            "model invocations after recovery"
        );
        assert_eq!(resumed.consumed(), outs.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
