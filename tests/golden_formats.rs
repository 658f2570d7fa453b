//! Golden bytes for every format sealed by `mfp_mlops::wal::crc32`.
//!
//! Round-trip tests pass for any codec (or checksum) whose encoder and
//! decoder agree, so a changed CRC kernel or record layout would pass
//! them all. These tests pin committed bytes instead: each fixture under
//! `tests/fixtures/formats/` is decoded with the current code, its
//! contents are checked (sequence numbers, torn bytes, alarm and score
//! counts), and re-encoding what was decoded must reproduce the file
//! byte for byte.
//!
//! The fixtures:
//!
//! * `wal.log`: an `MFW1` log with an events record (a CE, a UE and a
//!   storm), a gap record and a torn tail;
//! * `checkpoint.bin`: an `MFD1` container (its `MFC1` payload inside)
//!   from a compacted 2-shard `ShardedDurable` run with score tracing;
//! * `ipc.bin`: an `MFP1` stream with its header and an `Init`, an
//!   `Outputs`, a `Progress` and a `Report` frame;
//! * `meta.bin`: an `MFW2` meta file for 2 shards;
//! * `lake/`: a `DiskLake` root with one partition segment, its `MFL1`
//!   manifest and its `MFK1` catalog.
//!
//! The `MFK1` catalog and the `Init` frame's catalog hold one DIMM whose
//! spec differs from `DimmSpec::default()` in every field
//! ([`odd_spec`]), so a spec layout that swapped two fields cannot pass.
//! Every strict prefix and every single-bit flip of the sealed metadata
//! files (`meta.bin`, `manifest.bin`, `catalog.bin`, and a sample of
//! `checkpoint.bin`) must be refused with the format's typed error.
//!
//! Regenerate them only when a format changes on purpose:
//! `cargo test --test golden_formats -- --ignored write_format_fixtures`.

use mfp_dram::address::{CellAddr, DimmId};
use mfp_dram::bus::ErrorTransfer;
use mfp_dram::event::{CeEvent, CeStormEvent, MemEvent, UeEvent};
use mfp_dram::geometry::{DataWidth, DeviceGeometry, Platform};
use mfp_dram::spec::{DieProcess, DimmSpec, Frequency, Manufacturer};
use mfp_dram::time::SimTime;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_mlops::prelude::*;
use mfp_mlops::procserve::{scan_frames, stream_header, Msg};
use mfp_mlops::wal::{
    encode_record, scan, shard_dir, WalPayload, WalRecord, WAL_MAGIC, WAL_VERSION,
};
use mfp_rng::StdRng;
use std::collections::BTreeSet;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of the torn record at the end of `wal.log`.
const TORN: usize = 20;
/// Shards of the durable run behind `checkpoint.bin` and `meta.bin`.
const SHARDS: usize = 2;
/// The shard whose checkpoint and report the fixtures hold.
const FIXTURE_SHARD: usize = 0;
/// The lake partition file the `lake/` fixture holds.
const LAKE_SEGMENT: &str = "part-purley-0.log";
/// The DIMM whose catalogued spec is [`odd_spec`].
const ODD_DIMM: DimmId = DimmId::new(7, 1);

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/formats")
        .join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    fs::read(fixture(name)).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

/// A unique scratch directory per test invocation (parallel-safe).
fn test_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "mfp_golden_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("create scratch dir");
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

/// The events record of `wal.log`: one of each event kind, in time order.
fn wal_events() -> Vec<MemEvent> {
    let dimm = DimmId::new(7, 1);
    vec![
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(3_600),
            dimm,
            addr: CellAddr::new(1, 2, 345, 67),
            transfer: ErrorTransfer::from_bits([(1, 20), (5, 21)]),
        }),
        MemEvent::Ue(UeEvent {
            time: SimTime::from_secs(7_200),
            dimm,
            addr: CellAddr::new(1, 3, 4_096, 12),
            transfer: ErrorTransfer::from_bits([(0, 4), (0, 5), (3, 6), (7, 40)]),
        }),
        MemEvent::Storm(CeStormEvent {
            time: SimTime::from_secs(7_260),
            dimm,
            count: 12,
        }),
    ]
}

/// A spec that differs from `DimmSpec::default()` in every field, enum
/// codes included (the default's manufacturer and width codes are both
/// 0).
fn odd_spec() -> DimmSpec {
    DimmSpec {
        manufacturer: Manufacturer::D,
        width: DataWidth::X8,
        frequency: Frequency::Mt2400,
        process: DieProcess::P1z,
        capacity_gib: 64,
        ranks: 1,
        geometry: DeviceGeometry {
            bank_groups: 2,
            banks_per_group: 8,
            row_bits: 16,
            col_bits: 11,
        },
    }
}

/// The spec the fixture catalogs hold for `d`.
fn catalog_spec(d: DimmId) -> DimmSpec {
    if d == ODD_DIMM {
        odd_spec()
    } else {
        DimmSpec::default()
    }
}

/// Registers an 8-DIMM Purley fleet in the lake.
fn setup(lake: &DataLake) -> Vec<DimmId> {
    let dimms: Vec<DimmId> = (0..8u32).map(|k| DimmId::new(k, (k % 2) as u8)).collect();
    for &id in &dimms {
        lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
    }
    dimms
}

/// Time-ordered released events (half the fleet risky) with two gaps.
fn stream(dimms: &[DimmId]) -> Vec<IngestOutput> {
    let mut out: Vec<IngestOutput> = (0..20 * dimms.len() as u64)
        .map(|k| {
            let d = dimms[(k % dimms.len() as u64) as usize];
            IngestOutput::Released(risky_ce(1_000 + k * 1_800, d, d.server.0.is_multiple_of(2)))
        })
        .collect();
    out.insert(
        40,
        IngestOutput::Gap(GapRecord {
            dimm: dimms[0],
            from: SimTime::from_secs(50_000),
            to: SimTime::from_secs(90_000),
        }),
    );
    out.insert(
        90,
        IngestOutput::Gap(GapRecord {
            dimm: dimms[3],
            from: SimTime::from_secs(120_000),
            to: SimTime::from_secs(170_000),
        }),
    );
    out
}

fn end() -> SimTime {
    SimTime::from_secs(400_000)
}

fn durable_cfg() -> DurableConfig {
    DurableConfig {
        batch: 16,
        compact_every: 4,
        fsync: false,
        record_scores: true,
    }
}

fn worker_spec(dimms: &[DimmId]) -> WorkerSpec {
    WorkerSpec {
        shard: FIXTURE_SHARD,
        dir: PathBuf::from("root/shard-000"),
        platform: Platform::IntelPurley,
        online: OnlineConfig::default(),
        durable: durable_cfg(),
        problem: ProblemConfig::default(),
        thresholds: FaultThresholds::default(),
        model: ModelSpec::default_risky_ce(),
        catalog: dimms.iter().map(|&d| (d, catalog_spec(d))).collect(),
        poison: vec![(5, 1)],
    }
}

fn wal_header() -> Vec<u8> {
    let mut h = WAL_MAGIC.to_vec();
    h.push(WAL_VERSION);
    h
}

/// Writes every fixture from the current code. Run it only when a
/// format changes on purpose; the other tests pin what it wrote.
#[test]
#[ignore]
fn write_format_fixtures() {
    fs::create_dir_all(fixture("lake")).expect("create fixture dir");

    // MFW1: events record, gap record, torn tail.
    let events = wal_events();
    let gap = GapRecord {
        dimm: DimmId::new(7, 1),
        from: SimTime::from_secs(8_000),
        to: SimTime::from_secs(20_000),
    };
    let mut wal = wal_header();
    wal.extend_from_slice(&encode_record(&WalRecord {
        seq: 0,
        payload: WalPayload::Events(events.clone()),
    }));
    wal.extend_from_slice(&encode_record(&WalRecord {
        seq: 3,
        payload: WalPayload::Gap(gap),
    }));
    let torn = encode_record(&WalRecord {
        seq: 4,
        payload: WalPayload::Events(events),
    });
    wal.extend_from_slice(&torn[..TORN]);
    fs::write(fixture("wal.log"), &wal).expect("write wal.log");

    // MFD1 + MFW2: a compacted 2-shard durable run with score tracing.
    let lake = DataLake::new();
    let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
    let dimms = setup(&lake);
    let outs = stream(&dimms);
    let root = test_dir("gen");
    let stores = make_stores(SHARDS, ProblemConfig::default(), FaultThresholds::default());
    let (mut engine, _) = ShardedDurable::open(
        &root,
        &lake,
        &stores,
        &registry,
        Platform::IntelPurley,
        OnlineConfig::default(),
        durable_cfg(),
    )
    .expect("open durable root");
    for out in &outs {
        engine.push(*out).expect("push");
    }
    engine.finish(end()).expect("finish");
    fs::copy(
        shard_dir(&root, FIXTURE_SHARD).join("checkpoint.bin"),
        fixture("checkpoint.bin"),
    )
    .expect("copy checkpoint");
    fs::copy(root.join("meta.bin"), fixture("meta.bin")).expect("copy meta");

    // MFP1: what a supervisor and one worker say over a run.
    let shard = engine.shard(FIXTURE_SHARD);
    let routed: Vec<IngestOutput> = outs
        .iter()
        .copied()
        .filter(|o| shard_of(o.dimm(), SHARDS) == FIXTURE_SHARD)
        .collect();
    let released: Vec<MemEvent> = routed
        .iter()
        .filter_map(|o| match o {
            IngestOutput::Released(e) => Some(*e),
            IngestOutput::Gap(_) => None,
        })
        .take(15)
        .collect();
    let mut ipc = stream_header().to_vec();
    for msg in [
        Msg::Init(worker_spec(&dimms)),
        Msg::Outputs {
            records: vec![
                WalRecord {
                    seq: 0,
                    payload: WalPayload::Events(released),
                },
                WalRecord {
                    seq: 15,
                    payload: WalPayload::Gap(gap),
                },
            ],
        },
        Msg::Progress {
            consumed: 16,
            durable: 16,
        },
        Msg::Report {
            alarms: shard.alarms().to_vec(),
            scores: shard.score_trace().to_vec(),
            scored: shard.scored(),
        },
    ] {
        ipc.extend_from_slice(&msg.encode().expect("encode frame"));
    }
    fs::write(fixture("ipc.bin"), &ipc).expect("write ipc.bin");
    drop(engine);
    let _ = fs::remove_dir_all(&root);

    // DiskLake: one partition segment, its manifest and the catalog.
    let lake_root = test_dir("gen_lake");
    let disk = DiskLake::open(&lake_root).expect("open lake");
    for &d in &dimms {
        disk.register_dimm(d, Platform::IntelPurley, catalog_spec(d))
            .expect("register");
    }
    let day: Vec<MemEvent> = outs
        .iter()
        .filter_map(|o| match o {
            IngestOutput::Released(e) if e.time() < SimTime::from_secs(86_400) => Some(*e),
            _ => None,
        })
        .collect();
    disk.ingest(&day).expect("ingest");
    for name in ["catalog.bin", "manifest.bin", LAKE_SEGMENT] {
        fs::copy(lake_root.join(name), fixture(&format!("lake/{name}"))).expect("copy lake file");
    }
    let _ = fs::remove_dir_all(&lake_root);
}

#[test]
fn mfw1_wal_fixture_decodes_and_reencodes_byte_for_byte() {
    let bytes = read_fixture("wal.log");
    let contents = scan(&bytes).expect("MFW1 header");
    assert_eq!(contents.torn_bytes, TORN as u64);
    assert_eq!(contents.valid_bytes as usize, bytes.len() - TORN);
    let seqs: Vec<u64> = contents.records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, [0, 3]);
    match &contents.records[0].payload {
        WalPayload::Events(events) => {
            assert!(matches!(
                events.as_slice(),
                [MemEvent::Ce(_), MemEvent::Ue(_), MemEvent::Storm(s)] if s.count == 12
            ));
            assert_eq!(events, &wal_events());
        }
        other => panic!("record 0 is not an events record: {other:?}"),
    }
    match contents.records[1].payload {
        WalPayload::Gap(g) => {
            assert_eq!(g.dimm, DimmId::new(7, 1));
            assert_eq!((g.from.as_secs(), g.to.as_secs()), (8_000, 20_000));
        }
        ref other => panic!("record 1 is not a gap: {other:?}"),
    }

    let mut again = wal_header();
    for r in &contents.records {
        let sealed = encode_record(r);
        assert!(sealed.len() > 16, "every record runs the 16-byte loop");
        again.extend_from_slice(&sealed);
    }
    // The torn tail is a cut copy of the events record, stamped seq 4.
    let torn = encode_record(&WalRecord {
        seq: 4,
        payload: contents.records[0].payload.clone(),
    });
    again.extend_from_slice(&torn[..TORN]);
    assert_eq!(again, bytes, "MFW1 bytes moved");
}

#[test]
fn mfd1_checkpoint_fixture_decodes_and_reencodes_byte_for_byte() {
    let bytes = read_fixture("checkpoint.bin");
    // The MFD1 envelope: magic, version, applied watermark, payload
    // length, the sealed MFC1 payload, and a CRC over all of it.
    assert_eq!(&bytes[..5], b"MFD1\x01");
    let applied = u64::from_be_bytes(bytes[5..13].try_into().unwrap());
    let plen = u64::from_be_bytes(bytes[13..21].try_into().unwrap()) as usize;
    assert_eq!(plen, bytes.len() - 25);
    let payload = &bytes[21..21 + plen];
    let cp = OnlineCheckpoint::decode(payload).expect("MFC1 payload");
    assert_eq!(cp.encode(), payload, "MFC1 bytes moved");
    let trace = cp.trace.as_ref().expect("score tracing was on");
    // Shard 0 of the run: 80 routed outputs, 4 DIMMs, 72 scores, 2 alarms.
    assert_eq!(applied, 80);
    assert_eq!(cp.streams.len(), 4);
    assert_eq!((cp.alarms.len(), trace.len(), cp.scored), (2, 72, 72));

    let lake = DataLake::new();
    let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
    setup(&lake);
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let dir = test_dir("mfd1");
    fs::write(dir.join("checkpoint.bin"), &bytes).expect("stage fixture");
    let mut apply = |p: &mut OnlinePredictor<'_>, out: &IngestOutput, _seq: u64| {
        p.apply(out);
        ApplyVerdict::Applied
    };
    let (mut shard, report) = DurableShard::open(
        &dir,
        &lake,
        &store,
        &registry,
        Platform::IntelPurley,
        OnlineConfig::default(),
        durable_cfg(),
        FIXTURE_SHARD,
        &mut apply,
    )
    .expect("restore the fixture");
    assert_eq!(report.checkpoint_applied, applied);
    assert_eq!(report.outputs_replayed, 0);
    assert_eq!(shard.alarms(), cp.alarms.as_slice());
    assert_eq!(shard.score_trace(), trace.as_slice());
    assert_eq!(shard.scored(), cp.scored);

    // Compacting the restored shard re-seals the same state.
    shard.compact().expect("compact");
    assert_eq!(
        fs::read(dir.join("checkpoint.bin")).expect("re-read"),
        bytes,
        "MFD1 bytes moved"
    );
    drop(shard);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mfp1_stream_fixture_decodes_and_reencodes_byte_for_byte() {
    let bytes = read_fixture("ipc.bin");
    let scanned = scan_frames(&bytes).expect("MFP1 header");
    assert_eq!(scanned.torn_bytes, 0);
    assert_eq!(scanned.valid_bytes as usize, bytes.len());
    let msgs: Vec<Msg> = scanned
        .frames
        .iter()
        .map(|f| Msg::parse(f).expect("parse frame"))
        .collect();
    match msgs.as_slice() {
        [Msg::Init(spec), Msg::Outputs { records }, Msg::Progress { consumed, durable }, Msg::Report {
            alarms,
            scores,
            scored,
        }] => {
            let lake = DataLake::new();
            let dimms = setup(&lake);
            assert_eq!(spec, &worker_spec(&dimms));
            assert!(spec.catalog.contains(&(ODD_DIMM, odd_spec())));
            let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, [0, 15]);
            assert_eq!(records.iter().map(WalRecord::outputs).sum::<u64>(), 16);
            assert_eq!((*consumed, *durable), (16, 16));
            // The report of the shard `checkpoint.bin` holds.
            assert_eq!((alarms.len(), scores.len(), *scored), (2, 72, 72));
        }
        other => panic!("unexpected frame sequence: {other:?}"),
    }

    let mut again = stream_header().to_vec();
    for m in &msgs {
        again.extend_from_slice(&m.encode().expect("encode"));
    }
    assert_eq!(again, bytes, "MFP1 bytes moved");
}

#[test]
fn mfw2_meta_fixture_decodes_and_reencodes_byte_for_byte() {
    let bytes = read_fixture("meta.bin");
    assert_eq!(bytes.len(), 13);
    assert_eq!(&bytes[..5], b"MFW2\x01");
    assert_eq!(u32::from_be_bytes(bytes[5..9].try_into().unwrap()), 2);

    let lake = DataLake::new();
    let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
    setup(&lake);
    let open = |root: &Path, shards: usize| {
        let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        ShardedDurable::open(
            root,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            durable_cfg(),
        )
        .map(|_| ())
    };
    let root = test_dir("mfw2");
    fs::write(root.join("meta.bin"), &bytes).expect("stage fixture");
    open(&root, SHARDS).expect("the fixture names 2 shards");
    assert!(matches!(
        open(&root, 3),
        Err(WalError::ShardCountMismatch {
            captured: 2,
            stores: 3
        })
    ));

    let fresh = test_dir("mfw2_fresh");
    open(&fresh, SHARDS).expect("open a fresh root");
    assert_eq!(
        fs::read(fresh.join("meta.bin")).expect("read meta"),
        bytes,
        "MFW2 bytes moved"
    );
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&fresh);
}

#[test]
fn disk_lake_fixture_decodes_and_reencodes_byte_for_byte() {
    let root = test_dir("lake");
    let names = ["catalog.bin", "manifest.bin", LAKE_SEGMENT];
    for name in names {
        fs::write(root.join(name), read_fixture(&format!("lake/{name}"))).expect("stage");
    }
    let disk = DiskLake::open(&root).expect("open the fixture lake");
    assert_eq!(disk.memory().catalog_len(), 8);
    assert_eq!(
        disk.memory().dimm_info(ODD_DIMM),
        Some((Platform::IntelPurley, odd_spec()))
    );
    let events = disk.query(Platform::IntelPurley, SimTime::ZERO, end());
    assert_eq!(events.len(), 48);
    assert!(events.windows(2).all(|w| w[0].time() <= w[1].time()));
    assert!(events.iter().all(|e| e.time() < SimTime::from_secs(86_400)));

    let again = test_dir("lake_again");
    DiskLake::from_memory(&again, &disk.to_memory()).expect("re-export");
    for name in names {
        assert_eq!(
            fs::read(again.join(name)).expect("read re-export"),
            fs::read(root.join(name)).expect("read fixture"),
            "{name} bytes moved"
        );
    }
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&again);
}

/// `bytes` with bit `bit` (counted from the first byte's low bit) flipped.
fn flipped(bytes: &[u8], bit: usize) -> (String, Vec<u8>) {
    let mut out = bytes.to_vec();
    out[bit / 8] ^= 1 << (bit % 8);
    (format!("with bit {bit} flipped"), out)
}

/// Every strict prefix of `bytes`.
fn prefixes(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    (0..bytes.len()).map(|n| (format!("cut to {n} bytes"), bytes[..n].to_vec()))
}

/// Every strict prefix and every single-bit flip of `bytes`.
fn every_corruption(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    prefixes(bytes).chain((0..bytes.len() * 8).map(|bit| flipped(bytes, bit)))
}

#[test]
fn mfw2_meta_refuses_every_prefix_and_bit_flip() {
    let bytes = read_fixture("meta.bin");
    let lake = DataLake::new();
    let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
    setup(&lake);
    let stores = make_stores(SHARDS, ProblemConfig::default(), FaultThresholds::default());
    let root = test_dir("mfw2_sweep");
    for (what, bad) in every_corruption(&bytes) {
        fs::write(root.join("meta.bin"), &bad).expect("stage meta");
        let got = ShardedDurable::open(
            &root,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            durable_cfg(),
        )
        .map(|_| ());
        assert!(
            matches!(got, Err(WalError::BadMeta(_))),
            "meta.bin {what}: {got:?}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn lake_metadata_refuses_every_prefix_and_bit_flip() {
    let root = test_dir("lake_sweep");
    for name in ["catalog.bin", "manifest.bin", LAKE_SEGMENT] {
        fs::write(root.join(name), read_fixture(&format!("lake/{name}"))).expect("stage");
    }
    for name in ["manifest.bin", "catalog.bin"] {
        let good = read_fixture(&format!("lake/{name}"));
        for (what, bad) in every_corruption(&good) {
            fs::write(root.join(name), &bad).expect("stage corrupt file");
            let got = DiskLake::open(&root).map(|_| ());
            assert!(
                matches!(got, Err(LakeError::Corrupt(_))),
                "{name} {what}: {got:?}"
            );
        }
        fs::write(root.join(name), &good).expect("restore");
    }
    DiskLake::open(&root).expect("the restored fixture opens");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn mfd1_checkpoint_refuses_prefixes_and_bit_flips() {
    let bytes = read_fixture("checkpoint.bin");
    // Every bit of the 21-byte header (magic, version, applied, payload
    // length) and of the 4-byte crc, plus a seeded sample of the body's.
    let body: Range<usize> = 21 * 8..(bytes.len() - 4) * 8;
    let mut rng = StdRng::seed_from_u64(0x4D46_4431);
    let mut sample = BTreeSet::new();
    while sample.len() < 2_000 {
        sample.insert(rng.random_range(body.clone()));
    }
    let bits = (0..body.start)
        .chain(body.end..bytes.len() * 8)
        .chain(sample);

    let lake = DataLake::new();
    let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
    setup(&lake);
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let dir = test_dir("mfd1_sweep");
    let mut apply = |p: &mut OnlinePredictor<'_>, out: &IngestOutput, _seq: u64| {
        p.apply(out);
        ApplyVerdict::Applied
    };
    for (what, bad) in prefixes(&bytes).chain(bits.map(|bit| flipped(&bytes, bit))) {
        fs::write(dir.join("checkpoint.bin"), &bad).expect("stage checkpoint");
        let got = DurableShard::open(
            &dir,
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            durable_cfg(),
            FIXTURE_SHARD,
            &mut apply,
        )
        .map(|_| ());
        assert!(
            matches!(got, Err(WalError::Checkpoint(_))),
            "checkpoint.bin {what}: {got:?}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
