//! Property tests of the hostile-telemetry path: ingestion normalization
//! is idempotent, lossless chaos (duplicates + bounded reorder) never
//! changes the online alarm sequence, crash/restore from a binary
//! checkpoint is bit-identical to an uninterrupted run, and the durable
//! sharded engine (`mfp_mlops::wal::ShardedDurable`) reproduces the
//! sequential predictor — alarms and scores — at any shard count,
//! including across a crash it recovers from its per-shard checkpoints
//! and logs.

use mfp_dram::address::{CellAddr, DimmId};
use mfp_dram::bus::ErrorTransfer;
use mfp_dram::event::{CeEvent, MemEvent};
use mfp_dram::geometry::Platform;
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_ml::metrics::{Confusion, Evaluation};
use mfp_ml::model::{Algorithm, Model};
use mfp_ml::risky_ce::RiskyCePattern;
use mfp_mlops::prelude::*;
use mfp_rng::StdRng;
use mfp_sim::chaos::{inject_chaos, ChaosConfig};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

mod common;
use common::{check, coin, vec_of, CASES};

const NDIMMS: u32 = 3;

fn lake_with_dimms() -> DataLake {
    let lake = DataLake::new();
    for k in 0..NDIMMS {
        lake.register_dimm(
            DimmId::new(k, 0),
            Platform::IntelPurley,
            DimmSpec::default(),
        );
    }
    lake
}

/// Registers + promotes the deterministic risky-CE production model, as
/// the online unit tests do.
fn registry_with_model() -> ModelRegistry {
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
    registry
}

/// A CE on a valid address; `flip` carries the Purley risky signature.
fn ce(t: u64, dimm: DimmId, flip: bool) -> MemEvent {
    let bits: Vec<(u8, u8)> = if flip {
        vec![(1, 20), (5, 21)]
    } else {
        vec![(1, 20)]
    };
    MemEvent::Ce(CeEvent {
        time: SimTime::from_secs(t),
        dimm,
        addr: CellAddr::new(0, (t % 16) as u8, (t % 1000) as u32, (t % 512) as u16),
        transfer: ErrorTransfer::from_bits(bits),
    })
}

/// Strictly time-increasing multi-DIMM CE streams (distinct timestamps,
/// so re-sequenced delivery order is unique).
fn random_stream(rng: &mut StdRng) -> Vec<MemEvent> {
    let raw = vec_of(rng, 10..60, |r| {
        (
            r.random_range(0..NDIMMS),
            coin(r),
            r.random_range(60u64..7_200),
        )
    });
    let mut t = 1_000u64;
    raw.into_iter()
        .map(|(d, flip, gap)| {
            t += gap;
            ce(t, DimmId::new(d, 0), flip)
        })
        .collect()
}

/// A unique scratch directory per test invocation (parallel-safe).
fn test_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "mfp_prop_resilience_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
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
    .expect("open durable root")
}

/// Delivery-ordered stream -> hardened ingestion -> durable sharded
/// serving; the sharded twin of [`run_hardened`], returning the merged
/// alarm and score logs plus the scored count.
fn run_sharded(
    lake: &DataLake,
    registry: &ModelRegistry,
    delivery: &[MemEvent],
    end: SimTime,
    shards: usize,
) -> (Vec<Alarm>, Vec<ScoreRecord>, u64) {
    let dir = test_dir("sharded");
    let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
    let cfg = DurableConfig {
        record_scores: true,
        ..DurableConfig::default()
    };
    let (mut engine, _) = open_root(&dir, lake, &stores, registry, cfg);
    let mut ingestor = Ingestor::new(
        lake,
        IngestConfig {
            lateness: SimDuration::hours(1),
            ..IngestConfig::default()
        },
    );
    for e in delivery {
        for released in ingestor.push(e) {
            engine.push(IngestOutput::Released(released)).unwrap();
        }
    }
    for released in ingestor.flush() {
        engine.push(IngestOutput::Released(released)).unwrap();
    }
    engine.finish(end).unwrap();
    let run = (engine.alarms(), engine.scores(), engine.scored());
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// Delivery-ordered stream -> hardened ingestion -> online prediction;
/// returns the alarm sequence, the score trace and the scored count.
fn run_hardened(
    lake: &DataLake,
    registry: &ModelRegistry,
    delivery: &[MemEvent],
    end: SimTime,
) -> (Vec<Alarm>, Vec<ScoreRecord>, u64) {
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let mut predictor = OnlinePredictor::new(
        lake,
        &store,
        registry,
        Platform::IntelPurley,
        OnlineConfig::default(),
    );
    predictor.set_score_trace(true);
    let mut ingestor = Ingestor::new(
        lake,
        IngestConfig {
            lateness: SimDuration::hours(1),
            ..IngestConfig::default()
        },
    );
    for e in delivery {
        for released in ingestor.push(e) {
            predictor.observe(&released);
        }
    }
    for released in ingestor.flush() {
        predictor.observe(&released);
    }
    predictor.finish(end);
    (
        predictor.alarms().to_vec(),
        predictor.score_trace().to_vec(),
        predictor.scored(),
    )
}

fn assert_alarms_bit_identical(a: &[Alarm], b: &[Alarm]) {
    assert_eq!(a.len(), b.len(), "alarm counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.dimm, y.dimm);
        assert_eq!(x.time, y.time);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
}

fn assert_scores_bit_identical(a: &[ScoreRecord], b: &[ScoreRecord]) {
    assert_eq!(a.len(), b.len(), "score counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.dimm, y.dimm);
        assert_eq!(x.time, y.time);
        assert_eq!(x.score.to_bits(), y.score.to_bits());
    }
}

/// `normalize` is idempotent: a second pass over an already
/// normalized stream changes nothing and rejects nothing.
#[test]
fn normalize_is_idempotent() {
    check("normalize_is_idempotent", CASES, |rng| {
        let events = random_stream(rng);
        let seed = rng.random_range(0u64..1_000);
        let rate = rng.random::<f64>();
        let lake = lake_with_dimms();
        let (hostile, _) = inject_chaos(&events, &ChaosConfig::hostile_at(seed, rate));
        let cfg = IngestConfig {
            lateness: SimDuration::hours(2),
            ..IngestConfig::default()
        };
        let (once, _) = normalize(&lake, cfg, &hostile);
        let (twice, stats) = normalize(&lake, cfg, &once);
        assert_eq!(&once, &twice, "normalization must be a fixpoint");
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.quarantined, 0);
        // And the output is time-ordered.
        assert!(once.windows(2).all(|w| w[0].time() <= w[1].time()));
    });
}

/// Lossless chaos — duplicates plus reorder bounded by the ingestor's
/// lateness — leaves the online alarm sequence bit-identical.
#[test]
fn lossless_chaos_preserves_alarms() {
    check("lossless_chaos_preserves_alarms", CASES, |rng| {
        let events = random_stream(rng);
        let seed = rng.random_range(0u64..1_000);
        let lake = lake_with_dimms();
        let registry = registry_with_model();
        let end = SimTime::from_secs(events.last().map_or(0, |e| e.time().as_secs()))
            + SimDuration::days(2);

        let (clean_alarms, clean_scores, clean_scored) =
            run_hardened(&lake, &registry, &events, end);
        let (chaotic, stats) = inject_chaos(&events, &ChaosConfig::lossless(seed));
        assert_eq!(stats.dropped, 0);
        let (chaos_alarms, chaos_scores, chaos_scored) =
            run_hardened(&lake, &registry, &chaotic, end);

        assert_alarms_bit_identical(&clean_alarms, &chaos_alarms);
        assert_scores_bit_identical(&clean_scores, &chaos_scores);
        assert_eq!(clean_scored, chaos_scored);
    });
}

/// Sharding is invisible: the same hardened delivery through the
/// DIMM-hash partitioned engine yields the sequential predictor's
/// alarm *and score* logs bit for bit, at any shard count — even
/// under lossless chaotic delivery.
#[test]
fn sharded_serving_matches_sequential() {
    check("sharded_serving_matches_sequential", CASES, |rng| {
        let events = random_stream(rng);
        let seed = rng.random_range(0u64..1_000);
        let shards = [1usize, 2, 4][rng.random_range(0..3)];
        let lake = lake_with_dimms();
        let registry = registry_with_model();
        let end = SimTime::from_secs(events.last().map_or(0, |e| e.time().as_secs()))
            + SimDuration::days(2);
        let (delivery, stats) = inject_chaos(&events, &ChaosConfig::lossless(seed));
        assert_eq!(stats.dropped, 0);

        let (seq_alarms, seq_scores, seq_scored) = run_hardened(&lake, &registry, &delivery, end);
        let (sh_alarms, sh_scores, sh_scored) =
            run_sharded(&lake, &registry, &delivery, end, shards);

        assert_alarms_bit_identical(&seq_alarms, &sh_alarms);
        assert_scores_bit_identical(&seq_scores, &sh_scores);
        assert_eq!(seq_scored, sh_scored);
    });
}

/// Crash the durable sharded engine at any prefix — losing whatever it
/// buffered but had not logged yet — recover it from its `MFC1` shard
/// checkpoints and WAL tails, re-feed the stream: alarms, scored and
/// stale counts match the uninterrupted sequential run bit for bit.
/// (Time-ordered delivery: the serving contract — per-shard
/// watermarks only match the global one when no event is stale.)
#[test]
fn sharded_crash_restore_is_bit_identical() {
    let mut restored_checkpoints = 0u32;
    check("sharded_crash_restore_is_bit_identical", CASES, |rng| {
        let events = random_stream(rng);
        let crash_frac = rng.random::<f64>();
        let shards = [1usize, 2, 4][rng.random_range(0..3)];
        let lake = lake_with_dimms();
        let registry = registry_with_model();
        let cfg = OnlineConfig::default();
        let end = SimTime::from_secs(events.last().map_or(0, |e| e.time().as_secs()))
            + SimDuration::days(2);

        // Reference: one uninterrupted sequential predictor.
        let ref_store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut reference =
            OnlinePredictor::new(&lake, &ref_store, &registry, Platform::IntelPurley, cfg);
        for e in &events {
            reference.observe(e);
        }
        reference.finish(end);

        // Crashed durable run: a small compaction budget, so most crashes
        // land after a shard folded its log into a checkpoint. Stop
        // mid-stream, drop the engine, reopen over fresh stores.
        let durable = DurableConfig {
            batch: 2,
            compact_every: 2,
            ..DurableConfig::default()
        };
        let outs: Vec<IngestOutput> = events.iter().map(|e| IngestOutput::Released(*e)).collect();
        let crash_at = ((outs.len() as f64) * crash_frac) as usize;
        let dir = test_dir("crash");
        let stores_a = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let (mut first, _) = open_root(&dir, &lake, &stores_a, &registry, durable);
        for out in &outs[..crash_at] {
            first.push(*out).unwrap();
        }
        drop(first);

        let stores_b = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let (mut resumed, reports) = open_root(&dir, &lake, &stores_b, &registry, durable);
        if reports.iter().any(|r| r.checkpoint_applied > 0) {
            restored_checkpoints += 1;
        }
        for out in &outs {
            resumed.push(*out).unwrap();
        }
        resumed.finish(end).unwrap();

        assert_alarms_bit_identical(reference.alarms(), &resumed.alarms());
        assert_eq!(reference.scored(), resumed.scored());
        let stale: u64 = (0..resumed.shard_count())
            .map(|s| resumed.shard(s).predictor().stale_rejected())
            .sum();
        assert_eq!(reference.stale_rejected(), stale);
        assert_eq!(resumed.consumed(), outs.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    });
    assert!(
        restored_checkpoints > CASES / 4,
        "only {restored_checkpoints} of {CASES} crashes restored a shard checkpoint"
    );
}

/// Crash anywhere, restore from the binary checkpoint, replay the
/// suffix: alarms and scored counts match the uninterrupted run bit
/// for bit.
#[test]
fn crash_restore_is_bit_identical() {
    check("crash_restore_is_bit_identical", CASES, |rng| {
        let events = random_stream(rng);
        let crash_frac = rng.random::<f64>();
        let seed = rng.random_range(0u64..1_000);
        let lake = lake_with_dimms();
        let registry = registry_with_model();
        let cfg = OnlineConfig {
            degraded_grace: SimDuration::hours(30),
            ..OnlineConfig::default()
        };
        // Hostile but lossless delivery so the crash point lands inside a
        // realistic (reordered, duplicated) sequence.
        let (delivery, _) = inject_chaos(&events, &ChaosConfig::lossless(seed));
        let end = SimTime::from_secs(events.last().map_or(0, |e| e.time().as_secs()))
            + SimDuration::days(2);

        // Reference: one uninterrupted run (no ingestor here — the
        // checkpoint contract is about the predictor + feature store).
        let ref_store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut reference =
            OnlinePredictor::new(&lake, &ref_store, &registry, Platform::IntelPurley, cfg);
        for e in &delivery {
            reference.observe(e);
        }
        reference.finish(end);

        // Crashed run: stop mid-stream, checkpoint, serialize, restore.
        let crash_at = ((delivery.len() as f64) * crash_frac) as usize;
        let store_a = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut first =
            OnlinePredictor::new(&lake, &store_a, &registry, Platform::IntelPurley, cfg);
        for e in &delivery[..crash_at] {
            first.observe(e);
        }
        let wire = OnlineCheckpoint::capture(&first, &store_a).encode();
        drop(first);

        let decoded = OnlineCheckpoint::decode(&wire).expect("checkpoint must round-trip");
        let store_b = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut resumed = decoded.restore(&lake, &store_b, &registry);
        for e in &delivery[crash_at..] {
            resumed.observe(e);
        }
        resumed.finish(end);

        assert_alarms_bit_identical(reference.alarms(), resumed.alarms());
        assert_eq!(reference.scored(), resumed.scored());
        assert_eq!(reference.stale_rejected(), resumed.stale_rejected());
        assert_eq!(reference.watermark(), resumed.watermark());
    });
}

/// The ingestor as it deduplicated before fingerprinting: a `HashSet` of
/// whole events plus their FIFO eviction order, in front of the same
/// `(time, seq)` reorder buffer, watermark and gap detection. Only this
/// test keeps it, as the oracle of `Ingestor`.
struct SetIngestor<'a> {
    /// Validation only: `Ingestor::validate` reads the catalog and config.
    validator: Ingestor<'a>,
    cfg: IngestConfig,
    buffer: BTreeMap<(SimTime, u64), MemEvent>,
    seq: u64,
    high_water: SimTime,
    seen: HashSet<MemEvent>,
    seen_order: VecDeque<MemEvent>,
    last_seen: BTreeMap<DimmId, SimTime>,
    gaps: Vec<GapRecord>,
    quarantine: Vec<MemEvent>,
    stats: IngestStats,
}

impl<'a> SetIngestor<'a> {
    fn new(lake: &'a DataLake, cfg: IngestConfig) -> Self {
        SetIngestor {
            validator: Ingestor::new(lake, cfg),
            cfg,
            buffer: BTreeMap::new(),
            seq: 0,
            high_water: SimTime::ZERO,
            seen: HashSet::new(),
            seen_order: VecDeque::new(),
            last_seen: BTreeMap::new(),
            gaps: Vec::new(),
            quarantine: Vec::new(),
            stats: IngestStats::default(),
        }
    }

    fn watermark(&self) -> SimTime {
        self.high_water.saturating_sub(self.cfg.lateness)
    }

    fn push(&mut self, event: &MemEvent) -> Vec<MemEvent> {
        self.stats.received += 1;
        if self.validator.validate(event).is_err() {
            self.stats.rejected += 1;
            return Vec::new();
        }
        if !self.seen.insert(*event) {
            self.stats.duplicates += 1;
            return Vec::new();
        }
        self.seen_order.push_back(*event);
        while self.seen_order.len() > self.cfg.dedup_window.max(1) {
            if let Some(old) = self.seen_order.pop_front() {
                self.seen.remove(&old);
            }
        }
        if event.time() < self.watermark() {
            self.stats.quarantined += 1;
            self.quarantine.push(*event);
            return Vec::new();
        }
        self.buffer.insert((event.time(), self.seq), *event);
        self.seq += 1;
        self.high_water = self.high_water.max(event.time());
        let bound = self.watermark();
        let mut out = Vec::new();
        while let Some((&(t, s), _)) = self.buffer.iter().next() {
            if t > bound {
                break;
            }
            out.extend(self.buffer.remove(&(t, s)));
        }
        self.note_released(&out);
        out
    }

    fn flush(&mut self) -> Vec<MemEvent> {
        let out: Vec<MemEvent> = std::mem::take(&mut self.buffer).into_values().collect();
        self.note_released(&out);
        out
    }

    fn note_released(&mut self, released: &[MemEvent]) {
        self.stats.released += released.len() as u64;
        let Some(threshold) = self.cfg.gap_threshold else {
            return;
        };
        for e in released {
            let t = e.time();
            if let Some(&prev) = self.last_seen.get(&e.dimm()) {
                if t.checked_duration_since(prev).unwrap_or(SimDuration::ZERO) > threshold {
                    self.gaps.push(GapRecord {
                        dimm: e.dimm(),
                        from: prev,
                        to: t,
                    });
                    self.stats.gaps += 1;
                }
            }
            self.last_seen.insert(e.dimm(), t);
        }
    }
}

/// A stream rich in what dedup and re-sequencing must get right: equal
/// timestamps on one DIMM and across DIMMs, exact duplicates in the
/// source itself, silences long enough to count as gaps, and events of a
/// DIMM the catalog does not know.
fn dedup_stream(rng: &mut StdRng) -> Vec<MemEvent> {
    let mut t = 1_000u64;
    let mut out = Vec::new();
    for _ in 0..rng.random_range(10..80) {
        match rng.random_range(0..4) {
            0 => {}
            1 => t += rng.random_range(1u64..600),
            _ => t += rng.random_range(600u64..20_000),
        }
        let dimm = DimmId::new(rng.random_range(0..NDIMMS + 1), 0);
        let e = ce(t, dimm, coin(rng));
        out.push(e);
        if rng.random_range(0..5) == 0 {
            out.push(e);
        }
    }
    out
}

/// The fingerprint-indexed ingestor equals the whole-event `HashSet`
/// oracle push for push on chaotic streams with duplicates, reorder
/// within and beyond the lateness bound, equal timestamps, quarantines
/// and gap detection, under dedup windows of 1 to 8 events, so eviction
/// runs on nearly every push: same releases, gaps, quarantine list and
/// counters.
#[test]
fn fingerprint_dedup_matches_the_set_oracle() {
    let mut totals = IngestStats::default();
    check("fingerprint_dedup_matches_the_set_oracle", CASES, |rng| {
        let events = dedup_stream(rng);
        let seed = rng.random_range(0u64..1_000);
        let chaos = if coin(rng) {
            ChaosConfig::lossless(seed)
        } else {
            ChaosConfig::hostile_at(seed, rng.random::<f64>())
        };
        let (delivery, _) = inject_chaos(&events, &chaos);
        let cfg = IngestConfig {
            lateness: SimDuration::minutes(rng.random_range(0u64..120)),
            dedup_window: rng.random_range(1usize..=8),
            max_timestamp: None,
            gap_threshold: Some(SimDuration::secs(rng.random_range(600u64..30_000))),
        };
        let lake = lake_with_dimms();
        let mut ing = Ingestor::new(&lake, cfg);
        let mut oracle = SetIngestor::new(&lake, cfg);
        for (i, e) in delivery.iter().enumerate() {
            assert_eq!(ing.push(e), oracle.push(e), "releases at push {i}");
            assert_eq!(
                ing.take_gaps(),
                std::mem::take(&mut oracle.gaps),
                "gaps at push {i}"
            );
        }
        assert_eq!(ing.flush(), oracle.flush(), "flush");
        assert_eq!(ing.take_gaps(), oracle.gaps, "gaps at flush");
        assert_eq!(ing.quarantined(), oracle.quarantine.as_slice());
        assert_eq!(ing.stats(), oracle.stats);
        let s = ing.stats();
        totals.rejected += s.rejected;
        totals.duplicates += s.duplicates;
        totals.quarantined += s.quarantined;
        totals.gaps += s.gaps;
    });
    assert!(totals.rejected > 0, "no case rejected an event");
    assert!(totals.duplicates > 0, "no case caught a duplicate");
    assert!(totals.quarantined > 0, "no case quarantined an event");
    assert!(totals.gaps > 0, "no case detected a gap");
}
