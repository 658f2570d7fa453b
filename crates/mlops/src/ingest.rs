//! Hardened event ingestion: the defensive layer between hostile telemetry
//! and the online prediction path.
//!
//! Production BMC/MCE streams arrive late, duplicated, reordered,
//! clock-skewed and occasionally malformed (the failure modes
//! `mfp_sim::chaos` models). [`Ingestor`] normalizes such a stream into
//! the clean, time-ordered sequence the [`FeatureStore`](crate::feature_store::FeatureStore)
//! and [`OnlinePredictor`](crate::online::OnlinePredictor) assume:
//!
//! 1. **Schema/range validation** against the lake's DIMM catalog and the
//!    module's device geometry, with per-reason rejection counters in
//!    `mfp-obs` ([`RejectReason`]).
//! 2. **Dedup** over a bounded window of recently admitted events: each
//!    event is fingerprinted once with a keyed hash, and a fingerprint
//!    hit is confirmed by comparing whole events, so distinct events are
//!    never dropped by collision.
//! 3. **Watermark re-sequencing**: admitted events are buffered and
//!    released in timestamp order once the watermark (max admitted
//!    timestamp minus the configured lateness bound) passes them; events
//!    older than the watermark are quarantined, never silently inserted
//!    into already-served windows.
//! 4. **Gap detection**: a released event following a per-DIMM silence
//!    longer than `gap_threshold` produces a [`GapRecord`], the online
//!    analogue of `mfp_ml::metrics::derive_sample_gap` — callers feed
//!    these to `OnlinePredictor::apply` so vote streaks are not glued
//!    across collection holes.
//!
//! The normalization is idempotent (normalize ∘ normalize == normalize,
//! provided the dedup window spans the stream), and for a drop-free,
//! mangle-free chaos stream whose reorder displacement is within the
//! lateness bound it reconstructs the clean stream's event sequence
//! exactly — the property `tests/prop_resilience.rs` checks end to end.

use crate::lake::DataLake;
use mfp_dram::address::DimmId;
use mfp_dram::event::MemEvent;
use mfp_dram::time::{SimDuration, SimTime};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Why an event was rejected at the validation stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// The DIMM is not in the lake's catalog.
    UnknownDimm,
    /// Address components exceed the module's device geometry.
    AddrRange,
    /// A CE/UE carrying no erroneous bit (physically meaningless).
    EmptyTransfer,
    /// A storm event with a zero interrupt count.
    StormCount,
    /// Timestamp beyond the configured plausibility horizon.
    FutureTime,
}

impl RejectReason {
    /// Stable label value for telemetry series.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::UnknownDimm => "unknown_dimm",
            RejectReason::AddrRange => "addr_range",
            RejectReason::EmptyTransfer => "empty_transfer",
            RejectReason::StormCount => "storm_count",
            RejectReason::FutureTime => "future_time",
        }
    }

    /// Every reason, for exhaustive telemetry registration.
    pub const ALL: [RejectReason; 5] = [
        RejectReason::UnknownDimm,
        RejectReason::AddrRange,
        RejectReason::EmptyTransfer,
        RejectReason::StormCount,
        RejectReason::FutureTime,
    ];
}

/// Ingestion configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Lateness bound: an admitted event may be displaced by at most this
    /// much behind the maximum admitted timestamp; older arrivals are
    /// quarantined. This is also the release delay of the reorder buffer.
    pub lateness: SimDuration,
    /// How many recently admitted events the dedup set remembers.
    pub dedup_window: usize,
    /// Reject events stamped after this instant (collector clock-skew
    /// guard); `None` disables the check.
    pub max_timestamp: Option<SimTime>,
    /// Per-DIMM silence longer than this yields a [`GapRecord`]; `None`
    /// disables gap detection.
    pub gap_threshold: Option<SimDuration>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            lateness: SimDuration::hours(1),
            dedup_window: 65_536,
            max_timestamp: None,
            gap_threshold: None,
        }
    }
}

/// A detected per-DIMM collection hole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapRecord {
    /// The silent DIMM.
    pub dimm: DimmId,
    /// Last event before the hole.
    pub from: SimTime,
    /// First event after the hole.
    pub to: SimTime,
}

impl GapRecord {
    /// Length of the hole.
    pub fn length(&self) -> SimDuration {
        self.to
            .checked_duration_since(self.from)
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Counters for one ingestor's lifetime (also exported via `mfp-obs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Events pushed in.
    pub received: u64,
    /// Events failing validation, all reasons combined.
    pub rejected: u64,
    /// Exact duplicates dropped.
    pub duplicates: u64,
    /// Events older than the watermark, set aside.
    pub quarantined: u64,
    /// Events released downstream in time order.
    pub released: u64,
    /// Collection holes detected.
    pub gaps: u64,
}

/// Telemetry handles, resolved once per ingestor.
#[derive(Debug)]
struct IngestMetrics {
    received: mfp_obs::Counter,
    rejected: Vec<(RejectReason, mfp_obs::Counter)>,
    duplicates: mfp_obs::Counter,
    quarantined: mfp_obs::Counter,
    released: mfp_obs::Counter,
    gaps: mfp_obs::Counter,
}

impl IngestMetrics {
    fn new() -> Self {
        IngestMetrics {
            received: mfp_obs::counter("ingest_received", &[]),
            rejected: RejectReason::ALL
                .iter()
                .map(|&r| {
                    (
                        r,
                        mfp_obs::counter("ingest_rejected", &[("reason", r.as_str())]),
                    )
                })
                .collect(),
            duplicates: mfp_obs::counter("ingest_duplicates", &[]),
            quarantined: mfp_obs::counter("ingest_quarantined", &[]),
            released: mfp_obs::counter("ingest_released", &[]),
            gaps: mfp_obs::counter("ingest_gaps_detected", &[]),
        }
    }

    fn reject(&self, reason: RejectReason) {
        if let Some((_, c)) = self.rejected.iter().find(|(r, _)| *r == reason) {
            c.incr();
        }
    }
}

/// Hashes a `u64` fingerprint to itself. Fingerprints are SipHash under a
/// secret per-process key, so a sender cannot steer them into one bucket,
/// and hashing them again would only cost time.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach the index (`write_u64`); folding bytes in
        // keeps any other key of up to eight bytes lossless too.
        for &b in bytes {
            self.0 = self.0 << 8 | u64::from(b);
        }
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One event the dedup window remembers.
#[derive(Debug)]
struct Seen {
    event: MemEvent,
    fingerprint: u64,
    /// Sequence number of the next older remembered event with the same
    /// fingerprint; stale once it falls behind the ring's front.
    older: Option<u64>,
}

/// Exact dedup over the last `window` admitted events.
///
/// Each event is fingerprinted once with a per-process random SipHash key.
/// The ring holds every remembered event once, in admission order, and
/// the index maps each fingerprint to the newest remembered event that
/// has it. Distinct events sharing a fingerprint are chained newest to
/// oldest through [`Seen::older`], a hit counts only when the whole event
/// is equal, and eviction finds the index entry by the stored
/// fingerprint instead of hashing the event again.
#[derive(Debug)]
struct DedupWindow {
    keys: RandomState,
    ring: VecDeque<Seen>,
    /// Sequence number of `ring[0]`; the n-th event ever remembered has
    /// sequence number n.
    front: u64,
    newest: HashMap<u64, u64, BuildHasherDefault<Prehashed>>,
    window: usize,
    /// Test hook: ANDed into every fingerprint, so zero makes every event
    /// collide.
    #[cfg(test)]
    fingerprint_mask: u64,
}

impl DedupWindow {
    fn new(window: usize) -> Self {
        DedupWindow {
            keys: RandomState::new(),
            ring: VecDeque::new(),
            front: 0,
            newest: HashMap::default(),
            window: window.max(1),
            #[cfg(test)]
            fingerprint_mask: u64::MAX,
        }
    }

    #[cfg(not(test))]
    fn fingerprint(&self, event: &MemEvent) -> u64 {
        self.keys.hash_one(event)
    }

    #[cfg(test)]
    fn fingerprint(&self, event: &MemEvent) -> u64 {
        self.keys.hash_one(event) & self.fingerprint_mask
    }

    /// Remembers `event`, evicting the oldest remembered event past the
    /// window; returns false, remembering nothing, when an equal event is
    /// already remembered.
    fn insert(&mut self, event: &MemEvent) -> bool {
        let fingerprint = self.fingerprint(event);
        let older = self.newest.get(&fingerprint).copied();
        let mut link = older;
        while let Some(s) = link.filter(|&s| s >= self.front) {
            let seen = &self.ring[(s - self.front) as usize];
            if seen.event == *event {
                return false;
            }
            link = seen.older;
        }
        let seq = self.front + self.ring.len() as u64;
        self.newest.insert(fingerprint, seq);
        self.ring.push_back(Seen {
            event: *event,
            fingerprint,
            older,
        });
        if self.ring.len() > self.window {
            let old = self.ring.pop_front().expect("ring holds more than one");
            // A newer event with the same fingerprint keeps the entry; its
            // chain link to `old` is stale from here on.
            if self.newest.get(&old.fingerprint) == Some(&self.front) {
                self.newest.remove(&old.fingerprint);
            }
            self.front += 1;
        }
        true
    }
}

/// Streaming normalizer from a hostile event stream to a clean one.
#[derive(Debug)]
pub struct Ingestor<'a> {
    lake: &'a DataLake,
    cfg: IngestConfig,
    /// Reorder buffer keyed by (timestamp, admission sequence): release
    /// order is time order, stable by arrival for equal stamps.
    buffer: BTreeMap<(SimTime, u64), MemEvent>,
    seq: u64,
    /// Maximum admitted timestamp; `watermark() = high_water - lateness`.
    high_water: SimTime,
    dedup: DedupWindow,
    /// Last released timestamp per DIMM, for gap detection.
    last_seen: BTreeMap<DimmId, SimTime>,
    gaps: Vec<GapRecord>,
    quarantine: Vec<MemEvent>,
    stats: IngestStats,
    metrics: IngestMetrics,
}

impl<'a> Ingestor<'a> {
    /// Creates an ingestor validating against `lake`'s DIMM catalog.
    pub fn new(lake: &'a DataLake, cfg: IngestConfig) -> Self {
        Ingestor {
            lake,
            cfg,
            buffer: BTreeMap::new(),
            seq: 0,
            high_water: SimTime::ZERO,
            dedup: DedupWindow::new(cfg.dedup_window),
            last_seen: BTreeMap::new(),
            gaps: Vec::new(),
            quarantine: Vec::new(),
            stats: IngestStats::default(),
            metrics: IngestMetrics::new(),
        }
    }

    /// The current lateness watermark: everything at or after it may still
    /// legally arrive; anything strictly before it is final.
    pub fn watermark(&self) -> SimTime {
        self.high_water.saturating_sub(self.cfg.lateness)
    }

    /// Validates one event against schema, catalog and range bounds.
    pub fn validate(&self, event: &MemEvent) -> Result<(), RejectReason> {
        if self.cfg.max_timestamp.is_some_and(|mt| event.time() > mt) {
            return Err(RejectReason::FutureTime);
        }
        let Some((_, spec)) = self.lake.dimm_info(event.dimm()) else {
            return Err(RejectReason::UnknownDimm);
        };
        match event {
            MemEvent::Ce(ce) => {
                if !ce.addr.is_valid(&spec.geometry, spec.ranks) {
                    return Err(RejectReason::AddrRange);
                }
                if ce.transfer.is_empty() {
                    return Err(RejectReason::EmptyTransfer);
                }
            }
            MemEvent::Ue(ue) => {
                if !ue.addr.is_valid(&spec.geometry, spec.ranks) {
                    return Err(RejectReason::AddrRange);
                }
                if ue.transfer.is_empty() {
                    return Err(RejectReason::EmptyTransfer);
                }
            }
            MemEvent::Storm(s) => {
                if s.count == 0 {
                    return Err(RejectReason::StormCount);
                }
            }
        }
        Ok(())
    }

    /// Feeds one event; returns the events the watermark now releases, in
    /// timestamp order. Invalid, duplicate and too-late events release
    /// nothing and are counted instead.
    pub fn push(&mut self, event: &MemEvent) -> Vec<MemEvent> {
        self.stats.received += 1;
        self.metrics.received.incr();
        if let Err(reason) = self.validate(event) {
            self.stats.rejected += 1;
            self.metrics.reject(reason);
            return Vec::new();
        }
        if !self.dedup.insert(event) {
            self.stats.duplicates += 1;
            self.metrics.duplicates.incr();
            return Vec::new();
        }
        if event.time() < self.watermark() {
            self.stats.quarantined += 1;
            self.metrics.quarantined.incr();
            self.quarantine.push(*event);
            return Vec::new();
        }
        self.buffer.insert((event.time(), self.seq), *event);
        self.seq += 1;
        self.high_water = self.high_water.max(event.time());
        self.drain_released()
    }

    /// Releases everything still buffered (end of stream).
    pub fn flush(&mut self) -> Vec<MemEvent> {
        let out: Vec<MemEvent> = std::mem::take(&mut self.buffer).into_values().collect();
        self.note_released(&out);
        out
    }

    /// Pops buffered events the watermark has passed.
    fn drain_released(&mut self) -> Vec<MemEvent> {
        let bound = self.watermark();
        let mut out = Vec::new();
        while let Some(first) = self.buffer.first_entry() {
            if first.key().0 > bound {
                break;
            }
            out.push(first.remove());
        }
        self.note_released(&out);
        out
    }

    /// Stats/gap bookkeeping for a batch of released events.
    fn note_released(&mut self, released: &[MemEvent]) {
        self.stats.released += released.len() as u64;
        self.metrics.released.add(released.len() as u64);
        let Some(threshold) = self.cfg.gap_threshold else {
            return;
        };
        for e in released {
            let t = e.time();
            if let Some(&prev) = self.last_seen.get(&e.dimm()) {
                let gap = t.checked_duration_since(prev).unwrap_or(SimDuration::ZERO);
                if gap > threshold {
                    self.gaps.push(GapRecord {
                        dimm: e.dimm(),
                        from: prev,
                        to: t,
                    });
                    self.stats.gaps += 1;
                    self.metrics.gaps.incr();
                }
            }
            self.last_seen.insert(e.dimm(), t);
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Collection holes detected so far (in release order).
    pub fn gaps(&self) -> &[GapRecord] {
        &self.gaps
    }

    /// Drains the detected holes (callers forward them to
    /// `OnlinePredictor::note_gap` once per hole).
    pub fn take_gaps(&mut self) -> Vec<GapRecord> {
        std::mem::take(&mut self.gaps)
    }

    /// Events set aside as irreparably late (for offline backfill).
    pub fn quarantined(&self) -> &[MemEvent] {
        &self.quarantine
    }
}

/// One item handed to the consumer of [`ingest_bounded`], in release
/// order: released events interleaved with the collection holes the
/// ingestor detected while releasing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutput {
    /// An event released in timestamp order.
    Released(MemEvent),
    /// A per-DIMM collection hole (forward to
    /// `OnlinePredictor::apply`).
    Gap(GapRecord),
}

impl IngestOutput {
    /// The DIMM this output concerns (the event's home, or the DIMM the
    /// hole was detected on) — what `crate::serve::shard_of` and the
    /// WAL grouping key off.
    pub fn dimm(&self) -> DimmId {
        match self {
            IngestOutput::Released(e) => e.dimm(),
            IngestOutput::Gap(g) => g.dimm,
        }
    }

    /// Whether this output is a collection hole rather than an event.
    pub fn is_gap(&self) -> bool {
        matches!(self, IngestOutput::Gap(_))
    }
}

/// Couples an event producer to an [`Ingestor`] through a **bounded
/// channel**, so an arbitrarily large stream (e.g. a fleet-scale
/// [`EventFleet`](mfp_sim::events::EventFleet) run) is normalized in
/// constant memory.
///
/// `producer` runs on its own thread and pushes events through the
/// emitter it is handed; events travel to the calling thread in batches
/// of `batch` over a channel holding at most `capacity` batches — when
/// the consumer lags, the producer blocks instead of buffering. The
/// calling thread validates, dedups and re-sequences each event and
/// hands every release (and detected gap) to `on_output` immediately, so
/// nothing downstream ever sees the whole stream at once.
///
/// Returns the ingestor's lifetime counters.
///
/// # Examples
///
/// ```
/// use mfp_mlops::ingest::{ingest_bounded, IngestConfig, IngestOutput};
/// use mfp_mlops::lake::DataLake;
/// use mfp_sim::prelude::*;
///
/// let cfg = {
///     let mut c = FleetConfig::smoke(77);
///     c.horizon = mfp_dram::time::SimDuration::days(30);
///     c
/// };
/// let fleet = EventFleet::plan(&cfg);
/// let lake = DataLake::new();
/// for (id, platform, spec) in fleet.catalog() {
///     lake.register_dimm(id, platform, spec);
/// }
/// let mut released = 0u64;
/// let stats = ingest_bounded(
///     &lake,
///     IngestConfig::default(),
///     4,
///     256,
///     |emit| {
///         fleet.run_stream(&ShardConfig::new(4, 2), emit);
///     },
///     |out| {
///         if let IngestOutput::Released(_) = out {
///             released += 1;
///         }
///     },
/// );
/// assert_eq!(stats.released, released);
/// assert_eq!(stats.quarantined, 0, "clean sharded streams are in order");
/// ```
pub fn ingest_bounded<P, F>(
    lake: &DataLake,
    cfg: IngestConfig,
    capacity: usize,
    batch: usize,
    producer: P,
    mut on_output: F,
) -> IngestStats
where
    P: FnOnce(&mut dyn FnMut(MemEvent)) + Send,
    F: FnMut(IngestOutput),
{
    let batch = batch.max(1);
    let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<MemEvent>>(capacity.max(1));
    let mut ingestor = Ingestor::new(lake, cfg);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut buf: Vec<MemEvent> = Vec::with_capacity(batch);
            {
                let mut emit = |event: MemEvent| {
                    buf.push(event);
                    if buf.len() >= batch {
                        let full = std::mem::replace(&mut buf, Vec::with_capacity(batch));
                        // A send error means the consumer is gone; the
                        // producer just drains without effect.
                        let _ = tx.send(full);
                    }
                };
                producer(&mut emit);
            }
            if !buf.is_empty() {
                let _ = tx.send(buf);
            }
        });
        for chunk in rx {
            for event in chunk {
                let released = ingestor.push(&event);
                emit_with_gaps(released, ingestor.take_gaps(), &mut on_output);
            }
        }
    });
    let released = ingestor.flush();
    emit_with_gaps(released, ingestor.take_gaps(), &mut on_output);
    ingestor.stats()
}

/// Hands `released` to `on_output` with each gap placed right after the
/// event that revealed it (same DIMM, stamped `to`). Every engine then
/// applies the gap before any later event, whichever shard serves it.
fn emit_with_gaps(
    released: Vec<MemEvent>,
    gaps: Vec<GapRecord>,
    on_output: &mut impl FnMut(IngestOutput),
) {
    let mut gaps = gaps.into_iter().peekable();
    for e in released {
        let (dimm, time) = (e.dimm(), e.time());
        on_output(IngestOutput::Released(e));
        if let Some(gap) = gaps.next_if(|g| g.dimm == dimm && g.to == time) {
            on_output(IngestOutput::Gap(gap));
        }
    }
    gaps.for_each(|gap| on_output(IngestOutput::Gap(gap)));
}

/// One-shot normalization of a whole stream: validate, dedup, re-sequence
/// and flush. Returns the clean stream and the ingestion counters.
pub fn normalize(
    lake: &DataLake,
    cfg: IngestConfig,
    events: &[MemEvent],
) -> (Vec<MemEvent>, IngestStats) {
    let mut ing = Ingestor::new(lake, cfg);
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        out.extend(ing.push(e));
    }
    out.extend(ing.flush());
    (out, ing.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::CellAddr;
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::{CeEvent, CeStormEvent};
    use mfp_dram::geometry::Platform;
    use mfp_dram::spec::DimmSpec;
    use mfp_sim::chaos::{inject_chaos, ChaosConfig};

    fn ce(t: u64, dimm: DimmId) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm,
            addr: CellAddr::new(0, (t % 16) as u8, (t % 1000) as u32, (t % 64) as u16),
            transfer: ErrorTransfer::from_bits([(0, (t % 72) as u8)]),
        })
    }

    fn lake_with(dimms: &[DimmId]) -> DataLake {
        let lake = DataLake::new();
        for &d in dimms {
            lake.register_dimm(d, Platform::IntelPurley, DimmSpec::default());
        }
        lake
    }

    #[test]
    fn validation_rejects_each_reason() {
        let id = DimmId::new(1, 0);
        let lake = lake_with(&[id]);
        let ing = Ingestor::new(
            &lake,
            IngestConfig {
                max_timestamp: Some(SimTime::from_secs(1_000_000)),
                ..IngestConfig::default()
            },
        );
        assert_eq!(
            ing.validate(&ce(10, DimmId::new(99, 0))),
            Err(RejectReason::UnknownDimm)
        );
        let mut bad_rank = ce(10, id);
        if let MemEvent::Ce(c) = &mut bad_rank {
            c.addr.rank = u8::MAX;
        }
        assert_eq!(ing.validate(&bad_rank), Err(RejectReason::AddrRange));
        let empty = MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(10),
            dimm: id,
            addr: CellAddr::new(0, 0, 1, 1),
            transfer: ErrorTransfer::new(),
        });
        assert_eq!(ing.validate(&empty), Err(RejectReason::EmptyTransfer));
        let storm = MemEvent::Storm(CeStormEvent {
            time: SimTime::from_secs(10),
            dimm: id,
            count: 0,
        });
        assert_eq!(ing.validate(&storm), Err(RejectReason::StormCount));
        let future = ce(2_000_000, id);
        assert_eq!(ing.validate(&future), Err(RejectReason::FutureTime));
        assert_eq!(ing.validate(&ce(10, id)), Ok(()));
    }

    #[test]
    fn rejected_events_are_counted_not_released() {
        let id = DimmId::new(1, 0);
        let lake = lake_with(&[id]);
        let events = vec![ce(10, id), ce(20, DimmId::new(9, 9)), ce(30, id)];
        let (out, stats) = normalize(&lake, IngestConfig::default(), &events);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.received, 3);
    }

    #[test]
    fn exact_duplicates_are_dropped() {
        let id = DimmId::new(1, 0);
        let lake = lake_with(&[id]);
        let e = ce(100, id);
        let events = vec![e, ce(200, id), e, e];
        let (out, stats) = normalize(&lake, IngestConfig::default(), &events);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.duplicates, 2);
        // Near-duplicates (different transfer) are distinct events.
        let mut variant = e;
        if let MemEvent::Ce(c) = &mut variant {
            c.transfer = ErrorTransfer::from_bits([(1, 1)]);
        }
        let (out, stats) = normalize(&lake, IngestConfig::default(), &[e, variant]);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.duplicates, 0);
    }

    #[test]
    fn dedup_window_is_bounded() {
        let id = DimmId::new(1, 0);
        let lake = lake_with(&[id]);
        let cfg = IngestConfig {
            dedup_window: 4,
            lateness: SimDuration::days(300),
            ..IngestConfig::default()
        };
        let mut events: Vec<MemEvent> = (0..10).map(|k| ce(100 + k, id)).collect();
        events.push(ce(100, id)); // duplicate, but 10 events back
        let (out, stats) = normalize(&lake, cfg, &events);
        assert_eq!(stats.duplicates, 0, "evicted fingerprints cannot match");
        assert_eq!(out.len(), 11);
    }

    #[test]
    fn fingerprint_collisions_keep_distinct_events_apart() {
        let id = DimmId::new(1, 0);
        let lake = lake_with(&[id]);
        for window in [2, 3, 64] {
            let cfg = IngestConfig {
                dedup_window: window,
                lateness: SimDuration::days(300),
                ..IngestConfig::default()
            };
            let mut ing = Ingestor::new(&lake, cfg);
            // Every event now has fingerprint 0.
            ing.dedup.fingerprint_mask = 0;
            let (a, b) = (ce(100, id), ce(200, id));
            assert_ne!(a, b);
            for e in [a, b, a, b, b, a] {
                ing.push(&e);
            }
            let released = ing.flush();
            assert_eq!(released, [a, b], "window {window}: both survive once");
            assert_eq!(ing.stats().duplicates, 4, "window {window}");
        }
        // Past the window, an evicted collider no longer matches, and the
        // index entry a newer collider owns survives the eviction.
        let cfg = IngestConfig {
            dedup_window: 2,
            lateness: SimDuration::days(300),
            ..IngestConfig::default()
        };
        let mut ing = Ingestor::new(&lake, cfg);
        ing.dedup.fingerprint_mask = 0;
        let (a, b, c) = (ce(100, id), ce(200, id), ce(300, id));
        for e in [a, b, c, c, b, a] {
            ing.push(&e);
        }
        assert_eq!(ing.stats().duplicates, 2, "c and b are remembered");
        assert_eq!(ing.flush(), [a, a, b, c]);
    }

    #[test]
    fn reorder_within_lateness_is_resequenced() {
        let id = DimmId::new(1, 0);
        let lake = lake_with(&[id]);
        let clean: Vec<MemEvent> = (0..100u64).map(|k| ce(1000 + k * 60, id)).collect();
        // Deterministic shuffle: swap adjacent pairs (displacement 60s).
        let mut shuffled = clean.clone();
        for pair in shuffled.chunks_mut(2) {
            pair.reverse();
        }
        let cfg = IngestConfig {
            lateness: SimDuration::minutes(5),
            ..IngestConfig::default()
        };
        let (out, stats) = normalize(&lake, cfg, &shuffled);
        assert_eq!(out, clean, "buffer must restore timestamp order");
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.released, 100);
    }

    #[test]
    fn beyond_lateness_is_quarantined() {
        let id = DimmId::new(1, 0);
        let lake = lake_with(&[id]);
        let cfg = IngestConfig {
            lateness: SimDuration::minutes(5),
            ..IngestConfig::default()
        };
        let mut ing = Ingestor::new(&lake, cfg);
        let mut released = Vec::new();
        released.extend(ing.push(&ce(10_000, id)));
        // An hour-old straggler: behind the watermark, quarantined.
        let straggler = ce(6_000, id);
        assert!(ing.push(&straggler).is_empty());
        released.extend(ing.flush());
        assert_eq!(ing.stats().quarantined, 1);
        assert_eq!(ing.quarantined(), &[straggler]);
        assert_eq!(released.len(), 1, "straggler must not be released");
        assert!(released.iter().all(|e| e.time().as_secs() == 10_000));
    }

    #[test]
    fn released_stream_is_time_ordered() {
        let id = DimmId::new(1, 0);
        let lake = lake_with(&[id]);
        let clean: Vec<MemEvent> = (0..400u64).map(|k| ce(500 + k * 37, id)).collect();
        let (hostile, _) = inject_chaos(&clean, &ChaosConfig::hostile(5));
        let cfg = IngestConfig {
            lateness: SimDuration::hours(1),
            ..IngestConfig::default()
        };
        let (out, _) = normalize(&lake, cfg, &hostile);
        assert!(
            out.windows(2).all(|w| w[0].time() <= w[1].time()),
            "released stream must be non-decreasing in time"
        );
    }

    #[test]
    fn gap_detection_records_holes() {
        let id = DimmId::new(1, 0);
        let other = DimmId::new(2, 0);
        let lake = lake_with(&[id, other]);
        let cfg = IngestConfig {
            gap_threshold: Some(SimDuration::days(2)),
            ..IngestConfig::default()
        };
        let mut ing = Ingestor::new(&lake, cfg);
        let mut feed = vec![ce(1_000, id), ce(10_000, id)];
        // 5 days of silence on `id`; `other` keeps reporting daily, so it
        // never crosses the 2-day gap threshold.
        for day in 0..6u64 {
            feed.push(ce(2_000 + day * 86_400, other));
        }
        feed.push(ce(442_000, id));
        feed.sort_by_key(|e| e.time());
        for e in &feed {
            ing.push(e);
        }
        ing.flush();
        assert_eq!(ing.stats().gaps, 1);
        let gap = ing.gaps()[0];
        assert_eq!(gap.dimm, id);
        assert_eq!(gap.from, SimTime::from_secs(10_000));
        assert_eq!(gap.to, SimTime::from_secs(442_000));
        assert!(gap.length() > SimDuration::days(4));
        assert_eq!(ing.take_gaps().len(), 1);
        assert!(ing.gaps().is_empty());
    }

    #[test]
    fn normalize_is_idempotent_on_chaos_streams() {
        let ids: Vec<DimmId> = (0..5).map(|s| DimmId::new(s, 0)).collect();
        let lake = lake_with(&ids);
        let clean: Vec<MemEvent> = (0..300u64)
            .map(|k| ce(1_000 + k * 97, ids[(k % 5) as usize]))
            .collect();
        let (hostile, _) = inject_chaos(&clean, &ChaosConfig::hostile(11));
        let cfg = IngestConfig {
            lateness: SimDuration::hours(2),
            ..IngestConfig::default()
        };
        let (once, _) = normalize(&lake, cfg, &hostile);
        let (twice, stats) = normalize(&lake, cfg, &once);
        assert_eq!(once, twice, "normalize must be idempotent");
        assert_eq!(stats.rejected + stats.duplicates + stats.quarantined, 0);
    }

    #[test]
    fn bounded_bridge_streams_a_sharded_fleet_in_order() {
        use mfp_sim::config::FleetConfig;
        use mfp_sim::events::EventFleet;
        use mfp_sim::fleet::simulate_fleet_tick;
        use mfp_sim::sharded::ShardConfig;

        let mut cfg = FleetConfig::smoke(31);
        cfg.horizon = SimDuration::days(45);
        let fleet = EventFleet::plan(&cfg);
        let lake = DataLake::new();
        for (id, platform, spec) in fleet.catalog() {
            lake.register_dimm(id, platform, spec);
        }
        let mut released = Vec::new();
        let stats = ingest_bounded(
            &lake,
            IngestConfig::default(),
            2,
            64,
            |emit| {
                fleet.run_stream(&ShardConfig::new(4, 2), emit);
            },
            |out| {
                if let IngestOutput::Released(e) = out {
                    released.push(e);
                }
            },
        );
        assert_eq!(stats.quarantined, 0, "clean sharded stream is in order");
        assert_eq!(stats.rejected, 0, "simulated events pass validation");
        assert_eq!(stats.released as usize, released.len());
        assert!(released.windows(2).all(|w| w[0].time() <= w[1].time()));
        // The bridge over the sharded stream equals one-shot
        // normalization of the sequential tick oracle's log.
        let seq = simulate_fleet_tick(&cfg);
        let (oracle, _) = normalize(&lake, IngestConfig::default(), seq.log.events());
        assert_eq!(released, oracle);
    }

    #[test]
    fn lossless_chaos_normalizes_to_the_clean_stream() {
        let ids: Vec<DimmId> = (0..4).map(|s| DimmId::new(s, 0)).collect();
        let lake = lake_with(&ids);
        let clean: Vec<MemEvent> = (0..500u64)
            .map(|k| ce(2_000 + k * 53, ids[(k % 4) as usize]))
            .collect();
        let chaos_cfg = ChaosConfig::lossless(21);
        let (hostile, cstats) = inject_chaos(&clean, &chaos_cfg);
        assert!(cstats.delayed > 0, "chaos must actually reorder");
        let cfg = IngestConfig {
            lateness: chaos_cfg.max_lateness,
            ..IngestConfig::default()
        };
        let (from_chaos, stats) = normalize(&lake, cfg, &hostile);
        let (from_clean, _) = normalize(&lake, cfg, &clean);
        assert_eq!(
            from_chaos, from_clean,
            "lossless chaos within the lateness bound must normalize exactly"
        );
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.duplicates, cstats.duplicated);
    }
}
