//! The data lake: the landing zone of the data pipeline (paper §VII).
//!
//! BMC collectors ship encoded event logs; the lake stores them
//! partitioned by platform and simulated day, alongside the DIMM
//! specification catalog, and serves range queries to the feature store.

use crate::codec::{
    atomic_write, open_sealed, put_dimm, put_platform, put_spec, put_u32, put_u64, seal,
    CodecError, Reader,
};
use mfp_dram::address::DimmId;
use mfp_dram::bmc::{BmcLog, DecodeError};
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// Lock-poisoning panic message: a writer panicked mid-update.
const POISONED: &str = "data lake lock poisoned by a panicked writer";

/// Partition key: (platform, day index).
type PartitionKey = (Platform, u64);

/// An append-only, partitioned event store with a DIMM catalog.
///
/// Thread-safe: ingestion and queries may run concurrently (the online
/// prediction path reads while collectors write).
#[derive(Debug, Default)]
pub struct DataLake {
    partitions: RwLock<BTreeMap<PartitionKey, Vec<MemEvent>>>,
    catalog: RwLock<BTreeMap<DimmId, (Platform, DimmSpec)>>,
}

impl DataLake {
    /// Creates an empty lake.
    pub fn new() -> Self {
        DataLake::default()
    }

    /// Registers a DIMM's static specification (the memory-specification
    /// records the BMC reports at boot).
    pub fn register_dimm(&self, id: DimmId, platform: Platform, spec: DimmSpec) {
        self.catalog
            .write()
            .expect(POISONED)
            .insert(id, (platform, spec));
    }

    /// Looks up a DIMM's platform and spec.
    pub fn dimm_info(&self, id: DimmId) -> Option<(Platform, DimmSpec)> {
        self.catalog.read().expect(POISONED).get(&id).copied()
    }

    /// The catalog under its read lock, for a batch of lookups that
    /// should not take the lock once per DIMM.
    pub(crate) fn catalog(&self) -> RwLockReadGuard<'_, BTreeMap<DimmId, (Platform, DimmSpec)>> {
        self.catalog.read().expect(POISONED)
    }

    /// Number of catalogued DIMMs.
    pub fn catalog_len(&self) -> usize {
        self.catalog.read().expect(POISONED).len()
    }

    /// Ingests already-decoded events; unknown DIMMs are rejected into the
    /// returned count (data-quality signal for monitoring) **and** onto
    /// the `lake_rejected_uncataloged` counter, mirroring the per-reason
    /// reject counters `crate::ingest::Ingestor` keeps — lake and ingest
    /// accounting can be cross-checked on one dashboard.
    pub fn ingest(&self, events: &[MemEvent]) -> usize {
        let catalog = self.catalog.read().expect(POISONED);
        let mut parts = self.partitions.write().expect(POISONED);
        let mut rejected: usize = 0;
        for e in events {
            match catalog.get(&e.dimm()) {
                Some((platform, _)) => {
                    parts
                        .entry((*platform, e.time().as_days()))
                        .or_default()
                        .push(*e);
                }
                None => rejected += 1,
            }
        }
        if rejected > 0 {
            mfp_obs::counter("lake_rejected_uncataloged", &[]).add(rejected as u64);
        }
        rejected
    }

    /// Ingests a binary-encoded BMC log (the wire format collectors ship).
    ///
    /// # Errors
    ///
    /// Returns the decode error when the payload is malformed.
    pub fn ingest_encoded(&self, payload: &[u8]) -> Result<usize, DecodeError> {
        let log = BmcLog::decode(payload)?;
        Ok(self.ingest(log.events()))
    }

    /// Total stored events.
    pub fn len(&self) -> usize {
        self.partitions
            .read()
            .expect(POISONED)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// True when the lake holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All events of one platform in `[from, to)`, time-sorted.
    ///
    /// An inverted range (`from > to`) is empty, and pruning walks only
    /// the partitions that exist in the day range (a `BTreeMap::range`,
    /// not a day-by-day loop — a query spanning to the far future used
    /// to iterate billions of absent day keys).
    pub fn query(&self, platform: Platform, from: SimTime, to: SimTime) -> Vec<MemEvent> {
        if from > to {
            return Vec::new();
        }
        let parts = self.partitions.read().expect(POISONED);
        let mut out: Vec<MemEvent> = Vec::new();
        for (_, events) in parts.range((platform, from.as_days())..=(platform, to.as_days())) {
            out.extend(
                events
                    .iter()
                    .filter(|e| e.time() >= from && e.time() < to)
                    .copied(),
            );
        }
        out.sort_by_key(|e| e.time());
        out
    }

    /// DIMMs of one platform present in the catalog.
    pub fn platform_dimms(&self, platform: Platform) -> Vec<(DimmId, DimmSpec)> {
        self.catalog
            .read()
            .expect(POISONED)
            .iter()
            .filter(|(_, (p, _))| *p == platform)
            .map(|(id, (_, spec))| (*id, *spec))
            .collect()
    }
}

/// Failure on the on-disk lake path.
#[derive(Debug)]
pub enum LakeError {
    /// An I/O operation failed.
    Io(std::io::Error),
    /// A lake file is structurally invalid (manifest/catalog corruption,
    /// or a partition shorter than its committed length).
    Corrupt(&'static str),
    /// A committed partition chunk failed to decode.
    Decode(DecodeError),
}

impl fmt::Display for LakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LakeError::Io(e) => write!(f, "lake i/o: {e}"),
            LakeError::Corrupt(what) => write!(f, "lake corrupt: {what}"),
            LakeError::Decode(e) => write!(f, "lake partition decode: {e:?}"),
        }
    }
}

impl std::error::Error for LakeError {}

impl From<std::io::Error> for LakeError {
    fn from(e: std::io::Error) -> Self {
        LakeError::Io(e)
    }
}

impl From<DecodeError> for LakeError {
    fn from(e: DecodeError) -> Self {
        LakeError::Decode(e)
    }
}

/// Every codec refusal in a lake file is corruption.
impl From<CodecError> for LakeError {
    fn from(e: CodecError) -> Self {
        LakeError::Corrupt(match e {
            CodecError::Short => "truncated",
            CodecError::Trailing => "trailing bytes",
            CodecError::BadMagic | CodecError::BadVersion(_) => "not a lake file",
            CodecError::BadChecksum => "checksum mismatch",
            CodecError::BadCode { what, .. } => what,
        })
    }
}

/// Magic bytes of the lake manifest file.
const MANIFEST_MAGIC: [u8; 4] = *b"MFL1";
/// Magic bytes of the lake catalog file.
const CATALOG_MAGIC: [u8; 4] = *b"MFK1";
const LAKE_VERSION: u8 = 1;

/// Per-partition manifest state: how much of the partition file is
/// committed (a crash mid-append leaves bytes past this point, which
/// reopen ignores) plus the pruning statistics for `query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ManifestEntry {
    /// Valid bytes of the partition file; appends beyond this offset
    /// that never made it into a manifest rewrite are torn and ignored.
    committed_bytes: u64,
    /// Events in the committed prefix.
    events: u64,
    /// Earliest event timestamp (seconds) in the committed prefix.
    min_time: u64,
    /// Latest event timestamp (seconds) in the committed prefix.
    max_time: u64,
}

/// The manifest file: a count, then `platform day committed events min
/// max` per partition.
fn encode_manifest(entries: &BTreeMap<PartitionKey, ManifestEntry>) -> Vec<u8> {
    seal(MANIFEST_MAGIC, LAKE_VERSION, |b| {
        put_u64(b, entries.len() as u64);
        for ((platform, day), e) in entries {
            put_platform(b, *platform);
            for v in [*day, e.committed_bytes, e.events, e.min_time, e.max_time] {
                put_u64(b, v);
            }
        }
    })
}

fn decode_manifest(data: &[u8]) -> Result<BTreeMap<PartitionKey, ManifestEntry>, LakeError> {
    let (_, body) = open_sealed(data, MANIFEST_MAGIC, LAKE_VERSION..=LAKE_VERSION)?;
    let mut r = Reader::new(body);
    let mut entries = BTreeMap::new();
    for _ in 0..r.count()? {
        let key = (r.platform()?, r.u64()?);
        let entry = ManifestEntry {
            committed_bytes: r.u64()?,
            events: r.u64()?,
            min_time: r.u64()?,
            max_time: r.u64()?,
        };
        entries.insert(key, entry);
    }
    r.done()?;
    Ok(entries)
}

/// The catalog file: a count, then `dimm platform spec` per DIMM.
fn encode_catalog(catalog: &BTreeMap<DimmId, (Platform, DimmSpec)>) -> Vec<u8> {
    seal(CATALOG_MAGIC, LAKE_VERSION, |b| {
        put_u64(b, catalog.len() as u64);
        for (id, (platform, spec)) in catalog {
            put_dimm(b, *id);
            put_platform(b, *platform);
            put_spec(b, spec);
        }
    })
}

fn decode_catalog(data: &[u8]) -> Result<BTreeMap<DimmId, (Platform, DimmSpec)>, LakeError> {
    let (_, body) = open_sealed(data, CATALOG_MAGIC, LAKE_VERSION..=LAKE_VERSION)?;
    let mut r = Reader::new(body);
    let mut catalog = BTreeMap::new();
    for _ in 0..r.count()? {
        catalog.insert(r.dimm()?, (r.platform()?, r.spec()?));
    }
    r.done()?;
    Ok(catalog)
}

/// A crash-safe, log-structured [`DataLake`] under a root directory.
///
/// Layout:
///
/// ```text
/// root/
///   catalog.bin              MFK1: the DIMM spec catalog (atomic rewrite)
///   manifest.bin             MFL1: per-partition committed byte counts,
///                            event counts and time bounds (atomic rewrite)
///   part-<platform>-<day>.log  [u32 len][BmcLog bytes] chunks, append-only
/// ```
///
/// Every ingest appends encoded chunks to the affected partition files
/// (fsynced), *then* rewrites the manifest; a crash mid-append leaves
/// bytes past `committed_bytes` which reopen silently ignores, so the
/// lake always reopens to its last manifest-consistent state. An
/// in-memory [`DataLake`] mirror serves reads, and [`DiskLake::query`]
/// consults the manifest first to prune partitions by day range and
/// committed time bounds — the `lake_partitions_scanned` /
/// `lake_partitions_total` counters quantify the pruning.
#[derive(Debug)]
pub struct DiskLake {
    root: PathBuf,
    mem: DataLake,
    manifest: RwLock<BTreeMap<PartitionKey, ManifestEntry>>,
    scanned: AtomicU64,
    total: AtomicU64,
}

impl DiskLake {
    /// Opens (or creates) a lake rooted at `root`, recovering the
    /// catalog, manifest and every committed partition prefix.
    ///
    /// # Errors
    ///
    /// I/O failures, or corruption in the catalog, manifest or a
    /// committed partition region. Torn partition *appends* (bytes past
    /// the committed length) are not errors.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, LakeError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mem = DataLake::new();
        match fs::read(root.join("catalog.bin")) {
            Ok(bytes) => {
                *mem.catalog.write().expect(POISONED) = decode_catalog(&bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let manifest = match fs::read(root.join("manifest.bin")) {
            Ok(bytes) => decode_manifest(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
            Err(e) => return Err(e.into()),
        };
        {
            let mut parts = mem.partitions.write().expect(POISONED);
            for (key, entry) in &manifest {
                let data = fs::read(root.join(partition_file(*key)))?;
                if (data.len() as u64) < entry.committed_bytes {
                    return Err(LakeError::Corrupt("partition shorter than committed"));
                }
                // `entry.events` is untrusted until the count check below,
                // so it must not size an allocation.
                let mut events: Vec<MemEvent> = Vec::new();
                let mut chunks = Reader::new(&data[..entry.committed_bytes as usize]);
                while !chunks.rest().is_empty() {
                    let len = chunks.u32()? as usize;
                    events.extend_from_slice(BmcLog::decode(chunks.take(len)?)?.events());
                }
                if events.len() as u64 != entry.events {
                    return Err(LakeError::Corrupt("partition event count mismatch"));
                }
                parts.insert(*key, events);
            }
        }
        Ok(DiskLake {
            root,
            mem,
            manifest: RwLock::new(manifest),
            scanned: AtomicU64::new(0),
            total: AtomicU64::new(0),
        })
    }

    /// Builds an on-disk lake at `root` from an in-memory one — the
    /// export half of the round-trip (`DiskLake::open` on the same root
    /// is the import half). `root` must be empty or absent.
    pub fn from_memory(root: impl Into<PathBuf>, src: &DataLake) -> Result<Self, LakeError> {
        let disk = DiskLake::open(root)?;
        if !disk.mem.is_empty() || disk.mem.catalog_len() > 0 {
            return Err(LakeError::Corrupt("export target is not empty"));
        }
        for (id, (platform, spec)) in src.catalog.read().expect(POISONED).iter() {
            disk.mem
                .catalog
                .write()
                .expect(POISONED)
                .insert(*id, (*platform, *spec));
        }
        disk.persist_catalog()?;
        for events in src.partitions.read().expect(POISONED).values() {
            disk.ingest(events)?;
        }
        Ok(disk)
    }

    /// Clones the lake's committed state into a plain in-memory
    /// [`DataLake`] (catalog and partitions).
    pub fn to_memory(&self) -> DataLake {
        let out = DataLake::new();
        *out.catalog.write().expect(POISONED) = self.mem.catalog.read().expect(POISONED).clone();
        *out.partitions.write().expect(POISONED) =
            self.mem.partitions.read().expect(POISONED).clone();
        out
    }

    /// The in-memory mirror — borrow this wherever a [`DataLake`] is
    /// expected (feature stores, the online predictors).
    pub fn memory(&self) -> &DataLake {
        &self.mem
    }

    /// Registers a DIMM and durably rewrites the catalog file.
    ///
    /// # Errors
    ///
    /// I/O failure while persisting; the in-memory registration is
    /// applied first and stands either way.
    pub fn register_dimm(
        &self,
        id: DimmId,
        platform: Platform,
        spec: DimmSpec,
    ) -> Result<(), LakeError> {
        self.mem.register_dimm(id, platform, spec);
        self.persist_catalog()
    }

    fn persist_catalog(&self) -> Result<(), LakeError> {
        let bytes = encode_catalog(&self.mem.catalog.read().expect(POISONED));
        Ok(atomic_write(&self.root.join("catalog.bin"), &bytes)?)
    }

    /// Ingests events: committed to partition files first (append +
    /// fsync + manifest rewrite), then mirrored in memory. Returns the
    /// uncataloged-reject count like [`DataLake::ingest`].
    ///
    /// # Errors
    ///
    /// I/O failure; on error the manifest is not rewritten, so a partial
    /// append is invisible after reopen.
    pub fn ingest(&self, events: &[MemEvent]) -> Result<usize, LakeError> {
        let append_sizes = mfp_obs::sizes("lake_partition_append_bytes", &[]);
        let mut groups: BTreeMap<PartitionKey, Vec<MemEvent>> = BTreeMap::new();
        {
            let catalog = self.mem.catalog.read().expect(POISONED);
            for e in events {
                if let Some((platform, _)) = catalog.get(&e.dimm()) {
                    groups
                        .entry((*platform, e.time().as_days()))
                        .or_default()
                        .push(*e);
                }
            }
        }
        let mut manifest = self.manifest.write().expect(POISONED);
        for (key, group) in &groups {
            let log: BmcLog = group.iter().copied().collect();
            let payload = log.encode();
            let mut chunk = Vec::with_capacity(4 + payload.len());
            put_u32(&mut chunk, payload.len() as u32);
            chunk.extend_from_slice(&payload);
            let path = self.root.join(partition_file(*key));
            let mut file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?;
            file.write_all(&chunk)?;
            file.sync_data()?;
            append_sizes.record(chunk.len() as f64);
            let (lo, hi) = group.iter().fold((u64::MAX, 0u64), |(lo, hi), e| {
                let t = e.time().as_secs();
                (lo.min(t), hi.max(t))
            });
            let entry = manifest.entry(*key).or_insert(ManifestEntry {
                committed_bytes: 0,
                events: 0,
                min_time: u64::MAX,
                max_time: 0,
            });
            entry.committed_bytes += chunk.len() as u64;
            entry.events += group.len() as u64;
            entry.min_time = entry.min_time.min(lo);
            entry.max_time = entry.max_time.max(hi);
        }
        if !groups.is_empty() {
            atomic_write(&self.root.join("manifest.bin"), &encode_manifest(&manifest))?;
        }
        drop(manifest);
        Ok(self.mem.ingest(events))
    }

    /// All events of one platform in `[from, to)`, time-sorted —
    /// identical to [`DataLake::query`] on the mirror, but partitions
    /// are pruned through the manifest (day range plus committed
    /// min/max time bounds) before any events are touched.
    pub fn query(&self, platform: Platform, from: SimTime, to: SimTime) -> Vec<MemEvent> {
        if from > to {
            return Vec::new();
        }
        let manifest = self.manifest.read().expect(POISONED);
        let total = manifest.keys().filter(|(p, _)| *p == platform).count() as u64;
        let keys: Vec<PartitionKey> = manifest
            .range((platform, from.as_days())..=(platform, to.as_days()))
            .filter(|(_, e)| e.min_time < to.as_secs() && e.max_time >= from.as_secs())
            .map(|(k, _)| *k)
            .collect();
        drop(manifest);
        self.total.fetch_add(total, Ordering::Relaxed);
        self.scanned.fetch_add(keys.len() as u64, Ordering::Relaxed);
        mfp_obs::counter("lake_partitions_total", &[]).add(total);
        mfp_obs::counter("lake_partitions_scanned", &[]).add(keys.len() as u64);
        let parts = self.mem.partitions.read().expect(POISONED);
        let mut out: Vec<MemEvent> = Vec::new();
        for key in keys {
            if let Some(events) = parts.get(&key) {
                out.extend(
                    events
                        .iter()
                        .filter(|e| e.time() >= from && e.time() < to)
                        .copied(),
                );
            }
        }
        out.sort_by_key(|e| e.time());
        out
    }

    /// `(partitions_scanned, partitions_total)` accumulated over this
    /// handle's queries — the pruning evidence (`scanned < total` on
    /// narrow ranges).
    pub fn prune_stats(&self) -> (u64, u64) {
        (
            self.scanned.load(Ordering::Relaxed),
            self.total.load(Ordering::Relaxed),
        )
    }
}

fn partition_file(key: PartitionKey) -> String {
    format!("part-{}-{}.log", key.0.code(), key.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::CellAddr;
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::CeEvent;

    fn ce(t: u64, dimm: DimmId) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm,
            addr: CellAddr::new(0, 0, 1, 1),
            transfer: ErrorTransfer::from_bits([(0, 0)]),
        })
    }

    #[test]
    fn ingest_requires_catalog() {
        let lake = DataLake::new();
        let id = DimmId::new(1, 0);
        let rejected = lake.ingest(&[ce(10, id)]);
        assert_eq!(rejected, 1);
        assert!(lake.is_empty());

        lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        let rejected = lake.ingest(&[ce(10, id)]);
        assert_eq!(rejected, 0);
        assert_eq!(lake.len(), 1);
    }

    #[test]
    fn query_filters_time_and_platform() {
        let lake = DataLake::new();
        let a = DimmId::new(1, 0);
        let b = DimmId::new(2, 0);
        lake.register_dimm(a, Platform::IntelPurley, DimmSpec::default());
        lake.register_dimm(b, Platform::K920, DimmSpec::default());
        lake.ingest(&[ce(10, a), ce(100_000, a), ce(20, b)]);

        let purley = lake.query(
            Platform::IntelPurley,
            SimTime::from_secs(0),
            SimTime::from_secs(1_000),
        );
        assert_eq!(purley.len(), 1);
        assert_eq!(purley[0].time().as_secs(), 10);
        let k920 = lake.query(
            Platform::K920,
            SimTime::from_secs(0),
            SimTime::from_secs(1_000_000),
        );
        assert_eq!(k920.len(), 1);
    }

    #[test]
    fn encoded_roundtrip_through_lake() {
        let lake = DataLake::new();
        let id = DimmId::new(7, 1);
        lake.register_dimm(id, Platform::IntelWhitley, DimmSpec::default());
        let log: BmcLog = vec![ce(5, id), ce(6, id)].into_iter().collect();
        let n = lake.ingest_encoded(&log.encode()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(lake.len(), 2);
        assert!(lake.ingest_encoded(b"garbage").is_err());
    }

    #[test]
    fn query_handles_inverted_and_empty_ranges() {
        let lake = DataLake::new();
        // Empty catalog, empty lake: any range is empty, instantly.
        assert!(lake
            .query(Platform::K920, SimTime::ZERO, SimTime::from_secs(u64::MAX))
            .is_empty());

        let id = DimmId::new(1, 0);
        lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        lake.ingest(&[ce(10, id), ce(100_000, id)]);
        // Inverted range: empty, not a panic and not a scan.
        assert!(lake
            .query(
                Platform::IntelPurley,
                SimTime::from_secs(100_000),
                SimTime::from_secs(10)
            )
            .is_empty());
        // A range reaching the far future completes by walking only the
        // partitions that exist (the old day-by-day loop iterated every
        // absent day index up to u64::MAX / 86_400).
        let all = lake.query(
            Platform::IntelPurley,
            SimTime::ZERO,
            SimTime::from_secs(u64::MAX),
        );
        assert_eq!(all.len(), 2);
        // Degenerate equal endpoints: empty half-open interval.
        assert!(lake
            .query(
                Platform::IntelPurley,
                SimTime::from_secs(10),
                SimTime::from_secs(10)
            )
            .is_empty());
    }

    #[test]
    fn rejects_bump_the_lake_counter() {
        let counter = mfp_obs::counter("lake_rejected_uncataloged", &[]);
        let before = counter.get();
        let lake = DataLake::new();
        assert_eq!(lake.ingest(&[ce(10, DimmId::new(42, 0))]), 1);
        assert!(
            counter.get() > before,
            "uncataloged rejects must reach telemetry"
        );
    }

    /// A unique scratch directory per test invocation (parallel-safe).
    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "mfp_lake_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Registers a small two-platform fleet and returns the stream.
    fn fleet(reg: &mut dyn FnMut(DimmId, Platform, DimmSpec)) -> Vec<MemEvent> {
        let a = DimmId::new(1, 0);
        let b = DimmId::new(2, 1);
        let c = DimmId::new(3, 0);
        reg(a, Platform::IntelPurley, DimmSpec::default());
        reg(b, Platform::IntelPurley, DimmSpec::default());
        reg(c, Platform::K920, DimmSpec::default());
        // Three days of purley events plus one K920 straggler, plus one
        // event for an unregistered DIMM (rejected by both lakes).
        let mut events = Vec::new();
        for day in 0..3u64 {
            for k in 0..5u64 {
                events.push(ce(day * 86_400 + 1_000 + k * 7_000, a));
                events.push(ce(day * 86_400 + 2_000 + k * 7_000, b));
            }
        }
        events.push(ce(2 * 86_400 + 50, c));
        events.push(ce(999, DimmId::new(99, 9)));
        events
    }

    #[test]
    fn disk_lake_round_trips_after_reopen() {
        let root = test_dir("roundtrip");
        let mem = DataLake::new();
        let disk = DiskLake::open(&root).unwrap();
        let events = fleet(&mut |id, p, s| {
            mem.register_dimm(id, p, s);
            disk.register_dimm(id, p, s).unwrap();
        });
        let mem_rejected = mem.ingest(&events);
        let disk_rejected = disk.ingest(&events).unwrap();
        assert_eq!(mem_rejected, disk_rejected);
        assert_eq!(mem_rejected, 1);
        drop(disk); // "crash": no clean shutdown step exists or is needed

        let reopened = DiskLake::open(&root).unwrap();
        assert_eq!(reopened.memory().len(), mem.len());
        assert_eq!(reopened.memory().catalog_len(), mem.catalog_len());
        assert_eq!(
            reopened.memory().dimm_info(DimmId::new(1, 0)),
            mem.dimm_info(DimmId::new(1, 0))
        );
        for (from, to) in [
            (0u64, u64::MAX),
            (0, 86_400),
            (86_400, 2 * 86_400),
            (5_000, 20_000),
            (10, 10),
        ] {
            for platform in [Platform::IntelPurley, Platform::K920] {
                assert_eq!(
                    reopened.query(platform, SimTime::from_secs(from), SimTime::from_secs(to)),
                    mem.query(platform, SimTime::from_secs(from), SimTime::from_secs(to)),
                    "{platform:?} [{from}, {to}) diverged after reopen"
                );
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_lake_prunes_partitions_on_narrow_ranges() {
        let root = test_dir("prune");
        let disk = DiskLake::open(&root).unwrap();
        let events = fleet(&mut |id, p, s| {
            disk.register_dimm(id, p, s).unwrap();
        });
        disk.ingest(&events).unwrap();
        // Narrow range: one day out of three purley partitions.
        let hits = disk.query(
            Platform::IntelPurley,
            SimTime::from_secs(86_400),
            SimTime::from_secs(2 * 86_400),
        );
        assert!(!hits.is_empty());
        let (scanned, total) = disk.prune_stats();
        assert!(
            scanned < total,
            "narrow query must prune: scanned {scanned} of {total}"
        );
        assert_eq!(scanned, 1, "one day-partition covers the range");
        assert_eq!(total, 3, "purley holds three day-partitions");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_lake_ignores_torn_partition_appends() {
        let root = test_dir("torn");
        let disk = DiskLake::open(&root).unwrap();
        let events = fleet(&mut |id, p, s| {
            disk.register_dimm(id, p, s).unwrap();
        });
        disk.ingest(&events).unwrap();
        let reference = disk.query(
            Platform::IntelPurley,
            SimTime::ZERO,
            SimTime::from_secs(u64::MAX),
        );
        drop(disk);
        // Crash mid-append: garbage past the committed length of one
        // partition file. Reopen must ignore it entirely.
        let victim = root.join(partition_file((Platform::IntelPurley, 0)));
        let mut f = fs::OpenOptions::new().append(true).open(&victim).unwrap();
        f.write_all(&[0xFF; 37]).unwrap();
        drop(f);
        let reopened = DiskLake::open(&root).unwrap();
        assert_eq!(
            reopened.query(
                Platform::IntelPurley,
                SimTime::ZERO,
                SimTime::from_secs(u64::MAX)
            ),
            reference,
            "torn append must not change committed query results"
        );
        // A partition truncated *below* its committed length is real
        // corruption and must be detected, not silently served short.
        let data = fs::read(&victim).unwrap();
        fs::write(&victim, &data[..3]).unwrap();
        assert!(matches!(DiskLake::open(&root), Err(LakeError::Corrupt(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_lake_rejects_a_forged_manifest_event_count() {
        let root = test_dir("forged");
        let disk = DiskLake::open(&root).unwrap();
        let events = fleet(&mut |id, p, s| {
            disk.register_dimm(id, p, s).unwrap();
        });
        disk.ingest(&events).unwrap();
        drop(disk);
        // Forge the first entry's event count and re-seal the CRC, so the
        // manifest still verifies and only the count check can catch it.
        let path = root.join("manifest.bin");
        let mut bytes = fs::read(&path).unwrap();
        let at = 5 + 8 + 17; // header, entry count, platform + day + committed
        bytes[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_be_bytes());
        let sealed = bytes.len() - 4;
        let crc = crate::wal::crc32(&bytes[..sealed]);
        bytes[sealed..].copy_from_slice(&crc.to_be_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(DiskLake::open(&root), Err(LakeError::Corrupt(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_lake_exports_an_in_memory_lake() {
        let mem = DataLake::new();
        let events = fleet(&mut |id, p, s| {
            mem.register_dimm(id, p, s);
        });
        mem.ingest(&events);
        let root = test_dir("export");
        let disk = DiskLake::from_memory(&root, &mem).unwrap();
        let back = disk.to_memory();
        assert_eq!(back.len(), mem.len());
        assert_eq!(back.catalog_len(), mem.catalog_len());
        assert_eq!(
            back.query(
                Platform::IntelPurley,
                SimTime::ZERO,
                SimTime::from_secs(u64::MAX)
            ),
            mem.query(
                Platform::IntelPurley,
                SimTime::ZERO,
                SimTime::from_secs(u64::MAX)
            )
        );
        // Exporting onto a non-empty root is refused.
        assert!(matches!(
            DiskLake::from_memory(&root, &mem),
            Err(LakeError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn catalog_queries() {
        let lake = DataLake::new();
        lake.register_dimm(DimmId::new(1, 0), Platform::K920, DimmSpec::default());
        lake.register_dimm(DimmId::new(2, 0), Platform::K920, DimmSpec::default());
        lake.register_dimm(
            DimmId::new(3, 0),
            Platform::IntelPurley,
            DimmSpec::default(),
        );
        assert_eq!(lake.catalog_len(), 3);
        assert_eq!(lake.platform_dimms(Platform::K920).len(), 2);
        assert!(lake.dimm_info(DimmId::new(3, 0)).is_some());
        assert!(lake.dimm_info(DimmId::new(9, 9)).is_none());
    }
}
