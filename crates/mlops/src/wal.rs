//! Write-ahead logging and crash recovery for the online serving path.
//!
//! [`crate::checkpoint`] makes one predictor's state restorable, but a
//! checkpoint alone loses every event between captures. This module
//! closes that window shard by shard: every ingest output (released
//! event or detected gap) routed to a shard is appended to that shard's
//! checksummed, length-prefixed write-ahead log **before** it mutates the
//! shard's predictor, and periodic compaction folds the log into an
//! `MFC1` checkpoint so the log stays short. Recovery is
//! restore-latest-checkpoint + deterministic replay of the log tail.
//!
//! # Layout (`MFW2`)
//!
//! ```text
//! root/
//!   meta.bin             "MFW2" version shard_count:u32 crc32
//!   shard-000/
//!     wal.log            MFW1 record log, per-shard sequence numbers
//!     checkpoint.bin     MFD1 container: applied watermark + MFC1 payload
//!     quarantine.log     MFW1 side log of quarantined outputs (optional)
//!   shard-001/ ...
//! ```
//!
//! Sequence numbers are per shard: output `k` of a shard is the `k`-th
//! output routed to it, a stable coordinate across restarts because
//! routing is the pure hash `crate::serve::shard_of`. A [`DurableShard`]
//! therefore recovers **independently**: restore its own checkpoint,
//! replay its own longest valid prefix, never read a sibling's files.
//! [`ShardedDurable`] is the unsupervised composition (`crate::supervise`
//! and `crate::procserve` add restarts, backoff and quarantine on top);
//! on resume the caller re-feeds the stream from the start and each shard
//! skips the prefix it already covered.
//!
//! # Recovery invariant
//!
//! For a crash at *any* byte offset of a shard's `wal.log`,
//! [`DurableShard::open`] rebuilds a predictor whose state equals a fresh
//! one fed the first `m` outputs routed to that shard, where `m` is the
//! checkpoint watermark plus the outputs in the longest valid log prefix.
//! Re-feeding the stream therefore yields alarms and scores
//! **bit-identical** to an uncrashed run — the property
//! `truncating_the_wal_anywhere_recovers_bit_identically` sweeps below
//! and `tests/prop_wal.rs` checks on randomized streams.
//!
//! Two crash windows deserve a note:
//!
//! * **Torn appends.** A record whose checksum or length prefix does not
//!   verify ends the valid prefix; the torn tail is measured, truncated,
//!   and the file is re-opened for append at the cut.
//! * **Compaction.** A checkpoint stores `applied`, the per-shard sequence
//!   number of the first output *not* folded into it. If a crash lands
//!   between the checkpoint rename and the WAL reset, replay skips every
//!   WAL output with `seq < applied` instead of double-applying it.
//!
//! # Record format (`MFW1`)
//!
//! ```text
//! file   := "MFW1" version:u8 record*
//! record := kind:u8 seq:u64 len:u32 payload:[u8; len] crc32:u32
//! ```
//!
//! Big endian throughout; the CRC covers `kind..payload`. `kind` 1 is a
//! batch of released events (payload: an encoded `BmcLog`, whose stable
//! time sort is the identity on the already-ordered run), `kind` 2 is a
//! collection gap (server, slot, from, to). `seq` is the per-shard
//! sequence number of the record's first output, so a batch of `k`
//! events covers `seq..seq+k`. The record is the `codec` module's frame,
//! shared with the `MFP1` pipe; decoding is bounds-checked: a corrupted
//! length can neither over-read nor over-allocate.
//!
//! # Apply guard
//!
//! Every state mutation goes through an *apply guard* — a closure that
//! may apply, skip, or report a crash for each durable output. The
//! default guard just applies; the supervisor's guard wraps the apply in
//! `catch_unwind` and consults its quarantine set, which is what turns a
//! poison record (durable before it ever crashed the shard — the price
//! of write-ahead ordering) from a crash loop into a skipped output.

use crate::checkpoint::{CheckpointError, OnlineCheckpoint};
use crate::codec::{
    atomic_write, frame, header, open_sealed, put_dimm, put_time, put_u32, put_u64, read_frame,
    scan_prefix, seal, CodecError, Reader, HEADER_LEN,
};
use crate::feature_store::FeatureStore;
use crate::ingest::{GapRecord, IngestOutput};
use crate::lake::DataLake;
use crate::online::{Alarm, OnlineConfig, OnlinePredictor, ScoreRecord};
use crate::registry::ModelRegistry;
use crate::serve::shard_route;
use mfp_dram::bmc::BmcLog;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::SimTime;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic bytes at the head of a WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"MFW1";
/// WAL wire-format version.
pub const WAL_VERSION: u8 = 1;

/// Slicing-by-16 lookup tables for the reflected IEEE polynomial.
/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is
/// the CRC register after byte `b` is followed by `k` zero bytes, so one
/// step folds 16 input bytes with 16 independent lookups.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 (the Ethernet/zip polynomial: reflected `0xEDB88320`,
/// initial value and final xor `!0`), slicing-by-16.
///
/// Shared by the WAL record format, the `MFP1` frames and the `MFC1`,
/// `MFD1`, `MFW2` and lake envelopes: one detection primitive for every
/// durability and wire payload. Each step folds 16 bytes through the 16
/// tables of `CRC_TABLES`; the last 0–15 bytes go bytewise. The values
/// equal the bytewise loop's (`wal::tests` keeps it as the oracle).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        // The twelve lookups of bytes 4..16 do not depend on the
        // register, so they are folded first; only the last four sit on
        // the loop-carried chain (folding all sixteen in byte order ran
        // at about half the speed).
        let rest = t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = rest
            ^ t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The data carried by one WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalPayload {
    /// A contiguous, time-ordered run of released events.
    Events(Vec<MemEvent>),
    /// One detected collection hole.
    Gap(GapRecord),
}

/// One WAL record: a payload stamped with the per-shard sequence number
/// of its first output.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Per-shard output sequence number of the record's first output.
    pub seq: u64,
    /// The logged outputs.
    pub payload: WalPayload,
}

impl WalRecord {
    /// Number of ingest outputs this record expands to on replay.
    pub fn outputs(&self) -> u64 {
        match &self.payload {
            WalPayload::Events(events) => events.len() as u64,
            WalPayload::Gap(_) => 1,
        }
    }
}

/// Serializes one record into the `MFW1` record format.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let (kind, payload): (u8, Vec<u8>) = match &record.payload {
        WalPayload::Events(events) => {
            // The run is time-ordered, so BmcLog's stable sort is the
            // identity and the trip is byte-exact.
            let log: BmcLog = events.iter().copied().collect();
            (1, log.encode())
        }
        WalPayload::Gap(gap) => {
            let mut p = Vec::with_capacity(21);
            put_dimm(&mut p, gap.dimm);
            put_time(&mut p, gap.from);
            put_time(&mut p, gap.to);
            (2, p)
        }
    };
    frame(kind, record.seq, &payload)
}

/// The 5-byte `MFW1` file header.
fn wal_header() -> [u8; HEADER_LEN] {
    header(WAL_MAGIC, WAL_VERSION)
}

/// The result of scanning a WAL file: the records of the longest valid
/// prefix, plus how much of the file that prefix covers.
#[derive(Debug, Clone, PartialEq)]
pub struct WalContents {
    /// Records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of the valid prefix (file header included); the safe
    /// truncation point for re-opening the file in append mode.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (a torn append, or garbage).
    pub torn_bytes: u64,
}

/// Failure on the WAL/recovery path.
#[derive(Debug)]
pub enum WalError {
    /// An I/O operation failed.
    Io(std::io::Error),
    /// The file starts with bytes that are not a (possibly torn) `MFW1`
    /// header — this is not a WAL.
    BadHeader,
    /// The checkpoint file failed to decode.
    Checkpoint(CheckpointError),
    /// The `MFW2` meta file is corrupt or not a meta file.
    BadMeta(&'static str),
    /// The `MFW2` root was written with a different shard count than the
    /// caller's stores. Routing is a pure function of `(dimm, shards)`,
    /// so resharding would re-home DIMMs away from their logged state and
    /// make every per-shard sequence number meaningless.
    ShardCountMismatch {
        /// Shards recorded on disk.
        captured: usize,
        /// Feature stores the caller supplied.
        stores: usize,
    },
    /// The caller asked for a root with no shards: nothing could serve,
    /// and every routed output would index past the shard table.
    ZeroShards,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::BadHeader => write!(f, "not a MFW1 write-ahead log"),
            WalError::Checkpoint(e) => write!(f, "wal checkpoint: {e}"),
            WalError::BadMeta(what) => write!(f, "wal meta: {what}"),
            WalError::ShardCountMismatch { captured, stores } => write!(
                f,
                "wal shard count mismatch: disk has {captured} shards, caller has {stores} stores"
            ),
            WalError::ZeroShards => write!(f, "wal root needs at least one shard"),
        }
    }
}

impl Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<CheckpointError> for WalError {
    fn from(e: CheckpointError) -> Self {
        WalError::Checkpoint(e)
    }
}

/// Scans a WAL image, returning the longest valid record prefix.
///
/// A record that is truncated, fails its checksum, carries an unknown
/// kind, or whose payload does not decode ends the prefix — everything
/// from that record's first byte on is counted as the torn tail, never
/// replayed, and truncated by recovery. A file shorter than its own
/// header is treated as an empty log torn mid-creation.
///
/// # Errors
///
/// [`WalError::BadHeader`] when the leading bytes mismatch the `MFW1`
/// header (as opposed to merely being cut short).
pub fn scan(data: &[u8]) -> Result<WalContents, WalError> {
    let prefix = scan_prefix(data, wal_header(), decode_record).ok_or(WalError::BadHeader)?;
    Ok(WalContents {
        records: prefix.items,
        valid_bytes: prefix.valid_bytes,
        torn_bytes: prefix.torn_bytes,
    })
}

/// Decodes the record at the head of `data` and returns it with its
/// encoded length; `None` when it is torn, corrupt or unknown (the
/// caller stops scanning there).
pub(crate) fn decode_record(data: &[u8]) -> Option<(WalRecord, usize)> {
    let (frame, len) = read_frame(data)?;
    let payload = match frame.kind {
        1 => WalPayload::Events(BmcLog::decode(frame.payload).ok()?.events().to_vec()),
        2 => {
            let mut r = Reader::new(frame.payload);
            let (dimm, from, to) = (r.dimm().ok()?, r.time().ok()?, r.time().ok()?);
            r.done().ok()?;
            WalPayload::Gap(GapRecord { dimm, from, to })
        }
        _ => return None,
    };
    let seq = frame.seq;
    Some((WalRecord { seq, payload }, len))
}

/// Expands one WAL record into its `(per-shard seq, output)` pairs, in
/// log order: the one expansion replay and the worker's feed share.
pub(crate) fn expand_record(rec: &WalRecord) -> impl Iterator<Item = (u64, IngestOutput)> + '_ {
    let (events, gap) = match &rec.payload {
        WalPayload::Events(events) => (events.as_slice(), None),
        WalPayload::Gap(g) => (&[][..], Some(IngestOutput::Gap(*g))),
    };
    let outs = events.iter().map(|e| IngestOutput::Released(*e)).chain(gap);
    outs.enumerate().map(|(i, out)| (rec.seq + i as u64, out))
}

/// Execution knobs of the durable engine. None of them affect alarms or
/// scores — only how often bytes hit the disk and how long replay takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Outputs a shard buffers before an automatic
    /// [`DurableShard::flush`] (clamped to at least 1).
    pub batch: usize,
    /// WAL records a shard appends between compactions; `u64::MAX`
    /// disables compaction.
    pub compact_every: u64,
    /// `fsync` the WAL after every flush (durability against power loss
    /// rather than just process crash; slower).
    pub fsync: bool,
    /// Enable score tracing on the engine from construction — before
    /// replay — so a recovered run's trace is comparable to an uncrashed
    /// one's (testing/verification only; the trace grows unbounded).
    pub record_scores: bool,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            batch: 256,
            compact_every: 64,
            fsync: false,
            record_scores: false,
        }
    }
}

/// What [`DurableShard::open`] found and did for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Outputs already folded into the restored checkpoint (0 without
    /// a checkpoint file).
    pub checkpoint_applied: u64,
    /// Valid WAL records scanned.
    pub wal_records: u64,
    /// WAL outputs replayed into the engine.
    pub outputs_replayed: u64,
    /// WAL outputs skipped because the checkpoint already covered them
    /// (a crash between checkpoint rename and WAL reset).
    pub outputs_skipped: u64,
    /// Bytes of torn tail truncated from the WAL.
    pub torn_tail_bytes: u64,
    /// WAL outputs consumed without applying because the shard's
    /// quarantine side log lists them.
    pub outputs_quarantined: u64,
    /// Replay aborted: the apply guard reported a crash at this
    /// per-shard sequence number (the output is a poison candidate; the
    /// supervisor counts the crash and retries or quarantines).
    pub replay_crashed: Option<u64>,
}

/// Telemetry handles for the durability path, resolved once per engine.
#[derive(Debug)]
struct WalMetrics {
    appends: mfp_obs::Counter,
    append_bytes: mfp_obs::Histogram,
    flushes: mfp_obs::Counter,
    fsyncs: mfp_obs::Counter,
    compactions: mfp_obs::Counter,
    replay_records: mfp_obs::Counter,
    replay_outputs: mfp_obs::Counter,
    replay_skipped: mfp_obs::Counter,
    torn_tails: mfp_obs::Counter,
    flush_seconds: mfp_obs::Histogram,
    replay_seconds: mfp_obs::Histogram,
}

impl WalMetrics {
    fn new() -> Self {
        WalMetrics {
            appends: mfp_obs::counter("wal_appends", &[]),
            append_bytes: mfp_obs::sizes("wal_append_bytes", &[]),
            flushes: mfp_obs::counter("wal_flushes", &[]),
            fsyncs: mfp_obs::counter("wal_fsyncs", &[]),
            compactions: mfp_obs::counter("wal_compactions", &[]),
            replay_records: mfp_obs::counter("wal_replay_records", &[]),
            replay_outputs: mfp_obs::counter("wal_replay_outputs", &[]),
            replay_skipped: mfp_obs::counter("wal_replay_skipped", &[]),
            torn_tails: mfp_obs::counter("wal_torn_tails", &[]),
            flush_seconds: mfp_obs::latency("wal_flush_seconds", &[]),
            replay_seconds: mfp_obs::latency("wal_replay_seconds", &[]),
        }
    }
}

/// Magic bytes of the durable checkpoint container: a shard's `MFC1`
/// payload wrapped with its applied-output watermark.
const CKPT_MAGIC: [u8; 4] = *b"MFD1";
const CKPT_VERSION: u8 = 1;
/// Magic bytes of the `MFW2` per-shard directory meta file.
const META_MAGIC: [u8; 4] = *b"MFW2";
const META_VERSION: u8 = 1;

/// Syncs a directory's entry table. An atomic rename is only durable
/// against power loss once the *directory* is synced — without this, the
/// checkpoint rename and the WAL reset that follows it can reorder on
/// the platter and recovery would see a stale checkpoint next to an
/// already-emptied log.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Creates a fresh WAL file at `path` containing only the header.
fn create_wal(path: &Path) -> Result<File, WalError> {
    let mut f = File::create(path)?;
    f.write_all(&wal_header())?;
    f.sync_data()?;
    Ok(f)
}

/// Resets a WAL to empty via the atomic-rename pattern and re-opens it
/// for append: a crash here leaves either the old full log (outputs
/// skipped on replay) or the fresh empty one.
fn reset_wal(path: &Path) -> Result<File, WalError> {
    atomic_write(path, &wal_header())?;
    Ok(OpenOptions::new().append(true).open(path)?)
}

/// Opens (creating if absent) the WAL at `path`: scans the longest valid
/// record prefix, truncates any torn tail (or rewrites a torn header),
/// and returns the scanned contents plus the file positioned for append.
fn recover_wal_file(path: &Path) -> Result<(File, WalContents), WalError> {
    match fs::read(path) {
        Ok(bytes) => {
            let contents = scan(&bytes)?;
            let file = OpenOptions::new().write(true).open(path)?;
            let file = if contents.valid_bytes < HEADER_LEN as u64 {
                file.set_len(0)?;
                let mut f = file;
                f.write_all(&wal_header())?;
                f.sync_data()?;
                f
            } else {
                file.set_len(contents.valid_bytes)?;
                let mut f = file;
                std::io::Seek::seek(&mut f, std::io::SeekFrom::End(0))?;
                f
            };
            Ok((file, contents))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok((
            create_wal(path)?,
            WalContents {
                records: Vec::new(),
                valid_bytes: HEADER_LEN as u64,
                torn_bytes: 0,
            },
        )),
        Err(e) => Err(e.into()),
    }
}

/// Groups a run of pending outputs into WAL records starting at sequence
/// number `seq`: contiguous released events batch into one record, each
/// gap gets its own.
pub(crate) fn batch_outputs(pending: &[IngestOutput], mut seq: u64) -> Vec<WalRecord> {
    let mut records = Vec::new();
    let mut run: Vec<MemEvent> = Vec::new();
    for out in pending {
        match out {
            IngestOutput::Released(e) => run.push(*e),
            IngestOutput::Gap(g) => {
                if !run.is_empty() {
                    let n = run.len() as u64;
                    records.push(WalRecord {
                        seq,
                        payload: WalPayload::Events(std::mem::take(&mut run)),
                    });
                    seq += n;
                }
                records.push(WalRecord {
                    seq,
                    payload: WalPayload::Gap(*g),
                });
                seq += 1;
            }
        }
    }
    if !run.is_empty() {
        records.push(WalRecord {
            seq,
            payload: WalPayload::Events(run),
        });
    }
    records
}

/// What a guarded apply decided to do with one durable output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyVerdict {
    /// The output was applied to the predictor.
    Applied,
    /// The output was deliberately not applied (e.g. quarantined by the
    /// supervisor); the shard's consumed watermark still advances.
    Skipped,
    /// Applying panicked (the guard caught it). The shard's in-memory
    /// state is suspect: drop it and re-open — the output stays durable
    /// in the WAL and replay retries it through the same guard.
    Crashed,
}

/// The supervisor's hook into state mutation: every durable output
/// passes through the guard before (or instead of) touching the
/// predictor. The default guard applies unconditionally; the supervised
/// guard adds `catch_unwind` and poison quarantine.
pub type Guard<'g, 'a> =
    dyn FnMut(&mut OnlinePredictor<'a>, &IngestOutput, u64) -> ApplyVerdict + 'g;

/// Outcome of a guarded flush: either every newly durable output was
/// consumed, or consumption stopped at a crashing output (everything
/// from `seq` on is durable but unapplied — drop the shard and recover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStatus {
    /// All durable outputs were applied or skipped.
    Clean,
    /// The guard reported a crash at this per-shard sequence number.
    Crashed {
        /// Per-shard sequence number of the crashing output.
        seq: u64,
    },
}

/// The directory holding shard `shard`'s log, checkpoint and quarantine
/// side log under an `MFW2` root.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
}

/// Appends one output to a shard directory's quarantine side log
/// (`quarantine.log`, plain `MFW1` records keyed by per-shard sequence
/// number), creating the log on first use. Recovery skips listed
/// sequence numbers instead of replaying them; deleting the file is the
/// operator's escape hatch to retry everything in it.
pub fn quarantine_output(shard_dir: &Path, seq: u64, out: &IngestOutput) -> Result<(), WalError> {
    let record = WalRecord {
        seq,
        payload: match out {
            IngestOutput::Released(e) => WalPayload::Events(vec![*e]),
            IngestOutput::Gap(g) => WalPayload::Gap(*g),
        },
    };
    let path = shard_dir.join("quarantine.log");
    let mut f = match OpenOptions::new().append(true).open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => create_wal(&path)?,
        Err(e) => return Err(e.into()),
    };
    f.write_all(&encode_record(&record))?;
    f.sync_data()?;
    mfp_obs::counter("serve_shard_quarantined", &[]).incr();
    Ok(())
}

/// Scans a shard directory's quarantine side log; an absent file is an
/// empty quarantine. Only the valid record prefix is honored (a torn
/// quarantine append re-crashes at worst once more, then re-quarantines).
pub fn scan_quarantine(shard_dir: &Path) -> Result<Vec<WalRecord>, WalError> {
    match fs::read(shard_dir.join("quarantine.log")) {
        Ok(bytes) => Ok(scan(&bytes)?.records),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// Validates (or creates) the `MFW2` meta file recording the root's
/// shard count. A count of zero is refused before anything is written.
pub(crate) fn check_meta(root: &Path, shards: usize) -> Result<(), WalError> {
    if shards == 0 {
        return Err(WalError::ZeroShards);
    }
    let path = root.join("meta.bin");
    match fs::read(&path) {
        Ok(bytes) => {
            let captured = open_sealed(&bytes, META_MAGIC, META_VERSION..=META_VERSION)
                .and_then(|(_, body)| {
                    let mut r = Reader::new(body);
                    let n = r.u32()?;
                    r.done()?;
                    Ok(n as usize)
                })
                .map_err(|e| {
                    WalError::BadMeta(match e {
                        CodecError::BadChecksum => "meta checksum mismatch",
                        _ => "not an MFW2 meta file",
                    })
                })?;
            if captured != shards {
                return Err(WalError::ShardCountMismatch {
                    captured,
                    stores: shards,
                });
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let meta = seal(META_MAGIC, META_VERSION, |b| put_u32(b, shards as u32));
            atomic_write(&path, &meta)?;
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

/// One predictor shard behind its own `MFW1` log and `MFD1` checkpoint
/// chain — the unit of independent recovery in the `MFW2` layout and the
/// restartable unit `crate::supervise` manages.
///
/// Sequence numbers are per-shard: output `k` is the `k`-th output ever
/// routed to this shard, a stable coordinate across restarts because
/// routing is a pure hash of DIMM identity. Opening never touches a
/// sibling shard's files, so shards recover (and fail) independently.
///
/// All consumption goes through an apply [`Guard`]; after a
/// [`FlushStatus::Crashed`] or a [`RecoveryReport::replay_crashed`] the
/// instance must be dropped and re-opened.
#[derive(Debug)]
pub struct DurableShard<'a> {
    dir: PathBuf,
    predictor: OnlinePredictor<'a>,
    store: &'a FeatureStore,
    wal: BufWriter<File>,
    pending: Vec<IngestOutput>,
    /// Outputs durably on disk (checkpoint watermark + valid log).
    durable_seq: u64,
    /// Outputs applied or skipped; trails `durable_seq` only after a
    /// crash verdict.
    consumed_seq: u64,
    quarantined: BTreeSet<u64>,
    records_since_compact: u64,
    cfg: DurableConfig,
    metrics: WalMetrics,
}

impl<'a> DurableShard<'a> {
    /// Opens (or creates) one shard rooted at `dir`: restores its `MFD1`
    /// checkpoint if present (otherwise resets `store` so an in-process
    /// restart starts clean), loads its quarantine set, then replays its
    /// own longest valid WAL prefix through `guard`. A guard crash
    /// during replay aborts consumption at that output and is reported
    /// in [`RecoveryReport::replay_crashed`]; everything scanned stays
    /// durable.
    ///
    /// # Errors
    ///
    /// I/O failures, a corrupt checkpoint container, or a WAL whose
    /// header is not `MFW1`. Torn tails are measured and truncated, not
    /// errors.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        dir: impl Into<PathBuf>,
        lake: &'a DataLake,
        store: &'a FeatureStore,
        registry: &'a ModelRegistry,
        platform: Platform,
        online: OnlineConfig,
        cfg: DurableConfig,
        shard: usize,
        guard: &mut Guard<'_, 'a>,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let metrics = WalMetrics::new();
        let mut report = RecoveryReport::default();
        let replay_span = metrics.replay_seconds.time();

        let quarantined: BTreeSet<u64> = scan_quarantine(&dir)?.iter().map(|r| r.seq).collect();

        // 1. This shard's checkpoint, if any.
        let mut predictor = match fs::read(dir.join("checkpoint.bin")) {
            Ok(bytes) => {
                // MFD1: the sealed applied watermark and MFC1 payload.
                let (applied, payload) =
                    open_sealed(&bytes, CKPT_MAGIC, CKPT_VERSION..=CKPT_VERSION)
                        .and_then(|(_, body)| {
                            let mut r = Reader::new(body);
                            let applied = r.u64()?;
                            let n = r.count()?;
                            let payload = r.take(n)?;
                            r.done()?;
                            Ok((applied, payload))
                        })
                        .map_err(CheckpointError::from)?;
                let cp = OnlineCheckpoint::decode(payload)?;
                report.checkpoint_applied = applied;
                cp.restore(lake, store, registry)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // No checkpoint: the store may still hold streams from a
                // previous in-process incarnation — recovery is
                // checkpoint + WAL only, so start it empty.
                store.import_streams(Vec::new());
                OnlinePredictor::new(lake, store, registry, platform, online)
            }
            Err(e) => return Err(e.into()),
        };
        predictor.set_score_trace(cfg.record_scores);

        // 2. Replay this shard's WAL tail past the watermark. Nothing
        // here reads another shard's directory.
        let (file, contents) = recover_wal_file(&dir.join("wal.log"))?;
        report.wal_records = contents.records.len() as u64;
        report.torn_tail_bytes = contents.torn_bytes;
        if contents.torn_bytes > 0 {
            metrics.torn_tails.incr();
        }
        let mut durable_seq = report.checkpoint_applied;
        let mut consumed_seq = report.checkpoint_applied;
        for record in &contents.records {
            for (seq, out) in expand_record(record) {
                durable_seq = durable_seq.max(seq + 1);
                if seq < report.checkpoint_applied {
                    report.outputs_skipped += 1;
                    continue;
                }
                if report.replay_crashed.is_some() {
                    continue;
                }
                if quarantined.contains(&seq) {
                    report.outputs_quarantined += 1;
                    consumed_seq = seq + 1;
                    continue;
                }
                match guard(&mut predictor, &out, seq) {
                    ApplyVerdict::Applied => {
                        report.outputs_replayed += 1;
                        consumed_seq = seq + 1;
                    }
                    ApplyVerdict::Skipped => {
                        report.outputs_quarantined += 1;
                        consumed_seq = seq + 1;
                    }
                    ApplyVerdict::Crashed => report.replay_crashed = Some(seq),
                }
            }
        }
        metrics.replay_records.add(report.wal_records);
        metrics.replay_outputs.add(report.outputs_replayed);
        metrics.replay_skipped.add(report.outputs_skipped);
        let label = shard.to_string();
        mfp_obs::counter("wal_replay_records", &[("shard", &label)]).add(report.wal_records);
        replay_span.stop();

        Ok((
            DurableShard {
                dir,
                predictor,
                store,
                wal: BufWriter::new(file),
                pending: Vec::with_capacity(cfg.batch.max(1)),
                durable_seq,
                consumed_seq,
                quarantined,
                records_since_compact: 0,
                cfg,
                metrics,
            },
            report,
        ))
    }

    /// Accepts the next output routed to this shard: buffered, logged on
    /// the next flush, then consumed through `guard`.
    pub fn push(
        &mut self,
        out: IngestOutput,
        guard: &mut Guard<'_, 'a>,
    ) -> Result<FlushStatus, WalError> {
        self.pending.push(out);
        if self.pending.len() >= self.cfg.batch.max(1) {
            return self.flush(guard);
        }
        Ok(FlushStatus::Clean)
    }

    /// Makes every buffered output durable, then consumes each through
    /// `guard` — the write-ahead ordering. Contiguous released-event runs
    /// are batched into one record; each gap gets its own. On a crash
    /// verdict the remaining outputs stay durable but unapplied and the
    /// caller must drop + re-open the shard. Compacts when the record
    /// budget is spent.
    pub fn flush(&mut self, guard: &mut Guard<'_, 'a>) -> Result<FlushStatus, WalError> {
        if self.pending.is_empty() {
            return Ok(FlushStatus::Clean);
        }
        let span = self.metrics.flush_seconds.time();
        let pending = std::mem::take(&mut self.pending);
        let records = batch_outputs(&pending, self.durable_seq);
        for record in &records {
            let bytes = encode_record(record);
            self.wal.write_all(&bytes)?;
            self.metrics.appends.incr();
            self.metrics.append_bytes.record(bytes.len() as f64);
        }
        self.wal.flush()?;
        if self.cfg.fsync {
            self.wal.get_ref().sync_data()?;
            self.metrics.fsyncs.incr();
        }
        self.metrics.flushes.incr();
        span.stop();
        // Durable — now consume through the guard.
        let base = self.durable_seq;
        self.durable_seq += pending.len() as u64;
        let mut status = FlushStatus::Clean;
        for (i, out) in pending.iter().enumerate() {
            if status != FlushStatus::Clean {
                break;
            }
            let seq = base + i as u64;
            if self.quarantined.contains(&seq) {
                self.consumed_seq = seq + 1;
                continue;
            }
            match guard(&mut self.predictor, out, seq) {
                ApplyVerdict::Crashed => status = FlushStatus::Crashed { seq },
                _ => self.consumed_seq = seq + 1,
            }
        }
        self.records_since_compact += records.len() as u64;
        if status == FlushStatus::Clean && self.records_since_compact >= self.cfg.compact_every {
            self.compact()?;
        }
        Ok(status)
    }

    /// Folds this shard's WAL into a fresh `MFD1` checkpoint and resets
    /// the log: checkpoint first (atomic rename), WAL reset second, so a
    /// crash between the two merely makes replay skip covered outputs.
    /// Under [`DurableConfig::fsync`] the directory is synced after each
    /// rename, so power loss never sees the reset log next to the old
    /// checkpoint. Requires a clean shard: everything flushed, nothing
    /// unconsumed.
    pub fn compact(&mut self) -> Result<(), WalError> {
        assert!(self.pending.is_empty(), "flush before compacting");
        assert_eq!(
            self.consumed_seq, self.durable_seq,
            "cannot checkpoint a crashed shard"
        );
        let payload = OnlineCheckpoint::capture(&self.predictor, self.store).encode();
        let bytes = seal(CKPT_MAGIC, CKPT_VERSION, |b| {
            put_u64(b, self.durable_seq);
            put_u64(b, payload.len() as u64);
            b.extend_from_slice(&payload);
        });
        atomic_write(&self.dir.join("checkpoint.bin"), &bytes)?;
        if self.cfg.fsync {
            fsync_dir(&self.dir)?;
        }
        self.wal = BufWriter::new(reset_wal(&self.dir.join("wal.log"))?);
        if self.cfg.fsync {
            fsync_dir(&self.dir)?;
        }
        self.records_since_compact = 0;
        self.metrics.compactions.incr();
        Ok(())
    }

    /// Flushes, runs prediction ticks up to `until`, then (with
    /// compaction enabled) folds the final state into a checkpoint. A
    /// crash verdict during the flush is returned without ticking.
    pub fn finish(
        &mut self,
        until: SimTime,
        guard: &mut Guard<'_, 'a>,
    ) -> Result<FlushStatus, WalError> {
        match self.flush(guard)? {
            FlushStatus::Clean => {}
            crashed => return Ok(crashed),
        }
        self.predictor.finish(until);
        if self.cfg.compact_every != u64::MAX {
            self.compact()?;
        }
        Ok(FlushStatus::Clean)
    }

    /// Outputs this shard has consumed (applied or skipped).
    pub fn consumed(&self) -> u64 {
        self.consumed_seq
    }

    /// Outputs durably logged or checkpointed.
    pub fn durable(&self) -> u64 {
        self.durable_seq
    }

    /// Outputs handed to [`DurableShard::push`] so far, including the
    /// still-buffered tail — the caller's re-feed position.
    pub fn fed(&self) -> u64 {
        self.durable_seq + self.pending.len() as u64
    }

    /// Per-shard sequence numbers the quarantine side log lists.
    pub fn quarantined(&self) -> &BTreeSet<u64> {
        &self.quarantined
    }

    /// The shard's predictor (read access).
    pub fn predictor(&self) -> &OnlinePredictor<'a> {
        &self.predictor
    }

    /// Alarms this shard has raised, in raise order.
    pub fn alarms(&self) -> &[Alarm] {
        self.predictor.alarms()
    }

    /// This shard's score trace (empty unless
    /// [`DurableConfig::record_scores`]).
    pub fn score_trace(&self) -> &[ScoreRecord] {
        self.predictor.score_trace()
    }

    /// Model invocations on this shard.
    pub fn scored(&self) -> u64 {
        self.predictor.scored()
    }
}

/// The unsupervised `MFW2` engine: one [`DurableShard`] per feature
/// store behind the pure hash router, each with its own log and
/// checkpoint chain. Produces alarms and scores bit-identical to the
/// sequential predictor for the same stream.
///
/// On re-open after a crash the caller re-feeds the stream from the
/// start: [`ShardedDurable::push`] counts the outputs routed to each
/// shard and skips the prefix that shard already recovered, so shards
/// cut at *different* offsets re-synchronize without any cross-shard
/// coordination. `crate::supervise::Supervisor` builds restart, backoff
/// and quarantine handling on top of the same per-shard units.
#[derive(Debug)]
pub struct ShardedDurable<'a> {
    shards: Vec<DurableShard<'a>>,
    /// Outputs routed to each shard by this incarnation's feed.
    seen: Vec<u64>,
    /// Each shard's feed position recovered at open; the skip threshold.
    recovered: Vec<u64>,
}

impl<'a> ShardedDurable<'a> {
    /// Opens (or creates) an `MFW2` root with one shard per store,
    /// recovering every shard independently.
    ///
    /// # Errors
    ///
    /// Everything [`DurableShard::open`] returns, plus
    /// [`WalError::BadMeta`] / [`WalError::ShardCountMismatch`] when the
    /// root's meta file disagrees with `stores`, and
    /// [`WalError::ZeroShards`] when `stores` is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        dir: impl Into<PathBuf>,
        lake: &'a DataLake,
        stores: &'a [FeatureStore],
        registry: &'a ModelRegistry,
        platform: Platform,
        online: OnlineConfig,
        cfg: DurableConfig,
    ) -> Result<(Self, Vec<RecoveryReport>), WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        check_meta(&dir, stores.len())?;
        let mut shards = Vec::with_capacity(stores.len());
        let mut reports = Vec::with_capacity(stores.len());
        let mut guard = apply_unguarded();
        for (s, store) in stores.iter().enumerate() {
            let (unit, report) = DurableShard::open(
                shard_dir(&dir, s),
                lake,
                store,
                registry,
                platform,
                online,
                cfg,
                s,
                &mut guard,
            )?;
            shards.push(unit);
            reports.push(report);
        }
        let recovered = shards.iter().map(|u| u.fed()).collect();
        Ok((
            ShardedDurable {
                seen: vec![0; shards.len()],
                shards,
                recovered,
            },
            reports,
        ))
    }

    /// Accepts the next output of the canonical stream: routed to its
    /// home shard, skipped if that shard's recovery already covers it.
    pub fn push(&mut self, out: IngestOutput) -> Result<(), WalError> {
        let s = shard_route(&out, self.shards.len());
        self.seen[s] += 1;
        if self.seen[s] <= self.recovered[s] {
            return Ok(());
        }
        let mut guard = apply_unguarded();
        self.shards[s].push(out, &mut guard)?;
        Ok(())
    }

    /// Flushes every shard's buffered outputs.
    pub fn flush(&mut self) -> Result<(), WalError> {
        let mut guard = apply_unguarded();
        for shard in &mut self.shards {
            shard.flush(&mut guard)?;
        }
        Ok(())
    }

    /// Flushes and runs every shard's prediction ticks up to `until`.
    /// Ticks are a deterministic function of durable state, so they are
    /// not logged: recovery replays the logs and the caller re-invokes
    /// `finish`. With compaction enabled every shard ends with a final
    /// [`DurableShard::compact`], so a kill right after `finish` restarts
    /// from the checkpoints instead of replaying whole logs.
    pub fn finish(&mut self, until: SimTime) -> Result<(), WalError> {
        let mut guard = apply_unguarded();
        for shard in &mut self.shards {
            shard.finish(until, &mut guard)?;
        }
        Ok(())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard (read access).
    pub fn shard(&self, s: usize) -> &DurableShard<'a> {
        &self.shards[s]
    }

    /// Total outputs consumed across shards.
    pub fn consumed(&self) -> u64 {
        self.shards.iter().map(|s| s.consumed()).sum()
    }

    /// All alarms raised so far, merged by `(time, dimm)`.
    pub fn alarms(&self) -> Vec<Alarm> {
        let mut out: Vec<Alarm> = self
            .shards
            .iter()
            .flat_map(|s| s.alarms().iter().copied())
            .collect();
        out.sort_by_key(|a| (a.time, a.dimm));
        out
    }

    /// All recorded scores, merged by `(time, dimm)`.
    pub fn scores(&self) -> Vec<ScoreRecord> {
        let mut out: Vec<ScoreRecord> = self
            .shards
            .iter()
            .flat_map(|s| s.score_trace().iter().copied())
            .collect();
        out.sort_by_key(|r| (r.time, r.dimm));
        out
    }

    /// Total model invocations across shards.
    pub fn scored(&self) -> u64 {
        self.shards.iter().map(|s| s.scored()).sum()
    }
}

/// The default apply guard: apply everything, catch nothing.
fn apply_unguarded<'a>() -> impl FnMut(&mut OnlinePredictor<'a>, &IngestOutput, u64) -> ApplyVerdict
{
    |predictor, out, _seq| {
        predictor.apply(out);
        ApplyVerdict::Applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_store::FeatureStore;
    use crate::online::OnlinePredictor;
    use crate::procserve::ModelSpec;
    use crate::serve::make_stores;
    use mfp_dram::address::{CellAddr, DimmId};
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::CeEvent;
    use mfp_dram::spec::DimmSpec;
    use mfp_features::fault_analysis::FaultThresholds;
    use mfp_features::labeling::ProblemConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test invocation (parallel-safe).
    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "mfp_wal_{tag}_{}_{}",
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

    fn setup(lake: &DataLake) -> Vec<DimmId> {
        let dimms: Vec<DimmId> = (0..8u32).map(|k| DimmId::new(k, (k % 2) as u8)).collect();
        for &id in &dimms {
            lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        }
        dimms
    }

    /// A canonical ingest-output stream: time-ordered released events
    /// (half the fleet risky) with two collection gaps in the middle.
    fn outputs(dimms: &[DimmId]) -> Vec<IngestOutput> {
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

    /// The bytewise table loop `crc32` ran before slicing-by-16, kept
    /// as the oracle with its own table.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        const TABLE: [u32; 256] = {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                    k += 1;
                }
                table[i] = c;
                i += 1;
            }
            table
        };
        let mut c = !0u32;
        for &b in data {
            c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // Reference values from Python's `zlib.crc32`.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&(0..=255u8).collect::<Vec<u8>>()), 0x2905_8C73);
        assert_eq!(crc32(&vec![0u8; 1 << 20]), 0xA738_EA1C);
        assert_eq!(crc32(&[0xFFu8; 4096]), 0xF154_670A);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_oracle() {
        let mut rng = mfp_rng::StdRng::seed_from_u64(0x00C3_2C32);
        let random: Vec<u8> = (0..4096 + 16).map(|_| rng.next_u64() as u8).collect();
        let zeros = vec![0u8; 4096 + 16];
        let ones = vec![0xFFu8; 4096 + 16];
        for (name, buf) in [("random", &random), ("zeros", &zeros), ("ones", &ones)] {
            // Every length through four 16-byte blocks, at every start
            // offset inside the larger buffer.
            for start in 0..16 {
                for len in 0..=64 {
                    let data = &buf[start..start + len];
                    assert_eq!(
                        crc32(data),
                        crc32_bytewise(data),
                        "{name}: start {start}, len {len}"
                    );
                }
            }
            for case in 0..2_000 {
                let start = rng.random_range(0..16usize);
                let len = rng.random_range(0..=4096usize);
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "{name}: case {case}, start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn record_roundtrip_and_torn_prefix_scan() {
        let id = DimmId::new(3, 1);
        let records = vec![
            WalRecord {
                seq: 0,
                payload: WalPayload::Events(vec![risky_ce(10, id, true), risky_ce(20, id, false)]),
            },
            WalRecord {
                seq: 2,
                payload: WalPayload::Gap(GapRecord {
                    dimm: id,
                    from: SimTime::from_secs(20),
                    to: SimTime::from_secs(400_000),
                }),
            },
            WalRecord {
                seq: 3,
                payload: WalPayload::Events(vec![risky_ce(500_000, id, true)]),
            },
        ];
        let mut image: Vec<u8> = WAL_MAGIC.to_vec();
        image.push(WAL_VERSION);
        let mut boundaries = vec![image.len()];
        for r in &records {
            image.extend_from_slice(&encode_record(r));
            boundaries.push(image.len());
        }
        let full = scan(&image).unwrap();
        assert_eq!(full.records, records);
        assert_eq!(full.valid_bytes, image.len() as u64);
        assert_eq!(full.torn_bytes, 0);

        // Truncation at EVERY byte offset: the scan returns exactly the
        // records whose bytes are fully present, and never errors.
        for cut in 0..image.len() {
            let c = scan(&image[..cut]).unwrap();
            let complete = boundaries
                .iter()
                .filter(|&&b| b <= cut)
                .count()
                .saturating_sub(1);
            assert_eq!(
                c.records.len(),
                complete.min(records.len()),
                "cut at {cut}: wrong record count"
            );
            assert_eq!(c.records[..], records[..c.records.len()]);
        }

        // A flipped bit anywhere in a record body ends the prefix there.
        for i in (HEADER_LEN..image.len()).step_by(7) {
            let mut corrupt = image.clone();
            corrupt[i] ^= 1 << (i % 8);
            let c = scan(&corrupt).unwrap();
            let intact = boundaries.iter().filter(|&&b| b <= i).count() - 1;
            assert!(
                c.records.len() <= intact.min(records.len()),
                "bit flip at {i} must not extend the valid prefix"
            );
            assert_eq!(c.records[..], records[..c.records.len()]);
        }

        // A non-WAL file is rejected outright.
        assert!(matches!(scan(b"GARBAGE!"), Err(WalError::BadHeader)));
        assert!(matches!(scan(b"XY"), Err(WalError::BadHeader)));
        // A torn header is an empty log, not garbage.
        let torn = scan(b"MFW").unwrap();
        assert!(torn.records.is_empty());
        assert_eq!(torn.torn_bytes, 3);
    }

    fn traced() -> DurableConfig {
        DurableConfig {
            batch: 5,
            compact_every: u64::MAX,
            record_scores: true,
            ..DurableConfig::default()
        }
    }

    fn open_root<'a>(
        dir: &Path,
        lake: &'a DataLake,
        stores: &'a [FeatureStore],
        registry: &'a ModelRegistry,
        cfg: DurableConfig,
    ) -> Result<(ShardedDurable<'a>, Vec<RecoveryReport>), WalError> {
        ShardedDurable::open(
            dir,
            lake,
            stores,
            registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            cfg,
        )
    }

    fn shard_stores(shards: usize) -> Vec<FeatureStore> {
        make_stores(shards, ProblemConfig::default(), FaultThresholds::default())
    }

    /// Copies an `MFW2` root's meta file and every shard's log and
    /// checkpoint: the on-disk state a crash right now would leave.
    fn copy_root(src: &Path, dst: &Path, shards: usize) {
        fs::copy(src.join("meta.bin"), dst.join("meta.bin")).unwrap();
        for s in 0..shards {
            let (from, to) = (shard_dir(src, s), shard_dir(dst, s));
            fs::create_dir_all(&to).unwrap();
            for name in ["wal.log", "checkpoint.bin"] {
                if from.join(name).exists() {
                    fs::copy(from.join(name), to.join(name)).unwrap();
                }
            }
        }
    }

    /// An `MFD1` container around `payload`, as compaction writes it.
    fn seal_mfd1(applied: u64, payload: &[u8]) -> Vec<u8> {
        seal(CKPT_MAGIC, CKPT_VERSION, |b| {
            put_u64(b, applied);
            put_u64(b, payload.len() as u64);
            b.extend_from_slice(payload);
        })
    }

    /// Byte offsets of every record boundary of a WAL image, starting
    /// with the end of the header.
    fn record_boundaries(image: &[u8]) -> Vec<usize> {
        let mut b = vec![HEADER_LEN];
        let mut off = HEADER_LEN;
        while off < image.len() {
            let plen = u32::from_be_bytes([
                image[off + 9],
                image[off + 10],
                image[off + 11],
                image[off + 12],
            ]) as usize;
            off += crate::codec::FRAME_HEADER_LEN + plen + 4;
            b.push(off);
        }
        b
    }

    #[test]
    fn truncating_the_wal_anywhere_recovers_bit_identically() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let end = SimTime::from_secs(40 * 86_400);
        let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, end);

        for shards in [1usize, 2, 4] {
            // Write every shard's complete WAL once (no compaction, so
            // the logs cover the whole stream).
            let dir = test_dir("sweep");
            let live = shard_stores(shards);
            let (mut writer, _) = open_root(&dir, &lake, &live, &registry, traced()).unwrap();
            for out in &outs {
                writer.push(*out).unwrap();
            }
            writer.flush().unwrap();
            drop(writer);
            // Tear the longest log; its siblings stay whole.
            let wal_of = |s| shard_dir(&dir, s).join("wal.log");
            let victim = (0..shards)
                .max_by_key(|&s| fs::metadata(wal_of(s)).unwrap().len())
                .unwrap();
            let image = fs::read(wal_of(victim)).unwrap();
            let boundaries = record_boundaries(&image);
            // Crash at every record boundary plus torn offsets sampled
            // across the whole file (densely for the single-shard config,
            // sparsely for the rest — torn-tail handling is
            // shard-independent, so the expensive part of the sweep does
            // not need to be repeated per shard count).
            let mut cuts: Vec<usize> = boundaries.clone();
            let step = if shards == 1 { 461 } else { 1847 };
            cuts.extend((0..image.len()).step_by(step));
            cuts.sort_unstable();
            cuts.dedup();
            for cut in cuts {
                let crash_dir = test_dir("sweep_cut");
                copy_root(&dir, &crash_dir, shards);
                fs::write(shard_dir(&crash_dir, victim).join("wal.log"), &image[..cut]).unwrap();
                let restore = shard_stores(shards);
                let (mut resumed, reports) =
                    open_root(&crash_dir, &lake, &restore, &registry, traced()).unwrap();
                if cut > 0 && boundaries.binary_search(&cut).is_err() {
                    assert!(
                        reports[victim].torn_tail_bytes > 0,
                        "mid-record cut at {cut}"
                    );
                }
                for out in &outs {
                    resumed.push(*out).unwrap();
                }
                resumed.finish(end).unwrap();
                let at = format!("{shards} shards, crash at byte {cut} of shard {victim}");
                assert_eq!(resumed.alarms(), ref_alarms, "{at}: alarms diverged");
                assert_eq!(resumed.scores(), ref_scores, "{at}: scores diverged");
                assert_eq!(resumed.scored(), ref_scored, "{at}: scored diverged");
                assert_eq!(resumed.consumed(), outs.len() as u64);
                let _ = fs::remove_dir_all(&crash_dir);
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn compaction_bounds_the_wal_and_recovery_still_matches() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let end = SimTime::from_secs(40 * 86_400);
        let (ref_alarms, _, ref_scored) = oracle(&lake, &registry, &outs, end);

        let dir = test_dir("compact");
        let live = shard_stores(2);
        let cfg = DurableConfig {
            batch: 5,
            compact_every: 4,
            fsync: true,
            ..DurableConfig::default()
        };
        let (mut durable, _) = open_root(&dir, &lake, &live, &registry, cfg).unwrap();
        for out in &outs {
            durable.push(*out).unwrap();
        }
        durable.flush().unwrap();
        drop(durable);
        for s in 0..2 {
            let sdir = shard_dir(&dir, s);
            assert!(
                sdir.join("checkpoint.bin").exists(),
                "shard {s}: compaction must checkpoint"
            );
            let wal_len = fs::metadata(sdir.join("wal.log")).unwrap().len();
            assert!(
                wal_len < 2_000,
                "shard {s}: compaction must bound the log (got {wal_len} bytes)"
            );
        }

        // Crash after the stream: reopen, finish, compare.
        let restore = shard_stores(2);
        let (mut resumed, reports) = open_root(&dir, &lake, &restore, &registry, cfg).unwrap();
        assert!(reports.iter().all(|r| r.checkpoint_applied > 0));
        assert_eq!(
            reports
                .iter()
                .map(|r| r.checkpoint_applied + r.outputs_replayed)
                .sum::<u64>(),
            outs.len() as u64
        );
        for out in &outs {
            resumed.push(*out).unwrap();
        }
        resumed.finish(end).unwrap();
        assert_eq!(resumed.alarms(), ref_alarms);
        assert_eq!(resumed.scored(), ref_scored);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_outputs_the_checkpoint_already_covers() {
        // Simulate a crash between the checkpoint rename and the WAL
        // reset: pair every shard's *full* WAL with a checkpoint that
        // covers all of it. Replay must skip, not double-apply.
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let end = SimTime::from_secs(40 * 86_400);
        let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, end);

        // Full WALs, no compaction.
        let wal_dir = test_dir("skipsrc");
        let crash_dir = test_dir("skip");
        let live = shard_stores(2);
        let (mut writer, _) = open_root(&wal_dir, &lake, &live, &registry, traced()).unwrap();
        for out in &outs {
            writer.push(*out).unwrap();
        }
        writer.flush().unwrap();
        copy_root(&wal_dir, &crash_dir, 2);
        // Checkpoints covering each whole log, taken from the live shards
        // (what compaction writes just before resetting the WAL).
        for (s, store) in live.iter().enumerate() {
            let shard = writer.shard(s);
            let cp = OnlineCheckpoint::capture(shard.predictor(), store);
            let ckpt = seal_mfd1(shard.durable(), &cp.encode());
            fs::write(shard_dir(&crash_dir, s).join("checkpoint.bin"), ckpt).unwrap();
        }
        drop(writer);

        let restore = shard_stores(2);
        let (mut resumed, reports) =
            open_root(&crash_dir, &lake, &restore, &registry, traced()).unwrap();
        for (s, r) in reports.iter().enumerate() {
            assert_eq!(
                r.outputs_replayed, 0,
                "shard {s}: covered outputs must be skipped"
            );
            assert_eq!(r.outputs_skipped, r.checkpoint_applied);
        }
        assert_eq!(
            reports.iter().map(|r| r.outputs_skipped).sum::<u64>(),
            outs.len() as u64
        );
        for out in &outs {
            resumed.push(*out).unwrap();
        }
        resumed.finish(end).unwrap();
        assert_eq!(resumed.alarms(), ref_alarms);
        assert_eq!(resumed.scores(), ref_scores);
        assert_eq!(resumed.scored(), ref_scored);
        let _ = fs::remove_dir_all(&wal_dir);
        let _ = fs::remove_dir_all(&crash_dir);
    }

    #[test]
    fn corrupt_checkpoint_is_detected_not_restored() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let _ = setup(&lake);
        // A torn container, and a sealed container around a payload that
        // is not MFC1.
        for bytes in [
            b"MFD1\x01garbage-that-is-long-enough....".to_vec(),
            seal_mfd1(0, b"not a checkpoint"),
        ] {
            let dir = test_dir("badckpt");
            fs::create_dir_all(shard_dir(&dir, 0)).unwrap();
            fs::write(shard_dir(&dir, 0).join("checkpoint.bin"), bytes).unwrap();
            let one = shard_stores(1);
            let err = open_root(&dir, &lake, &one, &registry, DurableConfig::default())
                .expect_err("corrupt checkpoint must not restore");
            assert!(matches!(err, WalError::Checkpoint(_)), "got {err}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn sharded_durable_matches_the_sequential_oracle() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let end = SimTime::from_secs(40 * 86_400);
        let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, end);

        // Compaction off, and on with the default budget (it then runs
        // only at shutdown).
        let compacting = DurableConfig {
            batch: 7,
            record_scores: true,
            ..DurableConfig::default()
        };
        for (shards, cfg) in [1usize, 2, 4]
            .into_iter()
            .flat_map(|n| [(n, traced()), (n, compacting)])
        {
            let dir = test_dir("mfw2clean");
            let stores = shard_stores(shards);
            let (mut sd, reports) = open_root(&dir, &lake, &stores, &registry, cfg).unwrap();
            assert_eq!(reports.len(), shards);
            for r in &reports {
                assert_eq!(*r, RecoveryReport::default());
            }
            for out in &outs {
                sd.push(*out).unwrap();
            }
            sd.finish(end).unwrap();
            assert_eq!(sd.alarms(), ref_alarms, "{shards} shards, {cfg:?}: alarms");
            assert_eq!(sd.scores(), ref_scores, "{shards} shards, {cfg:?}: scores");
            assert_eq!(sd.scored(), ref_scored);
            assert_eq!(sd.consumed(), outs.len() as u64);
            // Every shard got its own directory with its own log.
            for s in 0..shards {
                assert!(shard_dir(&dir, s).join("wal.log").exists());
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn shards_cut_at_different_offsets_recover_independently() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let end = SimTime::from_secs(40 * 86_400);
        let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, end);
        let shards = 4usize;

        // Each sweep iteration tears every shard's WAL at a *different*
        // relative offset, then recovers the whole root by re-feeding
        // the canonical stream (covered outputs are skipped per shard).
        for cuts in [
            [0.0f64, 0.3, 0.7, 1.0],
            [0.95, 0.05, 0.5, 0.85],
            [1.0, 1.0, 0.01, 0.99],
        ] {
            let dir = test_dir("mfw2cut");
            let stores = shard_stores(shards);
            let (mut sd, _) = open_root(&dir, &lake, &stores, &registry, traced()).unwrap();
            for out in &outs {
                sd.push(*out).unwrap();
            }
            sd.flush().unwrap();
            drop(sd);

            for (s, frac) in cuts.iter().enumerate() {
                let path = shard_dir(&dir, s).join("wal.log");
                let image = fs::read(&path).unwrap();
                let keep = (image.len() as f64 * frac) as usize;
                fs::write(&path, &image[..keep]).unwrap();
            }

            let restore = shard_stores(shards);
            let (mut resumed, reports) =
                open_root(&dir, &lake, &restore, &registry, traced()).unwrap();
            let replayed: u64 = reports.iter().map(|r| r.outputs_replayed).sum();
            assert!(replayed <= outs.len() as u64);
            for out in &outs {
                resumed.push(*out).unwrap();
            }
            resumed.finish(end).unwrap();
            assert_eq!(resumed.alarms(), ref_alarms, "cuts {cuts:?}: alarms");
            assert_eq!(resumed.scores(), ref_scores, "cuts {cuts:?}: scores");
            assert_eq!(resumed.scored(), ref_scored, "cuts {cuts:?}: scored");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn single_shard_recovery_never_reads_sibling_files() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let shards = 2usize;

        let dir = test_dir("sibling");
        let stores = shard_stores(shards);
        let (mut sd, _) = open_root(&dir, &lake, &stores, &registry, traced()).unwrap();
        for out in &outs {
            sd.push(*out).unwrap();
        }
        sd.flush().unwrap();
        drop(sd);

        // Baseline: shard 0 recovered alone, before any sabotage.
        let probe = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut guard = apply_unguarded();
        let (unit, baseline) = DurableShard::open(
            shard_dir(&dir, 0),
            &lake,
            &probe,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            0,
            &mut guard,
        )
        .unwrap();
        let baseline_alarms = unit.alarms().to_vec();
        drop(unit);

        // Vandalize every sibling file: garbage WAL, garbage checkpoint,
        // garbage quarantine log.
        let sib = shard_dir(&dir, 1);
        fs::write(sib.join("wal.log"), b"NOT-A-WAL-AT-ALL................").unwrap();
        fs::write(sib.join("checkpoint.bin"), b"JUNKJUNKJUNKJUNKJUNK").unwrap();
        fs::write(sib.join("quarantine.log"), b"ALSO-GARBAGE").unwrap();

        let probe2 = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut guard2 = apply_unguarded();
        let (unit2, after) = DurableShard::open(
            shard_dir(&dir, 0),
            &lake,
            &probe2,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            0,
            &mut guard2,
        )
        .unwrap();
        assert_eq!(
            after, baseline,
            "sibling garbage must not change shard 0 recovery"
        );
        assert_eq!(unit2.alarms(), baseline_alarms);
        drop(unit2);

        // Sanity: the sabotage IS visible to anyone who actually reads
        // shard 1 — proving shard 0's immunity is isolation, not luck.
        let probe3 = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut guard3 = apply_unguarded();
        let err = DurableShard::open(
            shard_dir(&dir, 1),
            &lake,
            &probe3,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            1,
            &mut guard3,
        )
        .expect_err("vandalized shard 1 must fail to open");
        assert!(
            matches!(err, WalError::BadHeader | WalError::Checkpoint(_)),
            "got {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_file_mismatch_and_corruption_are_typed_errors() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let _ = setup(&lake);
        let dir = test_dir("meta");
        let two = shard_stores(2);
        let (sd, _) = open_root(&dir, &lake, &two, &registry, traced()).unwrap();
        assert_eq!(sd.shard_count(), 2);
        drop(sd);

        // Reopening with a different shard count is a typed refusal, not
        // silent re-partitioning (per-shard seqs would be garbage).
        let three = shard_stores(3);
        let err = open_root(&dir, &lake, &three, &registry, traced())
            .expect_err("shard-count mismatch must not open");
        assert!(
            matches!(
                err,
                WalError::ShardCountMismatch {
                    captured: 2,
                    stores: 3
                }
            ),
            "got {err}"
        );

        // A corrupt meta file is corrupt data, not a panic.
        fs::write(dir.join("meta.bin"), b"MFW2junk.....").unwrap();
        let err = open_root(&dir, &lake, &two, &registry, traced())
            .expect_err("corrupt meta must not open");
        assert!(matches!(err, WalError::BadMeta(_)), "got {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_compacts_at_shutdown_so_a_kill_after_it_loses_nothing() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let end = SimTime::from_secs(40 * 86_400);
        let (ref_alarms, _, ref_scored) = oracle(&lake, &registry, &outs, end);

        let dir = test_dir("shutdown");
        let live = shard_stores(2);
        let cfg = DurableConfig {
            batch: 4,
            compact_every: 64, // would never trigger mid-stream here
            fsync: true,
            ..DurableConfig::default()
        };
        let (mut durable, _) = open_root(&dir, &lake, &live, &registry, cfg).unwrap();
        for out in &outs {
            durable.push(*out).unwrap();
        }
        durable.finish(end).unwrap();
        drop(durable);

        // Kill-at-shutdown: the process dies right after finish returns.
        // The shutdown compaction must have folded EVERYTHING into the
        // shard checkpoints — reopen restores them with zero replay work.
        let restore = shard_stores(2);
        let (mut resumed, reports) = open_root(&dir, &lake, &restore, &registry, cfg).unwrap();
        assert_eq!(
            reports.iter().map(|r| r.checkpoint_applied).sum::<u64>(),
            outs.len() as u64,
            "all outputs checkpointed"
        );
        for r in &reports {
            assert_eq!(r.wal_records, 0, "WAL reset at shutdown");
            assert_eq!(r.outputs_replayed, 0);
        }
        for out in &outs {
            resumed.push(*out).unwrap();
        }
        resumed.finish(end).unwrap();
        assert_eq!(resumed.alarms(), ref_alarms);
        assert_eq!(resumed.scored(), ref_scored);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_log_roundtrips_and_recovery_skips_listed_outputs() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let end = SimTime::from_secs(40 * 86_400);

        let dir = test_dir("quarantine");
        let sdir = shard_dir(&dir, 0);
        fs::create_dir_all(&sdir).unwrap();
        assert!(
            scan_quarantine(&sdir).unwrap().is_empty(),
            "absent log is empty"
        );

        // Round-trip an event output and a gap output through the log.
        quarantine_output(&sdir, 3, &outs[3]).unwrap();
        quarantine_output(&sdir, 40, &outs[40]).unwrap(); // the gap
        let q = scan_quarantine(&sdir).unwrap();
        assert_eq!(q.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 40]);
        match (&q[0].payload, &outs[3]) {
            (WalPayload::Events(es), IngestOutput::Released(e)) => assert_eq!(es[..], [*e]),
            other => panic!("wrong quarantine payload: {other:?}"),
        }
        match (&q[1].payload, &outs[40]) {
            (WalPayload::Gap(g), IngestOutput::Gap(want)) => assert_eq!(g, want),
            other => panic!("wrong quarantine payload: {other:?}"),
        }

        // A shard opened over that quarantine set consumes the full
        // stream but applies the filtered one.
        let filtered: Vec<IngestOutput> = outs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3 && *i != 40)
            .map(|(_, o)| *o)
            .collect();
        let (ref_alarms, _, ref_scored) = oracle(&lake, &registry, &filtered, end);

        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut guard = apply_unguarded();
        let (mut unit, report) = DurableShard::open(
            &sdir,
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            0,
            &mut guard,
        )
        .unwrap();
        assert_eq!(report.outputs_quarantined, 0, "nothing in the WAL yet");
        for out in &outs {
            unit.push(*out, &mut guard).unwrap();
        }
        assert_eq!(unit.finish(end, &mut guard).unwrap(), FlushStatus::Clean);
        assert_eq!(
            unit.consumed(),
            outs.len() as u64,
            "quarantined outputs still consume"
        );
        assert_eq!(
            unit.alarms(),
            ref_alarms,
            "state equals the filtered oracle"
        );
        assert_eq!(unit.scored(), ref_scored);
        let _ = fs::remove_dir_all(&dir);
    }
}
