//! Process-isolated shard serving: OS-process workers, a crc32-framed
//! IPC scoring plane, and a supervisor that survives `SIGKILL`.
//!
//! [`crate::supervise`] made shards restartable, but every unit still
//! lives in the supervisor's address space — a real segfault, OOM kill
//! or runaway loop takes the whole engine down. This module moves each
//! [`crate::wal::DurableShard`] into its own **OS process**: a worker is
//! a re-exec of the current binary in a hidden `--shard-worker` mode,
//! speaking length-prefixed `MFP1` frames over its stdin/stdout pipes.
//! Ingest batches flow down; progress heartbeats, crash notices and the
//! final alarm/score report flow up.
//!
//! # Protocol
//!
//! A stream opens with a 5-byte header (`MFP1` magic + version), then
//! carries frames laid out exactly like `MFW1` WAL records:
//!
//! ```text
//! kind: u8 | seq: u64 BE | len: u32 BE | payload | crc32 BE
//! ```
//!
//! The crc covers everything before it. [`scan_frames`] is a prefix
//! decoder with the same torn-tail semantics as [`crate::wal::scan`],
//! and [`FrameReader`] incrementalizes it over a byte stream, skipping
//! any pre-header garbage (a test-harness banner, say) before locking
//! onto the magic. `Outputs` payloads *are* WAL record bytes — the
//! worker's log and the wire share one codec.
//!
//! # Supervision
//!
//! [`ProcSupervisor`] is the process host of the one supervision state
//! machine, `crate::supervise::supervise`: the machine owns logical
//! time, backoff, the restart budget, poison and quarantine; this host
//! spawns workers, feeds them acked frames and captures their exit
//! status and death signal. A worker that misses an ack deadline or is
//! injected with a hang gets `SIGKILL`ed. Acked frames are durable — the
//! worker flushes its WAL before answering `Progress` — so a
//! `SIGKILL`ed worker replays only its own `MFW2` log and resumes
//! bit-identically; the machine re-feeds the unacked suffix from its
//! routed backlog. A shard past its restart budget degrades instead of
//! wedging the merge: its DIMMs report
//! [`crate::serve::ServeError::ShardUnavailable`] via
//! [`crate::supervise::SupervisedOutcome::dimm_status`].

use crate::codec::{
    frame, frame_len, header, put_alarm, put_dimm, put_f32, put_online, put_platform, put_score,
    put_spec, put_time, put_u16, put_u32, put_u64, read_frame, scan_prefix, CodecError, Reader,
    FRAME_HEADER_LEN, HEADER_LEN,
};
use crate::feature_store::FeatureStore;
use crate::ingest::IngestOutput;
use crate::lake::DataLake;
use crate::online::{Alarm, OnlineConfig, ScoreRecord};
use crate::registry::ModelRegistry;
use crate::supervise::{
    poison_guard, push_outputs, silence_chaos_panics, supervise, ChaosPlan, ShardHost, ShardRun,
    Started, Step, Stop, SuperviseConfig, SupervisedOutcome,
};
use crate::wal::{
    batch_outputs, check_meta, decode_record, encode_record, expand_record, shard_dir,
    DurableConfig, DurableShard, FlushStatus, WalError, WalRecord,
};
use mfp_dram::address::DimmId;
use mfp_dram::geometry::Platform;
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use mfp_ml::metrics::{Confusion, Evaluation};
use mfp_ml::model::{Algorithm, Model};
use mfp_ml::risky_ce::{RiskyCeParams, RiskyCePattern};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Magic opening every IPC stream.
pub const IPC_MAGIC: [u8; 4] = *b"MFP1";

/// Protocol version carried in the stream header.
pub const IPC_VERSION: u8 = 1;

/// Environment variable that switches a re-exec'd binary into worker
/// mode (set by `WorkerCommand::spawn`, checked by `src/main.rs` and
/// the test-harness entry).
pub const WORKER_ENV: &str = "MFP_SHARD_WORKER";

/// Upper bound on a whole frame (header, payload of at most 2^28 bytes,
/// crc); a length field above this is treated as corruption rather than
/// an allocation request.
const MAX_FRAME_LEN: usize = FRAME_HEADER_LEN + (1 << 28) + 4;

// Frame kinds, router → worker.
const K_INIT: u8 = 1;
const K_OUTPUTS: u8 = 2;
const K_POISON: u8 = 3;
const K_HANG: u8 = 4;
const K_FINISH: u8 = 5;
const K_EXIT: u8 = 6;
// Frame kinds, worker → router.
const K_HELLO: u8 = 17;
const K_PROGRESS: u8 = 18;
const K_CRASHED: u8 = 19;
const K_REPORT: u8 = 20;

/// Everything that can go wrong on the process-serving plane.
#[derive(Debug)]
pub enum ProcError {
    /// A real I/O failure on a pipe, the WAL root, or process spawn.
    Io(std::io::Error),
    /// A WAL-layer failure surfaced through a worker or quarantine.
    Wal(WalError),
    /// The stream never presented the `MFP1` magic.
    BadHeader,
    /// A frame failed its crc or carried an insane length.
    CorruptFrame,
    /// A structurally valid frame that violates the protocol (unknown
    /// kind, short payload, unexpected message for the state).
    Protocol(&'static str),
    /// A [`WorkerSpec`] field failed to decode.
    Spec(&'static str),
    /// The spec named a model kind this build cannot reconstruct.
    UnsupportedModel(u8),
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Io(e) => write!(f, "ipc i/o error: {e}"),
            ProcError::Wal(e) => write!(f, "wal error: {e}"),
            ProcError::BadHeader => write!(f, "ipc stream does not start with the MFP1 header"),
            ProcError::CorruptFrame => write!(f, "ipc frame failed crc or length validation"),
            ProcError::Protocol(what) => write!(f, "ipc protocol violation: {what}"),
            ProcError::Spec(what) => write!(f, "malformed worker spec: {what}"),
            ProcError::UnsupportedModel(k) => write!(f, "unsupported model kind {k} in spec"),
        }
    }
}

impl std::error::Error for ProcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProcError::Io(e) => Some(e),
            ProcError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProcError {
    fn from(e: std::io::Error) -> Self {
        ProcError::Io(e)
    }
}

impl From<WalError> for ProcError {
    fn from(e: WalError) -> Self {
        ProcError::Wal(e)
    }
}

/// A payload the codec refuses breaks the protocol; a bad enum code is a
/// malformed spec field.
impl From<CodecError> for ProcError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadCode { what, .. } => ProcError::Spec(what),
            CodecError::Trailing => ProcError::Protocol("trailing bytes after payload"),
            _ => ProcError::Protocol("payload shorter than declared"),
        }
    }
}

/// The 5-byte stream opener every side writes before its first frame.
pub fn stream_header() -> [u8; HEADER_LEN] {
    header(IPC_MAGIC, IPC_VERSION)
}

/// One decoded `MFP1` frame, kind-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Message kind (`K_*`).
    pub kind: u8,
    /// Sequence/primary field; meaning depends on the kind.
    pub seq: u64,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

/// Encodes one frame: the `MFW1` record layout with an arbitrary kind.
pub fn encode_frame(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    frame(kind, seq, payload)
}

/// Decodes one frame from exactly `data`: `None` on any length or crc
/// mismatch, or a frame longer than [`MAX_FRAME_LEN`].
pub(crate) fn decode_frame(data: &[u8]) -> Option<RawFrame> {
    let (f, len) = read_frame(data)?;
    (len <= MAX_FRAME_LEN && len == data.len()).then(|| RawFrame {
        kind: f.kind,
        seq: f.seq,
        payload: f.payload.to_vec(),
    })
}

/// What a [`scan_frames`] pass found in a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// Frames decoded from the longest valid prefix.
    pub frames: Vec<RawFrame>,
    /// Bytes covered by the header plus every decoded frame.
    pub valid_bytes: u64,
    /// Trailing bytes past the valid prefix (torn or corrupt).
    pub torn_bytes: u64,
}

/// Prefix-decodes a complete buffered stream, mirroring
/// [`crate::wal::scan`]: a valid prefix of the header is a torn-empty
/// stream, any other opening is [`ProcError::BadHeader`], and the first
/// undecodable frame ends the valid prefix — everything after it counts
/// as torn, never as a misparsed frame.
pub fn scan_frames(data: &[u8]) -> Result<FrameScan, ProcError> {
    let prefix = scan_prefix(data, stream_header(), |rest| {
        let len = frame_len(rest)?;
        Some((decode_frame(rest.get(..len)?)?, len))
    })
    .ok_or(ProcError::BadHeader)?;
    Ok(FrameScan {
        frames: prefix.items,
        valid_bytes: prefix.valid_bytes,
        torn_bytes: prefix.torn_bytes,
    })
}

/// One step of incremental frame decoding.
#[derive(Debug)]
pub enum FrameStep {
    /// A complete, crc-valid frame.
    Frame(RawFrame),
    /// The buffer holds at most a frame prefix; feed more bytes.
    NeedMore,
    /// The stream is unrecoverable: a complete frame failed its crc or
    /// declared an insane length. The peer must be restarted.
    Corrupt,
}

/// Incremental `MFP1` decoder over a byte stream. Before locking onto
/// the stream header it discards leading garbage (pipes inherited from
/// a test harness may carry a banner before the worker writes its
/// header); after lock-on, framing errors are terminal.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    locked: bool,
}

impl FrameReader {
    /// An empty reader, not yet locked onto a header.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes read off the pipe.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Tries to produce the next frame from buffered bytes.
    pub fn next_step(&mut self) -> FrameStep {
        if !self.locked {
            let header = stream_header();
            match self.buf.windows(HEADER_LEN).position(|w| w == header) {
                Some(i) => {
                    self.buf.drain(..i + HEADER_LEN);
                    self.locked = true;
                }
                None => {
                    // Keep a possible partial header at the tail.
                    let keep = self.buf.len().min(HEADER_LEN - 1);
                    self.buf.drain(..self.buf.len() - keep);
                    return FrameStep::NeedMore;
                }
            }
        }
        let Some(total) = frame_len(&self.buf) else {
            return FrameStep::NeedMore;
        };
        if total > MAX_FRAME_LEN {
            return FrameStep::Corrupt;
        }
        if self.buf.len() < total {
            return FrameStep::NeedMore;
        }
        match decode_frame(&self.buf[..total]) {
            Some(f) => {
                self.buf.drain(..total);
                FrameStep::Frame(f)
            }
            None => FrameStep::Corrupt,
        }
    }
}

/// The model a worker must reconstruct before serving. Only the
/// dependency-free rule model crosses the wire today — tree ensembles
/// would ship as registry references, not inline weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSpec {
    /// The paper's risky-CE pattern rule with its decision threshold.
    RiskyCe {
        /// Rule parameters.
        params: RiskyCeParams,
        /// Promotion/decision threshold.
        threshold: f32,
    },
}

impl ModelSpec {
    /// The default rule model at threshold 0.5.
    pub fn default_risky_ce() -> Self {
        ModelSpec::RiskyCe {
            params: RiskyCeParams::default(),
            threshold: 0.5,
        }
    }

    /// A registry serving this model: registered on `platform` at the
    /// spec's threshold and promoted. Every worker builds its registry
    /// here, so an in-process run that must score like the workers builds
    /// it here too.
    pub fn registry(&self, platform: Platform) -> ModelRegistry {
        let ModelSpec::RiskyCe { params, threshold } = *self;
        let registry = ModelRegistry::new();
        let eval = Evaluation::from_confusion(
            Confusion {
                tp: 1,
                fp: 0,
                fn_: 0,
                tn: 1,
            },
            threshold,
        );
        let id = registry.register(
            Algorithm::RiskyCePattern,
            platform,
            SimTime::ZERO,
            eval,
            threshold,
            Model::RiskyCe(RiskyCePattern::new(params)),
        );
        registry.promote(id);
        registry
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            ModelSpec::RiskyCe { params, threshold } => {
                buf.push(1);
                put_f32(buf, params.min_complex);
                buf.push(params.require_interval4 as u8);
                put_f32(buf, params.min_rows);
                put_f32(buf, *threshold);
            }
        }
    }

    fn decode_from(cur: &mut Reader<'_>) -> Result<Self, ProcError> {
        match cur.u8()? {
            1 => Ok(ModelSpec::RiskyCe {
                params: RiskyCeParams {
                    min_complex: cur.f32()?,
                    require_interval4: cur.u8()? != 0,
                    min_rows: cur.f32()?,
                },
                threshold: cur.f32()?,
            }),
            k => Err(ProcError::UnsupportedModel(k)),
        }
    }
}

/// Everything a worker needs to rebuild its serving world from scratch:
/// shard identity and WAL root, platform, engine and durability knobs,
/// feature-problem geometry, the inline model, the DIMM catalog, and
/// the currently armed poison table.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// This worker's shard index.
    pub shard: usize,
    /// The shard's WAL/checkpoint directory.
    pub dir: PathBuf,
    /// Platform whose promoted model serves.
    pub platform: Platform,
    /// Online-engine knobs.
    pub online: OnlineConfig,
    /// Durability knobs.
    pub durable: DurableConfig,
    /// Labeling/problem windows for the feature store.
    pub problem: ProblemConfig,
    /// Fault-analysis thresholds for the feature store.
    pub thresholds: FaultThresholds,
    /// The model to register and promote.
    pub model: ModelSpec,
    /// Full DIMM catalog (the routing hash picks this shard's subset).
    pub catalog: Vec<(DimmId, DimmSpec)>,
    /// Armed poison: `(per-shard seq, remaining fails)`, `u32::MAX`
    /// meaning permanent.
    pub poison: Vec<(u64, u32)>,
}

impl WorkerSpec {
    fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), ProcError> {
        put_u32(buf, self.shard as u32);
        let dir = self
            .dir
            .to_str()
            .ok_or(ProcError::Spec("non-utf8 shard dir"))?;
        put_u16(buf, dir.len() as u16);
        buf.extend_from_slice(dir.as_bytes());
        put_platform(buf, self.platform);
        put_online(buf, &self.online);
        put_u64(buf, self.durable.batch as u64);
        put_u64(buf, self.durable.compact_every);
        buf.push(self.durable.fsync as u8);
        buf.push(self.durable.record_scores as u8);
        for d in [
            self.problem.observation,
            self.problem.lead,
            self.problem.prediction,
            self.problem.sample_interval,
        ] {
            put_u64(buf, d.as_secs());
        }
        for t in [
            self.thresholds.cell_repeats,
            self.thresholds.row_distinct_cols,
            self.thresholds.col_distinct_rows,
            self.thresholds.bank_distinct,
        ] {
            put_u32(buf, t);
        }
        self.model.encode_into(buf);
        put_u32(buf, self.catalog.len() as u32);
        for (id, spec) in &self.catalog {
            put_dimm(buf, *id);
            put_spec(buf, spec);
        }
        put_u32(buf, self.poison.len() as u32);
        for &(seq, fails) in &self.poison {
            put_u64(buf, seq);
            put_u32(buf, fails);
        }
        Ok(())
    }

    fn decode_from(cur: &mut Reader<'_>) -> Result<Self, ProcError> {
        let shard = cur.u32()? as usize;
        let dlen = cur.u16()? as usize;
        let dir = std::str::from_utf8(cur.take(dlen)?)
            .map_err(|_| ProcError::Spec("non-utf8 shard dir"))?;
        let platform = cur.platform()?;
        let online = cur.online()?;
        let durable = DurableConfig {
            batch: cur.u64()? as usize,
            compact_every: cur.u64()?,
            fsync: cur.u8()? != 0,
            record_scores: cur.u8()? != 0,
        };
        let problem = ProblemConfig {
            observation: SimDuration::secs(cur.u64()?),
            lead: SimDuration::secs(cur.u64()?),
            prediction: SimDuration::secs(cur.u64()?),
            sample_interval: SimDuration::secs(cur.u64()?),
        };
        let thresholds = FaultThresholds {
            cell_repeats: cur.u32()?,
            row_distinct_cols: cur.u32()?,
            col_distinct_rows: cur.u32()?,
            bank_distinct: cur.u32()?,
        };
        let model = ModelSpec::decode_from(cur)?;
        let n_dimms = cur.count_u32()?;
        let mut catalog = Vec::with_capacity(n_dimms);
        for _ in 0..n_dimms {
            catalog.push((cur.dimm()?, cur.spec()?));
        }
        let n_poison = cur.count_u32()?;
        let mut poison = Vec::with_capacity(n_poison);
        for _ in 0..n_poison {
            poison.push((cur.u64()?, cur.u32()?));
        }
        Ok(WorkerSpec {
            shard,
            dir: PathBuf::from(dir),
            platform,
            online,
            durable,
            problem,
            thresholds,
            model,
            catalog,
            poison,
        })
    }
}

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Router → worker: rebuild the world and recover the shard.
    Init(WorkerSpec),
    /// Router → worker: a batch of routed outputs as WAL record bytes;
    /// the worker must flush before acking.
    Outputs {
        /// Records covering a contiguous per-shard sequence range.
        records: Vec<WalRecord>,
    },
    /// Router → worker: (re)arm the poison table at one sequence.
    Poison {
        /// Per-shard sequence the poison binds to.
        seq: u64,
        /// Remaining fails (`u32::MAX` = permanent).
        fails: u32,
    },
    /// Router → worker: chaos injection — stop making progress.
    Hang,
    /// Router → worker: run the final prediction ticks up to `until`
    /// and answer with a [`Msg::Report`].
    Finish {
        /// End of simulated time.
        until: SimTime,
    },
    /// Router → worker: exit cleanly.
    Exit,
    /// Worker → router: recovery done; resume feeding from `fed`.
    Hello {
        /// Outputs already durable+pending after recovery.
        fed: u64,
        /// Outputs re-applied from the WAL during recovery.
        replayed: u64,
        /// Quarantined sequences loaded from the side log.
        quarantined: u64,
    },
    /// Worker → router: batch acked, WAL flushed (the heartbeat).
    Progress {
        /// Outputs consumed (applied or skipped).
        consumed: u64,
        /// Outputs durable in the WAL.
        durable: u64,
    },
    /// Worker → router: the apply at `seq` crashed; the worker exits
    /// after sending this.
    Crashed {
        /// Per-shard sequence of the crashing output.
        seq: u64,
    },
    /// Worker → router: final merged output of this shard.
    Report {
        /// Alarms raised by this shard.
        alarms: Vec<Alarm>,
        /// Score trace (empty unless score recording is on).
        scores: Vec<ScoreRecord>,
        /// Model invocations.
        scored: u64,
    },
}

impl Msg {
    /// Encodes the message as one complete frame.
    pub fn encode(&self) -> Result<Vec<u8>, ProcError> {
        let mut p = Vec::new();
        let (kind, seq) = match self {
            Msg::Init(spec) => {
                spec.encode_into(&mut p)?;
                (K_INIT, spec.shard as u64)
            }
            Msg::Outputs { records } => {
                for r in records {
                    p.extend_from_slice(&encode_record(r));
                }
                (K_OUTPUTS, records.first().map_or(0, |r| r.seq))
            }
            Msg::Poison { seq, fails } => {
                put_u32(&mut p, *fails);
                (K_POISON, *seq)
            }
            Msg::Hang => (K_HANG, 0),
            Msg::Finish { until } => {
                put_time(&mut p, *until);
                (K_FINISH, 0)
            }
            Msg::Exit => (K_EXIT, 0),
            Msg::Hello {
                fed,
                replayed,
                quarantined,
            } => {
                put_u64(&mut p, *replayed);
                put_u64(&mut p, *quarantined);
                (K_HELLO, *fed)
            }
            Msg::Progress { consumed, durable } => {
                put_u64(&mut p, *durable);
                (K_PROGRESS, *consumed)
            }
            Msg::Crashed { seq } => (K_CRASHED, *seq),
            Msg::Report {
                alarms,
                scores,
                scored,
            } => {
                p.reserve(8 + alarms.len() * 17 + scores.len() * 17);
                put_u32(&mut p, alarms.len() as u32);
                for a in alarms {
                    put_alarm(&mut p, a);
                }
                put_u32(&mut p, scores.len() as u32);
                for r in scores {
                    put_score(&mut p, r);
                }
                (K_REPORT, *scored)
            }
        };
        Ok(encode_frame(kind, seq, &p))
    }

    /// Parses one decoded frame into a message.
    pub fn parse(frame: &RawFrame) -> Result<Msg, ProcError> {
        let mut cur = Reader::new(&frame.payload);
        let msg = match frame.kind {
            K_INIT => Msg::Init(WorkerSpec::decode_from(&mut cur)?),
            K_OUTPUTS => {
                let mut records = Vec::new();
                let mut rest: &[u8] = &frame.payload;
                while !rest.is_empty() {
                    let (rec, len) = decode_record(rest).ok_or(ProcError::Protocol(
                        "truncated or undecodable wal record in outputs",
                    ))?;
                    records.push(rec);
                    rest = &rest[len..];
                }
                return Ok(Msg::Outputs { records });
            }
            K_POISON => Msg::Poison {
                seq: frame.seq,
                fails: cur.u32()?,
            },
            K_HANG => Msg::Hang,
            K_FINISH => Msg::Finish { until: cur.time()? },
            K_EXIT => Msg::Exit,
            K_HELLO => Msg::Hello {
                fed: frame.seq,
                replayed: cur.u64()?,
                quarantined: cur.u64()?,
            },
            K_PROGRESS => Msg::Progress {
                consumed: frame.seq,
                durable: cur.u64()?,
            },
            K_CRASHED => Msg::Crashed { seq: frame.seq },
            K_REPORT => {
                let n_alarms = cur.count_u32()?;
                let mut alarms = Vec::with_capacity(n_alarms);
                for _ in 0..n_alarms {
                    alarms.push(cur.alarm()?);
                }
                let n_scores = cur.count_u32()?;
                let mut scores = Vec::with_capacity(n_scores);
                for _ in 0..n_scores {
                    scores.push(cur.score()?);
                }
                Msg::Report {
                    alarms,
                    scores,
                    scored: frame.seq,
                }
            }
            _ => return Err(ProcError::Protocol("unknown frame kind")),
        };
        cur.done()?;
        Ok(msg)
    }
}

/// Reads frames off `input` until one full message (or EOF) arrives.
/// EOF mid-frame is reported as end-of-stream: the router is gone and
/// the worker's only move is a clean exit.
fn read_msg(reader: &mut FrameReader, input: &mut impl Read) -> Result<Option<Msg>, ProcError> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match reader.next_step() {
            FrameStep::Frame(f) => return Msg::parse(&f).map(Some),
            FrameStep::Corrupt => return Err(ProcError::CorruptFrame),
            FrameStep::NeedMore => {
                let n = input.read(&mut chunk)?;
                if n == 0 {
                    return Ok(None);
                }
                reader.push(&chunk[..n]);
            }
        }
    }
}

/// Writes one message as a frame and flushes the pipe.
fn write_msg(w: &mut impl Write, msg: &Msg) -> Result<(), ProcError> {
    w.write_all(&msg.encode()?)?;
    w.flush()?;
    Ok(())
}

/// Entry point of `--shard-worker` mode: runs the worker protocol over
/// stdin/stdout and returns the process exit code. Exit code 0 covers
/// both clean shutdown and a reported crash (the supervisor learned the
/// sequence from the `Crashed` frame); code 3 is a real failure.
pub fn shard_worker_main() -> i32 {
    silence_chaos_panics();
    match worker_run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("shard worker failed: {e}");
            3
        }
    }
}

fn worker_run() -> Result<i32, ProcError> {
    let mut input = std::io::stdin().lock();
    // Direct handle, not the `print!` capture shim: under a test
    // harness the frames must reach the real pipe.
    let mut output = std::io::stdout().lock();
    output.write_all(&stream_header())?;
    output.flush()?;
    let mut reader = FrameReader::new();

    let spec = match read_msg(&mut reader, &mut input)? {
        None => return Ok(0),
        Some(Msg::Init(spec)) => spec,
        Some(_) => return Err(ProcError::Protocol("expected Init as the first frame")),
    };

    // Rebuild the serving world from the spec. Workers are ephemeral:
    // everything long-lived is on disk under `spec.dir`.
    let lake = DataLake::new();
    for (id, dimm_spec) in &spec.catalog {
        lake.register_dimm(*id, spec.platform, *dimm_spec);
    }
    let store = FeatureStore::new(spec.problem, spec.thresholds);
    let registry = spec.model.registry(spec.platform);
    let mut poison: BTreeMap<u64, u32> = spec.poison.iter().copied().collect();

    let (mut unit, recovery) = {
        let mut guard = poison_guard(&mut poison);
        DurableShard::open(
            &spec.dir,
            &lake,
            &store,
            &registry,
            spec.platform,
            spec.online,
            spec.durable,
            spec.shard,
            &mut guard,
        )?
    };
    if let Some(seq) = recovery.replay_crashed {
        write_msg(&mut output, &Msg::Crashed { seq })?;
        return Ok(0);
    }
    write_msg(
        &mut output,
        &Msg::Hello {
            fed: unit.fed(),
            replayed: recovery.outputs_replayed,
            quarantined: unit.quarantined().len() as u64,
        },
    )?;

    loop {
        let msg = match read_msg(&mut reader, &mut input)? {
            Some(m) => m,
            None => return Ok(0),
        };
        match msg {
            Msg::Outputs { records } => {
                let pairs = records.iter().flat_map(expand_record);
                let crashed = match push_outputs(&mut unit, &mut poison, pairs)? {
                    // Ack ⇒ durable: everything in this frame hits the
                    // WAL before Progress goes out.
                    None => match unit.flush(&mut poison_guard(&mut poison))? {
                        FlushStatus::Crashed { seq } => Some(seq),
                        FlushStatus::Clean => None,
                    },
                    crashed => crashed,
                };
                match crashed {
                    Some(seq) => {
                        write_msg(&mut output, &Msg::Crashed { seq })?;
                        return Ok(0);
                    }
                    None => write_msg(
                        &mut output,
                        &Msg::Progress {
                            consumed: unit.consumed(),
                            durable: unit.durable(),
                        },
                    )?,
                }
            }
            Msg::Poison { seq, fails } => {
                // The supervisor sends absolute remaining-fail counts
                // from its master table; set, don't accumulate.
                poison.insert(seq, fails);
            }
            Msg::Hang => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            Msg::Finish { until } => {
                let status = {
                    let mut guard = poison_guard(&mut poison);
                    unit.finish(until, &mut guard)?
                };
                match status {
                    FlushStatus::Crashed { seq } => {
                        write_msg(&mut output, &Msg::Crashed { seq })?;
                        return Ok(0);
                    }
                    FlushStatus::Clean => write_msg(
                        &mut output,
                        &Msg::Report {
                            alarms: unit.alarms().to_vec(),
                            scores: unit.score_trace().to_vec(),
                            scored: unit.scored(),
                        },
                    )?,
                }
            }
            Msg::Exit => return Ok(0),
            _ => return Err(ProcError::Protocol("unexpected message in worker loop")),
        }
    }
}

/// How to launch a worker process.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Binary to execute.
    pub program: PathBuf,
    /// Arguments selecting worker mode in that binary.
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// Re-exec the current binary with the hidden `--shard-worker`
    /// flag — the production shape, served by `src/main.rs`.
    pub fn current_exe() -> std::io::Result<Self> {
        Ok(WorkerCommand {
            program: std::env::current_exe()?,
            args: vec!["--shard-worker".to_string()],
        })
    }

    /// Re-exec the current *test harness*, filtered down to an
    /// env-gated entry test (see `ipc_worker_entry`): lets integration
    /// tests spawn real worker processes without a separate binary. The
    /// filter is a substring match so it survives module-path changes
    /// between harnesses.
    pub fn test_harness(filter: &str) -> std::io::Result<Self> {
        Ok(WorkerCommand {
            program: std::env::current_exe()?,
            args: vec![filter.to_string(), "--test-threads=1".to_string()],
        })
    }

    /// Spawns one worker with piped stdin/stdout and the worker-mode
    /// environment set.
    fn spawn(&self) -> std::io::Result<Child> {
        Command::new(&self.program)
            .args(&self.args)
            .env(WORKER_ENV, "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
    }
}

/// Process-host policy: the shared [`SuperviseConfig`] plus the two
/// knobs of the pipe. Logical time ticks once per canonical output; the
/// one wall-clock knob is the ack deadline, which only fires when a
/// worker is truly wedged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcConfig {
    /// Restart, backoff, hang and quarantine policy.
    pub supervise: SuperviseConfig,
    /// Outputs per `Outputs` frame (and per ack round-trip).
    pub batch: usize,
    /// Wall-clock ack deadline per frame, in milliseconds.
    pub ack_timeout_ms: u64,
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            supervise: SuperviseConfig::default(),
            batch: 16,
            ack_timeout_ms: 30_000,
        }
    }
}

/// A live worker process plus its pipes and reader thread.
pub(crate) struct WorkerHandle {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<Result<Msg, ProcError>>,
    reader: JoinHandle<()>,
}

impl WorkerHandle {
    /// Closes the worker's pipe, reaps it and joins its reader; `kill`
    /// sends `SIGKILL` first. Returns whether it died by `SIGKILL`.
    ///
    /// The kill goes before the pipe closes: a live worker blocked on
    /// the pipe must die by signal, not slip out through EOF first — the
    /// `SIGKILL` count is part of the deterministic report. A worker that
    /// announced its own exit (it sent `Crashed` or was told to `Exit`)
    /// is only waited for, so its voluntary exit status is what counts.
    fn reap(self, kill: bool) -> bool {
        let WorkerHandle {
            mut child,
            stdin,
            rx,
            reader,
        } = self;
        if kill {
            let _ = child.kill();
        }
        drop(stdin);
        let status = child.wait();
        drop(rx);
        let _ = reader.join();
        #[cfg(unix)]
        let sigkilled = {
            use std::os::unix::process::ExitStatusExt;
            status.is_ok_and(|s| s.signal() == Some(9))
        };
        #[cfg(not(unix))]
        let sigkilled = {
            let _ = status;
            false
        };
        sigkilled
    }
}

/// A worker that died or stopped answering mid-conversation.
const DIED: Stop = Stop::Died { hung: false };

/// Drains a worker's stdout on a thread, decoding frames into messages.
/// Channel disconnect doubles as the death signal. The thread records
/// its frame counters where the spawner does ([`mfp_obs::current`]).
fn spawn_reader(mut stdout: ChildStdout) -> (Receiver<Result<Msg, ProcError>>, JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let telemetry = mfp_obs::current();
    let handle = std::thread::spawn(move || {
        mfp_obs::with_registry(&telemetry, || {
            let mut reader = FrameReader::new();
            let mut chunk = [0u8; 16 * 1024];
            loop {
                loop {
                    match reader.next_step() {
                        FrameStep::Frame(f) => {
                            mfp_obs::counter("ipc_frames", &[("dir", "up")]).incr();
                            match Msg::parse(&f) {
                                Ok(m) => {
                                    if tx.send(Ok(m)).is_err() {
                                        return;
                                    }
                                }
                                Err(e) => {
                                    let _ = tx.send(Err(e));
                                    return;
                                }
                            }
                        }
                        FrameStep::Corrupt => {
                            mfp_obs::counter("ipc_crc_errors", &[]).incr();
                            let _ = tx.send(Err(ProcError::CorruptFrame));
                            return;
                        }
                        FrameStep::NeedMore => break,
                    }
                }
                match stdout.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => reader.push(&chunk[..n]),
                }
            }
        })
    });
    (rx, handle)
}

/// Runs one worker process per shard over a canonical output stream:
/// the process host of `crate::supervise::supervise`. `Kill` becomes
/// a real `SIGKILL` (plus a torn WAL tail), `Hang` wedges the worker
/// until the heartbeat deadline kills it, and `Panic`/`Poison` arm the
/// worker's apply guard over the wire.
pub struct ProcSupervisor {
    dir: PathBuf,
    command: WorkerCommand,
    shards: usize,
    platform: Platform,
    online: OnlineConfig,
    durable: DurableConfig,
    problem: ProblemConfig,
    thresholds: FaultThresholds,
    model: ModelSpec,
    catalog: Vec<(DimmId, DimmSpec)>,
    cfg: ProcConfig,
}

impl ProcSupervisor {
    /// Binds a supervisor to an `MFW2` root (created if absent) with
    /// `shards` worker processes launched via `command`.
    ///
    /// # Errors
    ///
    /// I/O failures, a root whose meta file disagrees with `shards`, or
    /// [`WalError::ZeroShards`] when `shards` is 0.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dir: impl Into<PathBuf>,
        command: WorkerCommand,
        shards: usize,
        platform: Platform,
        online: OnlineConfig,
        durable: DurableConfig,
        problem: ProblemConfig,
        thresholds: FaultThresholds,
        model: ModelSpec,
        catalog: Vec<(DimmId, DimmSpec)>,
        cfg: ProcConfig,
    ) -> Result<Self, ProcError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        check_meta(&dir, shards)?;
        silence_chaos_panics();
        Ok(ProcSupervisor {
            dir,
            command,
            shards,
            platform,
            online,
            durable,
            problem,
            thresholds,
            model,
            catalog,
            cfg,
        })
    }

    /// Sends one frame down a worker's stdin. An `EPIPE` here is the
    /// worker dying mid-conversation, surfaced as `Err`.
    fn send(&self, w: &mut WorkerHandle, msg: &Msg) -> Result<(), ProcError> {
        let bytes = msg.encode()?;
        w.stdin.write_all(&bytes)?;
        w.stdin.flush()?;
        mfp_obs::counter("ipc_frames", &[("dir", "down")]).incr();
        Ok(())
    }

    /// Sends `msg` and waits for the worker's answer under the ack
    /// deadline. A `Crashed` answer, a dead pipe and a missed deadline
    /// all stop the unit.
    fn call(&self, w: &mut WorkerHandle, msg: &Msg) -> Result<Msg, Stop> {
        self.send(w, msg).map_err(|_| DIED)?;
        match w
            .rx
            .recv_timeout(Duration::from_millis(self.cfg.ack_timeout_ms))
        {
            Ok(Ok(Msg::Crashed { seq })) => Err(Stop::Crashed(seq)),
            Ok(Ok(answer)) => Ok(answer),
            Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => Err(DIED),
            Err(RecvTimeoutError::Timeout) => Err(Stop::Died { hung: true }),
        }
    }

    /// Opens the stream and recovers the worker: `(fed, replayed)` from
    /// its `Hello`.
    fn handshake(&self, w: &mut WorkerHandle, spec: WorkerSpec) -> Result<(u64, u64), Stop> {
        w.stdin.write_all(&stream_header()).map_err(|_| DIED)?;
        match self.call(w, &Msg::Init(spec))? {
            Msg::Hello { fed, replayed, .. } => Ok((fed, replayed)),
            _ => Err(DIED),
        }
    }

    /// Feeds the worker fleet the canonical output stream under the
    /// injected failure schedule, drains every restart, finishes
    /// prediction up to `end`, and merges live shards' reports. The
    /// identity contract is `crate::supervise::supervise`'s.
    ///
    /// # Errors
    ///
    /// Real spawn/WAL/quarantine failures only — injected failures are
    /// absorbed by the supervision policy.
    pub fn run(
        &self,
        outs: &[IngestOutput],
        end: SimTime,
        plan: &ChaosPlan,
    ) -> Result<SupervisedOutcome, ProcError> {
        supervise(
            self,
            &self.dir,
            self.shards,
            self.cfg.supervise,
            outs,
            end,
            plan,
        )
    }
}

/// The process host: a unit is a worker process; feeds are acked
/// `Outputs` frames of [`ProcConfig::batch`] outputs (ack ⇒ durable:
/// the worker flushes its WAL before `Progress`), and killing it is
/// `SIGKILL` plus reap.
impl ShardHost for ProcSupervisor {
    type Unit = WorkerHandle;
    type Error = ProcError;
    const LABEL: &'static str = "process";

    fn feed_size(&self) -> usize {
        self.cfg.batch.max(1)
    }

    /// Spawns the worker and hands it the spec, carrying the still-armed
    /// slice of the master poison table. Any mid-handshake death stops
    /// the unit instead of erroring: only spawn itself failing is a real
    /// error.
    fn start(
        &self,
        s: usize,
        poison: &BTreeMap<u64, u32>,
    ) -> Result<Started<WorkerHandle>, ProcError> {
        let mut child = self.command.spawn()?;
        let stdin = child
            .stdin
            .take()
            .ok_or(ProcError::Protocol("spawned worker without piped stdin"))?;
        let stdout = child
            .stdout
            .take()
            .ok_or(ProcError::Protocol("spawned worker without piped stdout"))?;
        let (rx, reader) = spawn_reader(stdout);
        let mut unit = WorkerHandle {
            child,
            stdin,
            rx,
            reader,
        };
        let spec = WorkerSpec {
            shard: s,
            dir: shard_dir(&self.dir, s),
            platform: self.platform,
            online: self.online,
            durable: self.durable,
            problem: self.problem,
            thresholds: self.thresholds,
            model: self.model,
            catalog: self.catalog.clone(),
            poison: poison
                .iter()
                .filter(|&(_, &f)| f > 0)
                .map(|(&seq, &f)| (seq, f))
                .collect(),
        };
        let (status, replayed) = match self.handshake(&mut unit, spec) {
            Ok((fed, replayed)) => (Ok(fed), replayed),
            Err(stop) => (Err(stop), 0),
        };
        Ok(Started {
            unit,
            replayed,
            status,
        })
    }

    fn feed(
        &self,
        w: &mut WorkerHandle,
        outs: &[IngestOutput],
        routed: &[usize],
        from: u64,
    ) -> Step<(), ProcError> {
        let pending: Vec<IngestOutput> = routed.iter().map(|&g| outs[g]).collect();
        let records = batch_outputs(&pending, from);
        Ok(match self.call(w, &Msg::Outputs { records }) {
            Ok(Msg::Progress { .. }) => Ok(()),
            Ok(_) => Err(DIED),
            Err(stop) => Err(stop),
        })
    }

    fn arm(&self, w: &mut WorkerHandle, seq: u64, fails: u32) -> Result<(), Stop> {
        self.send(w, &Msg::Poison { seq, fails }).map_err(|_| DIED)
    }

    fn hang(&self, w: &mut WorkerHandle) -> Result<(), Stop> {
        self.send(w, &Msg::Hang).map_err(|_| DIED)
    }

    fn finish(&self, w: &mut WorkerHandle, end: SimTime) -> Step<ShardRun, ProcError> {
        Ok(match self.call(w, &Msg::Finish { until: end }) {
            Ok(Msg::Report {
                alarms,
                scores,
                scored,
            }) => Ok((alarms, scores, scored)),
            Ok(_) => Err(DIED),
            Err(stop) => Err(stop),
        })
    }

    fn kill(&self, w: WorkerHandle) -> bool {
        w.reap(true)
    }

    fn retire(&self, w: WorkerHandle) {
        w.reap(false);
    }

    /// Graceful shutdown: `Exit`, close the pipe and wait — no kill, so
    /// no spurious `SIGKILL` in the report.
    fn shutdown(&self, mut w: WorkerHandle) {
        let _ = self.send(&mut w, &Msg::Exit);
        w.reap(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::GapRecord;
    use crate::online::OnlinePredictor;
    use crate::serve::{shard_route, ServeError};
    use crate::supervise::{ChaosEvent, ChaosKind};
    use mfp_dram::address::CellAddr;
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::{CeEvent, MemEvent};
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Worker-mode trampoline: when spawned by [`WorkerCommand::
    /// test_harness`] with `MFP_SHARD_WORKER` set, this "test" never
    /// returns — it becomes the shard worker and exits with its code.
    /// Run normally, it is a no-op pass.
    #[test]
    fn ipc_worker_entry() {
        if std::env::var_os(WORKER_ENV).is_some() {
            std::process::exit(shard_worker_main());
        }
    }

    /// A unique scratch directory per test invocation (parallel-safe).
    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "mfp_proc_{tag}_{}_{}",
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

    fn catalog() -> Vec<(DimmId, DimmSpec)> {
        (0..8u32)
            .map(|k| (DimmId::new(k, (k % 2) as u8), DimmSpec::default()))
            .collect()
    }

    /// A canonical ingest-output stream: time-ordered released events
    /// (half the fleet risky) with two collection gaps in the middle.
    fn outputs(cat: &[(DimmId, DimmSpec)]) -> Vec<IngestOutput> {
        let dimms: Vec<DimmId> = cat.iter().map(|(id, _)| *id).collect();
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
        cat: &[(DimmId, DimmSpec)],
        outs: &[IngestOutput],
        end: SimTime,
    ) -> (Vec<Alarm>, Vec<ScoreRecord>, u64) {
        let lake = DataLake::new();
        for (id, spec) in cat {
            lake.register_dimm(*id, Platform::IntelPurley, *spec);
        }
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut p = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
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

    fn traced() -> DurableConfig {
        DurableConfig {
            batch: 4,
            compact_every: u64::MAX,
            record_scores: true,
            ..DurableConfig::default()
        }
    }

    fn proc_sup(dir: &Path, shards: usize, cfg: ProcConfig) -> ProcSupervisor {
        ProcSupervisor::new(
            dir,
            WorkerCommand::test_harness("ipc_worker_entry").expect("resolve test harness"),
            shards,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            ProblemConfig::default(),
            FaultThresholds::default(),
            ModelSpec::default_risky_ce(),
            catalog(),
            cfg,
        )
        .expect("open proc supervisor")
    }

    const END: SimTime = SimTime::from_secs(40 * 86_400);

    #[test]
    fn frames_roundtrip_and_scan_is_a_prefix_decoder() {
        let frames = [
            RawFrame {
                kind: K_HANG,
                seq: 0,
                payload: Vec::new(),
            },
            RawFrame {
                kind: K_PROGRESS,
                seq: 7,
                payload: 42u64.to_be_bytes().to_vec(),
            },
            RawFrame {
                kind: K_OUTPUTS,
                seq: u64::MAX,
                payload: vec![0xAB; 300],
            },
        ];
        let mut stream: Vec<u8> = stream_header().to_vec();
        for f in &frames {
            let enc = encode_frame(f.kind, f.seq, &f.payload);
            assert_eq!(decode_frame(&enc).as_ref(), Some(f));
            stream.extend_from_slice(&enc);
        }
        let scan = scan_frames(&stream).unwrap();
        assert_eq!(scan.frames, frames);
        assert_eq!(scan.valid_bytes, stream.len() as u64);
        assert_eq!(scan.torn_bytes, 0);

        // Every truncation decodes a strict prefix; a torn final frame
        // is torn bytes, never a misparse.
        for cut in 0..stream.len() {
            match scan_frames(&stream[..cut]) {
                Ok(s) => {
                    assert!(s.frames.len() <= frames.len());
                    assert_eq!(s.frames[..], frames[..s.frames.len()]);
                    assert_eq!(s.valid_bytes + s.torn_bytes, cut as u64);
                }
                Err(ProcError::BadHeader) => {
                    assert!(cut < stream_header().len() || stream[..cut] == stream[..cut]);
                }
                Err(e) => panic!("unexpected scan error at cut {cut}: {e}"),
            }
        }

        // A bit flip is confined: frames before the flipped byte still
        // decode, nothing after it is misparsed as valid.
        for pos in stream_header().len()..stream.len() {
            let mut bad = stream.clone();
            bad[pos] ^= 0x40;
            let s = scan_frames(&bad).unwrap();
            assert!(s.frames.len() < frames.len(), "flip at {pos} undetected");
            assert_eq!(s.frames[..], frames[..s.frames.len()]);
        }
    }

    #[test]
    fn frame_reader_survives_driblets_and_harness_banners() {
        let msgs = [
            Msg::Hang,
            Msg::Progress {
                consumed: 12,
                durable: 12,
            },
            Msg::Crashed { seq: 3 },
        ];
        let mut stream: Vec<u8> = b"running 1 test\nMF".to_vec();
        stream.extend_from_slice(&stream_header());
        for m in &msgs {
            stream.extend_from_slice(&m.encode().unwrap());
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for b in stream {
            reader.push(&[b]);
            loop {
                match reader.next_step() {
                    FrameStep::Frame(f) => got.push(Msg::parse(&f).unwrap()),
                    FrameStep::NeedMore => break,
                    FrameStep::Corrupt => panic!("clean stream misread as corrupt"),
                }
            }
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn insane_frame_lengths_are_corruption_not_allocations() {
        let mut reader = FrameReader::new();
        reader.push(&stream_header());
        let mut frame = encode_frame(K_HANG, 0, &[]);
        frame[9..13].copy_from_slice(&u32::MAX.to_be_bytes());
        reader.push(&frame);
        assert!(matches!(reader.next_step(), FrameStep::Corrupt));
    }

    /// `ModelSpec::registry` serves exactly the spec's rule: one model,
    /// promoted on the requested platform only, at the spec's threshold,
    /// scoring every row as `RiskyCePattern::new(params)` does. The second
    /// spec differs from the default in every parameter and the threshold.
    #[test]
    fn spec_registry_promotes_the_spec_rule_on_one_platform() {
        let odd = ModelSpec::RiskyCe {
            params: RiskyCeParams {
                min_complex: 2.5,
                require_interval4: false,
                min_rows: 1.5,
            },
            threshold: 0.75,
        };
        // Every combination of the five features the rule reads.
        let names = mfp_features::extract::feature_names();
        let at = |n: &str| names.iter().position(|x| x == n).expect("rule feature");
        let features = [
            "eb_complex",
            "eb_interval4",
            "rows_5d",
            "ebu_dev_dq",
            "ebu_dev_interval4",
        ]
        .map(at);
        let rows: Vec<Vec<f32>> = (0..4usize.pow(5))
            .map(|k| {
                let mut row = vec![0.0f32; names.len()];
                for (j, &f) in features.iter().enumerate() {
                    row[f] = (k / 4usize.pow(j as u32) % 4) as f32;
                }
                row
            })
            .collect();
        let mut scores = Vec::new();
        for (spec, platform) in [
            (ModelSpec::default_risky_ce(), Platform::IntelPurley),
            (odd, Platform::K920),
        ] {
            let ModelSpec::RiskyCe { params, threshold } = spec;
            let registry = spec.registry(platform);
            let entries = registry.list();
            assert_eq!(entries.len(), 1, "one model registered");
            let entry = registry.production(platform).expect("promoted");
            assert_eq!(entry.id, entries[0].id);
            assert_eq!(entry.algorithm, Algorithm::RiskyCePattern);
            assert_eq!(entry.threshold.to_bits(), threshold.to_bits());
            assert_eq!(entry.benchmark.threshold.to_bits(), threshold.to_bits());
            for other in Platform::ALL.into_iter().filter(|&p| p != platform) {
                assert!(
                    registry.production(other).is_none(),
                    "{other} serves nothing"
                );
            }
            let rule = RiskyCePattern::new(params);
            assert!(matches!(&*entry.model, Model::RiskyCe(m) if *m == rule));
            let served: Vec<u32> = rows
                .iter()
                .map(|r| entry.model.predict_proba(r).to_bits())
                .collect();
            let direct: Vec<u32> = rows
                .iter()
                .map(|r| rule.predict_proba(r).to_bits())
                .collect();
            assert_eq!(served, direct);
            scores.push(served);
        }
        assert_ne!(scores[0], scores[1], "the rows tell the two rules apart");
    }

    #[test]
    fn worker_spec_and_messages_roundtrip() {
        let spec = WorkerSpec {
            shard: 3,
            dir: PathBuf::from("/tmp/mfp-proc/shard-3"),
            platform: Platform::K920,
            online: OnlineConfig::default(),
            durable: traced(),
            problem: ProblemConfig::default(),
            thresholds: FaultThresholds::default(),
            model: ModelSpec::RiskyCe {
                params: RiskyCeParams {
                    min_complex: 2.5,
                    require_interval4: false,
                    min_rows: 1.5,
                },
                threshold: 0.75,
            },
            catalog: catalog(),
            poison: vec![(9, 2), (44, u32::MAX)],
        };
        let outs = outputs(&catalog());
        let records = batch_outputs(&outs[..7], 11);
        let msgs = [
            Msg::Init(spec),
            Msg::Outputs { records },
            Msg::Poison {
                seq: 5,
                fails: u32::MAX,
            },
            Msg::Hang,
            Msg::Finish { until: END },
            Msg::Exit,
            Msg::Hello {
                fed: 31,
                replayed: 9,
                quarantined: 1,
            },
            Msg::Progress {
                consumed: 40,
                durable: 44,
            },
            Msg::Crashed { seq: 17 },
            Msg::Report {
                alarms: vec![Alarm {
                    dimm: DimmId::new(2, 1),
                    time: SimTime::from_secs(9_000),
                    score: 0.875,
                }],
                scores: vec![ScoreRecord {
                    time: SimTime::from_secs(8_000),
                    dimm: DimmId::new(4, 0),
                    score: 0.25,
                }],
                scored: 123,
            },
        ];
        for m in &msgs {
            let enc = m.encode().unwrap();
            let frame = decode_frame(&enc).expect("frame decodes");
            assert_eq!(&Msg::parse(&frame).unwrap(), m);
        }
    }

    #[test]
    fn clean_process_run_matches_the_sequential_oracle() {
        for shards in [1usize, 2] {
            let cat = catalog();
            let outs = outputs(&cat);
            let (ref_alarms, ref_scores, ref_scored) = oracle(&cat, &outs, END);
            assert!(!ref_alarms.is_empty(), "oracle must alarm to bite");

            let dir = test_dir("clean");
            let sup = proc_sup(&dir, shards, ProcConfig::default());
            let out = sup.run(&outs, END, &ChaosPlan::none()).unwrap();
            assert_eq!(out.alarms, ref_alarms, "{shards} shards: alarms");
            assert_eq!(out.scores, ref_scores, "{shards} shards: scores");
            assert_eq!(out.scored, ref_scored, "{shards} shards: scored");
            assert_eq!(out.live_shards, shards);
            assert_eq!(out.report.restarts, 0);
            assert_eq!(out.report.sigkills, 0);
            assert_eq!(out.report.spawns, shards as u64);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn reader_threads_record_into_the_supervisors_registry() {
        let shards = 2usize;
        let cat = catalog();
        let outs = outputs(&cat);
        let dir = test_dir("scoped");
        let sup = proc_sup(&dir, shards, ProcConfig::default());
        let reg = mfp_obs::Registry::new();
        let out = mfp_obs::with_registry(&reg, || sup.run(&outs, END, &ChaosPlan::none())).unwrap();
        assert_eq!(out.report.spawns, shards as u64);
        let snap = reg.snapshot();
        let frames = |dir| {
            snap.counter_labeled("ipc_frames", &[("dir", dir)])
                .unwrap_or(0)
        };
        // Down: Init, every Outputs, Finish, Exit. Up: Hello, one
        // Progress per Outputs, Report — one frame fewer per shard.
        assert!(frames("down") > 4 * shards as u64);
        assert_eq!(frames("up"), frames("down") - shards as u64);
        assert_eq!(snap.counter("ipc_crc_errors"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_process_chaos_recovers_bit_identically() {
        let cat = catalog();
        let outs = outputs(&cat);
        let (ref_alarms, ref_scores, ref_scored) = oracle(&cat, &outs, END);

        for shards in [2usize, 4] {
            for seed in [7u64, 21] {
                let plan = ChaosPlan::seeded(seed, shards, outs.len(), 6, 2);
                let dir = test_dir("seeded");
                let sup = proc_sup(&dir, shards, ProcConfig::default());
                let out = sup.run(&outs, END, &plan).unwrap();
                assert_eq!(out.alarms, ref_alarms, "shards={shards} seed={seed}");
                assert_eq!(out.scores, ref_scores, "shards={shards} seed={seed}");
                assert_eq!(out.scored, ref_scored, "shards={shards} seed={seed}");
                assert_eq!(out.live_shards, shards);
                assert!(
                    out.report.quarantined.is_empty(),
                    "seeded plans are transient"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn sigkill_and_hang_recover_and_are_counted() {
        let cat = catalog();
        let outs = outputs(&cat);
        let (ref_alarms, ref_scores, ref_scored) = oracle(&cat, &outs, END);

        let plan = ChaosPlan {
            events: vec![
                ChaosEvent {
                    at_output: 30,
                    shard: 0,
                    kind: ChaosKind::Kill { torn_bytes: 13 },
                },
                ChaosEvent {
                    at_output: 75,
                    shard: 1,
                    kind: ChaosKind::Hang,
                },
                ChaosEvent {
                    at_output: 120,
                    shard: 0,
                    kind: ChaosKind::Panic { fails: 2 },
                },
            ],
        };
        let dir = test_dir("killhang");
        let sup = proc_sup(&dir, 2, ProcConfig::default());
        let out = sup.run(&outs, END, &plan).unwrap();
        assert_eq!(out.report.kills_injected, 1, "{:?}", out.report);
        assert!(
            out.report.sigkills >= 2,
            "kill + hung reap: {:?}",
            out.report
        );
        assert_eq!(out.report.hangs_detected, 1, "{:?}", out.report);
        assert!(out.report.heartbeat_misses >= 1, "{:?}", out.report);
        assert!(out.report.panics_caught >= 1, "{:?}", out.report);
        assert!(out.report.restarts >= 3, "{:?}", out.report);
        assert!(out.report.replayed_outputs > 0, "{:?}", out.report);
        assert_eq!(out.alarms, ref_alarms);
        assert_eq!(out.scores, ref_scores);
        assert_eq!(out.scored, ref_scored);
        assert_eq!(out.live_shards, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn permanent_poison_is_quarantined_across_process_restarts() {
        let cat = catalog();
        let outs = outputs(&cat);
        let target = 50usize;
        let poisoned_shard = shard_route(&outs[target], 2);
        let filtered: Vec<IngestOutput> = outs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != target)
            .map(|(_, o)| *o)
            .collect();
        let (ref_alarms, ref_scores, ref_scored) = oracle(&cat, &filtered, END);

        // The poison binds to the first output routed to the shard at
        // or after the event tick — outs[target] itself.
        let plan = ChaosPlan {
            events: vec![ChaosEvent {
                at_output: target as u64,
                shard: poisoned_shard,
                kind: ChaosKind::Poison,
            }],
        };
        let dir = test_dir("poison");
        let cfg = ProcConfig::default();
        let sup = proc_sup(&dir, 2, cfg);
        let out = sup.run(&outs, END, &plan).unwrap();
        assert_eq!(out.report.quarantined_outputs, vec![target as u64]);
        assert_eq!(out.report.quarantined.len(), 1);
        assert_eq!(out.report.quarantined[0].0, poisoned_shard);
        assert_eq!(
            out.report.panics_caught,
            cfg.supervise.quarantine_after as u64
        );
        assert_eq!(out.alarms, ref_alarms);
        assert_eq!(out.scores, ref_scores);
        assert_eq!(out.scored, ref_scored);
        assert_eq!(out.live_shards, 2);

        // A fresh run over the same root reads the side log back: the
        // quarantined output never crashes anything again.
        let sup2 = proc_sup(&dir, 2, cfg);
        let out2 = sup2.run(&outs, END, &ChaosPlan::none()).unwrap();
        assert_eq!(out2.report.restarts, 0, "{:?}", out2.report);
        assert_eq!(out2.alarms, ref_alarms);
        assert_eq!(out2.scored, ref_scored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_restart_budget_degrades_to_live_shards() {
        let cat = catalog();
        let outs = outputs(&cat);
        let target = 50usize;
        let poisoned_shard = shard_route(&outs[target], 2);
        let live: Vec<IngestOutput> = outs
            .iter()
            .filter(|o| shard_route(o, 2) != poisoned_shard)
            .copied()
            .collect();
        let (ref_alarms, ref_scores, ref_scored) = oracle(&cat, &live, END);

        let plan = ChaosPlan {
            events: vec![ChaosEvent {
                at_output: target as u64,
                shard: poisoned_shard,
                kind: ChaosKind::Poison,
            }],
        };
        let dir = test_dir("budget");
        let cfg = ProcConfig {
            supervise: SuperviseConfig {
                max_restarts: 2,
                quarantine_after: 100,
                ..SuperviseConfig::default()
            },
            ..ProcConfig::default()
        };
        let sup = proc_sup(&dir, 2, cfg);
        let out = sup.run(&outs, END, &plan).unwrap();
        assert_eq!(out.report.failed_shards, vec![poisoned_shard]);
        assert_eq!(out.live_shards, 1);
        assert_eq!(
            out.alarms, ref_alarms,
            "degraded merge == live-shard oracle"
        );
        assert_eq!(out.scores, ref_scores);
        assert_eq!(out.scored, ref_scored);

        // Degraded-mode routing: the failed shard's DIMMs answer
        // ShardUnavailable, live DIMMs answer Ok.
        let mut saw_failed = false;
        let mut saw_live = false;
        for (id, _) in &cat {
            match out.dimm_status(*id) {
                Err(ServeError::ShardUnavailable { shard }) => {
                    assert_eq!(shard, poisoned_shard);
                    saw_failed = true;
                }
                Ok(()) => saw_live = true,
                Err(e) => panic!("unexpected routing error: {e}"),
            }
        }
        assert!(saw_failed && saw_live, "catalog spans both shards");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_twice_is_bit_identical_including_the_report() {
        let cat = catalog();
        let outs = outputs(&cat);
        let mut reports = Vec::new();
        let mut merged = Vec::new();
        for _ in 0..2 {
            let plan = ChaosPlan::seeded(99, 2, outs.len(), 5, 2);
            let dir = test_dir("replay");
            let sup = proc_sup(&dir, 2, ProcConfig::default());
            let out = sup.run(&outs, END, &plan).unwrap();
            reports.push(out.report.clone());
            merged.push((out.alarms, out.scores, out.scored));
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(reports[0], reports[1], "supervision is deterministic");
        assert_eq!(merged[0], merged[1]);
    }
}
