//! Checkpoint/restore for the online prediction path.
//!
//! A process crash must not change what the fleet is told: restoring a
//! checkpoint and replaying the remaining events has to produce the
//! *bit-identical* alarm sequence an uninterrupted run would have raised.
//! [`OnlineCheckpoint`] therefore captures every piece of state the
//! [`OnlinePredictor`] folds over — tick
//! cursor, watermark, vote streaks, cooldown entries, raised alarms,
//! degraded-mode feature cache — plus the
//! [`FeatureStore`]'s per-DIMM rolling
//! event windows, which are the predictor's only other mutable input.
//!
//! Serialization is a hand-rolled binary format written through the
//! crate's `codec` module: length-prefixed sections (big endian, `f32`
//! as raw bits) sealed in the codec's magic + version + crc32 envelope;
//! per-DIMM event windows are embedded as encoded `BmcLog` payloads so
//! the wire format is shared with the collectors'. No serde, no
//! floating-point text round-trips, nothing that could perturb a bit.

use crate::codec::{
    open_sealed, put_alarm, put_dimm, put_f32, put_online, put_platform, put_score, put_time,
    put_u32, put_u64, seal, CodecError, Reader,
};
use crate::feature_store::FeatureStore;
use crate::lake::DataLake;
use crate::online::{Alarm, OnlineConfig, OnlinePredictor, ScoreRecord};
use crate::registry::ModelRegistry;
use mfp_dram::address::DimmId;
use mfp_dram::bmc::{BmcLog, DecodeError};
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::SimTime;
use std::error::Error;
use std::fmt;

/// Magic bytes at the head of an encoded checkpoint.
const MAGIC: [u8; 4] = *b"MFC1";
/// Checkpoint wire-format version. v2 appended a trailing CRC32 so a
/// torn or bit-flipped payload is *detected* instead of silently
/// restoring perturbed state (the recovery invariant depends on it).
/// v3 appends the optional score trace so restore resumes a traced
/// predictor without replaying history; v2 payloads still decode (their
/// trace restores as `None`).
const VERSION: u8 = 3;
/// Oldest wire-format version [`OnlineCheckpoint::decode`] still accepts.
const MIN_VERSION: u8 = 2;

/// A point-in-time snapshot of the online prediction state.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineCheckpoint {
    /// Platform the predictor serves.
    pub platform: Platform,
    /// Predictor configuration at capture time.
    pub cfg: OnlineConfig,
    /// Next prediction tick due.
    pub next_tick: SimTime,
    /// Last executed tick (the stale-event watermark).
    pub watermark: SimTime,
    /// Model invocations so far.
    pub scored: u64,
    /// Stale events rejected so far.
    pub stale_rejected: u64,
    /// Per-DIMM consecutive-vote streaks.
    pub streaks: Vec<(DimmId, u32)>,
    /// Per-DIMM cooldown entries.
    pub last_alarm: Vec<(DimmId, SimTime)>,
    /// Alarms raised so far.
    pub alarms: Vec<Alarm>,
    /// Degraded-mode cache: last successfully served row per DIMM.
    pub last_good: Vec<(DimmId, SimTime, Vec<f32>)>,
    /// The feature store's per-DIMM rolling event windows.
    pub streams: Vec<(DimmId, Vec<MemEvent>)>,
    /// The score trace, when tracing was enabled at capture time (v3;
    /// restores as `None` from a v2 payload, which predates the field).
    pub trace: Option<Vec<ScoreRecord>>,
}

impl OnlineCheckpoint {
    /// Captures the predictor's folded state plus the feature store's
    /// rolling windows (the store must be the one the predictor serves
    /// from).
    pub fn capture(predictor: &OnlinePredictor<'_>, store: &FeatureStore) -> Self {
        mfp_obs::counter("checkpoint_captures", &[]).incr();
        OnlineCheckpoint {
            platform: predictor.platform,
            cfg: predictor.cfg,
            next_tick: predictor.next_tick,
            watermark: predictor.watermark,
            scored: predictor.scored,
            stale_rejected: predictor.stale_rejected,
            streaks: predictor.streaks.iter().map(|(d, s)| (*d, *s)).collect(),
            last_alarm: predictor.last_alarm.iter().map(|(d, t)| (*d, *t)).collect(),
            alarms: predictor.alarms.clone(),
            last_good: predictor
                .last_good
                .iter()
                .map(|(d, (t, row))| (*d, *t, row.clone()))
                .collect(),
            streams: store.export_streams(),
            trace: predictor.trace.clone(),
        }
    }

    /// Rebuilds a predictor (and refills `store`) from this checkpoint.
    /// Replaying the post-checkpoint event suffix through the result
    /// yields the alarm sequence of an uninterrupted run, bit for bit.
    pub fn restore<'a>(
        &self,
        lake: &'a DataLake,
        store: &'a FeatureStore,
        registry: &'a ModelRegistry,
    ) -> OnlinePredictor<'a> {
        mfp_obs::counter("checkpoint_restores", &[]).incr();
        store.import_streams(self.streams.clone());
        let mut p = OnlinePredictor::new(lake, store, registry, self.platform, self.cfg);
        p.next_tick = self.next_tick;
        p.watermark = self.watermark;
        p.scored = self.scored;
        p.stale_rejected = self.stale_rejected;
        p.streaks = self.streaks.iter().copied().collect();
        p.last_alarm = self.last_alarm.iter().copied().collect();
        p.alarms = self.alarms.clone();
        p.last_good = self
            .last_good
            .iter()
            .map(|(d, t, row)| (*d, (*t, row.clone())))
            .collect();
        p.trace = self.trace.clone();
        p
    }

    /// Serializes the checkpoint into its binary format.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_versioned(VERSION)
    }

    /// Serializes at a specific historical wire version — v2 drops the
    /// score trace (the field it predates). Kept crate-private for the
    /// compatibility tests; production writers always emit `VERSION`.
    pub(crate) fn encode_versioned(&self, version: u8) -> Vec<u8> {
        debug_assert!((MIN_VERSION..=VERSION).contains(&version));
        seal(MAGIC, version, |buf| {
            buf.reserve(256 + self.streams.len() * 64);
            put_platform(buf, self.platform);
            put_online(buf, &self.cfg);
            put_time(buf, self.next_tick);
            put_time(buf, self.watermark);
            put_u64(buf, self.scored);
            put_u64(buf, self.stale_rejected);
            put_u64(buf, self.streaks.len() as u64);
            for (d, s) in &self.streaks {
                put_dimm(buf, *d);
                put_u32(buf, *s);
            }
            put_u64(buf, self.last_alarm.len() as u64);
            for (d, t) in &self.last_alarm {
                put_dimm(buf, *d);
                put_time(buf, *t);
            }
            put_u64(buf, self.alarms.len() as u64);
            for a in &self.alarms {
                put_alarm(buf, a);
            }
            put_u64(buf, self.last_good.len() as u64);
            for (d, t, row) in &self.last_good {
                put_dimm(buf, *d);
                put_time(buf, *t);
                put_u64(buf, row.len() as u64);
                for v in row {
                    put_f32(buf, *v);
                }
            }
            put_u64(buf, self.streams.len() as u64);
            for (d, events) in &self.streams {
                put_dimm(buf, *d);
                // Embedded collector wire format; BmcLog's stable sort
                // keeps the already-ordered window byte-identical through
                // the trip.
                let log: BmcLog = events.iter().copied().collect();
                let payload = log.encode();
                put_u64(buf, payload.len() as u64);
                buf.extend_from_slice(&payload);
            }
            if version >= 3 {
                match &self.trace {
                    None => buf.push(0),
                    Some(trace) => {
                        buf.push(1);
                        put_u64(buf, trace.len() as u64);
                        for r in trace {
                            put_score(buf, r);
                        }
                    }
                }
            }
        })
    }

    /// Deserializes a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on truncation, bad magic/version, a
    /// checksum mismatch (torn write or bit rot), an unknown platform
    /// index, or a malformed embedded event log.
    pub fn decode(data: &[u8]) -> Result<OnlineCheckpoint, CheckpointError> {
        let (version, body) = open_sealed(data, MAGIC, MIN_VERSION..=VERSION)?;
        let mut c = Reader::new(body);
        let platform = c.platform()?;
        let cfg = c.online()?;
        let next_tick = c.time()?;
        let watermark = c.time()?;
        let scored = c.u64()?;
        let stale_rejected = c.u64()?;
        let n = c.count()?;
        let mut streaks = Vec::with_capacity(n);
        for _ in 0..n {
            streaks.push((c.dimm()?, c.u32()?));
        }
        let n = c.count()?;
        let mut last_alarm = Vec::with_capacity(n);
        for _ in 0..n {
            last_alarm.push((c.dimm()?, c.time()?));
        }
        let n = c.count()?;
        let mut alarms = Vec::with_capacity(n);
        for _ in 0..n {
            alarms.push(c.alarm()?);
        }
        let n = c.count()?;
        let mut last_good = Vec::with_capacity(n);
        for _ in 0..n {
            let d = c.dimm()?;
            let t = c.time()?;
            let rl = c.count()?;
            let mut row = Vec::with_capacity(rl);
            for _ in 0..rl {
                row.push(c.f32()?);
            }
            last_good.push((d, t, row));
        }
        let n = c.count()?;
        let mut streams = Vec::with_capacity(n);
        for _ in 0..n {
            let d = c.dimm()?;
            let plen = c.count()?;
            let log = BmcLog::decode(c.take(plen)?).map_err(CheckpointError::BadLog)?;
            streams.push((d, log.events().to_vec()));
        }
        let trace = if version >= 3 {
            match c.u8()? {
                0 => None,
                1 => {
                    let n = c.count()?;
                    let mut t = Vec::with_capacity(n);
                    for _ in 0..n {
                        t.push(c.score()?);
                    }
                    Some(t)
                }
                // Anything else is corruption the CRC failed to catch
                // only in adversarial constructions; refuse it.
                _ => return Err(CheckpointError::Truncated),
            }
        } else {
            None
        };
        Ok(OnlineCheckpoint {
            platform,
            cfg,
            next_tick,
            watermark,
            scored,
            stale_rejected,
            streaks,
            last_alarm,
            alarms,
            last_good,
            streams,
            trace,
        })
    }
}

/// Failure decoding a checkpoint payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// Input ended before a complete record.
    Truncated,
    /// Leading magic bytes did not match.
    BadMagic,
    /// Unsupported checkpoint version.
    BadVersion(u8),
    /// Trailing CRC32 did not match the payload (torn write / bit rot).
    BadChecksum,
    /// Platform index outside `Platform::ALL`.
    BadPlatform(u8),
    /// An embedded event log failed to decode.
    BadLog(DecodeError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::BadPlatform(p) => write!(f, "unknown platform index {p}"),
            CheckpointError::BadLog(e) => write!(f, "embedded event log: {e}"),
        }
    }
}

impl Error for CheckpointError {}

/// The codec's refusals as checkpoint errors; the only enum code an
/// `MFC1` payload carries is the platform index.
impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Short | CodecError::Trailing => CheckpointError::Truncated,
            CodecError::BadMagic => CheckpointError::BadMagic,
            CodecError::BadVersion(v) => CheckpointError::BadVersion(v),
            CodecError::BadChecksum => CheckpointError::BadChecksum,
            CodecError::BadCode { code, .. } => CheckpointError::BadPlatform(code),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_store::FeatureStore;
    use crate::procserve::ModelSpec;
    use mfp_dram::address::CellAddr;
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::CeEvent;
    use mfp_dram::spec::DimmSpec;
    use mfp_dram::time::SimDuration;
    use mfp_features::fault_analysis::FaultThresholds;
    use mfp_features::labeling::ProblemConfig;

    fn risky_ce(t: u64, dimm: DimmId) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm,
            addr: CellAddr::new(0, 0, (t / 1000) as u32 % 100, 1),
            transfer: ErrorTransfer::from_bits([(1, 20), (5, 21)]),
        })
    }

    fn setup(lake: &DataLake, dimms: &[DimmId]) {
        for &id in dimms {
            lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        }
    }

    fn store() -> FeatureStore {
        FeatureStore::new(ProblemConfig::default(), FaultThresholds::default())
    }

    /// A stream mixing two DIMMs, gaps and bursts across several days.
    fn stream(dimms: &[DimmId]) -> Vec<MemEvent> {
        (0..48u64)
            .map(|k| risky_ce(5_000 + k * 5_400, dimms[(k % dimms.len() as u64) as usize]))
            .collect()
    }

    #[test]
    fn encode_decode_roundtrip_is_exact() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = [DimmId::new(1, 0), DimmId::new(2, 1)];
        setup(&lake, &dimms);
        let s = store();
        let mut p = OnlinePredictor::new(
            &lake,
            &s,
            &registry,
            Platform::IntelPurley,
            OnlineConfig {
                degraded_grace: SimDuration::days(1),
                ..OnlineConfig::default()
            },
        );
        p.set_score_trace(true);
        for e in stream(&dimms) {
            p.observe(&e);
        }
        p.finish(SimTime::from_secs(4 * 86_400));
        let cp = OnlineCheckpoint::capture(&p, &s);
        assert!(!cp.streams.is_empty());
        assert!(
            cp.trace.as_ref().is_some_and(|t| !t.is_empty()),
            "tracing was on, so the v3 trace section must carry records"
        );
        let bytes = cp.encode();
        let back = OnlineCheckpoint::decode(&bytes).unwrap();
        assert_eq!(back, cp, "checkpoint must round-trip bit-exactly");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            OnlineCheckpoint::decode(b"xx"),
            Err(CheckpointError::Truncated)
        );
        assert_eq!(
            OnlineCheckpoint::decode(b"XXXX\x01\x00"),
            Err(CheckpointError::BadMagic)
        );
        assert_eq!(
            OnlineCheckpoint::decode(b"MFC1\x09\x00"),
            Err(CheckpointError::BadVersion(9))
        );
        // v1 payloads (pre-CRC) are rejected by version, not misread.
        assert_eq!(
            OnlineCheckpoint::decode(b"MFC1\x01\x77"),
            Err(CheckpointError::BadVersion(1))
        );
        // A correctly sealed envelope still rejects a bad platform index,
        // at the current version and at the oldest accepted one.
        for version in [2u8, 3] {
            let mut sealed = vec![b'M', b'F', b'C', b'1', version, 0x77];
            sealed.extend_from_slice(&crate::wal::crc32(&sealed).to_be_bytes());
            assert_eq!(
                OnlineCheckpoint::decode(&sealed),
                Err(CheckpointError::BadPlatform(0x77))
            );
        }
        // Corrupted length field: bounded, not a huge allocation.
        let lake = DataLake::new();
        let registry = ModelRegistry::new();
        let s = store();
        let p = OnlinePredictor::new(
            &lake,
            &s,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        let bytes = OnlineCheckpoint::capture(&p, &s).encode();
        let cut = &bytes[..bytes.len() - 4];
        assert_eq!(
            OnlineCheckpoint::decode(cut),
            Err(CheckpointError::BadChecksum)
        );
    }

    /// Builds a small but non-trivial wire payload for the torn-write
    /// sweeps below.
    fn sweep_payload() -> Vec<u8> {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = [DimmId::new(1, 0), DimmId::new(2, 1)];
        setup(&lake, &dimms);
        let s = store();
        let mut p = OnlinePredictor::new(
            &lake,
            &s,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        for e in stream(&dimms).into_iter().take(12) {
            p.observe(&e);
        }
        OnlineCheckpoint::capture(&p, &s).encode()
    }

    #[test]
    fn truncation_at_every_byte_offset_is_detected() {
        let wire = sweep_payload();
        assert!(OnlineCheckpoint::decode(&wire).is_ok());
        for cut in 0..wire.len() {
            assert!(
                OnlineCheckpoint::decode(&wire[..cut]).is_err(),
                "MFC1 truncated to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn single_bit_corruption_is_detected() {
        let wire = sweep_payload();
        // Every byte, one rotating bit per byte: flips in the header are
        // caught by magic/version checks, everywhere else by the CRC.
        for i in 0..wire.len() {
            let mut flipped = wire.clone();
            flipped[i] ^= 1 << (i % 8);
            assert!(
                OnlineCheckpoint::decode(&flipped).is_err(),
                "MFC1: bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn restore_from_v2_checkpoint_matches_the_rebuild_path() {
        // A pre-trace (v2) envelope must still decode, and restoring
        // from it must reproduce what rebuilding from scratch would:
        // identical alarms and invocation counts over the same suffix.
        // The v3 envelope of the same state additionally carries the
        // score trace through the crash.
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = [DimmId::new(1, 0), DimmId::new(2, 1)];
        setup(&lake, &dimms);
        let events = stream(&dimms);
        let end = SimTime::from_secs(6 * 86_400);
        let cut = events.len() / 2;

        let ref_store = store();
        let mut reference = OnlinePredictor::new(
            &lake,
            &ref_store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        reference.set_score_trace(true);
        for e in &events {
            reference.observe(e);
        }
        reference.finish(end);
        assert!(!reference.score_trace().is_empty());

        let s1 = store();
        let mut first = OnlinePredictor::new(
            &lake,
            &s1,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        first.set_score_trace(true);
        for e in &events[..cut] {
            first.observe(e);
        }
        let cp = OnlineCheckpoint::capture(&first, &s1);
        let v2 = cp.encode_versioned(2);
        let v3 = cp.encode();
        assert_eq!(v2[4], 2);
        assert_eq!(v3[4], 3);

        let old = OnlineCheckpoint::decode(&v2).unwrap();
        assert_eq!(old.trace, None, "v2 predates the trace section");
        assert_eq!(old.alarms, cp.alarms);
        assert_eq!(old.streams, cp.streams);
        let s2 = store();
        let mut resumed = old.restore(&lake, &s2, &registry);
        for e in &events[cut..] {
            resumed.observe(e);
        }
        resumed.finish(end);
        assert_eq!(resumed.alarms(), reference.alarms());
        assert_eq!(resumed.scored(), reference.scored());

        let s3 = store();
        let mut traced = OnlineCheckpoint::decode(&v3)
            .unwrap()
            .restore(&lake, &s3, &registry);
        for e in &events[cut..] {
            traced.observe(e);
        }
        traced.finish(end);
        assert_eq!(traced.alarms(), reference.alarms());
        assert_eq!(
            traced.score_trace(),
            reference.score_trace(),
            "a v3 restore must carry the pre-crash score trace through"
        );
    }

    #[test]
    fn crash_at_any_event_restores_identical_alarms() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = [DimmId::new(1, 0), DimmId::new(2, 1)];
        setup(&lake, &dimms);
        let events = stream(&dimms);
        let end = SimTime::from_secs(6 * 86_400);
        let cfg = OnlineConfig {
            degraded_grace: SimDuration::hours(18),
            ..OnlineConfig::default()
        };

        // Uninterrupted reference run.
        let ref_store = store();
        let mut reference =
            OnlinePredictor::new(&lake, &ref_store, &registry, Platform::IntelPurley, cfg);
        for e in &events {
            reference.observe(e);
        }
        reference.finish(end);
        assert!(
            !reference.alarms().is_empty(),
            "the stream must alarm or the test proves nothing"
        );

        // Crash after every prefix length, restore through the wire
        // format, replay the suffix: alarms must match bit for bit.
        for cut in 0..=events.len() {
            let s1 = store();
            let mut first = OnlinePredictor::new(&lake, &s1, &registry, Platform::IntelPurley, cfg);
            for e in &events[..cut] {
                first.observe(e);
            }
            let wire = OnlineCheckpoint::capture(&first, &s1).encode();
            drop(first);

            let cp = OnlineCheckpoint::decode(&wire).unwrap();
            let s2 = store();
            let mut resumed = cp.restore(&lake, &s2, &registry);
            for e in &events[cut..] {
                resumed.observe(e);
            }
            resumed.finish(end);
            assert_eq!(
                resumed.alarms(),
                reference.alarms(),
                "crash at event {cut} must not change the alarm sequence"
            );
            assert_eq!(resumed.scored(), reference.scored());
        }
    }
}
