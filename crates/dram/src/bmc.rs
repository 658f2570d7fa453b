//! The Baseboard Management Controller log: an ordered store of memory
//! events with a compact binary wire format.
//!
//! In production the BMC records corrected/uncorrected errors, events and
//! memory specifications (paper, Section II-B); the data pipeline ships
//! these logs into the data lake. [`BmcLog`] plays that role here, and the
//! [`BmcLog::encode`]/[`BmcLog::decode`] pair is the wire format used by the
//! MLOps ingestion layer.

use crate::address::{CellAddr, DimmId, ServerId};
use crate::bus::ErrorTransfer;
use crate::event::{CeEvent, CeStormEvent, MemEvent, UeEvent};
use crate::geometry::BURST_BEATS;
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Magic bytes at the head of an encoded log.
const MAGIC: [u8; 4] = *b"BMC1";
/// Wire-format version.
const VERSION: u8 = 1;

const TAG_CE: u8 = 1;
const TAG_UE: u8 = 2;
const TAG_STORM: u8 = 3;

/// A time-ordered log of memory events for a fleet (or a single server).
///
/// Events may be pushed out of order; the log keeps itself sorted by
/// observation time (stable for equal timestamps).
///
/// # Examples
///
/// ```
/// use mfp_dram::bmc::BmcLog;
/// use mfp_dram::event::{MemEvent, CeEvent};
/// use mfp_dram::address::{DimmId, CellAddr};
/// use mfp_dram::bus::ErrorTransfer;
/// use mfp_dram::time::SimTime;
///
/// let mut log = BmcLog::new();
/// log.push(MemEvent::Ce(CeEvent {
///     time: SimTime::from_secs(10),
///     dimm: DimmId::new(0, 0),
///     addr: CellAddr::new(0, 0, 1, 2),
///     transfer: ErrorTransfer::from_bits([(0, 1)]),
/// }));
/// let bytes = log.encode();
/// let back = BmcLog::decode(&bytes)?;
/// assert_eq!(back.len(), 1);
/// # Ok::<(), mfp_dram::bmc::DecodeError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BmcLog {
    events: Vec<MemEvent>,
    sorted: bool,
}

impl BmcLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        BmcLog {
            events: Vec::new(),
            sorted: true,
        }
    }

    /// Creates an empty log with capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        BmcLog {
            events: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Appends an event, tracking whether a re-sort will be needed.
    pub fn push(&mut self, event: MemEvent) {
        if let Some(last) = self.events.last() {
            if event.time() < last.time() {
                self.sorted = false;
            }
        }
        self.events.push(event);
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ensures events are in time order (stable sort; no-op when sorted).
    pub fn sort(&mut self) {
        if !self.sorted {
            self.events.sort_by_key(|e| e.time());
            self.sorted = true;
        }
    }

    /// Time-ordered view of all events.
    ///
    /// # Panics
    ///
    /// Panics if events were pushed out of order and [`BmcLog::sort`] has
    /// not been called since.
    pub fn events(&self) -> &[MemEvent] {
        assert!(
            self.sorted,
            "BmcLog contains out-of-order events; call sort() first"
        );
        &self.events
    }

    /// Iterates over events regardless of sortedness.
    pub fn iter(&self) -> impl Iterator<Item = &MemEvent> {
        self.events.iter()
    }

    /// Consumes the log, returning the events in push order (callers that
    /// need a particular ordering sort the vector themselves).
    pub fn into_events(self) -> Vec<MemEvent> {
        self.events
    }

    /// Merges another log into this one.
    pub fn merge(&mut self, other: BmcLog) {
        self.sorted = false;
        self.events.extend(other.events);
        self.sort();
    }

    /// Groups events by DIMM, preserving time order within each group.
    pub fn by_dimm(&self) -> BTreeMap<DimmId, Vec<&MemEvent>> {
        let mut map: BTreeMap<DimmId, Vec<&MemEvent>> = BTreeMap::new();
        for e in &self.events {
            map.entry(e.dimm()).or_default().push(e);
        }
        map
    }

    /// Distinct servers appearing in the log.
    pub fn servers(&self) -> Vec<ServerId> {
        let mut v: Vec<ServerId> = self.events.iter().map(|e| e.dimm().server).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Counts of (CE, UE, storm) events.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut ce = 0;
        let mut ue = 0;
        let mut storm = 0;
        for e in &self.events {
            match e {
                MemEvent::Ce(_) => ce += 1,
                MemEvent::Ue(_) => ue += 1,
                MemEvent::Storm(_) => storm += 1,
            }
        }
        (ce, ue, storm)
    }

    /// Serializes the log into the compact binary wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.events.len() * 48);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&(self.events.len() as u64).to_be_bytes());
        for e in &self.events {
            encode_event(&mut buf, e);
        }
        buf
    }

    /// Deserializes a log from the binary wire format.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the input is truncated, carries a wrong
    /// magic/version, or contains an unknown event tag.
    pub fn decode(mut data: &[u8]) -> Result<BmcLog, DecodeError> {
        if data.len() < 13 {
            return Err(DecodeError::Truncated);
        }
        if take::<4>(&mut data)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = get_u8(&mut data)?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let n = u64::from_be_bytes(take(&mut data)?) as usize;
        // The count is untrusted: reserve no more than the bytes can hold.
        let mut log = BmcLog::with_capacity(n.min(data.len() / MIN_EVENT_BYTES));
        for _ in 0..n {
            log.push(decode_event(&mut data)?);
        }
        log.sort();
        Ok(log)
    }
}

impl FromIterator<MemEvent> for BmcLog {
    fn from_iter<I: IntoIterator<Item = MemEvent>>(iter: I) -> Self {
        let mut log = BmcLog::new();
        for e in iter {
            log.push(e);
        }
        log.sort();
        log
    }
}

impl Extend<MemEvent> for BmcLog {
    fn extend<I: IntoIterator<Item = MemEvent>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
        self.sort();
    }
}

fn encode_event(buf: &mut Vec<u8>, e: &MemEvent) {
    match e {
        MemEvent::Ce(ce) => {
            buf.push(TAG_CE);
            encode_common(buf, ce.time, ce.dimm);
            encode_addr(buf, &ce.addr);
            encode_transfer(buf, &ce.transfer);
        }
        MemEvent::Ue(ue) => {
            buf.push(TAG_UE);
            encode_common(buf, ue.time, ue.dimm);
            encode_addr(buf, &ue.addr);
            encode_transfer(buf, &ue.transfer);
        }
        MemEvent::Storm(s) => {
            buf.push(TAG_STORM);
            encode_common(buf, s.time, s.dimm);
            buf.extend_from_slice(&s.count.to_be_bytes());
        }
    }
}

fn encode_common(buf: &mut Vec<u8>, time: SimTime, dimm: DimmId) {
    buf.extend_from_slice(&time.as_secs().to_be_bytes());
    buf.extend_from_slice(&dimm.server.0.to_be_bytes());
    buf.push(dimm.slot);
}

fn encode_addr(buf: &mut Vec<u8>, addr: &CellAddr) {
    buf.push(addr.rank);
    buf.push(addr.bank);
    buf.extend_from_slice(&addr.row.to_be_bytes());
    buf.extend_from_slice(&addr.col.to_be_bytes());
}

fn encode_transfer(buf: &mut Vec<u8>, t: &ErrorTransfer) {
    // Each 72-bit beat is stored as u64 (low lanes) + u8 (lanes 64..72).
    for &beat in t.beats() {
        buf.extend_from_slice(&(beat as u64).to_be_bytes());
        buf.push((beat >> 64) as u8);
    }
}

/// The smallest encoded event: a storm record (tag, time, DIMM, count).
const MIN_EVENT_BYTES: usize = 1 + 13 + 4;

/// Splits the first `N` bytes off the cursor.
fn take<const N: usize>(data: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = data
        .split_first_chunk::<N>()
        .ok_or(DecodeError::Truncated)?;
    *data = rest;
    Ok(*head)
}

fn get_u8(data: &mut &[u8]) -> Result<u8, DecodeError> {
    Ok(take::<1>(data)?[0])
}

fn decode_event(data: &mut &[u8]) -> Result<MemEvent, DecodeError> {
    let tag = get_u8(data)?;
    match tag {
        TAG_CE => {
            let (time, dimm) = decode_common(data)?;
            let addr = decode_addr(data)?;
            let transfer = decode_transfer(data)?;
            Ok(MemEvent::Ce(CeEvent {
                time,
                dimm,
                addr,
                transfer,
            }))
        }
        TAG_UE => {
            let (time, dimm) = decode_common(data)?;
            let addr = decode_addr(data)?;
            let transfer = decode_transfer(data)?;
            Ok(MemEvent::Ue(UeEvent {
                time,
                dimm,
                addr,
                transfer,
            }))
        }
        TAG_STORM => {
            let (time, dimm) = decode_common(data)?;
            let count = u32::from_be_bytes(take(data)?);
            Ok(MemEvent::Storm(CeStormEvent { time, dimm, count }))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

fn decode_common(data: &mut &[u8]) -> Result<(SimTime, DimmId), DecodeError> {
    let time = SimTime::from_secs(u64::from_be_bytes(take(data)?));
    let server = u32::from_be_bytes(take(data)?);
    let slot = get_u8(data)?;
    Ok((time, DimmId::new(server, slot)))
}

fn decode_addr(data: &mut &[u8]) -> Result<CellAddr, DecodeError> {
    let rank = get_u8(data)?;
    let bank = get_u8(data)?;
    let row = u32::from_be_bytes(take(data)?);
    let col = u16::from_be_bytes(take(data)?);
    Ok(CellAddr::new(rank, bank, row, col))
}

fn decode_transfer(data: &mut &[u8]) -> Result<ErrorTransfer, DecodeError> {
    let mut beats = [0u128; BURST_BEATS as usize];
    for lanes in &mut beats {
        // 64 + 8 bits: every lane is below 72, so `from_beats` accepts it.
        let low = u64::from_be_bytes(take(data)?) as u128;
        let high = get_u8(data)? as u128;
        *lanes = low | (high << 64);
    }
    Ok(ErrorTransfer::from_beats(beats))
}

/// Failure decoding a binary BMC log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before a complete record.
    Truncated,
    /// Leading magic bytes did not match.
    BadMagic,
    /// Unsupported wire-format version.
    BadVersion(u8),
    /// Unknown event tag.
    BadTag(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown event tag {t}"),
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ce(t: u64, server: u32) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(server, 0),
            addr: CellAddr::new(0, 3, 77, 5),
            transfer: ErrorTransfer::from_bits([(0, 3), (4, 68)]),
        })
    }

    fn ue(t: u64) -> MemEvent {
        MemEvent::Ue(UeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(9, 1),
            addr: CellAddr::new(1, 0, 1, 1),
            transfer: ErrorTransfer::from_bits([(0, 0), (1, 11), (2, 22)]),
        })
    }

    #[test]
    fn push_and_sort_order_events() {
        let mut log = BmcLog::new();
        log.push(ce(100, 1));
        log.push(ce(50, 2));
        log.sort();
        let times: Vec<u64> = log.events().iter().map(|e| e.time().as_secs()).collect();
        assert_eq!(times, vec![50, 100]);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn events_panics_when_unsorted() {
        let mut log = BmcLog::new();
        log.push(ce(100, 1));
        log.push(ce(50, 2));
        let _ = log.events();
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut log = BmcLog::new();
        log.push(ce(10, 1));
        log.push(ue(20));
        log.push(MemEvent::Storm(CeStormEvent {
            time: SimTime::from_secs(30),
            dimm: DimmId::new(2, 3),
            count: 15,
        }));
        let bytes = log.encode();
        let back = BmcLog::decode(&bytes).unwrap();
        assert_eq!(back.events(), log.events());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(BmcLog::decode(b"xx"), Err(DecodeError::Truncated));
        assert_eq!(
            BmcLog::decode(b"XXXX\x01\0\0\0\0\0\0\0\0"),
            Err(DecodeError::BadMagic)
        );
        assert_eq!(
            BmcLog::decode(b"BMC1\x09\0\0\0\0\0\0\0\0"),
            Err(DecodeError::BadVersion(9))
        );
        // A forged event count must not size an allocation.
        assert_eq!(
            BmcLog::decode(b"BMC1\x01\xff\xff\xff\xff\xff\xff\xff\xff"),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn decode_rejects_truncated_event() {
        let mut log = BmcLog::new();
        log.push(ce(10, 1));
        let bytes = log.encode();
        let cut = &bytes[..bytes.len() - 3];
        assert_eq!(BmcLog::decode(cut), Err(DecodeError::Truncated));
    }

    /// The decoder before it read whole beats: one `set` per erroneous
    /// lane, kept as the oracle of `decode_transfer`.
    fn decode_transfer_per_lane(data: &mut &[u8]) -> Result<ErrorTransfer, DecodeError> {
        let mut t = ErrorTransfer::new();
        for beat in 0..BURST_BEATS {
            let low = u64::from_be_bytes(take(data)?) as u128;
            let high = get_u8(data)? as u128;
            let lanes = low | (high << 64);
            for dq in 0..72u8 {
                if (lanes >> dq) & 1 == 1 {
                    t.set(beat, dq);
                }
            }
        }
        Ok(t)
    }

    /// Encodes `t`, decodes it with both decoders and checks that both
    /// return `t` and consume the whole encoding.
    fn assert_decoders_agree(t: &ErrorTransfer) {
        let mut buf = Vec::new();
        encode_transfer(&mut buf, t);
        let (mut fast, mut slow) = (buf.as_slice(), buf.as_slice());
        let got = decode_transfer(&mut fast).unwrap();
        assert_eq!(got, decode_transfer_per_lane(&mut slow).unwrap());
        assert_eq!(got, *t);
        assert!(fast.is_empty() && slow.is_empty());
    }

    #[test]
    fn transfer_decoder_matches_per_lane_oracle_on_every_single_bit() {
        for beat in 0..BURST_BEATS {
            for dq in 0..72u8 {
                assert_decoders_agree(&ErrorTransfer::from_bits([(beat, dq)]));
            }
        }
        assert_decoders_agree(&ErrorTransfer::new());
    }

    #[test]
    fn transfer_decoder_matches_per_lane_oracle_on_random_bursts() {
        // A fixed-seed LCG: mfp-dram has no dependencies to draw from.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut word = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        const ALL_LANES: u128 = (1 << 72) - 1;
        for _ in 0..500 {
            let mut beats = [0u128; BURST_BEATS as usize];
            for b in &mut beats {
                let lanes = (u128::from(word()) << 64 | u128::from(word())) & ALL_LANES;
                // Per beat: empty, sparse or dense.
                *b = match word() % 4 {
                    0 => 0,
                    1 => lanes & u128::from(word()),
                    _ => lanes,
                };
            }
            assert_decoders_agree(&ErrorTransfer::from_beats(beats));
        }
    }

    #[test]
    fn truncated_transfer_is_rejected_at_every_length() {
        let mut buf = Vec::new();
        encode_transfer(&mut buf, &ErrorTransfer::from_bits([(7, 71), (0, 0)]));
        for len in 0..buf.len() {
            let mut cut = &buf[..len];
            assert_eq!(decode_transfer(&mut cut), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn by_dimm_groups() {
        let mut log = BmcLog::new();
        log.push(ce(10, 1));
        log.push(ce(20, 1));
        log.push(ue(30));
        let groups = log.by_dimm();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[&DimmId::new(1, 0)].len(), 2);
        assert_eq!(groups[&DimmId::new(9, 1)].len(), 1);
    }

    #[test]
    fn counts_and_servers() {
        let log: BmcLog = vec![ce(10, 1), ce(5, 2), ue(30)].into_iter().collect();
        assert_eq!(log.counts(), (2, 1, 0));
        assert_eq!(log.servers(), vec![ServerId(1), ServerId(2), ServerId(9)]);
        // FromIterator sorts.
        assert_eq!(log.events()[0].time().as_secs(), 5);
    }

    #[test]
    fn merge_resorts() {
        let mut a: BmcLog = vec![ce(10, 1)].into_iter().collect();
        let b: BmcLog = vec![ce(5, 2)].into_iter().collect();
        a.merge(b);
        assert_eq!(a.events()[0].time().as_secs(), 5);
    }
}
