//! The byte layouts every sealed format shares.
//!
//! The serving plane's state crosses disk and pipe boundaries in six
//! CRC-sealed formats: whole files sealed in one envelope (`MFC1`
//! checkpoints, their `MFD1` container, the `MFW2` meta file, the lake's
//! `MFL1` manifest and `MFK1` catalog) and framed streams (the `MFW1`
//! log and the `MFP1` pipe). This module owns what they share, so each
//! format keeps only its own decisions (payload kinds, length limits,
//! which error a refusal becomes):
//!
//! * one big-endian [`Reader`], whose refusals are [`CodecError`]s that
//!   each format maps to its own error through a `From` impl, and `put_*`
//!   writers that append to the caller's buffer;
//! * one envelope, `magic version body crc32` ([`seal`], [`open_sealed`]);
//! * one frame, `kind seq len payload crc32` ([`frame`], [`read_frame`]),
//!   and one longest-valid-prefix scan of a `header frame*` image
//!   ([`scan_prefix`]);
//! * one layout each for [`DimmId`], [`DimmSpec`], [`OnlineConfig`],
//!   [`Alarm`], [`ScoreRecord`], the platform index and the 5-byte
//!   [`header`];
//! * one [`atomic_write`].
//!
//! Integers are big endian, `f32`s travel as their raw bits and times as
//! whole seconds, so nothing that crosses a boundary can perturb a bit.
//! Enums travel as their index in the type's `ALL` table. The crc32
//! kernel is [`crate::wal::crc32`].

use crate::online::{Alarm, OnlineConfig, ScoreRecord};
use crate::wal::crc32;
use mfp_dram::address::DimmId;
use mfp_dram::geometry::{DataWidth, DeviceGeometry, Platform};
use mfp_dram::spec::{DieProcess, DimmSpec, Frequency, Manufacturer};
use mfp_dram::time::{SimDuration, SimTime};
use std::fs::{self, File};
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::Path;

/// Bytes of the `magic version` header that opens every sealed file and
/// every framed stream.
pub const HEADER_LEN: usize = 5;
/// Bytes of a frame's `kind seq len` before its payload.
pub const FRAME_HEADER_LEN: usize = 13;
/// Bytes of the trailing crc32.
const CRC_LEN: usize = 4;
/// Data widths in code order (the type has no `ALL` table).
const WIDTHS: [DataWidth; 2] = [DataWidth::X4, DataWidth::X8];

/// Why the codec refused an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value being read.
    Short,
    /// Bytes were left over where the layout ends.
    Trailing,
    /// The envelope's magic differs from the format's.
    BadMagic,
    /// The envelope's version is outside the accepted range.
    BadVersion(u8),
    /// The envelope's crc32 does not match its contents.
    BadChecksum,
    /// A one-byte enum code past the end of its type's table.
    BadCode {
        /// The field: `"platform"`, `"manufacturer"`, `"data width"`,
        /// `"frequency"` or `"die process"`.
        what: &'static str,
        /// The code read.
        code: u8,
    },
}

/// The 5-byte `magic version` header.
pub fn header(magic: [u8; 4], version: u8) -> [u8; HEADER_LEN] {
    [magic[0], magic[1], magic[2], magic[3], version]
}

/// Appends a `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends a `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends a `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends an `f32` as its raw bits.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    put_u32(buf, v.to_bits());
}

/// Appends a time as whole seconds.
pub fn put_time(buf: &mut Vec<u8>, t: SimTime) {
    put_u64(buf, t.as_secs());
}

/// Appends a DIMM id: `server:u32 slot:u8`.
pub fn put_dimm(buf: &mut Vec<u8>, d: DimmId) {
    put_u32(buf, d.server.0);
    buf.push(d.slot);
}

/// Appends a platform's index.
pub fn put_platform(buf: &mut Vec<u8>, p: Platform) {
    buf.push(code(&Platform::ALL, p));
}

/// Appends a DIMM spec (11 bytes): manufacturer, width, frequency and
/// die process codes, `capacity_gib:u16`, ranks, then the device
/// geometry's bank groups, banks per group, row bits and column bits.
pub fn put_spec(buf: &mut Vec<u8>, s: &DimmSpec) {
    buf.push(code(&Manufacturer::ALL, s.manufacturer));
    buf.push(code(&WIDTHS, s.width));
    buf.push(code(&Frequency::ALL, s.frequency));
    buf.push(code(&DieProcess::ALL, s.process));
    put_u16(buf, s.capacity_gib);
    let g = s.geometry;
    buf.extend_from_slice(&[
        s.ranks,
        g.bank_groups,
        g.banks_per_group,
        g.row_bits,
        g.col_bits,
    ]);
}

/// Appends an online config: prediction interval, votes, alarm cooldown
/// and degraded grace, each a `u64`.
pub fn put_online(buf: &mut Vec<u8>, c: &OnlineConfig) {
    put_u64(buf, c.prediction_interval.as_secs());
    put_u64(buf, c.votes as u64);
    put_u64(buf, c.alarm_cooldown.as_secs());
    put_u64(buf, c.degraded_grace.as_secs());
}

/// Appends an alarm: `dimm time score`.
pub fn put_alarm(buf: &mut Vec<u8>, a: &Alarm) {
    put_dimm(buf, a.dimm);
    put_time(buf, a.time);
    put_f32(buf, a.score);
}

/// Appends a score record: `time dimm score`.
pub fn put_score(buf: &mut Vec<u8>, r: &ScoreRecord) {
    put_time(buf, r.time);
    put_dimm(buf, r.dimm);
    put_f32(buf, r.score);
}

/// `v`'s index in its type's table as a one-byte code; a value missing
/// from the table gets `u8::MAX`, which no decoder accepts.
fn code<T: PartialEq>(all: &[T], v: T) -> u8 {
    all.iter()
        .position(|x| *x == v)
        .map_or(u8::MAX, |i| i as u8)
}

/// A bounds-checked big-endian reader over a byte slice: a read past the
/// end is [`CodecError::Short`], never a panic or an over-read.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.data.split_at_checked(n).ok_or(CodecError::Short)?;
        self.data = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .data
            .split_first_chunk::<N>()
            .ok_or(CodecError::Short)?;
        self.data = rest;
        Ok(*head)
    }

    /// A `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_be_bytes(self.array()?))
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// An `f32` from its raw bits.
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// A time in whole seconds.
    pub fn time(&mut self) -> Result<SimTime, CodecError> {
        Ok(SimTime::from_secs(self.u64()?))
    }

    /// A `u64` element count. Every element takes at least one byte, so
    /// a count above the bytes left is [`CodecError::Short`]: a corrupt
    /// count can neither over-read nor size a huge allocation.
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        self.bounded(n)
    }

    /// A `u32` element count, bounded like [`Reader::count`].
    pub fn count_u32(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()?;
        self.bounded(n.into())
    }

    fn bounded(&self, n: u64) -> Result<usize, CodecError> {
        if n > self.data.len() as u64 {
            return Err(CodecError::Short);
        }
        Ok(n as usize)
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.data
    }

    /// Ok when every byte has been read, [`CodecError::Trailing`] if not.
    pub fn done(&self) -> Result<(), CodecError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }

    /// A DIMM id ([`put_dimm`]).
    pub fn dimm(&mut self) -> Result<DimmId, CodecError> {
        Ok(DimmId::new(self.u32()?, self.u8()?))
    }

    /// A platform index ([`put_platform`]).
    pub fn platform(&mut self) -> Result<Platform, CodecError> {
        self.pick(&Platform::ALL, "platform")
    }

    /// A DIMM spec ([`put_spec`]).
    pub fn spec(&mut self) -> Result<DimmSpec, CodecError> {
        Ok(DimmSpec {
            manufacturer: self.pick(&Manufacturer::ALL, "manufacturer")?,
            width: self.pick(&WIDTHS, "data width")?,
            frequency: self.pick(&Frequency::ALL, "frequency")?,
            process: self.pick(&DieProcess::ALL, "die process")?,
            capacity_gib: self.u16()?,
            ranks: self.u8()?,
            geometry: DeviceGeometry {
                bank_groups: self.u8()?,
                banks_per_group: self.u8()?,
                row_bits: self.u8()?,
                col_bits: self.u8()?,
            },
        })
    }

    /// An online config ([`put_online`]).
    pub fn online(&mut self) -> Result<OnlineConfig, CodecError> {
        Ok(OnlineConfig {
            prediction_interval: SimDuration::secs(self.u64()?),
            votes: self.u64()? as usize,
            alarm_cooldown: SimDuration::secs(self.u64()?),
            degraded_grace: SimDuration::secs(self.u64()?),
        })
    }

    /// An alarm ([`put_alarm`]).
    pub fn alarm(&mut self) -> Result<Alarm, CodecError> {
        Ok(Alarm {
            dimm: self.dimm()?,
            time: self.time()?,
            score: self.f32()?,
        })
    }

    /// A score record ([`put_score`]).
    pub fn score(&mut self) -> Result<ScoreRecord, CodecError> {
        Ok(ScoreRecord {
            time: self.time()?,
            dimm: self.dimm()?,
            score: self.f32()?,
        })
    }

    /// A one-byte code looked up in `all`.
    fn pick<T: Copy>(&mut self, all: &[T], what: &'static str) -> Result<T, CodecError> {
        let code = self.u8()?;
        all.get(code as usize)
            .copied()
            .ok_or(CodecError::BadCode { what, code })
    }
}

/// Seals a body in the envelope `magic version body crc32`: `body`
/// appends the format's fields after the header, and the crc covers
/// everything before it.
pub fn seal(magic: [u8; 4], version: u8, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = header(magic, version).to_vec();
    body(&mut buf);
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Opens a [`seal`]ed input: checks the magic, that the version lies in
/// `versions`, and the crc32, in that order; returns the version and the
/// body between the header and the crc.
pub fn open_sealed(
    data: &[u8],
    magic: [u8; 4],
    versions: RangeInclusive<u8>,
) -> Result<(u8, &[u8]), CodecError> {
    let mut r = Reader::new(data);
    if r.array::<4>()? != magic {
        return Err(CodecError::BadMagic);
    }
    let version = r.u8()?;
    if !versions.contains(&version) {
        return Err(CodecError::BadVersion(version));
    }
    let (sealed, crc) = data
        .split_last_chunk::<CRC_LEN>()
        .ok_or(CodecError::Short)?;
    let body = sealed.get(HEADER_LEN..).ok_or(CodecError::Short)?;
    if crc32(sealed) != u32::from_be_bytes(*crc) {
        return Err(CodecError::BadChecksum);
    }
    Ok((version, body))
}

/// Encodes one frame, `kind seq:u64 len:u32 payload crc32`, the crc
/// covering everything before it.
pub fn frame(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + CRC_LEN);
    buf.push(kind);
    put_u64(&mut buf, seq);
    put_u32(&mut buf, payload.len() as u32);
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Full length (header, payload and crc) of the frame at the head of
/// `data`, as its length field declares: `None` when `data` is shorter
/// than a header plus crc, or the sum overflows. The declared length may
/// exceed `data`; callers decide whether that is a torn tail or a wait
/// for more bytes.
pub fn frame_len(data: &[u8]) -> Option<usize> {
    if data.len() < FRAME_HEADER_LEN + CRC_LEN {
        return None;
    }
    let plen = Reader::new(&data[9..]).u32().ok()?;
    FRAME_HEADER_LEN
        .checked_add(plen as usize)?
        .checked_add(CRC_LEN)
}

/// One frame's fields, borrowed from its input.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The payload kind.
    pub kind: u8,
    /// The sequence field.
    pub seq: u64,
    /// The payload bytes.
    pub payload: &'a [u8],
}

/// Decodes the frame at the head of `data` and returns it with its full
/// length: `None` when it is torn (shorter than it declares) or fails its
/// crc. Bytes after the frame are not looked at.
pub fn read_frame(data: &[u8]) -> Option<(Frame<'_>, usize)> {
    let len = frame_len(data)?;
    let (sealed, crc) = data.get(..len)?.split_last_chunk::<CRC_LEN>()?;
    if crc32(sealed) != u32::from_be_bytes(*crc) {
        return None;
    }
    let mut r = Reader::new(sealed);
    let (kind, seq) = (r.u8().ok()?, r.u64().ok()?);
    let payload = &sealed[FRAME_HEADER_LEN..];
    Some((Frame { kind, seq, payload }, len))
}

/// The longest valid prefix of a `header frame*` image.
#[derive(Debug)]
pub struct Prefix<T> {
    /// What the valid frames decoded to, in order.
    pub items: Vec<T>,
    /// Bytes of the valid prefix, header included.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (a torn append, or garbage).
    pub torn_bytes: u64,
}

/// Scans `data` as `header` followed by frames. `decode` turns the bytes
/// at a frame boundary into an item and its encoded length, or `None`
/// where the valid prefix ends; everything from there on counts as torn.
/// An input shorter than the header that is a prefix of it is an empty
/// image torn mid-header. `None` when the leading bytes are not
/// `header`.
pub fn scan_prefix<T>(
    data: &[u8],
    header: [u8; HEADER_LEN],
    mut decode: impl FnMut(&[u8]) -> Option<(T, usize)>,
) -> Option<Prefix<T>> {
    if data.len() < HEADER_LEN {
        return header.starts_with(data).then(|| Prefix {
            items: Vec::new(),
            valid_bytes: 0,
            torn_bytes: data.len() as u64,
        });
    }
    if data[..HEADER_LEN] != header {
        return None;
    }
    let mut items = Vec::new();
    let mut at = HEADER_LEN;
    while let Some((item, len)) = decode(&data[at..]) {
        items.push(item);
        at += len;
    }
    Some(Prefix {
        items,
        valid_bytes: at as u64,
        torn_bytes: (data.len() - at) as u64,
    })
}

/// Writes `bytes` to `path` atomically: a sibling `.tmp` file is written
/// and synced, then renamed over the target.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn odd_spec() -> DimmSpec {
        DimmSpec {
            manufacturer: Manufacturer::D,
            width: DataWidth::X8,
            frequency: Frequency::Mt2400,
            process: DieProcess::P1z,
            capacity_gib: 0x0140,
            ranks: 1,
            geometry: DeviceGeometry {
                bank_groups: 2,
                banks_per_group: 8,
                row_bits: 16,
                col_bits: 11,
            },
        }
    }

    #[test]
    fn reader_refuses_short_input_and_leftover_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(CodecError::Short));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.done(), Err(CodecError::Trailing));
        assert_eq!(r.take(2), Err(CodecError::Short));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.done(), Ok(()));
        assert_eq!(r.u8(), Err(CodecError::Short));

        // A count may not exceed the bytes left after it.
        let mut buf = Vec::new();
        put_u64(&mut buf, 3);
        buf.extend_from_slice(&[9, 9]);
        assert_eq!(Reader::new(&buf).count(), Err(CodecError::Short));
        buf.push(9);
        assert_eq!(Reader::new(&buf).count(), Ok(3));
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert_eq!(Reader::new(&buf).count_u32(), Err(CodecError::Short));
    }

    #[test]
    fn shared_layouts_pin_their_bytes_and_round_trip() {
        let mut buf = Vec::new();
        put_spec(&mut buf, &odd_spec());
        assert_eq!(buf, [3, 1, 1, 2, 0x01, 0x40, 1, 2, 8, 16, 11]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.spec(), Ok(odd_spec()));
        assert_eq!(r.done(), Ok(()));

        let dimm = DimmId::new(0x0102_0304, 5);
        let time = SimTime::from_secs(0x0A0B);
        let alarm = Alarm {
            dimm,
            time,
            score: 0.75,
        };
        let score = ScoreRecord {
            time,
            dimm,
            score: -0.0,
        };
        let online = OnlineConfig {
            prediction_interval: SimDuration::secs(1),
            votes: 2,
            alarm_cooldown: SimDuration::secs(3),
            degraded_grace: SimDuration::secs(4),
        };
        let mut buf = Vec::new();
        put_dimm(&mut buf, dimm);
        assert_eq!(buf, [1, 2, 3, 4, 5]);
        put_platform(&mut buf, Platform::K920);
        put_alarm(&mut buf, &alarm);
        put_score(&mut buf, &score);
        put_online(&mut buf, &online);
        assert_eq!(buf.len(), 5 + 1 + 17 + 17 + 32);
        assert_eq!(buf[5], 2, "K920 is the third platform");
        let mut r = Reader::new(&buf);
        assert_eq!(r.dimm(), Ok(dimm));
        assert_eq!(r.platform(), Ok(Platform::K920));
        assert_eq!(r.alarm(), Ok(alarm));
        let back = r.score().unwrap();
        assert_eq!(back.score.to_bits(), score.score.to_bits());
        assert_eq!(r.online(), Ok(online));
        assert_eq!(r.done(), Ok(()));

        for (at, what) in [
            (0, "manufacturer"),
            (1, "data width"),
            (2, "frequency"),
            (3, "die process"),
        ] {
            let mut bad = Vec::new();
            put_spec(&mut bad, &odd_spec());
            bad[at] = 5;
            assert_eq!(
                Reader::new(&bad).spec(),
                Err(CodecError::BadCode { what, code: 5 })
            );
        }
        assert_eq!(
            Reader::new(&[3]).platform(),
            Err(CodecError::BadCode {
                what: "platform",
                code: 3
            })
        );
    }

    #[test]
    fn envelope_checks_magic_then_version_then_crc() {
        let sealed = seal(*b"TEST", 2, |b| put_u16(b, 0xBEEF));
        assert_eq!(&sealed[..7], b"TEST\x02\xBE\xEF");
        assert_eq!(sealed.len(), 11);
        fn open(d: &[u8]) -> Result<(u8, &[u8]), CodecError> {
            open_sealed(d, *b"TEST", 1..=2)
        }
        assert_eq!(open(&sealed), Ok((2, &[0xBE, 0xEF][..])));
        assert_eq!(open(b"TE"), Err(CodecError::Short));
        assert_eq!(open(b"XEST\x02"), Err(CodecError::BadMagic));
        assert_eq!(open(b"TEST"), Err(CodecError::Short));
        assert_eq!(open(b"TEST\x03"), Err(CodecError::BadVersion(3)));
        assert_eq!(open(b"TEST\x02abc"), Err(CodecError::Short));
        for bit in 5 * 8..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(open(&bad), Err(CodecError::BadChecksum), "bit {bit}");
        }
        let empty = seal(*b"TEST", 1, |_| {});
        assert_eq!(open(&empty), Ok((1, &[][..])));
    }

    #[test]
    fn frames_decode_and_the_scan_keeps_the_longest_valid_prefix() {
        let a = frame(7, 42, b"payload");
        assert_eq!(a.len(), FRAME_HEADER_LEN + 7 + CRC_LEN);
        assert_eq!(frame_len(&a), Some(a.len()));
        assert_eq!(frame_len(&a[..FRAME_HEADER_LEN + CRC_LEN - 1]), None);
        let (f, len) = read_frame(&a).unwrap();
        assert_eq!(
            (f.kind, f.seq, f.payload, len),
            (7, 42, &b"payload"[..], a.len())
        );
        assert!(read_frame(&a[..a.len() - 1]).is_none(), "torn");
        let mut bad = a.clone();
        bad[FRAME_HEADER_LEN] ^= 1;
        assert!(read_frame(&bad).is_none(), "crc");

        let hdr = header(*b"SCAN", 1);
        let b = frame(1, 43, &[]);
        let mut image = hdr.to_vec();
        image.extend_from_slice(&a);
        image.extend_from_slice(&b);
        image.extend_from_slice(&a[..9]);
        let decode = |d: &[u8]| read_frame(d).map(|(f, len)| (f.seq, len));
        let p = scan_prefix(&image, hdr, decode).unwrap();
        assert_eq!(p.items, [42, 43]);
        assert_eq!(p.valid_bytes as usize, image.len() - 9);
        assert_eq!(p.torn_bytes, 9);
        let torn = scan_prefix(&hdr[..3], hdr, decode).unwrap();
        assert_eq!(
            (torn.items.len(), torn.valid_bytes, torn.torn_bytes),
            (0, 0, 3)
        );
        assert!(scan_prefix(b"SCAX", hdr, decode).is_none());
        assert!(scan_prefix(b"SCAN\x02", hdr, decode).is_none());
    }
}
