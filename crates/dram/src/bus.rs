//! The DDR4 data-bus error model: which bits of a burst were wrong.
//!
//! A DDR4 access transfers a 64-byte cache line as a burst of
//! [`BURST_BEATS`] beats, each carrying [`BUS_BITS`] bits (64 data +
//! 8 ECC). The paper
//! (Fig. 1(2) and Fig. 5) analyses errors in this *(DQ lane, beat)* grid:
//! the number of erroneous DQ lanes and beats, and the distance (interval)
//! between them, are strongly associated with whether a fault eventually
//! produces an uncorrectable error — with the association differing by
//! platform ECC.

use crate::geometry::{DataWidth, BURST_BEATS, BUS_BITS};
use std::fmt;

/// Bitmap of erroneous bits across one burst: 8 beats x 72 DQ lanes.
///
/// Bit `dq` of `beats[beat]` is set when the bit transferred on DQ lane `dq`
/// during `beat` differed from the stored/expected value *before* ECC
/// correction.
///
/// # Examples
///
/// ```
/// use mfp_dram::bus::ErrorTransfer;
///
/// let mut t = ErrorTransfer::new();
/// t.set(0, 4);
/// t.set(4, 5);
/// assert_eq!(t.bit_count(), 2);
/// assert_eq!(t.dq_count(), 2);
/// assert_eq!(t.beat_count(), 2);
/// assert_eq!(t.beat_interval(), Some(4));
/// assert_eq!(t.dq_interval(), Some(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ErrorTransfer {
    beats: [u128; BURST_BEATS as usize],
}

impl ErrorTransfer {
    const LANE_MASK: u128 = (1u128 << BUS_BITS) - 1;

    /// An all-clean transfer.
    pub fn new() -> Self {
        ErrorTransfer::default()
    }

    /// Builds a transfer from `(beat, dq)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any `beat >= 8` or `dq >= 72`.
    pub fn from_bits<I: IntoIterator<Item = (u8, u8)>>(bits: I) -> Self {
        let mut t = ErrorTransfer::new();
        for (beat, dq) in bits {
            t.set(beat, dq);
        }
        t
    }

    /// Builds a transfer directly from per-beat lane bitmaps, the inverse
    /// of [`Self::beats`] — used by compact (SoA) event stores to
    /// reconstruct transfers without replaying `set` per bit.
    ///
    /// # Panics
    ///
    /// Panics if any beat has a bit set above lane [`BUS_BITS`].
    pub fn from_beats(beats: [u128; BURST_BEATS as usize]) -> Self {
        for &b in &beats {
            assert!(b & !Self::LANE_MASK == 0, "lane bit out of range");
        }
        ErrorTransfer { beats }
    }

    /// Marks the bit on `dq` during `beat` as erroneous.
    ///
    /// # Panics
    ///
    /// Panics if `beat >= 8` or `dq >= 72`.
    pub fn set(&mut self, beat: u8, dq: u8) {
        assert!(beat < BURST_BEATS, "beat {beat} out of range");
        assert!(dq < BUS_BITS, "dq {dq} out of range");
        self.beats[beat as usize] |= 1u128 << dq;
    }

    /// Whether the bit on `dq` during `beat` is erroneous.
    pub fn get(&self, beat: u8, dq: u8) -> bool {
        beat < BURST_BEATS && dq < BUS_BITS && (self.beats[beat as usize] >> dq) & 1 == 1
    }

    /// Raw per-beat lane bitmaps.
    pub fn beats(&self) -> &[u128; BURST_BEATS as usize] {
        &self.beats
    }

    /// True when no bit is erroneous.
    pub fn is_empty(&self) -> bool {
        self.beats.iter().all(|&b| b == 0)
    }

    /// Total number of erroneous bits in the burst.
    pub fn bit_count(&self) -> u32 {
        self.beats.iter().map(|b| b.count_ones()).sum()
    }

    /// Bitmask (over 72 lanes) of DQs that saw at least one erroneous bit.
    pub fn dq_mask(&self) -> u128 {
        self.beats.iter().fold(0, |acc, &b| acc | b) & Self::LANE_MASK
    }

    /// Bitmask (over 8 beats) of beats that saw at least one erroneous bit.
    pub fn beat_mask(&self) -> u8 {
        let mut m = 0u8;
        for (i, &b) in self.beats.iter().enumerate() {
            if b != 0 {
                m |= 1 << i;
            }
        }
        m
    }

    /// Number of distinct erroneous DQ lanes.
    pub fn dq_count(&self) -> u32 {
        self.dq_mask().count_ones()
    }

    /// Number of distinct erroneous beats.
    pub fn beat_count(&self) -> u32 {
        self.beat_mask().count_ones()
    }

    /// Distance between the lowest and highest erroneous DQ lane.
    ///
    /// Returns `None` for a clean transfer and `Some(0)` when a single lane
    /// is affected; the paper's Fig. 5 "DQ interval" statistic.
    pub fn dq_interval(&self) -> Option<u32> {
        let m = self.dq_mask();
        if m == 0 {
            return None;
        }
        let lo = m.trailing_zeros();
        let hi = 127 - m.leading_zeros();
        Some(hi - lo)
    }

    /// Distance between the lowest and highest erroneous beat.
    pub fn beat_interval(&self) -> Option<u32> {
        let m = self.beat_mask();
        if m == 0 {
            return None;
        }
        let lo = m.trailing_zeros();
        let hi = 7 - m.leading_zeros();
        Some(hi - lo)
    }

    /// Erroneous bits confined to the DQ lanes of device `dev` (given
    /// `width`), as a per-beat bitmap shifted down to lane 0.
    pub fn device_slice(&self, dev: u8, width: DataWidth) -> [u16; BURST_BEATS as usize] {
        let w = width.dq_per_device() as u32;
        let base = dev as u32 * w;
        let mask: u128 = ((1u128 << w) - 1) << base;
        let mut out = [0u16; BURST_BEATS as usize];
        for (i, &b) in self.beats.iter().enumerate() {
            out[i] = ((b & mask) >> base) as u16;
        }
        out
    }

    /// Bitmask over devices (lane groups of `width`) with at least one
    /// erroneous bit.
    pub fn device_mask(&self, width: DataWidth) -> u32 {
        let w = width.dq_per_device() as u32;
        let lanes = self.dq_mask();
        let mut m = 0u32;
        let devs = width.devices_per_rank() as u32;
        for d in 0..devs {
            let dev_mask: u128 = ((1u128 << w) - 1) << (d * w);
            if lanes & dev_mask != 0 {
                m |= 1 << d;
            }
        }
        m
    }

    /// Number of distinct devices with erroneous bits.
    pub fn device_count(&self, width: DataWidth) -> u32 {
        self.device_mask(width).count_ones()
    }

    /// Merges another transfer's erroneous bits into this one.
    pub fn merge(&mut self, other: &ErrorTransfer) {
        for (a, b) in self.beats.iter_mut().zip(other.beats.iter()) {
            *a |= *b;
        }
    }

    /// Iterates over all erroneous `(beat, dq)` positions, beat-major and
    /// then by ascending lane. Walks each beat's set lanes only, so a
    /// sparse burst costs its bit count rather than all 576 positions.
    pub fn iter_bits(&self) -> impl Iterator<Item = (u8, u8)> + '_ {
        self.beats.iter().enumerate().flat_map(|(beat, &lanes)| {
            let mut rest = lanes;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let dq = rest.trailing_zeros() as u8;
                    rest &= rest - 1;
                    (beat as u8, dq)
                })
            })
        })
    }
}

impl fmt::Display for ErrorTransfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "clean");
        }
        write!(
            f,
            "{} bits on {} DQs x {} beats",
            self.bit_count(),
            self.dq_count(),
            self.beat_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_transfer_properties() {
        let t = ErrorTransfer::new();
        assert!(t.is_empty());
        assert_eq!(t.bit_count(), 0);
        assert_eq!(t.dq_count(), 0);
        assert_eq!(t.beat_count(), 0);
        assert_eq!(t.dq_interval(), None);
        assert_eq!(t.beat_interval(), None);
        assert_eq!(t.to_string(), "clean");
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = ErrorTransfer::new();
        t.set(3, 71);
        assert!(t.get(3, 71));
        assert!(!t.get(3, 70));
        assert!(!t.get(2, 71));
        assert_eq!(t.bit_count(), 1);
    }

    #[test]
    #[should_panic(expected = "beat")]
    fn set_rejects_bad_beat() {
        ErrorTransfer::new().set(8, 0);
    }

    #[test]
    #[should_panic(expected = "dq")]
    fn set_rejects_bad_dq() {
        ErrorTransfer::new().set(0, 72);
    }

    #[test]
    fn from_beats_roundtrips() {
        let t = ErrorTransfer::from_bits([(0, 4), (3, 71), (7, 0)]);
        assert_eq!(ErrorTransfer::from_beats(*t.beats()), t);
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn from_beats_rejects_out_of_range_lanes() {
        let mut beats = [0u128; 8];
        beats[2] = 1u128 << 72;
        let _ = ErrorTransfer::from_beats(beats);
    }

    #[test]
    fn intervals_match_paper_semantics() {
        // Purley's high-risk pattern: 2 error DQs, 2 error beats, 4-beat interval.
        let t = ErrorTransfer::from_bits([(0, 4), (4, 6)]);
        assert_eq!(t.dq_count(), 2);
        assert_eq!(t.beat_count(), 2);
        assert_eq!(t.beat_interval(), Some(4));
        assert_eq!(t.dq_interval(), Some(2));
    }

    #[test]
    fn single_bit_has_zero_intervals() {
        let t = ErrorTransfer::from_bits([(5, 40)]);
        assert_eq!(t.dq_interval(), Some(0));
        assert_eq!(t.beat_interval(), Some(0));
    }

    #[test]
    fn device_mapping_x4() {
        // DQs 0..4 -> device 0; DQs 8..12 -> device 2.
        let t = ErrorTransfer::from_bits([(0, 1), (1, 9)]);
        assert_eq!(t.device_mask(DataWidth::X4), 0b101);
        assert_eq!(t.device_count(DataWidth::X4), 2);
        let s = t.device_slice(2, DataWidth::X4);
        assert_eq!(s[1], 0b0010);
        assert_eq!(s[0], 0);
    }

    #[test]
    fn device_mapping_x8_groups_wider() {
        let t = ErrorTransfer::from_bits([(0, 1), (1, 9)]);
        // x8: DQs 0..8 -> device 0, 8..16 -> device 1.
        assert_eq!(t.device_mask(DataWidth::X8), 0b11);
    }

    #[test]
    fn merge_unions_bits() {
        let mut a = ErrorTransfer::from_bits([(0, 0)]);
        let b = ErrorTransfer::from_bits([(7, 71)]);
        a.merge(&b);
        assert_eq!(a.bit_count(), 2);
        assert!(a.get(0, 0) && a.get(7, 71));
    }

    /// Every erroneous position by a double loop over [`ErrorTransfer::get`]:
    /// the order `iter_bits` promises, beat-major then ascending lane.
    fn naive_bits(t: &ErrorTransfer) -> Vec<(u8, u8)> {
        let mut bits = Vec::new();
        for beat in 0..BURST_BEATS {
            for dq in 0..BUS_BITS {
                if t.get(beat, dq) {
                    bits.push((beat, dq));
                }
            }
        }
        bits
    }

    #[test]
    fn iter_bits_visits_all() {
        let bits = vec![(0u8, 3u8), (2, 14), (7, 71)];
        let t = ErrorTransfer::from_bits(bits.iter().copied());
        let got: Vec<_> = t.iter_bits().collect();
        assert_eq!(got, bits);
        assert_eq!(naive_bits(&t), bits);
    }

    #[test]
    fn iter_bits_matches_naive_walk_on_every_single_bit() {
        for beat in 0..BURST_BEATS {
            for dq in 0..BUS_BITS {
                let t = ErrorTransfer::from_bits([(beat, dq)]);
                let got: Vec<_> = t.iter_bits().collect();
                assert_eq!(got, vec![(beat, dq)]);
                assert_eq!(got, naive_bits(&t));
            }
        }
    }

    #[test]
    fn iter_bits_matches_naive_walk_on_random_bursts() {
        // A fixed-seed LCG: mfp-dram has no dependencies to draw from.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut lanes = move || {
            let mut half = || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                u128::from(state)
            };
            (half() << 64 | half()) & ErrorTransfer::LANE_MASK
        };
        let (mut saw_lane_71, mut saw_beat_7) = (false, false);
        for case in 0..500 {
            let mut beats = [ErrorTransfer::LANE_MASK; BURST_BEATS as usize];
            if case > 0 {
                // Per beat: empty, sparse (about 1 lane in 8) or dense.
                for b in &mut beats {
                    *b = match lanes() % 4 {
                        0 => 0,
                        1 => lanes() & lanes() & lanes(),
                        _ => lanes(),
                    };
                }
            }
            let t = ErrorTransfer::from_beats(beats);
            let got: Vec<_> = t.iter_bits().collect();
            assert_eq!(got, naive_bits(&t), "case {case}");
            assert_eq!(got.len() as u32, t.bit_count());
            saw_lane_71 |= got.iter().any(|&(_, dq)| dq == 71);
            saw_beat_7 |= got.iter().any(|&(beat, _)| beat == 7);
        }
        assert!(
            saw_lane_71 && saw_beat_7,
            "draws must reach the last lane and beat"
        );
    }

    #[test]
    fn ecc_lanes_count_toward_dq_mask() {
        // Lane 64..72 are check bits but still physical DQ lanes on the bus.
        let t = ErrorTransfer::from_bits([(0, 64), (0, 71)]);
        assert_eq!(t.dq_count(), 2);
        assert_eq!(t.device_count(DataWidth::X4), 2); // devices 16 and 17
    }
}
