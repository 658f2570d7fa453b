//! Error-bit (DQ / beat) statistics over a DIMM's CEs — the raw material of
//! the paper's Fig. 5 analysis and of the error-bit feature family.

use mfp_dram::event::CeEvent;

/// Aggregate DQ/beat statistics over a set of CE transfers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorBitStats {
    /// Number of CEs aggregated.
    pub events: u32,
    /// Maximum distinct erroneous DQ lanes in one CE.
    pub max_dq_count: u32,
    /// Mean distinct erroneous DQ lanes per CE.
    pub mean_dq_count: f32,
    /// Maximum distinct erroneous beats in one CE.
    pub max_beat_count: u32,
    /// Mean distinct erroneous beats per CE.
    pub mean_beat_count: f32,
    /// Maximum DQ interval (max - min erroneous lane) in one CE.
    pub max_dq_interval: u32,
    /// Maximum beat interval in one CE.
    pub max_beat_interval: u32,
    /// Maximum erroneous bits in one CE.
    pub max_bits: u32,
    /// CEs with >= 2 DQs *and* >= 2 beats (complex patterns).
    pub complex_events: u32,
    /// CEs whose beat interval is exactly 4 (the Purley risk signature).
    pub interval4_events: u32,
    /// CEs with >= 4 erroneous DQs (the Whitley risk signature).
    pub wide_dq_events: u32,
    /// CEs with >= 5 erroneous beats (the Whitley risk signature).
    pub many_beat_events: u32,
    /// Maximum devices touched in one CE.
    pub max_devices: u32,
    /// Union of devices touched across all CEs.
    pub total_devices: u32,
    /// Max distinct DQ lanes accumulated *within one device* across the
    /// whole window (union of error bits, as in Li et al. \[7\]).
    pub union_dev_dq: u32,
    /// Max distinct beats accumulated within one device across the window.
    pub union_dev_beats: u32,
    /// Beat interval (max - min) of the accumulated per-device beat mask.
    pub union_dev_beat_interval: u32,
    /// 1 when some device's accumulated beat mask contains a pair of beats
    /// exactly 4 apart — the Purley risk signature.
    pub union_dev_interval4: u32,
    /// DQ interval of the accumulated per-device DQ mask.
    pub union_dev_dq_interval: u32,
}

impl ErrorBitStats {
    /// Computes statistics over CE events (device counts use `width`).
    pub fn from_ces<'a, I>(ces: I, width: mfp_dram::geometry::DataWidth) -> Self
    where
        I: IntoIterator<Item = &'a CeEvent>,
    {
        let mut s = ErrorBitStats::default();
        let mut dq_sum = 0u64;
        let mut beat_sum = 0u64;
        let mut device_union = 0u32;
        let w = width.dq_per_device() as usize;
        let n_dev = width.devices_per_rank() as usize;
        let mut dev_dq = vec![0u8; n_dev];
        let mut dev_beats = vec![0u8; n_dev];
        for ce in ces {
            let t = &ce.transfer;
            let dq = t.dq_count();
            let beats = t.beat_count();
            s.events += 1;
            dq_sum += dq as u64;
            beat_sum += beats as u64;
            s.max_dq_count = s.max_dq_count.max(dq);
            s.max_beat_count = s.max_beat_count.max(beats);
            s.max_bits = s.max_bits.max(t.bit_count());
            if let Some(i) = t.dq_interval() {
                s.max_dq_interval = s.max_dq_interval.max(i);
            }
            if let Some(i) = t.beat_interval() {
                s.max_beat_interval = s.max_beat_interval.max(i);
                if i == 4 {
                    s.interval4_events += 1;
                }
            }
            if dq >= 2 && beats >= 2 {
                s.complex_events += 1;
            }
            if dq >= 4 {
                s.wide_dq_events += 1;
            }
            if beats >= 5 {
                s.many_beat_events += 1;
            }
            let devs = t.device_count(width);
            s.max_devices = s.max_devices.max(devs);
            device_union |= t.device_mask(width);
            for (beat, dq) in t.iter_bits() {
                let dev = (dq as usize / w).min(n_dev - 1);
                dev_dq[dev] |= 1 << (dq as usize - dev * w);
                dev_beats[dev] |= 1 << beat;
            }
        }
        if s.events > 0 {
            s.mean_dq_count = dq_sum as f32 / s.events as f32;
            s.mean_beat_count = beat_sum as f32 / s.events as f32;
        }
        s.total_devices = device_union.count_ones();
        for dev in 0..n_dev {
            fold_device_union(&mut s, dev_dq[dev], dev_beats[dev]);
        }
        s
    }
}

/// Folds one device's accumulated (DQ mask, beat mask) into the window-union
/// statistics. Shared by the batch path and [`RollingErrorBitStats`] so both
/// evaluate the identical expressions.
fn fold_device_union(s: &mut ErrorBitStats, dqm: u8, bm: u8) {
    if dqm == 0 || bm == 0 {
        return;
    }
    s.union_dev_dq = s.union_dev_dq.max(dqm.count_ones());
    s.union_dev_beats = s.union_dev_beats.max(bm.count_ones());
    s.union_dev_beat_interval = s.union_dev_beat_interval.max(mask_span(bm));
    if bm & (bm >> 4) != 0 {
        s.union_dev_interval4 = 1;
    }
    s.union_dev_dq_interval = s.union_dev_dq_interval.max(mask_span(dqm));
}

/// Most devices a rank has: 18 x4 devices.
const MAX_DEVICES: usize = 18;

/// Per-CE bit geometry derived once from the transfer, so sliding windows
/// can insert/evict the event without re-walking its bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CeBitProfile {
    /// Distinct erroneous DQ lanes.
    pub dq_count: u32,
    /// Distinct erroneous beats.
    pub beat_count: u32,
    /// Total erroneous bits.
    pub bit_count: u32,
    /// DQ interval (`None` for a clean transfer).
    pub dq_interval: Option<u32>,
    /// Beat interval (`None` for a clean transfer).
    pub beat_interval: Option<u32>,
    /// Bitmask of devices with at least one erroneous bit.
    pub device_mask: u32,
    /// The first `devices` entries are live; the rest stay zero.
    dev_bits: [(u8, u8, u8); MAX_DEVICES],
    devices: u8,
}

impl CeBitProfile {
    /// Derives the profile of one transfer under the given device width,
    /// in one pass over its 8 beats and without allocating: this runs once
    /// per CE a feature stream holds.
    pub fn of(
        transfer: &mfp_dram::bus::ErrorTransfer,
        width: mfp_dram::geometry::DataWidth,
    ) -> Self {
        let w = u32::from(width.dq_per_device());
        let last_dev = u32::from(width.devices_per_rank()) - 1;
        let mut lanes_union = 0u128;
        let mut beat_mask = 0u8;
        let mut bit_count = 0u32;
        let mut dev_dq = [0u8; MAX_DEVICES];
        let mut dev_beats = [0u8; MAX_DEVICES];
        let mut device_mask = 0u32;
        for (beat, &lanes) in transfer.beats().iter().enumerate() {
            if lanes == 0 {
                continue;
            }
            lanes_union |= lanes;
            beat_mask |= 1 << beat;
            bit_count += lanes.count_ones();
            let mut rest = lanes;
            while rest != 0 {
                let dq = rest.trailing_zeros();
                rest &= rest - 1;
                let dev = (dq / w).min(last_dev);
                dev_dq[dev as usize] |= 1 << (dq - dev * w);
                dev_beats[dev as usize] |= 1 << beat;
                device_mask |= 1 << dev;
            }
        }
        let mut profile = CeBitProfile {
            dq_count: lanes_union.count_ones(),
            beat_count: beat_mask.count_ones(),
            bit_count,
            dq_interval: (lanes_union != 0)
                .then(|| 127 - lanes_union.leading_zeros() - lanes_union.trailing_zeros()),
            beat_interval: (beat_mask != 0).then(|| mask_span(beat_mask)),
            device_mask,
            ..CeBitProfile::default()
        };
        let mut m = device_mask;
        while m != 0 {
            let d = m.trailing_zeros() as usize;
            m &= m - 1;
            profile.dev_bits[profile.devices as usize] = (d as u8, dev_dq[d], dev_beats[d]);
            profile.devices += 1;
        }
        profile
    }

    /// `(device, DQ mask within device, beat mask)` per touched device,
    /// by ascending device.
    pub fn dev_bits(&self) -> &[(u8, u8, u8)] {
        &self.dev_bits[..self.devices as usize]
    }
}

/// Sliding maximum over small non-negative integers: a count-per-value
/// histogram whose maximum can be evicted in amortized O(1).
#[derive(Debug, Clone, Default)]
pub struct RollingMax {
    counts: Vec<u32>,
    max: usize,
}

impl RollingMax {
    /// An empty window (maximum 0, matching the batch default).
    pub fn new() -> Self {
        RollingMax::default()
    }

    /// Adds one observation of `v`.
    pub fn insert(&mut self, v: u32) {
        let v = v as usize;
        if v >= self.counts.len() {
            self.counts.resize(v + 1, 0);
        }
        self.counts[v] += 1;
        self.max = self.max.max(v);
    }

    /// Removes one previously inserted observation of `v`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `v` has no live observation.
    pub fn remove(&mut self, v: u32) {
        let v = v as usize;
        debug_assert!(
            self.counts.get(v).copied().unwrap_or(0) > 0,
            "removing absent value"
        );
        self.counts[v] -= 1;
        while self.max > 0 && self.counts[self.max] == 0 {
            self.max -= 1;
        }
    }

    /// The current maximum (0 when the window is empty).
    pub fn max(&self) -> u32 {
        self.max as u32
    }
}

/// Incremental [`ErrorBitStats`] over a sliding event window: insertion and
/// eviction are O(bits of the event); [`Self::stats`] reads the exact
/// batch aggregate, including per-device union masks, off masks that
/// insertion and eviction keep current.
#[derive(Debug, Clone, Default)]
pub struct RollingErrorBitStats {
    events: u32,
    dq_sum: u64,
    beat_sum: u64,
    complex_events: u32,
    interval4_events: u32,
    wide_dq_events: u32,
    many_beat_events: u32,
    max_dq: RollingMax,
    max_beat: RollingMax,
    max_bits: RollingMax,
    max_dq_interval: RollingMax,
    max_beat_interval: RollingMax,
    max_devices: RollingMax,
    /// Devices some live event touches (the windowed union of
    /// `device_mask`): exactly those whose DQ union mask is non-zero.
    devices: u32,
    /// Per-device union of the live events' DQ and beat masks.
    dev_dq: [u8; MAX_DEVICES],
    dev_beats: [u8; MAX_DEVICES],
    /// Per-device live-occurrence counts of each DQ bit (`[d][0]`) and
    /// beat (`[d][1]`): a mask bit clears when its count returns to zero.
    /// Boxed, because only insertion and eviction read them.
    dev_bit_counts: Box<[[[u32; 8]; 2]; MAX_DEVICES]>,
}

impl RollingErrorBitStats {
    /// An empty window. Every array is sized for the widest rank, so the
    /// device width matters only to the profiles inserted.
    pub fn new() -> Self {
        RollingErrorBitStats::default()
    }

    /// Adds one CE's profile to the window.
    pub fn insert(&mut self, p: &CeBitProfile) {
        self.events += 1;
        self.dq_sum += p.dq_count as u64;
        self.beat_sum += p.beat_count as u64;
        self.max_dq.insert(p.dq_count);
        self.max_beat.insert(p.beat_count);
        self.max_bits.insert(p.bit_count);
        if let Some(i) = p.dq_interval {
            self.max_dq_interval.insert(i);
        }
        if let Some(i) = p.beat_interval {
            self.max_beat_interval.insert(i);
            if i == 4 {
                self.interval4_events += 1;
            }
        }
        if p.dq_count >= 2 && p.beat_count >= 2 {
            self.complex_events += 1;
        }
        if p.dq_count >= 4 {
            self.wide_dq_events += 1;
        }
        if p.beat_count >= 5 {
            self.many_beat_events += 1;
        }
        self.max_devices.insert(p.device_mask.count_ones());
        for &(dev, dqm, bm) in p.dev_bits() {
            let d = dev as usize;
            self.devices |= 1 << d;
            let [dq_counts, beat_counts] = &mut self.dev_bit_counts[d];
            self.dev_dq[d] |= add_bits(dq_counts, dqm);
            self.dev_beats[d] |= add_bits(beat_counts, bm);
        }
    }

    /// Evicts one previously inserted CE's profile from the window.
    pub fn remove(&mut self, p: &CeBitProfile) {
        debug_assert!(self.events > 0, "evicting from an empty window");
        self.events -= 1;
        self.dq_sum -= p.dq_count as u64;
        self.beat_sum -= p.beat_count as u64;
        self.max_dq.remove(p.dq_count);
        self.max_beat.remove(p.beat_count);
        self.max_bits.remove(p.bit_count);
        if let Some(i) = p.dq_interval {
            self.max_dq_interval.remove(i);
        }
        if let Some(i) = p.beat_interval {
            self.max_beat_interval.remove(i);
            if i == 4 {
                self.interval4_events -= 1;
            }
        }
        if p.dq_count >= 2 && p.beat_count >= 2 {
            self.complex_events -= 1;
        }
        if p.dq_count >= 4 {
            self.wide_dq_events -= 1;
        }
        if p.beat_count >= 5 {
            self.many_beat_events -= 1;
        }
        self.max_devices.remove(p.device_mask.count_ones());
        for &(dev, dqm, bm) in p.dev_bits() {
            let d = dev as usize;
            let [dq_counts, beat_counts] = &mut self.dev_bit_counts[d];
            self.dev_dq[d] &= !sub_bits(dq_counts, dqm);
            self.dev_beats[d] &= !sub_bits(beat_counts, bm);
            if self.dev_dq[d] == 0 {
                self.devices &= !(1 << d);
            }
        }
    }

    /// The aggregate over the current window, bit-identical to
    /// [`ErrorBitStats::from_ces`] over the same events.
    pub fn stats(&self) -> ErrorBitStats {
        let mut s = ErrorBitStats {
            events: self.events,
            max_dq_count: self.max_dq.max(),
            max_beat_count: self.max_beat.max(),
            max_bits: self.max_bits.max(),
            max_dq_interval: self.max_dq_interval.max(),
            max_beat_interval: self.max_beat_interval.max(),
            complex_events: self.complex_events,
            interval4_events: self.interval4_events,
            wide_dq_events: self.wide_dq_events,
            many_beat_events: self.many_beat_events,
            max_devices: self.max_devices.max(),
            total_devices: self.devices.count_ones(),
            ..ErrorBitStats::default()
        };
        if s.events > 0 {
            s.mean_dq_count = self.dq_sum as f32 / s.events as f32;
            s.mean_beat_count = self.beat_sum as f32 / s.events as f32;
        }
        let mut m = self.devices;
        while m != 0 {
            let d = m.trailing_zeros() as usize;
            m &= m - 1;
            fold_device_union(&mut s, self.dev_dq[d], self.dev_beats[d]);
        }
        s
    }
}

/// Counts one occurrence of every set bit of `mask`; returns the bits
/// whose count left zero.
fn add_bits(counts: &mut [u32; 8], mask: u8) -> u8 {
    let mut entered = 0;
    let mut m = mask;
    while m != 0 {
        let b = m.trailing_zeros() as usize;
        m &= m - 1;
        if counts[b] == 0 {
            entered |= 1 << b;
        }
        counts[b] += 1;
    }
    entered
}

/// Drops one occurrence of every set bit of `mask`; returns the bits
/// whose count returned to zero.
fn sub_bits(counts: &mut [u32; 8], mask: u8) -> u8 {
    let mut left = 0;
    let mut m = mask;
    while m != 0 {
        let b = m.trailing_zeros() as usize;
        m &= m - 1;
        counts[b] -= 1;
        if counts[b] == 0 {
            left |= 1 << b;
        }
    }
    left
}

/// Distance between the lowest and highest set bit of a non-zero mask.
fn mask_span(mask: u8) -> u32 {
    debug_assert!(mask != 0);
    (7 - mask.leading_zeros()) - mask.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::{CellAddr, DimmId};
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::geometry::DataWidth;
    use mfp_dram::time::SimTime;

    fn ce(bits: &[(u8, u8)]) -> CeEvent {
        CeEvent {
            time: SimTime::from_secs(0),
            dimm: DimmId::new(0, 0),
            addr: CellAddr::new(0, 0, 1, 1),
            transfer: ErrorTransfer::from_bits(bits.iter().copied()),
        }
    }

    #[test]
    fn empty_set_is_default() {
        let s = ErrorBitStats::from_ces(std::iter::empty(), DataWidth::X4);
        assert_eq!(s, ErrorBitStats::default());
    }

    #[test]
    fn purley_signature_counts() {
        // 2 DQs, beats {1, 5}: interval 4, complex.
        let events = [ce(&[(1, 20), (5, 21)])];
        let s = ErrorBitStats::from_ces(events.iter(), DataWidth::X4);
        assert_eq!(s.max_dq_count, 2);
        assert_eq!(s.max_beat_count, 2);
        assert_eq!(s.max_beat_interval, 4);
        assert_eq!(s.interval4_events, 1);
        assert_eq!(s.complex_events, 1);
        assert_eq!(s.wide_dq_events, 0);
    }

    #[test]
    fn whitley_signature_counts() {
        // A device-wide CE: 4 DQs of device 5 across 5 beats.
        let bits: Vec<(u8, u8)> = (0..5u8)
            .flat_map(|b| (0..4u8).map(move |q| (b, 20 + q)))
            .collect();
        let events = [ce(&bits)];
        let s = ErrorBitStats::from_ces(events.iter(), DataWidth::X4);
        assert_eq!(s.max_dq_count, 4);
        assert_eq!(s.max_beat_count, 5);
        assert_eq!(s.wide_dq_events, 1);
        assert_eq!(s.many_beat_events, 1);
        assert_eq!(s.max_devices, 1);
    }

    #[test]
    fn means_average_over_events() {
        let events = [ce(&[(0, 0)]), ce(&[(0, 0), (1, 1), (2, 2)])];
        let s = ErrorBitStats::from_ces(events.iter(), DataWidth::X4);
        assert_eq!(s.events, 2);
        assert!((s.mean_dq_count - 2.0).abs() < 1e-6);
        assert!((s.mean_beat_count - 2.0).abs() < 1e-6);
    }

    #[test]
    fn union_accumulates_across_events() {
        // Two single-bit CEs of the same device: individually trivial, but
        // their union shows 2 DQs across beats {1, 5} — interval 4.
        let events = [ce(&[(1, 20)]), ce(&[(5, 21)])];
        let s = ErrorBitStats::from_ces(events.iter(), DataWidth::X4);
        assert_eq!(s.max_dq_count, 1, "per-event stats stay trivial");
        assert_eq!(s.union_dev_dq, 2);
        assert_eq!(s.union_dev_beats, 2);
        assert_eq!(s.union_dev_beat_interval, 4);
        assert_eq!(s.union_dev_interval4, 1);
        assert_eq!(s.union_dev_dq_interval, 1);
    }

    #[test]
    fn union_is_per_device_not_global() {
        // Bits on two different devices never merge into one footprint.
        let events = [ce(&[(1, 0)]), ce(&[(5, 40)])];
        let s = ErrorBitStats::from_ces(events.iter(), DataWidth::X4);
        assert_eq!(s.union_dev_dq, 1);
        assert_eq!(s.union_dev_interval4, 0);
    }

    #[test]
    fn mask_span_measures_distance() {
        assert_eq!(mask_span(0b0010_0010), 4);
        assert_eq!(mask_span(0b1000_0001), 7);
        assert_eq!(mask_span(0b0000_1000), 0);
    }

    #[test]
    fn device_union_accumulates() {
        let events = [ce(&[(0, 0)]), ce(&[(0, 40)])];
        let s = ErrorBitStats::from_ces(events.iter(), DataWidth::X4);
        assert_eq!(s.max_devices, 1);
        assert_eq!(s.total_devices, 2);
    }

    fn assorted_events() -> Vec<CeEvent> {
        vec![
            ce(&[(0, 0)]),
            ce(&[(1, 20), (5, 21)]),
            ce(&[(0, 0), (1, 1), (2, 2)]),
            ce(&[(3, 40), (3, 41), (7, 40)]),
            ce(&[(0, 63), (4, 67), (2, 71)]),
            ce(&[(2, 8), (2, 9), (2, 10), (2, 11), (6, 8)]),
        ]
    }

    #[test]
    fn rolling_matches_batch_on_every_prefix() {
        for width in [DataWidth::X4, DataWidth::X8] {
            let events = assorted_events();
            let mut rolling = RollingErrorBitStats::new();
            for k in 0..=events.len() {
                let batch = ErrorBitStats::from_ces(events[..k].iter(), width);
                assert_eq!(rolling.stats(), batch, "prefix {k} ({width:?})");
                if k < events.len() {
                    rolling.insert(&CeBitProfile::of(&events[k].transfer, width));
                }
            }
        }
    }

    #[test]
    fn rolling_matches_batch_under_eviction() {
        for width in [DataWidth::X4, DataWidth::X8] {
            let events = assorted_events();
            let profiles: Vec<CeBitProfile> = events
                .iter()
                .map(|e| CeBitProfile::of(&e.transfer, width))
                .collect();
            // Slide a length-3 window across the sequence.
            let mut rolling = RollingErrorBitStats::new();
            for hi in 0..events.len() {
                rolling.insert(&profiles[hi]);
                if hi >= 3 {
                    rolling.remove(&profiles[hi - 3]);
                }
                let lo = (hi + 1).saturating_sub(3);
                let batch = ErrorBitStats::from_ces(events[lo..=hi].iter(), width);
                assert_eq!(rolling.stats(), batch, "window [{lo}, {hi}] ({width:?})");
            }
            // Draining the window returns it to the empty aggregate.
            let lo = events.len().saturating_sub(3);
            for p in &profiles[lo..] {
                rolling.remove(p);
            }
            assert_eq!(rolling.stats(), ErrorBitStats::default());
        }
        // Random multisets: inserts and removals of arbitrary live members
        // (not first in, first out), repeats included, so every per-bit
        // count and union-mask bit goes up and back down in any order.
        for width in [DataWidth::X4, DataWidth::X8] {
            let w = width.dq_per_device();
            for seed in 0..64u64 {
                let mut rng = mfp_rng::StdRng::seed_from_u64(seed);
                let pool: Vec<CeEvent> = (0..12)
                    .map(|_| {
                        // Mostly one device's lanes, sometimes any lane.
                        let dev = rng.random_range(0..width.devices_per_rank());
                        let n = rng.random_range(1..6);
                        let bits: Vec<(u8, u8)> = (0..n)
                            .map(|_| {
                                let dq = if rng.random_range(0..4) == 0 {
                                    rng.random_range(0..72u8)
                                } else {
                                    dev * w + rng.random_range(0..w)
                                };
                                (rng.random_range(0..8u8), dq)
                            })
                            .collect();
                        ce(&bits)
                    })
                    .collect();
                let mut rolling = RollingErrorBitStats::new();
                let mut live: Vec<usize> = Vec::new();
                for step in 0..200 {
                    if live.is_empty() || rng.random_range(0..5) < 3 {
                        let k = rng.random_range(0..pool.len());
                        rolling.insert(&CeBitProfile::of(&pool[k].transfer, width));
                        live.push(k);
                    } else {
                        let k = live.swap_remove(rng.random_range(0..live.len()));
                        rolling.remove(&CeBitProfile::of(&pool[k].transfer, width));
                    }
                    let batch = ErrorBitStats::from_ces(live.iter().map(|&k| &pool[k]), width);
                    assert_eq!(
                        rolling.stats(),
                        batch,
                        "seed {seed}, step {step} ({width:?})"
                    );
                }
                for k in live.drain(..) {
                    rolling.remove(&CeBitProfile::of(&pool[k].transfer, width));
                }
                assert_eq!(rolling.stats(), ErrorBitStats::default());
            }
        }
    }

    #[test]
    fn rolling_max_tracks_eviction() {
        let mut m = RollingMax::new();
        assert_eq!(m.max(), 0);
        m.insert(3);
        m.insert(7);
        m.insert(3);
        assert_eq!(m.max(), 7);
        m.remove(7);
        assert_eq!(m.max(), 3);
        m.remove(3);
        m.remove(3);
        assert_eq!(m.max(), 0);
    }

    #[test]
    fn profile_mirrors_transfer_statistics() {
        let t = ErrorTransfer::from_bits([(1, 20), (5, 21)]);
        let p = CeBitProfile::of(&t, DataWidth::X4);
        assert_eq!(p.dq_count, 2);
        assert_eq!(p.beat_count, 2);
        assert_eq!(p.beat_interval, Some(4));
        assert_eq!(p.device_mask, 1 << 5);
        assert_eq!(p.dev_bits(), [(5, 0b11, 0b0010_0010)]);
    }
}
