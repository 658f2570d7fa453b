//! DRAM fault models: spatial footprints, bit-pattern signatures and
//! temporal severity evolution.
//!
//! The taxonomy follows the field studies the paper builds on (Sridharan et
//! al. \[10, 11\], Beigi et al. HPCA'23 \[12\]): cell, row, column, bank and
//! whole-device faults within one chip, plus multi-device faults on shared
//! I/O paths. A fault owns
//!
//! * a *spatial footprint* — which addresses it can corrupt,
//! * a *bit-pattern signature* — which (DQ, beat) grid positions it can
//!   flip (e.g. the stride-4 beat signature of a column-select defect),
//! * a *severity profile* — the per-bit flip probability and how it evolves
//!   (stable for benign faults, exponentially degrading for faults on the
//!   way to an uncorrectable error, optionally plateauing), and
//! * an optional *spread plan* — escalation onto a second device through a
//!   shared connector path, the dominant UE mechanism on SDDC-protected
//!   platforms (Whitley / K920).

use mfp_dram::address::{CellAddr, Region};
use mfp_dram::bus::ErrorTransfer;
use mfp_dram::geometry::{DataWidth, DeviceGeometry, BURST_BEATS};
use mfp_dram::time::{SimDuration, SimTime};
use mfp_rng::StdRng;

/// High-level spatial fault mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultMode {
    /// A single stuck/weak cell.
    Cell,
    /// A whole row (word-line defect).
    Row,
    /// A whole column (bit-line / column-select defect).
    Column,
    /// A whole bank (sense-amp / decoder defect).
    Bank,
    /// A whole device (chip I/O or internal logic).
    Device,
    /// Multiple devices at once (connector / shared bus).
    MultiDevice,
}

impl FaultMode {
    /// All modes in display order.
    pub const ALL: [FaultMode; 6] = [
        FaultMode::Cell,
        FaultMode::Row,
        FaultMode::Column,
        FaultMode::Bank,
        FaultMode::Device,
        FaultMode::MultiDevice,
    ];

    /// Mean rate (per day) at which accesses hit this fault's footprint —
    /// larger footprints are hit more often by demand traffic and patrol
    /// scrub.
    pub fn base_hit_rate_per_day(self) -> f64 {
        match self {
            FaultMode::Cell => 0.8,
            FaultMode::Row => 3.0,
            FaultMode::Column => 2.5,
            FaultMode::Bank => 5.0,
            FaultMode::Device => 6.5,
            FaultMode::MultiDevice => 8.0,
        }
    }
}

impl std::fmt::Display for FaultMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultMode::Cell => "cell",
            FaultMode::Row => "row",
            FaultMode::Column => "column",
            FaultMode::Bank => "bank",
            FaultMode::Device => "device",
            FaultMode::MultiDevice => "multi-device",
        };
        write!(f, "{s}")
    }
}

/// Temporal evolution of a fault's per-bit flip probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeverityProfile {
    /// Severity at onset.
    pub base: f64,
    /// Doubling time in days (ignored unless `degrading`).
    pub tau_days: f64,
    /// Hard ceiling.
    pub max: f64,
    /// Whether severity grows over time.
    pub degrading: bool,
    /// If set, growth stops once severity reaches this value (a degrading
    /// fault that plateaus and never becomes a UE).
    pub stall_at: Option<f64>,
    /// Halving time (days) of a stalled fault's severity: plateaued faults
    /// fade as sparing / page-offlining takes effect. `None` = flat
    /// plateau.
    pub stall_decay_tau_days: Option<f64>,
}

impl SeverityProfile {
    /// A stable (benign) profile.
    pub fn stable(severity: f64) -> Self {
        SeverityProfile {
            base: severity,
            tau_days: f64::INFINITY,
            max: severity,
            degrading: false,
            stall_at: None,
            stall_decay_tau_days: None,
        }
    }

    /// An exponentially degrading profile.
    pub fn degrading(base: f64, tau_days: f64, max: f64) -> Self {
        SeverityProfile {
            base,
            tau_days,
            max,
            degrading: true,
            stall_at: None,
            stall_decay_tau_days: None,
        }
    }

    /// Severity after `elapsed` time since onset.
    pub fn severity(&self, elapsed: SimDuration) -> f64 {
        if !self.degrading {
            return self.base;
        }
        let grown = self.base * (elapsed.as_days_f64() / self.tau_days).exp2();
        let capped = grown.min(self.max);
        let Some(stall) = self.stall_at else {
            return capped;
        };
        if capped < stall {
            return capped;
        }
        // Stalled. Optionally decay from the moment the plateau was hit.
        match self.stall_decay_tau_days {
            None => stall,
            Some(decay_tau) => {
                let t_stall = self.tau_days * (stall / self.base).log2().max(0.0);
                let since = (elapsed.as_days_f64() - t_stall).max(0.0);
                stall * (-since / decay_tau).exp2()
            }
        }
    }

    /// Days after onset at which severity reaches `target` (ignoring the
    /// stall), or `None` for stable profiles or unreachable targets.
    pub fn days_to_reach(&self, target: f64) -> Option<f64> {
        if !self.degrading || target <= self.base {
            return if target <= self.base { Some(0.0) } else { None };
        }
        if target > self.max || self.stall_at.is_some_and(|s| target > s) {
            return None;
        }
        Some(self.tau_days * (target / self.base).log2())
    }
}

/// Escalation of a fault onto a second device via a shared I/O path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The second device that starts erring.
    pub device: u8,
    /// When the spread activates.
    pub onset: SimTime,
    /// Severity evolution of the secondary device.
    pub profile: SeverityProfile,
}

/// One fault instance on a DIMM.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Spatial mode.
    pub mode: FaultMode,
    /// Primary affected device (index within the rank).
    pub device: u8,
    /// Additional devices affected from onset (multi-device faults).
    pub extra_devices: Vec<u8>,
    /// Spatial footprint within the rank.
    pub region: Region,
    /// Within-device DQ lanes the fault can flip (bit `i` = lane `i`).
    pub dq_mask: u8,
    /// Beats the fault can flip (bit `i` = beat `i`).
    pub beat_mask: u8,
    /// When the fault appears.
    pub onset: SimTime,
    /// Severity evolution.
    pub profile: SeverityProfile,
    /// Rate at which accesses hit the footprint, per day.
    pub hit_rate_per_day: f64,
    /// Optional escalation to a second device.
    pub spread: Option<Spread>,
}

impl Fault {
    /// Severity of the primary device at time `t` (0 before onset).
    pub fn severity_at(&self, t: SimTime) -> f64 {
        match t.checked_duration_since(self.onset) {
            Some(d) => self.profile.severity(d),
            None => 0.0,
        }
    }

    /// Severity of the spread device at time `t`, if the spread is active.
    pub fn spread_severity_at(&self, t: SimTime) -> Option<(u8, f64)> {
        let sp = self.spread.as_ref()?;
        let d = t.checked_duration_since(sp.onset)?;
        Some((sp.device, sp.profile.severity(d)))
    }

    /// Samples the burst error pattern produced when an access hits the
    /// footprint at time `t`. Always contains at least one erroneous bit.
    pub fn sample_transfer(&self, t: SimTime, width: DataWidth, rng: &mut StdRng) -> ErrorTransfer {
        let mut transfer = ErrorTransfer::new();
        let w = width.dq_per_device();
        let sev = self.severity_at(t);

        let flip_device =
            |dev: u8, severity: f64, transfer: &mut ErrorTransfer, rng: &mut StdRng| {
                for beat in 0..BURST_BEATS {
                    if (self.beat_mask >> beat) & 1 == 0 {
                        continue;
                    }
                    for dq in 0..w {
                        if (self.dq_mask >> dq) & 1 == 0 {
                            continue;
                        }
                        if rng.random::<f64>() < severity {
                            transfer.set(beat, dev * w + dq);
                        }
                    }
                }
            };

        flip_device(self.device, sev, &mut transfer, rng);
        for &dev in &self.extra_devices {
            flip_device(dev, sev, &mut transfer, rng);
        }
        if let Some((dev, ssev)) = self.spread_severity_at(t) {
            flip_device(dev, ssev, &mut transfer, rng);
        }

        if transfer.is_empty() {
            // The access observed the fault: guarantee one erroneous bit.
            let beat = random_set_bit(self.beat_mask, rng);
            let dq = random_set_bit(self.dq_mask, rng);
            transfer.set(beat, self.device * w + dq.min(w - 1));
        }
        transfer
    }

    /// Samples a representative failing address inside the footprint.
    pub fn sample_addr(&self, geom: &DeviceGeometry, rng: &mut StdRng) -> CellAddr {
        match self.region {
            Region::Cell { addr } => addr,
            Region::Row { rank, bank, row } => {
                CellAddr::new(rank, bank, row, rng.random_range(0..geom.cols() as u16))
            }
            Region::Column { rank, bank, col } => {
                CellAddr::new(rank, bank, rng.random_range(0..geom.rows()), col)
            }
            Region::Bank { rank, bank } => CellAddr::new(
                rank,
                bank,
                rng.random_range(0..geom.rows()),
                rng.random_range(0..geom.cols() as u16),
            ),
            Region::Rank { rank } => CellAddr::new(
                rank,
                rng.random_range(0..geom.banks() as u8),
                rng.random_range(0..geom.rows()),
                rng.random_range(0..geom.cols() as u16),
            ),
        }
    }

    /// All devices this fault can touch (primary, extra, spread).
    pub fn devices(&self) -> Vec<u8> {
        let mut v = vec![self.device];
        v.extend_from_slice(&self.extra_devices);
        if let Some(sp) = &self.spread {
            v.push(sp.device);
        }
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Picks a uniformly random set bit index of `mask` (0 if `mask == 0`).
fn random_set_bit(mask: u8, rng: &mut StdRng) -> u8 {
    let n = mask.count_ones();
    if n == 0 {
        return 0;
    }
    let mut k = rng.random_range(0..n);
    for i in 0..8 {
        if (mask >> i) & 1 == 1 {
            if k == 0 {
                return i;
            }
            k -= 1;
        }
    }
    unreachable!("mask had fewer set bits than counted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_rng::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn sample_fault() -> Fault {
        Fault {
            mode: FaultMode::Row,
            device: 5,
            extra_devices: vec![],
            region: Region::Row {
                rank: 0,
                bank: 3,
                row: 42,
            },
            dq_mask: 0b0011,
            beat_mask: 0b0010_0010, // beats 1 and 5: the stride-4 signature
            onset: SimTime::from_secs(0),
            profile: SeverityProfile::degrading(0.02, 7.0, 0.95),
            hit_rate_per_day: 8.0,
            spread: None,
        }
    }

    #[test]
    fn stable_severity_is_constant() {
        let p = SeverityProfile::stable(0.05);
        assert_eq!(p.severity(SimDuration::ZERO), 0.05);
        assert_eq!(p.severity(SimDuration::days(100)), 0.05);
    }

    #[test]
    fn degrading_severity_doubles_per_tau() {
        let p = SeverityProfile::degrading(0.02, 7.0, 0.95);
        let s0 = p.severity(SimDuration::ZERO);
        let s7 = p.severity(SimDuration::days(7));
        let s14 = p.severity(SimDuration::days(14));
        assert!((s7 / s0 - 2.0).abs() < 1e-9);
        assert!((s14 / s0 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn severity_caps_at_max() {
        let p = SeverityProfile::degrading(0.5, 1.0, 0.95);
        assert_eq!(p.severity(SimDuration::days(30)), 0.95);
    }

    #[test]
    fn stall_limits_growth() {
        let mut p = SeverityProfile::degrading(0.02, 7.0, 0.95);
        p.stall_at = Some(0.08);
        assert_eq!(p.severity(SimDuration::days(100)), 0.08);
        assert_eq!(p.days_to_reach(0.3), None);
    }

    #[test]
    fn days_to_reach_inverts_severity() {
        let p = SeverityProfile::degrading(0.02, 7.0, 0.95);
        let d = p.days_to_reach(0.16).unwrap();
        assert!((d - 21.0).abs() < 1e-9); // 3 doublings
        assert_eq!(p.days_to_reach(0.01), Some(0.0));
        assert_eq!(SeverityProfile::stable(0.05).days_to_reach(0.2), None);
    }

    #[test]
    fn transfer_respects_masks() {
        let f = sample_fault();
        let mut r = rng();
        for _ in 0..50 {
            let t = f.sample_transfer(SimTime::from_secs(1000), DataWidth::X4, &mut r);
            assert!(!t.is_empty());
            for (beat, dq) in t.iter_bits() {
                assert!(f.beat_mask >> beat & 1 == 1, "beat {beat} outside mask");
                let lane = dq - f.device * 4;
                assert!(f.dq_mask >> lane & 1 == 1, "lane {lane} outside mask");
            }
        }
    }

    #[test]
    fn transfer_grows_with_severity() {
        let f = sample_fault();
        let mut r = rng();
        let early: u32 = (0..200)
            .map(|_| {
                f.sample_transfer(SimTime::from_secs(3600), DataWidth::X4, &mut r)
                    .bit_count()
            })
            .sum();
        let late: u32 = (0..200)
            .map(|_| {
                f.sample_transfer(SimTime::ZERO + SimDuration::days(35), DataWidth::X4, &mut r)
                    .bit_count()
            })
            .sum();
        assert!(
            late > early * 2,
            "severity growth must increase bits: early={early} late={late}"
        );
    }

    #[test]
    fn spread_activates_at_onset() {
        let mut f = sample_fault();
        f.spread = Some(Spread {
            device: 9,
            onset: SimTime::ZERO + SimDuration::days(10),
            profile: SeverityProfile::degrading(0.02, 3.0, 0.95),
        });
        assert!(f
            .spread_severity_at(SimTime::ZERO + SimDuration::days(5))
            .is_none());
        let (dev, s) = f
            .spread_severity_at(SimTime::ZERO + SimDuration::days(10))
            .unwrap();
        assert_eq!(dev, 9);
        assert!((s - 0.02).abs() < 1e-12);
        assert_eq!(f.devices(), vec![5, 9]);
    }

    #[test]
    fn sampled_addresses_stay_in_region() {
        let f = sample_fault();
        let geom = DeviceGeometry::default();
        let mut r = rng();
        for _ in 0..50 {
            let a = f.sample_addr(&geom, &mut r);
            assert!(f.region.contains(&a), "{a} outside {:?}", f.region);
            assert!(a.is_valid(&geom, 2));
        }
    }

    #[test]
    fn random_set_bit_uniform_support() {
        let mut r = rng();
        let mask = 0b0010_0010u8;
        let mut seen = [0u32; 8];
        for _ in 0..200 {
            seen[random_set_bit(mask, &mut r) as usize] += 1;
        }
        assert!(seen[1] > 0 && seen[5] > 0);
        assert_eq!(seen[0] + seen[2] + seen[3] + seen[4] + seen[6] + seen[7], 0);
    }

    #[test]
    fn severity_zero_before_onset() {
        let mut f = sample_fault();
        f.onset = SimTime::from_secs(10_000);
        assert_eq!(f.severity_at(SimTime::from_secs(5_000)), 0.0);
    }

    #[test]
    fn mode_hit_rates_ordered_by_footprint() {
        assert!(FaultMode::Cell.base_hit_rate_per_day() < FaultMode::Row.base_hit_rate_per_day());
        assert!(FaultMode::Row.base_hit_rate_per_day() < FaultMode::Device.base_hit_rate_per_day());
    }
}
