//! Fleet generation: sampling DIMM specifications and fault instances
//! consistent with a platform's calibrated configuration.

use crate::config::{DimmCategory, FaultModeMix, PlatformConfig};
use crate::fault::{Fault, FaultMode, SeverityProfile, Spread};
use mfp_dram::address::{DimmId, Region};
use mfp_dram::geometry::{DataWidth, DeviceGeometry, BURST_BEATS};
use mfp_dram::spec::{DieProcess, DimmSpec, Frequency, Manufacturer};
use mfp_dram::time::{SimDuration, SimTime};
use mfp_rng::StdRng;

/// The generated plan for one DIMM: its static spec and the faults that
/// will manifest during the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DimmPlan {
    /// The DIMM's identity.
    pub id: DimmId,
    /// Static specification.
    pub spec: DimmSpec,
    /// Generative category (ground truth; the logs never reveal it).
    pub category: DimmCategory,
    /// Fault instances.
    pub faults: Vec<Fault>,
}

/// Samples the static spec of a DIMM.
pub fn sample_spec(cfg: &PlatformConfig, rng: &mut StdRng) -> DimmSpec {
    let manufacturer = *weighted_choice(&Manufacturer::ALL, &[0.30, 0.25, 0.20, 0.15, 0.10], rng);
    let width = if rng.random::<f64>() < cfg.x8_fraction {
        DataWidth::X8
    } else {
        DataWidth::X4
    };
    let frequency = *weighted_choice(&Frequency::ALL, &[0.05, 0.15, 0.35, 0.30, 0.15], rng);
    let process = *weighted_choice(&DieProcess::ALL, &[0.25, 0.45, 0.30], rng);
    let capacity = *weighted_choice(&[16u16, 32, 64], &[0.30, 0.50, 0.20], rng);
    DimmSpec::new(manufacturer, width, frequency, process, capacity)
}

/// Generates the full plan list for one platform's sub-fleet.
///
/// Servers are numbered from `base_server`; each plan gets its own server
/// (only DIMMs with faults are simulated — the healthy rest of the fleet
/// never produces events).
pub fn generate_plans(
    cfg: &PlatformConfig,
    horizon: SimDuration,
    base_server: u32,
    rng: &mut StdRng,
) -> Vec<DimmPlan> {
    let mut plans = Vec::with_capacity(cfg.dimms_with_ces + cfg.sudden_only_dimms);
    for i in 0..cfg.dimms_with_ces {
        let id = DimmId::new(base_server + i as u32, rng.random_range(0..16));
        let spec = sample_spec(cfg, rng);
        let u: f64 = rng.random();
        let category = if u < cfg.categories.benign {
            DimmCategory::Benign
        } else {
            DimmCategory::Degrading
        };
        let mut faults = Vec::new();
        match category {
            DimmCategory::Benign => {
                faults.push(sample_benign_fault(cfg, &spec, horizon, rng));
            }
            DimmCategory::Degrading => {
                faults.push(sample_degrading_fault(cfg, &spec, horizon, rng));
            }
            DimmCategory::Sudden => unreachable!("sudden DIMMs are generated separately"),
        }
        // Extra benign faults (Poisson). Independent faults live on
        // distinct devices — co-locating them would fabricate accidental
        // multi-DQ footprints no real fault produced.
        let extra = sample_poisson(cfg.extra_fault_lambda, rng);
        for _ in 0..extra {
            let mut f = sample_benign_fault(cfg, &spec, horizon, rng);
            let devices = spec.width.devices_per_rank();
            while faults.iter().any(|g| g.device == f.device) {
                f.device = (f.device + 1 + rng.random_range(0..devices - 1)) % devices;
            }
            faults.push(f);
        }
        plans.push(DimmPlan {
            id,
            spec,
            category,
            faults,
        });
    }
    let sudden_base = base_server + cfg.dimms_with_ces as u32;
    for i in 0..cfg.sudden_only_dimms {
        let id = DimmId::new(sudden_base + i as u32, rng.random_range(0..16));
        let spec = sample_spec(cfg, rng);
        let fault = sample_sudden_fault(&spec, horizon, rng);
        plans.push(DimmPlan {
            id,
            spec,
            category: DimmCategory::Sudden,
            faults: vec![fault],
        });
    }
    plans
}

/// Samples a spatial fault mode from a mix.
fn sample_mode(mix: &FaultModeMix, rng: &mut StdRng) -> FaultMode {
    let weights = [mix.cell, mix.row, mix.column, mix.bank, mix.device];
    let modes = [
        FaultMode::Cell,
        FaultMode::Row,
        FaultMode::Column,
        FaultMode::Bank,
        FaultMode::Device,
    ];
    *weighted_choice(&modes, &weights, rng)
}

/// Samples the spatial footprint for a mode.
fn sample_region(mode: FaultMode, spec: &DimmSpec, rng: &mut StdRng) -> Region {
    let geom: &DeviceGeometry = &spec.geometry;
    let rank = rng.random_range(0..spec.ranks);
    let bank = rng.random_range(0..geom.banks() as u8);
    match mode {
        FaultMode::Cell => Region::Cell {
            addr: mfp_dram::address::CellAddr::new(
                rank,
                bank,
                rng.random_range(0..geom.rows()),
                rng.random_range(0..geom.cols() as u16),
            ),
        },
        FaultMode::Row => Region::Row {
            rank,
            bank,
            row: rng.random_range(0..geom.rows()),
        },
        FaultMode::Column => Region::Column {
            rank,
            bank,
            col: rng.random_range(0..geom.cols() as u16),
        },
        FaultMode::Bank => Region::Bank { rank, bank },
        FaultMode::Device | FaultMode::MultiDevice => Region::Rank { rank },
    }
}

/// Bit-pattern mask pair `(dq_mask, beat_mask)`.
struct Signature {
    dq_mask: u8,
    beat_mask: u8,
}

/// Samples the risky degrading signature for a platform.
fn sample_degrading_signature(
    cfg: &PlatformConfig,
    mode: FaultMode,
    width: DataWidth,
    rng: &mut StdRng,
) -> Signature {
    let w = width.dq_per_device();
    let full: u8 = if w == 4 { 0xF } else { 0xFF };
    if mode == FaultMode::Device || rng.random::<f64>() < cfg.patterns.device_wide_prob {
        // Device-wide I/O degradation: all DQs, many beats (the Whitley
        // 4-DQ / 5-beat signature).
        let n_beats = rng.random_range(5..=7u32);
        Signature {
            dq_mask: full,
            beat_mask: random_beat_mask(n_beats, rng),
        }
    } else if rng.random::<f64>() < cfg.patterns.stride4_prob {
        // Column-select defect: beats {b, b+4} (the Purley 2-DQ / 2-beat /
        // interval-4 signature).
        let odd = rng.random::<f64>() < cfg.patterns.stride4_odd_prob;
        let b = if odd {
            1 + 2 * rng.random_range(0..2u8) // 1 or 3
        } else {
            2 * rng.random_range(0..2u8) // 0 or 2
        };
        let dq0 = rng.random_range(0..w - 1);
        Signature {
            dq_mask: (0b11 << dq0) & full,
            beat_mask: (1 << b) | (1 << (b + 4)),
        }
    } else {
        // Generic multi-bit degradation.
        let n_beats = rng.random_range(1..=3u32);
        let dq0 = rng.random_range(0..w);
        let dq_mask = if rng.random::<f64>() < 0.5 && dq0 + 1 < w {
            0b11 << dq0
        } else {
            1 << dq0
        };
        Signature {
            dq_mask,
            beat_mask: random_beat_mask(n_beats, rng),
        }
    }
}

/// Samples a benign signature: single-bit footprints, or "mimics" of the
/// risky signature constrained to remain correctable.
fn sample_benign_signature(cfg: &PlatformConfig, width: DataWidth, rng: &mut StdRng) -> Signature {
    let w = width.dq_per_device();
    let full: u8 = if w == 4 { 0xF } else { 0xFF };
    let purley = cfg.platform == mfp_dram::geometry::Platform::IntelPurley;
    if width == DataWidth::X4 && rng.random::<f64>() < cfg.patterns.mimic_prob {
        if rng.random::<f64>() < cfg.patterns.device_wide_prob {
            // Device-wide mimic. On Purley, restrict to strong (even) beats
            // so it stays correctable (survivorship: modules whose wide
            // patterns hit weak beats have already failed).
            let beat_mask = if purley {
                0b0101_0100
            } else {
                random_beat_mask(5, rng)
            };
            Signature {
                dq_mask: full,
                beat_mask,
            }
        } else {
            // Stride-4 mimic on strong beats: same counts and intervals the
            // predictor sees, but never uncorrectable on Purley.
            let b = 2 * rng.random_range(0..2u8);
            let dq0 = rng.random_range(0..w - 1);
            Signature {
                dq_mask: (0b11 << dq0) & full,
                beat_mask: (1 << b) | (1 << (b + 4)),
            }
        }
    } else {
        // Ordinary benign fault: a single DQ lane, one or two beats — a
        // single bit per beat is always correctable everywhere.
        let n_beats = rng.random_range(1..=2u32);
        Signature {
            dq_mask: 1 << rng.random_range(0..w),
            beat_mask: random_beat_mask(n_beats, rng),
        }
    }
}

/// Samples a benign (stable) fault.
pub fn sample_benign_fault(
    cfg: &PlatformConfig,
    spec: &DimmSpec,
    horizon: SimDuration,
    rng: &mut StdRng,
) -> Fault {
    let mode = sample_mode(&cfg.benign_modes, rng);
    let region = sample_region(mode, spec, rng);
    let sig = sample_benign_signature(cfg, spec.width, rng);
    let device = rng.random_range(0..spec.width.devices_per_rank());
    let onset = SimTime::ZERO + SimDuration::secs(rng.random_range(0..horizon.as_secs()));
    // Multi-DQ "mimic" signatures stay at low severity: they imitate the
    // risky pattern's geometry but not its intensity growth.
    let severity = if sig.dq_mask.count_ones() >= 2 {
        0.015 + 0.035 * rng.random::<f64>()
    } else {
        0.02 + 0.08 * rng.random::<f64>()
    };
    Fault {
        mode,
        device,
        extra_devices: vec![],
        region,
        dq_mask: sig.dq_mask,
        beat_mask: sig.beat_mask,
        onset,
        profile: SeverityProfile::stable(severity),
        // Benign faults sit in colder regions on average (survivorship of
        // hot faulty pages to the page-offlining policy).
        hit_rate_per_day: 0.6 * jittered_hit_rate(mode, rng),
        spread: None,
    }
}

/// Samples a degrading fault (the predictable-UE mechanism).
pub fn sample_degrading_fault(
    cfg: &PlatformConfig,
    spec: &DimmSpec,
    horizon: SimDuration,
    rng: &mut StdRng,
) -> Fault {
    let d = &cfg.degradation;
    let mode = sample_mode(&cfg.degrading_modes, rng);
    let region = sample_region(mode, spec, rng);
    let sig = sample_degrading_signature(cfg, mode, spec.width, rng);
    let device = rng.random_range(0..spec.width.devices_per_rank());
    // Onset early enough that degradation has room to play out.
    let onset_max = (horizon.as_secs() as f64 * 0.85) as u64;
    let onset = SimTime::ZERO + SimDuration::secs(rng.random_range(0..onset_max.max(1)));

    let tau = d.growth_tau_days * (0.7 + 0.7 * rng.random::<f64>());
    let mut profile = SeverityProfile::degrading(d.base_severity, tau, d.max_severity);
    if rng.random::<f64>() < d.stall_prob {
        profile.stall_at = Some(d.stall_severity * (0.7 + 0.6 * rng.random::<f64>()));
        profile.stall_decay_tau_days =
            Some(d.stall_decay_tau_days * (0.7 + 0.6 * rng.random::<f64>()));
    }

    let spread = if rng.random::<f64>() < d.spread_prob {
        profile.days_to_reach(d.spread_severity).map(|days| {
            let onset_spread = onset + SimDuration::secs((days * 86_400.0) as u64);
            let devices = spec.width.devices_per_rank();
            let mut other = rng.random_range(0..devices);
            if other == device {
                other = (other + 1) % devices;
            }
            Spread {
                device: other,
                onset: onset_spread,
                profile: SeverityProfile::degrading(
                    d.base_severity,
                    (tau / 2.0).max(1.0),
                    d.max_severity,
                ),
            }
        })
    } else {
        None
    };

    Fault {
        mode,
        device,
        extra_devices: vec![],
        region,
        dq_mask: sig.dq_mask,
        beat_mask: sig.beat_mask,
        onset,
        profile,
        hit_rate_per_day: jittered_hit_rate(mode, rng),
        spread,
    }
}

/// Samples an instant catastrophic fault: a multi-device failure whose very
/// first manifestation exceeds every platform's correction capability.
pub fn sample_sudden_fault(spec: &DimmSpec, horizon: SimDuration, rng: &mut StdRng) -> Fault {
    let devices = spec.width.devices_per_rank();
    let d1 = rng.random_range(0..devices);
    let mut d2 = rng.random_range(0..devices);
    if d2 == d1 {
        d2 = (d2 + 1) % devices;
    }
    let w = spec.width.dq_per_device();
    let full: u8 = if w == 4 { 0xF } else { 0xFF };
    let onset = SimTime::ZERO + SimDuration::secs(rng.random_range(0..horizon.as_secs()));
    Fault {
        mode: FaultMode::MultiDevice,
        device: d1,
        extra_devices: vec![d2],
        region: Region::Rank {
            rank: rng.random_range(0..spec.ranks),
        },
        dq_mask: full,
        beat_mask: 0xFF,
        onset,
        profile: SeverityProfile::stable(0.7),
        hit_rate_per_day: jittered_hit_rate(FaultMode::MultiDevice, rng),
        spread: None,
    }
}

/// Mode hit rate with a per-DIMM workload jitter (log-normal-ish).
fn jittered_hit_rate(mode: FaultMode, rng: &mut StdRng) -> f64 {
    let z = gaussian(rng);
    mode.base_hit_rate_per_day() * (0.5 * z).exp().clamp(0.3, 3.0)
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Poisson sample via inversion (small lambda).
fn sample_poisson(lambda: f64, rng: &mut StdRng) -> u32 {
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l || k > 20 {
            return k;
        }
        k += 1;
    }
}

/// A random beat mask with `n` distinct beats set.
fn random_beat_mask(n: u32, rng: &mut StdRng) -> u8 {
    let n = n.min(BURST_BEATS as u32);
    let mut mask = 0u8;
    while mask.count_ones() < n {
        mask |= 1 << rng.random_range(0..BURST_BEATS);
    }
    mask
}

/// Weighted choice over a slice (weights need not sum to 1).
fn weighted_choice<'a, T>(items: &'a [T], weights: &[f64], rng: &mut StdRng) -> &'a T {
    assert_eq!(items.len(), weights.len());
    let total: f64 = weights.iter().sum();
    let mut u = rng.random::<f64>() * total;
    for (item, &w) in items.iter().zip(weights) {
        if u < w {
            return item;
        }
        u -= w;
    }
    items.last().expect("weighted_choice on empty slice")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetConfig;
    use mfp_dram::geometry::Platform;
    use mfp_rng::StdRng;

    fn cfg() -> PlatformConfig {
        FleetConfig::calibrated(100.0, 3)
            .platform(Platform::IntelPurley)
            .unwrap()
            .clone()
    }

    #[test]
    fn plans_cover_population() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let plans = generate_plans(&c, SimDuration::days(120), 0, &mut rng);
        assert_eq!(plans.len(), c.dimms_with_ces + c.sudden_only_dimms);
        let sudden = plans
            .iter()
            .filter(|p| p.category == DimmCategory::Sudden)
            .count();
        assert_eq!(sudden, c.sudden_only_dimms);
        // Every plan has at least one fault.
        assert!(plans.iter().all(|p| !p.faults.is_empty()));
    }

    #[test]
    fn category_fractions_approx_config() {
        let mut c = cfg();
        c.dimms_with_ces = 4000;
        c.sudden_only_dimms = 0;
        let mut rng = StdRng::seed_from_u64(2);
        let plans = generate_plans(&c, SimDuration::days(120), 0, &mut rng);
        let degrading = plans
            .iter()
            .filter(|p| p.category == DimmCategory::Degrading)
            .count() as f64
            / plans.len() as f64;
        assert!(
            (degrading - c.categories.degrading).abs() < 0.012,
            "degrading fraction {degrading} vs {}",
            c.categories.degrading
        );
    }

    #[test]
    fn benign_faults_are_stable() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let spec = sample_spec(&c, &mut rng);
            let f = sample_benign_fault(&c, &spec, SimDuration::days(120), &mut rng);
            assert!(!f.profile.degrading);
            assert!(f.spread.is_none());
            assert!(f.dq_mask != 0 && f.beat_mask != 0);
        }
    }

    #[test]
    fn benign_x8_faults_are_single_dq() {
        let mut c = cfg();
        c.x8_fraction = 1.0;
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let spec = sample_spec(&c, &mut rng);
            assert_eq!(spec.width, DataWidth::X8);
            let f = sample_benign_fault(&c, &spec, SimDuration::days(120), &mut rng);
            assert_eq!(f.dq_mask.count_ones(), 1, "x8 benign must be 1 DQ");
        }
    }

    #[test]
    fn purley_benign_mimics_stay_on_strong_beats() {
        let mut c = cfg();
        c.patterns.mimic_prob = 1.0;
        c.x8_fraction = 0.0;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let spec = sample_spec(&c, &mut rng);
            let f = sample_benign_fault(&c, &spec, SimDuration::days(120), &mut rng);
            if f.dq_mask.count_ones() >= 2 {
                assert_eq!(
                    f.beat_mask & 0b1010_1010,
                    0,
                    "multi-DQ benign mimic on Purley must avoid weak beats"
                );
            }
        }
    }

    #[test]
    fn degrading_faults_degrade() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(6);
        let mut spreads = 0;
        let mut stalls = 0;
        for _ in 0..300 {
            let spec = sample_spec(&c, &mut rng);
            let f = sample_degrading_fault(&c, &spec, SimDuration::days(270), &mut rng);
            assert!(f.profile.degrading);
            if f.spread.is_some() {
                spreads += 1;
            }
            if f.profile.stall_at.is_some() {
                stalls += 1;
            }
        }
        // Purley: spread_prob 0.10 (and gated on reaching the threshold),
        // stall_prob 0.35.
        assert!(spreads > 0 && spreads < 90, "spreads={spreads}");
        assert!((40..150).contains(&stalls), "stalls={stalls}");
    }

    #[test]
    fn sudden_faults_are_immediately_catastrophic() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(7);
        let spec = sample_spec(&c, &mut rng);
        let f = sample_sudden_fault(&spec, SimDuration::days(120), &mut rng);
        assert_eq!(f.mode, FaultMode::MultiDevice);
        assert_eq!(f.extra_devices.len(), 1);
        assert_ne!(f.extra_devices[0], f.device);
        assert!(f.profile.base > 0.5);
        assert_eq!(f.beat_mask, 0xFF);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut counts = [0u32; 3];
        for _ in 0..3000 {
            let x = *weighted_choice(&[0usize, 1, 2], &[0.8, 0.15, 0.05], &mut rng);
            counts[x] += 1;
        }
        assert!(counts[0] > 2200 && counts[2] < 350, "{counts:?}");
    }

    #[test]
    fn poisson_mean_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(9);
        let mean: f64 = (0..5000)
            .map(|_| sample_poisson(0.25, &mut rng) as f64)
            .sum::<f64>()
            / 5000.0;
        assert!((mean - 0.25).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn beat_mask_has_requested_bits() {
        let mut rng = StdRng::seed_from_u64(10);
        for n in 1..=8 {
            let m = random_beat_mask(n, &mut rng);
            assert_eq!(m.count_ones(), n);
        }
    }
}
