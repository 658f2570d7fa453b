//! The per-DIMM discrete-event simulation engine.
//!
//! For each fault on a DIMM, accesses hitting its footprint form a Poisson
//! process (demand traffic + patrol scrub). Each hit samples a raw burst
//! error pattern from the fault, runs it through the platform's *real* ECC
//! decoder, and the decode outcome determines what the BMC logs: a CE, a
//! machine-check UE (simulation stops — the DIMM is replaced), or nothing
//! at all (silent corruption). CE storms trigger logging suppression, as
//! production BMCs do.

use crate::gen::DimmPlan;
use crate::ras::{AdddcState, RasPolicy, RasReport, RasState};
use mfp_dram::bmc::BmcLog;
use mfp_dram::event::{CeEvent, CeStormEvent, MemEvent, UeEvent};
use mfp_dram::time::{SimDuration, SimTime};
use mfp_ecc::scheme::{DecodeOutcome, EccScheme};
use mfp_rng::StdRng;
use std::collections::VecDeque;

/// Counters and outcome of simulating one DIMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimmOutcome {
    /// Time of the first uncorrectable error, if any.
    pub first_ue: Option<SimTime>,
    /// Number of logged CE events.
    pub logged_ces: u32,
    /// CE interrupts that occurred while logging was storm-suppressed.
    pub suppressed_ces: u32,
    /// Number of CE-storm events.
    pub storms: u32,
    /// Accesses whose errors were silently miscorrected or undetected.
    pub sdc_hits: u32,
    /// RAS mitigation activity (zeroed when no policy is active).
    pub ras: RasReport,
    /// Whether ADDDC virtual lockstep engaged during the run.
    pub adddc_engaged: bool,
}

/// Parameters governing BMC-side CE-storm suppression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormPolicy {
    /// CE interrupts within one minute that trigger a storm.
    pub threshold: u32,
    /// Logging suppression duration after a storm fires.
    pub suppression: SimDuration,
}

impl Default for StormPolicy {
    fn default() -> Self {
        StormPolicy {
            threshold: 10,
            suppression: SimDuration::hours(1),
        }
    }
}

/// Simulates one DIMM until `horizon` or its first UE.
///
/// Events are appended to `log` in time order. Returns the outcome
/// counters. The caller supplies the per-DIMM RNG so fleet simulation is
/// reproducible regardless of thread scheduling.
pub fn simulate_dimm(
    plan: &DimmPlan,
    ecc: &dyn EccScheme,
    horizon: SimDuration,
    storm: StormPolicy,
    log: &mut BmcLog,
    rng: &mut StdRng,
) -> DimmOutcome {
    simulate_dimm_ras(plan, ecc, horizon, storm, None, log, rng)
}

/// Simulates one DIMM under an optional RAS mitigation policy (page
/// offlining + PPR, paper §II-C): row-confined faults can be repaired or
/// retired before they escalate, while wider faults keep erring.
pub fn simulate_dimm_ras(
    plan: &DimmPlan,
    ecc: &dyn EccScheme,
    horizon: SimDuration,
    storm: StormPolicy,
    ras_policy: Option<RasPolicy>,
    log: &mut BmcLog,
    rng: &mut StdRng,
) -> DimmOutcome {
    // Generate every fault's hit times up front, then process in order.
    let mut hits: Vec<(SimTime, usize)> = Vec::new();
    for (idx, fault) in plan.faults.iter().enumerate() {
        let rate_per_sec = fault.hit_rate_per_day / 86_400.0;
        let mut t = fault.onset;
        // Safety valve: no fault produces more than ~100k hits.
        for _ in 0..100_000 {
            let u: f64 = rng.random::<f64>().max(1e-300);
            let dt = -u.ln() / rate_per_sec;
            if !dt.is_finite() {
                break;
            }
            t += SimDuration::secs(dt.max(1.0) as u64);
            if t >= SimTime::ZERO + horizon {
                break;
            }
            hits.push((t, idx));
        }
    }
    hits.sort_unstable_by_key(|&(t, _)| t);

    let mut outcome = DimmOutcome {
        first_ue: None,
        logged_ces: 0,
        suppressed_ces: 0,
        storms: 0,
        sdc_hits: 0,
        ras: RasReport::default(),
        adddc_engaged: false,
    };
    let mut recent_ces: VecDeque<SimTime> = VecDeque::new();
    let mut suppressed_until: Option<SimTime> = None;
    let mut ras = ras_policy.map(RasState::new);
    let mut adddc = ras_policy.and_then(|p| p.adddc).map(AdddcState::new);
    // Once ADDDC engages, the failing device is mapped out via virtual
    // lockstep: decode proceeds under full per-beat SDDC.
    let lockstep_ecc = mfp_ecc::scheme::SddcPerBeat::new();
    let mut fault_active = vec![true; plan.faults.len()];

    for (t, idx) in hits {
        if !fault_active[idx] {
            continue;
        }
        let fault = &plan.faults[idx];
        let transfer = fault.sample_transfer(t, plan.spec.width, rng);
        let lockstep = adddc.as_ref().is_some_and(AdddcState::is_active);
        let outcome_decode = if lockstep {
            mfp_ecc::scheme::EccScheme::decode(&lockstep_ecc, &transfer, plan.spec.width)
        } else {
            ecc.decode(&transfer, plan.spec.width)
        };
        match outcome_decode {
            DecodeOutcome::Clean => {}
            DecodeOutcome::Corrected => {
                // Storm bookkeeping happens on the *interrupt*, logged or not.
                // `checked_duration_since` would panic on a regressed
                // clock; saturate instead so a skewed record can never
                // abort the run.
                while recent_ces.front().is_some_and(|&t0| {
                    t.checked_duration_since(t0)
                        .is_some_and(|d| d.as_secs() > 60)
                }) {
                    recent_ces.pop_front();
                }
                recent_ces.push_back(t);

                let suppressed = suppressed_until.is_some_and(|u| t < u);
                if suppressed {
                    outcome.suppressed_ces += 1;
                    continue;
                }
                if recent_ces.len() as u32 >= storm.threshold {
                    outcome.storms += 1;
                    suppressed_until = Some(t + storm.suppression);
                    log.push(MemEvent::Storm(CeStormEvent {
                        time: t,
                        dimm: plan.id,
                        count: recent_ces.len() as u32,
                    }));
                    recent_ces.clear();
                    continue;
                }
                outcome.logged_ces += 1;
                let addr = fault.sample_addr(&plan.spec.geometry, rng);
                log.push(MemEvent::Ce(CeEvent {
                    time: t,
                    dimm: plan.id,
                    addr,
                    transfer,
                }));
                if let Some(ras) = ras.as_mut() {
                    let action = ras.observe_ce(&addr);
                    if ras.fault_is_mitigated(fault, action, &addr) {
                        fault_active[idx] = false;
                    }
                }
                if let Some(adddc) = adddc.as_mut() {
                    if adddc.observe_devices(transfer.device_mask(plan.spec.width)) {
                        outcome.adddc_engaged = true;
                    }
                }
            }
            DecodeOutcome::Ue => {
                outcome.first_ue = Some(t);
                log.push(MemEvent::Ue(UeEvent {
                    time: t,
                    dimm: plan.id,
                    addr: fault.sample_addr(&plan.spec.geometry, rng),
                    transfer,
                }));
                break; // DIMM is taken out of service.
            }
            DecodeOutcome::Sdc => {
                outcome.sdc_hits += 1;
            }
        }
    }
    if let Some(ras) = ras {
        outcome.ras = ras.report();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DimmCategory, FleetConfig};
    use crate::gen::{sample_benign_fault, sample_spec, sample_sudden_fault, DimmPlan};
    use mfp_dram::address::DimmId;
    use mfp_dram::geometry::Platform;
    use mfp_ecc::platforms::PlatformEcc;
    use mfp_rng::StdRng;

    fn purley_cfg() -> crate::config::PlatformConfig {
        FleetConfig::calibrated(100.0, 3)
            .platform(Platform::IntelPurley)
            .unwrap()
            .clone()
    }

    #[test]
    fn benign_dimm_produces_ces_but_no_ue() {
        let cfg = purley_cfg();
        let mut rng = StdRng::seed_from_u64(11);
        let ecc = PlatformEcc::for_platform(Platform::IntelPurley);
        let horizon = SimDuration::days(90);
        for _ in 0..20 {
            let mut spec = sample_spec(&cfg, &mut rng);
            spec.width = mfp_dram::geometry::DataWidth::X4;
            let fault = sample_benign_fault(&cfg, &spec, horizon, &mut rng);
            let plan = DimmPlan {
                id: DimmId::new(1, 0),
                spec,
                category: DimmCategory::Benign,
                faults: vec![fault],
            };
            let mut log = BmcLog::new();
            let out = simulate_dimm(
                &plan,
                &ecc,
                horizon,
                StormPolicy::default(),
                &mut log,
                &mut rng,
            );
            assert!(out.first_ue.is_none(), "benign DIMM must not UE");
        }
    }

    #[test]
    fn sudden_dimm_fails_fast_without_prior_ces() {
        let cfg = purley_cfg();
        let mut rng = StdRng::seed_from_u64(12);
        let ecc = PlatformEcc::for_platform(Platform::IntelPurley);
        let horizon = SimDuration::days(270);
        let mut ue_count = 0;
        for _ in 0..20 {
            let spec = sample_spec(&cfg, &mut rng);
            let fault = sample_sudden_fault(&spec, SimDuration::days(100), &mut rng);
            let onset = fault.onset;
            let plan = DimmPlan {
                id: DimmId::new(2, 0),
                spec,
                category: DimmCategory::Sudden,
                faults: vec![fault],
            };
            let mut log = BmcLog::new();
            let out = simulate_dimm(
                &plan,
                &ecc,
                horizon,
                StormPolicy::default(),
                &mut log,
                &mut rng,
            );
            if let Some(ue) = out.first_ue {
                ue_count += 1;
                // UE within a day of onset, with essentially no CE warning.
                assert!((ue - onset) < SimDuration::days(1), "UE too late");
                assert!(out.logged_ces <= 2, "sudden UE must lack CE history");
            }
        }
        assert!(ue_count >= 18, "sudden faults must almost always UE");
    }

    #[test]
    fn storm_suppression_limits_logging() {
        let cfg = purley_cfg();
        let mut rng = StdRng::seed_from_u64(13);
        let ecc = PlatformEcc::for_platform(Platform::IntelPurley);
        // A very hot benign fault: thousands of hits per day.
        let mut spec = sample_spec(&cfg, &mut rng);
        spec.width = mfp_dram::geometry::DataWidth::X4;
        let mut fault = sample_benign_fault(&cfg, &spec, SimDuration::days(10), &mut rng);
        fault.hit_rate_per_day = 50_000.0;
        fault.onset = SimTime::ZERO;
        fault.dq_mask = 0b1;
        let plan = DimmPlan {
            id: DimmId::new(3, 0),
            spec,
            category: DimmCategory::Benign,
            faults: vec![fault],
        };
        let mut log = BmcLog::new();
        let out = simulate_dimm(
            &plan,
            &ecc,
            SimDuration::days(2),
            StormPolicy::default(),
            &mut log,
            &mut rng,
        );
        assert!(out.storms > 0, "hot fault must trigger storms");
        assert!(
            out.suppressed_ces > out.logged_ces,
            "suppression must hide most interrupts: logged={} suppressed={}",
            out.logged_ces,
            out.suppressed_ces
        );
    }

    #[test]
    fn adddc_rescues_purley_single_device_degradation() {
        use crate::config::FleetConfig;
        use crate::gen::sample_degrading_fault;
        use crate::ras::{AdddcPolicy, RasPolicy};

        let cfg = purley_cfg();
        let ecc = PlatformEcc::for_platform(Platform::IntelPurley);
        let horizon = SimDuration::days(200);
        let policy = RasPolicy {
            // Only ADDDC; no offlining interference.
            page_offline_threshold: u32::MAX,
            ppr_enabled: false,
            adddc: Some(AdddcPolicy { activation_ces: 5 }),
            ..Default::default()
        };
        let _ = FleetConfig::smoke(1); // keep import used under cfg changes

        let mut rng = StdRng::seed_from_u64(77);
        let mut ue_with = 0;
        let mut ue_without = 0;
        let mut engaged = 0;
        for k in 0..30 {
            let mut spec = sample_spec(&cfg, &mut rng);
            spec.width = mfp_dram::geometry::DataWidth::X4;
            let mut fault = sample_degrading_fault(&cfg, &spec, horizon, &mut rng);
            fault.onset = SimTime::ZERO;
            fault.spread = None; // pure single-device degradation
            fault.profile.stall_at = None;
            let plan = DimmPlan {
                id: DimmId::new(100 + k, 0),
                spec,
                category: DimmCategory::Degrading,
                faults: vec![fault],
            };
            let mut log = BmcLog::new();
            let mut rng_a = StdRng::seed_from_u64(1000 + k as u64);
            let with = crate::dimm::simulate_dimm_ras(
                &plan,
                &ecc,
                horizon,
                StormPolicy::default(),
                Some(policy),
                &mut log,
                &mut rng_a,
            );
            let mut log2 = BmcLog::new();
            let mut rng_b = StdRng::seed_from_u64(1000 + k as u64);
            let without = crate::dimm::simulate_dimm_ras(
                &plan,
                &ecc,
                horizon,
                StormPolicy::default(),
                None,
                &mut log2,
                &mut rng_b,
            );
            ue_with += with.first_ue.is_some() as u32;
            ue_without += without.first_ue.is_some() as u32;
            engaged += with.adddc_engaged as u32;
        }
        assert!(engaged > 10, "lockstep must engage on degrading DIMMs");
        assert!(
            ue_with < ue_without,
            "ADDDC must reduce Purley single-device UEs: {ue_with} vs {ue_without}"
        );
    }

    #[test]
    fn log_events_are_time_ordered() {
        let cfg = purley_cfg();
        let mut rng = StdRng::seed_from_u64(14);
        let ecc = PlatformEcc::for_platform(Platform::IntelPurley);
        let horizon = SimDuration::days(60);
        let spec = sample_spec(&cfg, &mut rng);
        let faults = vec![
            sample_benign_fault(&cfg, &spec, horizon, &mut rng),
            sample_benign_fault(&cfg, &spec, horizon, &mut rng),
        ];
        let plan = DimmPlan {
            id: DimmId::new(4, 1),
            spec,
            category: DimmCategory::Benign,
            faults,
        };
        let mut log = BmcLog::new();
        simulate_dimm(
            &plan,
            &ecc,
            horizon,
            StormPolicy::default(),
            &mut log,
            &mut rng,
        );
        log.sort();
        let times: Vec<_> = log.events().iter().map(|e| e.time()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
