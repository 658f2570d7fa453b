//! Fleet-level simulation: the synthetic substitute for the paper's
//! production dataset.
//!
//! [`simulate_fleet`] runs the event-driven engine
//! ([`EventFleet`](crate::events::EventFleet)) and returns the merged BMC
//! log together with per-DIMM ground truth. [`simulate_fleet_tick`] is
//! the sequential tick walk that engine is tested against: every DIMM
//! through [`simulate_dimm_ras`] in plan order on the calling thread.
//! Per-DIMM RNG streams are derived from the master seed with SplitMix64,
//! so both produce the same stream bit for bit, whatever the engine's
//! shard and worker counts.

use crate::config::{DimmCategory, FleetConfig};
use crate::dimm::{simulate_dimm_ras, DimmOutcome, StormPolicy};
use crate::events::simulate_fleet_events;
use crate::fault::FaultMode;
use crate::gen::{generate_plans, DimmPlan};
use crate::sharded::ShardConfig;
use mfp_dram::address::DimmId;
use mfp_dram::bmc::BmcLog;
use mfp_dram::geometry::Platform;
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::SimTime;
use mfp_ecc::platforms::CachedPlatformEcc;
use mfp_rng::{splitmix64, StdRng};

/// Ground truth for one simulated DIMM (never visible to the predictor).
#[derive(Debug, Clone, PartialEq)]
pub struct DimmTruth {
    /// The DIMM's identity.
    pub id: DimmId,
    /// Hosting platform.
    pub platform: Platform,
    /// Static spec.
    pub spec: DimmSpec,
    /// Generative category.
    pub category: DimmCategory,
    /// Spatial modes of the injected faults.
    pub fault_modes: Vec<FaultMode>,
    /// Simulation outcome counters.
    pub outcome: DimmOutcome,
}

impl DimmTruth {
    /// Time of the DIMM's first UE, if it failed.
    pub fn first_ue(&self) -> Option<SimTime> {
        self.outcome.first_ue
    }

    /// Whether the DIMM logged at least one CE.
    pub fn has_ces(&self) -> bool {
        self.outcome.logged_ces > 0 || self.outcome.suppressed_ces > 0
    }
}

/// The simulated dataset: merged BMC log plus ground truth.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// All memory events of the fleet, time-ordered.
    pub log: BmcLog,
    /// Ground truth per DIMM, in generation order.
    pub dimms: Vec<DimmTruth>,
    /// The configuration that produced this dataset.
    pub config: FleetConfig,
}

impl FleetResult {
    /// Truths for one platform.
    pub fn platform_dimms(&self, platform: Platform) -> impl Iterator<Item = &DimmTruth> {
        self.dimms.iter().filter(move |d| d.platform == platform)
    }
}

/// One planned DIMM with everything its simulation needs: the hosting
/// platform, the generated plan and the pre-derived RNG seed.
///
/// The seed is a pure function of `(master_seed, platform_index,
/// dimm_index)` — it never involves worker or shard identity, which is
/// what makes the sequential tick walk and the sharded event engine
/// produce bit-identical event streams.
pub(crate) type PlannedDimm = (Platform, DimmPlan, u64);

/// Phase 1 of every fleet simulation: generate all DIMM plans
/// sequentially (cheap) and derive each DIMM's RNG seed from the master
/// seed. Deterministic in `cfg` alone.
pub(crate) fn plan_fleet(cfg: &FleetConfig) -> Vec<PlannedDimm> {
    let mut tagged: Vec<PlannedDimm> = Vec::new();
    let mut base_server = 0u32;
    for (pi, pc) in cfg.platforms.iter().enumerate() {
        let mut gen_rng = StdRng::seed_from_u64(splitmix64(cfg.seed ^ (0xA11C_E000 + pi as u64)));
        let plans = generate_plans(pc, cfg.horizon, base_server, &mut gen_rng);
        base_server += plans.len() as u32 + 1000;
        for (di, plan) in plans.into_iter().enumerate() {
            let seed = splitmix64(cfg.seed ^ ((pi as u64) << 32) ^ (di as u64 + 1));
            tagged.push((pc.platform, plan, seed));
        }
    }
    tagged
}

/// Runs the whole fleet simulation on the event-driven engine with the
/// default [`ShardConfig`].
///
/// Deterministic in `cfg` (including `cfg.seed`); shards and worker
/// threads are an implementation detail.
pub fn simulate_fleet(cfg: &FleetConfig) -> FleetResult {
    simulate_fleet_events(cfg, &ShardConfig::default())
}

/// The sequential tick walk: plans the fleet, simulates every DIMM
/// through [`simulate_dimm_ras`] in plan order on the calling thread and
/// stable-sorts the log by time. It is the oracle the event engine is
/// tested against; everything else calls [`simulate_fleet`].
pub fn simulate_fleet_tick(cfg: &FleetConfig) -> FleetResult {
    let span = mfp_obs::latency("sim_fleet_seconds", &[]).time();
    let storm = StormPolicy {
        threshold: cfg.storm_threshold,
        suppression: cfg.storm_suppression,
    };
    // Memoized decode: fault processes replay the same transfer
    // signatures, so most syndromes are cache hits (decoding is pure —
    // outcomes are unchanged).
    let eccs: Vec<(Platform, CachedPlatformEcc)> = Platform::ALL
        .iter()
        .map(|&p| (p, CachedPlatformEcc::for_platform(p)))
        .collect();
    let plans = plan_fleet(cfg);
    let mut log = BmcLog::new();
    let mut dimms = Vec::with_capacity(plans.len());
    for (platform, plan, seed) in &plans {
        let ecc = &eccs
            .iter()
            .find(|(p, _)| p == platform)
            .expect("platform ecc")
            .1;
        let mut rng = StdRng::seed_from_u64(*seed);
        let outcome = simulate_dimm_ras(plan, ecc, cfg.horizon, storm, cfg.ras, &mut log, &mut rng);
        dimms.push(DimmTruth {
            id: plan.id,
            platform: *platform,
            spec: plan.spec,
            category: plan.category,
            fault_modes: plan.faults.iter().map(|f| f.mode).collect(),
            outcome,
        });
    }
    // Stable: equal times keep plan-major push order, i.e. ascending
    // DimmId, then each DIMM's own push order.
    log.sort();
    mfp_obs::counter("sim_fleet_runs", &[]).incr();
    mfp_obs::counter("sim_events_generated", &[]).add(log.len() as u64);
    mfp_obs::counter("sim_dimms_simulated", &[]).add(dimms.len() as u64);
    span.stop();
    FleetResult {
        log,
        dimms,
        config: cfg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_runs_and_is_deterministic() {
        let cfg = FleetConfig::smoke(42);
        let got = simulate_fleet(&cfg);
        let oracle = simulate_fleet_tick(&cfg);
        assert_eq!(got.log.events(), oracle.log.events());
        assert_eq!(got.dimms, oracle.dimms);
        assert!(!got.log.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = simulate_fleet(&FleetConfig::smoke(1));
        let b = simulate_fleet(&FleetConfig::smoke(2));
        assert_ne!(a.log.len(), b.log.len());
    }

    #[test]
    fn benign_dimms_never_ue() {
        let r = simulate_fleet(&FleetConfig::smoke(7));
        for d in &r.dimms {
            if d.category == DimmCategory::Benign {
                assert!(
                    d.first_ue().is_none(),
                    "benign {:?} must not UE (modes {:?})",
                    d.id,
                    d.fault_modes
                );
            }
        }
    }

    #[test]
    fn sudden_dimms_ue_without_ce_history() {
        let r = simulate_fleet(&FleetConfig::smoke(7));
        let mut sudden_ues = 0;
        for d in &r.dimms {
            if d.category == DimmCategory::Sudden {
                if d.first_ue().is_some() {
                    sudden_ues += 1;
                }
                assert!(d.outcome.logged_ces <= 2);
            }
        }
        assert!(sudden_ues > 0, "some sudden DIMMs must fail in-horizon");
    }

    #[test]
    fn degrading_dimms_produce_predictable_ues() {
        let r = simulate_fleet(&FleetConfig::smoke(7));
        let mut predictable = 0;
        for d in &r.dimms {
            if d.category == DimmCategory::Degrading && d.first_ue().is_some() {
                assert!(
                    d.outcome.logged_ces > 0,
                    "degrading UE must have CE warning"
                );
                predictable += 1;
            }
        }
        assert!(predictable > 0, "some degrading DIMMs must reach UE");
    }

    #[test]
    fn all_platforms_present_in_log() {
        let r = simulate_fleet(&FleetConfig::smoke(3));
        for p in Platform::ALL {
            assert!(r.platform_dimms(p).count() > 0, "{p} missing from fleet");
        }
    }
}
