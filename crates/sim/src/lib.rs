//! # mfp-sim
//!
//! The DRAM fault-injection fleet simulator: the synthetic substitute for
//! the paper's proprietary production dataset (~250k servers, Jan–Oct
//! 2023).
//!
//! The pipeline is: [`config`] calibrates per-platform fleets →
//! [`gen`] samples DIMM specs and fault instances ([`fault`]) →
//! [`dimm`] plays each fault's Poisson hit process through the platform's
//! real ECC decoder (`mfp-ecc`) → [`fleet`] merges everything into a
//! time-ordered BMC log plus per-DIMM ground truth. [`events`] is the
//! engine [`fleet::simulate_fleet`] runs; the sequential tick walk
//! [`fleet::simulate_fleet_tick`] is kept as its test oracle.
//!
//! Because CE/UE outcomes are produced by actual syndrome decoding of
//! injected error patterns, cross-platform differences in failure
//! behaviour *emerge from the ECC models* rather than being scripted —
//! which is precisely the causal claim of the paper.
//!
//! # Examples
//!
//! ```
//! use mfp_sim::prelude::*;
//!
//! let cfg = FleetConfig::smoke(42);
//! let fleet = simulate_fleet(&cfg);
//! assert!(!fleet.log.is_empty());
//! let (ces, ues, storms) = fleet.log.counts();
//! assert!(ces > ues);
//! # let _ = storms;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod dimm;
pub mod events;
pub mod fault;
pub mod fleet;
pub mod gen;
pub mod ras;
pub mod sharded;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::chaos::{inject_chaos, BurstLoss, ChaosConfig, ChaosStats};
    pub use crate::config::{DimmCategory, FleetConfig, PlatformConfig};
    pub use crate::dimm::{simulate_dimm, DimmOutcome, StormPolicy};
    pub use crate::events::{simulate_fleet_events, EventFleet};
    pub use crate::fault::{Fault, FaultMode, SeverityProfile};
    pub use crate::fleet::{simulate_fleet, simulate_fleet_tick, DimmTruth, FleetResult};
    pub use crate::gen::DimmPlan;
    pub use crate::ras::{AdddcPolicy, AdddcState, RasAction, RasPolicy, RasReport, RasState};
    pub use crate::sharded::{ShardConfig, ShardStats, ShardedOutcome, ShardedStats};
}
