//! # mfp-core
//!
//! The unified API of the `memfault` workspace — everything needed to
//! reproduce *"Investigating Memory Failure Prediction Across CPU
//! Architectures"* (DSN 2024):
//!
//! * [`study`] — the empirical analyses computed from BMC logs: dataset
//!   summary (Table I), relative UE rate per fault mode (Fig. 4), and
//!   error-bit pattern analysis (Fig. 5).
//! * [`experiment`] — the prediction protocol behind Table II: time-based
//!   splits, DIMM-level alarm evaluation, and feature-family ablations.
//! * [`pipeline`] — the [`pipeline::Study`] façade tying simulation,
//!   analysis and prediction together.
//!
//! # Examples
//!
//! ```no_run
//! use mfp_core::prelude::*;
//! use mfp_dram::geometry::Platform;
//! use mfp_ml::model::Algorithm;
//!
//! let study = Study::smoke(42);
//! for row in study.dataset_summary() {
//!     println!("{}: {} CE DIMMs, {:.0}% predictable UEs",
//!              row.platform, row.dimms_with_ces, row.predictable_pct);
//! }
//! let r = study.evaluate(Platform::IntelPurley, Algorithm::LightGbm);
//! println!("LightGBM F1 on Purley: {:.2}", r.evaluation.f1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod pipeline;
pub mod study;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::experiment::{
        ablate_family, build_splits, evaluate_algorithm, AlgoResult, ExperimentConfig,
        FeatureFamily, PlatformSplits,
    };
    pub use crate::pipeline::Study;
    pub use crate::study::{
        dataset_summary, error_bit_analysis, relative_ue_by_fault_mode, DatasetRow, ErrorBitPanel,
        FaultModeUeRates,
    };
}
