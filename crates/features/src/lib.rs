//! # mfp-features
//!
//! Feature engineering for memory-failure prediction: turns raw BMC logs
//! into the labelled tabular samples the ML layer consumes.
//!
//! * [`history`] — per-DIMM event timelines with windowed queries.
//! * [`fault_analysis`] — threshold-based fault-mode classification from
//!   observed CEs (cell / row / column / bank, single vs multi device), as
//!   in the paper's §V.
//! * [`errorbits`] — DQ/beat count and interval statistics (Fig. 5).
//! * [`labeling`] — the §IV problem formulation: observation window,
//!   lead time, prediction window, sample grid.
//! * [`extract`] — the fixed 48-feature schema.
//! * [`stream`] — incremental sliding-window extraction: one forward pass
//!   per DIMM, bit-identical to [`extract`].
//! * [`dataset`] — assembly of [`dataset::SampleSet`]s from a simulated
//!   fleet, with time-based splits, negative downsampling, and parallel
//!   per-DIMM sample building.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr_counts;
pub mod dataset;
pub mod errorbits;
pub mod extract;
pub mod fault_analysis;
pub mod history;
pub mod labeling;
pub mod stream;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::dataset::{build_samples, build_samples_with_workers, SampleSet};
    pub use crate::errorbits::ErrorBitStats;
    pub use crate::extract::{extract_features, feature_names, FEATURE_DIM};
    pub use crate::fault_analysis::{classify_ces, FaultThresholds, ObservedFaults};
    pub use crate::history::{DimmHistory, WindowCursor};
    pub use crate::labeling::ProblemConfig;
    pub use crate::stream::FeatureStream;
}
