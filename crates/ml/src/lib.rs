//! # mfp-ml
//!
//! From-scratch tabular machine learning for memory-failure prediction —
//! the algorithms of the paper's Table II:
//!
//! * [`risky_ce`] — the rule-based *Risky CE Pattern* baseline \[7\].
//! * [`forest`] — Random Forest on histogram-binned features ([`binning`],
//!   [`tree`]).
//! * [`gbdt`] — a LightGBM-style leaf-wise histogram GBDT with GOSS and
//!   early stopping.
//! * [`ft`] — an FT-Transformer on the `mfp-tensor` kernels.
//! * [`metrics`] — precision / recall / F1 / VIRR, threshold selection and
//!   the DIMM-level alarm vote.
//! * [`model`] — one enum to train and score any of the above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod forest;
pub mod ft;
pub mod gbdt;
pub mod metrics;
pub mod model;
mod node;
pub mod risky_ce;
pub mod tree;
pub mod tuning;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::binning::{BinnedData, Binner};
    pub use crate::forest::{ForestParams, RandomForest};
    pub use crate::ft::{FtParams, FtTransformer};
    pub use crate::gbdt::{Gbdt, GbdtParams};
    pub use crate::metrics::{
        best_f1_threshold, best_vote_threshold, dimm_level_vote, roc_auc, vote_evaluation,
        Confusion, Evaluation,
    };
    pub use crate::model::{Algorithm, Model};
    pub use crate::risky_ce::{RiskyCeParams, RiskyCePattern};
    pub use crate::tree::{DecisionTree, TreeParams};
    pub use crate::tuning::{default_forest_grid, default_gbdt_grid, grid_search, Candidate};
}
