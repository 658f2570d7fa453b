//! The rule-based "Risky CE Pattern" baseline, reproducing Li et al.
//! (SC'22) \[7\] in the feature space of this workspace.
//!
//! The original work mined manufacturer-specific error-bit patterns on
//! Intel Skylake / Cascade Lake (Purley): a DIMM becomes *risky* — and an
//! imminent-UE alarm is raised — once a CE exhibits a risky bit pattern
//! (multiple error DQs and beats with characteristic spacing). The paper
//! under reproduction uses it as the prior-art baseline on Purley and
//! notes there is *no* dedicated predictor for Whitley or the K920 (the
//! `X` entries in Table II).

use mfp_features::dataset::SampleSet;
use mfp_features::extract::feature_names;

/// Rule thresholds of the risky-pattern indicator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskyCeParams {
    /// Minimum "complex" CEs (>= 2 DQs and >= 2 beats) in the window.
    pub min_complex: f32,
    /// Require at least one interval-4 beat pattern.
    pub require_interval4: bool,
    /// Minimum distinct rows in the window (fault spread).
    pub min_rows: f32,
}

impl Default for RiskyCeParams {
    fn default() -> Self {
        RiskyCeParams {
            min_complex: 1.0,
            require_interval4: true,
            min_rows: 1.0,
        }
    }
}

/// The trained (index-resolved) baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskyCePattern {
    params: RiskyCeParams,
    idx_complex: usize,
    idx_interval4: usize,
    idx_rows: usize,
    idx_u_dq: usize,
    idx_u_int4: usize,
}

impl RiskyCePattern {
    /// Resolves the rule against the standard feature schema.
    pub fn new(params: RiskyCeParams) -> Self {
        let names = feature_names();
        let find = |n: &str| {
            names
                .iter()
                .position(|x| x == n)
                .unwrap_or_else(|| panic!("schema is missing {n}"))
        };
        RiskyCePattern {
            params,
            idx_complex: find("eb_complex"),
            idx_interval4: find("eb_interval4"),
            idx_rows: find("rows_5d"),
            idx_u_dq: find("ebu_dev_dq"),
            idx_u_int4: find("ebu_dev_interval4"),
        }
    }

    /// Rule score: 1.0 when the observation window shows a risky pattern —
    /// either within one CE or accumulated across the window's error bits
    /// within one device (Li et al. mine both forms).
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        let rows_ok = row[self.idx_rows] >= self.params.min_rows;
        let per_event = row[self.idx_complex] >= self.params.min_complex
            && (!self.params.require_interval4 || row[self.idx_interval4] >= 1.0);
        let accumulated = row[self.idx_u_dq] >= 2.0
            && (!self.params.require_interval4 || row[self.idx_u_int4] >= 1.0);
        if rows_ok && (per_event || accumulated) {
            1.0
        } else {
            0.0
        }
    }

    /// Scores a whole sample set.
    pub fn predict_set(&self, set: &SampleSet) -> Vec<f32> {
        (0..set.len())
            .map(|i| self.predict_proba(set.row(i)))
            .collect()
    }
}

impl Default for RiskyCePattern {
    fn default() -> Self {
        RiskyCePattern::new(RiskyCeParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_features::extract::FEATURE_DIM;

    fn row_with(complex: f32, interval4: f32, rows: f32) -> Vec<f32> {
        let names = feature_names();
        let mut row = vec![0.0f32; FEATURE_DIM];
        row[names.iter().position(|n| n == "eb_complex").unwrap()] = complex;
        row[names.iter().position(|n| n == "eb_interval4").unwrap()] = interval4;
        row[names.iter().position(|n| n == "rows_5d").unwrap()] = rows;
        // Accumulated footprint mirrors the per-event evidence.
        row[names.iter().position(|n| n == "ebu_dev_dq").unwrap()] =
            if complex >= 1.0 { 2.0 } else { 0.0 };
        row[names.iter().position(|n| n == "ebu_dev_interval4").unwrap()] =
            if interval4 >= 1.0 { 1.0 } else { 0.0 };
        row
    }

    #[test]
    fn risky_pattern_fires() {
        let m = RiskyCePattern::default();
        assert_eq!(m.predict_proba(&row_with(2.0, 1.0, 3.0)), 1.0);
    }

    #[test]
    fn benign_patterns_do_not_fire() {
        let m = RiskyCePattern::default();
        assert_eq!(m.predict_proba(&row_with(0.0, 0.0, 5.0)), 0.0);
        assert_eq!(m.predict_proba(&row_with(2.0, 0.0, 5.0)), 0.0);
        assert_eq!(m.predict_proba(&row_with(2.0, 1.0, 0.0)), 0.0);
    }

    #[test]
    fn interval4_requirement_is_optional() {
        let m = RiskyCePattern::new(RiskyCeParams {
            require_interval4: false,
            ..Default::default()
        });
        assert_eq!(m.predict_proba(&row_with(1.0, 0.0, 1.0)), 1.0);
    }
}
