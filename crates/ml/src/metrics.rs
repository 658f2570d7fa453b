//! Evaluation metrics: precision / recall / F1 and the paper's VM
//! Interruption Reduction Rate (VIRR), plus threshold selection and the
//! DIMM-level alarm vote over sample-level scores ([`vote_evaluation`]).

use mfp_dram::address::DimmId;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::dataset::SampleSet;
use std::collections::BTreeMap;

/// A binary confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// True positives.
    pub tp: u32,
    /// False positives.
    pub fp: u32,
    /// False negatives.
    pub fn_: u32,
    /// True negatives.
    pub tn: u32,
}

impl Confusion {
    /// Builds a confusion matrix from labels and boolean predictions.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn from_predictions(y_true: &[bool], y_pred: &[bool]) -> Self {
        assert_eq!(y_true.len(), y_pred.len());
        let mut c = Confusion::default();
        for (&t, &p) in y_true.iter().zip(y_pred) {
            c.count(t, p);
        }
        c
    }

    /// Counts one (label, prediction) pair.
    fn count(&mut self, truth: bool, pred: bool) {
        match (truth, pred) {
            (true, true) => self.tp += 1,
            (false, true) => self.fp += 1,
            (true, false) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Precision = TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        let d = self.tp + self.fp;
        if d == 0 {
            0.0
        } else {
            self.tp as f64 / d as f64
        }
    }

    /// Recall = TP / (TP + FN).
    pub fn recall(&self) -> f64 {
        let d = self.tp + self.fn_;
        if d == 0 {
            0.0
        } else {
            self.tp as f64 / d as f64
        }
    }

    /// F1 = harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// VM Interruption Reduction Rate with cold-migration fraction `y_c`:
    /// `(1 - y_c / precision) * recall` (paper §IV; negative when precision
    /// drops below `y_c`, meaning prediction *adds* interruptions).
    pub fn virr(&self, y_c: f64) -> f64 {
        let p = self.precision();
        if p == 0.0 {
            return 0.0;
        }
        (1.0 - y_c / p) * self.recall()
    }
}

/// Summary of one evaluated model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The confusion matrix.
    pub confusion: Confusion,
    /// Decision threshold used.
    pub threshold: f32,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F1-score.
    pub f1: f64,
    /// VIRR at the paper's `y_c = 0.1`.
    pub virr: f64,
}

impl Evaluation {
    /// Computes the summary from a confusion matrix.
    pub fn from_confusion(c: Confusion, threshold: f32) -> Self {
        Evaluation {
            confusion: c,
            threshold,
            precision: c.precision(),
            recall: c.recall(),
            f1: c.f1(),
            virr: c.virr(0.1),
        }
    }
}

/// Distinct finite score values, subsampled to at most `cap` quantile
/// candidates. Non-finite scores (NaN, ±inf from a degenerate model)
/// cannot serve as operating thresholds and are dropped; the result is
/// empty when no finite score exists.
fn threshold_candidates(scores: &[f32], cap: usize) -> Vec<f32> {
    let mut sorted: Vec<f32> = scores.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted.dedup();
    if sorted.len() <= cap {
        sorted
    } else {
        (0..cap)
            .map(|k| sorted[k * (sorted.len() - 1) / (cap - 1)])
            .collect()
    }
}

/// Picks the probability threshold maximizing F1 on `(labels, scores)`.
///
/// Scans the distinct finite score quantiles (up to 200 candidates);
/// returns the conventional 0.5 when there is nothing to scan.
pub fn best_f1_threshold(labels: &[bool], scores: &[f32]) -> f32 {
    assert_eq!(labels.len(), scores.len());
    let candidates = threshold_candidates(scores, 200);
    let mut best = (0.5f32, -1.0f64);
    for &th in &candidates {
        let preds: Vec<bool> = scores.iter().map(|&s| s >= th).collect();
        let f1 = Confusion::from_predictions(labels, &preds).f1();
        if f1 > best.1 {
            best = (th, f1);
        }
    }
    best.0
}

/// The set's effective sampling cadence: the smallest positive gap between
/// successive same-DIMM sample times. Robust to negative downsampling
/// (which removes whole samples but leaves adjacent pairs elsewhere in any
/// non-trivial set). Falls back to an effectively unbounded gap when no
/// DIMM carries two samples at distinct times, which reproduces the
/// gap-blind behaviour on sets without usable time structure.
pub fn derive_sample_gap(set: &SampleSet) -> SimDuration {
    let mut last: BTreeMap<DimmId, SimTime> = BTreeMap::new();
    let mut min_gap: Option<SimDuration> = None;
    for i in 0..set.len() {
        let t = set.times[i];
        if let Some(prev) = last.insert(set.dimms[i], t) {
            if let Some(gap) = t.checked_duration_since(prev) {
                if gap > SimDuration::ZERO && min_gap.is_none_or(|m| gap < m) {
                    min_gap = Some(gap);
                }
            }
        }
    }
    min_gap.unwrap_or(SimDuration::secs(u64::MAX))
}

/// DIMM-level aggregation with an alarm-voting rule: a DIMM is predicted
/// failing only when `votes` *consecutive* samples (in time order) score at
/// or above the threshold — the de-duplication production alarm systems
/// apply to suppress one-off score spikes.
///
/// "Consecutive" is judged against the set's own sampling cadence (see
/// [`derive_sample_gap`]): two above-threshold samples separated by a hole
/// in the grid — downsampled negatives, a DIMM going quiet for a while —
/// do not accumulate into one run. Use [`dimm_level_vote_with_gap`] to
/// supply the cadence explicitly.
///
/// Returns `(y_true, y_pred)` in DIMM order.
pub fn dimm_level_vote(
    set: &SampleSet,
    scores: &[f32],
    threshold: f32,
    votes: usize,
) -> (Vec<bool>, Vec<bool>) {
    dimm_level_vote_with_gap(set, scores, threshold, votes, derive_sample_gap(set))
}

/// [`dimm_level_vote`] with an explicit vote-run contiguity bound: a run
/// continues only when the time step from the previous same-DIMM sample is
/// at most `max_gap` (pass the problem's `sample_interval` when it is
/// known).
///
/// Returns `(y_true, y_pred)` in DIMM order.
#[allow(clippy::needless_range_loop)] // set columns and scores walked in lockstep
pub fn dimm_level_vote_with_gap(
    set: &SampleSet,
    scores: &[f32],
    threshold: f32,
    votes: usize,
    max_gap: SimDuration,
) -> (Vec<bool>, Vec<bool>) {
    assert_eq!(set.len(), scores.len());
    let votes = votes.max(1);
    // Group sample indices per DIMM (already in time order per DIMM since
    // build_samples walks each DIMM's grid chronologically).
    // Per DIMM: (true-label, run length, fired, previous sample time).
    let mut per_dimm: BTreeMap<DimmId, (bool, u32, bool, Option<SimTime>)> = BTreeMap::new();
    for i in 0..set.len() {
        let e = per_dimm
            .entry(set.dimms[i])
            .or_insert((false, 0, false, None));
        e.0 |= set.labels[i];
        let t = set.times[i];
        // A hole in the sampling grid breaks the run: the votes on either
        // side of it are not consecutive observations of the DIMM.
        let contiguous = match e.3 {
            Some(prev) => t
                .checked_duration_since(prev)
                .is_some_and(|gap| gap <= max_gap),
            None => true,
        };
        e.3 = Some(t);
        if !contiguous {
            e.1 = 0;
        }
        if scores[i] >= threshold {
            e.1 += 1;
            if e.1 as usize >= votes {
                e.2 = true;
            }
        } else {
            e.1 = 0;
        }
    }
    per_dimm.values().map(|&(t, _, p, _)| (t, p)).unzip()
}

/// The DIMM-level evaluation of `scores` on `set` under the alarm-voting
/// rule of [`dimm_level_vote`] at `threshold` (Table II's protocol: pass
/// the [`best_vote_threshold`] of a tuning split's scores).
pub fn vote_evaluation(
    set: &SampleSet,
    scores: &[f32],
    threshold: f32,
    votes: usize,
) -> Evaluation {
    let (y_true, y_pred) = dimm_level_vote(set, scores, threshold, votes);
    Evaluation::from_confusion(Confusion::from_predictions(&y_true, &y_pred), threshold)
}

/// Per DIMM of `set`, in DIMM order: whether any of its samples is
/// labelled positive, and the highest threshold at which the voting rule
/// of [`dimm_level_vote_with_gap`] fires it.
///
/// The rule fires at `th` exactly when some `votes` consecutive samples,
/// each within `max_gap` of the one before, all score at or above `th`,
/// that is when the lowest score of that run is at least `th`. So the
/// firing threshold is the best such run's lowest score, with NaN (never
/// at or above a threshold) read as `-inf`; a DIMM with no run of
/// `votes` samples gets `-inf` and fires at no finite threshold.
fn vote_firing_scores(
    set: &SampleSet,
    scores: &[f32],
    votes: usize,
    max_gap: SimDuration,
) -> Vec<(bool, f32)> {
    // Sample indices per DIMM, in set order like the rule's walk.
    let mut by_dimm: BTreeMap<DimmId, Vec<usize>> = BTreeMap::new();
    for (i, &dimm) in set.dimms.iter().enumerate() {
        by_dimm.entry(dimm).or_default().push(i);
    }
    by_dimm
        .values()
        .map(|idx| {
            let label = idx.iter().any(|&i| set.labels[i]);
            let mut fire = f32::NEG_INFINITY;
            // Position in `idx` where the current contiguous stretch began.
            let mut stretch = 0;
            for k in 0..idx.len() {
                let contiguous = k == 0
                    || set.times[idx[k]]
                        .checked_duration_since(set.times[idx[k - 1]])
                        .is_some_and(|gap| gap <= max_gap);
                if !contiguous {
                    stretch = k;
                }
                if k + 1 - stretch >= votes {
                    let low = idx[k + 1 - votes..=k]
                        .iter()
                        .map(|&i| {
                            if scores[i].is_nan() {
                                f32::NEG_INFINITY
                            } else {
                                scores[i]
                            }
                        })
                        .fold(f32::INFINITY, f32::min);
                    fire = fire.max(low);
                }
            }
            (label, fire)
        })
        .collect()
}

/// Picks the threshold maximizing DIMM-level F1 under the voting rule
/// (same gap semantics as [`dimm_level_vote`]; the cadence is derived once
/// and reused across candidates). Returns 0.5 when no finite score exists.
///
/// The samples are grouped by DIMM once, each DIMM reduced to the
/// threshold at which its votes fire, and every candidate is swept over
/// those; the choice is the one [`dimm_level_vote_with_gap`] per
/// candidate would make.
pub fn best_vote_threshold(set: &SampleSet, scores: &[f32], votes: usize) -> f32 {
    assert_eq!(set.len(), scores.len());
    let candidates = threshold_candidates(scores, 100);
    if candidates.is_empty() {
        return 0.5;
    }
    let dimms = vote_firing_scores(set, scores, votes.max(1), derive_sample_gap(set));
    let mut scored: Vec<(f32, f64)> = Vec::with_capacity(candidates.len());
    let mut best_f1 = -1.0f64;
    for &th in &candidates {
        let mut c = Confusion::default();
        for &(label, fire) in &dimms {
            c.count(label, fire >= th);
        }
        let f1 = c.f1();
        scored.push((th, f1));
        best_f1 = best_f1.max(f1);
    }
    // Among near-optimal thresholds, prefer the lowest (recall-leaning):
    // validation F1 surfaces are spiky with few positive DIMMs, and a
    // lower operating point transfers more robustly to longer windows.
    scored
        .iter()
        .filter(|&&(_, f1)| f1 >= best_f1 * 0.98)
        .map(|&(th, _)| th)
        .fold(f32::INFINITY, f32::min)
        .min(1.0)
}

/// Area under the ROC curve via the rank-sum (Mann-Whitney) statistic,
/// with midrank tie handling. Returns 0.5 when one class is absent.
pub fn roc_auc(labels: &[bool], scores: &[f32]) -> f64 {
    assert_eq!(labels.len(), scores.len());
    let mut pairs: Vec<(f32, bool)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = pairs.len();
    let mut rank_sum = 0.0f64;
    let mut pos = 0u64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j < n && pairs[j].0 == pairs[i].0 {
            j += 1;
        }
        let avg_rank = (i + 1 + j) as f64 / 2.0;
        for p in &pairs[i..j] {
            if p.1 {
                rank_sum += avg_rank;
                pos += 1;
            }
        }
        i = j;
    }
    let neg = n as u64 - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    (rank_sum - (pos * (pos + 1) / 2) as f64) / (pos as f64 * neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::time::SimTime;

    #[test]
    fn confusion_counts() {
        let t = [true, true, false, false, true];
        let p = [true, false, true, false, true];
        let c = Confusion::from_predictions(&t, &p);
        assert_eq!((c.tp, c.fp, c.fn_, c.tn), (2, 1, 1, 1));
    }

    #[test]
    fn metric_formulas() {
        let c = Confusion {
            tp: 6,
            fp: 2,
            fn_: 4,
            tn: 88,
        };
        assert!((c.precision() - 0.75).abs() < 1e-12);
        assert!((c.recall() - 0.6).abs() < 1e-12);
        let f1 = 2.0 * 0.75 * 0.6 / (0.75 + 0.6);
        assert!((c.f1() - f1).abs() < 1e-12);
        // VIRR = (1 - 0.1/0.75) * 0.6
        assert!((c.virr(0.1) - (1.0 - 0.1 / 0.75) * 0.6).abs() < 1e-12);
    }

    #[test]
    fn virr_negative_when_precision_below_yc() {
        let c = Confusion {
            tp: 1,
            fp: 19,
            fn_: 1,
            tn: 79,
        };
        assert!(c.precision() < 0.1);
        assert!(c.virr(0.1) < 0.0);
    }

    #[test]
    fn degenerate_cases_are_zero() {
        let c = Confusion::default();
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.virr(0.1), 0.0);
    }

    #[test]
    fn best_threshold_separates_perfectly() {
        let labels = [false, false, false, true, true];
        let scores = [0.1f32, 0.2, 0.3, 0.8, 0.9];
        let th = best_f1_threshold(&labels, &scores);
        let preds: Vec<bool> = scores.iter().map(|&s| s >= th).collect();
        assert_eq!(Confusion::from_predictions(&labels, &preds).f1(), 1.0);
    }

    #[test]
    fn roc_auc_perfect_and_random() {
        let labels = [false, false, false, true, true];
        let perfect = [0.1f32, 0.2, 0.3, 0.8, 0.9];
        assert!((roc_auc(&labels, &perfect) - 1.0).abs() < 1e-12);
        let inverted = [0.9f32, 0.8, 0.7, 0.2, 0.1];
        assert!(roc_auc(&labels, &inverted) < 1e-12);
        // All-tied scores: AUC 0.5 by midrank convention.
        let flat = [0.5f32; 5];
        assert!((roc_auc(&labels, &flat) - 0.5).abs() < 1e-12);
        // Degenerate single-class input.
        assert_eq!(roc_auc(&[true, true], &[0.1, 0.9]), 0.5);
    }

    #[test]
    fn vote_runs_break_across_sampling_gaps() {
        // Regression: two above-threshold scores adjacent in the array but
        // a missing grid step apart in time counted as "consecutive" votes
        // and alarmed the DIMM.
        let day = 86_400u64;
        let a = DimmId::new(0, 0);
        let b = DimmId::new(1, 0);
        let mut set = SampleSet::new();
        set.schema = vec!["x".into()];
        // DIMM a: days 1 and 3 (hole at day 2). DIMM b: days 1 and 2.
        set.push(vec![0.0], true, a, SimTime::from_secs(day));
        set.push(vec![0.0], true, a, SimTime::from_secs(3 * day));
        set.push(vec![0.0], true, b, SimTime::from_secs(day));
        set.push(vec![0.0], true, b, SimTime::from_secs(2 * day));
        let scores = [0.9f32, 0.9, 0.9, 0.9];
        assert_eq!(derive_sample_gap(&set), SimDuration::days(1));
        let (y_true, y_pred) = dimm_level_vote(&set, &scores, 0.5, 2);
        assert_eq!(y_true, vec![true, true]);
        assert_eq!(y_pred, vec![false, true], "a hole must break the run");
        // An explicitly wider contiguity bound admits the 2-day step.
        let (_, y_pred) = dimm_level_vote_with_gap(&set, &scores, 0.5, 2, SimDuration::days(2));
        assert_eq!(y_pred, vec![true, true]);
        // The tuned threshold uses the same gap rule: only DIMM b can
        // satisfy votes=2, and 0.9 separates it perfectly.
        let th = best_vote_threshold(&set, &scores, 2);
        let (_, y_pred) = dimm_level_vote(&set, &scores, th, 2);
        assert_eq!(y_pred, vec![false, true]);
    }

    #[test]
    fn derive_sample_gap_falls_back_when_unknowable() {
        let mut set = SampleSet::new();
        set.schema = vec!["x".into()];
        set.push(vec![0.0], true, DimmId::new(0, 0), SimTime::from_secs(5));
        set.push(vec![0.0], false, DimmId::new(1, 0), SimTime::from_secs(9));
        // One sample per DIMM: no cadence to derive, votes behave as before.
        assert_eq!(derive_sample_gap(&set), SimDuration::secs(u64::MAX));
        let (_, y_pred) = dimm_level_vote(&set, &[0.9, 0.9], 0.5, 1);
        assert_eq!(y_pred, vec![true, true]);
    }

    #[test]
    fn threshold_pickers_handle_empty_and_nonfinite_scores() {
        // Regression: an empty candidate list silently produced 1.0 from
        // the vote picker; all pickers now fall back to the conventional
        // 0.5 and never select a non-finite operating point.
        let empty = SampleSet::new();
        assert_eq!(best_vote_threshold(&empty, &[], 2), 0.5);
        assert_eq!(best_f1_threshold(&[], &[]), 0.5);
        let mut set = SampleSet::new();
        set.schema = vec!["x".into()];
        set.push(vec![0.0], true, DimmId::new(0, 0), SimTime::from_secs(1));
        set.push(vec![0.0], false, DimmId::new(1, 0), SimTime::from_secs(1));
        let nan = [f32::NAN, f32::NAN];
        assert_eq!(best_vote_threshold(&set, &nan, 1), 0.5);
        assert_eq!(best_f1_threshold(&[true, false], &nan), 0.5);
        let mixed = [f32::INFINITY, 0.8];
        assert!(best_vote_threshold(&set, &mixed, 1).is_finite());
        assert!(best_f1_threshold(&[true, false], &mixed).is_finite());
    }

    #[test]
    fn one_vote_aggregates_any_positive() {
        let mut set = SampleSet::new();
        set.schema = vec!["x".into()];
        // DIMM 0: samples neg+pos; DIMM 1: all neg.
        set.push(vec![0.0], false, DimmId::new(0, 0), SimTime::from_secs(1));
        set.push(vec![0.0], true, DimmId::new(0, 0), SimTime::from_secs(2));
        set.push(vec![0.0], false, DimmId::new(1, 0), SimTime::from_secs(3));
        let scores = [0.9f32, 0.1, 0.2];
        let (y_true, y_pred) = dimm_level_vote(&set, &scores, 0.5, 1);
        assert_eq!(y_true, vec![true, false]);
        assert_eq!(y_pred, vec![true, false]);
        let e = vote_evaluation(&set, &scores, 0.5, 1);
        assert_eq!(
            (
                e.confusion.tp,
                e.confusion.fp,
                e.confusion.fn_,
                e.confusion.tn
            ),
            (1, 0, 0, 1)
        );
        assert_eq!((e.threshold, e.f1), (0.5, 1.0));
    }
}
