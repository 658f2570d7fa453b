//! Property-based tests of the ML layer: metric laws, binning, and model
//! output validity on random tabular data.

use mfp_dram::address::DimmId;
use mfp_dram::time::SimTime;
use mfp_features::dataset::SampleSet;
use mfp_ml::binning::Binner;
use mfp_ml::metrics::{
    best_f1_threshold, best_vote_threshold, derive_sample_gap, dimm_level_vote,
    dimm_level_vote_with_gap, vote_evaluation, Confusion, Evaluation,
};
use mfp_ml::model::{Algorithm, Model};
use mfp_rng::StdRng;

mod common;
use common::{assume, check, coin, vec_of, CASES};

fn labels_and_scores(rng: &mut StdRng) -> (Vec<bool>, Vec<f32>) {
    vec_of(rng, 2..200, |r| (coin(r), r.random::<f32>()))
        .into_iter()
        .unzip()
}

fn small_set(rng: &mut StdRng) -> SampleSet {
    let rows = vec_of(rng, 8..80, |r| {
        let row: Vec<f32> = (0..4).map(|_| -10.0 + 20.0 * r.random::<f32>()).collect();
        (row, coin(r))
    });
    let mut s = SampleSet::new();
    s.schema = (0..4).map(|i| format!("f{i}")).collect();
    for (i, (row, y)) in rows.into_iter().enumerate() {
        s.push(
            row,
            y,
            DimmId::new((i / 4) as u32, 0),
            SimTime::from_secs(i as u64 * 3600),
        );
    }
    s
}

/// Confusion-derived metrics obey their defining bounds.
#[test]
fn metric_bounds() {
    check("metric_bounds", CASES, |rng| {
        let (labels, scores) = labels_and_scores(rng);
        let th = rng.random::<f32>();
        let preds: Vec<bool> = scores.iter().map(|&s| s >= th).collect();
        let c = Confusion::from_predictions(&labels, &preds);
        let n = c.tp + c.fp + c.fn_ + c.tn;
        assert_eq!(n as usize, labels.len());
        assert!((0.0..=1.0).contains(&c.precision()));
        assert!((0.0..=1.0).contains(&c.recall()));
        assert!((0.0..=1.0).contains(&c.f1()));
        // F1 between min and max of precision/recall (harmonic mean law),
        // whenever both are defined.
        if c.precision() > 0.0 && c.recall() > 0.0 {
            let lo = c.precision().min(c.recall());
            let hi = c.precision().max(c.recall());
            assert!(c.f1() >= lo * 0.999_999 || c.f1() <= hi);
            assert!(c.f1() <= hi + 1e-12);
        }
        // VIRR <= recall always (y_c > 0 only subtracts).
        assert!(c.virr(0.1) <= c.recall() + 1e-12);
    });
}

/// The swept threshold is at least as good as the 0.5 default.
#[test]
fn best_threshold_dominates_default() {
    check("best_threshold_dominates_default", CASES, |rng| {
        let (labels, scores) = labels_and_scores(rng);
        let th = best_f1_threshold(&labels, &scores);
        let f1_at = |t: f32| {
            let preds: Vec<bool> = scores.iter().map(|&s| s >= t).collect();
            Confusion::from_predictions(&labels, &preds).f1()
        };
        assert!(f1_at(th) + 1e-9 >= f1_at(0.5));
    });
}

/// Vote aggregation with more required votes never predicts more DIMMs.
#[test]
fn more_votes_never_fire_more() {
    check("more_votes_never_fire_more", CASES, |rng| {
        let set = small_set(rng);
        let th = rng.random::<f32>();
        let scores: Vec<f32> = (0..set.len()).map(|i| (i as f32 * 0.37) % 1.0).collect();
        let (_, pred1) = dimm_level_vote(&set, &scores, th, 1);
        let (_, pred3) = dimm_level_vote(&set, &scores, th, 3);
        for (a, b) in pred1.iter().zip(&pred3) {
            assert!(!b || *a, "vote-3 fired where vote-1 did not");
        }
    });
}

/// The vote threshold tuner returns a threshold within [0, 1].
#[test]
fn vote_threshold_in_range() {
    check("vote_threshold_in_range", CASES, |rng| {
        let set = small_set(rng);
        let scores: Vec<f32> = (0..set.len()).map(|i| (i as f32 * 0.61) % 1.0).collect();
        let th = best_vote_threshold(&set, &scores, 2);
        assert!((0.0..=1.0).contains(&th));
    });
}

/// A validation-like set for the vote rule: up to five DIMMs whose
/// samples interleave, each DIMM on an hourly grid with holes, repeated
/// times and the odd step back, and scores drawn with ties, NaN and ±inf.
fn vote_set(rng: &mut StdRng) -> (SampleSet, Vec<f32>) {
    let dimms = rng.random_range(1..=5u32);
    let mut clock = vec![0u64; dimms as usize];
    let mut set = SampleSet::new();
    set.schema = vec!["x".into()];
    let mut scores = Vec::new();
    for _ in 0..rng.random_range(1..120usize) {
        let d = rng.random_range(0..dimms);
        let t = &mut clock[d as usize];
        *t = match rng.random_range(0..10u32) {
            0 => t.saturating_sub(3600),
            1 => *t,
            2 | 3 => *t + 3600 * rng.random_range(2..5u64),
            _ => *t + 3600,
        };
        let label = rng.random_range(0..4u32) == 0;
        set.push(vec![0.0], label, DimmId::new(d, 0), SimTime::from_secs(*t));
        scores.push(match rng.random_range(0..12u32) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 1.5,
            5..=7 => [0.0, 0.25, 0.5, 0.75, 1.0][rng.random_range(0..5usize)],
            _ => rng.random::<f32>(),
        });
    }
    (set, scores)
}

/// The per-candidate sweep that [`best_vote_threshold`] replaced: the same
/// candidates, one [`dimm_level_vote_with_gap`] pass each.
fn best_vote_threshold_oracle(set: &SampleSet, scores: &[f32], votes: usize) -> f32 {
    let mut sorted: Vec<f32> = scores.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    sorted.dedup();
    let candidates: Vec<f32> = if sorted.len() <= 100 {
        sorted
    } else {
        (0..100)
            .map(|k| sorted[k * (sorted.len() - 1) / 99])
            .collect()
    };
    if candidates.is_empty() {
        return 0.5;
    }
    let max_gap = derive_sample_gap(set);
    let mut scored = Vec::new();
    let mut best_f1 = -1.0f64;
    for &th in &candidates {
        let (y_true, y_pred) = dimm_level_vote_with_gap(set, scores, th, votes, max_gap);
        let f1 = Confusion::from_predictions(&y_true, &y_pred).f1();
        scored.push((th, f1));
        best_f1 = best_f1.max(f1);
    }
    scored
        .iter()
        .filter(|&&(_, f1)| f1 >= best_f1 * 0.98)
        .map(|&(th, _)| th)
        .fold(f32::INFINITY, f32::min)
        .min(1.0)
}

/// The group-once vote sweep picks the per-candidate oracle's threshold,
/// bit for bit.
#[test]
fn vote_sweep_matches_per_candidate_oracle() {
    check(
        "vote_sweep_matches_per_candidate_oracle",
        CASES * 4,
        |rng| {
            let (set, scores) = vote_set(rng);
            let votes = rng.random_range(1..=3usize);
            let got = best_vote_threshold(&set, &scores, votes);
            let want = best_vote_threshold_oracle(&set, &scores, votes);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "votes {votes}: sweep {got}, oracle {want}"
            );
        },
    );
}

/// Table II's evaluation step: `vote_evaluation` at the vote threshold
/// tuned on a validation set equals the hand sequence it replaced (tune,
/// vote on the test set, count, summarize) in the confusion matrix and
/// every metric's bits.
#[test]
fn vote_evaluation_matches_the_hand_sequence() {
    check(
        "vote_evaluation_matches_the_hand_sequence",
        CASES * 2,
        |rng| {
            let (val, val_scores) = vote_set(rng);
            let (test, test_scores) = vote_set(rng);
            let votes = rng.random_range(1..=3usize);
            let threshold = best_vote_threshold(&val, &val_scores, votes);
            let got = vote_evaluation(&test, &test_scores, threshold, votes);
            let (y_true, y_pred) = dimm_level_vote(&test, &test_scores, threshold, votes);
            let want = Evaluation::from_confusion(
                Confusion::from_predictions(&y_true, &y_pred),
                threshold,
            );
            assert_eq!(got.confusion, want.confusion, "votes {votes}");
            assert_eq!(got.threshold.to_bits(), want.threshold.to_bits());
            for (g, w) in [
                (got.precision, want.precision),
                (got.recall, want.recall),
                (got.f1, want.f1),
                (got.virr, want.virr),
            ] {
                assert_eq!(g.to_bits(), w.to_bits(), "votes {votes}: {g} vs {w}");
            }
        },
    );
}

/// Binning maps every value to a valid bin, monotonically.
#[test]
fn binner_is_monotone() {
    check("binner_is_monotone", CASES, |rng| {
        let set = small_set(rng);
        let probe: Vec<f32> = (0..10)
            .map(|_| -20.0 + 40.0 * rng.random::<f32>())
            .collect();
        let binner = Binner::fit(&set, 16);
        for f in 0..set.dim() {
            let mut sorted = probe.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let bins: Vec<u8> = sorted.iter().map(|&v| binner.bin_value(f, v)).collect();
            assert!(bins.windows(2).all(|w| w[0] <= w[1]));
            for &b in &bins {
                assert!((b as usize) < binner.bins(f).max(1));
            }
        }
    });
}

/// Trained tree models always emit probabilities in [0, 1] — even on
/// inputs far outside the training distribution.
#[test]
fn models_emit_probabilities() {
    check("models_emit_probabilities", CASES, |rng| {
        let set = small_set(rng);
        let probe: Vec<f32> = (0..4).map(|_| -1e6 + 2e6 * rng.random::<f32>()).collect();
        assume(set.positives() > 0 && set.positives() < set.len());
        for algo in [Algorithm::RandomForest, Algorithm::LightGbm] {
            let model = Model::train(algo, &set);
            let p = model.predict_proba(&probe);
            assert!((0.0..=1.0).contains(&p), "{algo}: {p}");
            assert!(!p.is_nan());
        }
    });
}
