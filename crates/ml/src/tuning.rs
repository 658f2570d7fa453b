//! Hyper-parameter search — the "AutoML" step of the paper's ML
//! Deployment phase (§VII): candidates are trained on the fit split and
//! ranked by DIMM-level F1 on a validation split, with the alarm-vote
//! threshold tuned per candidate.

use crate::forest::ForestParams;
use crate::gbdt::GbdtParams;
use crate::metrics::{best_vote_threshold, vote_evaluation, Evaluation};
use crate::model::{Algorithm, Model};
use crate::tree::TreeParams;
use mfp_features::dataset::SampleSet;

/// A candidate configuration for the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Candidate {
    /// GBDT hyper-parameters.
    Gbdt(GbdtParams),
    /// Random-Forest hyper-parameters.
    Forest(ForestParams),
}

impl Candidate {
    /// The algorithm family of the candidate.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Candidate::Gbdt(_) => Algorithm::LightGbm,
            Candidate::Forest(_) => Algorithm::RandomForest,
        }
    }

    /// Trains the candidate.
    pub fn train(&self, train: &SampleSet) -> Model {
        match self {
            Candidate::Gbdt(p) => Model::Gbdt(crate::gbdt::Gbdt::fit(train, p)),
            Candidate::Forest(p) => Model::Forest(crate::forest::RandomForest::fit(train, p)),
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct TunedCandidate {
    /// The configuration.
    pub candidate: Candidate,
    /// Its validation evaluation (threshold already tuned).
    pub evaluation: Evaluation,
    /// The trained model.
    pub model: Model,
}

/// A small default grid around the shipped GBDT defaults.
pub fn default_gbdt_grid(seed: u64) -> Vec<Candidate> {
    let base = GbdtParams {
        seed,
        ..Default::default()
    };
    let mut grid = Vec::new();
    for &max_leaves in &[7usize, 15, 31] {
        for &learning_rate in &[0.05f32, 0.1] {
            grid.push(Candidate::Gbdt(GbdtParams {
                max_leaves,
                learning_rate,
                ..base
            }));
        }
    }
    grid
}

/// A small default grid around the shipped Random-Forest defaults.
pub fn default_forest_grid(seed: u64) -> Vec<Candidate> {
    let mut grid = Vec::new();
    for &max_depth in &[6usize, 8, 12] {
        grid.push(Candidate::Forest(ForestParams {
            seed,
            tree: TreeParams {
                max_depth,
                ..ForestParams::default().tree
            },
            ..Default::default()
        }));
    }
    grid
}

/// Trains every candidate and returns them ranked by validation F1
/// (best first).
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn grid_search(
    candidates: &[Candidate],
    train: &SampleSet,
    validation: &SampleSet,
    votes: usize,
) -> Vec<TunedCandidate> {
    assert!(!candidates.is_empty(), "empty candidate grid");
    let mut out: Vec<TunedCandidate> = candidates
        .iter()
        .map(|&candidate| {
            let model = candidate.train(train);
            let scores = model.predict_set(validation);
            let threshold = best_vote_threshold(validation, &scores, votes);
            let evaluation = vote_evaluation(validation, &scores, threshold, votes);
            TunedCandidate {
                candidate,
                evaluation,
                model,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.evaluation
            .f1
            .partial_cmp(&a.evaluation.f1)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::DimmId;
    use mfp_dram::time::SimTime;
    use mfp_rng::StdRng;

    fn set(seed: u64, n: usize) -> SampleSet {
        let mut s = SampleSet::new();
        s.schema = vec!["a".into(), "b".into()];
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let a: f32 = rng.random();
            let b: f32 = rng.random();
            s.push(
                vec![a, b],
                a + b > 1.2,
                DimmId::new((i / 4) as u32, 0),
                SimTime::from_secs(i as u64 * 60),
            );
        }
        s
    }

    #[test]
    fn grid_search_ranks_by_f1() {
        let train = set(1, 400);
        let val = set(2, 200);
        let results = grid_search(&default_gbdt_grid(7), &train, &val, 1);
        assert_eq!(results.len(), 6);
        for w in results.windows(2) {
            assert!(w[0].evaluation.f1 >= w[1].evaluation.f1);
        }
        assert!(
            results[0].evaluation.f1 > 0.5,
            "{}",
            results[0].evaluation.f1
        );
    }

    #[test]
    fn mixed_grids_work() {
        let train = set(3, 300);
        let val = set(4, 150);
        let mut grid = default_forest_grid(5);
        grid.extend(default_gbdt_grid(5).into_iter().take(2));
        let results = grid_search(&grid, &train, &val, 1);
        assert_eq!(results.len(), 5);
        // The winner's model family matches its candidate.
        assert_eq!(
            results[0].model.algorithm(),
            results[0].candidate.algorithm()
        );
    }

    #[test]
    #[should_panic(expected = "empty candidate grid")]
    fn empty_grid_panics() {
        let train = set(6, 50);
        let _ = grid_search(&[], &train, &train, 1);
    }
}
