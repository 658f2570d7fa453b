//! Random Forest: bagged CART trees with feature subsampling, trained in
//! parallel on scoped threads.

use crate::binning::BinnedData;
use crate::tree::{DecisionTree, TreeParams};
use mfp_features::dataset::SampleSet;
use mfp_rng::StdRng;

/// Random Forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters (feature subsample defaults to sqrt(d) when 0).
    pub tree: TreeParams,
    /// Histogram bins.
    pub max_bins: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 150,
            tree: TreeParams {
                max_depth: 8,
                min_samples_leaf: 15,
                feature_subsample: 0,
            },
            max_bins: 64,
            seed: 7,
        }
    }
}

/// A trained Random Forest classifier.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    importance: Vec<f64>,
}

impl RandomForest {
    /// Trains a forest on the sample set, one worker thread per available
    /// core. The forest and its importances are the same for every core
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit(train: &SampleSet, params: &ForestParams) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(4);
        RandomForest::fit_with_workers(train, params, workers)
    }

    /// [`Self::fit`] on `workers` threads. Worker `w` fits trees `w`,
    /// `w + workers`, …; each tree records its split gains, and they are
    /// folded into the importances in tree order, so every f64 sum is the
    /// one a single worker adds.
    fn fit_with_workers(train: &SampleSet, params: &ForestParams, workers: usize) -> Self {
        assert!(!train.is_empty(), "empty training set");
        let data = BinnedData::from_samples(train, params.max_bins);
        let labels = &train.labels;
        let n = train.len();
        let mut tree_params = params.tree;
        if tree_params.feature_subsample == 0 {
            tree_params.feature_subsample = (train.dim() as f64).sqrt().ceil() as usize;
        }

        let workers = workers.clamp(1, params.n_trees.max(1));
        // (tree index, tree, its split gains in growth order)
        let mut trees = Vec::with_capacity(params.n_trees);
        std::thread::scope(|s| {
            let data = &data;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for t in (w..params.n_trees).step_by(workers) {
                            let mut rng =
                                StdRng::seed_from_u64(params.seed ^ ((t as u64 + 1) * 0x9E37));
                            // Bootstrap sample.
                            let indices: Vec<u32> =
                                (0..n).map(|_| rng.random_range(0..n) as u32).collect();
                            let mut gains = Vec::new();
                            let tree = DecisionTree::fit_recording(
                                data,
                                labels,
                                &indices,
                                &tree_params,
                                &mut rng,
                                &mut gains,
                            );
                            out.push((t, tree, gains));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                trees.extend(h.join().expect("forest worker panicked"));
            }
        });
        trees.sort_by_key(|&(t, _, _)| t);
        let mut importance = vec![0.0f64; train.dim()];
        for (_, _, gains) in &trees {
            for &(f, gain) in gains {
                importance[f as usize] += gain;
            }
        }
        let total: f64 = importance.iter().sum();
        if total > 0.0 {
            importance.iter_mut().for_each(|v| *v /= total);
        }
        RandomForest {
            trees: trees.into_iter().map(|(_, t, _)| t).collect(),
            importance,
        }
    }

    /// Normalized Gini-gain feature importance (sums to 1).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Mean positive-class probability across trees.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        let sum: f32 = self.trees.iter().map(|t| t.predict_proba(row)).sum();
        sum / self.trees.len().max(1) as f32
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::{enum_walk, pack, random_row, random_tree};
    use mfp_dram::address::DimmId;
    use mfp_dram::time::SimTime;

    #[test]
    fn importance_does_not_depend_on_the_worker_count() {
        // Regression: each worker summed its own trees' gains and the
        // partial sums were added in worker order, so the f64 importances
        // changed with the host's core count.
        let train = noisy_set(9, 400);
        let params = ForestParams {
            n_trees: 24,
            ..Default::default()
        };
        let one = RandomForest::fit_with_workers(&train, &params, 1);
        let bits = |rf: &RandomForest| -> Vec<u64> {
            rf.feature_importance()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        for workers in [2, 3, 7] {
            let many = RandomForest::fit_with_workers(&train, &params, workers);
            assert_eq!(bits(&many), bits(&one), "{workers} workers");
            assert_eq!(many.trees, one.trees, "{workers} workers");
        }
    }

    #[test]
    fn packed_forest_matches_enum_oracle() {
        let mut rng = StdRng::seed_from_u64(0xf0e);
        for case in 0..100 {
            let d = rng.random_range(1..6usize);
            let n_trees = rng.random_range(0..6usize);
            let trees: Vec<_> = (0..n_trees).map(|_| random_tree(&mut rng, d, 4)).collect();
            let rf = RandomForest {
                trees: trees
                    .iter()
                    .map(|t| DecisionTree::from_nodes(pack(t)))
                    .collect(),
                importance: vec![0.0; d],
            };
            for _ in 0..20 {
                let row = random_row(&mut rng, d);
                let sum: f32 = trees.iter().map(|t| enum_walk(t, &row)).sum();
                let want = sum / trees.len().max(1) as f32;
                let got = rf.predict_proba(&row);
                assert_eq!(got.to_bits(), want.to_bits(), "case {case}, row {row:?}");
            }
        }
    }

    fn noisy_set(seed: u64, n: usize) -> SampleSet {
        // y = (x0 + x1 > 1) with a noisy third feature.
        let mut s = SampleSet::new();
        s.schema = vec!["a".into(), "b".into(), "noise".into()];
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let x0: f32 = rng.random();
            let x1: f32 = rng.random();
            let noise: f32 = rng.random();
            s.push(
                vec![x0, x1, noise],
                x0 + x1 > 1.0,
                DimmId::new(i as u32, 0),
                SimTime::from_secs(i as u64),
            );
        }
        s
    }

    #[test]
    fn forest_beats_chance_on_linear_boundary() {
        let train = noisy_set(1, 600);
        let test = noisy_set(2, 300);
        let params = ForestParams {
            n_trees: 30,
            ..Default::default()
        };
        let rf = RandomForest::fit(&train, &params);
        let mut correct = 0;
        for i in 0..test.len() {
            let p = rf.predict_proba(test.row(i));
            if (p > 0.5) == test.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let train = noisy_set(3, 200);
        let params = ForestParams {
            n_trees: 8,
            ..Default::default()
        };
        let a = RandomForest::fit(&train, &params);
        let b = RandomForest::fit(&train, &params);
        let row = train.row(0);
        assert_eq!(a.predict_proba(row), b.predict_proba(row));
        assert_eq!(a.n_trees(), 8);
    }

    #[test]
    fn probabilities_bounded() {
        let train = noisy_set(4, 100);
        let rf = RandomForest::fit(
            &train,
            &ForestParams {
                n_trees: 5,
                ..Default::default()
            },
        );
        for i in 0..train.len() {
            let p = rf.predict_proba(train.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
