//! A uniform interface over all predictors, so experiments and the MLOps
//! layer can treat Random Forest, GBDT, FT-Transformer and the rule-based
//! baseline interchangeably.

use crate::forest::{ForestParams, RandomForest};
use crate::ft::{FtParams, FtTransformer};
use crate::gbdt::{Gbdt, GbdtParams};
use crate::risky_ce::RiskyCePattern;
use mfp_features::dataset::SampleSet;

/// The algorithms compared in the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Rule-based Risky CE Pattern baseline \[7\].
    RiskyCePattern,
    /// Random Forest.
    RandomForest,
    /// LightGBM-style histogram GBDT.
    LightGbm,
    /// FT-Transformer.
    FtTransformer,
}

impl Algorithm {
    /// All algorithms in Table II row order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::RiskyCePattern,
        Algorithm::RandomForest,
        Algorithm::LightGbm,
        Algorithm::FtTransformer,
    ];

    /// Table II row label.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::RiskyCePattern => "Risky CE Pattern [7]",
            Algorithm::RandomForest => "Random forest",
            Algorithm::LightGbm => "LightGBM",
            Algorithm::FtTransformer => "FT-Transformer",
        }
    }

    /// Short machine-friendly identifier (telemetry labels, file names).
    pub fn slug(self) -> &'static str {
        match self {
            Algorithm::RiskyCePattern => "risky_ce",
            Algorithm::RandomForest => "random_forest",
            Algorithm::LightGbm => "lightgbm",
            Algorithm::FtTransformer => "ft_transformer",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A trained failure-prediction model of any algorithm.
#[derive(Debug, Clone)]
pub enum Model {
    /// Rule-based baseline.
    RiskyCe(RiskyCePattern),
    /// Random Forest.
    Forest(RandomForest),
    /// GBDT.
    Gbdt(Gbdt),
    /// FT-Transformer.
    Ft(Box<FtTransformer>),
}

impl Model {
    /// Trains `algorithm` with default hyper-parameters on `train`.
    pub fn train(algorithm: Algorithm, train: &SampleSet) -> Model {
        Model::train_seeded(algorithm, train, 17)
    }

    /// Trains with an explicit seed.
    pub fn train_seeded(algorithm: Algorithm, train: &SampleSet, seed: u64) -> Model {
        let labels: &[(&str, &str)] = &[("algo", algorithm.slug())];
        let span = mfp_obs::latency("ml_train_seconds", labels).time();
        let model = Self::train_seeded_inner(algorithm, train, seed);
        span.stop();
        mfp_obs::counter("ml_train_runs", labels).incr();
        mfp_obs::counter("ml_train_rows", labels).add(train.len() as u64);
        // Tree ensembles report their fitted size (early stopping can cut
        // GBDT rounds short); the transformer runs its configured epochs.
        let iterations = match &model {
            Model::RiskyCe(_) => 0,
            Model::Forest(m) => m.n_trees() as u64,
            Model::Gbdt(m) => m.n_trees() as u64,
            Model::Ft(_) => FtParams::default().epochs as u64,
        };
        mfp_obs::counter("ml_train_iterations", labels).add(iterations);
        model
    }

    fn train_seeded_inner(algorithm: Algorithm, train: &SampleSet, seed: u64) -> Model {
        match algorithm {
            Algorithm::RiskyCePattern => Model::RiskyCe(RiskyCePattern::default()),
            Algorithm::RandomForest => Model::Forest(RandomForest::fit(
                train,
                &ForestParams {
                    seed,
                    ..Default::default()
                },
            )),
            Algorithm::LightGbm => Model::Gbdt(Gbdt::fit(
                train,
                &GbdtParams {
                    seed,
                    ..Default::default()
                },
            )),
            Algorithm::FtTransformer => Model::Ft(Box::new(FtTransformer::fit(
                train,
                &FtParams {
                    seed,
                    ..Default::default()
                },
            ))),
        }
    }

    /// The algorithm this model implements.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            Model::RiskyCe(_) => Algorithm::RiskyCePattern,
            Model::Forest(_) => Algorithm::RandomForest,
            Model::Gbdt(_) => Algorithm::LightGbm,
            Model::Ft(_) => Algorithm::FtTransformer,
        }
    }

    /// Positive-class probability for one feature row.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        match self {
            Model::RiskyCe(m) => m.predict_proba(row),
            Model::Forest(m) => m.predict_proba(row),
            Model::Gbdt(m) => m.predict_proba(row),
            Model::Ft(m) => m.predict_proba(row),
        }
    }

    /// Normalized feature importance, when the algorithm provides one
    /// (tree ensembles do; the rule baseline and FT-Transformer do not).
    pub fn feature_importance(&self) -> Option<&[f64]> {
        match self {
            Model::Forest(m) => Some(m.feature_importance()),
            Model::Gbdt(m) => Some(m.feature_importance()),
            _ => None,
        }
    }

    /// Scores every sample of a set.
    pub fn predict_set(&self, set: &SampleSet) -> Vec<f32> {
        let labels: &[(&str, &str)] = &[("algo", self.algorithm().slug())];
        let span = mfp_obs::latency("ml_predict_seconds", labels).time();
        let scores = match self {
            Model::Ft(m) => {
                let rows: Vec<&[f32]> = (0..set.len()).map(|i| set.row(i)).collect();
                m.predict_proba_batch(&rows)
            }
            _ => (0..set.len())
                .map(|i| self.predict_proba(set.row(i)))
                .collect(),
        };
        span.stop();
        mfp_obs::counter("ml_rows_scored", labels).add(scores.len() as u64);
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::DimmId;
    use mfp_dram::time::SimTime;
    use mfp_features::extract::FEATURE_DIM;
    use mfp_rng::StdRng;

    fn schema_set(seed: u64, n: usize) -> SampleSet {
        // Standard-schema set where label depends on eb_complex.
        let mut s = SampleSet::new();
        let idx = s.schema.iter().position(|x| x == "eb_complex").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let mut row = vec![0.0f32; FEATURE_DIM];
            for v in row.iter_mut() {
                *v = rng.random::<f32>();
            }
            let y = i % 3 == 0;
            row[idx] = if y { 5.0 } else { 0.0 };
            s.push(
                row,
                y,
                DimmId::new(i as u32, 0),
                SimTime::from_secs(i as u64),
            );
        }
        s
    }

    #[test]
    fn all_algorithms_train_and_score() {
        let train = schema_set(1, 200);
        for algo in Algorithm::ALL {
            let model = Model::train(algo, &train);
            assert_eq!(model.algorithm(), algo);
            let scores = model.predict_set(&train);
            assert_eq!(scores.len(), train.len());
            assert!(scores.iter().all(|&p| (0.0..=1.0).contains(&p)), "{algo}");
        }
    }

    #[test]
    fn learners_separate_easy_signal() {
        let train = schema_set(2, 300);
        let test = schema_set(3, 100);
        for algo in [Algorithm::RandomForest, Algorithm::LightGbm] {
            let model = Model::train(algo, &train);
            let scores = model.predict_set(&test);
            let correct = scores
                .iter()
                .zip(&test.labels)
                .filter(|(&p, &y)| (p > 0.5) == y)
                .count();
            assert!(
                correct as f64 / test.len() as f64 > 0.95,
                "{algo}: {correct}/100"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Algorithm::LightGbm.label(), "LightGBM");
        assert_eq!(Algorithm::ALL.len(), 4);
        assert_eq!(Algorithm::ALL[0].to_string(), "Risky CE Pattern [7]");
    }
}
