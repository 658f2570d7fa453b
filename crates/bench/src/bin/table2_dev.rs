//! Development harness for Table II: trains all four algorithms per
//! platform and prints DIMM-level precision/recall/F1/VIRR.
use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::prelude::*;
use mfp_ml::prelude::*;
use mfp_sim::prelude::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20.0);
    let cfg = if scale == 0.0 {
        FleetConfig::experiment(42)
    } else {
        FleetConfig::calibrated(scale, 42)
    };
    let t0 = std::time::Instant::now();
    let fleet = mfp_sim::fleet::simulate_fleet(&cfg);
    eprintln!("fleet: {} events in {:?}", fleet.log.len(), t0.elapsed());

    let problem = ProblemConfig::default();
    let th = FaultThresholds::default();
    let t_fit = SimTime::ZERO + SimDuration::days(105);
    let t_val = SimTime::ZERO + SimDuration::days(188);

    for p in Platform::ALL {
        let t1 = std::time::Instant::now();
        let all = build_samples(&fleet, p, &problem, &th);
        let (fitval, test) = all.split_by_time(t_val);
        let (fit, val) = fitval.split_by_time(t_fit);
        let fit_ds = fit.downsample_negatives(8);
        eprintln!(
            "{p}: samples={} fit={} (pos {}) val={} test={} (pos dimm-lvl ...) built in {:?}",
            all.len(),
            fit_ds.len(),
            fit_ds.positives(),
            val.len(),
            test.len(),
            t1.elapsed()
        );
        for algo in Algorithm::ALL {
            if algo == Algorithm::FtTransformer && std::env::var("SKIP_FT").is_ok() {
                continue;
            }
            let tt = std::time::Instant::now();
            // FT gets a smaller training set for tractability.
            let train = if algo == Algorithm::FtTransformer {
                fit_ds.downsample_negatives(3)
            } else {
                fit_ds.clone()
            };
            let model = Model::train(algo, &train);
            let val_scores = model.predict_set(&val);
            let votes: usize = std::env::var("VOTES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(2);
            let threshold = best_vote_threshold(&val, &val_scores, votes);
            let test_scores = model.predict_set(&test);
            let (y_true, y_pred) = dimm_level_vote(&test, &test_scores, threshold, votes);
            let eval = Evaluation::from_confusion(
                Confusion::from_predictions(&y_true, &y_pred),
                threshold,
            );
            // FP breakdown by ground-truth category.
            use std::collections::BTreeMap;
            let mut fp_cats: BTreeMap<String, usize> = BTreeMap::new();
            {
                let mut dimm_ids: Vec<_> = test.dimms.clone();
                dimm_ids.sort_unstable();
                dimm_ids.dedup();
                for (k, id) in dimm_ids.iter().enumerate() {
                    if y_pred[k] && !y_true[k] {
                        if let Some(truth) = fleet.dimms.iter().find(|d| d.id == *id) {
                            let stalled = truth.category == DimmCategory::Degrading
                                && truth.first_ue().is_none();
                            let label = if stalled {
                                "stalled".to_string()
                            } else {
                                format!("{:?}", truth.category)
                            };
                            *fp_cats.entry(label).or_default() += 1;
                        }
                    }
                }
            }
            println!(
                "{:<14} {:<22} P={:.2} R={:.2} F1={:.2} VIRR={:.2}  (th={:.3}, tp={} fp={} fn={}) fps={:?} [{:?}]",
                p.to_string(), algo.label(), eval.precision, eval.recall, eval.f1, eval.virr,
                threshold, eval.confusion.tp, eval.confusion.fp, eval.confusion.fn_, fp_cats, tt.elapsed()
            );
        }
    }
}
