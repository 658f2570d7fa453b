//! Sample-level diagnostic: AUC + PR for RF vs GBDT on one platform.
use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::prelude::*;
use mfp_ml::metrics::roc_auc;
use mfp_ml::prelude::*;
use mfp_sim::prelude::*;

fn main() {
    let cfg = FleetConfig::calibrated(20.0, 42);
    let fleet = mfp_sim::fleet::simulate_fleet(&cfg);
    let problem = ProblemConfig::default();
    let th = FaultThresholds::default();
    let p = Platform::IntelPurley;
    let all = build_samples(&fleet, p, &problem, &th);
    let (fitval, test) = all.split_by_time(SimTime::ZERO + SimDuration::days(160));
    let (fit, _val) = fitval.split_by_time(SimTime::ZERO + SimDuration::days(120));
    let fit_ds = fit.downsample_negatives(8);
    eprintln!(
        "fit {} pos {} | test {} pos {}",
        fit_ds.len(),
        fit_ds.positives(),
        test.len(),
        test.positives()
    );
    for algo in [Algorithm::RandomForest, Algorithm::LightGbm] {
        let model = Model::train(algo, &fit_ds);
        let s_fit = model.predict_set(&fit_ds);
        let s_test = model.predict_set(&test);
        let th_s = best_f1_threshold(&test.labels, &s_test);
        let preds: Vec<bool> = s_test.iter().map(|&x| x >= th_s).collect();
        let c = Confusion::from_predictions(&test.labels, &preds);
        println!(
            "{:<16} fitAUC={:.3} testAUC={:.3} | sample-best P={:.2} R={:.2} F1={:.2}",
            algo.label(),
            roc_auc(&fit_ds.labels, &s_fit),
            roc_auc(&test.labels, &s_test),
            c.precision(),
            c.recall(),
            c.f1()
        );
    }
}
