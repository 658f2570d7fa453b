//! Cross-crate integration of the MLOps layer against simulated fleet
//! data: ingestion, materialization, deployment and online prediction.

use mfp_dram::address::DimmId;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::dataset::SampleSet;
use mfp_features::extract::extract_features;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::history::DimmHistory;
use mfp_features::labeling::ProblemConfig;
use mfp_ml::metrics::{Confusion, Evaluation};
use mfp_ml::model::{Algorithm, Model};
use mfp_mlops::prelude::*;
use mfp_sim::config::FleetConfig;
use mfp_sim::fleet::simulate_fleet;
use std::collections::BTreeMap;

fn setup() -> (mfp_sim::fleet::FleetResult, DataLake) {
    let fleet = simulate_fleet(&FleetConfig::smoke(41));
    let lake = DataLake::new();
    for t in &fleet.dimms {
        lake.register_dimm(t.id, t.platform, t.spec);
    }
    (fleet, lake)
}

#[test]
fn lake_roundtrips_fleet_logs() {
    let (fleet, lake) = setup();
    let rejected = lake.ingest_encoded(&fleet.log.encode()).expect("decode");
    assert_eq!(rejected, 0, "catalog covers every simulated DIMM");
    assert_eq!(lake.len(), fleet.log.len());
    // Per-platform query returns only that platform's events.
    for p in Platform::ALL {
        let events = lake.query(p, SimTime::ZERO, SimTime::ZERO + SimDuration::days(365));
        for e in &events {
            assert_eq!(lake.dimm_info(e.dimm()).unwrap().0, p);
        }
    }
}

#[test]
fn materialized_features_match_direct_extraction() {
    let (fleet, lake) = setup();
    lake.ingest(fleet.log.events());
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let horizon = SimTime::ZERO + fleet.config.horizon;
    let set = store.materialize(&lake, Platform::IntelPurley, SimTime::ZERO, horizon);
    let direct = mfp_features::dataset::build_samples(
        &fleet,
        Platform::IntelPurley,
        store.problem(),
        &FaultThresholds::default(),
    );
    assert_eq!(set.len(), direct.len(), "sample counts must agree");
    assert_eq!(set.features, direct.features, "feature values must agree");
    assert_eq!(set.labels, direct.labels);
}

/// The loop `FeatureStore::materialize` ran before it took dataset
/// assembly's streaming step: per catalogued DIMM of the lake query, the
/// batch extractor at each sample time in `[from, to)`.
fn materialize_batch_oracle(
    lake: &DataLake,
    problem: &ProblemConfig,
    th: &FaultThresholds,
    platform: Platform,
    from: SimTime,
    to: SimTime,
) -> SampleSet {
    let label_horizon = to + problem.lead + problem.prediction;
    let events = lake.query(platform, SimTime::ZERO, label_horizon);
    let mut by_dimm: BTreeMap<DimmId, Vec<&MemEvent>> = BTreeMap::new();
    for e in &events {
        by_dimm.entry(e.dimm()).or_default().push(e);
    }
    let mut set = SampleSet::new();
    for (dimm, evs) in by_dimm {
        let Some((_, spec)) = lake.dimm_info(dimm) else {
            continue;
        };
        let history = DimmHistory::new(&evs);
        for t in problem.sample_times(&history, label_horizon - SimTime::ZERO) {
            if t < from || t >= to {
                continue;
            }
            let Some(label) = problem.label_at(t, history.first_ue()) else {
                continue;
            };
            let row = extract_features(&history, &spec, t, problem, th);
            set.push(row, label, dimm, t);
        }
    }
    set
}

/// `materialize` equals the batch oracle bit for bit: rows by `to_bits`,
/// labels, DIMMs and times. The windows cut DIMM histories at day
/// boundaries and exactly at sample times (so a sample stamped at `from`
/// is kept and one stamped at `to` is not); one is empty, one reversed,
/// one starts just after the fleet's last event and one starts past its
/// last sample.
#[test]
fn materialize_matches_the_batch_oracle() {
    let (fleet, lake) = setup();
    lake.ingest(fleet.log.events());
    let problem = ProblemConfig::default();
    let th = FaultThresholds::default();
    let store = FeatureStore::new(problem, th);
    let day = |d: u64| SimTime::ZERO + SimDuration::days(d);
    let last = fleet.log.events().iter().map(|e| e.time()).max().unwrap();
    let after_last = last + SimDuration::secs(1);
    let bits = |s: &SampleSet| s.features.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for platform in Platform::ALL {
        let full = store.materialize(&lake, platform, SimTime::ZERO, day(400));
        assert!(full.positives() > 0, "{platform}: no positive sample");
        // Each DIMM's first and last sample time, to see which windows
        // cut its history.
        let mut span: BTreeMap<DimmId, (SimTime, SimTime)> = BTreeMap::new();
        for (&d, &t) in full.dimms.iter().zip(&full.times) {
            let e = span.entry(d).or_insert((t, t));
            e.1 = t;
        }
        let mut times = full.times.clone();
        times.sort_unstable();
        let (a, b) = (times[times.len() / 3], times[2 * times.len() / 3]);
        let windows = [
            (SimTime::ZERO, day(400)),
            (day(20), day(55)),
            (day(50), day(80)),
            (SimTime::ZERO, a),
            (a, b),
            (b, day(400)),
            (a, a),
            (b, a),
            (after_last, after_last + SimDuration::days(40)),
            (last + problem.observation + SimDuration::days(1), day(400)),
        ];
        for (k, &(from, to)) in windows.iter().enumerate() {
            let got = store.materialize(&lake, platform, from, to);
            let want = materialize_batch_oracle(&lake, &problem, &th, platform, from, to);
            let ctx = format!("{platform} window {k} [{from:?}, {to:?})");
            assert_eq!(got.schema, want.schema, "{ctx}");
            assert_eq!(got.labels, want.labels, "{ctx}: labels");
            assert_eq!(got.dimms, want.dimms, "{ctx}: DIMMs");
            assert_eq!(got.times, want.times, "{ctx}: times");
            assert_eq!(bits(&got), bits(&want), "{ctx}: rows");
            let cut = got
                .dimms
                .iter()
                .any(|d| span[d].0 < from || span[d].1 >= to);
            match k {
                1..=5 => assert!(cut, "{ctx}: no DIMM history is cut"),
                6 | 7 | 9 => assert!(got.is_empty(), "{ctx}: not empty"),
                _ => {}
            }
        }
    }
}

#[test]
fn full_mlops_loop_on_simulated_data() {
    let (fleet, lake) = setup();
    let split = SimTime::ZERO + SimDuration::days(80);
    let historical: Vec<_> = fleet
        .log
        .events()
        .iter()
        .filter(|e| e.time() < split)
        .copied()
        .collect();
    lake.ingest(&historical);

    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let train = store
        .materialize(
            &lake,
            Platform::IntelPurley,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::days(50),
        )
        .downsample_negatives(6);
    let bench = store.materialize(
        &lake,
        Platform::IntelPurley,
        SimTime::ZERO + SimDuration::days(50),
        split,
    );
    if train.positives() == 0 {
        // A tiny smoke fleet may lack early positives; nothing to assert.
        return;
    }

    let registry = ModelRegistry::new();
    let run = run_pipeline(
        &registry,
        &PipelineConfig::default(),
        Algorithm::RandomForest,
        Platform::IntelPurley,
        split,
        &train,
        &bench,
        &bench,
    );
    assert!(run.deployed, "{:?}", run.stages);

    // Stream the remainder and check alarms behave.
    let mut predictor = OnlinePredictor::new(
        &lake,
        &store,
        &registry,
        Platform::IntelPurley,
        OnlineConfig::default(),
    );
    let mut ue_times: BTreeMap<mfp_dram::address::DimmId, SimTime> = BTreeMap::new();
    for e in fleet.log.events().iter().filter(|e| e.time() >= split) {
        if lake.dimm_info(e.dimm()).map(|(p, _)| p) == Some(Platform::IntelPurley) {
            predictor.observe(e);
            if e.is_ue() {
                ue_times.entry(e.dimm()).or_insert(e.time());
            }
        }
    }
    predictor.finish(SimTime::ZERO + fleet.config.horizon);

    let report = evaluate_mitigation(predictor.alarms(), &ue_times, &MitigationConfig::default());
    // Consistency: counted outcomes cover all alarmed + failed DIMMs.
    assert_eq!(
        report.tp + report.fn_,
        ue_times.len() as u32,
        "every failure is a TP or FN"
    );
    assert!(report.virr_measured <= 1.0);
}

#[test]
fn drift_between_disjoint_periods_is_finite() {
    let (fleet, lake) = setup();
    lake.ingest(fleet.log.events());
    let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
    let early = store.materialize(
        &lake,
        Platform::IntelPurley,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::days(60),
    );
    let late = store.materialize(
        &lake,
        Platform::IntelPurley,
        SimTime::ZERO + SimDuration::days(60),
        SimTime::ZERO + SimDuration::days(120),
    );
    if early.is_empty() || late.is_empty() {
        return;
    }
    let report = psi_report(&early, &late, 10);
    assert!(report.max_psi().is_finite());
    // A stationary simulator should not show catastrophic drift.
    assert!(report.mean_psi() < 1.0, "mean PSI {}", report.mean_psi());
}

/// The online predictor as it ran before the feature store kept streams:
/// at every tick it rebuilds each active DIMM's window and re-extracts its
/// features from scratch. Only tests keep this path, as the oracle.
struct RebuildOracle<'a> {
    lake: &'a DataLake,
    model: &'a Model,
    threshold: f32,
    cfg: OnlineConfig,
    problem: ProblemConfig,
    /// Per-DIMM retained events, maintained with the retain logic the
    /// feature store used to run on every event.
    streams: BTreeMap<DimmId, Vec<MemEvent>>,
    next_tick: SimTime,
    streaks: BTreeMap<DimmId, u32>,
    last_alarm: BTreeMap<DimmId, SimTime>,
    trace: Vec<ScoreRecord>,
    alarms: Vec<Alarm>,
}

impl RebuildOracle<'_> {
    fn observe(&mut self, e: &MemEvent) {
        while e.time() >= self.next_tick {
            self.tick(self.next_tick);
            self.next_tick += self.cfg.prediction_interval;
        }
        let retention = SimDuration::days(30).max(self.problem.observation);
        let s = self.streams.entry(e.dimm()).or_default();
        let t = e.time();
        let latest = s.last().map_or(t, |last| last.time().max(t));
        let cutoff = latest.saturating_sub(retention);
        if t < cutoff {
            return;
        }
        let pos = s.partition_point(|x| x.time() <= t);
        s.insert(pos, *e);
        s.retain(|x| x.time() >= cutoff);
    }

    fn finish(&mut self, until: SimTime) {
        while self.next_tick <= until {
            self.tick(self.next_tick);
            self.next_tick += self.cfg.prediction_interval;
        }
    }

    fn tick(&mut self, now: SimTime) {
        let from = now.saturating_sub(self.problem.observation);
        let active: Vec<DimmId> = self
            .streams
            .iter()
            .filter(|(_, s)| {
                s.iter()
                    .any(|e| e.as_ce().is_some() && e.time() >= from && e.time() < now)
            })
            .map(|(d, _)| *d)
            .collect();
        self.streaks.retain(|d, _| active.binary_search(d).is_ok());
        let cooldown = self.cfg.alarm_cooldown;
        self.last_alarm.retain(|_, t| now < *t + cooldown);
        for dimm in active {
            let (_, spec) = self.lake.dimm_info(dimm).expect("catalogued DIMM");
            let refs: Vec<&MemEvent> = self.streams[&dimm].iter().collect();
            let th = FaultThresholds::default();
            let row = extract_features(&DimmHistory::new(&refs), &spec, now, &self.problem, &th);
            let score = self.model.predict_proba(&row);
            self.trace.push(ScoreRecord {
                time: now,
                dimm,
                score,
            });
            let streak = self.streaks.entry(dimm).or_insert(0);
            if score >= self.threshold {
                *streak += 1;
            } else {
                *streak = 0;
            }
            let cooling = self
                .last_alarm
                .get(&dimm)
                .is_some_and(|&t| now < t + cooldown);
            if *streak as usize >= self.cfg.votes && !cooling {
                self.alarms.push(Alarm {
                    dimm,
                    time: now,
                    score,
                });
                self.last_alarm.insert(dimm, now);
            }
        }
    }
}

/// Every score the online predictor emits over a smoke fleet's Purley
/// stream, with a LightGBM production model, is bit-identical to the
/// per-tick rebuild oracle's; so are the scored count and the alarms.
#[test]
fn online_scores_match_the_rebuild_oracle() {
    let (fleet, lake) = setup();
    let problem = ProblemConfig::default();
    let th = FaultThresholds::default();
    let samples =
        mfp_features::dataset::build_samples(&fleet, Platform::IntelPurley, &problem, &th);
    let model = Model::train_seeded(Algorithm::LightGbm, &samples.downsample_negatives(6), 7);
    // A threshold at the 90th-percentile sample score, so the stream
    // raises alarms.
    let mut scores = model.predict_set(&samples);
    scores.sort_by(f32::total_cmp);
    let threshold = scores[scores.len() * 9 / 10];
    let registry = ModelRegistry::new();
    let unit = Confusion {
        tp: 1,
        fp: 0,
        fn_: 0,
        tn: 1,
    };
    let id = registry.register(
        Algorithm::LightGbm,
        Platform::IntelPurley,
        SimTime::ZERO,
        Evaluation::from_confusion(unit, threshold),
        threshold,
        model.clone(),
    );
    registry.promote(id);

    let cfg = OnlineConfig::default();
    let store = FeatureStore::new(problem, th);
    let mut online = OnlinePredictor::new(&lake, &store, &registry, Platform::IntelPurley, cfg);
    online.set_score_trace(true);
    let mut oracle = RebuildOracle {
        lake: &lake,
        model: &model,
        threshold,
        cfg,
        problem,
        streams: BTreeMap::new(),
        next_tick: SimTime::ZERO + cfg.prediction_interval,
        streaks: BTreeMap::new(),
        last_alarm: BTreeMap::new(),
        trace: Vec::new(),
        alarms: Vec::new(),
    };
    let purley =
        |e: &&MemEvent| lake.dimm_info(e.dimm()).map(|(p, _)| p) == Some(Platform::IntelPurley);
    for e in fleet.log.events().iter().filter(purley) {
        assert!(online.observe(e), "the fleet log is time-ordered");
        oracle.observe(e);
    }
    let end = SimTime::ZERO + fleet.config.horizon + SimDuration::days(2);
    online.finish(end);
    oracle.finish(end);

    let trace = online.score_trace();
    assert!(trace.len() > 1_000, "only {} scores", trace.len());
    assert_eq!(trace.len(), oracle.trace.len(), "scored (time, DIMM) pairs");
    for (got, want) in trace.iter().zip(&oracle.trace) {
        assert_eq!((got.time, got.dimm), (want.time, want.dimm));
        assert_eq!(
            got.score.to_bits(),
            want.score.to_bits(),
            "{:?} at {}",
            got.dimm,
            got.time
        );
    }
    assert_eq!(online.scored(), oracle.trace.len() as u64);
    assert!(!oracle.alarms.is_empty(), "the threshold must raise alarms");
    assert_eq!(online.alarms(), oracle.alarms.as_slice());
}

/// Runs `engine` under a private registry and checks that it never took
/// a feature stream's rewind path.
fn without_rewinds<R>(name: &str, engine: impl FnOnce() -> R) -> R {
    let reg = mfp_obs::Registry::new();
    let out = mfp_obs::with_registry(&reg, engine);
    let rewinds = reg.counter("features_stream_rewinds", &[]).get();
    assert_eq!(rewinds, 0, "{name} rewound {rewinds} feature streams");
    out
}

/// Time-ordered serving enters every event into its windows at the push
/// and never rewinds: over a smoke fleet's Purley stream behind the
/// hardened ingest, the sequential predictor, `serve_pipeline` at 2
/// shards × 2 workers and a `ShardedDurable` run (live, dropped
/// mid-stream, reopened, resumed and finished) each leave
/// `features_stream_rewinds` at 0, with alarms and score traces equal to
/// the sequential run's.
#[test]
fn time_ordered_serving_never_rewinds() {
    let (fleet, lake) = setup();
    let (problem, th) = (ProblemConfig::default(), FaultThresholds::default());
    let platform = Platform::IntelPurley;
    let registry = ModelSpec::default_risky_ce().registry(platform);
    let (online, icfg) = (OnlineConfig::default(), IngestConfig::default());
    let events: Vec<MemEvent> = fleet
        .log
        .events()
        .iter()
        .filter(|e| lake.dimm_info(e.dimm()).map(|(p, _)| p) == Some(platform))
        .copied()
        .collect();
    let replay = |emit: &mut dyn FnMut(MemEvent)| events.iter().for_each(|e| emit(*e));
    let mut outputs = Vec::new();
    ingest_bounded(&lake, icfg, 4, 256, replay, |o| outputs.push(o));
    let end = SimTime::ZERO + fleet.config.horizon + SimDuration::days(2);

    let (alarms, scores) = without_rewinds("the sequential predictor", || {
        let store = FeatureStore::new(problem, th);
        let mut p = OnlinePredictor::new(&lake, &store, &registry, platform, online);
        p.set_score_trace(true);
        for o in &outputs {
            p.apply(o);
        }
        p.finish(end);
        (p.alarms().to_vec(), p.score_trace().to_vec())
    });
    assert!(scores.len() > 1_000, "only {} scores", scores.len());
    assert!(!alarms.is_empty(), "the stream must raise alarms");

    let served = without_rewinds("serve_pipeline", || {
        let scfg = ServeConfig {
            online,
            record_scores: true,
            ..ServeConfig::new(2, 2)
        };
        serve_pipeline(
            &lake, &registry, platform, problem, th, icfg, &scfg, end, replay,
        )
    });
    assert_eq!(served.alarms, alarms, "serve_pipeline alarms");
    assert_eq!(served.scores, scores, "serve_pipeline scores");

    let dir = std::env::temp_dir().join(format!("mfp_never_rewinds_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurableConfig {
        batch: 32,
        compact_every: 8,
        record_scores: true,
        ..DurableConfig::default()
    };
    let open = |stores| {
        ShardedDurable::open(&dir, &lake, stores, &registry, platform, online, cfg)
            .expect("open the WAL root")
            .0
    };
    let (live, restored) = (make_stores(2, problem, th), make_stores(2, problem, th));
    let (durable_alarms, durable_scores) = without_rewinds("ShardedDurable", || {
        let mut sd = open(&live);
        for o in &outputs[..outputs.len() / 2] {
            sd.push(*o).expect("push");
        }
        drop(sd);
        let mut sd = open(&restored);
        assert!(sd.consumed() > 0, "the reopened root recovered nothing");
        for o in &outputs {
            sd.push(*o).expect("push");
        }
        sd.finish(end).expect("finish");
        (sd.alarms(), sd.scores())
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(durable_alarms, alarms, "ShardedDurable alarms");
    assert_eq!(durable_scores, scores, "ShardedDurable scores");
}
