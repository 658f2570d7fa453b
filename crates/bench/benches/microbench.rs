//! Micro-benchmarks over the workspace's hot paths: ECC decode
//! throughput per scheme, fleet-simulation event throughput, feature
//! extraction, model training/inference latency, online scoring and the
//! CRC-32 kernel that seals every durable and wire format.
//!
//! A `harness = false` main: each benchmark calibrates an iteration count
//! whose batch takes at least 10 ms, then reports the median, minimum
//! and maximum time per iteration over its samples. Run everything with
//! `cargo bench -p mfp-bench`, or pass a substring filter:
//! `cargo bench --bench microbench -- sample_assembly`.

use mfp_dram::bus::ErrorTransfer;
use mfp_dram::geometry::{DataWidth, Platform};
use mfp_ecc::prelude::*;
use mfp_features::prelude::*;
use mfp_ml::prelude::*;
use mfp_sim::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A named set of benchmarks sharing a sample count.
struct Group<'a> {
    name: &'static str,
    samples: usize,
    filter: Option<&'a str>,
}

impl<'a> Group<'a> {
    fn new(name: &'static str, samples: usize, filter: Option<&'a str>) -> Self {
        Group {
            name,
            samples,
            filter,
        }
    }

    /// Times `f` per call.
    fn bench_function<T>(&self, id: impl AsRef<str>, mut f: impl FnMut() -> T) {
        self.measure(id.as_ref(), |iters| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed()
        });
    }

    /// Times `routine` per call on a fresh, untimed `setup()` input.
    fn bench_batched<I, T>(
        &self,
        id: &str,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> T,
    ) {
        self.measure(id, |iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                total += start.elapsed();
            }
            total
        });
    }

    /// `run(iters)` executes the benchmark `iters` times and returns the
    /// time they took.
    fn measure(&self, id: &str, mut run: impl FnMut(u64) -> Duration) {
        let full = format!("{}/{id}", self.name);
        if self.filter.is_some_and(|f| !full.contains(f)) {
            return;
        }
        let mut iters = 1u64;
        while run(iters) < Duration::from_millis(10) && iters < 1 << 30 {
            iters *= 2;
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| run(iters).as_secs_f64() / iters as f64)
            .collect();
        per_iter.sort_by(f64::total_cmp);
        println!(
            "{full:<48} median {:>11}  min {:>11}  max {:>11}  ({} x {iters})",
            fmt_secs(per_iter[per_iter.len() / 2]),
            fmt_secs(per_iter[0]),
            fmt_secs(per_iter[per_iter.len() - 1]),
            self.samples,
        );
    }
}

fn fmt_secs(s: f64) -> String {
    match s {
        s if s < 1e-6 => format!("{:.1} ns", s * 1e9),
        s if s < 1e-3 => format!("{:.2} µs", s * 1e6),
        s if s < 1.0 => format!("{:.2} ms", s * 1e3),
        s => format!("{s:.3} s"),
    }
}

fn ecc_decode(filter: Option<&str>) {
    let g = Group::new("ecc_decode", 100, filter);
    let single_bit = ErrorTransfer::from_bits([(1, 21)]);
    let device_burst: ErrorTransfer =
        ErrorTransfer::from_bits((0..8u8).flat_map(|b| (20..24u8).map(move |q| (b, q))));
    let multi_device = {
        let mut t = ErrorTransfer::from_bits([(2, 0), (2, 1)]);
        t.set(2, 36);
        t
    };
    for (name, t) in [
        ("single_bit", &single_bit),
        ("whole_device", &device_burst),
        ("multi_device", &multi_device),
    ] {
        for p in Platform::ALL {
            let ecc = PlatformEcc::for_platform(p);
            g.bench_function(format!("{}/{name}", p.code()), || {
                ecc.decode(black_box(t), DataWidth::X4)
            });
            let cached = CachedPlatformEcc::for_platform(p);
            g.bench_function(format!("{}/{name}/cached", p.code()), || {
                cached.decode(black_box(t), DataWidth::X4)
            });
        }
    }
}

fn secded_and_rs(filter: Option<&str>) {
    let g = Group::new("codes", 100, filter);
    let hsiao = Hsiao7264::new();
    g.bench_function("hsiao_decode_double", || {
        hsiao.decode_error(black_box(0b11 << 20))
    });
    let rs = RsCode::new(&mfp_ecc::gf::GF256, 18, 16);
    let mut e = [0u8; 18];
    e[7] = 0x5A;
    g.bench_function("rs_decode_single_symbol", || rs.decode_error(black_box(&e)));
}

fn fleet_sim(filter: Option<&str>) {
    let g = Group::new("simulator", 10, filter);
    g.bench_function("smoke_fleet", || simulate_fleet(&FleetConfig::smoke(7)));
}

fn features_and_models(filter: Option<&str>) {
    let fleet = simulate_fleet(&FleetConfig::smoke(7));
    let problem = ProblemConfig::default();
    let th = FaultThresholds::default();

    let g = Group::new("features", 10, filter);
    g.bench_function("build_samples_purley", || {
        build_samples(&fleet, Platform::IntelPurley, &problem, &th)
    });

    let set = build_samples(&fleet, Platform::IntelPurley, &problem, &th).downsample_negatives(8);
    let g = Group::new("models", 10, filter);
    g.bench_batched(
        "train_random_forest",
        || set.clone(),
        |s| Model::train(Algorithm::RandomForest, &s),
    );
    g.bench_batched(
        "train_lightgbm",
        || set.clone(),
        |s| Model::train(Algorithm::LightGbm, &s),
    );
    let gbdt = Model::train(Algorithm::LightGbm, &set);
    let rf = Model::train(Algorithm::RandomForest, &set);
    let row = set.row(0).to_vec();
    g.bench_function("infer_lightgbm", || gbdt.predict_proba(black_box(&row)));
    g.bench_function("infer_random_forest", || rf.predict_proba(black_box(&row)));
}

fn sample_assembly(filter: Option<&str>) {
    let fleet = simulate_fleet(&FleetConfig::smoke(7));
    let problem = ProblemConfig::default();
    let th = FaultThresholds::default();
    let by_dimm = fleet.log.by_dimm();

    let g = Group::new("sample_assembly", 10, filter);

    // Per-DIMM extraction: batch rescans every window at every sample time;
    // streaming advances each window once. Same output, different cost.
    g.bench_function("extract_batch", || {
        for truth in fleet.platform_dimms(Platform::IntelPurley) {
            let Some(events) = by_dimm.get(&truth.id) else {
                continue;
            };
            let history = DimmHistory::new(events);
            for t in problem.sample_times(&history, fleet.config.horizon) {
                black_box(extract_features(&history, &truth.spec, t, &problem, &th));
            }
        }
    });
    g.bench_function("extract_streaming", || {
        let mut stream = FeatureStream::new(problem, th);
        for truth in fleet.platform_dimms(Platform::IntelPurley) {
            let Some(events) = by_dimm.get(&truth.id) else {
                continue;
            };
            let history = DimmHistory::new(events);
            let times = problem.sample_times(&history, fleet.config.horizon);
            stream.reset(truth.spec);
            for e in events {
                stream.push(**e);
            }
            for t in times {
                black_box(stream.features_at(t));
            }
        }
    });

    // Whole-fleet assembly at fixed worker counts (identical output).
    for workers in [1usize, 2, 4] {
        g.bench_function(format!("build_samples_{workers}w"), || {
            build_samples_with_workers(&fleet, Platform::IntelPurley, &problem, &th, workers)
        });
    }

    // Telemetry overhead budget: the instrumented assembly path must cost
    // ≤2% over the same path with telemetry disabled (a handful of relaxed
    // atomic ops per whole-fleet call). Compare these two series.
    let assemble_2w =
        || build_samples_with_workers(&fleet, Platform::IntelPurley, &problem, &th, 2);
    mfp_obs::set_enabled(true);
    g.bench_function("build_samples_2w/telemetry_on", assemble_2w);
    mfp_obs::set_enabled(false);
    g.bench_function("build_samples_2w/telemetry_off", assemble_2w);
    mfp_obs::set_enabled(true);
}

fn fleet_scale(filter: Option<&str>) {
    // The sequential tick oracle vs. the event-driven engine at fixed
    // shard and worker counts. The default fleet is deliberately modest so
    // the group runs everywhere; set MFP_BENCH_FLEET_SCALE (a `calibrated`
    // divisor, e.g. 50) to benchmark a bigger fleet on a real multi-core
    // host.
    let scale: f64 = std::env::var("MFP_BENCH_FLEET_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200.0);
    let cfg = FleetConfig::calibrated(scale.max(1.0), 7);

    let g = Group::new("fleet_scale", 10, filter);
    g.bench_function("sequential_tick", || simulate_fleet_tick(black_box(&cfg)));
    for workers in [1usize, 2, 4] {
        let scfg = ShardConfig::new(8, workers);
        g.bench_function(format!("event_8x{workers}w"), || {
            simulate_fleet_events(black_box(&cfg), &scfg)
        });
    }
    // Streaming merge without materializing the result: the shape the
    // bounded-ingest bridge sees.
    let planned = EventFleet::plan(&cfg);
    let scfg = ShardConfig::new(8, 2);
    g.bench_function("event_8x2w_stream", || {
        let mut n = 0u64;
        planned.run_stream(&scfg, |e| {
            n += black_box(&e).is_ue() as u64;
        });
        n
    });
}

fn online_score(filter: Option<&str>) {
    use mfp_dram::event::MemEvent;
    use mfp_dram::time::{SimDuration, SimTime};
    use mfp_ml::metrics::{Confusion, Evaluation};
    use mfp_ml::risky_ce::RiskyCePattern;
    use mfp_mlops::prelude::*;

    // Purley slice of the smoke fleet behind a promoted pattern model:
    // the serving hot path with no training phase in the way.
    let fleet = simulate_fleet(&FleetConfig::smoke(7));
    let lake = DataLake::new();
    for t in &fleet.dimms {
        lake.register_dimm(t.id, t.platform, t.spec);
    }
    let registry = ModelRegistry::new();
    let eval = Evaluation::from_confusion(
        Confusion {
            tp: 1,
            fp: 0,
            fn_: 0,
            tn: 1,
        },
        0.5,
    );
    let mid = registry.register(
        Algorithm::RiskyCePattern,
        Platform::IntelPurley,
        SimTime::ZERO,
        eval,
        0.5,
        Model::RiskyCe(RiskyCePattern::default()),
    );
    registry.promote(mid);
    let events: Vec<MemEvent> = fleet
        .log
        .events()
        .iter()
        .filter(|e| lake.dimm_info(e.dimm()).map(|(p, _)| p) == Some(Platform::IntelPurley))
        .copied()
        .collect();
    let end = SimTime::ZERO + fleet.config.horizon + SimDuration::days(2);
    let problem = ProblemConfig::default();
    let th = FaultThresholds::default();

    let g = Group::new("online_score", 10, filter);
    // The sequential fold: one predictor over the whole stream. This is
    // the series that guards the tick hot path (no per-tick clones of the
    // active set or cached feature rows).
    g.bench_function("sequential_observe", || {
        let store = FeatureStore::new(problem, th);
        let mut p = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        for e in &events {
            p.observe(e);
        }
        p.finish(end);
        p.alarms().len()
    });
    // The same stream through the full pipelined engine (ingest →
    // route → score → merge); identical alarms, threaded execution.
    for (shards, workers) in [(4usize, 2usize), (8, 4)] {
        g.bench_function(format!("pipeline_{shards}x{workers}w"), || {
            let outcome = serve_pipeline(
                &lake,
                &registry,
                Platform::IntelPurley,
                problem,
                th,
                IngestConfig::default(),
                &ServeConfig::new(shards, workers),
                end,
                |emit| {
                    for e in &events {
                        emit(*e);
                    }
                },
            );
            outcome.alarms.len()
        });
    }
}

/// The CRC-32 kernel that seals every WAL record, IPC frame and
/// checkpoint, at three sizes it runs at: 64 B for the `MFP1` control
/// frames (a `Progress` frame is 25 B), 2 KiB for a 16-output `Outputs`
/// frame, and 353 KiB for one shard's checkpoint at the end of the
/// 300-DIMM durable stream.
fn crc32(filter: Option<&str>) {
    let g = Group::new("crc32", 50, filter);
    let mut rng = mfp_rng::StdRng::seed_from_u64(32);
    for (name, len) in [
        ("progress_64B", 64),
        ("outputs_2KiB", 2 << 10),
        ("checkpoint_353KiB", 353 << 10),
    ] {
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        g.bench_function(name, || mfp_mlops::wal::crc32(black_box(&data)));
    }
}

fn main() {
    // `cargo bench` appends `--bench`; the first other argument filters.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str);
    ecc_decode(filter);
    secded_and_rs(filter);
    fleet_sim(filter);
    features_and_models(filter);
    sample_assembly(filter);
    fleet_scale(filter);
    online_score(filter);
    crc32(filter);
}
