//! Property-based tests of the feature layer: bus-statistics invariants,
//! labeling-window laws, no-future-leakage of feature extraction, and the
//! streaming extractor and the online feature store against the batch
//! oracle.

use mfp_dram::address::{CellAddr, DimmId};
use mfp_dram::bus::ErrorTransfer;
use mfp_dram::event::{CeEvent, CeStormEvent, MemEvent, UeEvent};
use mfp_dram::geometry::{DataWidth, Platform};
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::errorbits::CeBitProfile;
use mfp_features::prelude::*;
use mfp_mlops::prelude::{DataLake, FeatureStore};
use mfp_rng::StdRng;
use std::collections::BTreeMap;

mod common;
use common::{assume, check, coin, vec_of, CASES};

/// Bit-level equality between two sample sets (f32 rows compared by bits,
/// so this is stricter than `==` and NaN-safe).
fn assert_bit_identical(
    a: &mfp_features::dataset::SampleSet,
    b: &mfp_features::dataset::SampleSet,
) {
    assert_eq!(&a.schema, &b.schema);
    assert_eq!(&a.labels, &b.labels);
    assert_eq!(&a.dimms, &b.dimms);
    assert_eq!(&a.times, &b.times);
    assert_eq!(a.features.len(), b.features.len());
    for (i, (x, y)) in a.features.iter().zip(&b.features).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "feature {} differs", i);
    }
}

fn random_bits(rng: &mut StdRng) -> Vec<(u8, u8)> {
    vec_of(rng, 1..20, |r| {
        (r.random_range(0u8..8), r.random_range(0u8..72))
    })
}

/// Random time-ordered CE events.
fn random_events(rng: &mut StdRng) -> Vec<MemEvent> {
    let mut raw = vec_of(rng, 1..40, |r| {
        (
            r.random_range(0u64..2_000_000),
            r.random_range(0u8..16),
            r.random_range(0u32..500),
            r.random_range(0u16..100),
            random_bits(r),
        )
    });
    raw.sort_by_key(|r| r.0);
    raw.into_iter()
        .map(|(t, bank, row, col, bits)| {
            MemEvent::Ce(CeEvent {
                time: SimTime::from_secs(t),
                dimm: DimmId::new(1, 0),
                addr: CellAddr::new(0, bank, row, col),
                transfer: ErrorTransfer::from_bits(bits),
            })
        })
        .collect()
}

/// A feature stream for a DIMM of `spec` holding `events`.
fn stream_of(events: &[MemEvent], spec: DimmSpec) -> FeatureStream {
    let mut stream = FeatureStream::new(ProblemConfig::default(), FaultThresholds::default());
    stream.set_spec(spec);
    for e in events {
        stream.push(*e);
    }
    stream
}

/// Bus statistics are internally consistent for any pattern.
#[test]
fn transfer_stats_invariants() {
    check("transfer_stats_invariants", CASES, |rng| {
        let t = ErrorTransfer::from_bits(random_bits(rng));
        assert!(t.dq_count() >= 1);
        assert!(t.beat_count() >= 1 && t.beat_count() <= 8);
        assert!(t.bit_count() >= t.dq_count().max(t.beat_count()));
        assert!(t.dq_interval().unwrap() <= 71);
        assert!(t.beat_interval().unwrap() <= 7);
        // Union of device slices reconstructs the bit count.
        let total: u32 = (0..18u8)
            .map(|d| {
                t.device_slice(d, DataWidth::X4)
                    .iter()
                    .map(|b| b.count_ones())
                    .sum::<u32>()
            })
            .sum();
        assert_eq!(total, t.bit_count());
    });
}

/// Error-bit aggregates never exceed per-event bounds.
#[test]
fn errorbit_stats_bounds() {
    check("errorbit_stats_bounds", CASES, |rng| {
        let events = random_events(rng);
        let ces: Vec<&CeEvent> = events.iter().filter_map(|e| e.as_ce()).collect();
        let s = ErrorBitStats::from_ces(ces.iter().copied(), DataWidth::X4);
        assert_eq!(s.events as usize, ces.len());
        assert!(s.mean_dq_count <= s.max_dq_count as f32 + 1e-6);
        assert!(s.mean_beat_count <= s.max_beat_count as f32 + 1e-6);
        assert!(s.union_dev_dq <= 4, "x4 device has 4 lanes");
        assert!(s.union_dev_beats <= 8);
        assert!(s.complex_events <= s.events);
        assert!(s.max_devices <= s.total_devices);
    });
}

/// Labeling laws: the three regimes partition the timeline.
#[test]
fn label_partitions_time() {
    check("label_partitions_time", CASES, |rng| {
        let t_secs = rng.random_range(0u64..10_000_000);
        let ue_offset = rng.random_range(0i64..5_000_000);
        let cfg = ProblemConfig::default();
        let t = SimTime::from_secs(t_secs);
        let ue = SimTime::from_secs((t_secs as i64 + ue_offset) as u64);
        let label = cfg.label_at(t, Some(ue));
        let lead_end = t + cfg.lead;
        let window_end = t + cfg.lead + cfg.prediction;
        if ue < lead_end {
            assert_eq!(label, None);
        } else if ue <= window_end {
            assert_eq!(label, Some(true));
        } else {
            assert_eq!(label, Some(false));
        }
    });
}

/// Feature extraction never sees the future: appending later events
/// leaves the vector at time `t` unchanged.
#[test]
fn extraction_is_causal() {
    check("extraction_is_causal", CASES, |rng| {
        let events = random_events(rng);
        let t = SimTime::from_secs(rng.random_range(1u64..2_000_000));
        let spec = DimmSpec::default();
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();

        let past: Vec<&MemEvent> = events.iter().filter(|e| e.time() < t).collect();
        let all: Vec<&MemEvent> = events.iter().collect();

        let v_past = extract_features(&DimmHistory::new(&past), &spec, t, &cfg, &th);
        let v_all = extract_features(&DimmHistory::new(&all), &spec, t, &cfg, &th);
        assert_eq!(v_past, v_all);
    });
}

/// Sample times always look back on at least one CE and never pass the
/// failure point.
#[test]
fn sample_times_are_valid() {
    check("sample_times_are_valid", CASES, |rng| {
        let events = random_events(rng);
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let cfg = ProblemConfig::default();
        for t in cfg.sample_times(&h, SimDuration::days(60)) {
            assert!(h.ce_count_in_window(t, cfg.observation) > 0);
            assert!(cfg.label_at(t, h.first_ue()).is_some());
        }
    });
}

/// The streaming extractor, holding a random history, is bit-identical
/// to the batch oracle at every point of a monotone evaluation grid, for
/// both device widths.
#[test]
fn streaming_matches_batch() {
    check("streaming_matches_batch", CASES, |rng| {
        let events = random_events(rng);
        let start = rng.random_range(0u64..2_000_000);
        let step = rng.random_range(1u64..200_000);
        let spec = DimmSpec {
            width: if coin(rng) {
                DataWidth::X8
            } else {
                DataWidth::X4
            },
            ..Default::default()
        };
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let mut stream = stream_of(&events, spec);
        for k in 0..12u64 {
            let t = SimTime::from_secs(start + k * step);
            assert_eq!(
                stream.features_at(t),
                extract_features(&h, &spec, t, &cfg, &th),
                "diverged at t = {}",
                t
            );
        }
    });
}

/// Out-of-order queries rewind transparently: a stream queried at an
/// earlier time agrees with the batch oracle there too.
#[test]
fn streaming_rewind_matches_batch() {
    check("streaming_rewind_matches_batch", CASES, |rng| {
        let events = random_events(rng);
        let t_fwd = rng.random_range(1_000_000u64..3_000_000);
        let t_back = rng.random_range(0u64..1_000_000);
        let spec = DimmSpec::default();
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let mut stream = stream_of(&events, spec);
        for t in [SimTime::from_secs(t_fwd), SimTime::from_secs(t_back)] {
            assert_eq!(
                stream.features_at(t),
                extract_features(&h, &spec, t, &cfg, &th),
                "diverged at t = {}",
                t
            );
        }
    });
}

/// Fault classification is monotone in evidence: adding events can only
/// turn flags on, never off.
#[test]
fn classification_is_monotone() {
    check("classification_is_monotone", CASES, |rng| {
        let events = random_events(rng);
        let split = rng.random_range(1usize..39);
        let ces: Vec<&CeEvent> = events.iter().filter_map(|e| e.as_ce()).collect();
        assume(split < ces.len());
        let th = FaultThresholds::default();
        let partial = classify_ces(ces[..split].iter().copied(), DataWidth::X4, &th);
        let full = classify_ces(ces.iter().copied(), DataWidth::X4, &th);
        // single_device can flip to multi_device, so only check the
        // spatial flags.
        let spatial = |f: &ObservedFaults| [f.cell, f.row, f.column, f.bank];
        for (a, b) in spatial(&partial).iter().zip(spatial(&full)) {
            assert!(!a || b, "spatial flags must be monotone");
        }
    });
}

/// Telemetry is observation-only: sample assembly with instrumentation
/// recording is bit-identical to the uninstrumented oracle (telemetry
/// disabled) at every worker count. Whole-fleet simulation per case:
/// keep the case count small.
#[test]
fn instrumented_assembly_matches_uninstrumented_oracle() {
    check(
        "instrumented_assembly_matches_uninstrumented_oracle",
        3,
        |rng| {
            use mfp_dram::geometry::Platform;
            use mfp_sim::config::FleetConfig;
            use mfp_sim::fleet::simulate_fleet;

            let seed = rng.random_range(0u64..1_000);
            let fleet = simulate_fleet(&FleetConfig::smoke(seed));
            let cfg = ProblemConfig::default();
            let th = FaultThresholds::default();

            mfp_obs::set_enabled(false);
            let oracle = build_samples_with_workers(&fleet, Platform::IntelPurley, &cfg, &th, 1);
            mfp_obs::set_enabled(true);
            for workers in [1usize, 2, 4] {
                let instrumented =
                    build_samples_with_workers(&fleet, Platform::IntelPurley, &cfg, &th, workers);
                assert_bit_identical(&instrumented, &oracle);
            }
        },
    );
}

/// One random event of `dimm` at `t`: mostly CEs on a small address
/// space (so spatial and fault-mode flags fire), some storms and UEs.
fn random_store_event(rng: &mut StdRng, dimm: DimmId, t: u64) -> MemEvent {
    let time = SimTime::from_secs(t);
    let addr = CellAddr::new(
        0,
        rng.random_range(0u8..3),
        rng.random_range(0u32..6),
        rng.random_range(0u16..6),
    );
    match rng.random_range(0u32..20) {
        0 => MemEvent::Ue(UeEvent {
            time,
            dimm,
            addr,
            transfer: ErrorTransfer::from_bits(random_bits(rng)),
        }),
        1 | 2 => MemEvent::Storm(CeStormEvent {
            time,
            dimm,
            count: 10,
        }),
        _ => MemEvent::Ce(CeEvent {
            time,
            dimm,
            addr,
            transfer: ErrorTransfer::from_bits(random_bits(rng)),
        }),
    }
}

/// Serves every DIMM in `served` at `now` and compares each row, bit for
/// bit, with the batch extractor over that DIMM's exported events; the
/// active set must match a scan of the same export.
fn assert_store_serves_oracle(
    store: &FeatureStore,
    lake: &DataLake,
    dimms: &[DimmId],
    served: &[bool],
    now: SimTime,
) {
    let cfg = ProblemConfig::default();
    let th = FaultThresholds::default();
    let exported: BTreeMap<DimmId, Vec<MemEvent>> = store.export_streams().into_iter().collect();
    for (&dimm, _) in dimms.iter().zip(served).filter(|(_, s)| **s) {
        let expected = match (exported.get(&dimm), lake.dimm_info(dimm)) {
            (Some(events), Some((_, spec))) if !events.is_empty() => {
                let refs: Vec<&MemEvent> = events.iter().collect();
                Some(extract_features(
                    &DimmHistory::new(&refs),
                    &spec,
                    now,
                    &cfg,
                    &th,
                ))
            }
            _ => None,
        };
        let row = store.serve(lake, dimm, now);
        assert_eq!(row.is_some(), expected.is_some(), "{dimm:?} at {now}");
        if let (Some(row), Some(expected)) = (row, expected) {
            for (i, (a, b)) in row.iter().zip(&expected).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{dimm:?} feature {i} at {now}");
            }
        }
    }
    let from = now.saturating_sub(cfg.observation);
    let active: Vec<DimmId> = exported
        .iter()
        .filter(|(_, events)| {
            events
                .iter()
                .any(|e| e.as_ce().is_some() && e.time() >= from && e.time() < now)
        })
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(store.active_dimms(now), active, "active set at {now}");
}

/// Random multi-DIMM traffic through `FeatureStore::stream_ingest`, served
/// at random times, is bit-identical to the batch extractor over each
/// DIMM's exported events. The traffic spans more than 30 days (so
/// evictions land between serves and inside the fault window, and after
/// a jump inside every window) and mixes equal timestamps, out-of-order
/// arrivals before and after the last served time, stragglers from
/// before the retention cutoff, a DIMM whose spec reaches the catalog
/// late, one export → import into a fresh store, and one serve earlier
/// than the previous one.
#[test]
fn store_serving_matches_batch_oracle() {
    // A private registry counts the store's rare paths across all cases,
    // so the test also proves the traffic reached them.
    let reg = mfp_obs::Registry::new();
    mfp_obs::with_registry(&reg, store_traffic_cases);
    for name in [
        "feature_store_stale_dropped",
        "feature_store_out_of_order",
        "features_stream_rewinds",
    ] {
        assert!(reg.counter(name, &[]).get() > 0, "{name} never fired");
    }
}

fn store_traffic_cases() {
    check("store_serving_matches_batch_oracle", CASES, |rng| {
        let day = 86_400u64;
        let dimms: Vec<DimmId> = (0..rng.random_range(1u32..4))
            .map(|i| DimmId::new(i, 0))
            .collect();
        let steps = rng.random_range(40usize..160);
        let lake = DataLake::new();
        let late = dimms.len() - 1;
        let late_at = rng.random_range(0..steps);
        let import_at = rng.random_range(0..steps);
        let earlier_at = rng.random_range(0..steps);
        let specs: Vec<DimmSpec> = dimms
            .iter()
            .map(|_| DimmSpec {
                width: if coin(rng) {
                    DataWidth::X8
                } else {
                    DataWidth::X4
                },
                ..Default::default()
            })
            .collect();
        for (i, (&dimm, spec)) in dimms.iter().zip(&specs).enumerate() {
            if i != late {
                lake.register_dimm(dimm, Platform::IntelPurley, *spec);
            }
        }
        let new_store = || FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut store = new_store();
        let mut clock = 0u64;
        let mut last_now: Option<u64> = None;
        for step in 0..steps {
            let dimm = dimms[rng.random_range(0..dimms.len())];
            let t = match rng.random_range(0u32..20) {
                // Equal timestamp.
                0 | 1 => clock,
                // Out of order: before or after the last served time.
                2..=4 => clock.saturating_sub(rng.random_range(0..2 * day)),
                // Straggler from before the retention cutoff.
                5 => clock.saturating_sub(rng.random_range(31 * day..60 * day)),
                // A jump past most of the retention: evicts events still
                // inside every window of the last serve.
                6 => {
                    clock += rng.random_range(20 * day..40 * day);
                    clock
                }
                _ => {
                    clock += rng.random_range(0..day);
                    clock
                }
            };
            store.stream_ingest(&random_store_event(rng, dimm, t));
            if step == late_at {
                lake.register_dimm(dimms[late], Platform::IntelPurley, specs[late]);
            }
            if step == import_at {
                let fresh = new_store();
                fresh.import_streams(store.export_streams());
                store = fresh;
            }
            if rng.random_range(0u32..4) == 0 || step == earlier_at {
                let now = match last_now {
                    Some(prev) if step == earlier_at => {
                        prev.saturating_sub(rng.random_range(1..10 * day))
                    }
                    _ => clock + rng.random_range(0..day / 2),
                };
                let served: Vec<bool> = dimms
                    .iter()
                    .map(|_| rng.random_range(0u32..3) > 0)
                    .collect();
                assert_store_serves_oracle(&store, &lake, &dimms, &served, SimTime::from_secs(now));
                last_now = Some(now);
            }
        }
    });
}

/// Early entry is invisible: one stream driven through random
/// interleavings of pushes (in order, at equal stamps, and out of order
/// before and after the newest early-entered event), `evict_before` cuts
/// inside every window, the entering step `FeatureStream::enter_newest`,
/// device-width changes and queries (later ones, ones at the newest held
/// event's own stamp and ones before it) serves every row bit-identical
/// to the batch extractor over the events it holds.
#[test]
fn early_entry_matches_batch_oracle() {
    let reg = mfp_obs::Registry::new();
    mfp_obs::with_registry(&reg, early_entry_cases);
    assert!(
        reg.counter("features_stream_rewinds", &[]).get() > 0,
        "no query or push reached the rewind path"
    );
}

fn early_entry_cases() {
    check("early_entry_matches_batch_oracle", CASES, |rng| {
        let day = 86_400u64;
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        let windows = [
            15 * 60,
            3_600,
            6 * 3_600,
            day,
            cfg.observation.as_secs(),
            30 * day,
        ];
        let dimm = DimmId::new(1, 0);
        let spec_of = |x8: bool| DimmSpec {
            width: if x8 { DataWidth::X8 } else { DataWidth::X4 },
            ..Default::default()
        };
        let mut spec = spec_of(coin(rng));
        let mut stream = FeatureStream::new(cfg, th);
        stream.set_spec(spec);
        let mut clock = rng.random_range(0..day);
        let mut last_query = None;
        for _ in 0..rng.random_range(20usize..120) {
            let newest = stream.latest().map_or(clock, SimTime::as_secs);
            match rng.random_range(0u32..24) {
                // Pushes, each followed by the entering step as the store
                // does: in order, at an equal stamp, out of order (before
                // or after the last query and the newest event).
                0..=7 => {
                    clock += rng.random_range(0..day / 2);
                    stream.push(random_store_event(rng, dimm, clock));
                    stream.enter_newest();
                }
                8 | 9 => {
                    stream.push(random_store_event(rng, dimm, newest));
                    stream.enter_newest();
                }
                10 | 11 => {
                    let t = newest.saturating_sub(rng.random_range(0..day));
                    stream.push(random_store_event(rng, dimm, t));
                    stream.enter_newest();
                }
                // A push left out of the windows, and a lone entering step.
                12 => stream.push(random_store_event(rng, dimm, clock)),
                13 => stream.enter_newest(),
                // A cut inside one window, measured back from the last
                // query or from the newest event.
                14 | 15 => {
                    let from = if coin(rng) {
                        last_query.unwrap_or(newest)
                    } else {
                        newest
                    };
                    let len = windows[rng.random_range(0..windows.len())];
                    let cutoff = from.saturating_sub(rng.random_range(0..len));
                    stream.evict_before(SimTime::from_secs(cutoff));
                }
                16 => {
                    spec = spec_of(spec.width == DataWidth::X4);
                    stream.set_spec(spec);
                }
                // Queries: later than every event, at the newest event's
                // own stamp, or before it.
                q => {
                    let t = match q {
                        17..=20 => newest + rng.random_range(1..day),
                        21 => newest,
                        _ => newest.saturating_sub(rng.random_range(1..2 * day)),
                    };
                    let t = SimTime::from_secs(t);
                    let held: Vec<MemEvent> = stream.events().copied().collect();
                    let refs: Vec<&MemEvent> = held.iter().collect();
                    let expected = extract_features(&DimmHistory::new(&refs), &spec, t, &cfg, &th);
                    let row = stream.features_at(t);
                    assert_eq!(row.len(), expected.len());
                    for (i, (a, b)) in row.iter().zip(&expected).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "feature {i} at {t}");
                    }
                    last_query = Some(t.as_secs());
                }
            }
        }
    });
}

/// `ProblemConfig::sample_times` before its forward cursor: a binary
/// search over the history at every grid step.
fn sample_times_per_step(
    cfg: &ProblemConfig,
    history: &DimmHistory<'_>,
    horizon: SimDuration,
) -> Vec<SimTime> {
    let Some(first_ce) = history.first_ce() else {
        return Vec::new();
    };
    let first_ue = history.first_ue();
    let end = SimTime::ZERO + horizon;
    let step = cfg.sample_interval.as_secs().max(60);
    let mut out = Vec::new();
    let mut t = first_ce + SimDuration::secs(step);
    while t < end {
        if history.ce_count_in_window(t, cfg.observation) > 0 {
            if cfg.label_at(t, first_ue).is_some() {
                out.push(t);
            } else {
                break;
            }
        }
        t += SimDuration::secs(step);
    }
    out
}

/// The one-pass sample grid equals the per-step oracle on random histories
/// with storms, UEs, and CEs exactly on grid instants `t` and on their
/// window starts `t - observation`.
#[test]
fn sample_times_match_the_per_step_oracle() {
    check("sample_times_match_the_per_step_oracle", CASES, |rng| {
        let hour = 3_600u64;
        let cfg = ProblemConfig {
            observation: SimDuration::secs(rng.random_range(1..6 * 24) * hour),
            lead: SimDuration::secs(rng.random_range(0..6) * hour),
            prediction: SimDuration::secs(rng.random_range(1..40) * 24 * hour),
            sample_interval: SimDuration::secs(match rng.random_range(0u32..3) {
                0 => rng.random_range(0..120),
                1 => rng.random_range(1..48) * hour,
                _ => 24 * hour,
            }),
        };
        let step = cfg.sample_interval.as_secs().max(60);
        let first = rng.random_range(0..20 * 24 * hour);
        let on_grid = |r: &mut StdRng| first + r.random_range(0u64..200) * step;
        let mut raw = vec_of(rng, 1..40, |r| {
            let t = match r.random_range(0u32..4) {
                0 => on_grid(r),
                1 => on_grid(r).saturating_sub(cfg.observation.as_secs()),
                _ => first + r.random_range(0..100 * 24 * hour),
            };
            (t, r.random_range(0u32..10))
        });
        // The earliest event is a CE at `first`, so the grid is anchored.
        raw.push((first, 9));
        raw.sort_by_key(|&(t, _)| t);
        let dimm = DimmId::new(3, 1);
        let events: Vec<MemEvent> = raw
            .into_iter()
            .map(|(t, kind)| {
                let time = SimTime::from_secs(t);
                let addr = CellAddr::new(0, 1, 2, 3);
                match kind {
                    0 => MemEvent::Ue(UeEvent {
                        time,
                        dimm,
                        addr,
                        transfer: ErrorTransfer::from_bits([(0, 0), (0, 1)]),
                    }),
                    1 => MemEvent::Storm(CeStormEvent {
                        time,
                        dimm,
                        count: 20,
                    }),
                    _ => MemEvent::Ce(CeEvent {
                        time,
                        dimm,
                        addr,
                        transfer: ErrorTransfer::from_bits([(1, 5)]),
                    }),
                }
            })
            .collect();
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let horizon = SimDuration::secs(first + rng.random_range(0..150 * 24 * hour));
        assert_eq!(
            cfg.sample_times(&h, horizon),
            sample_times_per_step(&cfg, &h, horizon)
        );
    });
}

/// The fields of a [`CeBitProfile`], device list included.
type ProfileFields = (
    u32,
    u32,
    u32,
    Option<u32>,
    Option<u32>,
    u32,
    Vec<(u8, u8, u8)>,
);

fn fields(p: &CeBitProfile) -> ProfileFields {
    (
        p.dq_count,
        p.beat_count,
        p.bit_count,
        p.dq_interval,
        p.beat_interval,
        p.device_mask,
        p.dev_bits().to_vec(),
    )
}

/// `CeBitProfile::of` before its one-pass rewrite: each statistic from its
/// own walk of the transfer, and the device list from the set bits.
fn bit_profile_multi_pass(t: &ErrorTransfer, width: DataWidth) -> ProfileFields {
    let w = width.dq_per_device() as usize;
    let n_dev = width.devices_per_rank() as usize;
    let mut dev_dq = [0u8; 32];
    let mut dev_beats = [0u8; 32];
    for (beat, dq) in t.iter_bits() {
        let dev = (dq as usize / w).min(n_dev - 1);
        dev_dq[dev] |= 1 << (dq as usize - dev * w);
        dev_beats[dev] |= 1 << beat;
    }
    let dev_bits = (0..n_dev)
        .filter(|&d| dev_dq[d] != 0)
        .map(|d| (d as u8, dev_dq[d], dev_beats[d]))
        .collect();
    (
        t.dq_count(),
        t.beat_count(),
        t.bit_count(),
        t.dq_interval(),
        t.beat_interval(),
        t.device_mask(width),
        dev_bits,
    )
}

fn assert_profile_matches_oracle(t: &ErrorTransfer) {
    for width in [DataWidth::X4, DataWidth::X8] {
        assert_eq!(
            fields(&CeBitProfile::of(t, width)),
            bit_profile_multi_pass(t, width),
            "{t:?}, {width:?}"
        );
    }
}

/// The one-pass bit profile equals the multi-pass oracle on all 576
/// single-bit transfers, on the clean transfer, and on random bursts.
#[test]
fn bit_profile_matches_the_multi_pass_oracle() {
    assert_profile_matches_oracle(&ErrorTransfer::new());
    for beat in 0..8u8 {
        for dq in 0..72u8 {
            assert_profile_matches_oracle(&ErrorTransfer::from_bits([(beat, dq)]));
        }
    }
    check("bit_profile_matches_the_multi_pass_oracle", CASES, |rng| {
        let dense = coin(rng);
        let bits = vec_of(rng, 1..if dense { 300 } else { 6 }, |r| {
            (r.random_range(0u8..8), r.random_range(0u8..72))
        });
        assert_profile_matches_oracle(&ErrorTransfer::from_bits(bits));
    });
}
