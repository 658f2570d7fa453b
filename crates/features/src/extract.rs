//! Feature extraction: one fixed-schema vector per (DIMM, evaluation time).
//!
//! The feature families follow §VI of the paper: temporal CE statistics at
//! multiple window sizes, spatial dispersion within the DRAM hierarchy,
//! fault-mode flags from the fault analysis, error-bit (DQ/beat) statistics,
//! and static DIMM configuration (manufacturer, width, frequency, process).

use crate::errorbits::ErrorBitStats;
use crate::fault_analysis::{classify_ces, FaultThresholds, ObservedFaults};
use crate::history::DimmHistory;
use crate::labeling::ProblemConfig;
use mfp_dram::spec::{DieProcess, DimmSpec, Manufacturer};
use mfp_dram::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// The windowed aggregates a feature vector is assembled from.
///
/// Both the batch path ([`extract_features`]) and the streaming path
/// ([`FeatureStream`](crate::stream::FeatureStream)) produce this struct and
/// hand it to the same [`assemble_features`], so any difference between the
/// two extractors is confined to integer aggregate computation — the f32
/// arithmetic is shared and therefore bit-identical by construction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FeatureInputs {
    pub ce_15m: u32,
    pub ce_1h: u32,
    pub ce_6h: u32,
    pub ce_1d: u32,
    pub ce_obs: u32,
    pub storms_1d: u32,
    pub storms_obs: u32,
    pub ce_total: u32,
    pub first_ce: Option<SimTime>,
    pub last_ce: Option<SimTime>,
    pub banks: u32,
    pub rows: u32,
    pub cols: u32,
    pub cells: u32,
    pub max_cell_repeat: u32,
    pub faults: ObservedFaults,
    pub eb: ErrorBitStats,
    pub eb1: ErrorBitStats,
}

/// Number of features produced per sample.
pub const FEATURE_DIM: usize = 62;

/// Features that accumulate over a DIMM's lifetime rather than describing
/// the current window. They drift *by construction* between any two time
/// windows, so distribution-shift monitors must exclude them.
pub const CUMULATIVE_FEATURES: [&str; 2] = ["ce_total", "days_since_first_ce"];

/// Stable feature names, index-aligned with [`extract_features`].
pub fn feature_names() -> Vec<String> {
    let mut names: Vec<String> = vec![
        // Temporal CE statistics.
        "ce_15m",
        "ce_1h",
        "ce_6h",
        "ce_1d",
        "ce_5d",
        "storms_1d",
        "storms_5d",
        "ce_total",
        "ce_accel", // Recency.
        "days_since_first_ce",
        "hours_since_last_ce",
        // Spatial dispersion over the observation window.
        "banks_5d",
        "rows_5d",
        "cols_5d",
        "cells_5d",
        "max_cell_repeat_5d",
        // Fault-mode flags over the whole history.
        "fault_cell",
        "fault_column",
        "fault_row",
        "fault_bank",
        "fault_single_device",
        "fault_multi_device",
        // Error-bit statistics over the observation window.
        "eb_max_dq",
        "eb_mean_dq",
        "eb_max_beat",
        "eb_mean_beat",
        "eb_max_dq_interval",
        "eb_max_beat_interval",
        "eb_max_bits",
        "eb_complex",
        "eb_interval4",
        "eb_wide_dq",
        "eb_many_beat",
        "eb_max_devices",
        "eb_total_devices",
        "eb_complex_frac",
        // Degradation trend: 1-day error-bit statistics and their ratio to
        // the full observation window (severity growth shows up here).
        "eb1_max_bits",
        "eb1_mean_dq",
        "eb1_mean_beat",
        "eb1_complex",
        "eb1_interval4",
        "eb1_wide_dq",
        "trend_bits",
        "trend_complex",
        // Accumulated (window-union) per-device error-bit geometry.
        "ebu_dev_dq",
        "ebu_dev_beats",
        "ebu_dev_beat_interval",
        "ebu_dev_interval4",
        "ebu_dev_dq_interval",
        "ebu_complex",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    // Static configuration.
    for m in Manufacturer::ALL {
        names.push(format!("mfr_{m}"));
    }
    for p in DieProcess::ALL {
        names.push(format!("process_{p}"));
    }
    names.extend(
        ["width_x8", "freq_norm", "capacity_norm", "ranks"]
            .into_iter()
            .map(String::from),
    );
    debug_assert_eq!(names.len(), FEATURE_DIM);
    names
}

/// Extracts the feature vector for a DIMM at evaluation time `t`.
///
/// Only events strictly before `t` are visible — the function cannot leak
/// the future. Output length is [`FEATURE_DIM`].
pub fn extract_features(
    history: &DimmHistory<'_>,
    spec: &DimmSpec,
    t: SimTime,
    cfg: &ProblemConfig,
    thresholds: &FaultThresholds,
) -> Vec<f32> {
    let inputs = batch_inputs(history, spec, t, cfg, thresholds);
    let mut row = Vec::with_capacity(FEATURE_DIM);
    assemble_features(&inputs, spec, t, cfg, &mut row);
    row
}

/// Gathers [`FeatureInputs`] by re-scanning the history at `t` — the batch
/// oracle the streaming extractor is validated against.
fn batch_inputs(
    history: &DimmHistory<'_>,
    spec: &DimmSpec,
    t: SimTime,
    cfg: &ProblemConfig,
    thresholds: &FaultThresholds,
) -> FeatureInputs {
    // Spatial dispersion over the observation window.
    let mut banks = BTreeSet::new();
    let mut rows = BTreeSet::new();
    let mut cols = BTreeSet::new();
    let mut cells: BTreeMap<(u8, u8, u32, u16), u32> = BTreeMap::new();
    for ce in history.ces_in_window(t, cfg.observation) {
        let a = ce.addr;
        banks.insert((a.rank, a.bank));
        rows.insert((a.rank, a.bank, a.row));
        cols.insert((a.rank, a.bank, a.col));
        *cells.entry((a.rank, a.bank, a.row, a.col)).or_default() += 1;
    }

    // Fault-mode flags (over a 30-day lookback).
    let lookback = t.saturating_sub(SimDuration::days(30));
    let faults = classify_ces(history.ces_in(lookback, t), spec.width, thresholds);

    FeatureInputs {
        ce_15m: history.ce_count_in_window(t, SimDuration::minutes(15)),
        ce_1h: history.ce_count_in_window(t, SimDuration::hours(1)),
        ce_6h: history.ce_count_in_window(t, SimDuration::hours(6)),
        ce_1d: history.ce_count_in_window(t, SimDuration::days(1)),
        ce_obs: history.ce_count_in_window(t, cfg.observation),
        storms_1d: history.storm_count_in_window(t, SimDuration::days(1)),
        storms_obs: history.storm_count_in_window(t, cfg.observation),
        ce_total: history.ces_in(SimTime::ZERO, t).count() as u32,
        first_ce: history.first_ce(),
        last_ce: history.last_ce_before(t),
        banks: banks.len() as u32,
        rows: rows.len() as u32,
        cols: cols.len() as u32,
        cells: cells.len() as u32,
        max_cell_repeat: cells.values().copied().max().unwrap_or(0),
        faults,
        eb: ErrorBitStats::from_ces(history.ces_in_window(t, cfg.observation), spec.width),
        eb1: ErrorBitStats::from_ces(history.ces_in_window(t, SimDuration::days(1)), spec.width),
    }
}

/// Assembles the feature vector from windowed aggregates into `f`,
/// replacing its contents — the single place any f32 arithmetic happens,
/// shared by batch and streaming extraction.
pub(crate) fn assemble_features(
    inp: &FeatureInputs,
    spec: &DimmSpec,
    t: SimTime,
    cfg: &ProblemConfig,
    f: &mut Vec<f32>,
) {
    f.clear();

    // Temporal CE statistics.
    let obs_days = (cfg.observation.as_days_f64()).max(1.0) as f32;
    let accel = inp.ce_1d as f32 / (inp.ce_obs as f32 / obs_days).max(0.2);
    f.extend([
        inp.ce_15m as f32,
        inp.ce_1h as f32,
        inp.ce_6h as f32,
        inp.ce_1d as f32,
        inp.ce_obs as f32,
        inp.storms_1d as f32,
        inp.storms_obs as f32,
        inp.ce_total as f32,
        accel,
    ]);

    // Recency.
    let days_since_first = inp
        .first_ce
        .and_then(|fc| t.checked_duration_since(fc))
        .map(|d| d.as_days_f64() as f32)
        .unwrap_or(0.0);
    let hours_since_last = inp
        .last_ce
        .and_then(|lc| t.checked_duration_since(lc))
        .map(|d| d.as_hours_f64() as f32)
        .unwrap_or(f32::from(u8::MAX));
    f.extend([days_since_first, hours_since_last]);

    // Spatial dispersion over the observation window.
    f.extend([
        inp.banks as f32,
        inp.rows as f32,
        inp.cols as f32,
        inp.cells as f32,
        inp.max_cell_repeat as f32,
    ]);

    // Fault-mode flags (over a 30-day lookback).
    f.extend(inp.faults.flags().map(|b| b as u8 as f32));

    // Error-bit statistics over the observation window.
    let eb = &inp.eb;
    let complex_frac = if eb.events > 0 {
        eb.complex_events as f32 / eb.events as f32
    } else {
        0.0
    };
    f.extend([
        eb.max_dq_count as f32,
        eb.mean_dq_count,
        eb.max_beat_count as f32,
        eb.mean_beat_count,
        eb.max_dq_interval as f32,
        eb.max_beat_interval as f32,
        eb.max_bits as f32,
        eb.complex_events as f32,
        eb.interval4_events as f32,
        eb.wide_dq_events as f32,
        eb.many_beat_events as f32,
        eb.max_devices as f32,
        eb.total_devices as f32,
        complex_frac,
    ]);

    // One-day error-bit statistics and degradation trend ratios: a fault on
    // its way to a UE produces more erroneous bits per access every day,
    // while stable faults do not.
    let eb1 = &inp.eb1;
    let mean_bits_5d = if eb.events > 0 {
        // total bits unavailable directly; approximate via dq*beat means
        eb.mean_dq_count * eb.mean_beat_count
    } else {
        0.0
    };
    let mean_bits_1d = if eb1.events > 0 {
        eb1.mean_dq_count * eb1.mean_beat_count
    } else {
        0.0
    };
    let trend_bits = mean_bits_1d / mean_bits_5d.max(0.25);
    let complex_frac_1d = if eb1.events > 0 {
        eb1.complex_events as f32 / eb1.events as f32
    } else {
        0.0
    };
    let trend_complex = complex_frac_1d / complex_frac.max(0.05);
    f.extend([
        eb1.max_bits as f32,
        eb1.mean_dq_count,
        eb1.mean_beat_count,
        eb1.complex_events as f32,
        eb1.interval4_events as f32,
        eb1.wide_dq_events as f32,
        trend_bits,
        trend_complex,
    ]);

    // Window-union per-device bit geometry: low-severity faults reveal
    // their (DQ, beat) footprint only across many CEs.
    let ebu_complex = ((eb.union_dev_dq >= 2 && eb.union_dev_beats >= 2) as u8) as f32;
    f.extend([
        eb.union_dev_dq as f32,
        eb.union_dev_beats as f32,
        eb.union_dev_beat_interval as f32,
        eb.union_dev_interval4 as f32,
        eb.union_dev_dq_interval as f32,
        ebu_complex,
    ]);

    // Static configuration.
    for m in Manufacturer::ALL {
        f.push((spec.manufacturer == m) as u8 as f32);
    }
    for p in DieProcess::ALL {
        f.push((spec.process == p) as u8 as f32);
    }
    f.push((spec.width == mfp_dram::geometry::DataWidth::X8) as u8 as f32);
    f.push(spec.frequency.mts() as f32 / 3200.0);
    f.push(spec.capacity_gib as f32 / 64.0);
    f.push(spec.ranks as f32);

    debug_assert_eq!(f.len(), FEATURE_DIM);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::{CellAddr, DimmId};
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::{CeEvent, MemEvent};

    fn ce(t: u64, row: u32, col: u16, bits: &[(u8, u8)]) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(0, 0),
            addr: CellAddr::new(0, 0, row, col),
            transfer: ErrorTransfer::from_bits(bits.iter().copied()),
        })
    }

    fn names_index(name: &str) -> usize {
        feature_names().iter().position(|n| n == name).unwrap()
    }

    #[test]
    fn schema_has_unique_names_and_fixed_dim() {
        let names = feature_names();
        assert_eq!(names.len(), FEATURE_DIM);
        let set: BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "feature names must be unique");
    }

    #[test]
    fn vector_matches_schema_length() {
        let events = [ce(100, 1, 1, &[(0, 0)])];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let v = extract_features(
            &h,
            &DimmSpec::default(),
            SimTime::from_secs(200),
            &ProblemConfig::default(),
            &FaultThresholds::default(),
        );
        assert_eq!(v.len(), FEATURE_DIM);
    }

    #[test]
    fn no_future_leakage() {
        // An event after t must not change the features at t.
        let past = vec![ce(100, 1, 1, &[(0, 0)])];
        let mut with_future = past.clone();
        with_future.push(ce(10_000, 2, 2, &[(1, 4), (5, 5)]));
        let t = SimTime::from_secs(5_000);
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        let spec = DimmSpec::default();

        let r1: Vec<&MemEvent> = past.iter().collect();
        let r2: Vec<&MemEvent> = with_future.iter().collect();
        let v1 = extract_features(&DimmHistory::new(&r1), &spec, t, &cfg, &th);
        let v2 = extract_features(&DimmHistory::new(&r2), &spec, t, &cfg, &th);
        assert_eq!(v1, v2);
    }

    #[test]
    fn window_counts_land_in_right_slots() {
        let t0 = 10 * 86_400u64;
        let events = [
            ce(t0 - 4 * 86_400, 2, 1, &[(0, 0)]), // 4 days ago
            ce(t0 - 3_000, 1, 2, &[(0, 0)]),      // 50 min ago
            ce(t0 - 30, 1, 1, &[(0, 0)]),         // 30 s ago
        ];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let v = extract_features(
            &h,
            &DimmSpec::default(),
            SimTime::from_secs(t0),
            &ProblemConfig::default(),
            &FaultThresholds::default(),
        );
        assert_eq!(v[names_index("ce_15m")], 1.0);
        assert_eq!(v[names_index("ce_1h")], 2.0);
        assert_eq!(v[names_index("ce_5d")], 3.0);
        assert_eq!(v[names_index("rows_5d")], 2.0);
        assert_eq!(v[names_index("cols_5d")], 2.0);
    }

    #[test]
    fn signature_features_fire() {
        let t0 = 86_400u64;
        let events = [ce(t0 - 100, 1, 1, &[(1, 20), (5, 21)])];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let v = extract_features(
            &h,
            &DimmSpec::default(),
            SimTime::from_secs(t0),
            &ProblemConfig::default(),
            &FaultThresholds::default(),
        );
        assert_eq!(v[names_index("eb_interval4")], 1.0);
        assert_eq!(v[names_index("eb_max_dq")], 2.0);
        assert_eq!(v[names_index("eb_complex")], 1.0);
        assert_eq!(v[names_index("fault_single_device")], 1.0);
    }

    #[test]
    fn static_features_encode_spec() {
        let refs: Vec<&MemEvent> = Vec::new();
        let h = DimmHistory::new(&refs);
        let spec = DimmSpec {
            manufacturer: Manufacturer::C,
            ..Default::default()
        };
        let v = extract_features(
            &h,
            &spec,
            SimTime::from_secs(100),
            &ProblemConfig::default(),
            &FaultThresholds::default(),
        );
        assert_eq!(v[names_index("mfr_Mfr-C")], 1.0);
        assert_eq!(v[names_index("mfr_Mfr-A")], 0.0);
        assert_eq!(v[names_index("ranks")], 2.0);
    }
}
