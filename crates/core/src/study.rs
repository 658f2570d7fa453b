//! The paper's empirical analyses, computed from BMC logs alone (ground
//! truth is never consulted): Table I, Fig. 4 and Fig. 5.

use mfp_dram::address::DimmId;
use mfp_dram::geometry::{DataWidth, Platform};
use mfp_dram::time::SimDuration;
use mfp_features::errorbits::ErrorBitStats;
use mfp_features::fault_analysis::{classify_ces, FaultThresholds, ObservedFaults};
use mfp_sim::fleet::FleetResult;
use std::collections::BTreeMap;

/// Per-platform Table I row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetRow {
    /// Platform.
    pub platform: Platform,
    /// DIMMs that logged at least one CE.
    pub dimms_with_ces: usize,
    /// DIMMs that logged a UE.
    pub dimms_with_ues: usize,
    /// Share of UE DIMMs with a CE at least `lead` before the UE.
    pub predictable_pct: f64,
    /// Share of UE DIMMs without such warning.
    pub sudden_pct: f64,
}

/// Computes Table I from the fleet's logs.
///
/// A UE is *predictable* when the DIMM logged at least one CE no later
/// than `lead` before the UE (default lead 3 h), matching the paper's
/// definition of UEs that "initially appear as CEs".
pub fn dataset_summary(fleet: &FleetResult, lead: SimDuration) -> Vec<DatasetRow> {
    let by_dimm = fleet.log.by_dimm();
    let platform_of: BTreeMap<DimmId, Platform> =
        fleet.dimms.iter().map(|d| (d.id, d.platform)).collect();

    let mut rows: BTreeMap<Platform, (usize, usize, usize)> = Platform::ALL
        .iter()
        .map(|&p| (p, (0usize, 0usize, 0usize)))
        .collect();

    for (dimm, events) in &by_dimm {
        let Some(&platform) = platform_of.get(dimm) else {
            continue;
        };
        let entry = rows.get_mut(&platform).expect("platform row");
        let first_ue = events.iter().find(|e| e.is_ue()).map(|e| e.time());
        let has_ce = events.iter().any(|e| e.as_ce().is_some());
        if has_ce {
            entry.0 += 1;
        }
        if let Some(ue) = first_ue {
            entry.1 += 1;
            let warned = events
                .iter()
                .filter_map(|e| e.as_ce())
                .any(|ce| ce.time + lead <= ue);
            if warned {
                entry.2 += 1;
            }
        }
    }

    Platform::ALL
        .iter()
        .map(|&platform| {
            let (ces, ues, predictable) = rows[&platform];
            let p_pct = if ues > 0 {
                100.0 * predictable as f64 / ues as f64
            } else {
                0.0
            };
            DatasetRow {
                platform,
                dimms_with_ces: ces,
                dimms_with_ues: ues,
                predictable_pct: p_pct,
                sudden_pct: if ues > 0 { 100.0 - p_pct } else { 0.0 },
            }
        })
        .collect()
}

/// Fig. 4: relative UE rate per observed fault mode, one row per platform.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModeUeRates {
    /// Platform.
    pub platform: Platform,
    /// `(label, dimms classified, UE dimms among them, relative UE %)`,
    /// in [`ObservedFaults::LABELS`] order.
    pub rates: Vec<(String, usize, usize, f64)>,
}

/// Computes Fig. 4 from logs: classify every CE DIMM's fault modes from
/// its pre-UE CE history, then measure the share of each class that went
/// on to log a UE.
pub fn relative_ue_by_fault_mode(
    fleet: &FleetResult,
    thresholds: &FaultThresholds,
) -> Vec<FaultModeUeRates> {
    let by_dimm = fleet.log.by_dimm();
    let info: BTreeMap<DimmId, (Platform, DataWidth)> = fleet
        .dimms
        .iter()
        .map(|d| (d.id, (d.platform, d.spec.width)))
        .collect();

    let mut counts: BTreeMap<Platform, Vec<(usize, usize)>> = Platform::ALL
        .iter()
        .map(|&p| (p, vec![(0usize, 0usize); ObservedFaults::LABELS.len()]))
        .collect();

    for (dimm, events) in &by_dimm {
        let Some(&(platform, width)) = info.get(dimm) else {
            continue;
        };
        let first_ue = events.iter().find(|e| e.is_ue()).map(|e| e.time());
        let pre_ue_ces = events
            .iter()
            .filter_map(|e| e.as_ce())
            .filter(|ce| first_ue.is_none_or(|ue| ce.time < ue));
        let faults = classify_ces(pre_ue_ces, width, thresholds);
        let flags = faults.flags();
        let has_ue = first_ue.is_some();
        let platform_counts = counts.get_mut(&platform).expect("platform");
        for (k, &flag) in flags.iter().enumerate() {
            if flag {
                platform_counts[k].0 += 1;
                if has_ue {
                    platform_counts[k].1 += 1;
                }
            }
        }
    }

    Platform::ALL
        .iter()
        .map(|&platform| {
            let rates = ObservedFaults::LABELS
                .iter()
                .zip(&counts[&platform])
                .map(|(label, &(n, ue))| {
                    let pct = if n > 0 {
                        100.0 * ue as f64 / n as f64
                    } else {
                        0.0
                    };
                    (label.to_string(), n, ue, pct)
                })
                .collect();
            FaultModeUeRates { platform, rates }
        })
        .collect()
}

/// One Fig. 5 panel: UE rate bucketed by an error-bit statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBitPanel {
    /// Platform.
    pub platform: Platform,
    /// Statistic name (e.g. `"error DQ count"`).
    pub statistic: String,
    /// `(bucket value, dimms, UE dimms, UE %)` ascending by bucket.
    pub buckets: Vec<(u32, usize, usize, f64)>,
}

/// Computes the four Fig. 5 panels (DQ count / DQ interval / beat count /
/// beat interval) for one platform's x4 DIMMs, from pre-UE CE history.
pub fn error_bit_analysis(fleet: &FleetResult, platform: Platform) -> Vec<ErrorBitPanel> {
    let by_dimm = fleet.log.by_dimm();
    let info: BTreeMap<DimmId, (Platform, DataWidth)> = fleet
        .dimms
        .iter()
        .map(|d| (d.id, (d.platform, d.spec.width)))
        .collect();

    // (dq count, dq interval, beat count, beat interval) -> (n, ue)
    let mut panels: [BTreeMap<u32, (usize, usize)>; 4] = Default::default();

    for (dimm, events) in &by_dimm {
        let Some(&(p, width)) = info.get(dimm) else {
            continue;
        };
        if p != platform || width != DataWidth::X4 {
            continue;
        }
        let first_ue = events.iter().find(|e| e.is_ue()).map(|e| e.time());
        let pre_ue_ces: Vec<_> = events
            .iter()
            .filter_map(|e| e.as_ce())
            .filter(|ce| first_ue.is_none_or(|ue| ce.time < ue))
            .collect();
        if pre_ue_ces.is_empty() {
            continue;
        }
        let stats = ErrorBitStats::from_ces(pre_ue_ces.iter().copied(), width);
        let has_ue = first_ue.is_some();
        // Bucket by the accumulated per-device footprint (the union view
        // matches how [7] and the paper build per-DIMM patterns).
        let keys = [
            stats.union_dev_dq,
            stats.union_dev_dq_interval,
            stats.union_dev_beats,
            stats.union_dev_beat_interval,
        ];
        for (panel, &key) in panels.iter_mut().zip(&keys) {
            let e = panel.entry(key).or_insert((0, 0));
            e.0 += 1;
            if has_ue {
                e.1 += 1;
            }
        }
    }

    let names = [
        "error DQ count",
        "DQ interval",
        "error beat count",
        "beat interval",
    ];
    panels
        .into_iter()
        .zip(names)
        .map(|(panel, name)| ErrorBitPanel {
            platform,
            statistic: name.to_string(),
            buckets: panel
                .into_iter()
                .map(|(k, (n, ue))| {
                    let pct = if n > 0 {
                        100.0 * ue as f64 / n as f64
                    } else {
                        0.0
                    };
                    (k, n, ue, pct)
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_sim::config::FleetConfig;
    use mfp_sim::fleet::simulate_fleet;

    fn fleet() -> FleetResult {
        simulate_fleet(&FleetConfig::smoke(11))
    }

    #[test]
    fn table1_shape_matches_paper() {
        let f = fleet();
        let rows = dataset_summary(&f, SimDuration::hours(3));
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.dimms_with_ces > 0, "{}: no CE dimms", r.platform);
            assert!(
                r.dimms_with_ues < r.dimms_with_ces,
                "{}: UE dimms must be the minority",
                r.platform
            );
            assert!((r.predictable_pct + r.sudden_pct - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig4_rates_are_percentages() {
        let f = fleet();
        let rates = relative_ue_by_fault_mode(&f, &FaultThresholds::default());
        assert_eq!(rates.len(), 3);
        for platform_rates in &rates {
            assert_eq!(platform_rates.rates.len(), 6);
            for (label, n, ue, pct) in &platform_rates.rates {
                assert!(*pct >= 0.0 && *pct <= 100.0, "{label}: {pct}");
                assert!(ue <= n, "{label}");
            }
        }
    }

    #[test]
    fn fig5_panels_cover_statistics() {
        let f = fleet();
        let panels = error_bit_analysis(&f, Platform::IntelPurley);
        assert_eq!(panels.len(), 4);
        for p in &panels {
            assert!(!p.buckets.is_empty(), "{} empty", p.statistic);
            let total: usize = p.buckets.iter().map(|b| b.1).sum();
            assert!(total > 0);
        }
    }

    #[test]
    fn purley_single_device_dominates_ue_attribution() {
        // Finding 2 on a smoke fleet: among Purley UE DIMMs the
        // single-device share exceeds the multi-device share.
        let f = simulate_fleet(&FleetConfig::calibrated(100.0, 9));
        let rates = relative_ue_by_fault_mode(&f, &FaultThresholds::default());
        let purley = &rates[0];
        assert_eq!(purley.platform, Platform::IntelPurley);
        let ue_of = |label: &str| {
            purley
                .rates
                .iter()
                .find(|(l, ..)| l == label)
                .map(|&(_, _, ue, _)| ue)
                .unwrap()
        };
        assert!(
            ue_of("single-device") >= ue_of("multi-device"),
            "single {} vs multi {}",
            ue_of("single-device"),
            ue_of("multi-device")
        );
    }
}
