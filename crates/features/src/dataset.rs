//! Sample-set assembly: from a fleet's BMC log to labelled feature matrices.
//!
//! Assembly streams each DIMM's history once through a
//! [`FeatureStream`] and fans DIMMs out across
//! worker threads; the merged [`SampleSet`] is bit-identical regardless of
//! worker count because DIMMs are chunked and merged in fleet generation
//! order and each per-DIMM extraction is deterministic.

use crate::fault_analysis::FaultThresholds;
use crate::history::DimmHistory;
use crate::labeling::ProblemConfig;
use crate::stream::FeatureStream;
use mfp_dram::address::DimmId;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::SimTime;
use mfp_sim::fleet::FleetResult;
use std::ops::Range;

/// A labelled tabular dataset of prediction samples.
///
/// Features are stored row-major (`n x d`, `d =`
/// [`FEATURE_DIM`](crate::extract::FEATURE_DIM)); each row keeps its DIMM
/// and evaluation time so results can be aggregated to DIMM level.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    /// Feature names (length `d`).
    pub schema: Vec<String>,
    /// Row-major feature matrix (`n * d` values).
    pub features: Vec<f32>,
    /// Per-sample labels (true = UE within the prediction window).
    pub labels: Vec<bool>,
    /// Per-sample DIMM identity.
    pub dimms: Vec<DimmId>,
    /// Per-sample evaluation time.
    pub times: Vec<SimTime>,
}

impl SampleSet {
    /// Creates an empty set with the standard schema.
    pub fn new() -> Self {
        SampleSet {
            schema: crate::extract::feature_names(),
            ..Default::default()
        }
    }

    /// Creates an empty set with room for `samples` rows, avoiding
    /// reallocation during assembly.
    pub fn with_capacity(samples: usize) -> Self {
        let mut set = SampleSet::new();
        set.reserve(samples);
        set
    }

    /// Reserves room for at least `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.features.reserve(additional * self.dim());
        self.labels.reserve(additional);
        self.dimms.reserve(additional);
        self.times.reserve(additional);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.schema.len()
    }

    /// The `i`-th feature row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.features[i * self.dim()..(i + 1) * self.dim()]
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the schema length.
    pub fn push(&mut self, row: Vec<f32>, label: bool, dimm: DimmId, time: SimTime) {
        assert_eq!(row.len(), self.dim(), "feature row has wrong length");
        self.features.extend(row);
        self.labels.push(label);
        self.dimms.push(dimm);
        self.times.push(time);
    }

    /// An empty set with this set's schema and room for `samples` rows.
    fn empty_like(&self, samples: usize) -> SampleSet {
        let mut set = SampleSet {
            schema: self.schema.clone(),
            ..Default::default()
        };
        set.reserve(samples);
        set
    }

    /// Copies sample `i` of `src` onto the end of this set.
    ///
    /// # Panics
    ///
    /// Panics if the schemas differ or `i` is out of range.
    pub fn push_from(&mut self, src: &SampleSet, i: usize) {
        assert_eq!(self.schema, src.schema, "schema mismatch");
        self.copy_row(src, i);
    }

    /// [`Self::push_from`] for callers that built this set with `src`'s
    /// schema, so the per-row schema comparison is skipped.
    fn copy_row(&mut self, src: &SampleSet, i: usize) {
        self.features.extend_from_slice(src.row(i));
        self.labels.push(src.labels[i]);
        self.dimms.push(src.dimms[i]);
        self.times.push(src.times[i]);
    }

    /// Moves all samples of `other` onto the end of this set.
    ///
    /// # Panics
    ///
    /// Panics if the schemas differ.
    pub fn append(&mut self, other: &mut SampleSet) {
        assert_eq!(self.schema, other.schema, "schema mismatch");
        self.features.append(&mut other.features);
        self.labels.append(&mut other.labels);
        self.dimms.append(&mut other.dimms);
        self.times.append(&mut other.times);
    }

    /// Number of positive samples.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Splits into (train, test) by evaluation time: samples strictly
    /// before `t` train, the rest test.
    pub fn split_by_time(&self, t: SimTime) -> (SampleSet, SampleSet) {
        let n_train = self.times.iter().filter(|&&s| s < t).count();
        let mut train = self.empty_like(n_train);
        let mut test = self.empty_like(self.len() - n_train);
        for i in 0..self.len() {
            let target = if self.times[i] < t {
                &mut train
            } else {
                &mut test
            };
            target.copy_row(self, i);
        }
        (train, test)
    }

    /// Retains every positive sample but only each `keep_every`-th negative
    /// (class rebalancing for training).
    pub fn downsample_negatives(&self, keep_every: usize) -> SampleSet {
        assert!(keep_every >= 1);
        let negatives = self.len() - self.positives();
        let kept = self.positives() + negatives.div_ceil(keep_every);
        let mut out = self.empty_like(kept);
        let mut neg_seen = 0usize;
        for i in 0..self.len() {
            if self.labels[i] || neg_seen.is_multiple_of(keep_every) {
                out.copy_row(self, i);
            }
            if !self.labels[i] {
                neg_seen += 1;
            }
        }
        out
    }
}

/// Streams one DIMM's history into the samples it yields at times in
/// `window`, appended onto `set`: pushes its events into `stream` (reset
/// for this DIMM), then queries its sample times.
///
/// `events` are the DIMM's events in time order, reaching past
/// `window.end` far enough to label its samples. The sample grid runs up
/// to `window.end` ([`ProblemConfig::sample_times`]); times before
/// `window.start` are skipped. Both assembly paths take this step per
/// DIMM: [`build_samples_with_workers`] over a fleet's whole horizon, and
/// the feature store over the lake's events in a training window.
pub fn stream_dimm_samples(
    set: &mut SampleSet,
    id: DimmId,
    spec: &DimmSpec,
    events: &[&MemEvent],
    window: Range<SimTime>,
    cfg: &ProblemConfig,
    stream: &mut FeatureStream,
) {
    let history = DimmHistory::new(events);
    let mut times = cfg.sample_times(&history, window.end - SimTime::ZERO);
    times.retain(|&t| t >= window.start);
    if times.is_empty() {
        return;
    }
    let first_ue = history.first_ue();
    stream.reset(*spec);
    for e in events {
        stream.push(**e);
    }
    set.reserve(times.len());
    for t in times {
        let Some(label) = cfg.label_at(t, first_ue) else {
            continue;
        };
        let row = stream.features_at(t);
        set.push(row, label, id, t);
    }
}

/// One platform's events grouped per DIMM, in log order within a DIMM.
struct PlatformEvents<'a> {
    /// The platform's DIMM ids, sorted and distinct.
    ids: Vec<DimmId>,
    /// `groups[k]` holds the events of `ids[k]`.
    groups: Vec<Vec<&'a MemEvent>>,
}

impl<'a> PlatformEvents<'a> {
    /// The events of DIMM `id` (empty when it logged none or is not on
    /// the platform).
    fn of(&self, id: DimmId) -> &[&'a MemEvent] {
        self.ids
            .binary_search(&id)
            .map_or(&[], |k| self.groups[k].as_slice())
    }
}

/// Groups the events of `platform`'s DIMMs in one pass over the log,
/// skipping every other platform's events. Gives each DIMM the events
/// [`BmcLog::by_dimm`](mfp_dram::bmc::BmcLog::by_dimm) would, without
/// building a map over the whole fleet.
fn platform_events(fleet: &FleetResult, platform: Platform) -> PlatformEvents<'_> {
    let mut ids: Vec<DimmId> = fleet.platform_dimms(platform).map(|d| d.id).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut groups = vec![Vec::new(); ids.len()];
    for e in fleet.log.iter() {
        if let Ok(k) = ids.binary_search(&e.dimm()) {
            groups[k].push(e);
        }
    }
    PlatformEvents { ids, groups }
}

/// Builds the labelled sample set for one platform from a simulated fleet.
///
/// Only DIMMs with CE history produce samples; sudden-UE DIMMs contribute
/// none (the paper omits them for lack of predictive data). Uses all
/// available cores; see [`build_samples_with_workers`] for the guarantees.
pub fn build_samples(
    fleet: &FleetResult,
    platform: Platform,
    cfg: &ProblemConfig,
    thresholds: &FaultThresholds,
) -> SampleSet {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    build_samples_with_workers(fleet, platform, cfg, thresholds, workers)
}

/// [`build_samples`] with an explicit worker count.
///
/// DIMMs are chunked in fleet generation order across `workers` scoped
/// threads, each streaming its chunk with a
/// [`FeatureStream`]; partial sets are merged
/// back in chunk order. The result is bit-identical for every worker count
/// (and to the batch extractor — see `tests/prop_features.rs`).
pub fn build_samples_with_workers(
    fleet: &FleetResult,
    platform: Platform,
    cfg: &ProblemConfig,
    thresholds: &FaultThresholds,
    workers: usize,
) -> SampleSet {
    let groups = platform_events(fleet, platform);
    let dimms: Vec<_> = fleet
        .platform_dimms(platform)
        .filter_map(|truth| {
            let events = groups.of(truth.id);
            (!events.is_empty()).then_some((truth, events))
        })
        .collect();

    let workers = workers.max(1);
    let chunk = dimms.len().div_ceil(workers).max(1);
    let window = SimTime::ZERO..SimTime::ZERO + fleet.config.horizon;
    let assembly_span = mfp_obs::latency("features_assembly_seconds", &[]).time();
    // Handles resolved once and cloned into the workers: recording is a
    // relaxed atomic op, so the threads never contend on the registry.
    let worker_seconds = mfp_obs::latency("features_worker_seconds", &[]);
    let partials = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for slice in dimms.chunks(chunk) {
            let (worker_seconds, window) = (worker_seconds.clone(), window.clone());
            handles.push(s.spawn(move || {
                let _span = worker_seconds.time();
                let mut part = SampleSet::new();
                // One stream per worker, reset per DIMM: its event buffer
                // keeps its capacity across the chunk.
                let mut stream = FeatureStream::new(*cfg, *thresholds);
                for (truth, events) in slice {
                    stream_dimm_samples(
                        &mut part,
                        truth.id,
                        &truth.spec,
                        events,
                        window.clone(),
                        cfg,
                        &mut stream,
                    );
                }
                part
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("sample worker"))
            .collect::<Vec<_>>()
    });

    let total = partials.iter().map(SampleSet::len).sum();
    let mut set = SampleSet::with_capacity(total);
    for mut part in partials {
        set.append(&mut part);
    }
    let p = platform.to_string();
    mfp_obs::counter("features_samples_assembled", &[("platform", p.as_str())])
        .add(set.len() as u64);
    assembly_span.stop();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_features, FEATURE_DIM};
    use mfp_sim::config::FleetConfig;
    use mfp_sim::fleet::simulate_fleet;

    fn smoke_samples() -> (FleetResult, SampleSet) {
        let fleet = simulate_fleet(&FleetConfig::smoke(5));
        let set = build_samples(
            &fleet,
            Platform::IntelPurley,
            &ProblemConfig::default(),
            &FaultThresholds::default(),
        );
        (fleet, set)
    }

    /// The pre-streaming assembly loop, kept as an oracle: batch-extracts
    /// every sample independently.
    fn build_samples_batch(
        fleet: &FleetResult,
        platform: Platform,
        cfg: &ProblemConfig,
        thresholds: &FaultThresholds,
    ) -> SampleSet {
        let by_dimm = fleet.log.by_dimm();
        let mut set = SampleSet::new();
        for truth in fleet.platform_dimms(platform) {
            let Some(events) = by_dimm.get(&truth.id) else {
                continue;
            };
            let history = DimmHistory::new(events);
            for t in cfg.sample_times(&history, fleet.config.horizon) {
                let Some(label) = cfg.label_at(t, history.first_ue()) else {
                    continue;
                };
                let row = extract_features(&history, &truth.spec, t, cfg, thresholds);
                set.push(row, label, truth.id, t);
            }
        }
        set
    }

    fn assert_sets_identical(a: &SampleSet, b: &SampleSet) {
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.dimms, b.dimms);
        assert_eq!(a.times, b.times);
        assert_eq!(
            a.features, b.features,
            "feature matrices must be bit-identical"
        );
    }

    #[test]
    fn build_produces_consistent_matrix() {
        let (_, set) = smoke_samples();
        assert!(!set.is_empty());
        assert_eq!(set.dim(), FEATURE_DIM);
        assert_eq!(set.features.len(), set.len() * set.dim());
        assert_eq!(set.dimms.len(), set.len());
        assert_eq!(set.times.len(), set.len());
    }

    #[test]
    fn has_both_classes() {
        let (_, set) = smoke_samples();
        let pos = set.positives();
        assert!(pos > 0, "need positive samples");
        assert!(pos < set.len(), "need negative samples");
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let fleet = simulate_fleet(&FleetConfig::smoke(5));
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        let one = build_samples_with_workers(&fleet, Platform::IntelPurley, &cfg, &th, 1);
        for workers in [2, 4, 7] {
            let many =
                build_samples_with_workers(&fleet, Platform::IntelPurley, &cfg, &th, workers);
            assert_sets_identical(&one, &many);
        }
    }

    #[test]
    fn streaming_assembly_matches_batch_oracle() {
        let fleet = simulate_fleet(&FleetConfig::smoke(5));
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        for platform in [
            Platform::IntelPurley,
            Platform::IntelWhitley,
            Platform::K920,
        ] {
            let streamed = build_samples_with_workers(&fleet, platform, &cfg, &th, 3);
            let batch = build_samples_batch(&fleet, platform, &cfg, &th);
            assert_sets_identical(&streamed, &batch);
        }
    }

    #[test]
    fn telemetry_toggle_does_not_change_output() {
        // The mfp-obs determinism invariant: metrics are write-only for
        // the measured code, so disabling them must not perturb a single
        // bit of the assembled set at any worker count.
        let fleet = simulate_fleet(&FleetConfig::smoke(5));
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        for workers in [1, 2, 4] {
            let on = build_samples_with_workers(&fleet, Platform::IntelPurley, &cfg, &th, workers);
            mfp_obs::set_enabled(false);
            let off = build_samples_with_workers(&fleet, Platform::IntelPurley, &cfg, &th, workers);
            mfp_obs::set_enabled(true);
            assert_sets_identical(&on, &off);
        }
    }

    #[test]
    fn split_by_time_partitions() {
        let (fleet, set) = smoke_samples();
        let mid =
            SimTime::ZERO + mfp_dram::time::SimDuration::secs(fleet.config.horizon.as_secs() / 2);
        let (train, test) = set.split_by_time(mid);
        assert_eq!(train.len() + test.len(), set.len());
        assert!(train.times.iter().all(|&t| t < mid));
        assert!(test.times.iter().all(|&t| t >= mid));
    }

    #[test]
    fn downsampling_keeps_positives() {
        let (_, set) = smoke_samples();
        let down = set.downsample_negatives(10);
        assert_eq!(down.positives(), set.positives());
        assert!(down.len() < set.len());
    }

    #[test]
    fn downsampling_capacity_estimate_is_exact() {
        let (_, set) = smoke_samples();
        for keep_every in [1, 2, 10] {
            let down = set.downsample_negatives(keep_every);
            let negatives = set.len() - set.positives();
            assert_eq!(down.len(), set.positives() + negatives.div_ceil(keep_every));
        }
    }

    #[test]
    fn splits_keep_a_non_standard_schema() {
        // Regression: both splits built their outputs with the standard
        // 62-name schema and panicked with "schema mismatch" on any other.
        let mut set = SampleSet::new();
        set.schema = vec!["a".into(), "b".into()];
        for k in 0..6u32 {
            let t = SimTime::from_secs(u64::from(k) * 100);
            set.push(
                vec![k as f32, -(k as f32)],
                k % 3 == 0,
                DimmId::new(k % 2, 0),
                t,
            );
        }
        let (train, test) = set.split_by_time(SimTime::from_secs(250));
        for (part, rows) in [(&train, 0..3), (&test, 3..6)] {
            assert_eq!(part.schema, set.schema);
            assert_eq!(part.features, set.features[rows.start * 2..rows.end * 2]);
            assert_eq!(part.labels, set.labels[rows.clone()]);
            assert_eq!(part.dimms, set.dimms[rows.clone()]);
            assert_eq!(part.times, set.times[rows]);
        }
        // Positives are samples 0 and 3; of the negatives 1, 2, 4, 5 every
        // second one is kept, starting with the first.
        let down = set.downsample_negatives(2);
        assert_eq!(down.schema, set.schema);
        let kept = [0usize, 1, 3, 4];
        assert_eq!(
            down.features,
            kept.iter()
                .flat_map(|&i| set.row(i).to_vec())
                .collect::<Vec<_>>()
        );
        assert_eq!(down.labels, kept.map(|i| set.labels[i]));
        assert_eq!(down.dimms, kept.map(|i| set.dimms[i]));
        assert_eq!(down.times, kept.map(|i| set.times[i]));
    }

    #[test]
    fn append_moves_all_samples() {
        let (_, set) = smoke_samples();
        let mut a = SampleSet::new();
        let mut b = set.clone();
        a.append(&mut b);
        assert!(b.is_empty());
        assert_sets_identical(&a, &set);
    }

    #[test]
    fn rows_are_views_into_matrix() {
        let (_, set) = smoke_samples();
        let r0 = set.row(0).to_vec();
        assert_eq!(r0.len(), set.dim());
        assert_eq!(&set.features[..set.dim()], r0.as_slice());
    }
}
