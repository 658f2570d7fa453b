//! The feature store (paper §VII): transformation, storage, cataloging and
//! serving of features for training (batch) and online prediction
//! (streaming).
//!
//! Train/serve consistency is by construction: both paths extract with a
//! [`FeatureStream`] — [`FeatureStore::materialize`] through dataset
//! assembly's per-DIMM step, serving through one live stream per DIMM —
//! and [`FeatureStore::consistency_check`] verifies it against the batch
//! extractor, the check data scientists run before promoting a model.
//!
//! Online serving keeps one owned [`FeatureStream`] per DIMM alive between
//! prediction ticks, and [`FeatureStore::stream_ingest`] enters each
//! event into its stream's windows when it is pushed
//! ([`FeatureStream::enter_newest`]). A tick therefore costs O(active
//! DIMMs + events leaving windows) instead of a rebuild of every active
//! DIMM's window; entering is paid at the push, once per event.
//! A tick serves every active DIMM in one pass
//! ([`FeatureStore::serve_active`]); [`FeatureStore::active_dimms`] and
//! [`FeatureStore::serve`] answer the same questions one DIMM at a time.
//! The oracle serving is checked against is
//! [`extract_features`] over [`FeatureStore::export_streams`].

use crate::lake::DataLake;
use mfp_dram::address::DimmId;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_features::dataset::{stream_dimm_samples, SampleSet};
use mfp_features::extract::{extract_features, feature_names};
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::history::DimmHistory;
use mfp_features::labeling::ProblemConfig;
use mfp_features::stream::FeatureStream;
use std::collections::BTreeMap;
use std::sync::{Mutex, RwLock};

/// Lock-poisoning panic message: a writer panicked mid-update.
const POISONED: &str = "feature store lock poisoned by a panicked writer";

/// Catalog entry describing a registered feature view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureView {
    /// View name, e.g. `"memfail/v1"`.
    pub name: String,
    /// Monotonic version.
    pub version: u32,
    /// Feature names served by this view.
    pub schema: Vec<String>,
    /// Free-form description for the catalog.
    pub description: String,
}

/// The feature store.
#[derive(Debug)]
pub struct FeatureStore {
    problem: ProblemConfig,
    thresholds: FaultThresholds,
    retention: SimDuration,
    views: RwLock<Vec<FeatureView>>,
    /// One stream per DIMM, holding the events inside the retention
    /// window. A `Mutex`, since serving advances a stream's windows.
    streams: Mutex<BTreeMap<DimmId, FeatureStream>>,
}

impl FeatureStore {
    /// Creates a store for the given problem formulation.
    pub fn new(problem: ProblemConfig, thresholds: FaultThresholds) -> Self {
        let retention = SimDuration::days(30).max(problem.observation);
        let store = FeatureStore {
            problem,
            thresholds,
            retention,
            views: RwLock::new(Vec::new()),
            streams: Mutex::new(BTreeMap::new()),
        };
        store.register_view(
            "memfail",
            "CE spatio-temporal + error-bit + static DIMM features for UE prediction",
        );
        store
    }

    /// The problem formulation this store serves.
    pub fn problem(&self) -> &ProblemConfig {
        &self.problem
    }

    /// Registers (a new version of) a feature view in the catalog.
    pub fn register_view(&self, name: &str, description: &str) -> FeatureView {
        let mut views = self.views.write().expect(POISONED);
        let version = views.iter().filter(|v| v.name == name).count() as u32 + 1;
        let view = FeatureView {
            name: name.to_string(),
            version,
            schema: feature_names(),
            description: description.to_string(),
        };
        views.push(view.clone());
        view
    }

    /// Catalog of registered views.
    pub fn views(&self) -> Vec<FeatureView> {
        self.views.read().expect(POISONED).clone()
    }

    /// **Batch transformation**: materializes a platform's labelled
    /// samples stamped in `[from, to)` from lake data.
    ///
    /// Labels need UE visibility up to `to + lead + prediction`, so this is
    /// only used for historical (training) ranges. Each catalogued DIMM's
    /// events go through dataset assembly's per-DIMM step
    /// ([`stream_dimm_samples`]), so a lake holding a fleet's log yields
    /// the samples `build_samples` gives that fleet in the window.
    pub fn materialize(
        &self,
        lake: &DataLake,
        platform: Platform,
        from: SimTime,
        to: SimTime,
    ) -> SampleSet {
        let span = mfp_obs::latency("feature_store_materialize_seconds", &[]).time();
        let label_horizon = to + self.problem.lead + self.problem.prediction;
        let events = lake.query(platform, SimTime::ZERO, label_horizon);
        let mut by_dimm: BTreeMap<DimmId, Vec<&MemEvent>> = BTreeMap::new();
        for e in &events {
            by_dimm.entry(e.dimm()).or_default().push(e);
        }
        let mut set = SampleSet::new();
        let mut stream = FeatureStream::new(self.problem, self.thresholds);
        for (dimm, evs) in by_dimm {
            if let Some((_, spec)) = lake.dimm_info(dimm) {
                stream_dimm_samples(
                    &mut set,
                    dimm,
                    &spec,
                    &evs,
                    from..to,
                    &self.problem,
                    &mut stream,
                );
            }
        }
        // Same series the batch assembler reports, so dashboards see total
        // samples produced regardless of which path built them.
        let p = platform.to_string();
        mfp_obs::counter("features_samples_assembled", &[("platform", p.as_str())])
            .add(set.len() as u64);
        span.stop();
        set
    }

    /// **Stream transformation**: folds one event into the online state.
    ///
    /// The store keeps a DIMM's accepted events stamped at or after
    /// `latest − retention`, where `latest` is its newest accepted event.
    /// The stream stays time-ordered even when events arrive slightly out
    /// of order (a bounded-lateness ingestor may legally release equal or
    /// near-equal timestamps in arrival order): late events are inserted
    /// at their timestamp position. Events older than the retention
    /// cutoff are dropped outright — never spliced into a window that has
    /// already been evicted around them. Expired events are popped from
    /// the front of the stream, and then the event enters the stream's
    /// windows, so the next tick does not have to enter it.
    pub fn stream_ingest(&self, event: &MemEvent) {
        let mut streams = self.streams.lock().expect(POISONED);
        let s = streams
            .entry(event.dimm())
            .or_insert_with(|| FeatureStream::new(self.problem, self.thresholds));
        let t = event.time();
        let newest = s.latest();
        let cutoff = newest
            .map_or(t, |l| l.max(t))
            .saturating_sub(self.retention);
        if t < cutoff {
            mfp_obs::counter("feature_store_stale_dropped", &[]).incr();
            return;
        }
        if newest.is_some_and(|l| t < l) {
            // Out-of-order arrival: the stream inserts it after equal
            // timestamps.
            mfp_obs::counter("feature_store_out_of_order", &[]).incr();
        }
        s.push(*event);
        s.evict_before(cutoff);
        s.enter_newest();
    }

    /// Exports every per-DIMM stream (checkpoint support): the complete
    /// online rolling state, time-ordered within each DIMM.
    pub fn export_streams(&self) -> Vec<(DimmId, Vec<MemEvent>)> {
        self.streams
            .lock()
            .expect(POISONED)
            .iter()
            .map(|(id, s)| (*id, s.events().copied().collect()))
            .collect()
    }

    /// Replaces the per-DIMM streams with previously exported state
    /// (checkpoint restore). Events are installed verbatim into fresh
    /// streams, which replay their windows once on their first
    /// [`Self::serve`] — restoring an export into a fresh store reproduces
    /// serving bit-for-bit.
    pub fn import_streams(&self, streams: Vec<(DimmId, Vec<MemEvent>)>) {
        let mut map = self.streams.lock().expect(POISONED);
        map.clear();
        for (id, events) in streams {
            let mut s = FeatureStream::new(self.problem, self.thresholds);
            for e in events {
                s.push(e);
            }
            map.insert(id, s);
        }
    }

    /// **Serving**: the current feature row of a DIMM at time `now`, or
    /// `None` when the DIMM has no recent activity. Advances the DIMM's
    /// stream to `now`; its spec (and so its bit profiles' device width)
    /// comes from the lake catalog.
    pub fn serve(&self, lake: &DataLake, dimm: DimmId, now: SimTime) -> Option<Vec<f32>> {
        let mut streams = self.streams.lock().expect(POISONED);
        let s = streams.get_mut(&dimm)?;
        if s.is_empty() {
            return None;
        }
        let (_, spec) = lake.dimm_info(dimm)?;
        s.set_spec(spec);
        Some(s.features_at(now))
    }

    /// **Serving, one pass per tick**: hands `serve` every DIMM with at
    /// least one CE in the observation window ending at `now` — the
    /// candidates the online predictor re-scores — in ascending order,
    /// with its current feature row, or `None` when the lake catalog does
    /// not know the DIMM. Equivalent to [`Self::active_dimms`] followed by
    /// [`Self::serve`] per DIMM, but walks the streams once under one
    /// store lock and one catalog read lock (taken in `serve`'s order),
    /// and fills every row into the caller's reused `row` buffer.
    ///
    /// `serve` runs under both locks, so it must not call back into this
    /// store or the lake.
    pub fn serve_active(
        &self,
        lake: &DataLake,
        now: SimTime,
        row: &mut Vec<f32>,
        mut serve: impl FnMut(DimmId, Option<&[f32]>),
    ) {
        let from = now.saturating_sub(self.problem.observation);
        let mut streams = self.streams.lock().expect(POISONED);
        let catalog = lake.catalog();
        for (&dimm, s) in streams.iter_mut() {
            // An active stream holds a CE, so it is never empty.
            if s.last_ce_before(now).is_none_or(|t| t < from) {
                continue;
            }
            let Some(&(_, spec)) = catalog.get(&dimm) else {
                serve(dimm, None);
                continue;
            };
            s.set_spec(spec);
            s.features_into(now, row);
            serve(dimm, Some(row));
        }
    }

    /// DIMMs with at least one CE in the observation window ending at
    /// `now` — the candidates the online predictor re-scores.
    pub fn active_dimms(&self, now: SimTime) -> Vec<DimmId> {
        let from = now.saturating_sub(self.problem.observation);
        self.streams
            .lock()
            .expect(POISONED)
            .iter()
            .filter(|(_, s)| s.last_ce_before(now).is_some_and(|t| t >= from))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Train/serve consistency check: replays a DIMM's lake events through
    /// the streaming path and compares the served vector against the batch
    /// extraction at the same instant. Returns the max absolute difference
    /// (0.0 means perfectly consistent).
    ///
    /// Note: consistency holds exactly when the serving time is within the
    /// retention window of the DIMM's oldest event; `ce_total`-style
    /// lifetime counters can differ beyond it, which this check surfaces.
    pub fn consistency_check(
        &self,
        lake: &DataLake,
        platform: Platform,
        dimm: DimmId,
        at: SimTime,
    ) -> Option<f32> {
        let (_, spec) = lake.dimm_info(dimm)?;
        let events = lake.query(platform, SimTime::ZERO, at);
        let dimm_events: Vec<&MemEvent> = events.iter().filter(|e| e.dimm() == dimm).collect();
        if dimm_events.is_empty() {
            return None;
        }
        // Batch path.
        let history = DimmHistory::new(&dimm_events);
        let batch = extract_features(&history, &spec, at, &self.problem, &self.thresholds);
        // Streaming path (fresh replay in an isolated store).
        let replay = FeatureStore::new(self.problem, self.thresholds);
        for e in &dimm_events {
            replay.stream_ingest(e);
        }
        let served = replay.serve(lake, dimm, at)?;
        Some(
            batch
                .iter()
                .zip(&served)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::CellAddr;
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::CeEvent;
    use mfp_dram::spec::DimmSpec;

    fn ce(t: u64, dimm: DimmId) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm,
            addr: CellAddr::new(0, 0, 1, 1),
            transfer: ErrorTransfer::from_bits([(0, 0)]),
        })
    }

    fn store() -> FeatureStore {
        FeatureStore::new(ProblemConfig::default(), FaultThresholds::default())
    }

    #[test]
    fn view_catalog_versions() {
        let s = store();
        assert_eq!(s.views().len(), 1);
        let v2 = s.register_view("memfail", "updated");
        assert_eq!(v2.version, 2);
        let other = s.register_view("other", "x");
        assert_eq!(other.version, 1);
        assert_eq!(s.views().len(), 3);
    }

    #[test]
    fn streaming_serves_features() {
        let lake = DataLake::new();
        let id = DimmId::new(1, 0);
        lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        let s = store();
        assert!(s.serve(&lake, id, SimTime::from_secs(100)).is_none());
        s.stream_ingest(&ce(50, id));
        let row = s.serve(&lake, id, SimTime::from_secs(100)).unwrap();
        assert_eq!(row.len(), mfp_features::extract::FEATURE_DIM);
    }

    #[test]
    fn retention_evicts_old_events() {
        let s = store();
        let id = DimmId::new(1, 0);
        s.stream_ingest(&ce(0, id));
        s.stream_ingest(&ce(40 * 86_400, id)); // 40 days later
        let streams = s.streams.lock().expect(POISONED);
        assert_eq!(streams[&id].events().len(), 1, "old event must be evicted");
    }

    #[test]
    fn out_of_order_ingest_keeps_streams_sorted() {
        let s = store();
        let id = DimmId::new(1, 0);
        s.stream_ingest(&ce(1_000, id));
        s.stream_ingest(&ce(3_000, id));
        s.stream_ingest(&ce(2_000, id)); // late arrival within retention
        let streams = s.streams.lock().expect(POISONED);
        let times: Vec<u64> = streams[&id].events().map(|e| e.time().as_secs()).collect();
        assert_eq!(times, vec![1_000, 2_000, 3_000]);
    }

    #[test]
    fn pre_retention_stragglers_are_dropped() {
        let s = store();
        let id = DimmId::new(1, 0);
        s.stream_ingest(&ce(40 * 86_400, id));
        // A straggler from before the retention cutoff must not resurrect
        // evicted history.
        s.stream_ingest(&ce(100, id));
        let streams = s.streams.lock().expect(POISONED);
        assert_eq!(streams[&id].events().len(), 1);
        assert_eq!(streams[&id].latest().unwrap().as_days(), 40);
    }

    #[test]
    fn export_import_roundtrips_serving() {
        let lake = DataLake::new();
        let id = DimmId::new(5, 0);
        lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        let s = store();
        for t in [1_000, 5_000, 60_000] {
            s.stream_ingest(&ce(t, id));
        }
        let at = SimTime::from_secs(100_000);
        let row = s.serve(&lake, id, at).unwrap();
        let restored = store();
        restored.import_streams(s.export_streams());
        assert_eq!(restored.serve(&lake, id, at).unwrap(), row);
        assert_eq!(restored.active_dimms(at), s.active_dimms(at));
    }

    #[test]
    fn active_dimms_require_recent_ces() {
        let s = store();
        let a = DimmId::new(1, 0);
        let b = DimmId::new(2, 0);
        s.stream_ingest(&ce(100, a));
        s.stream_ingest(&ce(20 * 86_400, b));
        let now = SimTime::from_secs(20 * 86_400 + 100);
        let active = s.active_dimms(now);
        assert_eq!(active, vec![b], "only b has CEs inside the window");
    }

    #[test]
    fn batch_and_stream_agree() {
        let lake = DataLake::new();
        let id = DimmId::new(3, 1);
        lake.register_dimm(id, Platform::K920, DimmSpec::default());
        lake.ingest(&[ce(1_000, id), ce(2_000, id), ce(90_000, id)]);
        let s = store();
        let diff = s
            .consistency_check(&lake, Platform::K920, id, SimTime::from_secs(100_000))
            .unwrap();
        assert_eq!(diff, 0.0, "train/serve skew detected");
    }

    #[test]
    fn materialize_builds_labelled_samples() {
        let lake = DataLake::new();
        let id = DimmId::new(4, 0);
        lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        // CEs across several days.
        let events: Vec<MemEvent> = (1..10).map(|d| ce(d * 86_400, id)).collect();
        lake.ingest(&events);
        let s = store();
        let set = s.materialize(
            &lake,
            Platform::IntelPurley,
            SimTime::ZERO,
            SimTime::from_secs(15 * 86_400),
        );
        assert!(!set.is_empty());
        assert!(set.labels.iter().all(|&l| !l), "no UE: all negative");
    }
}
