//! Online prediction: streaming events through the feature store and the
//! production model, raising de-duplicated alarms (paper §VII, "online
//! prediction" + "Cloud Service").

use crate::feature_store::FeatureStore;
use crate::lake::DataLake;
use crate::registry::ModelRegistry;
use mfp_dram::address::DimmId;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A raised failure alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// The DIMM predicted to fail.
    pub dimm: DimmId,
    /// When the alarm fired.
    pub time: SimTime,
    /// Model score at firing time.
    pub score: f32,
}

/// One model invocation, recorded when score tracing is enabled (see
/// [`OnlinePredictor::set_score_trace`]): the raw material for proving
/// two serving topologies bit-identical, not just alarm-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreRecord {
    /// The prediction tick that produced the score.
    pub time: SimTime,
    /// The scored DIMM.
    pub dimm: DimmId,
    /// Raw model output.
    pub score: f32,
}

/// Online predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Re-scoring interval Δi_p (the paper uses 5 minutes; coarser values
    /// trade latency for throughput).
    pub prediction_interval: SimDuration,
    /// Consecutive above-threshold scores required before alarming.
    pub votes: usize,
    /// Suppress further alarms for one DIMM after this long.
    pub alarm_cooldown: SimDuration,
    /// Degraded-mode grace: when a DIMM's stream goes quiet, keep scoring
    /// it with its last successfully served feature row for this long
    /// before giving up on it. `ZERO` (the default) disables degraded
    /// scoring — quiet DIMMs simply leave the active set.
    pub degraded_grace: SimDuration,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            prediction_interval: SimDuration::hours(6),
            votes: 2,
            alarm_cooldown: SimDuration::days(30),
            degraded_grace: SimDuration::ZERO,
        }
    }
}

/// Telemetry handles for the online path, resolved once per predictor.
#[derive(Debug)]
struct OnlineMetrics {
    ticks: mfp_obs::Counter,
    scores: mfp_obs::Counter,
    alarms: mfp_obs::Counter,
    cooldown_suppressed: mfp_obs::Counter,
    streaks_reset: mfp_obs::Counter,
    entries_pruned: mfp_obs::Counter,
    stale_rejected: mfp_obs::Counter,
    gap_streak_resets: mfp_obs::Counter,
    degraded_scores: mfp_obs::Counter,
    tick_seconds: mfp_obs::Histogram,
}

impl OnlineMetrics {
    fn for_platform(platform: Platform) -> Self {
        let p = platform.to_string();
        let labels: &[(&str, &str)] = &[("platform", p.as_str())];
        OnlineMetrics {
            ticks: mfp_obs::counter("online_ticks", labels),
            scores: mfp_obs::counter("online_scores", labels),
            alarms: mfp_obs::counter("online_alarms", labels),
            cooldown_suppressed: mfp_obs::counter("online_cooldown_suppressed", labels),
            streaks_reset: mfp_obs::counter("online_streaks_reset", labels),
            entries_pruned: mfp_obs::counter("online_entries_pruned", labels),
            stale_rejected: mfp_obs::counter("online_stale_rejected", labels),
            gap_streak_resets: mfp_obs::counter("online_gap_streak_resets", labels),
            degraded_scores: mfp_obs::counter("online_degraded_scores", labels),
            tick_seconds: mfp_obs::latency("online_tick_seconds", labels),
        }
    }
}

/// Streaming predictor over one platform's events.
#[derive(Debug)]
pub struct OnlinePredictor<'a> {
    lake: &'a DataLake,
    store: &'a FeatureStore,
    registry: &'a ModelRegistry,
    pub(crate) platform: Platform,
    pub(crate) cfg: OnlineConfig,
    pub(crate) next_tick: SimTime,
    /// Last executed prediction tick: events stamped before it would land
    /// inside windows already served and are rejected by [`Self::observe`].
    pub(crate) watermark: SimTime,
    pub(crate) streaks: BTreeMap<DimmId, u32>,
    pub(crate) last_alarm: BTreeMap<DimmId, SimTime>,
    pub(crate) alarms: Vec<Alarm>,
    pub(crate) scored: u64,
    pub(crate) stale_rejected: u64,
    /// Last successfully served feature row per DIMM, kept only when
    /// `cfg.degraded_grace > 0` (degraded-mode scoring cache).
    pub(crate) last_good: BTreeMap<DimmId, (SimTime, Vec<f32>)>,
    /// Optional per-invocation score log (diagnostic only, not part of
    /// the checkpointed state); `None` unless tracing was enabled.
    pub(crate) trace: Option<Vec<ScoreRecord>>,
    /// Scratch reused by every tick: the live DIMMs with their scores
    /// (`None` for a DIMM the catalog does not know), and the row buffer
    /// the store serves into.
    live: Vec<(DimmId, Option<f32>)>,
    row: Vec<f32>,
    metrics: OnlineMetrics,
}

impl<'a> OnlinePredictor<'a> {
    /// Creates a predictor bound to the platform's production model.
    pub fn new(
        lake: &'a DataLake,
        store: &'a FeatureStore,
        registry: &'a ModelRegistry,
        platform: Platform,
        cfg: OnlineConfig,
    ) -> Self {
        OnlinePredictor {
            lake,
            store,
            registry,
            platform,
            cfg,
            next_tick: SimTime::ZERO + cfg.prediction_interval,
            watermark: SimTime::ZERO,
            streaks: BTreeMap::new(),
            last_alarm: BTreeMap::new(),
            alarms: Vec::new(),
            scored: 0,
            stale_rejected: 0,
            last_good: BTreeMap::new(),
            trace: None,
            live: Vec::new(),
            row: Vec::new(),
            metrics: OnlineMetrics::for_platform(platform),
        }
    }

    /// Turns score tracing on or off. While on, every model invocation is
    /// appended to [`Self::score_trace`] — the evidence used to prove the
    /// sharded serving engine produces bit-identical *scores*, not just
    /// bit-identical alarms. Off by default; the trace grows without bound
    /// while enabled, so leave it off in production loops.
    pub fn set_score_trace(&mut self, on: bool) {
        if on {
            self.trace.get_or_insert_with(Vec::new);
        } else {
            self.trace = None;
        }
    }

    /// The recorded score trace (empty unless tracing is enabled).
    pub fn score_trace(&self) -> &[ScoreRecord] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Feeds one event; runs any due prediction ticks first. Returns
    /// whether the event was accepted: events stamped before the last
    /// executed tick are rejected (and counted) instead of being spliced
    /// into rolling windows that prediction already consumed — feed
    /// hostile streams through `crate::ingest::Ingestor` so stragglers
    /// are re-sequenced or quarantined before they reach this point.
    pub fn observe(&mut self, event: &MemEvent) -> bool {
        if event.time() < self.watermark {
            self.stale_rejected += 1;
            self.metrics.stale_rejected.incr();
            return false;
        }
        self.run_ticks_through(event.time());
        self.store.stream_ingest(event);
        true
    }

    /// Runs every due prediction tick stamped at or before `t`.
    fn run_ticks_through(&mut self, t: SimTime) {
        while t >= self.next_tick {
            let tick = self.next_tick;
            self.tick(tick);
            self.next_tick += self.cfg.prediction_interval;
        }
    }

    /// Flushes prediction ticks up to `until` (end of stream).
    pub fn finish(&mut self, until: SimTime) {
        while self.next_tick <= until {
            let tick = self.next_tick;
            self.tick(tick);
            self.next_tick += self.cfg.prediction_interval;
        }
    }

    fn tick(&mut self, now: SimTime) {
        // The tick consumes every window ending at `now`; later events
        // stamped before it would silently rewrite served history, so the
        // watermark advances even when no model is in production.
        self.watermark = now;
        let Some(production) = self.registry.production(self.platform) else {
            return;
        };
        let _span = self.metrics.tick_seconds.time();
        self.metrics.ticks.incr();
        // Degraded mode: DIMMs whose stream went quiet keep their last
        // successfully served feature row for `degraded_grace` and stay
        // scoreable — a collector outage must not blind the predictor to
        // a module that was trending towards failure.
        let grace = self.cfg.degraded_grace;
        if grace > SimDuration::ZERO {
            self.last_good.retain(|_, (t, _)| now <= *t + grace);
        }
        // One pass over the store scores every live DIMM, in ascending
        // order, and caches its row for degraded mode in the cached row's
        // own buffer. Caching first changes nothing below: a live DIMM is
        // never degraded, and its streak survives either way.
        let model = &production.model;
        let (live, last_good) = (&mut self.live, &mut self.last_good);
        live.clear();
        self.store
            .serve_active(self.lake, now, &mut self.row, |dimm, row| {
                let score = row.map(|row| {
                    if grace > SimDuration::ZERO {
                        let (t, cached) = last_good.entry(dimm).or_default();
                        *t = now;
                        cached.clear();
                        cached.extend_from_slice(row);
                    }
                    model.predict_proba(row)
                });
                live.push((dimm, score));
            });
        let is_live = |d: &DimmId| live.binary_search_by_key(d, |&(l, _)| l).is_ok();
        // A DIMM that went quiet since the last tick produced no score, so
        // its votes are no longer consecutive — the streak must restart
        // from zero when (if) it comes back.
        let before = self.streaks.len();
        self.streaks
            .retain(|d, _| is_live(d) || last_good.contains_key(d));
        self.metrics
            .streaks_reset
            .add((before - self.streaks.len()) as u64);
        // Expired cooldown entries can never suppress again; dropping them
        // keeps the map bounded by the fleet's recently-alarmed set rather
        // than growing for the life of the process.
        let before = self.last_alarm.len();
        self.last_alarm
            .retain(|_, t| now < *t + self.cfg.alarm_cooldown);
        self.metrics
            .entries_pruned
            .add((before - self.last_alarm.len()) as u64);
        // Sorted merge of the live DIMMs and the degraded ones — quiet
        // DIMMs inside the grace window, scored on their cached
        // last-known-good row rather than a half-empty window (both
        // sorted, disjoint by construction).
        let mut live_iter = live.iter().peekable();
        let mut degraded_iter = last_good
            .iter()
            .filter(|&(d, _)| grace > SimDuration::ZERO && !is_live(d))
            .peekable();
        loop {
            let (dimm, score) = match (live_iter.peek(), degraded_iter.peek()) {
                (None, None) => break,
                (Some(&&(l, score)), d) if d.is_none_or(|&(d, _)| l < *d) => {
                    live_iter.next();
                    let Some(score) = score else {
                        continue;
                    };
                    (l, score)
                }
                _ => {
                    let (&d, (_, row)) = degraded_iter.next().expect("peeked");
                    self.metrics.degraded_scores.incr();
                    (d, model.predict_proba(row))
                }
            };
            self.scored += 1;
            self.metrics.scores.incr();
            if let Some(trace) = &mut self.trace {
                trace.push(ScoreRecord {
                    time: now,
                    dimm,
                    score,
                });
            }
            let streak = self.streaks.entry(dimm).or_insert(0);
            if score >= production.threshold {
                *streak += 1;
            } else {
                *streak = 0;
            }
            if *streak as usize >= self.cfg.votes {
                let cooling = self
                    .last_alarm
                    .get(&dimm)
                    .is_some_and(|&t| now < t + self.cfg.alarm_cooldown);
                if cooling {
                    self.metrics.cooldown_suppressed.incr();
                } else {
                    self.alarms.push(Alarm {
                        dimm,
                        time: now,
                        score,
                    });
                    self.last_alarm.insert(dimm, now);
                    self.metrics.alarms.incr();
                }
            }
        }
    }

    /// Alarms raised so far.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Number of model invocations (monitoring counter).
    pub fn scored(&self) -> u64 {
        self.scored
    }

    /// Events rejected for preceding the last processed tick.
    pub fn stale_rejected(&self) -> u64 {
        self.stale_rejected
    }

    /// The last executed prediction tick; [`Self::observe`] rejects
    /// events stamped before it.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Records a detected collection hole on `dimm` (reported by
    /// `crate::ingest::Ingestor`): scores on opposite sides of a hole are
    /// not consecutive, so the vote streak restarts — the online analogue
    /// of the gap-aware offline voting in `mfp_ml::metrics`. The degraded
    /// cache is dropped too; a row served before the hole no longer
    /// represents the stream that resumed after it.
    pub fn note_gap(&mut self, dimm: DimmId) {
        if self.streaks.remove(&dimm).is_some() {
            self.metrics.gap_streak_resets.incr();
        }
        self.last_good.remove(&dimm);
    }

    /// Feeds one normalized ingest output — the single entry point the
    /// WAL replays through, so live serving and crash recovery cannot
    /// diverge on how an output maps onto predictor state. Returns
    /// whether it was accepted ([`Self::observe`] semantics; gaps are
    /// always accepted).
    ///
    /// A gap first runs the ticks due by its end (`to`, the stamp of the
    /// event that revealed it), then restarts the streak. That pins the
    /// restart to a point on the DIMM's own timeline rather than to how
    /// far other DIMMs' events have advanced the clock, so a shard that
    /// sees only its own DIMMs applies it exactly where the sequential
    /// predictor does.
    pub fn apply(&mut self, out: &crate::ingest::IngestOutput) -> bool {
        match out {
            crate::ingest::IngestOutput::Released(e) => self.observe(e),
            crate::ingest::IngestOutput::Gap(g) => {
                self.run_ticks_through(g.to);
                self.note_gap(g.dimm);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestOutput;
    use mfp_dram::address::CellAddr;
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::CeEvent;
    use mfp_dram::geometry::DataWidth;
    use mfp_dram::spec::DimmSpec;
    use mfp_features::fault_analysis::FaultThresholds;
    use mfp_features::labeling::ProblemConfig;
    use mfp_ml::metrics::{Confusion, Evaluation};
    use mfp_ml::model::{Algorithm, Model};
    use mfp_ml::risky_ce::RiskyCePattern;

    /// A CE carrying the Purley risky signature (accumulates to 2 DQs with
    /// a 4-beat interval within one device).
    fn risky_ce(t: u64, dimm: DimmId, flip: bool) -> MemEvent {
        let bits: Vec<(u8, u8)> = if flip {
            vec![(1, 20), (5, 21)]
        } else {
            vec![(1, 20)]
        };
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm,
            addr: CellAddr::new(0, 0, (t / 1000) as u32 % 100, 1),
            transfer: ErrorTransfer::from_bits(bits),
        })
    }

    fn setup(lake: &DataLake, registry: &ModelRegistry) {
        let id = DimmId::new(1, 0);
        lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        let entry_model = Model::RiskyCe(RiskyCePattern::default());
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
            entry_model,
        );
        registry.promote(mid);
    }

    #[test]
    fn risky_stream_raises_one_alarm() {
        let lake = DataLake::new();
        let registry = ModelRegistry::new();
        setup(&lake, &registry);
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut p = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        let id = DimmId::new(1, 0);
        // A day of risky CEs every 2 hours.
        for k in 0..36u64 {
            p.observe(&risky_ce(k * 7200, id, true));
        }
        p.finish(SimTime::from_secs(4 * 86_400));
        assert_eq!(
            p.alarms().len(),
            1,
            "votes + cooldown must deduplicate alarms"
        );
        assert!(p.scored() > 0);
        assert_eq!(p.alarms()[0].dimm, id);
    }

    #[test]
    fn benign_stream_stays_silent() {
        let lake = DataLake::new();
        let registry = ModelRegistry::new();
        setup(&lake, &registry);
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut p = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        let id = DimmId::new(1, 0);
        for k in 0..36u64 {
            p.observe(&risky_ce(k * 7200, id, false));
        }
        p.finish(SimTime::from_secs(4 * 86_400));
        assert!(p.alarms().is_empty());
    }

    #[test]
    fn inactivity_resets_vote_streaks() {
        // Regression: a DIMM that dropped out of the active set kept its
        // partial vote streak frozen, so a single above-threshold score
        // after weeks of silence completed the "consecutive" vote and
        // alarmed. Votes separated by inactivity are not consecutive.
        let lake = DataLake::new();
        let registry = ModelRegistry::new();
        setup(&lake, &registry);
        // A 4-hour observation window (< the 6-hour tick interval) keeps a
        // lone CE's DIMM active for exactly one tick.
        let problem = ProblemConfig {
            observation: SimDuration::hours(4),
            ..ProblemConfig::default()
        };
        let store = FeatureStore::new(problem, FaultThresholds::default());
        let mut p = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        let id = DimmId::new(1, 0);
        // One risky CE, scored by exactly one tick: streak reaches 1 of 2.
        p.observe(&risky_ce(20_000, id, true));
        p.finish(SimTime::from_secs(86_400));
        assert!(p.alarms().is_empty());
        assert!(
            !p.streaks.contains_key(&id),
            "streak must be dropped once the DIMM leaves the active set"
        );
        // Ten days later one more risky CE arrives — again exactly one
        // scoring tick. A single vote after a long gap must not alarm.
        p.observe(&risky_ce(884_000, id, true));
        p.finish(SimTime::from_secs(950_000));
        assert!(
            p.alarms().is_empty(),
            "votes separated by inactivity must not accumulate"
        );
    }

    #[test]
    fn expired_cooldown_entries_are_pruned() {
        let lake = DataLake::new();
        let registry = ModelRegistry::new();
        setup(&lake, &registry);
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut p = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        let id = DimmId::new(1, 0);
        for k in 0..36u64 {
            p.observe(&risky_ce(k * 7200, id, true));
        }
        p.finish(SimTime::from_secs(4 * 86_400));
        assert_eq!(p.alarms().len(), 1);
        assert!(p.last_alarm.contains_key(&id), "cooldown entry while hot");
        // Ticking far past the cooldown horizon drops the bookkeeping for
        // the long-silent DIMM instead of holding it forever.
        p.finish(SimTime::from_secs(40 * 86_400));
        assert!(p.last_alarm.is_empty(), "expired cooldown must be pruned");
        assert!(p.streaks.is_empty(), "inactive streaks must be pruned");
        assert_eq!(p.alarms().len(), 1, "pruning must not re-alarm");
    }

    #[test]
    fn stale_events_are_rejected_at_the_watermark() {
        let lake = DataLake::new();
        let registry = ModelRegistry::new();
        setup(&lake, &registry);
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut p = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        let id = DimmId::new(1, 0);
        // Crossing t=86_400 runs ticks up to d1+00:00; the watermark is
        // now the last executed tick.
        assert!(p.observe(&risky_ce(90_000, id, true)));
        assert_eq!(p.watermark(), SimTime::from_secs(86_400));
        // A straggler from before the watermark would splice history into
        // windows prediction already consumed — rejected, counted.
        assert!(!p.observe(&risky_ce(50_000, id, true)));
        assert_eq!(p.stale_rejected(), 1);
        // At or after the watermark is still legal (windows are half-open).
        assert!(p.observe(&risky_ce(86_400, id, true)));
        assert_eq!(p.stale_rejected(), 1);
    }

    #[test]
    fn degraded_mode_scores_quiet_dimms_with_last_good_row() {
        let lake = DataLake::new();
        let registry = ModelRegistry::new();
        setup(&lake, &registry);
        // 4-hour observation: a lone CE keeps its DIMM active for exactly
        // one 6-hour tick, then the stream is "quiet".
        let problem = ProblemConfig {
            observation: SimDuration::hours(4),
            ..ProblemConfig::default()
        };
        let id = DimmId::new(1, 0);
        // Baseline: without grace a single risky CE gets one vote and the
        // predictor never alarms.
        let store = FeatureStore::new(problem, FaultThresholds::default());
        let mut base = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        base.observe(&risky_ce(20_000, id, true));
        base.finish(SimTime::from_secs(2 * 86_400));
        assert!(base.alarms().is_empty());
        let base_scored = base.scored();
        // Degraded mode: the cached last-known-good row keeps voting while
        // the stream is quiet, completing the consecutive votes.
        let store = FeatureStore::new(problem, FaultThresholds::default());
        let mut degraded = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig {
                degraded_grace: SimDuration::days(1),
                ..OnlineConfig::default()
            },
        );
        degraded.observe(&risky_ce(20_000, id, true));
        degraded.finish(SimTime::from_secs(2 * 86_400));
        assert!(
            degraded.scored() > base_scored,
            "grace must keep the quiet DIMM scoreable"
        );
        assert_eq!(
            degraded.alarms().len(),
            1,
            "votes must accumulate across the quiet period"
        );
        // The cache expires after the grace window.
        assert!(
            degraded.last_good.is_empty(),
            "expired last-good rows must be pruned"
        );
    }

    #[test]
    fn note_gap_restarts_vote_streaks() {
        let lake = DataLake::new();
        let registry = ModelRegistry::new();
        setup(&lake, &registry);
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut p = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        let id = DimmId::new(1, 0);
        // Build a one-vote streak (one tick worth of risky CEs).
        for k in 0..4u64 {
            p.observe(&risky_ce(k * 7200, id, true));
        }
        p.finish(SimTime::from_secs(21_601));
        assert_eq!(p.streaks.get(&id), Some(&1));
        // A collection hole was detected: votes across it are not
        // consecutive.
        p.note_gap(id);
        assert!(!p.streaks.contains_key(&id));
    }

    /// The tick as it ran before the one-pass store walk:
    /// `FeatureStore::active_dimms`, then one `FeatureStore::serve` call
    /// per live DIMM. Only tests keep it, as the oracle of the tick.
    fn legacy_tick(p: &mut OnlinePredictor<'_>, now: SimTime) {
        // The tick consumes every window ending at `now`; later events
        // stamped before it would silently rewrite served history, so the
        // watermark advances even when no model is in production.
        p.watermark = now;
        let Some(production) = p.registry.production(p.platform) else {
            return;
        };
        let _span = p.metrics.tick_seconds.time();
        p.metrics.ticks.incr();
        // `active_dimms` walks a BTreeMap, so the Vec is already sorted and
        // deduplicated — membership below is a binary search, and the merged
        // walk over (live, degraded) preserves the old set-union order
        // without materializing the union.
        let active = p.store.active_dimms(now);
        // Degraded mode: DIMMs whose stream went quiet keep their last
        // successfully served feature row for `degraded_grace` and stay
        // scoreable — a collector outage must not blind the predictor to
        // a module that was trending towards failure.
        let grace = p.cfg.degraded_grace;
        let mut degraded: Vec<DimmId> = Vec::new();
        if grace > SimDuration::ZERO {
            p.last_good.retain(|_, (t, _)| now <= *t + grace);
            degraded.extend(
                p.last_good
                    .keys()
                    .copied()
                    .filter(|d| active.binary_search(d).is_err()),
            );
        }
        // A DIMM that went quiet since the last tick produced no score, so
        // its votes are no longer consecutive — the streak must restart
        // from zero when (if) it comes back.
        let before = p.streaks.len();
        let last_good = &p.last_good;
        p.streaks
            .retain(|d, _| active.binary_search(d).is_ok() || last_good.contains_key(d));
        p.metrics
            .streaks_reset
            .add((before - p.streaks.len()) as u64);
        // Expired cooldown entries can never suppress again; dropping them
        // keeps the map bounded by the fleet's recently-alarmed set rather
        // than growing for the life of the process.
        let before = p.last_alarm.len();
        p.last_alarm.retain(|_, t| now < *t + p.cfg.alarm_cooldown);
        p.metrics
            .entries_pruned
            .add((before - p.last_alarm.len()) as u64);
        // Sorted merge of the live and degraded candidate lists (both
        // sorted, disjoint by construction).
        let mut live_iter = active.iter().peekable();
        let mut degraded_iter = degraded.iter().peekable();
        loop {
            let live = match (live_iter.peek(), degraded_iter.peek()) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(a), Some(d)) => a < d,
            };
            let dimm = if live {
                *live_iter.next().expect("peeked")
            } else {
                *degraded_iter.next().expect("peeked")
            };
            let score = if live {
                let Some(row) = p.store.serve(p.lake, dimm, now) else {
                    continue;
                };
                let score = production.model.predict_proba(&row);
                if grace > SimDuration::ZERO {
                    // Move the served row into the cache — no clone.
                    p.last_good.insert(dimm, (now, row));
                }
                score
            } else {
                // Quiet DIMM inside the grace window: score the cached
                // last-known-good row (borrowed in place) rather than a
                // half-empty window.
                let Some((_, row)) = p.last_good.get(&dimm) else {
                    continue;
                };
                p.metrics.degraded_scores.incr();
                production.model.predict_proba(row)
            };
            p.scored += 1;
            p.metrics.scores.incr();
            if let Some(trace) = &mut p.trace {
                trace.push(ScoreRecord {
                    time: now,
                    dimm,
                    score,
                });
            }
            let streak = p.streaks.entry(dimm).or_insert(0);
            if score >= production.threshold {
                *streak += 1;
            } else {
                *streak = 0;
            }
            if *streak as usize >= p.cfg.votes {
                let cooling = p
                    .last_alarm
                    .get(&dimm)
                    .is_some_and(|&t| now < t + p.cfg.alarm_cooldown);
                if cooling {
                    p.metrics.cooldown_suppressed.incr();
                } else {
                    p.alarms.push(Alarm {
                        dimm,
                        time: now,
                        score,
                    });
                    p.last_alarm.insert(dimm, now);
                    p.metrics.alarms.incr();
                }
            }
        }
    }

    /// [`OnlinePredictor::apply`] over a time-ordered stream, ticking
    /// through [`legacy_tick`].
    fn legacy_apply(p: &mut OnlinePredictor<'_>, out: &IngestOutput) {
        let t = match out {
            IngestOutput::Released(e) => e.time(),
            IngestOutput::Gap(g) => g.to,
        };
        while t >= p.next_tick {
            let tick = p.next_tick;
            legacy_tick(p, tick);
            p.next_tick += p.cfg.prediction_interval;
        }
        match out {
            IngestOutput::Released(e) => p.store.stream_ingest(e),
            IngestOutput::Gap(g) => p.note_gap(g.dimm),
        }
    }

    /// [`OnlinePredictor::finish`], ticking through [`legacy_tick`].
    fn legacy_finish(p: &mut OnlinePredictor<'_>, until: SimTime) {
        while p.next_tick <= until {
            let tick = p.next_tick;
            legacy_tick(p, tick);
            p.next_tick += p.cfg.prediction_interval;
        }
    }

    /// Every `online_*` counter of `reg`, by series.
    fn online_counters(reg: &mfp_obs::Registry) -> Vec<(String, u64)> {
        reg.snapshot()
            .counters
            .into_iter()
            .filter(|c| c.name.starts_with("online_"))
            .map(|c| (mfp_obs::series_name(&c.name, &c.labels), c.value))
            .collect()
    }

    /// The one-pass tick equals the per-DIMM oracle on random streams of
    /// risky and benign CEs over five DIMMs, one of them unknown to the
    /// catalog: with degraded grace 0, 6 h and 1 d, silences that empty
    /// the observation window, collection gaps, cooldowns short enough to
    /// suppress repeat alarms, and DIMMs re-registered with the other
    /// device width between ticks. Scores match by `to_bits`; alarms,
    /// streaks, cooldowns, cached rows and every `online_*` counter are
    /// equal.
    #[test]
    fn one_pass_tick_matches_the_per_dimm_oracle() {
        let graces = [
            SimDuration::ZERO,
            SimDuration::hours(6),
            SimDuration::days(1),
        ];
        let watched = [
            "online_degraded_scores",
            "online_cooldown_suppressed",
            "online_gap_streak_resets",
            "online_streaks_reset",
        ];
        let mut exercised = [0u64; 4];
        let mut rewidened = 0;
        for case in 0..96u64 {
            let mut rng = mfp_rng::StdRng::seed_from_u64(case);
            let lake = DataLake::new();
            let registry = ModelRegistry::new();
            setup(&lake, &registry);
            let dimms: Vec<DimmId> = (1..5).map(|s| DimmId::new(s, 0)).collect();
            for &d in &dimms[1..] {
                lake.register_dimm(d, Platform::IntelPurley, DimmSpec::default());
            }
            let cfg = OnlineConfig {
                degraded_grace: graces[case as usize % 3],
                alarm_cooldown: SimDuration::days(rng.random_range(1u64..4)),
                ..OnlineConfig::default()
            };
            let problem = ProblemConfig {
                observation: SimDuration::hours(rng.random_range(4u64..72)),
                ..ProblemConfig::default()
            };
            let th = FaultThresholds::default();
            let (store, old_store) = (
                FeatureStore::new(problem, th),
                FeatureStore::new(problem, th),
            );
            let (reg, old_reg) = (mfp_obs::Registry::new(), mfp_obs::Registry::new());
            let predictor = |store| {
                let mut p =
                    OnlinePredictor::new(&lake, store, &registry, Platform::IntelPurley, cfg);
                p.set_score_trace(true);
                p
            };
            let mut new = mfp_obs::with_registry(&reg, || predictor(&store));
            let mut old = mfp_obs::with_registry(&old_reg, || predictor(&old_store));
            let mut t = 0u64;
            for _ in 0..rng.random_range(20..150) {
                t += if rng.random_range(0..8) == 0 {
                    rng.random_range(86_400u64..4 * 86_400)
                } else {
                    rng.random_range(60u64..10_000)
                };
                let dimm = dimms[rng.random_range(0..dimms.len())];
                let out = match rng.random_range(0..20) {
                    0 => IngestOutput::Gap(crate::ingest::GapRecord {
                        dimm,
                        from: SimTime::from_secs(t / 2),
                        to: SimTime::from_secs(t),
                    }),
                    1 => {
                        let (platform, spec) = lake.dimm_info(dimm).expect("catalogued");
                        let width = match spec.width {
                            DataWidth::X4 => DataWidth::X8,
                            DataWidth::X8 => DataWidth::X4,
                        };
                        lake.register_dimm(dimm, platform, DimmSpec { width, ..spec });
                        rewidened += 1;
                        continue;
                    }
                    2 => IngestOutput::Released(risky_ce(t, DimmId::new(9, 0), true)),
                    _ => IngestOutput::Released(risky_ce(t, dimm, rng.random_range(0..3) > 0)),
                };
                assert!(new.apply(&out), "case {case}: the stream is time-ordered");
                legacy_apply(&mut old, &out);
            }
            let end = SimTime::from_secs(t) + SimDuration::days(3);
            new.finish(end);
            legacy_finish(&mut old, end);

            let bits = |r: &ScoreRecord| (r.time, r.dimm, r.score.to_bits());
            let got: Vec<_> = new.score_trace().iter().map(bits).collect();
            let want: Vec<_> = old.score_trace().iter().map(bits).collect();
            assert_eq!(got, want, "case {case}: score trace");
            let bits = |a: &Alarm| (a.time, a.dimm, a.score.to_bits());
            let got: Vec<_> = new.alarms().iter().map(bits).collect();
            let want: Vec<_> = old.alarms().iter().map(bits).collect();
            assert_eq!(got, want, "case {case}: alarms");
            assert_eq!(new.streaks, old.streaks, "case {case}: streaks");
            assert_eq!(new.last_alarm, old.last_alarm, "case {case}: cooldowns");
            let rows = |p: &OnlinePredictor<'_>| -> Vec<(DimmId, SimTime, Vec<u32>)> {
                p.last_good
                    .iter()
                    .map(|(d, (t, row))| (*d, *t, row.iter().map(|x| x.to_bits()).collect()))
                    .collect()
            };
            assert_eq!(rows(&new), rows(&old), "case {case}: last_good");
            assert_eq!(new.scored(), old.scored(), "case {case}: scored");
            assert_eq!(new.watermark(), old.watermark());
            let counters = online_counters(&reg);
            assert_eq!(counters, online_counters(&old_reg), "case {case}");
            let snapshot = reg.snapshot();
            for (n, name) in watched.iter().enumerate() {
                exercised[n] += snapshot.counter(name);
            }
        }
        for (name, total) in watched.iter().zip(exercised) {
            assert!(total > 0, "no case incremented {name}");
        }
        assert!(rewidened > 0, "no case re-registered a DIMM");
    }

    #[test]
    fn no_production_model_means_no_alarms() {
        let lake = DataLake::new();
        let registry = ModelRegistry::new(); // nothing promoted
        lake.register_dimm(
            DimmId::new(1, 0),
            Platform::IntelPurley,
            DimmSpec::default(),
        );
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut p = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        for k in 0..10u64 {
            p.observe(&risky_ce(k * 7200, DimmId::new(1, 0), true));
        }
        p.finish(SimTime::from_secs(86_400));
        assert!(p.alarms().is_empty());
        assert_eq!(p.scored(), 0);
    }
}
