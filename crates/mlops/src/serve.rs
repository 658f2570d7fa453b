//! Sharded, pipelined online serving: fleet-scale prediction with the
//! single-predictor determinism contract intact.
//!
//! [`OnlinePredictor`] folds one platform's event stream sequentially;
//! at a million DIMMs that single fold is wall-clock-bound while every
//! DIMM's state — vote streak, cooldown entry, degraded cache, rolling
//! feature window — is independent of every other DIMM's. This module
//! partitions that state by a **stable DIMM hash** ([`shard_of`]) into
//! `shards` sub-predictors, each owning its own [`FeatureStore`], and
//! drives them as a backpressured pipeline on a scoped worker pool
//! ([`serve_pipeline`]): ingest → validate → route → score → alarm, with
//! bounded channels at every hand-off. The durable engine
//! (`crate::wal::ShardedDurable`) routes with the same hash.
//!
//! # Determinism argument
//!
//! The engine inherits the bar set by `mfp_sim::sharded`: for a fixed
//! event stream the alarms **and scores** are bit-identical to the
//! sequential [`OnlinePredictor`] at any shard/worker count.
//!
//! * **Routing** is a pure function of the DIMM id ([`shard_of`], a
//!   SplitMix64 finalizer over `(server, slot)`): no load balancing, no
//!   arrival-order dependence, so a DIMM lives in exactly one shard for
//!   the lifetime of the deployment.
//! * **Per-DIMM state is closed under sharding.** A prediction tick at
//!   time `T` scores a DIMM from its own rolling window (events `< T`)
//!   and its own streak/cooldown entries only; `observe` runs every due
//!   tick *before* ingesting the event that crossed it, so a shard
//!   seeing the time-ordered subsequence of its own DIMMs executes each
//!   tick against exactly the state the sequential fold would have had.
//! * **Merge order.** Within one tick the sequential predictor walks
//!   candidates in ascending `DimmId` order, so its alarm (and score)
//!   log is sorted by `(time, dimm_id)` — and per-event `seq` never ties
//!   because one tick scores a DIMM at most once. Each shard's log is
//!   sorted by the same key, the key is total across shards (a DIMM has
//!   one home), so merging shard logs by `(time, dimm_id)` reproduces
//!   the sequential log exactly.
//! * **Workers are grouping only.** Shard `s` is pinned to worker
//!   `s % workers` and each worker channel is FIFO, so per-shard event
//!   order equals release order regardless of worker count.
//!
//! The contract assumes the input stream is time-ordered per DIMM — the
//! order [`Ingestor`](crate::ingest::Ingestor) releases. [`serve_pipeline`]
//! enforces this by construction (the router consumes `ingest_bounded`).
//!
//! # Backpressure
//!
//! Producer → ingest and router → worker hops are all
//! `sync_channel(channel_capacity)` of `batch`-sized chunks: a slow
//! scorer blocks the router, a blocked router blocks the producer, and
//! peak resident state is `O(workers × batch × capacity)` events on top
//! of the per-shard windows — fleet size never enters the bound.

use crate::feature_store::FeatureStore;
use crate::ingest::{ingest_bounded, IngestConfig, IngestOutput, IngestStats};
use crate::lake::DataLake;
use crate::online::{Alarm, OnlineConfig, OnlinePredictor, ScoreRecord};
use crate::registry::ModelRegistry;
use mfp_dram::address::DimmId;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::time::SimTime;
use mfp_features::fault_analysis::FaultThresholds;
use mfp_features::labeling::ProblemConfig;
use std::collections::BTreeMap;
use std::sync::mpsc::sync_channel;
use std::time::Instant;

/// Stable shard assignment: a SplitMix64 finalizer over the DIMM's
/// `(server, slot)` coordinates, reduced mod `shards`. Pure — no state,
/// no arrival order — so the fleet partition is a function of identity
/// alone and survives restarts and resharding-free redeploys.
pub fn shard_of(dimm: DimmId, shards: usize) -> usize {
    let raw = ((dimm.server.0 as u64) << 8) | dimm.slot as u64;
    (mfp_rng::splitmix64(raw) % shards.max(1) as u64) as usize
}

/// Routes one normalized ingest output to its home shard: the DIMM the
/// output concerns, through [`shard_of`]. Gap notices follow the DIMM
/// they describe so streak resets land on the shard that scores it.
pub fn shard_route(out: &crate::ingest::IngestOutput, shards: usize) -> usize {
    match out {
        crate::ingest::IngestOutput::Released(e) => shard_of(e.dimm(), shards),
        crate::ingest::IngestOutput::Gap(g) => shard_of(g.dimm, shards),
    }
}

/// Builds one [`FeatureStore`] per shard with identical configuration.
/// The slice outlives the engine (predictors borrow their stores), so
/// callers hold it and pass `&stores` to
/// [`ShardedDurable::open`](crate::wal::ShardedDurable::open). Zero
/// shards build zero stores, which every engine refuses with
/// [`WalError::ZeroShards`](crate::wal::WalError::ZeroShards).
pub fn make_stores(
    shards: usize,
    problem: ProblemConfig,
    thresholds: FaultThresholds,
) -> Vec<FeatureStore> {
    (0..shards)
        .map(|_| FeatureStore::new(problem, thresholds))
        .collect()
}

/// Execution knobs of the serving pipeline. Mirroring
/// `mfp_sim::sharded::ShardConfig`: none of them affect alarms or
/// scores, only throughput and memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Predictor partitions (clamped to at least 1).
    pub shards: usize,
    /// Scoring threads (clamped to `1..=shards`); shard `s` is pinned to
    /// worker `s % workers`.
    pub workers: usize,
    /// Batches each bounded hand-off channel may hold before the sender
    /// blocks (clamped to at least 1).
    pub channel_capacity: usize,
    /// Events per routed batch (clamped to at least 1).
    pub batch: usize,
    /// Per-shard predictor configuration.
    pub online: OnlineConfig,
    /// Record every model invocation into [`ServeOutcome::scores`]
    /// (unbounded memory — testing/verification only).
    pub record_scores: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            channel_capacity: 4,
            batch: 256,
            online: OnlineConfig::default(),
            record_scores: false,
        }
    }
}

impl ServeConfig {
    /// A config with `shards` shards and `workers` workers.
    pub fn new(shards: usize, workers: usize) -> Self {
        ServeConfig {
            shards,
            workers,
            ..ServeConfig::default()
        }
    }
}

/// A non-fatal serving fault: the pipeline degrades (drops the affected
/// work, keeps the pool running) and reports it in
/// [`ServeOutcome::errors`] instead of aborting a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// A routed item landed on a worker that does not own its home
    /// shard — a router/worker disagreement that previously panicked
    /// with `expect("routed to home worker")`. The item is dropped.
    Misrouted {
        /// The item's DIMM.
        dimm: DimmId,
        /// The shard the receiving worker computed.
        shard: usize,
        /// The worker that received the item.
        worker: usize,
    },
    /// The shard owning a DIMM exhausted its restart budget and is out
    /// of the merge: its DIMMs degrade to this error instead of wedging
    /// or silently vanishing from fleet-wide results (see
    /// `crate::supervise::SupervisedOutcome::dimm_status`).
    ShardUnavailable {
        /// The failed shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Misrouted { dimm, shard, worker } => write!(
                f,
                "event for dimm {dimm:?} (shard {shard}) reached worker {worker}, which does not own it"
            ),
            ServeError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is past its restart budget and unavailable")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-shard serving telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardServeStats {
    /// Shard index, `0..shards`.
    pub shard: usize,
    /// Events routed to this shard.
    pub events: u64,
    /// Model invocations this shard ran.
    pub scored: u64,
    /// Alarms this shard raised.
    pub alarms: u64,
    /// Stale events this shard rejected.
    pub stale_rejected: u64,
}

/// Whole-pipeline execution telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Effective shard count.
    pub shards: usize,
    /// Effective worker count (≤ shards).
    pub workers: usize,
    /// Events the router forwarded to shards.
    pub events_routed: u64,
    /// Collection holes the router forwarded.
    pub gaps_routed: u64,
    /// Median per-event `observe` latency in seconds (histogram bucket
    /// upper bound).
    pub p50_score_secs: f64,
    /// 99th-percentile per-event `observe` latency in seconds.
    pub p99_score_secs: f64,
    /// Per-shard breakdown, ordered by shard index.
    pub per_shard: Vec<ShardServeStats>,
}

/// Result of a pipelined serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Alarms merged by `(time, dimm)` — the sequential alarm log.
    pub alarms: Vec<Alarm>,
    /// Scores merged by `(time, dimm)` (empty unless
    /// [`ServeConfig::record_scores`]).
    pub scores: Vec<ScoreRecord>,
    /// Total model invocations.
    pub scored: u64,
    /// Total stale rejections (zero for ingestor-released streams).
    pub stale_rejected: u64,
    /// The ingestor's lifetime counters.
    pub ingest: IngestStats,
    /// Execution statistics.
    pub stats: ServeStats,
    /// Non-fatal faults the pipeline degraded through (misroutes),
    /// ordered by shard. Empty on a healthy run.
    pub errors: Vec<ServeError>,
}

/// Histogram bounds for per-event serving latency: 10 ns to 178 ms,
/// four buckets per decade. `default_latency_buckets` bottoms out at
/// 1 µs, above a typical `observe` call, so the serving path uses this
/// finer grid.
pub fn score_latency_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(30);
    let mut decade = 1e-8;
    while decade < 0.15 {
        for mantissa in [1.0, 1.78, 3.16, 5.62] {
            bounds.push(decade * mantissa);
        }
        decade *= 10.0;
    }
    bounds
}

/// One shard's final state, handed back by its worker.
struct ShardResult {
    shard: usize,
    alarms: Vec<Alarm>,
    scores: Vec<ScoreRecord>,
    events: u64,
    scored: u64,
    stale_rejected: u64,
    errors: Vec<ServeError>,
}

/// Runs the full pipelined dataflow: `producer` (own thread) →
/// [`ingest_bounded`] (validate/dedup/re-sequence, calling thread) →
/// hash router → `workers` scoring threads owning `shards`
/// [`OnlinePredictor`]s → deterministic `(time, dimm)` merge.
///
/// Alarms (and scores, when recorded) are bit-identical to feeding the
/// same released stream through one sequential [`OnlinePredictor`],
/// at any shard/worker count — see the module docs for the argument.
/// Like the sequential predictor, the engine serves a single platform:
/// route other platforms' events to their own pipeline.
///
/// # Examples
///
/// ```
/// use mfp_mlops::prelude::*;
/// use mfp_dram::geometry::Platform;
/// use mfp_dram::time::SimTime;
/// use mfp_features::fault_analysis::FaultThresholds;
/// use mfp_features::labeling::ProblemConfig;
/// use mfp_mlops::serve::{serve_pipeline, ServeConfig};
///
/// let lake = DataLake::new();
/// let registry = ModelRegistry::new(); // nothing promoted: no alarms
/// let outcome = serve_pipeline(
///     &lake,
///     &registry,
///     Platform::IntelPurley,
///     ProblemConfig::default(),
///     FaultThresholds::default(),
///     IngestConfig::default(),
///     &ServeConfig::new(4, 2),
///     SimTime::from_secs(86_400),
///     |_emit| {},
/// );
/// assert!(outcome.alarms.is_empty());
/// assert_eq!(outcome.stats.shards, 4);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn serve_pipeline<P>(
    lake: &DataLake,
    registry: &ModelRegistry,
    platform: Platform,
    problem: ProblemConfig,
    thresholds: FaultThresholds,
    icfg: IngestConfig,
    scfg: &ServeConfig,
    end: SimTime,
    producer: P,
) -> ServeOutcome
where
    P: FnOnce(&mut dyn FnMut(MemEvent)) + Send,
{
    let span = mfp_obs::latency("serve_pipeline_seconds", &[]).time();
    let shards = scfg.shards.max(1);
    let workers = scfg.workers.clamp(1, shards);
    let capacity = scfg.channel_capacity.max(1);
    let batch = scfg.batch.max(1);
    let stores = make_stores(shards, problem, thresholds);
    let bounds = score_latency_bounds();
    // One detached histogram feeds the outcome's p50/p99; the global
    // series mirrors it for dashboards.
    let latency = mfp_obs::Histogram::new(&bounds);
    let global_latency = mfp_obs::histogram("serve_score_seconds", &[], &bounds);
    let routed_counter = mfp_obs::counter("serve_events_routed", &[]);
    let gap_counter = mfp_obs::counter("serve_gaps_routed", &[]);

    let (result_tx, result_rx) = std::sync::mpsc::channel::<ShardResult>();
    let mut ingest_stats = IngestStats::default();
    let mut events_routed = 0u64;
    let mut gaps_routed = 0u64;
    // Workers record where the caller does (its `with_registry` scope,
    // else the global registry).
    let telemetry = mfp_obs::current();
    std::thread::scope(|s| {
        let mut worker_txs = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = sync_channel::<Vec<IngestOutput>>(capacity);
            worker_txs.push(tx);
            let result_tx = result_tx.clone();
            let stores = &stores;
            let latency = latency.clone();
            let global_latency = global_latency.clone();
            let online = scfg.online;
            let record_scores = scfg.record_scores;
            let telemetry = &telemetry;
            s.spawn(move || {
                mfp_obs::with_registry(telemetry, || {
                    // Predictors are built in-thread: shard state never
                    // crosses a thread boundary while live.
                    let mut preds: BTreeMap<usize, (OnlinePredictor<'_>, u64)> = (0..shards)
                        .filter(|shard| shard % workers == w)
                        .map(|shard| {
                            let mut p = OnlinePredictor::new(
                                lake,
                                &stores[shard],
                                registry,
                                platform,
                                online,
                            );
                            p.set_score_trace(record_scores);
                            (shard, (p, 0u64))
                        })
                        .collect();
                    let mut errors: Vec<ServeError> = Vec::new();
                    for chunk in rx {
                        for item in chunk {
                            let shard = shard_of(item.dimm(), shards);
                            // A misroute means router and worker disagree on
                            // the hash — drop the item and report, rather
                            // than panicking the whole scoring pool.
                            let Some((pred, events)) = preds.get_mut(&shard) else {
                                errors.push(ServeError::Misrouted {
                                    dimm: item.dimm(),
                                    shard,
                                    worker: w,
                                });
                                continue;
                            };
                            match item {
                                IngestOutput::Released(e) => {
                                    let start = Instant::now();
                                    pred.observe(&e);
                                    let secs = start.elapsed().as_secs_f64();
                                    latency.record(secs);
                                    global_latency.record(secs);
                                    *events += 1;
                                }
                                IngestOutput::Gap(_) => {
                                    pred.apply(&item);
                                }
                            }
                        }
                    }
                    let mut errors = Some(errors);
                    for (shard, (mut pred, events)) in preds {
                        pred.finish(end);
                        let _ = result_tx.send(ShardResult {
                            shard,
                            scores: pred.trace.take().unwrap_or_default(),
                            scored: pred.scored(),
                            stale_rejected: pred.stale_rejected(),
                            alarms: std::mem::take(&mut pred.alarms),
                            events,
                            // The worker's accumulated faults ride its first
                            // shard result.
                            errors: errors.take().unwrap_or_default(),
                        });
                    }
                })
            });
        }
        drop(result_tx);

        // Router (calling thread): consume the hardened release stream,
        // batch per worker, block when a worker's channel is full.
        let mut buffers: Vec<Vec<IngestOutput>> = vec![Vec::with_capacity(batch); workers];
        ingest_stats = ingest_bounded(lake, icfg, capacity, batch, producer, |item| {
            match item {
                IngestOutput::Released(_) => events_routed += 1,
                IngestOutput::Gap(_) => gaps_routed += 1,
            }
            let w = shard_of(item.dimm(), shards) % workers;
            buffers[w].push(item);
            if buffers[w].len() >= batch {
                let full = std::mem::replace(&mut buffers[w], Vec::with_capacity(batch));
                let _ = worker_txs[w].send(full);
            }
        });
        for (w, buf) in buffers.into_iter().enumerate() {
            if !buf.is_empty() {
                let _ = worker_txs[w].send(buf);
            }
        }
        drop(worker_txs);
    });
    routed_counter.add(events_routed);
    gap_counter.add(gaps_routed);

    let mut results: Vec<ShardResult> = result_rx.into_iter().collect();
    results.sort_by_key(|r| r.shard);
    let mut alarms: Vec<Alarm> = results
        .iter()
        .flat_map(|r| r.alarms.iter().copied())
        .collect();
    alarms.sort_by_key(|a| (a.time, a.dimm));
    let mut scores: Vec<ScoreRecord> = results
        .iter()
        .flat_map(|r| r.scores.iter().copied())
        .collect();
    scores.sort_by_key(|r| (r.time, r.dimm));
    let errors: Vec<ServeError> = results
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.errors))
        .collect();
    if !errors.is_empty() {
        mfp_obs::counter("serve_errors", &[]).add(errors.len() as u64);
    }
    let per_shard: Vec<ShardServeStats> = results
        .iter()
        .map(|r| ShardServeStats {
            shard: r.shard,
            events: r.events,
            scored: r.scored,
            alarms: r.alarms.len() as u64,
            stale_rejected: r.stale_rejected,
        })
        .collect();
    let outcome = ServeOutcome {
        scored: results.iter().map(|r| r.scored).sum(),
        stale_rejected: results.iter().map(|r| r.stale_rejected).sum(),
        alarms,
        scores,
        ingest: ingest_stats,
        stats: ServeStats {
            shards,
            workers,
            events_routed,
            gaps_routed,
            p50_score_secs: latency.quantile(0.5),
            p99_score_secs: latency.quantile(0.99),
            per_shard,
        },
        errors,
    };
    mfp_obs::counter("serve_pipeline_runs", &[]).incr();
    mfp_obs::counter("serve_alarms_merged", &[]).add(outcome.alarms.len() as u64);
    span.stop();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature_store::FeatureStore;
    use crate::procserve::ModelSpec;
    use mfp_dram::address::CellAddr;
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::CeEvent;
    use mfp_dram::spec::DimmSpec;
    use mfp_dram::time::SimDuration;

    const NDIMMS: u32 = 12;

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

    fn setup(lake: &DataLake) -> Vec<DimmId> {
        let dimms: Vec<DimmId> = (0..NDIMMS).map(|k| DimmId::new(k, (k % 2) as u8)).collect();
        for &id in &dimms {
            lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        }
        dimms
    }

    /// A multi-DIMM stream where risky DIMMs alarm and benign ones never
    /// do; strictly increasing timestamps.
    fn stream(dimms: &[DimmId]) -> Vec<MemEvent> {
        (0..30 * dimms.len() as u64)
            .map(|k| {
                let d = dimms[(k % dimms.len() as u64) as usize];
                // Half the fleet carries the risky signature.
                risky_ce(1_000 + k * 1_800, d, d.server.0.is_multiple_of(2))
            })
            .collect()
    }

    fn sequential_oracle(
        lake: &DataLake,
        registry: &ModelRegistry,
        events: &[MemEvent],
        cfg: OnlineConfig,
        end: SimTime,
    ) -> (Vec<Alarm>, Vec<ScoreRecord>, u64) {
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut p = OnlinePredictor::new(lake, &store, registry, Platform::IntelPurley, cfg);
        p.set_score_trace(true);
        for e in events {
            p.observe(e);
        }
        p.finish(end);
        (p.alarms().to_vec(), p.score_trace().to_vec(), p.scored())
    }

    #[test]
    fn shard_of_is_stable_and_in_bounds() {
        for server in 0..200u32 {
            for slot in 0..4u8 {
                let d = DimmId::new(server, slot);
                for shards in [1usize, 2, 3, 8, 64] {
                    let s = shard_of(d, shards);
                    assert!(s < shards);
                    assert_eq!(s, shard_of(d, shards), "routing must be pure");
                }
            }
        }
        assert_eq!(shard_of(DimmId::new(1, 0), 0), 0, "zero shards clamps");
    }

    #[test]
    fn shard_of_spreads_a_fleet() {
        let shards = 8usize;
        let mut counts = vec![0u32; shards];
        for server in 0..4_000u32 {
            counts[shard_of(DimmId::new(server, 0), shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 300,
                "shard {s} got {c} of 4000 DIMMs — hash is badly skewed"
            );
        }
    }

    #[test]
    fn pipeline_matches_sequential_across_the_worker_matrix() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let events = stream(&dimms);
        let end =
            SimTime::from_secs(events.last().unwrap().time().as_secs()) + SimDuration::days(2);
        let cfg = OnlineConfig {
            degraded_grace: SimDuration::hours(12),
            ..OnlineConfig::default()
        };
        let (alarms, scores, scored) = sequential_oracle(&lake, &registry, &events, cfg, end);
        assert!(
            !alarms.is_empty(),
            "stream must alarm or the test is vacuous"
        );

        for (shards, workers) in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (4, 4), (8, 3)] {
            let scfg = ServeConfig {
                record_scores: true,
                online: cfg,
                batch: 7, // deliberately odd: exercise partial batches
                ..ServeConfig::new(shards, workers)
            };
            let outcome = serve_pipeline(
                &lake,
                &registry,
                Platform::IntelPurley,
                ProblemConfig::default(),
                FaultThresholds::default(),
                IngestConfig::default(),
                &scfg,
                end,
                |emit| {
                    for e in &events {
                        emit(*e);
                    }
                },
            );
            assert_eq!(
                outcome.alarms, alarms,
                "alarms diverged at {shards} shards / {workers} workers"
            );
            assert_eq!(
                outcome.scores, scores,
                "scores diverged at {shards} shards / {workers} workers"
            );
            assert_eq!(outcome.scored, scored);
            assert_eq!(outcome.stale_rejected, 0);
            assert!(
                outcome.errors.is_empty(),
                "healthy run must report no faults"
            );
            assert_eq!(outcome.ingest.released, events.len() as u64);
            assert_eq!(outcome.stats.events_routed, events.len() as u64);
            assert_eq!(outcome.stats.shards, shards);
            assert_eq!(outcome.stats.workers, workers.min(shards));
            assert_eq!(outcome.stats.per_shard.len(), shards);
            assert_eq!(
                outcome
                    .stats
                    .per_shard
                    .iter()
                    .map(|s| s.events)
                    .sum::<u64>(),
                events.len() as u64
            );
            assert_eq!(
                outcome
                    .stats
                    .per_shard
                    .iter()
                    .map(|s| s.scored)
                    .sum::<u64>(),
                scored
            );
        }
    }

    #[test]
    fn pipeline_workers_record_into_the_callers_registry() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let events = stream(&dimms);
        let end =
            SimTime::from_secs(events.last().unwrap().time().as_secs()) + SimDuration::days(2);
        let reg = mfp_obs::Registry::new();
        let outcome = mfp_obs::with_registry(&reg, || {
            serve_pipeline(
                &lake,
                &registry,
                Platform::IntelPurley,
                ProblemConfig::default(),
                FaultThresholds::default(),
                IngestConfig::default(),
                &ServeConfig::new(4, 2),
                end,
                |emit| {
                    for e in &events {
                        emit(*e);
                    }
                },
            )
        });
        assert!(outcome.scored > 0, "the stream must score to bite");
        let snap = reg.snapshot();
        // The workers' predictors count every score in the caller's scope.
        assert_eq!(snap.counter("online_scores"), outcome.scored);
        assert_eq!(snap.counter("online_alarms"), outcome.alarms.len() as u64);
        assert_eq!(snap.counter("serve_events_routed"), events.len() as u64);
    }

    #[test]
    fn pipeline_routes_gaps_to_the_home_shard() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        // Sparse risky stream with a long per-DIMM hole in the middle.
        let mut events: Vec<MemEvent> = Vec::new();
        for k in 0..8u64 {
            for &d in &dimms[..4] {
                events.push(risky_ce(10_000 + k * 3_600, d, true));
            }
        }
        for k in 0..8u64 {
            for &d in &dimms[..4] {
                events.push(risky_ce(2_000_000 + k * 3_600, d, true));
            }
        }
        events.sort_by_key(|e| e.time());
        let end = SimTime::from_secs(2_200_000);
        let icfg = IngestConfig {
            gap_threshold: Some(SimDuration::days(7)),
            ..IngestConfig::default()
        };

        // Oracle: sequential predictor fed through the same bounded
        // ingest, gaps forwarded in release order.
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut oracle = OnlinePredictor::new(
            &lake,
            &store,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        let stats = ingest_bounded(
            &lake,
            icfg,
            4,
            16,
            |emit| {
                for e in &events {
                    emit(*e);
                }
            },
            |out| {
                oracle.apply(&out);
            },
        );
        oracle.finish(end);
        assert!(stats.gaps > 0, "the stream must contain a detectable hole");

        let outcome = serve_pipeline(
            &lake,
            &registry,
            Platform::IntelPurley,
            ProblemConfig::default(),
            FaultThresholds::default(),
            icfg,
            &ServeConfig::new(4, 2),
            end,
            |emit| {
                for e in &events {
                    emit(*e);
                }
            },
        );
        assert_eq!(outcome.alarms, oracle.alarms());
        assert_eq!(outcome.stats.gaps_routed, stats.gaps);
        assert_eq!(outcome.ingest.gaps, stats.gaps);
    }

    #[test]
    fn latency_stats_are_populated() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let events = stream(&dimms);
        let end = SimTime::from_secs(events.last().unwrap().time().as_secs());
        let outcome = serve_pipeline(
            &lake,
            &registry,
            Platform::IntelPurley,
            ProblemConfig::default(),
            FaultThresholds::default(),
            IngestConfig::default(),
            &ServeConfig::new(2, 2),
            end,
            |emit| {
                for e in &events {
                    emit(*e);
                }
            },
        );
        assert!(outcome.stats.p50_score_secs > 0.0);
        assert!(outcome.stats.p99_score_secs >= outcome.stats.p50_score_secs);
        let bounds = score_latency_bounds();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
    }

    #[test]
    fn serve_errors_describe_the_fault() {
        let misroute = ServeError::Misrouted {
            dimm: DimmId::new(7, 1),
            shard: 3,
            worker: 0,
        };
        let text = misroute.to_string();
        assert!(
            text.contains("shard 3") && text.contains("worker 0"),
            "{text}"
        );
    }
}
