//! Sharded fleet simulation: fleet-scale runs on a worker pool with a
//! deterministic k-way merge.
//!
//! The paper's findings are statistics over ~250k production servers; at
//! that scale a single merged [`BmcLog`] pass is wall-clock-bound. This
//! module partitions the planned fleet into `shards` contiguous
//! sub-fleets, simulates them on a pool of `workers` threads, and k-way
//! merges the per-shard event streams by `(time, dimm_id, seq)` into a
//! single stream that is **bit-identical to the sequential simulator and
//! invariant to both shard count and worker count**.
//!
//! # Determinism scheme
//!
//! Every DIMM's RNG stream is seeded by SplitMix64 from
//! `(master_seed, platform_index, dimm_index)` — stable *plan
//! coordinates* fixed during the sequential planning phase
//! ([`plan_fleet`](crate::fleet)), before any shard or worker exists.
//! Worker identity and shard identity never enter the derivation, so the
//! set of generated events is a pure function of the [`FleetConfig`].
//! (A naive "seed per shard, stream within shard" scheme would make the
//! events themselves depend on the shard count; deriving per-DIMM
//! streams from plan coordinates is what lets the shard count be a pure
//! execution detail.)
//!
//! # Merge ordering key
//!
//! The sequential oracle orders events by a stable time sort over
//! plan-major push order. Because every plan owns a distinct, strictly
//! increasing server id, that order is exactly `(time, dimm_id,
//! within-DIMM push sequence)`. Each shard stable-sorts its own events
//! by `(time, dimm_id)` (preserving within-DIMM push order for ties) and
//! the k-way merge compares `(time, dimm_id)` across shard heads — a
//! DIMM lives in exactly one shard, so the composite key is total.
//!
//! # Memory bound
//!
//! Shard outputs travel over a *bounded* channel
//! ([`ShardConfig::channel_capacity`]): a worker that finishes a shard
//! blocks until the merger takes it, so at most
//! `workers + channel_capacity` completed shard buffers are resident on
//! top of the merge frontier. The merged stream itself never
//! materializes: [`ShardedFleet::run_stream`] hands each event to the
//! sink and drops it, so downstream consumers (e.g. the MLOps ingestor)
//! see constant memory regardless of fleet size, and each shard buffer
//! is freed as soon as the merge drains it.

use crate::config::FleetConfig;
use crate::dimm::{simulate_dimm_ras, StormPolicy};
use crate::fleet::{plan_fleet, DimmTruth, FleetResult, PlannedDimm};
use mfp_dram::address::DimmId;
use mfp_dram::bmc::BmcLog;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::Platform;
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::SimTime;
use mfp_ecc::platforms::CachedPlatformEcc;
use mfp_rng::StdRng;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

/// Execution knobs of a sharded run. None of them affect the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of fleet partitions (clamped to at least 1). More shards
    /// mean smaller per-shard buffers and better load balance.
    pub shards: usize,
    /// Worker threads simulating shards (clamped to at least 1).
    pub workers: usize,
    /// Completed shard outputs the bounded channel may hold before
    /// producers block (clamped to at least 1); the peak resident set is
    /// `workers + channel_capacity` shard buffers.
    pub channel_capacity: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            channel_capacity: 2,
        }
    }
}

impl ShardConfig {
    /// A config with `shards` shards and `workers` workers.
    pub fn new(shards: usize, workers: usize) -> Self {
        ShardConfig {
            shards,
            workers,
            ..ShardConfig::default()
        }
    }
}

/// Per-shard execution telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Shard index, `0..shards`.
    pub shard: usize,
    /// DIMMs simulated by this shard.
    pub dimms: usize,
    /// Events the shard emitted.
    pub events: u64,
    /// Wall-clock seconds the shard's simulation took.
    pub wall_secs: f64,
}

/// Whole-run execution telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedStats {
    /// Effective shard count (≤ requested: empty trailing shards are
    /// never created).
    pub shards: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Events emitted by the merged stream.
    pub merged_events: u64,
    /// High-water mark of completed shard outputs queued for the merger
    /// (bounded by `channel_capacity + workers`).
    pub max_queue_depth: usize,
    /// Per-shard breakdown, ordered by shard index.
    pub per_shard: Vec<ShardStats>,
}

/// Result of a streamed sharded run: everything except the event stream
/// itself, which went to the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Ground truth per DIMM, in plan (= generation) order — identical
    /// to [`FleetResult::dimms`] of a sequential run.
    pub dimms: Vec<DimmTruth>,
    /// Execution statistics.
    pub stats: ShardedStats,
}

/// A planned fleet ready for sharded execution.
///
/// Planning (phase 1) is sequential and cheap; it fixes every DIMM's
/// identity, spec, faults and RNG seed. The plan can be inspected (e.g.
/// to register the DIMM catalog with a data lake *before* events start
/// flowing) and then executed with any [`ShardConfig`].
#[derive(Debug, Clone)]
pub struct ShardedFleet {
    cfg: FleetConfig,
    plans: Vec<PlannedDimm>,
}

/// One shard's finished output, sent over the bounded channel.
struct ShardOutput {
    shard: usize,
    events: Vec<MemEvent>,
    truths: Vec<DimmTruth>,
    stats: ShardStats,
}

/// Head of one shard's stream inside the merge heap. Ordered as a
/// *max*-heap entry, so comparisons are reversed to pop the minimum
/// `(time, dimm, shard)` first.
struct MergeHead {
    time: SimTime,
    dimm: DimmId,
    shard: usize,
    event: MemEvent,
}

impl MergeHead {
    fn key(&self) -> (SimTime, DimmId, usize) {
        (self.time, self.dimm, self.shard)
    }
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for MergeHead {}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.key().cmp(&self.key())
    }
}

impl ShardedFleet {
    /// Runs the (sequential, deterministic) planning phase.
    pub fn plan(cfg: &FleetConfig) -> Self {
        ShardedFleet {
            cfg: cfg.clone(),
            plans: plan_fleet(cfg),
        }
    }

    /// Number of DIMMs the fleet will simulate.
    pub fn dimm_count(&self) -> usize {
        self.plans.len()
    }

    /// The fleet's DIMM catalog, known before any event is simulated —
    /// callers use this to pre-register DIMMs with downstream stores.
    pub fn catalog(&self) -> impl Iterator<Item = (DimmId, Platform, DimmSpec)> + '_ {
        self.plans
            .iter()
            .map(|(p, plan, _)| (plan.id, *p, plan.spec))
    }

    /// Simulates the fleet on `scfg.workers` threads across `scfg.shards`
    /// partitions, handing the merged, time-ordered event stream to
    /// `sink` one event at a time.
    ///
    /// The stream is bit-identical to
    /// [`simulate_fleet`](crate::fleet::simulate_fleet) for the same
    /// `FleetConfig`, whatever the shard and worker counts.
    pub fn run_stream<F: FnMut(MemEvent)>(
        &self,
        scfg: &ShardConfig,
        mut sink: F,
    ) -> ShardedOutcome {
        let span = mfp_obs::latency("sim_sharded_seconds", &[]).time();
        let shards = scfg.shards.max(1);
        let workers = scfg.workers.max(1);
        let capacity = scfg.channel_capacity.max(1);
        let storm = StormPolicy {
            threshold: self.cfg.storm_threshold,
            suppression: self.cfg.storm_suppression,
        };

        let chunk = self.plans.len().div_ceil(shards).max(1);
        let slices: Vec<&[PlannedDimm]> = self.plans.chunks(chunk).collect();
        let shard_count = slices.len();

        let next = AtomicUsize::new(0);
        let queued = AtomicUsize::new(0);
        let depth_gauge = mfp_obs::gauge("sim_shard_queue_depth", &[]);
        let (tx, rx) = sync_channel::<ShardOutput>(capacity);

        let mut outputs: Vec<ShardOutput> = Vec::with_capacity(shard_count);
        let mut max_queue_depth = 0usize;
        std::thread::scope(|s| {
            for _ in 0..workers.min(shard_count.max(1)) {
                let tx = tx.clone();
                let next = &next;
                let queued = &queued;
                let depth_gauge = &depth_gauge;
                let slices = &slices;
                let cfg = &self.cfg;
                s.spawn(move || {
                    // Decode memoization is per worker (pure, so shared
                    // state never leaks into outcomes).
                    let eccs: Vec<(Platform, CachedPlatformEcc)> = Platform::ALL
                        .iter()
                        .map(|&p| (p, CachedPlatformEcc::for_platform(p)))
                        .collect();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= slices.len() {
                            break;
                        }
                        let out = simulate_shard(i, slices[i], cfg, storm, &eccs);
                        depth_gauge.set(queued.fetch_add(1, Ordering::Relaxed) as f64 + 1.0);
                        if tx.send(out).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            // Collect every shard before merging: a shard's earliest event
            // is unknowable until it finishes, so the merge frontier needs
            // all heads. The bounded channel caps how many finished shards
            // can pile up ahead of this loop.
            while let Ok(out) = rx.recv() {
                let depth = queued.fetch_sub(1, Ordering::Relaxed);
                max_queue_depth = max_queue_depth.max(depth);
                depth_gauge.set(depth.saturating_sub(1) as f64);
                outputs.push(out);
            }
        });
        assert_eq!(
            outputs.len(),
            shard_count,
            "a simulation worker panicked before delivering its shard"
        );

        outputs.sort_by_key(|o| o.shard);
        let mut dimms = Vec::with_capacity(self.plans.len());
        let mut per_shard = Vec::with_capacity(shard_count);
        let mut heap: BinaryHeap<MergeHead> = BinaryHeap::with_capacity(shard_count);
        let mut streams: Vec<std::vec::IntoIter<MemEvent>> = Vec::with_capacity(shard_count);
        for out in outputs {
            dimms.extend(out.truths);
            per_shard.push(out.stats);
            let mut iter = out.events.into_iter();
            if let Some(event) = iter.next() {
                heap.push(MergeHead {
                    time: event.time(),
                    dimm: event.dimm(),
                    shard: out.shard,
                    event,
                });
            }
            streams.push(iter);
        }

        // K-way merge: pop the minimum (time, dimm) head, refill from the
        // same shard. Each exhausted shard buffer is dropped here, so
        // resident memory shrinks as the merge advances.
        let mut merged_events = 0u64;
        while let Some(head) = heap.pop() {
            sink(head.event);
            merged_events += 1;
            if let Some(event) = streams[head.shard].next() {
                heap.push(MergeHead {
                    time: event.time(),
                    dimm: event.dimm(),
                    shard: head.shard,
                    event,
                });
            }
        }

        mfp_obs::counter("sim_sharded_runs", &[]).incr();
        mfp_obs::counter("sim_sharded_events_merged", &[]).add(merged_events);
        span.stop();
        ShardedOutcome {
            dimms,
            stats: ShardedStats {
                shards: shard_count,
                workers,
                merged_events,
                max_queue_depth,
                per_shard,
            },
        }
    }
}

/// Simulates one shard's DIMMs in plan order and sorts its events by the
/// merge key.
fn simulate_shard(
    shard: usize,
    slice: &[PlannedDimm],
    cfg: &FleetConfig,
    storm: StormPolicy,
    eccs: &[(Platform, CachedPlatformEcc)],
) -> ShardOutput {
    let started = std::time::Instant::now();
    let mut log = BmcLog::new();
    let mut truths = Vec::with_capacity(slice.len());
    for (platform, plan, seed) in slice {
        let ecc = &eccs
            .iter()
            .find(|(p, _)| p == platform)
            .expect("platform ecc")
            .1;
        let mut rng = StdRng::seed_from_u64(*seed);
        let outcome = simulate_dimm_ras(plan, ecc, cfg.horizon, storm, cfg.ras, &mut log, &mut rng);
        truths.push(DimmTruth {
            id: plan.id,
            platform: *platform,
            spec: plan.spec,
            category: plan.category,
            fault_modes: plan.faults.iter().map(|f| f.mode).collect(),
            outcome,
        });
    }
    let mut events = log.into_events();
    // Stable sort: within-(time, dimm) ties keep push order, matching the
    // sequential oracle's stable time sort over plan-major push order.
    events.sort_by_key(|e| (e.time(), e.dimm()));
    let wall_secs = started.elapsed().as_secs_f64();

    let shard_label = shard.to_string();
    mfp_obs::counter("sim_shard_events", &[("shard", &shard_label)]).add(events.len() as u64);
    mfp_obs::latency("sim_shard_seconds", &[]).record(wall_secs);
    let stats = ShardStats {
        shard,
        dimms: slice.len(),
        events: events.len() as u64,
        wall_secs,
    };
    ShardOutput {
        shard,
        events,
        truths,
        stats,
    }
}

/// Runs a sharded simulation and materializes a [`FleetResult`], for
/// callers that want the drop-in equivalent of
/// [`simulate_fleet`](crate::fleet::simulate_fleet).
pub fn simulate_fleet_sharded(cfg: &FleetConfig, scfg: &ShardConfig) -> FleetResult {
    let fleet = ShardedFleet::plan(cfg);
    let mut log = BmcLog::new();
    let outcome = fleet.run_stream(scfg, |e| log.push(e));
    log.sort(); // no-op: the merged stream arrives time-ordered
    FleetResult {
        log,
        dimms: outcome.dimms,
        config: cfg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::simulate_fleet_with_workers;

    fn small_cfg(seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::smoke(seed);
        cfg.horizon = mfp_dram::time::SimDuration::days(60);
        cfg
    }

    #[test]
    fn sharded_is_bit_identical_across_shard_and_worker_counts() {
        let cfg = small_cfg(42);
        let oracle = simulate_fleet_with_workers(&cfg, 1);
        for shards in [1usize, 2, 4, 8] {
            for workers in [1usize, 2, 4] {
                let got = simulate_fleet_sharded(&cfg, &ShardConfig::new(shards, workers));
                assert_eq!(
                    got.log.events(),
                    oracle.log.events(),
                    "event stream must be invariant (shards={shards} workers={workers})"
                );
                assert_eq!(
                    got.dimms, oracle.dimms,
                    "truth order must be invariant (shards={shards} workers={workers})"
                );
            }
        }
    }

    #[test]
    fn more_shards_than_dimms_is_fine() {
        let mut cfg = small_cfg(7);
        for pc in &mut cfg.platforms {
            pc.dimms_with_ces = 3;
            pc.sudden_only_dimms = 1;
        }
        let oracle = simulate_fleet_with_workers(&cfg, 1);
        let got = simulate_fleet_sharded(&cfg, &ShardConfig::new(64, 3));
        assert_eq!(got.log.events(), oracle.log.events());
        assert_eq!(got.dimms.len(), 12);
    }

    #[test]
    fn degenerate_knobs_are_clamped() {
        let cfg = small_cfg(3);
        let oracle = simulate_fleet_with_workers(&cfg, 1);
        let got = simulate_fleet_sharded(
            &cfg,
            &ShardConfig {
                shards: 0,
                workers: 0,
                channel_capacity: 0,
            },
        );
        assert_eq!(got.log.events(), oracle.log.events());
    }

    #[test]
    fn stream_is_time_ordered_with_dimm_tiebreak() {
        let cfg = small_cfg(11);
        let fleet = ShardedFleet::plan(&cfg);
        let mut last: Option<(SimTime, DimmId)> = None;
        let mut n = 0u64;
        let outcome = fleet.run_stream(&ShardConfig::new(4, 2), |e| {
            if let Some((t, d)) = last {
                assert!(
                    (t, d) <= (e.time(), e.dimm()),
                    "merge key must be non-decreasing"
                );
            }
            last = Some((e.time(), e.dimm()));
            n += 1;
        });
        assert_eq!(outcome.stats.merged_events, n);
        assert!(n > 0);
    }

    #[test]
    fn catalog_is_known_before_simulation_and_matches_truths() {
        let cfg = small_cfg(5);
        let fleet = ShardedFleet::plan(&cfg);
        let catalog: Vec<_> = fleet.catalog().collect();
        assert_eq!(catalog.len(), fleet.dimm_count());
        let outcome = fleet.run_stream(&ShardConfig::new(2, 2), |_| {});
        assert_eq!(outcome.dimms.len(), catalog.len());
        for ((id, platform, spec), truth) in catalog.iter().zip(&outcome.dimms) {
            assert_eq!(*id, truth.id);
            assert_eq!(*platform, truth.platform);
            assert_eq!(*spec, truth.spec);
        }
    }

    #[test]
    fn per_shard_stats_partition_the_run() {
        let cfg = small_cfg(9);
        let fleet = ShardedFleet::plan(&cfg);
        let outcome = fleet.run_stream(&ShardConfig::new(4, 2), |_| {});
        let stats = &outcome.stats;
        assert_eq!(stats.shards, stats.per_shard.len());
        assert_eq!(
            stats.per_shard.iter().map(|s| s.events).sum::<u64>(),
            stats.merged_events
        );
        assert_eq!(
            stats.per_shard.iter().map(|s| s.dimms).sum::<usize>(),
            fleet.dimm_count()
        );
        for (i, s) in stats.per_shard.iter().enumerate() {
            assert_eq!(s.shard, i);
            assert!(s.wall_secs >= 0.0);
        }
        assert!(stats.max_queue_depth >= 1);
    }

    #[test]
    fn sharded_run_reports_telemetry() {
        let cfg = small_cfg(13);
        let _ = simulate_fleet_sharded(&cfg, &ShardConfig::new(2, 2));
        let snap = mfp_obs::global().snapshot();
        assert!(snap.counter("sim_sharded_runs") >= 1);
        assert!(snap.counter("sim_sharded_events_merged") > 0);
        // Per-shard series merge into one logical counter in the snapshot.
        assert!(snap.counter("sim_shard_events") > 0);
        assert!(snap
            .counter_labeled("sim_shard_events", &[("shard", "0")])
            .is_some());
    }
}
