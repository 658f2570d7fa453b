//! Execution knobs and outcome types of a sharded fleet run.
//!
//! [`EventFleet::run_stream`](crate::events::EventFleet::run_stream)
//! partitions the planned fleet into [`ShardConfig::shards`] contiguous
//! sub-fleets, simulates them on [`ShardConfig::workers`] threads and
//! k-way merges the per-shard streams into one time-ordered stream. The
//! knobs are pure execution details: the stream is bit-identical for any
//! choice of them (see the determinism scheme in [`events`](crate::events)).

use crate::fleet::DimmTruth;

/// Execution knobs of a sharded run. None of them affect the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of fleet partitions (clamped to at least 1). More shards
    /// mean smaller per-shard buffers and better load balance.
    pub shards: usize,
    /// Worker threads simulating shards (clamped to at least 1).
    pub workers: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
        }
    }
}

impl ShardConfig {
    /// A config with `shards` shards and `workers` workers.
    pub fn new(shards: usize, workers: usize) -> Self {
        ShardConfig { shards, workers }
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
    /// Worker threads used (≤ requested: never more than one per shard).
    pub workers: usize,
    /// Events emitted by the merged stream.
    pub merged_events: u64,
    /// Per-shard breakdown, ordered by shard index.
    pub per_shard: Vec<ShardStats>,
}

/// Result of a streamed sharded run: everything except the event stream
/// itself, which went to the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Ground truth per DIMM, in plan (= generation) order — identical
    /// to [`FleetResult::dimms`](crate::fleet::FleetResult::dimms) of a
    /// sequential run.
    pub dimms: Vec<DimmTruth>,
    /// Execution statistics.
    pub stats: ShardedStats,
}
