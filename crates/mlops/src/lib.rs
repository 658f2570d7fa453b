//! # mfp-mlops
//!
//! The MLOps framework of the paper's §VII / Fig. 6, as an in-process
//! library:
//!
//! * [`lake`] — the data pipeline's landing zone: partitioned event store +
//!   DIMM catalog, fed by the binary BMC wire format.
//! * [`ingest`] — hardened ingestion for hostile telemetry: validation
//!   with per-reason rejection counters, bounded dedup, watermark-based
//!   re-sequencing with quarantine, and collection-gap detection.
//! * [`checkpoint`] — crash/restore for the online path: bit-exact
//!   serialization of predictor + feature-stream state.
//! * `codec` — the byte layouts every sealed format shares: one
//!   bounds-checked big-endian reader, one `magic version body crc32`
//!   envelope, one `kind seq len payload crc32` frame with its prefix
//!   scan, one layout per shared record (DIMM id and spec, online
//!   config, alarm, score) and one atomic file write.
//! * [`feature_store`] — transformation (batch + streaming), storage,
//!   cataloging and serving of features, with an executable train/serve
//!   consistency check.
//! * [`registry`] — versioned, stage-tracked model storage
//!   (staging → production → archived, with rollback).
//! * [`cicd`] — the deployment pipeline: integration tests, benchmark
//!   non-regression gate, canary precision gate, automatic promotion.
//! * [`online`] — streaming prediction with alarm voting and cooldown.
//! * [`serve`] — the sharded, pipelined serving engine: DIMM-hash
//!   partitioned predictors on a backpressured worker pool, bit-identical
//!   to the sequential predictor at any shard/worker count.
//! * [`mitigation`] — VM migration on alarms and the *measured* VIRR.
//! * [`drift`] — PSI feature-drift detection.
//! * [`monitor`] — dashboards, live precision/recall feedback, and the
//!   retraining policy.
//! * [`lifecycle`] — the checkpointed orchestrator that ties monitoring,
//!   drift and CI/CD into the paper's continuous-improvement loop.
//! * [`wal`] — the durability layer: one checksummed write-ahead log
//!   (`MFW1` records) and one `MFD1`-wrapped `MFC1` checkpoint per shard
//!   under an `MFW2` root, with compaction and crash recovery that
//!   replays to bit-identical alarms and scores from any torn-write
//!   offset, each shard independently of its siblings.
//! * [`supervise`] — self-healing serving: one state machine runs
//!   shards as restartable units with panic capture, heartbeat hang
//!   detection, deterministic bounded backoff, and poison-record
//!   quarantine, gated by a seeded crash-chaos injector against the
//!   sequential oracle; its thread host keeps every shard in-process.
//! * [`procserve`] — the machine's process host: each shard in its own
//!   OS process behind a crc32-framed `MFP1` pipe protocol, supervised
//!   through real `SIGKILL`s, exit-status capture and heartbeat
//!   deadlines, recovering bit-identically from its per-shard WAL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod cicd;
pub(crate) mod codec;
pub mod drift;
pub mod feature_store;
pub mod ingest;
pub mod lake;
pub mod lifecycle;
pub mod mitigation;
pub mod monitor;
pub mod online;
pub mod procserve;
pub mod registry;
pub mod serve;
pub mod supervise;
pub mod wal;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::checkpoint::{CheckpointError, OnlineCheckpoint};
    pub use crate::cicd::{run_pipeline, PipelineConfig, PipelineRun, StageResult};
    pub use crate::drift::{psi_report, psi_report_excluding, DriftReport};
    pub use crate::feature_store::{FeatureStore, FeatureView};
    pub use crate::ingest::{
        ingest_bounded, normalize, GapRecord, IngestConfig, IngestOutput, IngestStats, Ingestor,
        RejectReason,
    };
    pub use crate::lake::{DataLake, DiskLake, LakeError};
    pub use crate::lifecycle::{run_lifecycle, Checkpoint, LifecycleConfig};
    pub use crate::mitigation::{evaluate_mitigation, MitigationConfig, MitigationReport};
    pub use crate::monitor::{Dashboard, FeedbackLoop, MetricValue, RetrainPolicy};
    pub use crate::online::{Alarm, OnlineConfig, OnlinePredictor, ScoreRecord};
    pub use crate::procserve::{
        shard_worker_main, ModelSpec, ProcConfig, ProcError, ProcSupervisor, WorkerCommand,
        WorkerSpec, WORKER_ENV,
    };
    pub use crate::registry::{ModelEntry, ModelRegistry, Stage};
    pub use crate::serve::{
        make_stores, serve_pipeline, shard_of, shard_route, ServeConfig, ServeError, ServeOutcome,
        ServeStats, ShardServeStats,
    };
    pub use crate::supervise::{
        ChaosEvent, ChaosKind, ChaosPlan, SuperviseConfig, SupervisedOutcome, Supervisor,
        SupervisorReport,
    };
    pub use crate::wal::{
        ApplyVerdict, DurableConfig, DurableShard, FlushStatus, RecoveryReport, ShardedDurable,
        WalError,
    };
}
