//! Shard supervision: one state machine that keeps a sharded fleet
//! serving while its units crash, hang or choke on poison records.
//!
//! [`crate::wal::ShardedDurable`] gives every shard its own log and
//! checkpoint chain (the `MFW2` layout), but leaves the caller to decide
//! what happens when a shard misbehaves. This module is that decision,
//! written once as `supervise` over a `ShardHost`: the host says how
//! a shard's unit starts, is fed, finishes and dies, and the machine owns
//! every policy decision. There are two hosts:
//!
//! * [`Supervisor`] runs each [`crate::wal::DurableShard`] in the
//!   caller's thread, every apply behind `catch_unwind`;
//! * [`crate::procserve::ProcSupervisor`] runs each shard in a worker
//!   process behind the `MFP1` pipe protocol, so a `SIGKILL` or a wedged
//!   process is survivable too.
//!
//! # Policy
//!
//! * **Panic capture.** A panicking apply is converted into a
//!   [`crate::wal::ApplyVerdict::Crashed`] verdict, the unit is dropped,
//!   and recovery replays its own WAL — the crashing output was durable
//!   *before* it was applied, so nothing is lost.
//! * **Hang detection.** Time is logical (one tick per output of the
//!   canonical stream). A unit that stops heartbeating for
//!   [`SuperviseConfig::heartbeat_timeout`] ticks is killed and
//!   restarted; its un-consumed outputs are re-fed from the
//!   supervisor's routed backlog.
//! * **Bounded deterministic backoff.** The `n`-th restart of a shard
//!   waits `min(backoff_base << (n-1), backoff_cap)` ticks. After
//!   [`SuperviseConfig::max_restarts`] the shard is marked failed and
//!   the fleet degrades gracefully: merged output is the output of the
//!   live shards (routing is a pure DIMM hash, so a dead shard never
//!   silences a live one's DIMMs), and [`SupervisedOutcome::dimm_status`]
//!   names the DIMMs that lost their shard.
//! * **Quarantine.** An output that crashes the same shard
//!   [`SuperviseConfig::quarantine_after`] times is appended to the
//!   shard's `quarantine.log` and skipped from then on — including by
//!   recovery after a real process death, because the side log is read
//!   back at open. Deleting the file is the operator's escape hatch.
//! * **Poison.** The machine keeps the master table of armed injected
//!   panics and decrements it once per reported crash; each unit keeps
//!   its own copy, seeded when it starts and updated by
//!   `ShardHost::arm`. A unit stops consuming at its first crash, so
//!   every armed apply produces exactly one crash report and the two
//!   tables agree.
//!
//! # Determinism
//!
//! Everything the supervisor does is a function of the canonical output
//! stream and the injected [`ChaosPlan`]: logical time, routing,
//! backoff, and quarantine decisions contain no wall clocks and no real
//! randomness. That is what makes the crash-chaos gate meaningful —
//! after *any* seeded schedule of kills, hangs, torn WAL tails and
//! transient panics, the merged alarms and scores must be bit-identical
//! to an uncrashed sequential oracle (permanently poisoned outputs
//! excepted: those compare against the oracle fed the filtered stream).

use crate::feature_store::FeatureStore;
use crate::ingest::IngestOutput;
use crate::lake::DataLake;
use crate::online::{Alarm, OnlineConfig, OnlinePredictor, ScoreRecord};
use crate::registry::ModelRegistry;
use crate::serve::{shard_of, shard_route, ServeError};
use crate::wal::{
    check_meta, quarantine_output, shard_dir, ApplyVerdict, DurableConfig, DurableShard,
    FlushStatus, WalError,
};
use mfp_dram::address::DimmId;
use mfp_dram::geometry::Platform;
use mfp_dram::time::SimTime;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Once;

/// Marker carried by every chaos-injected panic payload; the process
/// panic hook stays silent for payloads containing it so chaos sweeps
/// don't spray backtraces over test output.
pub const CHAOS_PANIC: &str = "chaos-injected panic";

/// Installs (once per process) a panic hook that swallows chaos-injected
/// panics and forwards everything else to the previous hook.
pub(crate) fn silence_chaos_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("chaos-injected") {
                prev(info);
            }
        }));
    });
}

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Kill the unit outright and tear the last `torn_bytes` bytes off
    /// its WAL (simulating a power cut mid-append).
    Kill {
        /// Bytes ripped off the WAL tail, clamped to the file size.
        torn_bytes: u64,
    },
    /// The unit stops making progress; the supervisor's heartbeat check
    /// must notice and kill it.
    Hang,
    /// The next output routed to the shard panics the apply `fails`
    /// times before succeeding (a transient poison — capped below the
    /// quarantine threshold so recovery converges to the full oracle).
    Panic {
        /// Crashes before the output finally applies.
        fails: u32,
    },
    /// The next output routed to the shard panics the apply *every*
    /// time — a permanent poison record that only quarantine (or a
    /// restart-budget failure) resolves.
    Poison,
}

/// One scheduled failure: fires just before output `at_output` of the
/// canonical stream is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Global index into the canonical output stream.
    pub at_output: u64,
    /// Target shard.
    pub shard: usize,
    /// What happens.
    pub kind: ChaosKind,
}

/// A deterministic failure schedule over shard × logical time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Events sorted by `(at_output, shard)`.
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// The empty schedule: nothing fails.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// A seed-derived schedule of `events` kills, hangs and transient
    /// panics over `shards` shards and a stream of `stream_len` outputs.
    /// Panic counts are drawn from `1..=max_panic_fails`; the supervisor
    /// additionally caps accumulated fails below its quarantine
    /// threshold, so every seeded schedule converges to the full oracle.
    /// Permanent [`ChaosKind::Poison`] events are never generated here —
    /// inject those explicitly when testing quarantine.
    pub fn seeded(
        seed: u64,
        shards: usize,
        stream_len: usize,
        events: usize,
        max_panic_fails: u32,
    ) -> Self {
        let mut rng = mfp_rng::StdRng::from_state(seed ^ 0xC3A5_C85C_97CB_3127);
        let mut evs = Vec::with_capacity(events);
        for _ in 0..events {
            let at_output = if stream_len == 0 {
                0
            } else {
                rng.next_u64() % stream_len as u64
            };
            let shard = (rng.next_u64() % shards.max(1) as u64) as usize;
            let kind = match rng.next_u64() % 3 {
                0 => ChaosKind::Kill {
                    torn_bytes: rng.next_u64() % 64,
                },
                1 => ChaosKind::Hang,
                _ => ChaosKind::Panic {
                    fails: 1 + (rng.next_u64() % u64::from(max_panic_fails.max(1))) as u32,
                },
            };
            evs.push(ChaosEvent {
                at_output,
                shard,
                kind,
            });
        }
        evs.sort_by_key(|e| (e.at_output, e.shard));
        ChaosPlan { events: evs }
    }
}

/// Supervision policy knobs, shared by both hosts. Time is logical: one
/// tick per output of the canonical stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Ticks a hung unit survives before the supervisor kills it.
    pub heartbeat_timeout: u64,
    /// First-restart backoff delay, in ticks.
    pub backoff_base: u64,
    /// Upper bound on any backoff delay, in ticks.
    pub backoff_cap: u64,
    /// Restarts allowed per shard before it is marked failed.
    pub max_restarts: u32,
    /// Crashes at the same output before it is quarantined.
    pub quarantine_after: u32,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            heartbeat_timeout: 4,
            backoff_base: 1,
            backoff_cap: 16,
            max_restarts: 32,
            quarantine_after: 3,
        }
    }
}

/// What the supervisor saw and did over one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Unit restarts (after crashes, kills and detected hangs).
    pub restarts: u64,
    /// Units started, initial starts included: shards opened in-thread,
    /// or worker processes spawned.
    pub spawns: u64,
    /// Units that died by `SIGKILL` (signal 9 in a worker's wait
    /// status; always 0 on the thread host).
    pub sigkills: u64,
    /// Expired hang heartbeats, plus missed ack deadlines on the process
    /// host.
    pub heartbeat_misses: u64,
    /// Crash reports: panics the apply guard converted into crash
    /// verdicts.
    pub panics_caught: u64,
    /// Hung units detected by the heartbeat check.
    pub hangs_detected: u64,
    /// Injected kills that landed on a live unit.
    pub kills_injected: u64,
    /// Outputs re-applied from per-shard WALs across all restarts.
    pub replayed_outputs: u64,
    /// `(shard, per-shard seq)` of every output quarantined this run.
    pub quarantined: Vec<(usize, u64)>,
    /// Global stream indices of the quarantined outputs — subtract these
    /// from the canonical stream to build the degraded oracle.
    pub quarantined_outputs: Vec<u64>,
    /// Shards that exhausted their restart budget.
    pub failed_shards: Vec<usize>,
}

/// The merged fleet output of a supervised run.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// Live shards' alarms merged by `(time, dimm)`.
    pub alarms: Vec<Alarm>,
    /// Live shards' score traces merged by `(time, dimm)` (empty unless
    /// [`DurableConfig::record_scores`]).
    pub scores: Vec<ScoreRecord>,
    /// Model invocations across live shards.
    pub scored: u64,
    /// Shards still up at the end of the run.
    pub live_shards: usize,
    /// Total shard count (for routing queries).
    pub shards: usize,
    /// Everything the supervisor did along the way.
    pub report: SupervisorReport,
}

impl SupervisedOutcome {
    /// Degraded-mode routing check: `Err(ShardUnavailable)` if the
    /// DIMM's home shard exhausted its restart budget, `Ok` otherwise.
    pub fn dimm_status(&self, dimm: DimmId) -> Result<(), ServeError> {
        let shard = shard_of(dimm, self.shards);
        if self.report.failed_shards.contains(&shard) {
            Err(ServeError::ShardUnavailable { shard })
        } else {
            Ok(())
        }
    }
}

/// The guarded apply: consult the armed-poison table, then run the real
/// apply under `catch_unwind`. Decrements transient poisons so each
/// retry makes progress; permanent poisons (`u32::MAX`) never decrement.
pub(crate) fn poison_guard<'g, 'a>(
    poison: &'g mut BTreeMap<u64, u32>,
) -> impl FnMut(&mut OnlinePredictor<'a>, &IngestOutput, u64) -> ApplyVerdict + 'g {
    move |predictor: &mut OnlinePredictor<'a>, out: &IngestOutput, seq: u64| {
        let armed = match poison.get_mut(&seq) {
            Some(fails) if *fails > 0 => {
                if *fails != u32::MAX {
                    *fails -= 1;
                }
                true
            }
            _ => false,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            if armed {
                panic!("{CHAOS_PANIC} (seq {seq})");
            }
            predictor.apply(out);
        }));
        match result {
            Ok(_) => ApplyVerdict::Applied,
            Err(_) => ApplyVerdict::Crashed,
        }
    }
}

/// Pushes `(per-shard seq, output)` pairs into `unit` through the poison
/// guard, skipping what the unit already holds (a re-fed prefix after
/// recovery). Stops at the first crash and returns its sequence number.
/// The thread host's feed and the worker's `Outputs` handler both run
/// this loop.
pub(crate) fn push_outputs(
    unit: &mut DurableShard<'_>,
    poison: &mut BTreeMap<u64, u32>,
    outs: impl IntoIterator<Item = (u64, IngestOutput)>,
) -> Result<Option<u64>, WalError> {
    let mut guard = poison_guard(poison);
    for (seq, out) in outs {
        if seq < unit.fed() {
            continue;
        }
        if let FlushStatus::Crashed { seq } = unit.push(out, &mut guard)? {
            return Ok(Some(seq));
        }
    }
    Ok(None)
}

/// The `n`-th restart's exponential backoff delay: `base << (n - 1)`,
/// saturating instead of wrapping, clamped to `[1, cap]`.
///
/// The exponent is bounded *before* shifting: `checked_shl` only guards
/// against shifts ≥ 64, so `base << 63` for any base with more than one
/// set bit used to wrap the delay toward zero once a shard's restart
/// count grew pathologically large. Saturating at `u64::MAX` keeps the
/// delay monotonic in `n` so `min(cap)` always pins it to the cap.
pub(crate) fn bounded_backoff(base: u64, cap: u64, n: u32) -> u64 {
    let shift = n.saturating_sub(1);
    let delay = if base == 0 {
        0
    } else if shift > base.leading_zeros() {
        u64::MAX
    } else {
        base << shift
    };
    delay.min(cap).max(1)
}

/// Rips `torn_bytes` off the tail of a shard's WAL — the kill
/// injector's torn-append simulation. Tearing below the header is fine:
/// recovery rewrites it as an empty log and the supervisor re-feeds the
/// lost suffix from its routed backlog.
pub(crate) fn tear_wal_tail(dir: &Path, torn_bytes: u64) -> Result<(), WalError> {
    let path = dir.join("wal.log");
    let f = match OpenOptions::new().write(true).open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    let len = f.metadata()?.len();
    f.set_len(len.saturating_sub(torn_bytes))?;
    Ok(())
}

/// One shard's final output: its alarms, score trace and scored count.
pub(crate) type ShardRun = (Vec<Alarm>, Vec<ScoreRecord>, u64);

/// Why a unit stopped serving in the middle of a host call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// The apply at this per-shard sequence number crashed; the unit
    /// ends on its own.
    Crashed(u64),
    /// The unit died or stopped answering; `hung` when it missed its
    /// ack deadline.
    Died {
        /// The unit missed its ack deadline (a heartbeat miss).
        hung: bool,
    },
}

/// A host call that a supervised failure can stop (`Ok(Err(Stop))`) and
/// only a real I/O failure aborts (`Err`).
pub(crate) type Step<T, E> = Result<Result<T, Stop>, E>;

/// A freshly started unit.
pub(crate) struct Started<U> {
    /// The unit, live or stopped.
    pub(crate) unit: U,
    /// Outputs it re-applied from its WAL while recovering.
    pub(crate) replayed: u64,
    /// The outputs it holds (its re-feed position), or why it stopped
    /// before it could serve.
    pub(crate) status: Result<u64, Stop>,
}

/// How one kind of unit runs a shard. The supervision policy — slots,
/// restart budget, poison, chaos, routing, drain and merge — lives in
/// [`supervise`]; a host only moves outputs and reports how its units
/// end.
pub(crate) trait ShardHost {
    /// A running shard.
    type Unit;
    /// A real failure that aborts the run.
    type Error: From<WalError>;
    /// The `host` label of the supervision metrics.
    const LABEL: &'static str;

    /// Routed outputs that make one feed.
    fn feed_size(&self) -> usize;

    /// Starts shard `s`'s unit armed with `poison` and recovers it from
    /// its WAL.
    fn start(
        &self,
        s: usize,
        poison: &BTreeMap<u64, u32>,
    ) -> Result<Started<Self::Unit>, Self::Error>;

    /// Hands the unit the outputs `outs[g]` for `g` in `routed`, whose
    /// first per-shard sequence number is `from`.
    fn feed(
        &self,
        unit: &mut Self::Unit,
        outs: &[IngestOutput],
        routed: &[usize],
        from: u64,
    ) -> Step<(), Self::Error>;

    /// Arms `fails` injected panics at per-shard `seq` (`u32::MAX`:
    /// permanent), replacing the unit's count.
    fn arm(&self, unit: &mut Self::Unit, seq: u64, fails: u32) -> Result<(), Stop>;

    /// Makes the unit stop making progress.
    fn hang(&self, unit: &mut Self::Unit) -> Result<(), Stop>;

    /// Runs the unit's final prediction ticks up to `end` and returns
    /// its output.
    fn finish(&self, unit: &mut Self::Unit, end: SimTime) -> Step<ShardRun, Self::Error>;

    /// Kills a unit; `true` when it died by `SIGKILL`.
    fn kill(&self, unit: Self::Unit) -> bool;

    /// Releases a unit that reported its own crash.
    fn retire(&self, unit: Self::Unit);

    /// Shuts a serving unit down at the end of a run.
    fn shutdown(&self, unit: Self::Unit);
}

/// A chaos injection waiting to bind to the next output routed to its
/// shard.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Transient(u32),
    Permanent,
}

/// Supervisor-side state of one shard that outlives its unit.
#[derive(Debug, Default)]
struct ShardCtl {
    restarts: u32,
    /// Crashes observed per per-shard sequence number; reaching
    /// `quarantine_after` triggers the side log.
    crash_counts: BTreeMap<u64, u32>,
    /// Master poison table: remaining injected panics per per-shard
    /// sequence number (`u32::MAX` = permanent), decremented once per
    /// crash report so a restarted unit is armed with what is left.
    poison: BTreeMap<u64, u32>,
    pending: Vec<Pending>,
}

impl ShardCtl {
    /// Binds the pending injections to per-shard `seq` (a stable
    /// coordinate across restarts) and returns its armed count.
    /// Transient fails are capped below the quarantine threshold so
    /// stacked injections stay transient.
    fn bind(&mut self, seq: u64, quarantine_after: u32) -> u32 {
        let fails = self.poison.entry(seq).or_insert(0);
        for p in self.pending.drain(..) {
            match p {
                Pending::Transient(n) => {
                    if *fails != u32::MAX {
                        *fails = fails
                            .saturating_add(n)
                            .min(quarantine_after.saturating_sub(1));
                    }
                }
                Pending::Permanent => *fails = u32::MAX,
            }
        }
        *fails
    }
}

/// Lifecycle state of one shard's unit.
enum Slot<U> {
    /// Serving; holds the first `sent` outputs of its routed backlog.
    Up { unit: U, sent: u64 },
    /// Stopped making progress at tick `since`; killed once the
    /// heartbeat timeout elapses.
    Hung { since: u64, unit: U },
    /// Waiting out its restart backoff; `until: 0` starts it at once.
    Down { until: u64 },
    /// Restart budget exhausted; permanently out of the merge.
    Failed,
}

/// The run state of [`supervise`].
struct Machine<'r, H: ShardHost> {
    host: &'r H,
    dir: &'r Path,
    cfg: SuperviseConfig,
    outs: &'r [IngestOutput],
    /// Global stream indices routed to each shard, in per-shard order.
    routed: Vec<Vec<usize>>,
    ctl: Vec<ShardCtl>,
    slots: Vec<Slot<H::Unit>>,
    report: SupervisorReport,
}

impl<H: ShardHost> Machine<'_, H> {
    /// Books one restart against the shard's budget: a backoff slot, or
    /// [`Slot::Failed`] once the budget is spent.
    fn schedule_restart(&mut self, s: usize, now: u64) -> Slot<H::Unit> {
        let ctl = &mut self.ctl[s];
        ctl.restarts += 1;
        self.report.restarts += 1;
        if ctl.restarts > self.cfg.max_restarts {
            if !self.report.failed_shards.contains(&s) {
                self.report.failed_shards.push(s);
            }
            Slot::Failed
        } else {
            Slot::Down {
                until: now
                    + bounded_backoff(self.cfg.backoff_base, self.cfg.backoff_cap, ctl.restarts),
            }
        }
    }

    /// Accounts one crash report at per-shard `seq`: bumps the crash
    /// counter, quarantines the output once it reaches the threshold,
    /// burns one armed fail from the master poison table, and schedules
    /// the restart.
    fn crash_slot(&mut self, s: usize, seq: u64, now: u64) -> Result<Slot<H::Unit>, H::Error> {
        self.report.panics_caught += 1;
        let ctl = &mut self.ctl[s];
        let count = ctl.crash_counts.entry(seq).or_insert(0);
        *count += 1;
        if *count >= self.cfg.quarantine_after {
            if let Some(&gidx) = self.routed[s].get(seq as usize) {
                quarantine_output(&shard_dir(self.dir, s), seq, &self.outs[gidx])?;
                self.report.quarantined.push((s, seq));
                self.report.quarantined_outputs.push(gidx as u64);
            }
        }
        if let Some(f) = ctl.poison.get_mut(&seq) {
            if *f > 0 && *f != u32::MAX {
                *f -= 1;
            }
        }
        Ok(self.schedule_restart(s, now))
    }

    /// Disposes of a unit that stopped serving and books the restart.
    fn stop(
        &mut self,
        s: usize,
        unit: H::Unit,
        stop: Stop,
        now: u64,
    ) -> Result<Slot<H::Unit>, H::Error> {
        match stop {
            Stop::Crashed(seq) => {
                self.host.retire(unit);
                self.crash_slot(s, seq, now)
            }
            Stop::Died { hung } => {
                if hung {
                    self.report.heartbeat_misses += 1;
                }
                self.kill(unit);
                Ok(self.schedule_restart(s, now))
            }
        }
    }

    /// Kills a unit, counting a death by `SIGKILL`.
    fn kill(&mut self, unit: H::Unit) {
        if self.host.kill(unit) {
            self.report.sigkills += 1;
        }
    }

    /// (Re)starts shard `s` and catches it up to its routed backlog. A
    /// failure during recovery or catch-up books a restart instead.
    fn start(&mut self, s: usize, now: u64) -> Result<Slot<H::Unit>, H::Error> {
        self.report.spawns += 1;
        let started = self.host.start(s, &self.ctl[s].poison)?;
        self.report.replayed_outputs += started.replayed;
        match started.status {
            Ok(fed) => {
                let sent = fed.min(self.routed[s].len() as u64);
                self.feed(s, started.unit, sent, now)
            }
            Err(stop) => self.stop(s, started.unit, stop, now),
        }
    }

    /// Feeds a live unit the rest of its routed backlog, one
    /// [`ShardHost::feed_size`] at a time.
    fn feed(
        &mut self,
        s: usize,
        mut unit: H::Unit,
        mut sent: u64,
        now: u64,
    ) -> Result<Slot<H::Unit>, H::Error> {
        let size = self.host.feed_size();
        let backlog = self.routed[s].len();
        while (sent as usize) < backlog {
            let lo = sent as usize;
            let hi = backlog.min(lo + size);
            if let Err(stop) =
                self.host
                    .feed(&mut unit, self.outs, &self.routed[s][lo..hi], sent)?
            {
                return self.stop(s, unit, stop, now);
            }
            sent = hi as u64;
        }
        Ok(Slot::Up { unit, sent })
    }

    /// One logical-time step of housekeeping: kill hung units whose
    /// heartbeat timeout elapsed and start units whose backoff expired.
    fn step_timers(&mut self, now: u64) -> Result<(), H::Error> {
        for s in 0..self.slots.len() {
            self.slots[s] = match std::mem::replace(&mut self.slots[s], Slot::Failed) {
                Slot::Hung { since, unit }
                    if now.saturating_sub(since) >= self.cfg.heartbeat_timeout =>
                {
                    self.report.hangs_detected += 1;
                    self.report.heartbeat_misses += 1;
                    self.kill(unit);
                    self.schedule_restart(s, now)
                }
                Slot::Down { until } if now >= until => self.start(s, now)?,
                other => other,
            };
        }
        Ok(())
    }

    /// Fires one injected failure at its shard.
    fn inject(&mut self, ev: ChaosEvent, now: u64) -> Result<(), H::Error> {
        let s = ev.shard;
        match ev.kind {
            ChaosKind::Kill { torn_bytes } => {
                self.slots[s] = match std::mem::replace(&mut self.slots[s], Slot::Failed) {
                    Slot::Up { unit, .. } | Slot::Hung { unit, .. } => {
                        self.kill(unit);
                        self.report.kills_injected += 1;
                        tear_wal_tail(&shard_dir(self.dir, s), torn_bytes)?;
                        self.schedule_restart(s, now)
                    }
                    other => other,
                };
            }
            ChaosKind::Hang => {
                self.slots[s] = match std::mem::replace(&mut self.slots[s], Slot::Failed) {
                    Slot::Up { mut unit, .. } => match self.host.hang(&mut unit) {
                        Ok(()) => Slot::Hung { since: now, unit },
                        Err(stop) => self.stop(s, unit, stop, now)?,
                    },
                    other => other,
                };
            }
            ChaosKind::Panic { fails } => self.ctl[s].pending.push(Pending::Transient(fails)),
            ChaosKind::Poison => self.ctl[s].pending.push(Pending::Permanent),
        }
        Ok(())
    }

    /// Routes output `i` to its home shard, binds and arms any pending
    /// poison there, and feeds the unit once a whole feed is waiting
    /// (the remainder drains at the end).
    fn route(&mut self, i: usize, now: u64) -> Result<(), H::Error> {
        let s = shard_route(&self.outs[i], self.slots.len());
        let seq = self.routed[s].len() as u64;
        if !self.ctl[s].pending.is_empty() {
            let fails = self.ctl[s].bind(seq, self.cfg.quarantine_after);
            self.slots[s] = match std::mem::replace(&mut self.slots[s], Slot::Failed) {
                Slot::Up { mut unit, sent } => match self.host.arm(&mut unit, seq, fails) {
                    Ok(()) => Slot::Up { unit, sent },
                    Err(stop) => self.stop(s, unit, stop, now)?,
                },
                other => other,
            };
        }
        self.routed[s].push(i);
        let due = self.routed[s].len() as u64;
        self.slots[s] = match std::mem::replace(&mut self.slots[s], Slot::Failed) {
            Slot::Up { unit, sent } if due - sent >= self.host.feed_size() as u64 => {
                self.feed(s, unit, sent, now)?
            }
            other => other,
        };
        Ok(())
    }

    /// Whether any unit is hung or waiting out its backoff.
    fn any_waiting(&self) -> bool {
        self.slots
            .iter()
            .any(|sl| matches!(sl, Slot::Hung { .. } | Slot::Down { .. }))
    }

    /// Expires every hang and backoff, feeds the remainders and runs the
    /// final prediction ticks, re-entering whenever a unit stops during
    /// its finish. Returns each shard's last finished output.
    fn drain(&mut self, mut now: u64, end: SimTime) -> Result<Vec<Option<ShardRun>>, H::Error> {
        let mut runs: Vec<Option<ShardRun>> = (0..self.slots.len()).map(|_| None).collect();
        loop {
            while self.any_waiting() {
                self.step_timers(now)?;
                now += 1;
            }
            let mut any_stop = false;
            for (s, last) in runs.iter_mut().enumerate() {
                self.slots[s] = match std::mem::replace(&mut self.slots[s], Slot::Failed) {
                    Slot::Up { unit, sent } => match self.feed(s, unit, sent, now)? {
                        Slot::Up { mut unit, sent } => match self.host.finish(&mut unit, end)? {
                            Ok(run) => {
                                *last = Some(run);
                                Slot::Up { unit, sent }
                            }
                            Err(stop) => {
                                any_stop = true;
                                self.stop(s, unit, stop, now)?
                            }
                        },
                        stopped => {
                            any_stop = true;
                            stopped
                        }
                    },
                    other => other,
                };
            }
            if !any_stop {
                return Ok(runs);
            }
            now += 1;
        }
    }
}

/// The supervision state machine: runs `shards` units of `host` over the
/// canonical output stream under the injected failure schedule, drains
/// every restart, finishes prediction ticks up to `end`, and merges the
/// live shards' output.
///
/// For any schedule of kills, hangs, torn tails and *transient* panics,
/// the outcome's merged alarms and scores are bit-identical to the
/// uncrashed sequential oracle over the same stream; with permanent
/// poisons, to the oracle over the stream minus
/// [`SupervisorReport::quarantined_outputs`]; with failed shards, to the
/// oracle restricted to live shards' DIMMs.
///
/// # Errors
///
/// Real I/O failures only — injected failures are the point and are
/// absorbed by the supervision policy.
pub(crate) fn supervise<H: ShardHost>(
    host: &H,
    dir: &Path,
    shards: usize,
    cfg: SuperviseConfig,
    outs: &[IngestOutput],
    end: SimTime,
    plan: &ChaosPlan,
) -> Result<SupervisedOutcome, H::Error> {
    let mut m = Machine {
        host,
        dir,
        cfg,
        outs,
        routed: vec![Vec::new(); shards],
        ctl: (0..shards).map(|_| ShardCtl::default()).collect(),
        // Every unit is due to start at tick 0. Initial starts are
        // recoveries, not restarts against the budget.
        slots: (0..shards).map(|_| Slot::Down { until: 0 }).collect(),
        report: SupervisorReport::default(),
    };
    let mut ev_i = 0usize;
    for i in 0..outs.len() {
        let now = i as u64;
        m.step_timers(now)?;
        while ev_i < plan.events.len() && plan.events[ev_i].at_output <= now {
            let ev = plan.events[ev_i];
            ev_i += 1;
            if ev.shard < shards && ev.at_output == now {
                m.inject(ev, now)?;
            }
        }
        m.route(i, now)?;
    }
    let runs = m.drain(outs.len() as u64, end)?;

    let mut alarms: Vec<Alarm> = Vec::new();
    let mut scores: Vec<ScoreRecord> = Vec::new();
    let mut scored = 0u64;
    let mut live_shards = 0usize;
    for (slot, run) in m.slots.into_iter().zip(runs) {
        if let Slot::Up { unit, .. } = slot {
            live_shards += 1;
            if let Some((a, sc, n)) = run {
                alarms.extend(a);
                scores.extend(sc);
                scored += n;
            }
            host.shutdown(unit);
        }
    }
    alarms.sort_by_key(|a| (a.time, a.dimm));
    scores.sort_by_key(|r| (r.time, r.dimm));

    let r = &m.report;
    let label = [("host", H::LABEL)];
    for (name, value) in [
        ("supervise_restarts", r.restarts),
        ("supervise_spawns", r.spawns),
        ("supervise_sigkills", r.sigkills),
        ("supervise_heartbeat_misses", r.heartbeat_misses),
        ("supervise_panics_caught", r.panics_caught),
        ("supervise_hangs_detected", r.hangs_detected),
        ("supervise_kills_injected", r.kills_injected),
        ("supervise_replayed_outputs", r.replayed_outputs),
    ] {
        mfp_obs::counter(name, &label).add(value);
    }
    mfp_obs::gauge("supervise_live_shards", &label).set(live_shards as f64);

    Ok(SupervisedOutcome {
        alarms,
        scores,
        scored,
        live_shards,
        shards,
        report: m.report,
    })
}

/// A thread-host unit: one in-process shard and its copy of the armed
/// poison.
pub(crate) struct ThreadUnit<'a> {
    shard: DurableShard<'a>,
    poison: BTreeMap<u64, u32>,
}

/// Runs one [`DurableShard`] per feature store as restartable units in
/// the caller's thread, under the policy of [`SuperviseConfig`] and the
/// injected failures of a [`ChaosPlan`] (see `supervise`).
#[derive(Debug)]
pub struct Supervisor<'a> {
    dir: PathBuf,
    lake: &'a DataLake,
    stores: &'a [FeatureStore],
    registry: &'a ModelRegistry,
    platform: Platform,
    online: OnlineConfig,
    durable: DurableConfig,
    cfg: SuperviseConfig,
}

impl<'a> Supervisor<'a> {
    /// Binds a supervisor to an `MFW2` root (created if absent) with one
    /// shard per store.
    ///
    /// # Errors
    ///
    /// I/O failures, a root whose meta file disagrees with `stores`, or
    /// [`WalError::ZeroShards`] when `stores` is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dir: impl Into<PathBuf>,
        lake: &'a DataLake,
        stores: &'a [FeatureStore],
        registry: &'a ModelRegistry,
        platform: Platform,
        online: OnlineConfig,
        durable: DurableConfig,
        cfg: SuperviseConfig,
    ) -> Result<Self, WalError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        check_meta(&dir, stores.len())?;
        silence_chaos_panics();
        Ok(Supervisor {
            dir,
            lake,
            stores,
            registry,
            platform,
            online,
            durable,
            cfg,
        })
    }

    /// Feeds the canonical output stream through the supervised shards
    /// under the injected failure schedule, then drains every restart
    /// and finishes prediction ticks up to `end`. The identity contract
    /// is `supervise`'s.
    ///
    /// # Errors
    ///
    /// Real I/O failures only — injected failures are the point and are
    /// absorbed by the supervision policy.
    pub fn run(
        &self,
        outs: &[IngestOutput],
        end: SimTime,
        plan: &ChaosPlan,
    ) -> Result<SupervisedOutcome, WalError> {
        supervise(
            self,
            &self.dir,
            self.stores.len(),
            self.cfg,
            outs,
            end,
            plan,
        )
    }
}

/// The thread host: a unit is a [`DurableShard`] whose every apply runs
/// behind `catch_unwind`; killing it is dropping it. Each output is
/// pushed as it is routed, with no extra flush.
impl<'a> ShardHost for Supervisor<'a> {
    type Unit = Box<ThreadUnit<'a>>;
    type Error = WalError;
    const LABEL: &'static str = "thread";

    fn feed_size(&self) -> usize {
        1
    }

    fn start(
        &self,
        s: usize,
        poison: &BTreeMap<u64, u32>,
    ) -> Result<Started<Self::Unit>, WalError> {
        let mut poison = poison.clone();
        let (shard, rep) = DurableShard::open(
            shard_dir(&self.dir, s),
            self.lake,
            &self.stores[s],
            self.registry,
            self.platform,
            self.online,
            self.durable,
            s,
            &mut poison_guard(&mut poison),
        )?;
        let status = match rep.replay_crashed {
            Some(seq) => Err(Stop::Crashed(seq)),
            None => Ok(shard.fed()),
        };
        Ok(Started {
            unit: Box::new(ThreadUnit { shard, poison }),
            replayed: rep.outputs_replayed,
            status,
        })
    }

    fn feed(
        &self,
        unit: &mut Self::Unit,
        outs: &[IngestOutput],
        routed: &[usize],
        from: u64,
    ) -> Step<(), WalError> {
        let pairs = (from..).zip(routed.iter().map(|&g| outs[g]));
        Ok(
            match push_outputs(&mut unit.shard, &mut unit.poison, pairs)? {
                Some(seq) => Err(Stop::Crashed(seq)),
                None => Ok(()),
            },
        )
    }

    fn arm(&self, unit: &mut Self::Unit, seq: u64, fails: u32) -> Result<(), Stop> {
        unit.poison.insert(seq, fails);
        Ok(())
    }

    fn hang(&self, _unit: &mut Self::Unit) -> Result<(), Stop> {
        // A hung slot is never fed again, so the unit needs no message.
        Ok(())
    }

    fn finish(&self, unit: &mut Self::Unit, end: SimTime) -> Step<ShardRun, WalError> {
        let ThreadUnit { shard, poison } = &mut **unit;
        Ok(match shard.finish(end, &mut poison_guard(poison))? {
            FlushStatus::Crashed { seq } => Err(Stop::Crashed(seq)),
            FlushStatus::Clean => Ok((
                shard.alarms().to_vec(),
                shard.score_trace().to_vec(),
                shard.scored(),
            )),
        })
    }

    fn kill(&self, _unit: Self::Unit) -> bool {
        false
    }

    fn retire(&self, _unit: Self::Unit) {}

    fn shutdown(&self, _unit: Self::Unit) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::GapRecord;
    use crate::procserve::{ModelSpec, ProcConfig, ProcError, ProcSupervisor, WorkerCommand};
    use crate::serve::{make_stores, shard_of};
    use crate::wal::ShardedDurable;
    use mfp_dram::address::{CellAddr, DimmId};
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::{CeEvent, MemEvent};
    use mfp_dram::spec::DimmSpec;
    use mfp_features::fault_analysis::FaultThresholds;
    use mfp_features::labeling::ProblemConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test invocation (parallel-safe).
    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "mfp_sup_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create scratch dir");
        d
    }

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
        let dimms: Vec<DimmId> = (0..8u32).map(|k| DimmId::new(k, (k % 2) as u8)).collect();
        for &id in &dimms {
            lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        }
        dimms
    }

    /// A canonical ingest-output stream: time-ordered released events
    /// (half the fleet risky) with two collection gaps in the middle.
    fn outputs(dimms: &[DimmId]) -> Vec<IngestOutput> {
        let mut out: Vec<IngestOutput> = (0..20 * dimms.len() as u64)
            .map(|k| {
                let d = dimms[(k % dimms.len() as u64) as usize];
                IngestOutput::Released(risky_ce(1_000 + k * 1_800, d, d.server.0.is_multiple_of(2)))
            })
            .collect();
        out.insert(
            40,
            IngestOutput::Gap(GapRecord {
                dimm: dimms[0],
                from: SimTime::from_secs(50_000),
                to: SimTime::from_secs(90_000),
            }),
        );
        out.insert(
            90,
            IngestOutput::Gap(GapRecord {
                dimm: dimms[3],
                from: SimTime::from_secs(120_000),
                to: SimTime::from_secs(170_000),
            }),
        );
        out
    }

    fn oracle(
        lake: &DataLake,
        registry: &ModelRegistry,
        outs: &[IngestOutput],
        end: SimTime,
    ) -> (Vec<Alarm>, Vec<ScoreRecord>, u64) {
        let store = FeatureStore::new(ProblemConfig::default(), FaultThresholds::default());
        let mut p = OnlinePredictor::new(
            lake,
            &store,
            registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
        );
        p.set_score_trace(true);
        for out in outs {
            p.apply(out);
        }
        p.finish(end);
        (p.alarms().to_vec(), p.score_trace().to_vec(), p.scored())
    }

    fn traced() -> DurableConfig {
        DurableConfig {
            batch: 4,
            compact_every: u64::MAX,
            record_scores: true,
            ..DurableConfig::default()
        }
    }

    const END: SimTime = SimTime::from_secs(40 * 86_400);

    #[test]
    fn clean_supervised_run_matches_the_sequential_oracle() {
        for shards in [1usize, 2, 4] {
            let lake = DataLake::new();
            let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
            let dimms = setup(&lake);
            let outs = outputs(&dimms);
            let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, END);
            assert!(
                !ref_alarms.is_empty(),
                "oracle must alarm for the test to bite"
            );

            let dir = test_dir("clean");
            let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
            let sup = Supervisor::new(
                &dir,
                &lake,
                &stores,
                &registry,
                Platform::IntelPurley,
                OnlineConfig::default(),
                traced(),
                SuperviseConfig::default(),
            )
            .unwrap();
            let out = sup.run(&outs, END, &ChaosPlan::none()).unwrap();
            assert_eq!(out.alarms, ref_alarms, "{shards} shards: alarms");
            assert_eq!(out.scores, ref_scores, "{shards} shards: scores");
            assert_eq!(out.scored, ref_scored, "{shards} shards: scored");
            assert_eq!(out.live_shards, shards);
            assert_eq!(out.report.restarts, 0);
            assert_eq!(out.report.panics_caught, 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn seeded_chaos_schedules_recover_bit_identically() {
        for shards in [1usize, 2, 4] {
            let lake = DataLake::new();
            let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
            let dimms = setup(&lake);
            let outs = outputs(&dimms);
            let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, END);

            for seed in [7u64, 21, 99] {
                let plan = ChaosPlan::seeded(seed, shards, outs.len(), 6, 2);
                let dir = test_dir("seeded");
                let stores =
                    make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
                let sup = Supervisor::new(
                    &dir,
                    &lake,
                    &stores,
                    &registry,
                    Platform::IntelPurley,
                    OnlineConfig::default(),
                    traced(),
                    SuperviseConfig::default(),
                )
                .unwrap();
                let out = sup.run(&outs, END, &plan).unwrap();
                assert_eq!(
                    out.alarms, ref_alarms,
                    "shards={shards} seed={seed}: alarms"
                );
                assert_eq!(
                    out.scores, ref_scores,
                    "shards={shards} seed={seed}: scores"
                );
                assert_eq!(
                    out.scored, ref_scored,
                    "shards={shards} seed={seed}: scored"
                );
                assert_eq!(out.live_shards, shards);
                assert!(
                    out.report.quarantined.is_empty(),
                    "seeded plans are transient"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn seeded_chaos_with_compaction_keeps_alarms_and_scores_identical() {
        // Since checkpoint v3 the score trace rides inside the `MFC1`
        // envelope, so even with compaction folding the WAL away the
        // gate is the full score identity, not just alarms.
        for shards in [2usize, 4] {
            let lake = DataLake::new();
            let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
            let dimms = setup(&lake);
            let outs = outputs(&dimms);
            let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, END);
            let plan = ChaosPlan::seeded(5, shards, outs.len(), 6, 2);
            let dir = test_dir("compacting");
            let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
            let cfg = DurableConfig {
                batch: 3,
                compact_every: 4,
                record_scores: true,
                ..DurableConfig::default()
            };
            let sup = Supervisor::new(
                &dir,
                &lake,
                &stores,
                &registry,
                Platform::IntelPurley,
                OnlineConfig::default(),
                cfg,
                SuperviseConfig::default(),
            )
            .unwrap();
            let out = sup.run(&outs, END, &plan).unwrap();
            assert_eq!(out.alarms, ref_alarms, "shards={shards}: alarms");
            assert_eq!(out.scores, ref_scores, "shards={shards}: scores");
            assert_eq!(out.scored, ref_scored, "shards={shards}: scored");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn backoff_exponent_is_bounded_at_the_shift_boundary() {
        // Plain doubling under the cap.
        assert_eq!(bounded_backoff(1, u64::MAX, 1), 1);
        assert_eq!(bounded_backoff(1, u64::MAX, 5), 16);
        assert_eq!(bounded_backoff(3, 16, 40), 16);
        // Boundary: the msb lands exactly on bit 63 without wrapping.
        assert_eq!(bounded_backoff(1, u64::MAX, 64), 1 << 63);
        // One past the boundary saturates instead of shifting out.
        assert_eq!(bounded_backoff(1, u64::MAX, 65), u64::MAX);
        // The old code wrapped `6 << 63` to zero here and collapsed the
        // delay back to 1; the bounded exponent saturates instead.
        assert_eq!(bounded_backoff(6, u64::MAX, 64), u64::MAX);
        assert_eq!(bounded_backoff(6, 1 << 40, 64), 1 << 40);
        // Degenerate bases stay within [1, cap].
        assert_eq!(bounded_backoff(0, 16, 3), 1);
        assert_eq!(bounded_backoff(1, u64::MAX, u32::MAX), u64::MAX);
        // Monotone in the restart count, so min(cap) is a true clamp.
        let mut prev = 0;
        for n in 1..80 {
            let d = bounded_backoff(5, u64::MAX, n);
            assert!(d >= prev, "backoff must not shrink at n={n}");
            prev = d;
        }
    }

    #[test]
    fn injected_panics_are_caught_and_retried_to_identity() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, END);

        let plan = ChaosPlan {
            events: vec![
                ChaosEvent {
                    at_output: 10,
                    shard: 0,
                    kind: ChaosKind::Panic { fails: 2 },
                },
                ChaosEvent {
                    at_output: 70,
                    shard: 1,
                    kind: ChaosKind::Panic { fails: 1 },
                },
            ],
        };
        let dir = test_dir("panic");
        let stores = make_stores(2, ProblemConfig::default(), FaultThresholds::default());
        let sup = Supervisor::new(
            &dir,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            SuperviseConfig::default(),
        )
        .unwrap();
        let out = sup.run(&outs, END, &plan).unwrap();
        assert!(out.report.panics_caught >= 2, "panics: {:?}", out.report);
        assert!(out.report.restarts >= 2, "restarts: {:?}", out.report);
        assert!(out.report.quarantined.is_empty());
        assert_eq!(out.alarms, ref_alarms);
        assert_eq!(out.scores, ref_scores);
        assert_eq!(out.scored, ref_scored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hung_shards_are_detected_and_restarted() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &outs, END);

        let plan = ChaosPlan {
            events: vec![ChaosEvent {
                at_output: 30,
                shard: 0,
                kind: ChaosKind::Hang,
            }],
        };
        let dir = test_dir("hang");
        let stores = make_stores(2, ProblemConfig::default(), FaultThresholds::default());
        let sup = Supervisor::new(
            &dir,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            SuperviseConfig::default(),
        )
        .unwrap();
        let out = sup.run(&outs, END, &plan).unwrap();
        assert_eq!(out.report.hangs_detected, 1);
        assert!(out.report.restarts >= 1);
        assert_eq!(out.alarms, ref_alarms);
        assert_eq!(out.scores, ref_scores);
        assert_eq!(out.scored, ref_scored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poison_outputs_are_quarantined_and_persist_across_runs() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let shards = 2usize;
        let target = 50usize;
        let poisoned_shard = shard_route(&outs[target], shards);

        // The degraded oracle: the canonical stream minus the poisoned
        // output.
        let filtered: Vec<IngestOutput> = outs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != target)
            .map(|(_, o)| *o)
            .collect();
        let (ref_alarms, ref_scores, ref_scored) = oracle(&lake, &registry, &filtered, END);

        let plan = ChaosPlan {
            events: vec![ChaosEvent {
                at_output: target as u64,
                shard: poisoned_shard,
                kind: ChaosKind::Poison,
            }],
        };
        let dir = test_dir("poison");
        let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let sup = Supervisor::new(
            &dir,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            SuperviseConfig::default(),
        )
        .unwrap();
        let out = sup.run(&outs, END, &plan).unwrap();
        assert_eq!(out.report.quarantined_outputs, vec![target as u64]);
        assert_eq!(out.report.quarantined.len(), 1);
        assert_eq!(out.report.quarantined[0].0, poisoned_shard);
        assert_eq!(
            out.report.panics_caught,
            u64::from(SuperviseConfig::default().quarantine_after)
        );
        assert_eq!(
            out.live_shards, shards,
            "quarantine must keep the shard alive"
        );
        assert_eq!(out.alarms, ref_alarms, "degraded oracle alarms");
        assert_eq!(out.scores, ref_scores, "degraded oracle scores");
        assert_eq!(out.scored, ref_scored, "degraded oracle scored");

        // A second run over the same root: the quarantine is persisted in
        // the side log, so the poison never crashes anything again.
        let stores2 = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let sup2 = Supervisor::new(
            &dir,
            &lake,
            &stores2,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            SuperviseConfig::default(),
        )
        .unwrap();
        let out2 = sup2.run(&outs, END, &ChaosPlan::none()).unwrap();
        assert_eq!(
            out2.report.restarts, 0,
            "persisted quarantine: {:?}",
            out2.report
        );
        assert_eq!(out2.report.panics_caught, 0);
        assert_eq!(out2.alarms, ref_alarms);
        assert_eq!(out2.scored, ref_scored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_restart_budget_fails_the_shard_but_others_serve() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let shards = 2usize;
        let target = 50usize;
        let poisoned_shard = shard_route(&outs[target], shards);
        let (ref_alarms, ref_scores, _) = oracle(&lake, &registry, &outs, END);

        let plan = ChaosPlan {
            events: vec![ChaosEvent {
                at_output: target as u64,
                shard: poisoned_shard,
                kind: ChaosKind::Poison,
            }],
        };
        let dir = test_dir("budget");
        let stores = make_stores(shards, ProblemConfig::default(), FaultThresholds::default());
        let cfg = SuperviseConfig {
            max_restarts: 2,
            quarantine_after: 100, // never quarantine: exhaust the budget
            ..SuperviseConfig::default()
        };
        let sup = Supervisor::new(
            &dir,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            cfg,
        )
        .unwrap();
        let out = sup.run(&outs, END, &plan).unwrap();
        assert_eq!(out.report.failed_shards, vec![poisoned_shard]);
        assert_eq!(out.live_shards, shards - 1);

        // Graceful degradation: the live shard's output is exactly the
        // oracle restricted to its DIMMs.
        let live_alarms: Vec<Alarm> = ref_alarms
            .iter()
            .filter(|a| shard_of(a.dimm, shards) != poisoned_shard)
            .copied()
            .collect();
        let live_scores: Vec<ScoreRecord> = ref_scores
            .iter()
            .filter(|r| shard_of(r.dimm, shards) != poisoned_shard)
            .copied()
            .collect();
        assert!(!live_alarms.is_empty(), "live shard must still alarm");
        assert_eq!(out.alarms, live_alarms);
        assert_eq!(out.scores, live_scores);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_means_same_outcome() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let plan = ChaosPlan::seeded(1234, 2, outs.len(), 8, 2);
        assert_eq!(plan, ChaosPlan::seeded(1234, 2, outs.len(), 8, 2));

        let mut runs = Vec::new();
        for _ in 0..2 {
            let dir = test_dir("determinism");
            let stores = make_stores(2, ProblemConfig::default(), FaultThresholds::default());
            let sup = Supervisor::new(
                &dir,
                &lake,
                &stores,
                &registry,
                Platform::IntelPurley,
                OnlineConfig::default(),
                traced(),
                SuperviseConfig::default(),
            )
            .unwrap();
            let out = sup.run(&outs, END, &plan).unwrap();
            runs.push((out.alarms, out.scores, out.scored, out.report));
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(runs[0], runs[1], "same seed, same supervised outcome");
    }

    /// A worker-process supervisor over the same catalog and model as
    /// [`setup`]; the workers are re-execs of this test harness.
    fn proc_sup(dir: &Path, shards: usize) -> Result<ProcSupervisor, ProcError> {
        ProcSupervisor::new(
            dir,
            WorkerCommand::test_harness("ipc_worker_entry").expect("resolve test harness"),
            shards,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            ProblemConfig::default(),
            FaultThresholds::default(),
            ModelSpec::default_risky_ce(),
            (0..8u32)
                .map(|k| (DimmId::new(k, (k % 2) as u8), DimmSpec::default()))
                .collect(),
            ProcConfig::default(),
        )
    }

    #[test]
    fn zero_shards_is_an_error_on_every_constructor() {
        let lake = DataLake::new();
        let registry = ModelRegistry::new();
        let dir = test_dir("zero");
        let none: &[FeatureStore] = &[];
        let durable = ShardedDurable::open(
            &dir,
            &lake,
            none,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
        );
        assert!(matches!(durable, Err(WalError::ZeroShards)));
        let sup = Supervisor::new(
            &dir,
            &lake,
            none,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            SuperviseConfig::default(),
        );
        assert!(matches!(sup, Err(WalError::ZeroShards)));
        assert!(matches!(
            proc_sup(&dir, 0),
            Err(ProcError::Wal(WalError::ZeroShards))
        ));
        assert!(
            !dir.join("meta.bin").exists(),
            "a refused root records no shard count"
        );
        // The store helper builds no store for no shards, so the thread
        // host refuses a request for none as the process host does.
        let stores = make_stores(0, ProblemConfig::default(), FaultThresholds::default());
        let sup = Supervisor::new(
            &dir,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            SuperviseConfig::default(),
        );
        assert!(matches!(sup, Err(WalError::ZeroShards)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every `supervise_*` series recorded under `host` equals its
    /// report field.
    fn assert_series_match_report(reg: &mfp_obs::Registry, host: &str, out: &SupervisedOutcome) {
        let snap = reg.snapshot();
        let label = [("host", host)];
        let r = &out.report;
        // Distinct, non-zero counts, so a series recorded under another
        // one's name cannot pass.
        let mut counts = [r.kills_injected, r.hangs_detected, r.panics_caught];
        counts.sort_unstable();
        assert!(
            counts[0] > 0 && counts[0] < counts[1] && counts[1] < counts[2],
            "{host}: the plan must kill, hang and panic different numbers of times: {r:?}"
        );
        for (series, field) in [
            ("supervise_restarts", r.restarts),
            ("supervise_spawns", r.spawns),
            ("supervise_sigkills", r.sigkills),
            ("supervise_heartbeat_misses", r.heartbeat_misses),
            ("supervise_panics_caught", r.panics_caught),
            ("supervise_hangs_detected", r.hangs_detected),
            ("supervise_kills_injected", r.kills_injected),
            ("supervise_replayed_outputs", r.replayed_outputs),
        ] {
            assert_eq!(
                snap.counter_labeled(series, &label),
                Some(field),
                "{host}: {series}"
            );
        }
        let live = snap
            .gauges
            .iter()
            .find(|g| {
                g.name == "supervise_live_shards" && g.labels == [("host".into(), host.into())]
            })
            .map(|g| g.value);
        assert_eq!(live, Some(out.live_shards as f64), "{host}: live shards");
    }

    #[test]
    fn supervision_series_equal_the_report_on_both_hosts() {
        let lake = DataLake::new();
        let registry = ModelSpec::default_risky_ce().registry(Platform::IntelPurley);
        let dimms = setup(&lake);
        let outs = outputs(&dimms);
        let plan = ChaosPlan {
            events: vec![
                ChaosEvent {
                    at_output: 30,
                    shard: 0,
                    kind: ChaosKind::Kill { torn_bytes: 13 },
                },
                ChaosEvent {
                    at_output: 75,
                    shard: 1,
                    kind: ChaosKind::Hang,
                },
                ChaosEvent {
                    at_output: 100,
                    shard: 1,
                    kind: ChaosKind::Kill { torn_bytes: 7 },
                },
                ChaosEvent {
                    at_output: 120,
                    shard: 0,
                    kind: ChaosKind::Panic { fails: 2 },
                },
                ChaosEvent {
                    at_output: 140,
                    shard: 1,
                    kind: ChaosKind::Panic { fails: 2 },
                },
            ],
        };

        let dir = test_dir("series_thread");
        let stores = make_stores(2, ProblemConfig::default(), FaultThresholds::default());
        let sup = Supervisor::new(
            &dir,
            &lake,
            &stores,
            &registry,
            Platform::IntelPurley,
            OnlineConfig::default(),
            traced(),
            SuperviseConfig::default(),
        )
        .unwrap();
        let reg = mfp_obs::Registry::new();
        let out = mfp_obs::with_registry(&reg, || sup.run(&outs, END, &plan)).unwrap();
        assert_series_match_report(&reg, "thread", &out);
        let _ = std::fs::remove_dir_all(&dir);

        let dir = test_dir("series_process");
        let sup = proc_sup(&dir, 2).unwrap();
        let reg = mfp_obs::Registry::new();
        let out = mfp_obs::with_registry(&reg, || sup.run(&outs, END, &plan)).unwrap();
        assert!(out.report.sigkills > 0, "{:?}", out.report);
        assert_series_match_report(&reg, "process", &out);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
