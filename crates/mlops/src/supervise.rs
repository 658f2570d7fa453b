//! Shard supervision: restartable serving units with crash capture,
//! hang detection, deterministic backoff and poison-record quarantine.
//!
//! [`crate::wal::ShardedDurable`] gives every shard its own log and
//! checkpoint chain (the `MFW2` layout), but leaves the caller to decide
//! what happens when a shard misbehaves. This module is that decision:
//! a [`Supervisor`] runs each [`crate::wal::DurableShard`] as a
//! restartable unit and keeps the *fleet* serving while individual
//! shards crash, hang or choke on poison records.
//!
//! # Policy
//!
//! * **Panic capture.** Every state mutation runs inside
//!   `catch_unwind`: a panicking apply is converted into a
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
//!   silences a live one's DIMMs).
//! * **Quarantine.** An output that crashes the same shard
//!   [`SuperviseConfig::quarantine_after`] times is appended to the
//!   shard's `quarantine.log` and skipped from then on — including by
//!   recovery after a real process death, because the side log is read
//!   back at open. Deleting the file is the operator's escape hatch.
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
use crate::serve::shard_route;
use crate::wal::{
    check_meta, quarantine_output, shard_dir, ApplyVerdict, DurableConfig, DurableShard,
    FlushStatus, WalError,
};
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

/// Supervision policy knobs. Time is logical: one tick per output of
/// the canonical stream.
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
    /// Panics converted into crash verdicts by the apply guard.
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
    /// Everything the supervisor did along the way.
    pub report: SupervisorReport,
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
    /// Armed injected panics per per-shard sequence number
    /// (`u32::MAX` = permanent poison).
    poison: BTreeMap<u64, u32>,
    pending: Vec<Pending>,
}

/// Lifecycle state of one shard's unit.
#[derive(Debug)]
enum Slot<'a> {
    /// Serving; fed every output routed to it.
    Up(Box<DurableShard<'a>>),
    /// Stopped making progress at tick `since`; killed once the
    /// heartbeat timeout elapses.
    Hung {
        since: u64,
        unit: Box<DurableShard<'a>>,
    },
    /// Waiting out its restart backoff.
    Down { until: u64 },
    /// Restart budget exhausted; permanently out of the merge.
    Failed,
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

/// Runs one [`DurableShard`] per feature store as restartable units over
/// a canonical output stream, applying the policy in [`SuperviseConfig`]
/// and the injected failures of a [`ChaosPlan`].
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
    /// I/O failures, or a root whose meta file disagrees with `stores`.
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

    /// The shard's next backoff slot after its `n`-th restart.
    fn backoff(&self, n: u32) -> u64 {
        bounded_backoff(self.cfg.backoff_base, self.cfg.backoff_cap, n)
    }

    /// Books one restart against the shard's budget: a backoff slot, or
    /// [`Slot::Failed`] once the budget is spent.
    fn schedule_restart(
        &self,
        s: usize,
        now: u64,
        ctl: &mut ShardCtl,
        report: &mut SupervisorReport,
    ) -> Slot<'a> {
        ctl.restarts += 1;
        report.restarts += 1;
        if ctl.restarts > self.cfg.max_restarts {
            if !report.failed_shards.contains(&s) {
                report.failed_shards.push(s);
            }
            Slot::Failed
        } else {
            Slot::Down {
                until: now + self.backoff(ctl.restarts),
            }
        }
    }

    /// Accounts one caught crash at per-shard `seq`: bumps the crash
    /// counter, quarantines the output once it reaches the threshold,
    /// and schedules the restart.
    #[allow(clippy::too_many_arguments)]
    fn crash_slot(
        &self,
        s: usize,
        seq: u64,
        now: u64,
        outs: &[IngestOutput],
        routed_s: &[usize],
        ctl: &mut ShardCtl,
        report: &mut SupervisorReport,
    ) -> Result<Slot<'a>, WalError> {
        report.panics_caught += 1;
        let count = ctl.crash_counts.entry(seq).or_insert(0);
        *count += 1;
        if *count >= self.cfg.quarantine_after {
            if let Some(&gidx) = routed_s.get(seq as usize) {
                quarantine_output(&shard_dir(&self.dir, s), seq, &outs[gidx])?;
                report.quarantined.push((s, seq));
                report.quarantined_outputs.push(gidx as u64);
            }
        }
        Ok(self.schedule_restart(s, now, ctl, report))
    }

    /// (Re)opens shard `s` and catches it up to the supervisor's routed
    /// backlog. A crash during replay or catch-up books a restart and
    /// returns the shard to backoff instead.
    fn restart_shard(
        &self,
        s: usize,
        now: u64,
        outs: &[IngestOutput],
        routed_s: &[usize],
        ctl: &mut ShardCtl,
        report: &mut SupervisorReport,
    ) -> Result<Slot<'a>, WalError> {
        let crashed_seq;
        {
            let mut guard = poison_guard(&mut ctl.poison);
            let (mut unit, rep) = DurableShard::open(
                shard_dir(&self.dir, s),
                self.lake,
                &self.stores[s],
                self.registry,
                self.platform,
                self.online,
                self.durable,
                s,
                &mut guard,
            )?;
            report.replayed_outputs += rep.outputs_replayed;
            let mut crashed = rep.replay_crashed;
            if crashed.is_none() {
                let from = unit.fed() as usize;
                for &gidx in routed_s.get(from..).unwrap_or(&[]) {
                    match unit.push(outs[gidx], &mut guard)? {
                        FlushStatus::Clean => {}
                        FlushStatus::Crashed { seq } => {
                            crashed = Some(seq);
                            break;
                        }
                    }
                }
            }
            match crashed {
                None => return Ok(Slot::Up(Box::new(unit))),
                Some(seq) => crashed_seq = seq,
            }
        }
        self.crash_slot(s, crashed_seq, now, outs, routed_s, ctl, report)
    }

    /// One logical-time step of supervision housekeeping: kill hung
    /// units whose heartbeat timeout elapsed and restart units whose
    /// backoff expired.
    #[allow(clippy::too_many_arguments)]
    fn step_timers(
        &self,
        now: u64,
        outs: &[IngestOutput],
        routed: &[Vec<usize>],
        slots: &mut [Slot<'a>],
        ctl: &mut [ShardCtl],
        report: &mut SupervisorReport,
    ) -> Result<(), WalError> {
        for s in 0..slots.len() {
            let slot = std::mem::replace(&mut slots[s], Slot::Failed);
            slots[s] = match slot {
                Slot::Hung { since, unit } => {
                    if now.saturating_sub(since) >= self.cfg.heartbeat_timeout {
                        drop(unit);
                        report.hangs_detected += 1;
                        self.schedule_restart(s, now, &mut ctl[s], report)
                    } else {
                        Slot::Hung { since, unit }
                    }
                }
                Slot::Down { until } if now >= until => {
                    self.restart_shard(s, now, outs, &routed[s], &mut ctl[s], report)?
                }
                other => other,
            };
        }
        Ok(())
    }

    /// Feeds the canonical output stream through the supervised fleet
    /// under the injected failure schedule, then drains every restart
    /// and finishes prediction ticks up to `end`.
    ///
    /// For any schedule of kills, hangs, torn tails and *transient*
    /// panics, the outcome's merged alarms and scores are bit-identical
    /// to the uncrashed sequential oracle over the same stream; with
    /// permanent poisons, to the oracle over the stream minus
    /// [`SupervisorReport::quarantined_outputs`]; with failed shards, to
    /// the oracle restricted to live shards' DIMMs.
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
        let n = self.stores.len().max(1);
        let mut report = SupervisorReport::default();
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut ctl: Vec<ShardCtl> = (0..n).map(|_| ShardCtl::default()).collect();
        let mut slots: Vec<Slot<'a>> = Vec::with_capacity(n);
        for s in 0..n {
            let slot = self.restart_shard(s, 0, outs, &routed[s], &mut ctl[s], &mut report)?;
            slots.push(slot);
        }
        // The initial opens are recoveries, not restarts against the
        // budget: restart_shard only books crashes.

        let mut ev_i = 0usize;
        for (i, out) in outs.iter().enumerate() {
            let now = i as u64;
            self.step_timers(now, outs, &routed, &mut slots, &mut ctl, &mut report)?;

            // Fire this tick's injected failures.
            while ev_i < plan.events.len() && plan.events[ev_i].at_output <= now {
                let ev = plan.events[ev_i];
                ev_i += 1;
                if ev.shard >= n || ev.at_output < now {
                    continue;
                }
                match ev.kind {
                    ChaosKind::Kill { torn_bytes } => {
                        match std::mem::replace(&mut slots[ev.shard], Slot::Failed) {
                            Slot::Up(unit) | Slot::Hung { unit, .. } => {
                                drop(unit);
                                report.kills_injected += 1;
                                tear_wal_tail(&shard_dir(&self.dir, ev.shard), torn_bytes)?;
                                slots[ev.shard] = self.schedule_restart(
                                    ev.shard,
                                    now,
                                    &mut ctl[ev.shard],
                                    &mut report,
                                );
                            }
                            other => slots[ev.shard] = other,
                        }
                    }
                    ChaosKind::Hang => {
                        match std::mem::replace(&mut slots[ev.shard], Slot::Failed) {
                            Slot::Up(unit) => slots[ev.shard] = Slot::Hung { since: now, unit },
                            other => slots[ev.shard] = other,
                        }
                    }
                    ChaosKind::Panic { fails } => {
                        ctl[ev.shard].pending.push(Pending::Transient(fails));
                    }
                    ChaosKind::Poison => ctl[ev.shard].pending.push(Pending::Permanent),
                }
            }

            // Route the output; bind any pending poison to its per-shard
            // sequence number (a stable coordinate across restarts).
            let s = shard_route(out, n);
            let seq = routed[s].len() as u64;
            if !ctl[s].pending.is_empty() {
                let pending = std::mem::take(&mut ctl[s].pending);
                let e = ctl[s].poison.entry(seq).or_insert(0);
                for p in pending {
                    match p {
                        // Transient fails are capped below the quarantine
                        // threshold so stacked injections stay transient.
                        Pending::Transient(fails) => {
                            if *e != u32::MAX {
                                *e = (*e + fails).min(self.cfg.quarantine_after.saturating_sub(1));
                            }
                        }
                        Pending::Permanent => *e = u32::MAX,
                    }
                }
            }
            routed[s].push(i);

            let mut crashed: Option<u64> = None;
            if let Slot::Up(unit) = &mut slots[s] {
                // A recovered root can already cover this output (the
                // caller re-feeds from the start); skip what's covered.
                if seq >= unit.fed() {
                    let mut guard = poison_guard(&mut ctl[s].poison);
                    if let FlushStatus::Crashed { seq } = unit.push(*out, &mut guard)? {
                        crashed = Some(seq);
                    }
                }
            }
            if let Some(cseq) = crashed {
                drop(std::mem::replace(&mut slots[s], Slot::Failed));
                slots[s] =
                    self.crash_slot(s, cseq, now, outs, &routed[s], &mut ctl[s], &mut report)?;
            }
        }

        // Drain: expire every hang and backoff, catch shards up, and run
        // the final prediction ticks — re-entering the drain if a finish
        // flush crashes.
        let mut now = outs.len() as u64;
        loop {
            while slots
                .iter()
                .any(|sl| matches!(sl, Slot::Hung { .. } | Slot::Down { .. }))
            {
                self.step_timers(now, outs, &routed, &mut slots, &mut ctl, &mut report)?;
                now += 1;
            }
            let mut any_crash = false;
            for s in 0..n {
                let mut crashed: Option<u64> = None;
                if let Slot::Up(unit) = &mut slots[s] {
                    let mut guard = poison_guard(&mut ctl[s].poison);
                    if let FlushStatus::Crashed { seq } = unit.finish(end, &mut guard)? {
                        crashed = Some(seq);
                    }
                }
                if let Some(cseq) = crashed {
                    drop(std::mem::replace(&mut slots[s], Slot::Failed));
                    slots[s] =
                        self.crash_slot(s, cseq, now, outs, &routed[s], &mut ctl[s], &mut report)?;
                    any_crash = true;
                }
            }
            if !any_crash {
                break;
            }
            now += 1;
        }

        let mut alarms: Vec<Alarm> = Vec::new();
        let mut scores: Vec<ScoreRecord> = Vec::new();
        let mut scored = 0u64;
        let mut live_shards = 0usize;
        for sl in &slots {
            if let Slot::Up(unit) = sl {
                live_shards += 1;
                alarms.extend_from_slice(unit.alarms());
                scores.extend_from_slice(unit.score_trace());
                scored += unit.scored();
            }
        }
        alarms.sort_by_key(|a| (a.time, a.dimm));
        scores.sort_by_key(|r| (r.time, r.dimm));

        mfp_obs::counter("serve_shard_restarts", &[]).add(report.restarts);
        mfp_obs::counter("serve_shard_panics", &[]).add(report.panics_caught);
        mfp_obs::counter("serve_shard_hangs", &[]).add(report.hangs_detected);
        mfp_obs::counter("serve_shard_kills", &[]).add(report.kills_injected);
        mfp_obs::gauge("serve_live_shards", &[]).set(live_shards as f64);

        Ok(SupervisedOutcome {
            alarms,
            scores,
            scored,
            live_shards,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::GapRecord;
    use crate::serve::{make_stores, shard_of};
    use mfp_dram::address::{CellAddr, DimmId};
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::{CeEvent, MemEvent};
    use mfp_dram::spec::DimmSpec;
    use mfp_features::fault_analysis::FaultThresholds;
    use mfp_features::labeling::ProblemConfig;
    use mfp_ml::metrics::{Confusion, Evaluation};
    use mfp_ml::model::{Algorithm, Model};
    use mfp_ml::risky_ce::RiskyCePattern;
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

    fn setup(lake: &DataLake, registry: &ModelRegistry) -> Vec<DimmId> {
        let dimms: Vec<DimmId> = (0..8u32).map(|k| DimmId::new(k, (k % 2) as u8)).collect();
        for &id in &dimms {
            lake.register_dimm(id, Platform::IntelPurley, DimmSpec::default());
        }
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
            Model::RiskyCe(RiskyCePattern::default()),
        );
        registry.promote(mid);
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
            let registry = ModelRegistry::new();
            let dimms = setup(&lake, &registry);
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
            let registry = ModelRegistry::new();
            let dimms = setup(&lake, &registry);
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
            let registry = ModelRegistry::new();
            let dimms = setup(&lake, &registry);
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
        let registry = ModelRegistry::new();
        let dimms = setup(&lake, &registry);
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
        let registry = ModelRegistry::new();
        let dimms = setup(&lake, &registry);
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
        let registry = ModelRegistry::new();
        let dimms = setup(&lake, &registry);
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
        let registry = ModelRegistry::new();
        let dimms = setup(&lake, &registry);
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
        let registry = ModelRegistry::new();
        let dimms = setup(&lake, &registry);
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
}
