//! Event-driven fleet simulation: the one engine behind
//! [`simulate_fleet`](crate::fleet::simulate_fleet), pinned bit for bit
//! to the sequential tick walk
//! [`simulate_fleet_tick`](crate::fleet::simulate_fleet_tick).
//!
//! The tick walk plays every DIMM through
//! [`simulate_dimm_ras`](crate::dimm::simulate_dimm_ras) and materializes
//! each event as a 152-byte [`MemEvent`] that is then sorted. On a sparse
//! fleet — the production regime the paper studies, where most DIMMs log
//! nothing for months — almost all of that work is bookkeeping around
//! quiet time. This engine replaces the execution strategy while keeping
//! the *event stream* bit-identical:
//!
//! * **Scheduled transitions, not ticks.** Each fault's Poisson hit times
//!   are drawn once (the same draws, in the same order, from the same
//!   per-DIMM SplitMix64-derived seed as the oracle) and become scheduled
//!   transition events. A DIMM with no in-horizon transition never enters
//!   any queue; after a UE, its remaining scheduled transitions are
//!   dropped without being simulated — quiet time costs nothing.
//! * **Shards on a worker pool.** The planned fleet is cut into
//!   [`ShardConfig::shards`] contiguous sub-fleets that
//!   [`ShardConfig::workers`] threads simulate; each worker hands its
//!   finished shards back through its join handle.
//! * **A two-level `(time, dimm_id, seq)` event queue.** Per shard,
//!   transitions are placed into a *calendar queue* (fixed-width time
//!   buckets over the horizon); each small bucket is sorted by the total
//!   key `(time, stream, seq)`. Across shards, a k-way heap of shard heads
//!   merges on `(time, dimm_id)`.
//! * **SoA event buffers with delta-encoded timestamps.** Events live in
//!   struct-of-arrays form: a kind byte, a `u32` delta from the DIMM's
//!   previous event, a packed address-or-count word, and the transfer's
//!   nonzero beats in a shared lane arena. [`MemEvent`]s are
//!   reconstructed on the fly as the merge hands them to the sink.
//! * **Beat-level decode memoization.** One
//!   [`BeatMemoEcc`](mfp_ecc::platforms::BeatMemoEcc) per worker replaces
//!   the per-platform mutex-guarded burst caches; per-DIMM scratch
//!   (hit lists, storm windows, fault-active flags) is arena-reused
//!   across a worker's DIMMs.
//!
//! # Determinism scheme
//!
//! Every DIMM's RNG stream is seeded by SplitMix64 from
//! `(master_seed, platform_index, dimm_index)` — stable *plan
//! coordinates* fixed during the sequential planning phase, before any
//! shard or worker exists. Worker identity and shard identity never enter
//! the derivation, so the set of generated events is a pure function of
//! the [`FleetConfig`]. (A naive "seed per shard, stream within shard"
//! scheme would make the events themselves depend on the shard count;
//! deriving per-DIMM streams from plan coordinates is what lets the shard
//! count be a pure execution detail.)
//!
//! # Merge ordering key
//!
//! The oracle orders events by a stable time sort over plan-major push
//! order. Because every plan owns a distinct, strictly increasing server
//! id, that order is exactly `(time, dimm_id, within-DIMM push
//! sequence)`. Streams are laid out in plan (= ascending `DimmId`) order,
//! so each shard's bucket sort on `(time, stream, seq)` yields that order
//! within the shard, and the k-way merge compares `(time, dimm_id)`
//! across shard heads — a DIMM lives in exactly one shard, so the
//! composite key is total.
//!
//! # Memory
//!
//! A shard's earliest event is unknowable until the shard finishes, so
//! every shard's SoA buffer is resident when the merge starts. The merged
//! stream itself is never materialized: [`EventFleet::run_stream`] hands
//! each reconstructed event to the sink and drops it.
//!
//! # Why the tick walk stays the oracle
//!
//! The event engine re-derives the oracle's behaviour from the same RNG
//! streams but shares none of its execution code — decode goes through a
//! different cache, events through a different container, ordering
//! through a different queue. [`tests`] and `tests/prop_events.rs` pin
//! the two against each other across seeds, shard counts, worker counts,
//! CE storms and RAS policies (ADDDC included); a refactor that breaks
//! any replicated invariant (draw order, storm bookkeeping, merge key)
//! shows up as a stream mismatch instead of silently shipping.

use crate::config::FleetConfig;
use crate::dimm::{DimmOutcome, StormPolicy};
use crate::fleet::{plan_fleet, DimmTruth, FleetResult, PlannedDimm};
use crate::gen::DimmPlan;
use crate::ras::{AdddcState, RasPolicy, RasReport, RasState};
use mfp_dram::address::{CellAddr, DimmId};
use mfp_dram::bmc::BmcLog;
use mfp_dram::bus::ErrorTransfer;
use mfp_dram::event::{CeEvent, CeStormEvent, MemEvent, UeEvent};
use mfp_dram::geometry::{Platform, BURST_BEATS};
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::{SimDuration, SimTime};
use mfp_ecc::platforms::BeatMemoEcc;
use mfp_ecc::scheme::DecodeOutcome;
use mfp_rng::StdRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::sharded::{ShardConfig, ShardStats, ShardedOutcome, ShardedStats};

/// Calendar-queue bucket width. One hour keeps buckets small (tens to a
/// few hundred entries on realistic fleets) without allocating millions
/// of buckets for multi-year horizons.
const BUCKET_SECS: u64 = 3600;

const KIND_CE: u8 = 0;
const KIND_UE: u8 = 1;
const KIND_STORM: u8 = 2;

/// Packs a [`CellAddr`] into one `u64` payload word.
fn pack_addr(addr: &CellAddr) -> u64 {
    (u64::from(addr.rank) << 56)
        | (u64::from(addr.bank) << 48)
        | (u64::from(addr.col) << 32)
        | u64::from(addr.row)
}

/// Inverse of [`pack_addr`].
fn unpack_addr(word: u64) -> CellAddr {
    CellAddr::new(
        (word >> 56) as u8,
        (word >> 48) as u8,
        word as u32,
        (word >> 32) as u16,
    )
}

/// Struct-of-arrays event storage for one shard.
///
/// Events of one DIMM occupy a contiguous run in time order (the per-DIMM
/// simulation is sequential), so no per-event DIMM id is stored — the
/// stream table maps runs back to identities. Timestamps are deltas from
/// the same DIMM's previous event; transfers keep only their nonzero
/// beats (a beat mask plus an offset into a shared lane arena).
#[derive(Debug, Default)]
struct EventBuf {
    kind: Vec<u8>,
    dt: Vec<u32>,
    /// Packed [`CellAddr`] for CE/UE, storm count for storms.
    payload: Vec<u64>,
    /// Bitmask over beats with at least one erroneous lane bit.
    lane_mask: Vec<u8>,
    /// Offset of this event's first nonzero beat in `lanes`.
    lane_off: Vec<u32>,
    /// Nonzero beat lane words, in beat order, shared by all events.
    lanes: Vec<u128>,
}

impl EventBuf {
    fn len(&self) -> usize {
        self.kind.len()
    }

    fn push(&mut self, kind: u8, dt: u32, payload: u64, transfer: Option<&ErrorTransfer>) {
        let (mask, off) = match transfer {
            Some(t) => {
                let off = self.lanes.len() as u32;
                let mut mask = 0u8;
                for (beat, &lanes) in t.beats().iter().enumerate() {
                    if lanes != 0 {
                        mask |= 1 << beat;
                        self.lanes.push(lanes);
                    }
                }
                (mask, off)
            }
            None => (0, self.lanes.len() as u32),
        };
        self.kind.push(kind);
        self.dt.push(dt);
        self.payload.push(payload);
        self.lane_mask.push(mask);
        self.lane_off.push(off);
    }

    /// Reconstructs the [`MemEvent`] stored at `pos`; `time` and `dimm`
    /// come from the index entry and stream table.
    fn event_at(&self, pos: usize, time: SimTime, dimm: DimmId) -> MemEvent {
        if self.kind[pos] == KIND_STORM {
            return MemEvent::Storm(CeStormEvent {
                time,
                dimm,
                count: self.payload[pos] as u32,
            });
        }
        let mut beats = [0u128; BURST_BEATS as usize];
        let mask = self.lane_mask[pos];
        let mut off = self.lane_off[pos] as usize;
        for (beat, slot) in beats.iter_mut().enumerate() {
            if mask & (1 << beat) != 0 {
                *slot = self.lanes[off];
                off += 1;
            }
        }
        let transfer = ErrorTransfer::from_beats(beats);
        let addr = unpack_addr(self.payload[pos]);
        if self.kind[pos] == KIND_CE {
            MemEvent::Ce(CeEvent {
                time,
                dimm,
                addr,
                transfer,
            })
        } else {
            MemEvent::Ue(UeEvent {
                time,
                dimm,
                addr,
                transfer,
            })
        }
    }
}

/// Maps contiguous event runs in an [`EventBuf`] back to DIMM identities.
/// Streams are pushed in plan order, so stream index ascends with
/// [`DimmId`] — the property the within-shard sort key relies on.
#[derive(Debug, Default)]
struct StreamTable {
    dimm: Vec<DimmId>,
    start: Vec<u32>,
    len: Vec<u32>,
}

/// One shard's finished output: SoA events plus the sorted transition
/// index `(abs seconds, stream, event position)`.
struct EventShard {
    shard: usize,
    buf: EventBuf,
    streams: StreamTable,
    index: Vec<(u32, u32, u32)>,
    truths: Vec<DimmTruth>,
    stats: ShardStats,
}

/// Per-worker scratch reused across DIMMs: the hit list, the storm
/// window, and the fault-active flags never reallocate once warm.
#[derive(Debug, Default)]
struct DimmScratch {
    hits: Vec<(SimTime, usize)>,
    fault_active: Vec<bool>,
    recent_ces: VecDeque<SimTime>,
}

/// Simulates one DIMM into the shard's [`EventBuf`].
///
/// This mirrors [`simulate_dimm_ras`](crate::dimm::simulate_dimm_ras)
/// draw for draw — the RNG consumption sequence (hit-time sampling,
/// transfer sampling, address sampling) and the storm/RAS/ADDDC state
/// machines are replicated exactly, including the time-keyed
/// `sort_unstable` over an identically-built hit list, so the emitted
/// stream is bit-identical to the oracle's.
#[allow(clippy::too_many_arguments)]
fn simulate_dimm_events(
    plan: &DimmPlan,
    platform: Platform,
    horizon: SimDuration,
    storm: StormPolicy,
    ras_policy: Option<RasPolicy>,
    memo: &mut BeatMemoEcc,
    scratch: &mut DimmScratch,
    buf: &mut EventBuf,
    transitions: &mut u64,
    skipped_post_ue: &mut u64,
    rng: &mut StdRng,
) -> DimmOutcome {
    let DimmScratch {
        hits,
        fault_active,
        recent_ces,
    } = scratch;

    // Phase 1: schedule every fault's transition times. Identical draw
    // sequence and sort call to the oracle — the unstable time-keyed sort
    // makes equal-time ordering depend on the input Vec, so the Vec must
    // be built in the same append order.
    hits.clear();
    for (idx, fault) in plan.faults.iter().enumerate() {
        let rate_per_sec = fault.hit_rate_per_day / 86_400.0;
        let mut t = fault.onset;
        // Safety valve: no fault produces more than ~100k hits.
        for _ in 0..100_000 {
            let u: f64 = rng.random::<f64>().max(1e-300);
            let dt = -u.ln() / rate_per_sec;
            if !dt.is_finite() {
                break;
            }
            t += SimDuration::secs(dt.max(1.0) as u64);
            if t >= SimTime::ZERO + horizon {
                break;
            }
            hits.push((t, idx));
        }
    }
    hits.sort_unstable_by_key(|&(t, _)| t);

    let mut outcome = DimmOutcome {
        first_ue: None,
        logged_ces: 0,
        suppressed_ces: 0,
        storms: 0,
        sdc_hits: 0,
        ras: RasReport::default(),
        adddc_engaged: false,
    };
    recent_ces.clear();
    let mut suppressed_until: Option<SimTime> = None;
    let mut ras = ras_policy.map(RasState::new);
    let mut adddc = ras_policy.and_then(|p| p.adddc).map(AdddcState::new);
    fault_active.clear();
    fault_active.resize(plan.faults.len(), true);
    let mut last_time = SimTime::ZERO;

    for (i, &(t, idx)) in hits.iter().enumerate() {
        if !fault_active[idx] {
            continue;
        }
        *transitions += 1;
        let fault = &plan.faults[idx];
        let transfer = fault.sample_transfer(t, plan.spec.width, rng);
        let lockstep = adddc.as_ref().is_some_and(AdddcState::is_active);
        let outcome_decode = if lockstep {
            memo.decode_lockstep(&transfer, plan.spec.width)
        } else {
            memo.decode(platform, &transfer, plan.spec.width)
        };
        match outcome_decode {
            DecodeOutcome::Clean => {}
            DecodeOutcome::Corrected => {
                while recent_ces.front().is_some_and(|&t0| {
                    t.checked_duration_since(t0)
                        .is_some_and(|d| d.as_secs() > 60)
                }) {
                    recent_ces.pop_front();
                }
                recent_ces.push_back(t);

                let suppressed = suppressed_until.is_some_and(|u| t < u);
                if suppressed {
                    outcome.suppressed_ces += 1;
                    continue;
                }
                if recent_ces.len() as u32 >= storm.threshold {
                    outcome.storms += 1;
                    suppressed_until = Some(t + storm.suppression);
                    buf.push(
                        KIND_STORM,
                        (t - last_time).as_secs() as u32,
                        recent_ces.len() as u64,
                        None,
                    );
                    last_time = t;
                    recent_ces.clear();
                    continue;
                }
                outcome.logged_ces += 1;
                let addr = fault.sample_addr(&plan.spec.geometry, rng);
                buf.push(
                    KIND_CE,
                    (t - last_time).as_secs() as u32,
                    pack_addr(&addr),
                    Some(&transfer),
                );
                last_time = t;
                if let Some(ras) = ras.as_mut() {
                    let action = ras.observe_ce(&addr);
                    if ras.fault_is_mitigated(fault, action, &addr) {
                        fault_active[idx] = false;
                    }
                }
                if let Some(adddc) = adddc.as_mut() {
                    if adddc.observe_devices(transfer.device_mask(plan.spec.width)) {
                        outcome.adddc_engaged = true;
                    }
                }
            }
            DecodeOutcome::Ue => {
                outcome.first_ue = Some(t);
                let addr = fault.sample_addr(&plan.spec.geometry, rng);
                buf.push(
                    KIND_UE,
                    (t - last_time).as_secs() as u32,
                    pack_addr(&addr),
                    Some(&transfer),
                );
                // DIMM out of service: its remaining scheduled transitions
                // are dropped without sampling anything.
                *skipped_post_ue += (hits.len() - i - 1) as u64;
                break;
            }
            DecodeOutcome::Sdc => {
                outcome.sdc_hits += 1;
            }
        }
    }
    if let Some(ras) = ras {
        outcome.ras = ras.report();
    }
    outcome
}

/// Builds the shard's calendar-queue index: every event becomes an
/// `(absolute seconds, stream, position)` entry bucketed by hour, and
/// each bucket is `sort_unstable`d by the full tuple — `position` is
/// unique, so the key is a strict total order and the unstable sort is
/// deterministic. Concatenated buckets yield the shard's merge order
/// `(time, dimm_id, within-DIMM seq)`.
///
/// Returns the sorted index and the largest bucket population (queue
/// depth telemetry).
fn build_index(
    streams: &StreamTable,
    buf: &EventBuf,
    horizon_secs: u64,
) -> (Vec<(u32, u32, u32)>, usize) {
    let nb = (horizon_secs / BUCKET_SECS) as usize + 2;
    let mut counts = vec![0u32; nb];
    for si in 0..streams.dimm.len() {
        let start = streams.start[si] as usize;
        let len = streams.len[si] as usize;
        let mut t = 0u64;
        for pos in start..start + len {
            t += u64::from(buf.dt[pos]);
            counts[(t / BUCKET_SECS) as usize] += 1;
        }
    }
    let mut offsets = vec![0u32; nb + 1];
    for b in 0..nb {
        offsets[b + 1] = offsets[b] + counts[b];
    }
    let total = offsets[nb] as usize;
    let mut index = vec![(0u32, 0u32, 0u32); total];
    let mut cursor: Vec<u32> = offsets[..nb].to_vec();
    for si in 0..streams.dimm.len() {
        let start = streams.start[si] as usize;
        let len = streams.len[si] as usize;
        let mut t = 0u64;
        for pos in start..start + len {
            t += u64::from(buf.dt[pos]);
            let b = (t / BUCKET_SECS) as usize;
            index[cursor[b] as usize] = (t as u32, si as u32, pos as u32);
            cursor[b] += 1;
        }
    }
    let mut max_bucket = 0usize;
    for b in 0..nb {
        let (lo, hi) = (offsets[b] as usize, offsets[b + 1] as usize);
        max_bucket = max_bucket.max(hi - lo);
        index[lo..hi].sort_unstable();
    }
    (index, max_bucket)
}

/// Simulates one shard's DIMMs in plan order into SoA storage and builds
/// its sorted transition index.
fn simulate_event_shard(
    shard: usize,
    slice: &[PlannedDimm],
    cfg: &FleetConfig,
    storm: StormPolicy,
    memo: &mut BeatMemoEcc,
    scratch: &mut DimmScratch,
) -> EventShard {
    let started = std::time::Instant::now();
    let mut buf = EventBuf::default();
    let mut streams = StreamTable::default();
    let mut truths = Vec::with_capacity(slice.len());
    let mut quiet = 0u64;
    let mut transitions = 0u64;
    let mut skipped_post_ue = 0u64;
    for (platform, plan, seed) in slice {
        let mut rng = StdRng::seed_from_u64(*seed);
        let start = buf.len() as u32;
        let outcome = simulate_dimm_events(
            plan,
            *platform,
            cfg.horizon,
            storm,
            cfg.ras,
            memo,
            scratch,
            &mut buf,
            &mut transitions,
            &mut skipped_post_ue,
            &mut rng,
        );
        let len = buf.len() as u32 - start;
        if len > 0 {
            streams.dimm.push(plan.id);
            streams.start.push(start);
            streams.len.push(len);
        } else {
            // Quiet DIMMs never enter the calendar queue or the merge.
            quiet += 1;
        }
        truths.push(DimmTruth {
            id: plan.id,
            platform: *platform,
            spec: plan.spec,
            category: plan.category,
            fault_modes: plan.faults.iter().map(|f| f.mode).collect(),
            outcome,
        });
    }
    let (index, max_bucket) = build_index(&streams, &buf, cfg.horizon.as_secs());
    let wall_secs = started.elapsed().as_secs_f64();

    let shard_label = shard.to_string();
    mfp_obs::counter("sim_event_shard_events", &[("shard", &shard_label)]).add(index.len() as u64);
    mfp_obs::counter("sim_event_transitions", &[]).add(transitions);
    mfp_obs::counter("sim_event_skipped_post_ue", &[]).add(skipped_post_ue);
    mfp_obs::counter("sim_event_quiet_dimms", &[]).add(quiet);
    mfp_obs::gauge("sim_event_bucket_max", &[]).set(max_bucket as f64);
    mfp_obs::latency("sim_event_shard_seconds", &[]).record(wall_secs);
    let stats = ShardStats {
        shard,
        dimms: slice.len(),
        events: index.len() as u64,
        wall_secs,
    };
    EventShard {
        shard,
        buf,
        streams,
        index,
        truths,
        stats,
    }
}

/// A planned fleet ready for event-driven execution.
///
/// Planning is sequential and cheap; it fixes every DIMM's identity,
/// spec, faults and RNG seed. The plan can be inspected (e.g. to register
/// the DIMM catalog with a data lake *before* events start flowing) and
/// then executed with any [`ShardConfig`].
#[derive(Debug, Clone)]
pub struct EventFleet {
    cfg: FleetConfig,
    plans: Vec<PlannedDimm>,
}

impl EventFleet {
    /// Runs the (sequential, deterministic) planning phase — identical to
    /// the tick oracle's.
    pub fn plan(cfg: &FleetConfig) -> Self {
        let plans = plan_fleet(cfg);
        debug_assert!(
            plans.windows(2).all(|w| w[0].1.id < w[1].1.id),
            "plan order must ascend with DimmId (merge key relies on it)"
        );
        EventFleet {
            cfg: cfg.clone(),
            plans,
        }
    }

    /// Number of DIMMs the fleet will simulate.
    pub fn dimm_count(&self) -> usize {
        self.plans.len()
    }

    /// The fleet's DIMM catalog, known before any event is simulated.
    pub fn catalog(&self) -> impl Iterator<Item = (DimmId, Platform, DimmSpec)> + '_ {
        self.plans
            .iter()
            .map(|(p, plan, _)| (plan.id, *p, plan.spec))
    }

    /// Simulates the fleet event-driven on `scfg.workers` threads across
    /// `scfg.shards` partitions, handing the merged, time-ordered event
    /// stream to `sink` one event at a time.
    ///
    /// The stream is bit-identical to
    /// [`simulate_fleet_tick`](crate::fleet::simulate_fleet_tick) for the
    /// same `FleetConfig`, whatever the shard and worker counts. Workers
    /// record telemetry into the caller's registry ([`mfp_obs::current`]).
    pub fn run_stream<F: FnMut(MemEvent)>(
        &self,
        scfg: &ShardConfig,
        mut sink: F,
    ) -> ShardedOutcome {
        let span = mfp_obs::latency("sim_event_seconds", &[]).time();
        assert!(
            self.cfg.horizon.as_secs() <= u64::from(u32::MAX),
            "event engine delta timestamps cap the horizon at u32::MAX seconds (~136 years)"
        );
        let shards = scfg.shards.max(1);
        let storm = StormPolicy {
            threshold: self.cfg.storm_threshold,
            suppression: self.cfg.storm_suppression,
        };

        let chunk = self.plans.len().div_ceil(shards).max(1);
        let slices: Vec<&[PlannedDimm]> = self.plans.chunks(chunk).collect();
        let shard_count = slices.len();
        let workers = scfg.workers.clamp(1, shard_count.max(1));

        // Workers pull shard indexes from a shared counter and return
        // their finished shards through their join handles.
        let next = AtomicUsize::new(0);
        let registry = mfp_obs::current();
        let mut outputs: Vec<EventShard> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        mfp_obs::with_registry(&registry, || {
                            // One beat-level decode memo and one scratch
                            // arena per worker, reused across all its
                            // shards (decode is pure, so sharing never
                            // leaks into outcomes).
                            let mut memo = BeatMemoEcc::new();
                            let mut scratch = DimmScratch::default();
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(slice) = slices.get(i) else {
                                    break done;
                                };
                                done.push(simulate_event_shard(
                                    i,
                                    slice,
                                    &self.cfg,
                                    storm,
                                    &mut memo,
                                    &mut scratch,
                                ));
                            }
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a simulation worker panicked"))
                .collect()
        });
        outputs.sort_by_key(|o| o.shard);
        let mut dimms = Vec::with_capacity(self.plans.len());
        let mut per_shard = Vec::with_capacity(shard_count);
        for out in &mut outputs {
            dimms.append(&mut out.truths);
            per_shard.push(out.stats);
        }

        // K-way merge across shard indexes: pop the minimum
        // `(time, dimm, shard)` head, reconstruct its MemEvent from SoA
        // storage, refill from the same shard.
        let head = |shard: usize, cur: usize| {
            let out = &outputs[shard];
            out.index.get(cur).map(|&(secs, stream, _)| {
                let time = SimTime::from_secs(u64::from(secs));
                Reverse((time, out.streams.dimm[stream as usize], shard))
            })
        };
        let mut heap: BinaryHeap<_> = (0..outputs.len()).filter_map(|k| head(k, 0)).collect();
        mfp_obs::gauge("sim_event_merge_heads", &[]).set(heap.len() as f64);
        let mut cursors = vec![0usize; outputs.len()];
        let mut merged_events = 0u64;
        while let Some(Reverse((time, dimm, shard))) = heap.pop() {
            let cur = cursors[shard];
            let (_, _, pos) = outputs[shard].index[cur];
            sink(outputs[shard].buf.event_at(pos as usize, time, dimm));
            merged_events += 1;
            cursors[shard] = cur + 1;
            if let Some(next) = head(shard, cur + 1) {
                heap.push(next);
            }
        }

        mfp_obs::counter("sim_event_runs", &[]).incr();
        mfp_obs::counter("sim_event_events_merged", &[]).add(merged_events);
        span.stop();
        ShardedOutcome {
            dimms,
            stats: ShardedStats {
                shards: shard_count,
                workers,
                merged_events,
                per_shard,
            },
        }
    }
}

/// Runs an event-driven simulation and materializes a [`FleetResult`];
/// [`simulate_fleet`](crate::fleet::simulate_fleet) is this with the
/// default [`ShardConfig`].
pub fn simulate_fleet_events(cfg: &FleetConfig, scfg: &ShardConfig) -> FleetResult {
    let fleet = EventFleet::plan(cfg);
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
    use crate::config::DimmCategory;
    use crate::dimm::simulate_dimm_ras;
    use crate::fleet::simulate_fleet_tick;
    use crate::gen::{sample_benign_fault, sample_spec};
    use crate::ras::AdddcPolicy;
    use mfp_ecc::platforms::PlatformEcc;

    fn small_cfg(seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::smoke(seed);
        cfg.horizon = SimDuration::days(60);
        cfg
    }

    #[test]
    fn event_engine_is_bit_identical_across_shard_and_worker_counts() {
        let cfg = small_cfg(42);
        let oracle = simulate_fleet_tick(&cfg);
        for shards in [1usize, 2, 4, 8] {
            for workers in [1usize, 2, 4] {
                let got = simulate_fleet_events(&cfg, &ShardConfig::new(shards, workers));
                assert_eq!(
                    got.log.events(),
                    oracle.log.events(),
                    "event stream must match the tick oracle (shards={shards} workers={workers})"
                );
                assert_eq!(
                    got.dimms, oracle.dimms,
                    "truths must match the tick oracle (shards={shards} workers={workers})"
                );
            }
        }
    }

    /// Runs both engines on `cfg`, asserts they agree bit for bit and
    /// returns the oracle's result.
    fn assert_engines_agree(cfg: &FleetConfig) -> FleetResult {
        let oracle = simulate_fleet_tick(cfg);
        let got = simulate_fleet_events(cfg, &ShardConfig::new(4, 2));
        assert_eq!(got.log.events(), oracle.log.events());
        assert_eq!(got.dimms, oracle.dimms);
        oracle
    }

    #[test]
    fn event_engine_matches_oracle_under_ras_policy() {
        let mut cfg = small_cfg(9);
        cfg.ras = Some(RasPolicy::default());
        assert_engines_agree(&cfg);

        // The calibrated threshold (10 CEs a minute) never fires on these
        // fleets; at 2 the storm window and suppression carry the stream.
        let mut cfg = small_cfg(9);
        cfg.storm_threshold = 2;
        let (_, _, storms) = assert_engines_agree(&cfg).log.counts();
        assert!(storms > 0, "the storm input must emit storms");

        // An early ADDDC trigger switches DIMMs to lockstep decoding.
        let mut cfg = small_cfg(11);
        cfg.ras = Some(RasPolicy {
            adddc: Some(AdddcPolicy { activation_ces: 5 }),
            ..RasPolicy::default()
        });
        let oracle = assert_engines_agree(&cfg);
        assert!(
            oracle.dimms.iter().any(|d| d.outcome.adddc_engaged),
            "the ADDDC input must engage lockstep on some DIMM"
        );
    }

    #[test]
    fn zero_dimm_fleet_is_fine_on_both_engines() {
        let mut cfg = small_cfg(3);
        for pc in &mut cfg.platforms {
            pc.dimms_with_ces = 0;
            pc.sudden_only_dimms = 0;
        }
        let oracle = simulate_fleet_tick(&cfg);
        assert!(oracle.log.is_empty());
        assert!(oracle.dimms.is_empty());
        let got = simulate_fleet_events(&cfg, &ShardConfig::new(4, 2));
        assert!(got.log.is_empty());
        assert!(got.dimms.is_empty());
        let fleet = EventFleet::plan(&cfg);
        assert_eq!(fleet.dimm_count(), 0);
        let outcome = fleet.run_stream(&ShardConfig::new(4, 2), |_| panic!("no events expected"));
        assert_eq!(outcome.stats.merged_events, 0);
    }

    #[test]
    fn more_shards_than_dimms_is_fine() {
        let mut cfg = small_cfg(7);
        for pc in &mut cfg.platforms {
            pc.dimms_with_ces = 3;
            pc.sudden_only_dimms = 1;
        }
        let oracle = simulate_fleet_tick(&cfg);
        let got = simulate_fleet_events(&cfg, &ShardConfig::new(64, 3));
        assert_eq!(got.log.events(), oracle.log.events());
        assert_eq!(got.dimms.len(), 12);
        let outcome = EventFleet::plan(&cfg).run_stream(&ShardConfig::new(64, 16), |_| {});
        assert_eq!(outcome.stats.shards, 12);
        assert_eq!(outcome.stats.workers, 12, "at most one worker per shard");
    }

    #[test]
    fn degenerate_knobs_are_clamped() {
        let cfg = small_cfg(5);
        let oracle = simulate_fleet_tick(&cfg);
        let got = simulate_fleet_events(
            &cfg,
            &ShardConfig {
                shards: 0,
                workers: 0,
            },
        );
        assert_eq!(got.log.events(), oracle.log.events());
    }

    #[test]
    fn catalog_and_stats_partition_the_run() {
        let cfg = small_cfg(11);
        let fleet = EventFleet::plan(&cfg);
        let catalog: Vec<_> = fleet.catalog().collect();
        assert_eq!(catalog.len(), fleet.dimm_count());
        let mut n = 0u64;
        let mut last: Option<(SimTime, DimmId)> = None;
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
        assert_eq!(outcome.dimms.len(), catalog.len());
        for ((id, platform, spec), truth) in catalog.iter().zip(&outcome.dimms) {
            assert_eq!(*id, truth.id);
            assert_eq!(*platform, truth.platform);
            assert_eq!(*spec, truth.spec);
        }
        assert_eq!(outcome.stats.shards, outcome.stats.per_shard.len());
        assert_eq!(outcome.stats.workers, 2);
        for (i, s) in outcome.stats.per_shard.iter().enumerate() {
            assert_eq!(s.shard, i);
            assert!(s.wall_secs >= 0.0);
        }
        assert_eq!(
            outcome
                .stats
                .per_shard
                .iter()
                .map(|s| s.events)
                .sum::<u64>(),
            n
        );
        assert_eq!(
            outcome
                .stats
                .per_shard
                .iter()
                .map(|s| s.dimms)
                .sum::<usize>(),
            fleet.dimm_count()
        );
    }

    #[test]
    fn transition_exactly_on_the_horizon_is_excluded_by_both_engines() {
        // A saturating fault (dt.max(1.0) == 1s steps) with onset two
        // seconds before the horizon: the oracle schedules hits at
        // horizon-1s and would next land exactly on the horizon boundary,
        // which `t >= ZERO + horizon` excludes. The event engine must
        // honor the same half-open interval.
        let cfg = FleetConfig::calibrated(100.0, 3);
        let pc = cfg.platform(Platform::IntelPurley).unwrap().clone();
        let horizon = SimDuration::days(2);
        let mut rng = StdRng::seed_from_u64(4242);
        let mut spec = sample_spec(&pc, &mut rng);
        spec.width = mfp_dram::geometry::DataWidth::X4;
        let mut fault = sample_benign_fault(&pc, &spec, horizon, &mut rng);
        fault.hit_rate_per_day = 1e12; // every draw collapses to the 1s floor
        fault.onset = SimTime::ZERO + horizon - SimDuration::secs(2);
        fault.dq_mask = 0b1;
        let onset = fault.onset;
        let plan = DimmPlan {
            id: DimmId::new(77, 0),
            spec,
            category: DimmCategory::Benign,
            faults: vec![fault],
        };

        let ecc = PlatformEcc::for_platform(Platform::IntelPurley);
        let mut log = BmcLog::new();
        let mut rng_a = StdRng::seed_from_u64(99);
        let oracle = simulate_dimm_ras(
            &plan,
            &ecc,
            horizon,
            StormPolicy::default(),
            None,
            &mut log,
            &mut rng_a,
        );

        let mut memo = BeatMemoEcc::new();
        let mut scratch = DimmScratch::default();
        let mut buf = EventBuf::default();
        let (mut transitions, mut skipped) = (0u64, 0u64);
        let mut rng_b = StdRng::seed_from_u64(99);
        let got = simulate_dimm_events(
            &plan,
            Platform::IntelPurley,
            horizon,
            StormPolicy::default(),
            None,
            &mut memo,
            &mut scratch,
            &mut buf,
            &mut transitions,
            &mut skipped,
            &mut rng_b,
        );
        assert_eq!(got, oracle);

        // Reconstruct the SoA events and compare to the oracle log.
        let mut t = SimTime::ZERO;
        let events: Vec<MemEvent> = (0..buf.len())
            .map(|pos| {
                t += SimDuration::secs(u64::from(buf.dt[pos]));
                buf.event_at(pos, t, plan.id)
            })
            .collect();
        assert_eq!(events, log.events());
        assert!(
            !events.is_empty(),
            "the pre-horizon second must produce events"
        );
        let end = SimTime::ZERO + horizon;
        assert!(
            events.iter().all(|e| e.time() < end),
            "no event may land on or past the horizon boundary"
        );
        // The fault saturates the safety valve; with onset at horizon-2s
        // only the in-horizon seconds may surface.
        assert!(events.iter().all(|e| e.time() >= onset));
    }

    #[test]
    fn event_run_reports_telemetry() {
        let cfg = small_cfg(13);
        // The workers record into the caller's scoped registry, so the
        // per-shard series and their decode memo flushes land here too.
        let reg = mfp_obs::Registry::new();
        let _ = mfp_obs::with_registry(&reg, || {
            simulate_fleet_events(&cfg, &ShardConfig::new(2, 2))
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim_event_runs"), 1);
        assert!(snap.counter("sim_event_events_merged") > 0);
        assert!(snap.counter("sim_event_transitions") > 0);
        assert!(snap.counter("sim_event_quiet_dimms") > 0);
        // Per-shard series merge into one logical counter in the snapshot.
        assert_eq!(
            snap.counter("sim_event_shard_events"),
            snap.counter("sim_event_events_merged")
        );
        for shard in ["0", "1"] {
            assert!(snap
                .counter_labeled("sim_event_shard_events", &[("shard", shard)])
                .is_some());
        }
        assert!(snap.counter("ecc_beat_memo_hits") + snap.counter("ecc_beat_memo_misses") > 0);
    }

    #[test]
    fn addr_packing_roundtrips() {
        for addr in [
            CellAddr::new(0, 0, 0, 0),
            CellAddr::new(3, 15, 131_071, 1023),
            CellAddr::new(255, 255, u32::MAX, u16::MAX),
        ] {
            assert_eq!(unpack_addr(pack_addr(&addr)), addr);
        }
    }
}
