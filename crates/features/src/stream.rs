//! Streaming feature extraction: one forward pass per DIMM instead of a
//! rescan per evaluation time.
//!
//! [`extract_features`](crate::extract::extract_features) re-reads every
//! overlapping 15m/1h/6h/1d/observation window from scratch at each
//! evaluation time, making dataset assembly O(samples x window events).
//! [`FeatureStream`] instead owns the DIMM's time-sorted events in a
//! `VecDeque` and advances two-pointer [`WindowCursor`]s through them,
//! maintaining rolling state per window — CE/storm counts, an incremental
//! spatial-dispersion multiset, an incremental fault-mode classifier, and
//! incremental error-bit accumulators with per-device union masks — so
//! each successive evaluation time costs O(events entering or leaving
//! windows).
//!
//! Because the stream owns its window, one instance serves both callers:
//! dataset assembly pushes a DIMM's whole history and then queries its
//! sample times, and the online feature store keeps one stream per DIMM
//! alive between prediction ticks, pushing events as they arrive,
//! entering each into the windows right away
//! ([`FeatureStream::enter_newest`]) and evicting them past its
//! retention, so a tick's query only expires what aged out.
//!
//! # Invariants
//!
//! * **Oracle equivalence.** For any evaluation time, [`FeatureStream::
//!   features_at`] returns a vector bit-identical to the batch extractor
//!   over the events the stream holds at that moment: both paths reduce
//!   to the same integer aggregates and share
//!   `assemble_features` for all f32
//!   arithmetic. `tests/prop_features.rs` asserts this on random
//!   histories, on random feature-store traffic and on random
//!   interleavings of pushes, evictions, early entries and queries.
//! * **Push.** [`FeatureStream::push`] is a sorted insert placed after
//!   equal timestamps. The windows hold the events stamped before the
//!   last evaluation time plus any entered early since, so an event
//!   stamped at or after both lands beyond every cursor and costs O(1)
//!   when it arrives in order. An event stamped before the last
//!   evaluation time, or before an early-entered event, falls inside
//!   windows already entered and rewinds the stream.
//! * **Enter.** [`FeatureStream::enter_newest`] takes the newest held
//!   event into every window's rolling state ahead of the next query,
//!   provided the stream has been queried, every earlier held event is
//!   inside the windows and the newest is stamped at or after the last
//!   evaluation time. Every window's rolling state is an integer
//!   aggregate of the multiset of events inside it, so entering early
//!   and letting the next query expire reaches the same state as the
//!   query entering it: rows stay bit-identical, and the entering work
//!   moves from the query to the push.
//! * **Evict.** [`FeatureStream::evict_before`] pops events older than a
//!   cutoff off the front. An evicted event still inside a window at the
//!   last evaluation time (the 30-day fault window, or any window when
//!   queries lag far behind pushes) first leaves that window's rolling
//!   state; then every cursor shifts down by one.
//! * **Rewind.** A query earlier than its predecessor or at or before an
//!   early-entered event's stamp, an out-of-order push before the last
//!   query or before an early-entered event, or a change of device width
//!   drops the rolling state, and the next query replays from the front:
//!   correct, but not incremental. Each rewind increments the
//!   `features_stream_rewinds` counter. Time-ordered serving, which
//!   queries each tick before pushing the events stamped at or after it,
//!   never rewinds.
//! * **Determinism.** The stream holds no RNG and no ambient state; output
//!   depends only on `(events, spec, cfg, thresholds, t)`. This is what
//!   lets [`build_samples`](crate::dataset::build_samples) fan DIMMs out
//!   across worker threads and still produce a bit-identical `SampleSet`.

use crate::addr_counts::AddrCounts;
use crate::errorbits::{CeBitProfile, RollingErrorBitStats, RollingMax};
use crate::extract::{assemble_features, FeatureInputs};
use crate::fault_analysis::{FaultThresholds, RollingFaultClassifier};
use crate::history::WindowCursor;
use crate::labeling::ProblemConfig;
use mfp_dram::address::CellAddr;
use mfp_dram::event::MemEvent;
use mfp_dram::geometry::DataWidth;
use mfp_dram::spec::DimmSpec;
use mfp_dram::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::ops::Range;

/// Incremental spatial-dispersion state over the observation window: the
/// window's CE addresses as an [`AddrCounts`] multiset, plus a rolling
/// maximum of per-cell repeat counts.
#[derive(Debug, Clone, Default)]
struct SpatialWindow {
    addrs: AddrCounts,
    repeat: RollingMax,
}

impl SpatialWindow {
    fn insert(&mut self, a: CellAddr) {
        let cell = self.addrs.insert(a).cell;
        if cell > 1 {
            self.repeat.remove(cell - 1);
        }
        self.repeat.insert(cell);
    }

    fn remove(&mut self, a: CellAddr) {
        let cell = self.addrs.remove(a).cell;
        self.repeat.remove(cell);
        if cell > 1 {
            self.repeat.insert(cell - 1);
        }
    }
}

/// One held event and, for a CE once the DIMM's width is known, its bit
/// profile — derived once so windows can insert and evict the event
/// without re-walking its bitmap.
#[derive(Debug, Clone)]
struct Entry {
    /// `event.time()`, read by every cursor step without matching on the
    /// event's kind.
    time: SimTime,
    event: MemEvent,
    profile: Option<CeBitProfile>,
}

impl Entry {
    fn time(&self) -> SimTime {
        self.time
    }

    /// The CE's address and bit profile; `None` for storms and UEs. Only
    /// called on entries inside a window, which exist once the spec is
    /// known, when every CE has its profile.
    fn ce(&self) -> Option<(CellAddr, &CeBitProfile)> {
        let ce = self.event.as_ce()?;
        Some((ce.addr, self.profile.as_ref().expect("CE profile")))
    }
}

/// A window's cursor plus the CEs and storms inside it.
#[derive(Debug, Clone, Default)]
struct Counted {
    cur: WindowCursor,
    ces: u32,
    storms: u32,
}

impl Counted {
    /// Takes `e`, the event just past the window's end, into the window.
    fn enter(&mut self, e: &MemEvent) {
        self.cur.enter_next();
        self.ces += u32::from(e.as_ce().is_some());
        self.storms += u32::from(e.as_storm().is_some());
    }

    /// Moves the window's start up to `from`, updating its counts; returns
    /// the index range that left.
    fn expire(&mut self, events: &[Entry], from: SimTime) -> Range<usize> {
        let left = self.cur.expire(|i| events[i].time(), from);
        for i in left.clone() {
            self.remove(&events[i].event);
        }
        left
    }

    fn remove(&mut self, e: &MemEvent) {
        self.ces -= u32::from(e.as_ce().is_some());
        self.storms -= u32::from(e.as_storm().is_some());
    }

    /// Accounts for `e` leaving the front of the sequence; returns whether
    /// it was inside the window.
    fn pop_front(&mut self, e: &MemEvent) -> bool {
        let inside = self.cur.pop_front();
        if inside {
            self.remove(e);
        }
        inside
    }
}

/// The rolling state of every window at the last evaluation time, plus
/// the events entered since (see [`FeatureStream::enter_newest`]). Every
/// window has entered the same events: its cursor's range ends at the
/// same index.
#[derive(Debug, Clone)]
struct Windows {
    w15m: Counted,
    w1h: Counted,
    w6h: Counted,
    w1d: Counted,
    obs: Counted,
    /// Every held event before the evaluation time (`ce_total`).
    total: Counted,
    /// The newest CE inside `total` (`last_ce`).
    last_ce: Option<SimTime>,
    /// The 30-day fault-mode lookback.
    fault: WindowCursor,
    spatial: SpatialWindow,
    eb_obs: RollingErrorBitStats,
    eb_1d: RollingErrorBitStats,
    faults: RollingFaultClassifier,
}

impl Windows {
    fn new(thresholds: FaultThresholds) -> Self {
        Windows {
            w15m: Counted::default(),
            w1h: Counted::default(),
            w6h: Counted::default(),
            w1d: Counted::default(),
            obs: Counted::default(),
            total: Counted::default(),
            last_ce: None,
            fault: WindowCursor::new(),
            spatial: SpatialWindow::default(),
            eb_obs: RollingErrorBitStats::new(),
            eb_1d: RollingErrorBitStats::new(),
            faults: RollingFaultClassifier::new(thresholds),
        }
    }

    /// How many held events, from the front, every window has entered.
    fn entered(&self) -> usize {
        self.total.cur.range().end
    }

    /// Takes `e`, the held event just past every window's end, into every
    /// window's rolling state.
    fn enter(&mut self, e: &Entry) {
        for w in [
            &mut self.w15m,
            &mut self.w1h,
            &mut self.w6h,
            &mut self.w1d,
            &mut self.obs,
            &mut self.total,
        ] {
            w.enter(&e.event);
        }
        self.fault.enter_next();
        if let Some((addr, p)) = e.ce() {
            self.last_ce = Some(e.time());
            self.eb_1d.insert(p);
            self.spatial.insert(addr);
            self.eb_obs.insert(p);
            self.faults.insert(addr, p.device_mask);
        }
    }

    /// Slides every window to end at `t`: enters the held events stamped
    /// before `t` that no window holds yet, then expires from each window
    /// what its start passed.
    fn advance(&mut self, events: &[Entry], t: SimTime, observation: SimDuration) {
        for e in events[self.entered()..].iter().take_while(|e| e.time() < t) {
            self.enter(e);
        }

        // Count-only windows; `total` starts at zero and never expires.
        self.w15m
            .expire(events, t.saturating_sub(SimDuration::minutes(15)));
        self.w1h
            .expire(events, t.saturating_sub(SimDuration::hours(1)));
        self.w6h
            .expire(events, t.saturating_sub(SimDuration::hours(6)));

        // One-day window: counts plus rolling error-bit state.
        for i in self
            .w1d
            .expire(events, t.saturating_sub(SimDuration::days(1)))
        {
            if let Some(p) = events[i].profile.as_ref() {
                self.eb_1d.remove(p);
            }
        }

        // Observation window: spatial dispersion and error-bit state.
        for i in self.obs.expire(events, t.saturating_sub(observation)) {
            if let Some((addr, p)) = events[i].ce() {
                self.spatial.remove(addr);
                self.eb_obs.remove(p);
            }
        }

        // 30-day fault-mode lookback.
        let from = t.saturating_sub(SimDuration::days(30));
        for i in self.fault.expire(|i| events[i].time(), from) {
            if let Some((addr, p)) = events[i].ce() {
                self.faults.remove(addr, p.device_mask);
            }
        }
    }

    /// Removes `e`, just popped off the front of the sequence, from every
    /// window holding it and shifts every cursor down by one.
    fn pop_front(&mut self, e: &Entry) {
        for w in [
            &mut self.w15m,
            &mut self.w1h,
            &mut self.w6h,
            &mut self.total,
        ] {
            w.pop_front(&e.event);
        }
        // The newest CE leaves `total` only along with every older one.
        if self.total.ces == 0 {
            self.last_ce = None;
        }
        if self.w1d.pop_front(&e.event) {
            if let Some(p) = e.profile.as_ref() {
                self.eb_1d.remove(p);
            }
        }
        if self.obs.pop_front(&e.event) {
            if let Some((addr, p)) = e.ce() {
                self.spatial.remove(addr);
                self.eb_obs.remove(p);
            }
        }
        if self.fault.pop_front() {
            if let Some((addr, p)) = e.ce() {
                self.faults.remove(addr, p.device_mask);
            }
        }
    }
}

/// A streaming feature extractor that owns one DIMM's event window.
///
/// Push events (in any order, cheapest in time order), then call
/// [`Self::features_at`] at non-decreasing evaluation times; evict old
/// events with [`Self::evict_before`]. A caller that queries between
/// pushes, as online serving does, enters each pushed event with
/// [`Self::enter_newest`] so the next query only expires. See the module
/// docs for the invariants.
///
/// # Examples
///
/// ```
/// use mfp_features::prelude::*;
/// use mfp_dram::prelude::*;
///
/// let events = vec![MemEvent::Ce(CeEvent {
///     time: SimTime::from_secs(100),
///     dimm: DimmId::new(0, 0),
///     addr: CellAddr::new(0, 0, 1, 1),
///     transfer: ErrorTransfer::from_bits([(0, 0)]),
/// })];
/// let spec = DimmSpec::default();
/// let cfg = ProblemConfig::default();
/// let th = FaultThresholds::default();
/// let mut stream = FeatureStream::new(cfg, th);
/// stream.set_spec(spec);
/// for e in &events {
///     stream.push(*e);
/// }
/// let refs: Vec<&MemEvent> = events.iter().collect();
/// let t = SimTime::from_secs(200);
/// assert_eq!(
///     stream.features_at(t),
///     extract_features(&DimmHistory::new(&refs), &spec, t, &cfg, &th),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FeatureStream {
    cfg: ProblemConfig,
    thresholds: FaultThresholds,
    /// The DIMM's configuration; `None` until the caller learns it.
    spec: Option<DimmSpec>,
    /// Held events in time order, equal timestamps in push order.
    events: VecDeque<Entry>,
    win: Windows,
    /// The last evaluation time; `None` when `win` holds no state.
    last_t: Option<SimTime>,
}

impl FeatureStream {
    /// An empty stream whose DIMM spec is not known yet.
    pub fn new(cfg: ProblemConfig, thresholds: FaultThresholds) -> Self {
        FeatureStream {
            cfg,
            thresholds,
            spec: None,
            events: VecDeque::new(),
            win: Windows::new(thresholds),
            last_t: None,
        }
    }

    /// Empties the stream and starts over for a DIMM of `spec`, keeping
    /// the event buffer's capacity (dataset assembly reuses one stream
    /// per worker across DIMMs this way).
    pub fn reset(&mut self, spec: DimmSpec) {
        self.events.clear();
        self.spec = Some(spec);
        self.win = Windows::new(self.thresholds);
        self.last_t = None;
    }

    /// Sets the DIMM's spec. Bit profiles need its device width, so CEs
    /// pushed before the spec was known get theirs here; a change of
    /// width recomputes every profile and rewinds.
    pub fn set_spec(&mut self, spec: DimmSpec) {
        if self.spec == Some(spec) {
            return;
        }
        let width_changed = self.spec.map(|s| s.width) != Some(spec.width);
        self.spec = Some(spec);
        if width_changed {
            for e in &mut self.events {
                e.profile = profile_of(&e.event, spec.width);
            }
            self.rewind();
        }
    }

    /// Inserts `event` in time order, after any held events with the same
    /// timestamp. An event stamped before the last evaluation time, or
    /// before an event entered early ([`Self::enter_newest`]), lands
    /// inside windows already entered, so the stream rewinds.
    pub fn push(&mut self, event: MemEvent) {
        let t = event.time();
        if self.last_t.is_some_and(|prev| t < prev) || self.newest_entered().is_some_and(|n| t < n)
        {
            self.rewind();
        }
        let entry = Entry {
            time: t,
            event,
            profile: self.spec.and_then(|s| profile_of(&event, s.width)),
        };
        if self.events.back().is_none_or(|e| e.time() <= t) {
            self.events.push_back(entry);
        } else {
            let pos = self.events.partition_point(|e| e.time() <= t);
            self.events.insert(pos, entry);
        }
    }

    /// Drops every event stamped before `cutoff`, oldest first. An evicted
    /// event inside a window at the last evaluation time leaves that
    /// window's rolling state before the cursors shift.
    pub fn evict_before(&mut self, cutoff: SimTime) {
        while self.events.front().is_some_and(|e| e.time() < cutoff) {
            let e = self.events.pop_front().expect("front checked");
            if self.last_t.is_some() {
                self.win.pop_front(&e);
            }
        }
    }

    /// Enters the newest held event into every window's rolling state now
    /// instead of at the next query, which then only expires what aged
    /// out. The online feature store calls this after each push, so a
    /// prediction tick does not pay for the events of its interval.
    ///
    /// Does nothing unless the stream has been queried, every earlier held
    /// event is inside the windows, and the newest is stamped at or after
    /// the last query: then every window of a later query holds it. A
    /// query at or before its stamp, or a push stamped before it, rewinds.
    pub fn enter_newest(&mut self) {
        let (Some(prev), Some(newest)) = (self.last_t, self.events.back()) else {
            return;
        };
        if self.win.entered() + 1 == self.events.len() {
            // The last query entered every event stamped before it, and a
            // later push stamped before it rewound.
            debug_assert!(
                newest.time() >= prev,
                "an event before the last query is out"
            );
            self.win.enter(newest);
        }
    }

    /// Extracts the feature vector at evaluation time `t`, bit-identical to
    /// the batch [`extract_features`](crate::extract::extract_features)
    /// over the held events.
    ///
    /// Amortized O(events entering/leaving windows) when `t` is
    /// non-decreasing across calls and later than every early-entered
    /// event ([`Self::enter_newest`]); any other `t` rewinds the rolling
    /// state and replays, which is correct but not incremental.
    ///
    /// # Panics
    ///
    /// Panics if the DIMM's spec was never set.
    pub fn features_at(&mut self, t: SimTime) -> Vec<f32> {
        let mut row = Vec::with_capacity(crate::extract::FEATURE_DIM);
        self.features_into(t, &mut row);
        row
    }

    /// [`Self::features_at`] into `row`, replacing its contents: a caller
    /// serving many streams reuses one buffer instead of allocating a row
    /// per query.
    ///
    /// # Panics
    ///
    /// Panics if the DIMM's spec was never set.
    pub fn features_into(&mut self, t: SimTime, row: &mut Vec<f32>) {
        let spec = self
            .spec
            .expect("FeatureStream::features_at needs the DIMM spec");
        if self.last_t.is_some_and(|prev| t < prev) || self.newest_entered().is_some_and(|n| n >= t)
        {
            self.rewind();
        }
        self.last_t = Some(t);
        // Contiguous unless pushes wrapped the ring after evictions; a
        // slice keeps the cursor loops free of wrap-around arithmetic.
        let events = self.events.make_contiguous();
        self.win.advance(events, t, self.cfg.observation);

        let w = &self.win;
        let inputs = FeatureInputs {
            ce_15m: w.w15m.ces,
            ce_1h: w.w1h.ces,
            ce_6h: w.w6h.ces,
            ce_1d: w.w1d.ces,
            ce_obs: w.obs.ces,
            storms_1d: w.w1d.storms,
            storms_obs: w.obs.storms,
            ce_total: w.total.ces,
            first_ce: self
                .events
                .iter()
                .find(|e| e.event.as_ce().is_some())
                .map(Entry::time),
            last_ce: w.last_ce,
            banks: w.spatial.addrs.banks(),
            rows: w.spatial.addrs.rows(),
            cols: w.spatial.addrs.cols(),
            cells: w.spatial.addrs.cells(),
            max_cell_repeat: w.spatial.repeat.max(),
            faults: w.faults.classify(),
            eb: w.eb_obs.stats(),
            eb1: w.eb_1d.stats(),
        };
        assemble_features(&inputs, &spec, t, &self.cfg, row);
    }

    /// Time of the last held CE stamped strictly before `t`, if any.
    pub fn last_ce_before(&self, t: SimTime) -> Option<SimTime> {
        // The online tick asks after every held event, so the search is
        // usually skipped.
        let end = if self.latest().is_some_and(|l| l < t) {
            self.events.len()
        } else {
            self.events.partition_point(|e| e.time() < t)
        };
        self.events
            .range(..end)
            .rev()
            .find(|e| e.event.as_ce().is_some())
            .map(Entry::time)
    }

    /// The held events, in time order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &MemEvent> {
        self.events.iter().map(|e| &e.event)
    }

    /// True when the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the newest held event.
    pub fn latest(&self) -> Option<SimTime> {
        self.events.back().map(Entry::time)
    }

    /// Stamp of the newest event inside the windows. Only an event entered
    /// early can be stamped at or after the last evaluation time.
    fn newest_entered(&self) -> Option<SimTime> {
        let n = self.win.entered();
        n.checked_sub(1).map(|i| self.events[i].time())
    }

    /// Drops all rolling state so the next query replays from the front.
    /// Held events and their profiles are kept.
    fn rewind(&mut self) {
        if self.last_t.take().is_some() {
            // Rare (monotone callers never rewind), so resolving the
            // telemetry handle here keeps the hot path untouched.
            mfp_obs::counter("features_stream_rewinds", &[]).incr();
        }
        self.win = Windows::new(self.thresholds);
    }
}

/// The bit profile of a CE under `width`; `None` for storms and UEs.
fn profile_of(event: &MemEvent, width: DataWidth) -> Option<CeBitProfile> {
    event
        .as_ce()
        .map(|ce| CeBitProfile::of(&ce.transfer, width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_features;
    use crate::history::DimmHistory;
    use mfp_dram::address::DimmId;
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::{CeEvent, CeStormEvent, UeEvent};
    use mfp_dram::geometry::Platform;
    use mfp_sim::config::FleetConfig;
    use mfp_sim::fleet::simulate_fleet;

    fn ce(t: u64, bank: u8, row: u32, col: u16, bits: &[(u8, u8)]) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(0, 0),
            addr: CellAddr::new(0, bank, row, col),
            transfer: ErrorTransfer::from_bits(bits.iter().copied()),
        })
    }

    fn storm(t: u64) -> MemEvent {
        MemEvent::Storm(CeStormEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(0, 0),
            count: 12,
        })
    }

    fn ue(t: u64) -> MemEvent {
        MemEvent::Ue(UeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(0, 0),
            addr: CellAddr::new(0, 0, 1, 1),
            transfer: ErrorTransfer::from_bits([(0, 0), (0, 1)]),
        })
    }

    fn mixed_history() -> Vec<MemEvent> {
        let day = 86_400u64;
        vec![
            ce(100, 0, 5, 5, &[(0, 0)]),
            ce(day, 0, 5, 5, &[(1, 20), (5, 21)]),
            storm(day + 50),
            ce(day + 100, 2, 1, 1, &[(0, 63), (2, 71)]),
            ce(
                2 * day,
                2,
                2,
                2,
                &[(2, 8), (2, 9), (2, 10), (2, 11), (6, 8)],
            ),
            ce(2 * day + 10, 2, 3, 3, &[(3, 40), (3, 41), (7, 40)]),
            storm(4 * day),
            ce(6 * day, 0, 5, 7, &[(0, 0), (1, 1), (2, 2)]),
            ue(40 * day),
            ce(40 * day + 100, 1, 9, 9, &[(4, 30)]),
        ]
    }

    /// A stream holding `events`, pushed in order.
    fn stream_of(events: &[MemEvent], spec: DimmSpec) -> FeatureStream {
        let mut stream = FeatureStream::new(ProblemConfig::default(), FaultThresholds::default());
        stream.set_spec(spec);
        for e in events {
            stream.push(*e);
        }
        stream
    }

    /// The batch oracle over the events `stream` holds.
    fn oracle(stream: &FeatureStream, spec: &DimmSpec, t: SimTime) -> Vec<f32> {
        let held: Vec<MemEvent> = stream.events().copied().collect();
        let refs: Vec<&MemEvent> = held.iter().collect();
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        extract_features(&DimmHistory::new(&refs), spec, t, &cfg, &th)
    }

    fn assert_stream_matches_batch(events: &[MemEvent], spec: &DimmSpec, times: &[u64]) {
        let mut stream = stream_of(events, *spec);
        for &secs in times {
            let t = SimTime::from_secs(secs);
            assert_eq!(
                stream.features_at(t),
                oracle(&stream, spec, t),
                "diverged at t = {secs}s"
            );
        }
    }

    #[test]
    fn matches_batch_on_mixed_history() {
        let day = 86_400u64;
        let times: Vec<u64> = (0..50).map(|k| 200 + k * day).collect();
        assert_stream_matches_batch(&mixed_history(), &DimmSpec::default(), &times);
    }

    #[test]
    fn matches_batch_at_fine_granularity() {
        // Sub-window steps: events enter/leave the 15m/1h windows one by one.
        let times: Vec<u64> = (0..300).map(|k| k * 600).collect();
        assert_stream_matches_batch(&mixed_history(), &DimmSpec::default(), &times);
    }

    #[test]
    fn matches_batch_for_x8_devices() {
        let spec = DimmSpec {
            width: DataWidth::X8,
            ..Default::default()
        };
        let day = 86_400u64;
        let times: Vec<u64> = (0..50).map(|k| 200 + k * day).collect();
        assert_stream_matches_batch(&mixed_history(), &spec, &times);
    }

    #[test]
    fn out_of_order_query_rewinds_correctly() {
        let spec = DimmSpec::default();
        let mut stream = stream_of(&mixed_history(), spec);
        let day = 86_400u64;
        for secs in [10 * day, 45 * day, 3 * day, 7 * day] {
            let t = SimTime::from_secs(secs);
            assert_eq!(
                stream.features_at(t),
                oracle(&stream, &spec, t),
                "diverged at t = {secs}s"
            );
        }
    }

    #[test]
    fn interleaved_push_evict_and_query_match_batch() {
        // The feature-store pattern: push, evict past a 30-day retention,
        // query — evictions land inside the fault and total windows, and
        // one push arrives before the last query (a rewind).
        let spec = DimmSpec::default();
        let day = 86_400u64;
        let mut stream = stream_of(&[], spec);
        let mut late = Vec::new();
        for (k, e) in mixed_history().into_iter().enumerate() {
            if k == 5 {
                late.push(e);
                continue;
            }
            stream.push(e);
            let cutoff = SimTime::from_secs(e.time().as_secs().saturating_sub(30 * day));
            stream.evict_before(cutoff);
            for dt in [1, day / 2] {
                let t = e.time() + SimDuration::secs(dt);
                assert_eq!(
                    stream.features_at(t),
                    oracle(&stream, &spec, t),
                    "after push {k}"
                );
            }
        }
        for e in late {
            stream.push(e);
        }
        let t = SimTime::from_secs(41 * day);
        assert_eq!(stream.features_at(t), oracle(&stream, &spec, t));
    }

    #[test]
    fn spec_set_after_pushes_profiles_every_ce() {
        let spec = DimmSpec {
            width: DataWidth::X8,
            ..Default::default()
        };
        let mut stream = FeatureStream::new(ProblemConfig::default(), FaultThresholds::default());
        for e in mixed_history() {
            stream.push(e);
        }
        stream.set_spec(spec);
        let t = SimTime::from_secs(7 * 86_400);
        assert_eq!(stream.features_at(t), oracle(&stream, &spec, t));
        // A width change recomputes the profiles and replays.
        stream.set_spec(DimmSpec::default());
        assert_eq!(
            stream.features_at(t),
            oracle(&stream, &DimmSpec::default(), t)
        );
    }

    #[test]
    fn reset_reuse_is_bit_identical_to_fresh_streams() {
        let fleet = simulate_fleet(&FleetConfig::smoke(11));
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        let by_dimm = fleet.log.by_dimm();
        let mut reused = FeatureStream::new(cfg, th);
        let mut dimms_checked = 0;
        for truth in fleet.platform_dimms(Platform::IntelPurley) {
            let Some(events) = by_dimm.get(&truth.id) else {
                continue;
            };
            let history = DimmHistory::new(events);
            let times = cfg.sample_times(&history, fleet.config.horizon);
            if times.is_empty() {
                continue;
            }
            let mut fresh = FeatureStream::new(cfg, th);
            fresh.set_spec(truth.spec);
            reused.reset(truth.spec);
            for e in events {
                fresh.push(**e);
                reused.push(**e);
            }
            for t in times {
                assert_eq!(
                    reused.features_at(t),
                    fresh.features_at(t),
                    "reset stream diverged on {:?} at {t}",
                    truth.id
                );
            }
            dimms_checked += 1;
        }
        assert!(dimms_checked > 1, "must exercise reset reuse across DIMMs");
    }

    #[test]
    fn matches_batch_across_a_simulated_fleet() {
        let fleet = simulate_fleet(&FleetConfig::smoke(11));
        let cfg = ProblemConfig::default();
        let th = FaultThresholds::default();
        let by_dimm = fleet.log.by_dimm();
        let mut dimms_checked = 0;
        for truth in fleet.platform_dimms(Platform::IntelPurley) {
            let Some(events) = by_dimm.get(&truth.id) else {
                continue;
            };
            let history = DimmHistory::new(events);
            let times = cfg.sample_times(&history, fleet.config.horizon);
            if times.is_empty() {
                continue;
            }
            let mut stream = FeatureStream::new(cfg, th);
            stream.reset(truth.spec);
            for e in events {
                stream.push(**e);
            }
            for t in times {
                assert_eq!(
                    stream.features_at(t),
                    extract_features(&history, &truth.spec, t, &cfg, &th),
                    "diverged on {:?} at {t}",
                    truth.id
                );
            }
            dimms_checked += 1;
        }
        assert!(dimms_checked > 0, "smoke fleet must exercise some DIMMs");
    }
}
