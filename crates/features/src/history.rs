//! Per-DIMM event history with efficient time-window queries.

use mfp_dram::event::{CeEvent, MemEvent};
use mfp_dram::time::{SimDuration, SimTime};
use std::ops::Range;

/// A DIMM's time-ordered event slice with binary-search window access.
///
/// # Examples
///
/// ```
/// use mfp_features::history::DimmHistory;
/// use mfp_dram::prelude::*;
///
/// let events = vec![MemEvent::Ce(CeEvent {
///     time: SimTime::from_secs(100),
///     dimm: DimmId::new(0, 0),
///     addr: CellAddr::new(0, 0, 1, 1),
///     transfer: ErrorTransfer::from_bits([(0, 0)]),
/// })];
/// let refs: Vec<&MemEvent> = events.iter().collect();
/// let h = DimmHistory::new(&refs);
/// assert_eq!(h.ces_in(SimTime::from_secs(0), SimTime::from_secs(200)).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DimmHistory<'a> {
    events: &'a [&'a MemEvent],
}

impl<'a> DimmHistory<'a> {
    /// Wraps a time-sorted event slice.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the slice is not time-ordered.
    pub fn new(events: &'a [&'a MemEvent]) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].time() <= w[1].time()),
            "events must be time-ordered"
        );
        DimmHistory { events }
    }

    /// All events.
    pub fn events(&self) -> &'a [&'a MemEvent] {
        self.events
    }

    /// Index of the first event at or after `t`.
    pub fn idx_at(&self, t: SimTime) -> usize {
        self.events.partition_point(|e| e.time() < t)
    }

    /// Events in the half-open interval `[from, to)`.
    pub fn between(&self, from: SimTime, to: SimTime) -> &'a [&'a MemEvent] {
        let lo = self.idx_at(from);
        let hi = self.idx_at(to);
        &self.events[lo..hi]
    }

    /// CE events in `[from, to)`.
    pub fn ces_in(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &'a CeEvent> {
        self.between(from, to).iter().filter_map(|e| e.as_ce())
    }

    /// CE events in the window of length `win` ending at `t` (exclusive).
    pub fn ces_in_window(&self, t: SimTime, win: SimDuration) -> impl Iterator<Item = &'a CeEvent> {
        self.ces_in(t.saturating_sub(win), t)
    }

    /// Number of CE events in the window ending at `t`.
    pub fn ce_count_in_window(&self, t: SimTime, win: SimDuration) -> u32 {
        self.ces_in_window(t, win).count() as u32
    }

    /// Number of storm events in the window ending at `t`.
    pub fn storm_count_in_window(&self, t: SimTime, win: SimDuration) -> u32 {
        self.between(t.saturating_sub(win), t)
            .iter()
            .filter(|e| e.as_storm().is_some())
            .count() as u32
    }

    /// Time of the first UE, if any.
    pub fn first_ue(&self) -> Option<SimTime> {
        self.events.iter().find(|e| e.is_ue()).map(|e| e.time())
    }

    /// Time of the first CE, if any.
    pub fn first_ce(&self) -> Option<SimTime> {
        self.events
            .iter()
            .find(|e| e.as_ce().is_some())
            .map(|e| e.time())
    }

    /// Time of the last CE strictly before `t`, if any.
    pub fn last_ce_before(&self, t: SimTime) -> Option<SimTime> {
        self.events[..self.idx_at(t)]
            .iter()
            .rev()
            .find(|e| e.as_ce().is_some())
            .map(|e| e.time())
    }
}

/// A two-pointer cursor over a time-sorted event sequence, tracking the
/// index range `[lo, hi)` of a sliding half-open time window.
///
/// Events enter at the end one at a time ([`Self::enter_next`]) and leave
/// at the start once the window's start passes them ([`Self::expire`]).
/// As long as the start is non-decreasing across calls (the case for a
/// fixed-length window sliding forward in time), every event enters the
/// range exactly once and leaves it exactly once, so a whole sweep over
/// `n` events costs O(n) pointer moves regardless of how many windows are
/// evaluated. [`FeatureStream`](crate::stream::FeatureStream) keys its
/// per-window rolling state off the events this cursor moves past.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCursor {
    lo: usize,
    hi: usize,
}

impl WindowCursor {
    /// A cursor with an empty range at the start of the slice.
    pub fn new() -> Self {
        WindowCursor::default()
    }

    /// Extends the range by one step at its end: the event at the old end
    /// entered. The caller enters events in sequence order and only events
    /// that exist.
    pub fn enter_next(&mut self) {
        self.hi += 1;
    }

    /// Moves the range's start past every entered event stamped before
    /// `from`, where `time_at(i)` is the stamp of the `i`-th event, and
    /// returns the index range of the events that left.
    ///
    /// `from` must be non-decreasing across calls (the caller rewinds by
    /// recreating the cursor).
    pub fn expire(&mut self, time_at: impl Fn(usize) -> SimTime, from: SimTime) -> Range<usize> {
        let old_lo = self.lo;
        while self.lo < self.hi && time_at(self.lo) < from {
            self.lo += 1;
        }
        old_lo..self.lo
    }

    /// Shifts the range down by one for an event removed from the front of
    /// the sequence; returns whether that event was inside the range.
    pub fn pop_front(&mut self) -> bool {
        let inside = self.lo == 0 && self.hi > 0;
        self.lo = self.lo.saturating_sub(1);
        self.hi = self.hi.saturating_sub(1);
        inside
    }

    /// The current `[lo, hi)` index range.
    pub fn range(&self) -> Range<usize> {
        self.lo..self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::{CellAddr, DimmId};
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::{CeStormEvent, UeEvent};

    fn ce(t: u64) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(0, 0),
            addr: CellAddr::new(0, 0, 1, 1),
            transfer: ErrorTransfer::from_bits([(0, 0)]),
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

    fn storm(t: u64) -> MemEvent {
        MemEvent::Storm(CeStormEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(0, 0),
            count: 12,
        })
    }

    #[test]
    fn window_queries_count_correctly() {
        let events = [ce(10), ce(50), storm(60), ce(100), ue(150)];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        assert_eq!(
            h.ce_count_in_window(SimTime::from_secs(101), SimDuration::secs(60)),
            2
        );
        assert_eq!(
            h.ce_count_in_window(SimTime::from_secs(101), SimDuration::secs(10)),
            1
        );
        assert_eq!(
            h.storm_count_in_window(SimTime::from_secs(200), SimDuration::secs(200)),
            1
        );
    }

    #[test]
    fn boundaries_are_half_open() {
        let events = [ce(100)];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        // [from, to): event at exactly `to` is excluded, at `from` included.
        assert_eq!(
            h.ces_in(SimTime::from_secs(100), SimTime::from_secs(101))
                .count(),
            1
        );
        assert_eq!(
            h.ces_in(SimTime::from_secs(50), SimTime::from_secs(100))
                .count(),
            0
        );
    }

    #[test]
    fn first_and_last_accessors() {
        let events = [ce(10), ce(50), ue(150)];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        assert_eq!(h.first_ce(), Some(SimTime::from_secs(10)));
        assert_eq!(h.first_ue(), Some(SimTime::from_secs(150)));
        assert_eq!(
            h.last_ce_before(SimTime::from_secs(60)),
            Some(SimTime::from_secs(50))
        );
        assert_eq!(h.last_ce_before(SimTime::from_secs(10)), None);
    }

    /// Slides `cur` to `[from, to)` over `events`: enters every event
    /// stamped before `to`, then expires; returns how many entered and
    /// how many left.
    fn slide(
        cur: &mut WindowCursor,
        events: &[&MemEvent],
        from: SimTime,
        to: SimTime,
    ) -> (usize, usize) {
        let mut entered = 0;
        while events.get(cur.range().end).is_some_and(|e| e.time() < to) {
            cur.enter_next();
            entered += 1;
        }
        (entered, cur.expire(|i| events[i].time(), from).len())
    }

    #[test]
    fn window_cursor_tracks_sliding_window() {
        let events = [ce(10), ce(50), storm(60), ce(100), ue(150)];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let mut cur = WindowCursor::new();
        for t in [5u64, 20, 55, 70, 110, 160, 300] {
            let to = SimTime::from_secs(t);
            let from = to.saturating_sub(SimDuration::secs(60));
            slide(&mut cur, &refs, from, to);
            // The range always equals the binary-search answer.
            assert_eq!(cur.range(), h.idx_at(from)..h.idx_at(to));
        }
    }

    #[test]
    fn window_cursor_enter_and_leave_partition_events() {
        let events = [ce(10), ce(50), ce(100), ce(150)];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let mut cur = WindowCursor::new();
        let mut entered_total = 0usize;
        let mut left_total = 0usize;
        for t in (0..40).map(|k| k * 10) {
            let to = SimTime::from_secs(t);
            let from = to.saturating_sub(SimDuration::secs(30));
            let (entered, left) = slide(&mut cur, &refs, from, to);
            entered_total += entered;
            left_total += left;
        }
        assert_eq!(entered_total, 4, "each event enters exactly once");
        assert_eq!(left_total, 4, "each event leaves exactly once");
        assert!(cur.range().is_empty());
    }

    #[test]
    fn window_cursor_pop_front_shifts_the_range() {
        let events = [ce(10), ce(50), ce(100), ce(150)];
        let refs: Vec<&MemEvent> = events.iter().collect();
        // Window [40, 120) holds indices 1..3; index 0 is outside it.
        let mut cur = WindowCursor::new();
        slide(
            &mut cur,
            &refs,
            SimTime::from_secs(40),
            SimTime::from_secs(120),
        );
        assert_eq!(cur.range(), 1..3);
        assert!(!cur.pop_front(), "index 0 was before the window");
        assert_eq!(cur.range(), 0..2);
        assert!(cur.pop_front(), "index 0 is now the window's first event");
        assert_eq!(cur.range(), 0..1);
        assert!(cur.pop_front());
        assert!(cur.range().is_empty());
        assert!(!cur.pop_front(), "an empty range holds nothing");
    }

    #[test]
    fn empty_history_is_harmless() {
        let refs: Vec<&MemEvent> = Vec::new();
        let h = DimmHistory::new(&refs);
        assert_eq!(h.first_ce(), None);
        assert_eq!(h.first_ue(), None);
        assert_eq!(
            h.ce_count_in_window(SimTime::from_secs(100), SimDuration::days(5)),
            0
        );
    }
}
