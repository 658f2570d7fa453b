//! The failure-prediction problem formulation (paper §IV, Fig. 3).
//!
//! At evaluation time `t` an algorithm looks back over an observation
//! window `Δt_d` and predicts whether a UE occurs inside the future window
//! `[t + Δt_l, t + Δt_l + Δt_p]`, where `Δt_l` is the lead time needed to
//! act (VM migration etc.) and `Δt_p` the prediction horizon. The paper
//! uses `Δt_d = 5 d`, `Δt_l ∈ (0, 3 h]`, `Δt_p = 30 d`; CE events arrive at
//! minute granularity and predictions are refreshed every few minutes. For
//! a laptop-scale reproduction the refresh interval is a knob
//! ([`ProblemConfig::sample_interval`], default 1 day) — it thins samples
//! without changing the formulation.

use crate::history::DimmHistory;
use mfp_dram::time::{SimDuration, SimTime};

/// Windows of the prediction problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemConfig {
    /// Historical observation window Δt_d.
    pub observation: SimDuration,
    /// Lead time Δt_l before the prediction window opens.
    pub lead: SimDuration,
    /// Prediction window length Δt_p.
    pub prediction: SimDuration,
    /// Interval between successive evaluation times per DIMM.
    pub sample_interval: SimDuration,
}

impl Default for ProblemConfig {
    fn default() -> Self {
        ProblemConfig {
            observation: SimDuration::days(5),
            lead: SimDuration::hours(3),
            prediction: SimDuration::days(30),
            sample_interval: SimDuration::days(1),
        }
    }
}

impl ProblemConfig {
    /// Label for an evaluation at time `t` given the DIMM's first UE.
    ///
    /// Returns `None` when no sample should be drawn: the DIMM has already
    /// failed, or fails before the lead time elapses (an alarm at `t` could
    /// no longer be acted upon — such instants are excluded from both
    /// classes, following the lead-time semantics of \[38\]).
    pub fn label_at(&self, t: SimTime, first_ue: Option<SimTime>) -> Option<bool> {
        match first_ue {
            None => Some(false),
            Some(ue) => {
                if ue < t + self.lead {
                    None
                } else if ue <= t + self.lead + self.prediction {
                    Some(true)
                } else {
                    Some(false)
                }
            }
        }
    }

    /// Evaluation times for one DIMM: a `sample_interval` grid starting at
    /// its first CE, keeping only instants whose observation window
    /// `[t - observation, t)` holds at least one CE and whose label is
    /// defined.
    ///
    /// One forward pass: a cursor over the history tracks the last CE
    /// before `t`, and the window holds a CE exactly when that CE is at or
    /// after the window's start.
    pub fn sample_times(&self, history: &DimmHistory<'_>, horizon: SimDuration) -> Vec<SimTime> {
        let Some(first_ce) = history.first_ce() else {
            return Vec::new();
        };
        let first_ue = history.first_ue();
        let events = history.events();
        let end = SimTime::ZERO + horizon;
        let step = self.sample_interval.as_secs().max(60);
        let mut out = Vec::new();
        let mut next = 0usize;
        let mut last_ce: Option<SimTime> = None;
        // Start one step after the first CE so the observation window is
        // never empty at the first sample.
        let mut t = first_ce + SimDuration::secs(step);
        while t < end {
            while next < events.len() && events[next].time() < t {
                if events[next].as_ce().is_some() {
                    last_ce = Some(events[next].time());
                }
                next += 1;
            }
            if last_ce.is_some_and(|ce| ce >= t.saturating_sub(self.observation)) {
                if let Some(_label) = self.label_at(t, first_ue) {
                    out.push(t);
                } else {
                    break; // DIMM failed (or fails within lead): stop sampling.
                }
            }
            t += SimDuration::secs(step);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::{CellAddr, DimmId};
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::{CeEvent, MemEvent, UeEvent};

    fn cfg() -> ProblemConfig {
        ProblemConfig::default()
    }

    #[test]
    fn label_none_after_failure() {
        let ue = Some(SimTime::from_secs(1000));
        assert_eq!(cfg().label_at(SimTime::from_secs(2000), ue), None);
    }

    #[test]
    fn label_none_within_lead() {
        // UE 1 hour away but lead is 3 hours: too late to act.
        let t = SimTime::ZERO + SimDuration::days(10);
        let ue = Some(t + SimDuration::hours(1));
        assert_eq!(cfg().label_at(t, ue), None);
    }

    #[test]
    fn label_positive_inside_window() {
        let t = SimTime::ZERO + SimDuration::days(10);
        for days in [1u64, 15, 29] {
            let ue = Some(t + SimDuration::hours(3) + SimDuration::days(days));
            assert_eq!(cfg().label_at(t, ue), Some(true), "{days} days out");
        }
    }

    #[test]
    fn label_negative_beyond_window_or_no_ue() {
        let t = SimTime::ZERO + SimDuration::days(10);
        let far = Some(t + SimDuration::hours(3) + SimDuration::days(31));
        assert_eq!(cfg().label_at(t, far), Some(false));
        assert_eq!(cfg().label_at(t, None), Some(false));
    }

    #[test]
    fn boundary_exactly_at_window_end_is_positive() {
        let t = SimTime::ZERO + SimDuration::days(10);
        let ue = Some(t + SimDuration::hours(3) + SimDuration::days(30));
        assert_eq!(cfg().label_at(t, ue), Some(true));
    }

    fn ce(t: u64) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(0, 0),
            addr: CellAddr::new(0, 0, 1, 1),
            transfer: ErrorTransfer::from_bits([(0, 0)]),
        })
    }

    fn ue_ev(t: u64) -> MemEvent {
        MemEvent::Ue(UeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(0, 0),
            addr: CellAddr::new(0, 0, 1, 1),
            transfer: ErrorTransfer::from_bits([(0, 0), (0, 1)]),
        })
    }

    #[test]
    fn sample_times_follow_activity() {
        // CEs on day 1 only: samples exist while day-1 CEs are in the 5-day
        // observation window, then stop.
        let events = [ce(86_400), ce(86_500)];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let times = cfg().sample_times(&h, SimDuration::days(60));
        assert!(!times.is_empty());
        let last = *times.last().unwrap();
        assert!(last <= SimTime::from_secs(86_400) + SimDuration::days(5) + SimDuration::days(1));
        // All sampled instants see at least one CE in the window.
        for &t in &times {
            assert!(h.ce_count_in_window(t, cfg().observation) > 0);
        }
    }

    #[test]
    fn sampling_stops_at_failure() {
        let events = [ce(86_400), ce(2 * 86_400), ue_ev(10 * 86_400)];
        let refs: Vec<&MemEvent> = events.iter().collect();
        let h = DimmHistory::new(&refs);
        let times = cfg().sample_times(&h, SimDuration::days(60));
        assert!(!times.is_empty());
        for &t in &times {
            assert!(
                t + cfg().lead <= SimTime::from_secs(10 * 86_400),
                "sample at {t} too close to the UE"
            );
        }
    }

    #[test]
    fn no_ces_no_samples() {
        let refs: Vec<&MemEvent> = Vec::new();
        let h = DimmHistory::new(&refs);
        assert!(cfg().sample_times(&h, SimDuration::days(60)).is_empty());
    }
}
