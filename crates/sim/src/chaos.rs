//! Chaos injection: seeded corruption of an emitted event stream.
//!
//! Production BMC/MCE telemetry is not the clean, globally time-ordered
//! log `mfp-sim` emits: collectors batch and retry (late delivery),
//! at-least-once shipping duplicates records, NTP steps skew or even
//! regress timestamps, firmware bugs mangle fields, and whole collection
//! windows vanish when a relay falls over. [`inject_chaos`] applies these
//! failure modes to a clean stream under a seeded, fully reproducible
//! [`ChaosConfig`], so every downstream component (ingestion, feature
//! serving, online prediction) can be tested against realistic hostile
//! input instead of happy-path replay.
//!
//! Two invariants make the corrupted stream useful for exact testing:
//!
//! * **Determinism.** Output depends only on `(events, cfg)`; the RNG is
//!   seeded from `cfg.seed`.
//! * **Bounded reorder.** Delivery displacement is capped by
//!   `cfg.max_lateness`: in the returned arrival sequence, every event's
//!   timestamp is at least `running_max_timestamp - max_lateness`. An
//!   ingestor with a watermark lateness bound of at least `max_lateness`
//!   can therefore re-sequence a drop-free, mangle-free chaos stream
//!   *exactly* (see `mfp-mlops::ingest`).

use mfp_dram::event::{MemEvent, UeEvent};
use mfp_dram::time::{SimDuration, SimTime};
use mfp_rng::StdRng;

/// Periodic total-loss windows: everything observed inside
/// `[k*period, k*period + length)` is dropped (a collector outage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstLoss {
    /// Distance between the starts of successive outage windows.
    pub period: SimDuration,
    /// Length of each outage window.
    pub length: SimDuration,
}

impl BurstLoss {
    /// Whether an event observed at `t` falls into an outage window.
    pub fn covers(&self, t: SimTime) -> bool {
        let period = self.period.as_secs().max(1);
        (t.as_secs() % period) < self.length.as_secs()
    }
}

/// Corruption model for one pass over a clean stream.
///
/// All `*_rate` fields are per-event probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// RNG seed; two runs with equal config produce identical streams.
    pub seed: u64,
    /// Probability an event is silently lost.
    pub drop_rate: f64,
    /// Probability an event is delivered twice (at-least-once shipping).
    pub dup_rate: f64,
    /// Probability an event is delivered late (within `max_lateness`).
    pub late_rate: f64,
    /// Upper bound on delivery delay; also bounds reorder displacement.
    pub max_lateness: SimDuration,
    /// Probability a field is mangled into an out-of-range/nonsense value.
    pub mangle_rate: f64,
    /// Probability the *timestamp itself* is skewed (clock step), possibly
    /// regressing behind earlier events.
    pub skew_rate: f64,
    /// Maximum clock-skew magnitude in either direction.
    pub max_skew: SimDuration,
    /// Optional periodic collector outages.
    pub burst_loss: Option<BurstLoss>,
}

impl ChaosConfig {
    /// Identity: the stream passes through untouched.
    pub fn off() -> Self {
        ChaosConfig {
            seed: 0,
            drop_rate: 0.0,
            dup_rate: 0.0,
            late_rate: 0.0,
            max_lateness: SimDuration::ZERO,
            mangle_rate: 0.0,
            skew_rate: 0.0,
            max_skew: SimDuration::ZERO,
            burst_loss: None,
        }
    }

    /// Lossless hostility: duplicates and bounded-late delivery only.
    /// Every original event survives with its original timestamp, so an
    /// ingestor with `lateness >= max_lateness` reconstructs the clean
    /// stream exactly — the configuration the resilience property tests
    /// run under.
    pub fn lossless(seed: u64) -> Self {
        ChaosConfig {
            seed,
            dup_rate: 0.10,
            late_rate: 0.35,
            max_lateness: SimDuration::minutes(30),
            ..ChaosConfig::off()
        }
    }

    /// Everything at once: drops, duplicates, heavy reorder, mangled
    /// fields, clock skew and periodic collector outages.
    pub fn hostile(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_rate: 0.05,
            dup_rate: 0.10,
            late_rate: 0.40,
            max_lateness: SimDuration::hours(1),
            mangle_rate: 0.05,
            skew_rate: 0.02,
            max_skew: SimDuration::hours(2),
            burst_loss: Some(BurstLoss {
                period: SimDuration::days(30),
                length: SimDuration::hours(6),
            }),
        }
    }

    /// The hostile mix scaled by `rate` in `[0, 1]`: `hostile_at(s, 0.0)`
    /// is clean delivery, `hostile_at(s, 1.0)` is heavier than
    /// [`ChaosConfig::hostile`]. Used by the `chaos_e2e` corruption sweep.
    pub fn hostile_at(seed: u64, rate: f64) -> Self {
        let r = rate.clamp(0.0, 1.0);
        ChaosConfig {
            seed,
            drop_rate: 0.30 * r,
            dup_rate: 0.40 * r,
            late_rate: 0.50 * r,
            max_lateness: SimDuration::hours(1),
            mangle_rate: 0.20 * r,
            skew_rate: 0.10 * r,
            max_skew: SimDuration::hours(1),
            burst_loss: None,
        }
    }
}

/// What the injector did to the stream (per [`inject_chaos`] call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Events in the corrupted output stream.
    pub delivered: u64,
    /// Events silently lost to `drop_rate`.
    pub dropped: u64,
    /// Events lost to burst outage windows.
    pub burst_dropped: u64,
    /// Extra copies emitted.
    pub duplicated: u64,
    /// Events delivered after their observation time.
    pub delayed: u64,
    /// Events with a mangled field.
    pub mangled: u64,
    /// Events whose timestamp was skewed.
    pub skewed: u64,
}

/// Runs a clean, time-ordered stream through the corruption model and
/// returns the hostile stream in *delivery order* (which may disagree
/// with timestamp order, within the `max_lateness` bound), plus counts of
/// every operation applied.
pub fn inject_chaos(events: &[MemEvent], cfg: &ChaosConfig) -> (Vec<MemEvent>, ChaosStats) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut stats = ChaosStats::default();
    // (arrival time, sequence) keyed delivery queue; the sequence keeps
    // equal-arrival ties stable and the whole pass deterministic.
    let mut queue: Vec<(SimTime, u64, MemEvent)> = Vec::with_capacity(events.len());
    let mut seq = 0u64;
    for e in events {
        if cfg.burst_loss.is_some_and(|b| b.covers(e.time())) {
            stats.burst_dropped += 1;
            continue;
        }
        if cfg.drop_rate > 0.0 && rng.random::<f64>() < cfg.drop_rate {
            stats.dropped += 1;
            continue;
        }
        let mut e = *e;
        // Arrival is anchored to the *real* observation time: clock skew
        // corrupts the embedded timestamp, not the wire delivery order.
        let real_time = e.time();
        if cfg.skew_rate > 0.0 && rng.random::<f64>() < cfg.skew_rate {
            e = skew_timestamp(&e, cfg.max_skew, &mut rng);
            stats.skewed += 1;
        }
        if cfg.mangle_rate > 0.0 && rng.random::<f64>() < cfg.mangle_rate {
            e = mangle(&e, &mut rng);
            stats.mangled += 1;
        }
        let copies = if cfg.dup_rate > 0.0 && rng.random::<f64>() < cfg.dup_rate {
            stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let arrival = if cfg.late_rate > 0.0
                && cfg.max_lateness > SimDuration::ZERO
                && rng.random::<f64>() < cfg.late_rate
            {
                stats.delayed += 1;
                real_time + SimDuration::secs(rng.random_range(1..=cfg.max_lateness.as_secs()))
            } else {
                real_time
            };
            queue.push((arrival, seq, e));
            seq += 1;
        }
    }
    queue.sort_by_key(|&(arrival, s, _)| (arrival, s));
    stats.delivered = queue.len() as u64;
    (queue.into_iter().map(|(_, _, e)| e).collect(), stats)
}

/// Steps the event's clock by up to `max_skew` in either direction
/// (regressions saturate at the epoch).
fn skew_timestamp(e: &MemEvent, max_skew: SimDuration, rng: &mut StdRng) -> MemEvent {
    if max_skew == SimDuration::ZERO {
        return *e;
    }
    let delta = SimDuration::secs(rng.random_range(1..=max_skew.as_secs()));
    let t = if rng.random::<f64>() < 0.5 {
        e.time().saturating_sub(delta)
    } else {
        e.time() + delta
    };
    e.with_time(t)
}

/// Corrupts one field into a value schema/range validation must reject:
/// out-of-range address components, an empty (physically meaningless)
/// error transfer, a zero-count storm, or a CE reincarnated as a UE on a
/// garbage address (a firmware misreport).
fn mangle(e: &MemEvent, rng: &mut StdRng) -> MemEvent {
    let mut e = *e;
    match rng.random_range(0..5u8) {
        0 => match &mut e {
            MemEvent::Ce(ce) => ce.addr.rank = u8::MAX,
            MemEvent::Ue(ue) => ue.addr.rank = u8::MAX,
            MemEvent::Storm(s) => s.count = 0,
        },
        1 => match &mut e {
            MemEvent::Ce(ce) => ce.addr.bank = u8::MAX,
            MemEvent::Ue(ue) => ue.addr.bank = u8::MAX,
            MemEvent::Storm(s) => s.count = 0,
        },
        2 => match &mut e {
            MemEvent::Ce(ce) => ce.addr.row = u32::MAX,
            MemEvent::Ue(ue) => ue.addr.row = u32::MAX,
            MemEvent::Storm(s) => s.count = 0,
        },
        3 => match &mut e {
            MemEvent::Ce(ce) => ce.addr.col = u16::MAX,
            MemEvent::Ue(ue) => ue.addr.col = u16::MAX,
            MemEvent::Storm(s) => s.count = 0,
        },
        _ => match e {
            MemEvent::Ce(ce) => {
                e = MemEvent::Ce(mfp_dram::event::CeEvent {
                    transfer: mfp_dram::bus::ErrorTransfer::new(),
                    ..ce
                });
            }
            MemEvent::Ue(ue) => {
                e = MemEvent::Ue(UeEvent {
                    transfer: mfp_dram::bus::ErrorTransfer::new(),
                    ..ue
                });
            }
            MemEvent::Storm(ref mut s) => s.count = 0,
        },
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::{CellAddr, DimmId};
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::event::CeEvent;
    use std::collections::HashMap;

    fn ce(t: u64, server: u32) -> MemEvent {
        MemEvent::Ce(CeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(server, 0),
            addr: CellAddr::new(0, (t % 16) as u8, (t % 1000) as u32, (t % 64) as u16),
            transfer: ErrorTransfer::from_bits([(0, (t % 72) as u8)]),
        })
    }

    fn stream(n: u64) -> Vec<MemEvent> {
        (0..n).map(|k| ce(100 + k * 120, (k % 5) as u32)).collect()
    }

    /// Multiset of events (exact equality, transfers included).
    fn multiset(events: &[MemEvent]) -> HashMap<MemEvent, u64> {
        let mut m = HashMap::new();
        for e in events {
            *m.entry(*e).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn off_is_identity() {
        let clean = stream(200);
        let (out, stats) = inject_chaos(&clean, &ChaosConfig::off());
        assert_eq!(out, clean);
        assert_eq!(stats.delivered, 200);
        assert_eq!(stats.dropped + stats.duplicated + stats.mangled, 0);
    }

    #[test]
    fn same_config_same_stream() {
        let clean = stream(300);
        let cfg = ChaosConfig::hostile(9);
        let (a, sa) = inject_chaos(&clean, &cfg);
        let (b, sb) = inject_chaos(&clean, &cfg);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = inject_chaos(&clean, &ChaosConfig::hostile(10));
        assert_ne!(a, c, "different seeds must corrupt differently");
    }

    #[test]
    fn lossless_preserves_every_event() {
        let clean = stream(400);
        let cfg = ChaosConfig::lossless(3);
        let (out, stats) = inject_chaos(&clean, &cfg);
        assert_eq!(stats.dropped + stats.burst_dropped + stats.mangled, 0);
        assert_eq!(out.len() as u64, 400 + stats.duplicated);
        // Output minus duplicate copies is exactly the input multiset.
        let mut m = multiset(&out);
        for e in &clean {
            let n = m.get_mut(e).expect("original event must survive");
            *n -= 1;
        }
        let extras: u64 = m.values().sum();
        assert_eq!(extras, stats.duplicated);
        assert!(stats.delayed > 0, "lossless preset must exercise reorder");
    }

    #[test]
    fn reorder_displacement_is_bounded() {
        let clean = stream(500);
        let cfg = ChaosConfig::lossless(17);
        let (out, _) = inject_chaos(&clean, &cfg);
        // Watermark invariant: every delivered event's timestamp is at
        // least the running max timestamp minus the lateness bound.
        let mut high = SimTime::ZERO;
        for e in &out {
            assert!(
                e.time() >= high.saturating_sub(cfg.max_lateness),
                "displacement beyond the lateness bound"
            );
            high = high.max(e.time());
        }
    }

    #[test]
    fn hostile_applies_every_failure_mode() {
        // 90 days of events so burst windows (30d period) are hit.
        let clean: Vec<MemEvent> = (0..3000).map(|k| ce(k * 2600, (k % 7) as u32)).collect();
        let (out, stats) = inject_chaos(&clean, &ChaosConfig::hostile(1));
        assert!(stats.dropped > 0);
        assert!(stats.burst_dropped > 0);
        assert!(stats.duplicated > 0);
        assert!(stats.delayed > 0);
        assert!(stats.mangled > 0);
        assert!(stats.skewed > 0);
        assert_eq!(out.len() as u64, stats.delivered);
        assert!(
            stats.delivered < 3000 + stats.duplicated,
            "drops must shrink the stream"
        );
    }

    #[test]
    fn burst_loss_covers_periodic_windows() {
        let b = BurstLoss {
            period: SimDuration::days(30),
            length: SimDuration::hours(6),
        };
        assert!(b.covers(SimTime::ZERO));
        assert!(b.covers(SimTime::from_secs(30 * 86_400 + 100)));
        assert!(!b.covers(SimTime::from_secs(30 * 86_400 + 7 * 3600)));
    }

    #[test]
    fn mangled_fields_fail_validation() {
        let clean = stream(300);
        let cfg = ChaosConfig {
            mangle_rate: 1.0,
            ..ChaosConfig::off()
        };
        let (out, stats) = inject_chaos(&clean, &cfg);
        assert_eq!(stats.mangled, 300);
        let geom = mfp_dram::geometry::DeviceGeometry::default();
        for e in &out {
            let bad = match e {
                MemEvent::Ce(c) => !c.addr.is_valid(&geom, 2) || c.transfer.is_empty(),
                MemEvent::Ue(u) => !u.addr.is_valid(&geom, 2) || u.transfer.is_empty(),
                MemEvent::Storm(s) => s.count == 0,
            };
            assert!(bad, "mangled event still validates: {e}");
        }
    }

    #[test]
    fn skew_can_regress_timestamps() {
        let clean = stream(400);
        let cfg = ChaosConfig {
            skew_rate: 1.0,
            max_skew: SimDuration::hours(12),
            ..ChaosConfig::off()
        };
        let (out, stats) = inject_chaos(&clean, &cfg);
        assert_eq!(stats.skewed, 400);
        let regressed = out.windows(2).filter(|w| w[1].time() < w[0].time()).count();
        assert!(regressed > 0, "large skew must produce regressions");
    }
}
