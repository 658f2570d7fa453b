//! Per-platform ECC models.
//!
//! The exact production ECC algorithms are confidential (paper, §II-B); what
//! is public is their *correction envelope*:
//!
//! * **Intel Purley** — SDDC-class but *weaker than Chipkill*: some check
//!   bits are repurposed for metadata (ownership/security/failed-region
//!   marking, per Li et al. \[7\]), leaving parts of the burst with only
//!   SEC-DED-grade protection. Certain single-chip error patterns are
//!   therefore uncorrectable — the paper's Finding 2.
//! * **Intel Whitley** — per-beat x4 SDDC: every beat carries full RS
//!   symbol correction, so all single-device faults are corrected and UEs
//!   require multi-device coincidence.
//! * **K920** — "K920-SDDC": device-level correction over beat pairs,
//!   likewise correcting all single-device faults.
//!
//! [`PurleyEcc`] realizes the repurposing by protecting even beats with the
//! real RS(18,16)/GF(16) code and odd beats with Hsiao SEC-DED only. This
//! is a *model*, not Intel's circuit — but the envelope it produces matches
//! the published facts: single-device multi-bit patterns that collide in a
//! weakened beat become UEs, while the same patterns are CEs on Whitley and
//! K920.

use crate::gf::GF256;
use crate::rs::RsCode;
use crate::scheme::{DecodeOutcome, EccScheme, SddcBeatPair, SddcPerBeat};
use crate::secded::Hsiao7264;
use mfp_dram::bus::ErrorTransfer;
use mfp_dram::geometry::{DataWidth, Platform, BURST_BEATS};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The Purley ECC model: full SDDC on even beats, SEC-DED on odd beats
/// (check bits repurposed for metadata, per \[7\]).
#[derive(Debug, Clone)]
pub struct PurleyEcc {
    rs: RsCode<256>,
    secded: Hsiao7264,
}

impl PurleyEcc {
    /// Creates the Purley model.
    pub fn new() -> Self {
        PurleyEcc {
            rs: RsCode::new(&GF256, 18, 16),
            secded: Hsiao7264::new(),
        }
    }

    /// True when this beat retains its full RS check symbols.
    pub fn beat_is_strong(beat: u8) -> bool {
        beat.is_multiple_of(2)
    }
}

impl Default for PurleyEcc {
    fn default() -> Self {
        PurleyEcc::new()
    }
}

impl EccScheme for PurleyEcc {
    fn name(&self) -> &'static str {
        "Purley SDDC (repurposed check bits)"
    }

    fn decode(&self, transfer: &ErrorTransfer, width: DataWidth) -> DecodeOutcome {
        let mut out = DecodeOutcome::Clean;
        for beat in 0..BURST_BEATS {
            let lanes = transfer.beats()[beat as usize];
            let word = if width == DataWidth::X4 && Self::beat_is_strong(beat) {
                let mut symbols = [0u8; 18];
                for (d, sym) in symbols.iter_mut().enumerate() {
                    *sym = ((lanes >> (d * 4)) & 0xF) as u8;
                }
                self.rs.decode_error(&symbols).into()
            } else {
                self.secded.decode_error(lanes).into()
            };
            out = out.combine(word);
        }
        out
    }
}

/// The Whitley ECC model: full per-beat x4 SDDC on every beat.
pub type WhitleyEcc = SddcPerBeat;

/// The K920 ECC model: device-symbol correction over beat pairs
/// ("K920-SDDC").
pub type K920Ecc = SddcBeatPair;

/// ECC scheme of a studied platform, dispatching to the concrete model.
#[derive(Debug, Clone)]
pub enum PlatformEcc {
    /// Intel Purley model.
    Purley(PurleyEcc),
    /// Intel Whitley model.
    Whitley(WhitleyEcc),
    /// K920 model.
    K920(K920Ecc),
}

impl PlatformEcc {
    /// The ECC model shipped by `platform`.
    pub fn for_platform(platform: Platform) -> Self {
        match platform {
            Platform::IntelPurley => PlatformEcc::Purley(PurleyEcc::new()),
            Platform::IntelWhitley => PlatformEcc::Whitley(WhitleyEcc::new()),
            Platform::K920 => PlatformEcc::K920(K920Ecc::new()),
        }
    }

    /// Reference to the K920 code used for GF(256) beat-pair decoding —
    /// exposed for benchmarking.
    pub fn inner(&self) -> &dyn EccScheme {
        match self {
            PlatformEcc::Purley(s) => s,
            PlatformEcc::Whitley(s) => s,
            PlatformEcc::K920(s) => s,
        }
    }
}

impl EccScheme for PlatformEcc {
    fn name(&self) -> &'static str {
        self.inner().name()
    }

    fn decode(&self, transfer: &ErrorTransfer, width: DataWidth) -> DecodeOutcome {
        self.inner().decode(transfer, width)
    }
}

/// A memoizing wrapper around [`PlatformEcc`].
///
/// Fault processes replay the same few error patterns (a stuck cell emits
/// one transfer signature on every hit), so full syndrome decoding is
/// mostly redundant work. This wrapper caches `(transfer, width) ->`
/// [`DecodeOutcome`] in a bounded table; decoding is pure, so a hit is
/// exactly the uncached result. When the table fills it is cleared rather
/// than evicted piecemeal — the working set per DIMM is tiny, so a rare
/// full rebuild beats per-lookup bookkeeping.
///
/// Implements [`EccScheme`], so it drops into any `&dyn EccScheme` call
/// site. Interior mutability keeps `decode(&self)`; the decode itself runs
/// outside the lock.
#[derive(Debug)]
pub struct CachedPlatformEcc {
    ecc: PlatformEcc,
    cache: Mutex<HashMap<(ErrorTransfer, DataWidth), DecodeOutcome>>,
    capacity: usize,
    // Telemetry, accumulated locally (plain atomics, no cross-instance
    // contention) and flushed to the global registry on drop.
    hits: AtomicU64,
    misses: AtomicU64,
    outcomes: [AtomicU64; 4],
}

impl CachedPlatformEcc {
    /// Default cache bound — far above any per-DIMM fault working set.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Wraps `ecc` with a memo table of [`Self::DEFAULT_CAPACITY`].
    pub fn new(ecc: PlatformEcc) -> Self {
        Self::with_capacity(ecc, Self::DEFAULT_CAPACITY)
    }

    /// The cached scheme shipped by `platform`.
    pub fn for_platform(platform: Platform) -> Self {
        Self::new(PlatformEcc::for_platform(platform))
    }

    /// Wraps `ecc` with an explicit cache bound (`capacity >= 1`).
    pub fn with_capacity(ecc: PlatformEcc, capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be positive");
        CachedPlatformEcc {
            ecc,
            cache: Mutex::new(HashMap::with_capacity(capacity.min(Self::DEFAULT_CAPACITY))),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            outcomes: [const { AtomicU64::new(0) }; 4],
        }
    }

    /// The wrapped, uncached scheme.
    pub fn uncached(&self) -> &PlatformEcc {
        &self.ecc
    }

    /// Number of memoized outcomes currently held.
    pub fn cached_entries(&self) -> usize {
        self.cache.lock().expect("ecc cache lock").len()
    }
}

impl EccScheme for CachedPlatformEcc {
    fn name(&self) -> &'static str {
        self.ecc.name()
    }

    fn decode(&self, transfer: &ErrorTransfer, width: DataWidth) -> DecodeOutcome {
        let key = (*transfer, width);
        if let Some(&out) = self.cache.lock().expect("ecc cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.outcomes[outcome_slot(out)].fetch_add(1, Ordering::Relaxed);
            return out;
        }
        let out = self.ecc.decode(transfer, width);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.outcomes[outcome_slot(out)].fetch_add(1, Ordering::Relaxed);
        let mut cache = self.cache.lock().expect("ecc cache lock");
        if cache.len() >= self.capacity {
            cache.clear();
        }
        cache.insert(key, out);
        out
    }
}

/// A fast multiply-fold hasher for the beat-memo tables.
///
/// Beat-memo keys are one or two `u128` lane words; SipHash (the `HashMap`
/// default) costs more than the RS decode it would save on small patterns.
/// This hasher folds each 64-bit half through a multiply + rotate — not
/// collision-resistant against adversaries, which is fine for a cache whose
/// worst case on collision is a redundant pure decode.
#[derive(Debug, Clone, Default)]
pub struct FoldHasher {
    state: u64,
}

const FOLD_K: u64 = 0x2545_F491_4F6C_DD1D;

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        let mut x = self.state;
        x ^= x >> 32;
        x = x.wrapping_mul(FOLD_K);
        x ^ (x >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b))
                .wrapping_mul(FOLD_K)
                .rotate_left(5);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = (self.state ^ v).wrapping_mul(FOLD_K).rotate_left(23);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
}

type FoldState = BuildHasherDefault<FoldHasher>;

/// A beat-level decode memo shared across every platform scheme.
///
/// [`CachedPlatformEcc`] memoizes whole `(transfer, width)` bursts, one
/// table per platform instance, behind a mutex. The event-driven simulator
/// wants something stronger: all platform decoders are *per-beat*
/// compositional — each beat (or beat pair) decodes independently and the
/// results meet in the order-free [`DecodeOutcome::combine`] monoid, with
/// all-zero beats decoding `Clean` — so memoizing at the code-word level
/// makes every stuck-pattern beat a shared hit regardless of which burst,
/// platform, or DIMM it appears in:
///
/// * `rs_beat` — RS(18,16)/GF(256) per-beat words. Purley's strong (even)
///   beats, Whitley, and ADDDC lockstep all run the *same* nibble→symbol
///   decode, so one table serves all three.
/// * `secded_beat` — Hsiao (72,64) words: Purley's weak (odd) beats and
///   every x8 fallback.
/// * `pair` — K920 beat-pair symbols, keyed on the `(even, odd)` lane pair.
///
/// `decode` takes `&mut self` — the event engine owns one memo per worker,
/// so there is no lock and no shared cacheline. Tables are bounded and
/// cleared when full (same policy as [`CachedPlatformEcc`]); telemetry is
/// accumulated locally and flushed on drop as `ecc_beat_memo_hits` /
/// `ecc_beat_memo_misses`.
#[derive(Debug)]
pub struct BeatMemoEcc {
    rs: RsCode<256>,
    secded: Hsiao7264,
    rs_beat: HashMap<u128, DecodeOutcome, FoldState>,
    secded_beat: HashMap<u128, DecodeOutcome, FoldState>,
    pair: HashMap<(u128, u128), DecodeOutcome, FoldState>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl BeatMemoEcc {
    /// Default per-table bound — sized for a whole shard's fault working
    /// set, not a single DIMM's.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a memo with [`Self::DEFAULT_CAPACITY`] per table.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a memo with an explicit per-table bound (`capacity >= 1`).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "memo capacity must be positive");
        BeatMemoEcc {
            rs: RsCode::new(&GF256, 18, 16),
            secded: Hsiao7264::new(),
            rs_beat: HashMap::with_capacity_and_hasher(256, FoldState::default()),
            secded_beat: HashMap::with_capacity_and_hasher(256, FoldState::default()),
            pair: HashMap::with_capacity_and_hasher(256, FoldState::default()),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Total memoized code words across the three tables.
    pub fn cached_entries(&self) -> usize {
        self.rs_beat.len() + self.secded_beat.len() + self.pair.len()
    }

    /// (hits, misses) accumulated so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn rs_word(&mut self, lanes: u128) -> DecodeOutcome {
        if let Some(&out) = self.rs_beat.get(&lanes) {
            self.hits += 1;
            return out;
        }
        let mut symbols = [0u8; 18];
        for (d, sym) in symbols.iter_mut().enumerate() {
            *sym = ((lanes >> (d * 4)) & 0xF) as u8;
        }
        let out: DecodeOutcome = self.rs.decode_error(&symbols).into();
        self.misses += 1;
        if self.rs_beat.len() >= self.capacity {
            self.rs_beat.clear();
        }
        self.rs_beat.insert(lanes, out);
        out
    }

    fn secded_word(&mut self, lanes: u128) -> DecodeOutcome {
        if let Some(&out) = self.secded_beat.get(&lanes) {
            self.hits += 1;
            return out;
        }
        let out: DecodeOutcome = self.secded.decode_error(lanes).into();
        self.misses += 1;
        if self.secded_beat.len() >= self.capacity {
            self.secded_beat.clear();
        }
        self.secded_beat.insert(lanes, out);
        out
    }

    fn pair_word(&mut self, even: u128, odd: u128) -> DecodeOutcome {
        if let Some(&out) = self.pair.get(&(even, odd)) {
            self.hits += 1;
            return out;
        }
        let mut symbols = [0u8; 18];
        for (d, sym) in symbols.iter_mut().enumerate() {
            let lo = ((even >> (d * 4)) & 0xF) as u8;
            let hi = ((odd >> (d * 4)) & 0xF) as u8;
            *sym = lo | (hi << 4);
        }
        let out: DecodeOutcome = self.rs.decode_error(&symbols).into();
        self.misses += 1;
        if self.pair.len() >= self.capacity {
            self.pair.clear();
        }
        self.pair.insert((even, odd), out);
        out
    }

    /// Decodes a burst under `platform`'s scheme; equal to
    /// `PlatformEcc::for_platform(platform).decode(transfer, width)`.
    ///
    /// Zero beats are skipped (they decode `Clean`, the combine identity)
    /// and the scan stops at the first `Ue` (`combine(Ue, _) = Ue`), so the
    /// shortcuts are exact, not approximate.
    pub fn decode(
        &mut self,
        platform: Platform,
        transfer: &ErrorTransfer,
        width: DataWidth,
    ) -> DecodeOutcome {
        let beats = *transfer.beats();
        let mut out = DecodeOutcome::Clean;
        match (width, platform) {
            (DataWidth::X4, Platform::IntelPurley) => {
                for (beat, &lanes) in beats.iter().enumerate() {
                    if lanes == 0 {
                        continue;
                    }
                    let word = if PurleyEcc::beat_is_strong(beat as u8) {
                        self.rs_word(lanes)
                    } else {
                        self.secded_word(lanes)
                    };
                    out = out.combine(word);
                    if out == DecodeOutcome::Ue {
                        break;
                    }
                }
            }
            (DataWidth::X4, Platform::IntelWhitley) => {
                for &lanes in &beats {
                    if lanes == 0 {
                        continue;
                    }
                    out = out.combine(self.rs_word(lanes));
                    if out == DecodeOutcome::Ue {
                        break;
                    }
                }
            }
            (DataWidth::X4, Platform::K920) => {
                for p in 0..(BURST_BEATS as usize / 2) {
                    let (even, odd) = (beats[2 * p], beats[2 * p + 1]);
                    if even == 0 && odd == 0 {
                        continue;
                    }
                    out = out.combine(self.pair_word(even, odd));
                    if out == DecodeOutcome::Ue {
                        break;
                    }
                }
            }
            (DataWidth::X8, _) => {
                for &lanes in &beats {
                    if lanes == 0 {
                        continue;
                    }
                    out = out.combine(self.secded_word(lanes));
                    if out == DecodeOutcome::Ue {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Decodes a burst under the ADDDC lockstep scheme; equal to
    /// `SddcPerBeat::new().decode(transfer, width)`.
    pub fn decode_lockstep(&mut self, transfer: &ErrorTransfer, width: DataWidth) -> DecodeOutcome {
        // Lockstep x4 runs the identical RS(18,16) nibble→symbol word as
        // Whitley, so it shares the same memo table.
        match width {
            DataWidth::X4 => self.decode(Platform::IntelWhitley, transfer, width),
            DataWidth::X8 => self.decode(Platform::IntelPurley, transfer, width),
        }
    }
}

impl Default for BeatMemoEcc {
    fn default() -> Self {
        BeatMemoEcc::new()
    }
}

impl Drop for BeatMemoEcc {
    /// Flushes hit/miss telemetry once per instance, like
    /// [`CachedPlatformEcc`].
    fn drop(&mut self) {
        if self.hits > 0 {
            mfp_obs::counter("ecc_beat_memo_hits", &[]).add(self.hits);
        }
        if self.misses > 0 {
            mfp_obs::counter("ecc_beat_memo_misses", &[]).add(self.misses);
        }
    }
}

/// Index of an outcome in the per-instance telemetry array.
fn outcome_slot(out: DecodeOutcome) -> usize {
    match out {
        DecodeOutcome::Clean => 0,
        DecodeOutcome::Corrected => 1,
        DecodeOutcome::Ue => 2,
        DecodeOutcome::Sdc => 3,
    }
}

const OUTCOME_NAMES: [&str; 4] = ["clean", "corrected", "ue", "sdc"];

impl Drop for CachedPlatformEcc {
    /// Flushes the instance's decode telemetry into the global registry as
    /// `ecc_cache_hits{scheme}`, `ecc_cache_misses{scheme}` and
    /// `ecc_decodes{scheme,outcome}`. Flushing once per instance keeps the
    /// decode hot path free of shared-cacheline traffic between workers.
    fn drop(&mut self) {
        let scheme = self.ecc.name();
        let labels: &[(&str, &str)] = &[("scheme", scheme)];
        let hits = *self.hits.get_mut();
        let misses = *self.misses.get_mut();
        if hits > 0 {
            mfp_obs::counter("ecc_cache_hits", labels).add(hits);
        }
        if misses > 0 {
            mfp_obs::counter("ecc_cache_misses", labels).add(misses);
        }
        for (slot, name) in OUTCOME_NAMES.iter().enumerate() {
            let n = *self.outcomes[slot].get_mut();
            if n > 0 {
                mfp_obs::counter("ecc_decodes", &[("scheme", scheme), ("outcome", name)]).add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Errors confined to one x4 device.
    fn device_bits(dev: u8, bits: &[(u8, u8)]) -> ErrorTransfer {
        ErrorTransfer::from_bits(bits.iter().map(|&(beat, dq)| (beat, dev * 4 + dq)))
    }

    #[test]
    fn purley_corrects_single_bit_anywhere() {
        let ecc = PurleyEcc::new();
        for beat in 0..8 {
            let t = device_bits(5, &[(beat, 2)]);
            assert_eq!(
                ecc.decode(&t, DataWidth::X4),
                DecodeOutcome::Corrected,
                "beat {beat}"
            );
        }
    }

    #[test]
    fn purley_corrects_multibit_in_strong_beat() {
        let ecc = PurleyEcc::new();
        // 3 bits of one device in beat 0 (strong): one RS symbol error.
        let t = device_bits(5, &[(0, 0), (0, 1), (0, 3)]);
        assert_eq!(ecc.decode(&t, DataWidth::X4), DecodeOutcome::Corrected);
    }

    #[test]
    fn purley_flags_multibit_in_weak_beat() {
        // The paper's "weaker than Chipkill" envelope: the same single-chip
        // pattern that Whitley corrects is a UE on Purley when it lands in
        // a repurposed (odd) beat.
        let purley = PurleyEcc::new();
        let whitley = WhitleyEcc::new();
        let t = device_bits(5, &[(1, 0), (1, 1)]);
        assert_eq!(purley.decode(&t, DataWidth::X4), DecodeOutcome::Ue);
        assert_eq!(whitley.decode(&t, DataWidth::X4), DecodeOutcome::Corrected);
    }

    #[test]
    fn purley_risky_interval4_pattern_escalates() {
        let ecc = PurleyEcc::new();
        // Fig 5 signature: 2 DQs / 2 beats / 4-beat interval on odd beats.
        // One bit per weak beat still corrects...
        let warning = device_bits(5, &[(1, 0), (5, 1)]);
        assert_eq!(
            ecc.decode(&warning, DataWidth::X4),
            DecodeOutcome::Corrected
        );
        // ...until both DQs err within one weak beat.
        let escalated = device_bits(5, &[(1, 0), (1, 1), (5, 1)]);
        assert_eq!(ecc.decode(&escalated, DataWidth::X4), DecodeOutcome::Ue);
    }

    #[test]
    fn whitley_and_k920_correct_whole_device_failure() {
        let mut bits = Vec::new();
        for beat in 0..8 {
            for dq in 0..4 {
                bits.push((beat, dq));
            }
        }
        let t = device_bits(11, &bits);
        assert_eq!(
            WhitleyEcc::new().decode(&t, DataWidth::X4),
            DecodeOutcome::Corrected
        );
        assert_eq!(
            K920Ecc::new().decode(&t, DataWidth::X4),
            DecodeOutcome::Corrected
        );
        // Purley, by contrast, cannot: weak beats see 4-bit errors.
        assert_eq!(
            PurleyEcc::new().decode(&t, DataWidth::X4),
            DecodeOutcome::Ue
        );
    }

    #[test]
    fn multi_device_same_beat_exceeds_all_platforms() {
        let mut t = device_bits(3, &[(0, 0), (0, 1)]);
        t.set(0, 9 * 4);
        t.set(0, 9 * 4 + 2);
        for p in Platform::ALL {
            let ecc = PlatformEcc::for_platform(p);
            let out = ecc.decode(&t, DataWidth::X4);
            assert!(
                matches!(out, DecodeOutcome::Ue | DecodeOutcome::Sdc),
                "{p}: {out:?}"
            );
        }
    }

    #[test]
    fn cached_decode_agrees_with_uncached() {
        // Sweep a grid of patterns — single-bit, device-confined multi-bit,
        // cross-device — through each platform twice, so the second pass is
        // served from the cache, and demand equality throughout.
        let mut patterns = Vec::new();
        for beat in 0..8u8 {
            for dq in [0u8, 3, 21, 70] {
                patterns.push(ErrorTransfer::from_bits([(beat, dq)]));
            }
            patterns.push(device_bits(5, &[(beat, 0), (beat, 1)]));
            patterns.push(device_bits(2, &[(beat, 0), ((beat + 1) % 8, 3)]));
            let mut t = device_bits(3, &[(beat, 0), (beat, 1)]);
            t.set(beat, 9 * 4);
            patterns.push(t);
        }
        for p in Platform::ALL {
            let cached = CachedPlatformEcc::for_platform(p);
            for width in [DataWidth::X4, DataWidth::X8] {
                for _pass in 0..2 {
                    for t in &patterns {
                        assert_eq!(
                            cached.decode(t, width),
                            cached.uncached().decode(t, width),
                            "{p} {width:?} {t:?}"
                        );
                    }
                }
            }
            assert!(cached.cached_entries() > 0, "cache must be populated");
        }
    }

    #[test]
    fn cache_telemetry_flushes_on_drop() {
        let reg = mfp_obs::Registry::new();
        let scheme = mfp_obs::with_registry(&reg, || {
            let ecc = CachedPlatformEcc::for_platform(Platform::IntelWhitley);
            let t = device_bits(3, &[(0, 1)]);
            for _ in 0..3 {
                assert_eq!(ecc.decode(&t, DataWidth::X4), DecodeOutcome::Corrected);
            }
            ecc.name()
        });
        // One miss decodes; the two repeats hit the cache.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ecc_cache_hits"), 2);
        assert_eq!(snap.counter("ecc_cache_misses"), 1);
        assert_eq!(snap.counter("ecc_decodes"), 3);
        // The flush labels the series by scheme name.
        assert_eq!(
            snap.counter_labeled("ecc_cache_hits", &[("scheme", scheme)]),
            Some(2)
        );
    }

    #[test]
    fn cache_clears_at_capacity_and_stays_correct() {
        let cached =
            CachedPlatformEcc::with_capacity(PlatformEcc::for_platform(Platform::IntelWhitley), 4);
        for dq in 0..32u8 {
            let t = ErrorTransfer::from_bits([(0, dq)]);
            assert_eq!(
                cached.decode(&t, DataWidth::X4),
                cached.uncached().decode(&t, DataWidth::X4)
            );
        }
        assert!(cached.cached_entries() <= 4, "bound must hold after churn");
    }

    /// The pattern grid used by the memo-equality tests: single-bit,
    /// device-confined multi-bit, cross-beat, cross-device, and empty.
    fn pattern_grid() -> Vec<ErrorTransfer> {
        let mut patterns = vec![ErrorTransfer::new()];
        for beat in 0..8u8 {
            for dq in [0u8, 3, 21, 70] {
                patterns.push(ErrorTransfer::from_bits([(beat, dq)]));
            }
            patterns.push(device_bits(5, &[(beat, 0), (beat, 1)]));
            patterns.push(device_bits(2, &[(beat, 0), ((beat + 1) % 8, 3)]));
            patterns.push(device_bits(
                7,
                &[(beat, 0), (beat, 1), (beat, 2), (beat, 3)],
            ));
            let mut t = device_bits(3, &[(beat, 0), (beat, 1)]);
            t.set(beat, 9 * 4);
            patterns.push(t);
        }
        patterns
    }

    #[test]
    fn beat_memo_agrees_with_platform_decoders() {
        let patterns = pattern_grid();
        let mut memo = BeatMemoEcc::new();
        for p in Platform::ALL {
            let oracle = PlatformEcc::for_platform(p);
            for width in [DataWidth::X4, DataWidth::X8] {
                for _pass in 0..2 {
                    for t in &patterns {
                        assert_eq!(
                            memo.decode(p, t, width),
                            oracle.decode(t, width),
                            "{p} {width:?} {t:?}"
                        );
                    }
                }
            }
        }
        let (hits, misses) = memo.stats();
        assert!(hits > 0 && misses > 0, "second pass must hit the memo");
        assert!(memo.cached_entries() > 0);
    }

    #[test]
    fn beat_memo_lockstep_agrees_with_sddc_per_beat() {
        let patterns = pattern_grid();
        let oracle = SddcPerBeat::new();
        let mut memo = BeatMemoEcc::new();
        for width in [DataWidth::X4, DataWidth::X8] {
            for t in &patterns {
                assert_eq!(
                    memo.decode_lockstep(t, width),
                    oracle.decode(t, width),
                    "lockstep {width:?} {t:?}"
                );
            }
        }
    }

    #[test]
    fn beat_memo_clears_at_capacity_and_stays_correct() {
        let mut memo = BeatMemoEcc::with_capacity(4);
        let oracle = PlatformEcc::for_platform(Platform::IntelWhitley);
        for dq in 0..32u8 {
            let t = ErrorTransfer::from_bits([(0, dq)]);
            assert_eq!(
                memo.decode(Platform::IntelWhitley, &t, DataWidth::X4),
                oracle.decode(&t, DataWidth::X4)
            );
        }
        assert!(memo.rs_beat.len() <= 4, "bound must hold after churn");
    }

    #[test]
    fn beat_memo_telemetry_flushes_on_drop() {
        let reg = mfp_obs::Registry::new();
        mfp_obs::with_registry(&reg, || {
            let mut memo = BeatMemoEcc::new();
            let t = device_bits(3, &[(0, 1)]);
            for _ in 0..3 {
                assert_eq!(
                    memo.decode(Platform::IntelWhitley, &t, DataWidth::X4),
                    DecodeOutcome::Corrected
                );
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ecc_beat_memo_hits"), 2);
        assert_eq!(snap.counter("ecc_beat_memo_misses"), 1);
    }

    #[test]
    fn platform_dispatch_names() {
        assert!(PlatformEcc::for_platform(Platform::IntelPurley)
            .name()
            .contains("Purley"));
        assert!(PlatformEcc::for_platform(Platform::IntelWhitley)
            .name()
            .contains("beat"));
        assert!(PlatformEcc::for_platform(Platform::K920)
            .name()
            .contains("beat-pair"));
    }
}
