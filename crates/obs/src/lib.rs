//! # mfp-obs
//!
//! Zero-dependency telemetry for the memory-failure-prediction stack: the
//! instrumentation underneath the paper's §VII monitoring layer
//! (prediction volume, alarm rates, serving latency, drift checks).
//!
//! * [`metrics`] — the instrument types: [`Counter`], [`Gauge`],
//!   fixed-bucket [`Histogram`] and the scoped [`SpanTimer`].
//! * [`registry`] — the process-wide [`Registry`] handing out labeled
//!   metric handles, plus the global instance every crate records into
//!   unless [`with_registry`] scopes a thread to a private one.
//! * [`snapshot`] — the point-in-time [`Snapshot`] with hand-rolled JSON
//!   export and a plain-text rendering.
//!
//! ## Determinism invariant
//!
//! Telemetry is **write-only from the measured code's point of view**:
//! nothing in the simulation, feature, ML or MLOps layers ever reads a
//! metric back to make a decision, so instrumented runs produce
//! bit-identical results to uninstrumented ones (enforced by tests in
//! `mfp-features` and `tests/prop_features.rs`). Snapshots are consumed
//! only at the edges — binaries, dashboards, logs.
//!
//! ## Overhead budget
//!
//! Recording through a pre-resolved handle is one relaxed atomic load (the
//! global enable flag) plus one relaxed atomic add; hot loops amortize
//! further by accumulating locally and flushing per chunk. The
//! `sample_assembly` micro-benchmark group measures assembly with telemetry
//! enabled and disabled; the budget is ≤2% overhead.
//!
//! ```
//! let assembled = mfp_obs::counter("samples_assembled", &[("platform", "purley")]);
//! assembled.add(128);
//! let snap = mfp_obs::global().snapshot();
//! assert_eq!(snap.counter("samples_assembled"), 128);
//! assert!(snap.to_json().contains("samples_assembled"));
//! # mfp_obs::global().reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod snapshot;

pub use metrics::{Counter, Gauge, Histogram, SpanTimer};
pub use registry::{global, Registry};
pub use snapshot::{series_name, CounterSample, GaugeSample, HistogramSample, Snapshot};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide enable flag; instruments are no-ops while it is off.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide (snapshots still read whatever
/// was recorded). Used by benchmarks to measure instrumentation overhead
/// and by tests to prove the determinism invariant.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

thread_local! {
    /// The registry [`with_registry`] scoped this thread to, if any.
    static SCOPED: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's handle lookups ([`counter`], [`gauge`],
/// [`histogram`], [`latency`], [`sizes`]) resolving in `reg` instead of
/// the global registry, then restores the previous scope (also when `f`
/// panics). Threads spawned inside `f` still record globally unless they
/// enter the scope themselves with [`current`].
///
/// ```
/// let reg = mfp_obs::Registry::new();
/// mfp_obs::with_registry(&reg, || mfp_obs::counter("scoped_doc_counter", &[]).add(2));
/// assert_eq!(reg.snapshot().counter("scoped_doc_counter"), 2);
/// assert_eq!(mfp_obs::global().snapshot().counter("scoped_doc_counter"), 0);
/// ```
pub fn with_registry<R>(reg: &Registry, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Registry>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            SCOPED.with(|s| *s.borrow_mut() = previous);
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(reg.clone()))));
    f()
}

/// The registry this thread's lookups resolve in: the one
/// [`with_registry`] scoped it to, else (a clone of) the global one.
/// A spawned thread records where its spawner does when it runs its body
/// under `with_registry(&current, ..)`.
///
/// ```
/// let reg = mfp_obs::Registry::new();
/// mfp_obs::with_registry(&reg, || {
///     let current = mfp_obs::current();
///     std::thread::scope(|s| {
///         s.spawn(|| {
///             mfp_obs::with_registry(&current, || {
///                 mfp_obs::counter("current_doc_counter", &[]).incr()
///             })
///         });
///     });
/// });
/// assert_eq!(reg.snapshot().counter("current_doc_counter"), 1);
/// assert_eq!(mfp_obs::global().snapshot().counter("current_doc_counter"), 0);
/// ```
pub fn current() -> Registry {
    SCOPED
        .with(|s| s.borrow().clone())
        .unwrap_or_else(|| global().clone())
}

/// Resolves a handle in this thread's scoped registry, else the global one.
fn resolve<T>(lookup: impl FnOnce(&Registry) -> T) -> T {
    SCOPED.with(|s| match &*s.borrow() {
        Some(reg) => lookup(reg),
        None => lookup(global()),
    })
}

/// A counter handle from the current registry (labels optional).
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Counter {
    resolve(|r| r.counter(name, labels))
}

/// A gauge handle from the current registry.
pub fn gauge(name: &str, labels: &[(&str, &str)]) -> Gauge {
    resolve(|r| r.gauge(name, labels))
}

/// A histogram handle from the current registry with explicit bucket
/// upper bounds (ascending; an implicit `+inf` bucket is appended).
pub fn histogram(name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
    resolve(|r| r.histogram(name, labels, bounds))
}

/// A histogram handle with the default latency buckets (seconds, 1 µs to
/// 10 s, four per decade) — for [`SpanTimer`] measurements.
pub fn latency(name: &str, labels: &[(&str, &str)]) -> Histogram {
    histogram(name, labels, &metrics::default_latency_buckets())
}

/// A histogram handle with the default size buckets (bytes, powers of two
/// from 64 B to 64 MiB) — for I/O payload measurements such as WAL record
/// and lake partition-append sizes.
pub fn sizes(name: &str, labels: &[(&str, &str)]) -> Histogram {
    histogram(name, labels, &metrics::default_size_buckets())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_invisible() {
        let r = Registry::new();
        let c = r.counter("quiet", &[]);
        set_enabled(false);
        c.incr();
        c.add(10);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        c.incr();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn convenience_constructors_share_the_global_registry() {
        let c = counter("lib_test_counter", &[("k", "v")]);
        c.add(3);
        let again = counter("lib_test_counter", &[("k", "v")]);
        assert_eq!(again.get(), 3);
        let h = latency("lib_test_latency", &[]);
        h.record(0.5);
        assert_eq!(h.observations(), 1);
        global().reset();
        assert_eq!(counter("lib_test_counter", &[("k", "v")]).get(), 0);
    }

    #[test]
    fn scoped_registry_captures_lookups_and_restores_on_exit() {
        let outer = Registry::new();
        let inner = Registry::new();
        with_registry(&outer, || {
            gauge("scoped_test_gauge", &[]).set(1.0);
            with_registry(&inner, || gauge("scoped_test_gauge", &[]).set(2.0));
            latency("scoped_test_latency", &[]).record(0.5);
            // A panic inside a nested scope still restores `outer`.
            let _ = std::panic::catch_unwind(|| {
                with_registry(&inner, || panic!("scoped test panic"));
            });
            counter("scoped_test_counter", &[]).incr();
        });
        assert_eq!(outer.snapshot().gauge("scoped_test_gauge"), Some(1.0));
        assert_eq!(inner.snapshot().gauge("scoped_test_gauge"), Some(2.0));
        assert_eq!(outer.snapshot().counter("scoped_test_counter"), 1);
        assert_eq!(inner.snapshot().counter("scoped_test_counter"), 0);
        assert_eq!(outer.snapshot().histograms[0].count, 1);
        let global_snap = global().snapshot();
        assert_eq!(global_snap.gauge("scoped_test_gauge"), None);
        assert_eq!(global_snap.counter("scoped_test_counter"), 0);
    }
}
