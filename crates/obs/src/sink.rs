//! The process-global trace sink.
//!
//! Experiments run many simulations behind several layers of workload
//! crates; threading a tracer through every API would bloat every
//! signature for a debugging concern. Instead, the executor
//! (`columbia-runtime`) asks this sink "is anyone collecting?" once
//! per simulation — one relaxed atomic load when disabled — and, when
//! the answer is yes, runs under a
//! [`RecordingTracer`](crate::RecordingTracer) and deposits the
//! resulting [`TraceBundle`] here. `repro --trace/--metrics` installs
//! the sink, runs the selected experiments, then drains it into the
//! export files.
//!
//! The sink is an append-only list: [`take`] numbers the `sim N`
//! labels in the order bundles were recorded. It knows nothing about
//! sweeps. A caller that runs work on several threads orders the
//! capture itself with [`capture`]: every bundle recorded on the
//! calling thread while the closure runs is handed back to the caller
//! instead of reaching the list. The sweep executor
//! (`core::sweep`) runs each point inside a capture, and after the
//! pool settles records the points' bundles in sweep-index order,
//! then its `sweep resilience: <id>` summary bundle. So every export
//! is the same at any `--jobs`, failure paths included.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::metrics::Metrics;
use crate::profile::CommProfile;
use crate::tracer::{CausalEdge, SpanEvent};

/// Everything recorded about one simulation.
#[derive(Debug, Clone, Default)]
pub struct TraceBundle {
    /// Human label ("bt-mz 256x4", "sim 3", …).
    pub label: String,
    /// The span stream, in emission order.
    pub spans: Vec<SpanEvent>,
    /// The causal happens-before edges, in emission order.
    pub edges: Vec<CausalEdge>,
    /// Node of each rank (`rank_nodes[r]` is rank `r`'s node), empty
    /// for bundles without a recorded placement.
    pub rank_nodes: Vec<u32>,
    /// Aggregated counters/histograms.
    pub metrics: Metrics,
    /// The compute/comm/wait attribution.
    pub profile: CommProfile,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<TraceBundle>> = Mutex::new(Vec::new());

thread_local! {
    /// The innermost live [`capture`] on this thread, if any.
    static CAPTURE: RefCell<Option<Vec<TraceBundle>>> = const { RefCell::new(None) };
}

/// Start collecting: clears any previous bundles and activates the
/// sink.
pub fn install() {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    sink.clear();
    ACTIVE.store(true, Ordering::Release);
}

/// Whether a collector is installed. Cheap enough to call per
/// simulation from any thread.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Run `f`, and return its result with every bundle passed to
/// [`record`] on this thread while it ran, in record order. Captures
/// nest: the outer capture is restored when `f` returns or panics, and
/// the bundles of a panicking `f` are dropped.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceBundle>) {
    struct Restore(Option<Vec<TraceBundle>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = self.0.take();
            CAPTURE.with(|c| *c.borrow_mut() = outer);
        }
    }
    let _restore = Restore(CAPTURE.with(|c| c.replace(Some(Vec::new()))));
    let out = f();
    let bundles = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
    (out, bundles)
}

/// Deposit one recorded simulation: into this thread's innermost
/// [`capture`] if one is live, else onto the sink's list. A no-op when
/// the sink is not installed (the recording is dropped), so racing a
/// `take` is safe.
pub fn record(bundle: TraceBundle) {
    if !is_active() {
        return;
    }
    let uncaptured = CAPTURE.with(|c| match c.borrow_mut().as_mut() {
        Some(captured) => {
            captured.push(bundle);
            None
        }
        None => Some(bundle),
    });
    if let Some(bundle) = uncaptured {
        SINK.lock().unwrap_or_else(|e| e.into_inner()).push(bundle);
    }
}

/// Stop collecting and return everything recorded since [`install`],
/// in record order. Labels gain their final `sim N` prefix here,
/// numbered in that order.
pub fn take() -> Vec<TraceBundle> {
    ACTIVE.store(false, Ordering::Release);
    let bundles = std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()));
    bundles
        .into_iter()
        .enumerate()
        .map(|(seq, mut bundle)| {
            bundle.label = format!("sim {seq}: {}", bundle.label);
            bundle
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-global, so the tests that drive its
    /// lifecycle serialize on this lock (test threads run in parallel).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn labels(bundles: &[TraceBundle]) -> Vec<&str> {
        bundles.iter().map(|b| b.label.as_str()).collect()
    }

    fn bundle(label: &str) -> TraceBundle {
        TraceBundle {
            label: label.into(),
            ..TraceBundle::default()
        }
    }

    #[test]
    fn sink_lifecycle() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Exercises the global state end-to-end.
        assert!(!is_active());
        record(bundle("dropped"));
        assert!(take().is_empty());

        install();
        assert!(is_active());
        record(bundle("a"));
        record(bundle("b"));
        let bundles = take();
        assert!(!is_active());
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].label, "sim 0: a");
        assert_eq!(bundles[1].label, "sim 1: b");
        assert!(take().is_empty());
    }

    #[test]
    fn capture_nests_and_restores_the_outer_capture_on_panic() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install();
        let ((), outer) = capture(|| {
            record(bundle("outer before"));
            let ((), inner) = capture(|| record(bundle("inner")));
            assert_eq!(labels(&inner), ["inner"]);
            let panicked = std::panic::catch_unwind(|| {
                capture(|| {
                    record(bundle("lost with the panic"));
                    panic!("attempt failed");
                })
            });
            assert!(panicked.is_err());
            // A capture is per thread: another thread records globally.
            std::thread::scope(|s| {
                s.spawn(|| record(bundle("other thread")));
            });
            record(bundle("outer after"));
        });
        assert_eq!(labels(&outer), ["outer before", "outer after"]);
        record(bundle("uncaptured"));
        assert_eq!(
            labels(&take()),
            ["sim 0: other thread", "sim 1: uncaptured"]
        );
    }
}
