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
//! The sink is global and mutex-protected (not thread-local) so
//! simulations running on worker threads are captured too. A parallel
//! sweep executor wraps each sweep point in [`with_point`], which tags
//! every bundle recorded on that thread with its owning `(epoch,
//! point)` key; [`take`] orders bundles by that key, so a parallel run
//! drains in exactly the order the equivalent serial run would have —
//! bundles are attributed to their sweep point, never interleaved, and
//! the `sim N` labels are bit-identical regardless of scheduling.
//! Bundles recorded outside any sweep point keep arrival order,
//! slotted after the points of the most recently started sweep.
//!
//! The resilient sweep (`core::sweep::SweepPlan::run_resilient_with_jobs`)
//! uses that out-of-point slot deliberately: after a sweep settles it
//! deposits one summary bundle (labelled `sweep resilience: <id>`)
//! carrying `sweep.*` counters — points, resumed, retries, panics,
//! timeouts, failures, checkpoint write errors — and a
//! `sweep.point_seconds` latency histogram, so `repro --metrics`
//! exports the campaign's resilience telemetry alongside the per-
//! simulation fabric counters, draining after that sweep's points.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// Canonical drain position of one recorded bundle: sweeps in start
/// order, points in index order, simulations within a point in the
/// order that point ran them (a point runs on exactly one thread, so
/// that order is well-defined and schedule-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SinkKey {
    epoch: u64,
    point: usize,
    sim: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<(SinkKey, TraceBundle)>> = Mutex::new(Vec::new());
/// Count of sweep epochs started (see [`next_epoch`]).
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Arrival tiebreaker for bundles recorded outside any sweep point.
static ARRIVAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The `(epoch, point)` this thread is currently executing, if any.
    static CTX: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
    /// Simulations recorded so far within the current sweep point.
    static SIM_IN_POINT: Cell<u64> = const { Cell::new(0) };
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

/// Claim the next sweep epoch. A sweep executor calls this once per
/// plan, then wraps each point in [`with_point`] under the returned
/// epoch; epochs order whole sweeps against each other in [`take`].
pub fn next_epoch() -> u64 {
    EPOCH.fetch_add(1, Ordering::Relaxed) + 1
}

/// Run `f` attributed to sweep `point` of `epoch`: every bundle it
/// records (on this thread) is keyed to that point. Nests safely — the
/// previous attribution is restored on exit.
pub fn with_point<R>(epoch: u64, point: usize, f: impl FnOnce() -> R) -> R {
    let prev_ctx = CTX.with(|c| c.replace(Some((epoch, point))));
    let prev_sim = SIM_IN_POINT.with(|c| c.replace(0));
    struct Restore(Option<(u64, usize)>, u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CTX.with(|c| c.set(self.0));
            SIM_IN_POINT.with(|c| c.set(self.1));
        }
    }
    let _restore = Restore(prev_ctx, prev_sim);
    f()
}

/// Deposit one recorded simulation. A no-op when the sink is not
/// installed (the recording is dropped), so racing a `take` is safe.
pub fn record(bundle: TraceBundle) {
    if !is_active() {
        return;
    }
    let key = match CTX.with(|c| c.get()) {
        Some((epoch, point)) => {
            let sim = SIM_IN_POINT.with(|c| {
                let s = c.get();
                c.set(s + 1);
                s
            });
            SinkKey { epoch, point, sim }
        }
        // Outside any sweep point: keep arrival order, after the points
        // of the most recently started sweep.
        None => SinkKey {
            epoch: EPOCH.load(Ordering::Relaxed),
            point: usize::MAX,
            sim: ARRIVAL.fetch_add(1, Ordering::Relaxed),
        },
    };
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    sink.push((key, bundle));
}

/// Stop collecting and return everything captured since [`install`],
/// in canonical order (sweep epoch, point index, per-point arrival) —
/// deterministic however many threads recorded. Labels gain their
/// final `sim N` prefix here, numbered in that order.
pub fn take() -> Vec<TraceBundle> {
    ACTIVE.store(false, Ordering::Release);
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut entries = std::mem::take(&mut *sink);
    drop(sink);
    entries.sort_by_key(|(key, _)| *key);
    entries
        .into_iter()
        .enumerate()
        .map(|(seq, (_, mut bundle))| {
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

    #[test]
    fn sink_lifecycle() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Exercises the global state end-to-end.
        assert!(!is_active());
        record(TraceBundle {
            label: "dropped".into(),
            ..TraceBundle::default()
        });
        assert!(take().is_empty());

        install();
        assert!(is_active());
        record(TraceBundle {
            label: "a".into(),
            ..TraceBundle::default()
        });
        record(TraceBundle {
            label: "b".into(),
            ..TraceBundle::default()
        });
        let bundles = take();
        assert!(!is_active());
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].label, "sim 0: a");
        assert_eq!(bundles[1].label, "sim 1: b");
        assert!(take().is_empty());
    }

    #[test]
    fn sweep_points_collate_canonically_across_threads() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install();
        let epoch = next_epoch();
        // Two "workers" record points out of index order; point 1 even
        // records two simulations.
        let t1 = std::thread::spawn(move || {
            with_point(epoch, 2, || {
                record(TraceBundle {
                    label: "late point".into(),
                    ..TraceBundle::default()
                });
            });
        });
        t1.join().unwrap();
        let t0 = std::thread::spawn(move || {
            with_point(epoch, 1, || {
                record(TraceBundle {
                    label: "mid point, sim A".into(),
                    ..TraceBundle::default()
                });
                record(TraceBundle {
                    label: "mid point, sim B".into(),
                    ..TraceBundle::default()
                });
            });
        });
        t0.join().unwrap();
        with_point(epoch, 0, || {
            record(TraceBundle {
                label: "early point".into(),
                ..TraceBundle::default()
            });
        });
        let labels: Vec<String> = take().into_iter().map(|b| b.label).collect();
        assert_eq!(
            labels,
            vec![
                "sim 0: early point",
                "sim 1: mid point, sim A",
                "sim 2: mid point, sim B",
                "sim 3: late point",
            ]
        );
    }

    #[test]
    fn with_point_restores_previous_attribution() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install();
        let epoch = next_epoch();
        with_point(epoch, 5, || {
            record(TraceBundle {
                label: "outer before".into(),
                ..TraceBundle::default()
            });
            with_point(epoch, 3, || {
                record(TraceBundle {
                    label: "inner".into(),
                    ..TraceBundle::default()
                });
            });
            record(TraceBundle {
                label: "outer after".into(),
                ..TraceBundle::default()
            });
        });
        let labels: Vec<String> = take().into_iter().map(|b| b.label).collect();
        assert_eq!(
            labels,
            vec!["sim 0: inner", "sim 1: outer before", "sim 2: outer after"]
        );
    }
}
