//! Host-side execution telemetry: wall-clock spans and metrics for the
//! machinery that *runs* the simulations, as opposed to the simulated
//! time the [`tracer`](crate::tracer) records.
//!
//! The simulator's tracer answers "where did the *virtual* seconds
//! go?"; this module answers "where did the *wall-clock* seconds go?"
//! — which worker lane executed which sweep point, how long checkpoint
//! writes took, which points were retried, skipped or abandoned. The
//! two timelines are exported side by side by
//! [`chrome::write_chrome_trace`](crate::chrome::write_chrome_trace),
//! so a single Perfetto view shows real executor occupancy next to the
//! simulated-time tracks.
//!
//! # Zero cost when disabled
//!
//! Host telemetry is off by default and every recording hook begins
//! with [`is_enabled`] — a single relaxed atomic load that
//! branch-predicts false. Nothing is timed, allocated, or locked on
//! the disabled path; `--bench obs` measures the residue and CI holds
//! it under 2%. Instrumented call sites are *coarse* (per sweep job,
//! per retry, per checkpoint write — never per simulated event), so
//! the enabled path's mutex is far from contended.
//!
//! # Lifecycle
//!
//! [`enable`] clears any previous capture and starts the host clock;
//! [`take`] stops recording and returns the [`HostReport`]. The state
//! is process-global (like [`sink`](crate::sink)) so worker threads
//! report without any plumbing through the pool's API.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

use crate::metrics::Metrics;

/// Which host timeline a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostTrack {
    /// One executor worker lane (thread `w` of the pool).
    Worker(u32),
    /// The checkpoint store (saves and loads, any thread).
    Store,
}

/// One wall-clock span on a host track. Times are seconds since the
/// host clock's epoch (the moment of [`enable`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpan {
    /// The timeline this span renders on.
    pub track: HostTrack,
    /// Span name shown in the trace viewer ("job 5", "skip job 6", …).
    pub label: String,
    /// Event category ("host.job", "host.skip", "host.store", …).
    pub cat: &'static str,
    /// Start, seconds since the host epoch.
    pub start: f64,
    /// End, seconds since the host epoch (>= start).
    pub end: f64,
    /// Extra key/value detail (outcome, attempts, index), rendered in
    /// order into the trace event's `args`; keys are distinct.
    pub args: Vec<(&'static str, Value)>,
}

impl HostSpan {
    /// Span length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Everything one capture window recorded.
#[derive(Debug, Clone, Default)]
pub struct HostReport {
    /// Wall-clock spans, in emission order.
    pub spans: Vec<HostSpan>,
    /// Host counters and histograms (`host.*`, `store.*`).
    pub metrics: Metrics,
}

impl HostReport {
    /// Worker ids that recorded at least one span, ascending.
    pub fn workers(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .spans
            .iter()
            .filter_map(|s| match s.track {
                HostTrack::Worker(w) => Some(w),
                HostTrack::Store => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

struct HostState {
    epoch: Option<Instant>,
    report: HostReport,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<HostState> = Mutex::new(HostState {
    epoch: None,
    report: HostReport {
        spans: Vec::new(),
        metrics: Metrics::EMPTY,
    },
});

/// Whether host telemetry is recording. The only cost instrumented
/// code pays when telemetry is off.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start (or restart) a capture window: clears any previous spans and
/// metrics and re-bases the host clock at *now*.
pub fn enable() {
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    state.epoch = Some(Instant::now());
    state.report = HostReport::default();
    ENABLED.store(true, Ordering::Release);
}

/// Stop recording and return the capture. `None` if telemetry was
/// never enabled (or was already taken).
pub fn take() -> Option<HostReport> {
    if !ENABLED.swap(false, Ordering::AcqRel) {
        return None;
    }
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    state.epoch = None;
    Some(std::mem::take(&mut state.report))
}

/// Seconds since the capture epoch — the timestamp for a span about to
/// start. `None` when telemetry is disabled, so call sites can skip
/// all further work:
///
/// ```
/// let t0 = columbia_obs::host::clock(); // None: telemetry off
/// // … the real work …
/// if let Some(t0) = t0 {
///     columbia_obs::host::span(
///         columbia_obs::host::HostTrack::Worker(0),
///         "host.job",
///         "job 3".into(),
///         t0,
///         vec![],
///     );
/// }
/// ```
#[inline]
pub fn clock() -> Option<f64> {
    if !is_enabled() {
        return None;
    }
    let state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    state.epoch.map(|e| e.elapsed().as_secs_f64())
}

/// Record a span that started at `start` (a [`clock`] stamp) and ends
/// now. A no-op when telemetry is disabled — a capture can be torn
/// down while a worker is mid-span without losing anything but that
/// span.
pub fn span(
    track: HostTrack,
    cat: &'static str,
    label: String,
    start: f64,
    args: Vec<(&'static str, Value)>,
) {
    if !is_enabled() {
        return;
    }
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(epoch) = state.epoch else { return };
    let end = epoch.elapsed().as_secs_f64().max(start);
    state.report.spans.push(HostSpan {
        track,
        label,
        cat,
        start,
        end,
        args,
    });
}

/// Record an instantaneous event (a zero-length span): fail-fast
/// skips, cache hits — things with a moment but no extent.
pub fn instant(
    track: HostTrack,
    cat: &'static str,
    label: String,
    args: Vec<(&'static str, Value)>,
) {
    if !is_enabled() {
        return;
    }
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(epoch) = state.epoch else { return };
    let t = epoch.elapsed().as_secs_f64();
    state.report.spans.push(HostSpan {
        track,
        label,
        cat,
        start: t,
        end: t,
        args,
    });
}

/// Increment host counter `name` by `by`.
#[inline]
pub fn count(name: &'static str, by: u64) {
    if !is_enabled() {
        return;
    }
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    state.report.metrics.inc(name, by);
}

/// Record an observation into host histogram `name`.
#[inline]
pub fn observe(name: &'static str, v: f64) {
    if !is_enabled() {
        return;
    }
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    state.report.metrics.observe(name, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The capture window is process-global; tests that drive it
    /// serialize here (test threads run in parallel).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_hooks_are_no_ops() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!is_enabled());
        assert_eq!(clock(), None);
        count("host.retries", 1);
        observe("host.backoff_seconds", 0.01);
        span(
            HostTrack::Worker(0),
            "host.job",
            "job 0".into(),
            0.0,
            vec![],
        );
        instant(HostTrack::Store, "host.store", "hit".into(), vec![]);
        assert!(take().is_none(), "nothing was enabled, nothing to take");
    }

    #[test]
    fn capture_lifecycle_records_and_drains() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        assert!(is_enabled());
        let t0 = clock().expect("clock runs while enabled");
        std::thread::sleep(std::time::Duration::from_millis(2));
        span(
            HostTrack::Worker(1),
            "host.job",
            "job 7".into(),
            t0,
            vec![("index", Value::Number(7.0))],
        );
        instant(HostTrack::Worker(3), "host.skip", "skip".into(), vec![]);
        count("host.retries", 2);
        observe("store.write_seconds", 1e-3);
        let report = take().expect("capture was live");
        assert!(!is_enabled());
        assert_eq!(report.spans.len(), 2);
        let job = &report.spans[0];
        assert_eq!(job.track, HostTrack::Worker(1));
        assert!(job.duration() >= 0.002, "span covered the sleep");
        assert_eq!(report.spans[1].duration(), 0.0, "instants are zero-length");
        assert_eq!(report.metrics.counter("host.retries"), 2);
        assert_eq!(
            report
                .metrics
                .histogram("store.write_seconds")
                .map(|h| h.count()),
            Some(1)
        );
        assert_eq!(report.workers(), vec![1, 3]);
        assert!(take().is_none(), "a capture drains exactly once");
    }

    #[test]
    fn enable_clears_the_previous_capture() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        count("host.jobs", 5);
        enable();
        let report = take().expect("second window live");
        assert_eq!(report.metrics.counter("host.jobs"), 0, "window restarted");
    }

    #[test]
    fn spans_recorded_from_worker_threads_land_in_one_report() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        let handles: Vec<_> = (0..4u32)
            .map(|w| {
                std::thread::spawn(move || {
                    let t0 = clock().expect("enabled");
                    span(
                        HostTrack::Worker(w),
                        "host.job",
                        format!("job {w}"),
                        t0,
                        vec![],
                    );
                    count("host.jobs", 1);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let report = take().expect("live");
        assert_eq!(report.spans.len(), 4);
        assert_eq!(report.metrics.counter("host.jobs"), 4);
        assert_eq!(report.workers(), vec![0, 1, 2, 3]);
    }
}
