//! Host-side execution telemetry: wall-clock spans and metrics for the
//! machinery that *runs* the simulations, as opposed to the simulated
//! time the [`tracer`](crate::tracer) records.
//!
//! The simulator's tracer answers "where did the *virtual* seconds
//! go?"; this module answers "where did the *wall-clock* seconds go?"
//! — which worker lane executed which sweep point, how long checkpoint
//! writes took, which points were retried, skipped or abandoned, and
//! how long each PDES round of a partitioned simulation took. The
//! two timelines are exported side by side by
//! [`chrome::write_chrome_trace`](crate::chrome::write_chrome_trace),
//! so a single Perfetto view shows real executor occupancy next to the
//! simulated-time tracks.
//!
//! # Capture
//!
//! A [`HostCapture`] is one run's capture window: the host clock's
//! epoch and the [`HostReport`] recorded since. It is a value, carried
//! by the run's [`RunContext`] to its three recorders: the sweep pool
//! (`par::run_governed`, through its options), the checkpoint store
//! (attached by the sweep) and the PDES loop (`simnet::simulate`).
//! [`HostCapture::take`] closes the window and returns the report;
//! hooks called after that record nothing.
//!
//! # Zero cost when disabled
//!
//! Host telemetry is off unless a run carries a capture, and every
//! recording call site holds an `Option<&HostCapture>`: with telemetry
//! off it pays one `None` check. Nothing is timed, allocated, or locked
//! on that path; `--bench obs` measures the residue and CI holds it
//! under 2%. Instrumented call sites are *coarse* (per sweep job, per
//! retry, per checkpoint write, per PDES round — never per simulated
//! event), so the capture's mutex is far from contended.
//!
//! [`enable`], [`take`] and [`clock`] are one-line shims onto the
//! process-default context, kept only for `benchmark/probes` until
//! ROADMAP item 3, step 3.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::Value;

use crate::context::RunContext;
use crate::metrics::Metrics;

/// Which executor timeline a [`HostSpan`] belongs to.
///
/// PDES partition lanes are not tracks: their spans are
/// [`PartitionSpan`]s in [`HostReport::partitions`], so a match over
/// `HostTrack` covers the executor and the store and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostTrack {
    /// One executor worker lane (thread `w` of the pool).
    Worker(u32),
    /// The checkpoint store (saves and loads, any thread).
    Store,
}

/// One wall-clock span on a host track. Times are seconds since the
/// capture's epoch (the moment it was made).
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

/// One wall-clock span on a PDES partition lane, rendered with category
/// `host.pdes`: a partition's round of scheduler events ("round k",
/// arg `events`) or, on lane 0, the leader phase after round k ("leader
/// k", arg `messages`: the cross-partition messages it delivered).
///
/// Lanes are keyed by partition index, not by simulation, so
/// simulations running concurrently under `--jobs > 1` share lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpan {
    /// The partition index: the lane this span renders on.
    pub partition: u32,
    /// "round k" or "leader k".
    pub label: String,
    /// Start, seconds since the host epoch.
    pub start: f64,
    /// End, seconds since the host epoch (>= start).
    pub end: f64,
    /// The span's one named count, rendered as its `args`.
    pub count: (&'static str, u64),
}

impl PartitionSpan {
    /// Span length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Everything one capture window recorded.
#[derive(Debug, Clone, Default)]
pub struct HostReport {
    /// Executor and store spans, in emission order.
    pub spans: Vec<HostSpan>,
    /// PDES partition-lane spans, in emission order.
    pub partitions: Vec<PartitionSpan>,
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

    /// Partition lanes that recorded at least one span, ascending.
    pub fn partition_lanes(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.partitions.iter().map(|s| s.partition).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// One capture window: the host clock's epoch and everything recorded
/// since. Shared by reference (`Arc`) between the recorders of one run.
#[derive(Debug)]
pub struct HostCapture {
    epoch: Instant,
    /// `None` once taken: later hooks record nothing.
    report: Mutex<Option<HostReport>>,
}

impl Default for HostCapture {
    /// Open a capture window, its clock starting now.
    fn default() -> Self {
        HostCapture {
            epoch: Instant::now(),
            report: Mutex::new(Some(HostReport::default())),
        }
    }
}

impl HostCapture {
    /// Seconds since the epoch — the timestamp for a span about to
    /// start:
    ///
    /// ```
    /// let host = columbia_obs::host::HostCapture::default();
    /// let t0 = host.clock();
    /// // … the real work …
    /// host.span(
    ///     columbia_obs::host::HostTrack::Worker(0),
    ///     "host.job",
    ///     "job 3".into(),
    ///     t0,
    ///     vec![],
    /// );
    /// assert_eq!(host.take().map(|r| r.spans.len()), Some(1));
    /// ```
    #[inline]
    pub fn clock(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` on the open report and the seconds since the epoch; a
    /// no-op once the capture has been taken.
    fn record(&self, f: impl FnOnce(&mut HostReport, f64)) {
        let mut report = self.report.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(report) = report.as_mut() {
            f(report, self.clock());
        }
    }

    /// Record a span that started at `start` (a [`HostCapture::clock`]
    /// stamp) and ends now.
    pub fn span(
        &self,
        track: HostTrack,
        cat: &'static str,
        label: String,
        start: f64,
        args: Vec<(&'static str, Value)>,
    ) {
        self.record(|r, t| {
            r.spans.push(HostSpan {
                track,
                label,
                cat,
                start,
                end: t.max(start),
                args,
            })
        });
    }

    /// Record a span on PDES partition lane `lane` that started at
    /// `start` and ends now, with its one named `count` (see
    /// [`PartitionSpan`]).
    pub fn partition_span(&self, lane: u32, label: String, start: f64, count: (&'static str, u64)) {
        self.record(|r, t| {
            r.partitions.push(PartitionSpan {
                partition: lane,
                label,
                start,
                end: t.max(start),
                count,
            })
        });
    }

    /// Record an instantaneous event (a zero-length span): fail-fast
    /// skips, cache hits — things with a moment but no extent.
    pub fn instant(
        &self,
        track: HostTrack,
        cat: &'static str,
        label: String,
        args: Vec<(&'static str, Value)>,
    ) {
        self.record(|r, t| {
            r.spans.push(HostSpan {
                track,
                label,
                cat,
                start: t,
                end: t,
                args,
            })
        });
    }

    /// Increment host counter `name` by `by`.
    pub fn count(&self, name: &'static str, by: u64) {
        self.record(|r, _| r.metrics.inc(name, by));
    }

    /// Record an observation into host histogram `name`.
    pub fn observe(&self, name: &'static str, v: f64) {
        self.record(|r, _| r.metrics.observe(name, v));
    }

    /// Close the window and return what it recorded; `None` if it was
    /// already taken.
    pub fn take(&self) -> Option<HostReport> {
        self.report.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// Give the process-default context a fresh capture. Kept only for
/// `benchmark/probes` until ROADMAP item 3, step 3.
pub fn enable() {
    RunContext::update_process_default(|ctx| ctx.host = Some(Arc::default()));
}

/// Remove the process-default context's capture and return what it
/// recorded; `None` if there was none. Kept only for `benchmark/probes`
/// until ROADMAP item 3, step 3.
pub fn take() -> Option<HostReport> {
    RunContext::update_process_default(|ctx| ctx.host.take())?.take()
}

/// The process-default capture's clock, `None` without a capture. Kept
/// only for `benchmark/probes` until ROADMAP item 3, step 3.
///
/// ```
/// use columbia_obs::host;
///
/// assert_eq!(host::clock(), None); // no capture: nothing to time
/// host::enable();
/// assert!(host::clock().is_some_and(|t| t >= 0.0));
/// assert!(host::take().is_some());
/// ```
pub fn clock() -> Option<f64> {
    RunContext::process_default().host().map(|h| h.clock())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_are_no_ops() {
        // Telemetry is off in a context without a capture, and a taken
        // capture ignores its hooks.
        let ctx = RunContext::new(1);
        assert!(ctx.host().is_none());
        assert_eq!(ctx.host().map(|h| h.clock()), None);
        let closed = HostCapture::default();
        assert!(closed.take().is_some());
        closed.count("host.retries", 1);
        closed.observe("host.backoff_seconds", 0.01);
        closed.span(
            HostTrack::Worker(0),
            "host.job",
            "job 0".into(),
            0.0,
            vec![],
        );
        closed.instant(HostTrack::Store, "host.store", "hit".into(), vec![]);
        closed.partition_span(1, "round 0".into(), 0.0, ("events", 3));
        assert!(closed.take().is_none(), "a taken capture stays closed");
        assert!(
            ctx.take_host_report().is_none(),
            "nothing was enabled, nothing to take"
        );
    }

    #[test]
    fn capture_lifecycle_records_and_drains() {
        let ctx = RunContext::new(1).with_host_capture();
        let host = ctx.host().expect("the context carries a capture");
        let t0 = host.clock();
        std::thread::sleep(std::time::Duration::from_millis(2));
        host.span(
            HostTrack::Worker(1),
            "host.job",
            "job 7".into(),
            t0,
            vec![("index", Value::Number(7.0))],
        );
        host.instant(HostTrack::Worker(3), "host.skip", "skip".into(), vec![]);
        host.partition_span(2, "round 0".into(), t0, ("events", 12));
        host.partition_span(0, "leader 0".into(), t0, ("messages", 1));
        host.count("host.retries", 2);
        host.observe("store.write_seconds", 1e-3);
        let report = ctx.take_host_report().expect("capture was live");
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
        assert_eq!(report.partitions.len(), 2, "partition lanes are kept apart");
        assert_eq!(report.partitions[0].count, ("events", 12));
        assert!(report.partitions[0].duration() >= 0.002);
        assert_eq!(report.partition_lanes(), vec![0, 2]);
        assert!(
            ctx.take_host_report().is_none(),
            "a capture drains exactly once"
        );
    }

    /// The shims' one test: `enable` replaces the process default's
    /// capture, and `take` drains it.
    #[test]
    fn enable_clears_the_previous_capture() {
        let count = |name, by| {
            let ctx = RunContext::process_default();
            ctx.host().expect("enabled").count(name, by);
        };
        enable();
        assert!(clock().is_some());
        count("host.jobs", 5);
        enable();
        let report = take().expect("second window live");
        assert_eq!(report.metrics.counter("host.jobs"), 0, "window restarted");
        assert!(take().is_none() && clock().is_none(), "taken once");
    }

    #[test]
    fn spans_recorded_from_worker_threads_land_in_one_report() {
        let host = Arc::new(HostCapture::default());
        let handles: Vec<_> = (0..4u32)
            .map(|w| {
                let host = Arc::clone(&host);
                std::thread::spawn(move || {
                    let t0 = host.clock();
                    host.span(
                        HostTrack::Worker(w),
                        "host.job",
                        format!("job {w}"),
                        t0,
                        vec![],
                    );
                    host.count("host.jobs", 1);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let report = host.take().expect("live");
        assert_eq!(report.spans.len(), 4);
        assert_eq!(report.metrics.counter("host.jobs"), 4);
        assert_eq!(report.workers(), vec![0, 1, 2, 3]);
    }
}
