//! Sweep decomposition and the parallel sweep executor.
//!
//! Every experiment is a *sweep*: a list of independent points (one
//! discrete-event simulation each — a CPU count, a fabric, a fault
//! scenario) whose results are collated into a [`Report`] in a fixed,
//! paper-given order. A [`SweepPlan`] makes that structure explicit:
//! the report skeleton, the ordered list of [`SweepPoint`] jobs, and a
//! collation step. [`SweepPlan::run`] executes the points on the
//! `columbia-par` pool, in the caller's [`RunContext`] — points may
//! finish in any order, but every
//! [`PointOutput`] is keyed by its sweep index and reduced in canonical
//! order, so the resulting report is **bit-identical** to a serial run
//! regardless of scheduling (property-tested, and enforced by the CI
//! determinism gate diffing `repro --jobs 2` against `--jobs 1`).
//!
//! Error semantics are also canonical: the error of the
//! *lowest-indexed* failing point is returned — every point at or
//! below that index runs to completion, so a parallel run cannot
//! surface a different failure than the serial one just because a
//! later point crashed first.
//!
//! Trace recording is ordered the same way. Each attempt at a point
//! runs in a [`RunContext::child`] of the sweep's context — the same
//! thread count and host capture, and a trace list of its own — so the
//! bundles its simulations record travel back with its result. Once the
//! pool settles, the sweep records them into its context in sweep-index
//! order, for every point whose settling attempt returned an output or
//! a [`SimError`] (a deadlocked run still leaves its partial timeline).
//! Panicked and abandoned attempts and resumed points record nothing,
//! and a strict run records only the points up to and including the
//! lowest failing one — exactly the points a one-thread run executes.
//! So `repro --trace` exports the same bundles at any `--jobs`.
//!
//! # Resilient execution
//!
//! [`SweepPlan::run_resilient`] is the batch-campaign variant: instead of aborting the sweep at the first failure it runs
//! *everything*, under a resilience policy ([`ResilienceOptions`]):
//!
//! * a panicking point becomes a typed [`PointError::Panicked`] in the
//!   outcome (the pool is never poisoned — see `columbia-par`);
//! * a hung point is abandoned at its wall-clock deadline and becomes
//!   [`PointError::DeadlineExceeded`];
//! * failed attempts are retried up to `max_retries` times on a
//!   deterministic backoff;
//! * with a checkpoint store attached ([`PointStore`]), every
//!   completed point is persisted, and `resume` serves previously
//!   checkpointed points without re-running them;
//! * failures degrade the report to diagnostic rows (one per failed
//!   point) instead of discarding the sweep, and the whole episode is
//!   summarized in [`SweepStats`].
//!
//! Both run through one body, so a resilient run in which every point
//! succeeds produces a report **byte-identical** to the strict one's —
//! and because collation is deterministic in sweep-index order, a run
//! killed mid-sweep and resumed from its checkpoint directory is
//! byte-identical to an uninterrupted one (gated by the CI resume smoke
//! test).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use columbia_obs::{RunContext, TraceBundle};
use columbia_par::{panic_message, JobFailure, JobStatus, RunOptions};
use columbia_simnet::SimError;

use crate::report::Report;
use crate::store::{Fnv128, PointKey, PointStore};

/// What one sweep point contributes to the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointOutput {
    /// Rows this point appends, in order.
    pub rows: Vec<Vec<String>>,
    /// Notes this point appends (after all rows, in point order).
    pub notes: Vec<String>,
    /// Experiment-specific scalars for custom collation (e.g. the
    /// degraded sweep's per-scenario seconds-per-step, from which the
    /// collator derives the slowdown column).
    pub values: Vec<f64>,
}

impl PointOutput {
    /// A single-row output.
    pub fn row(cells: Vec<String>) -> Self {
        PointOutput {
            rows: vec![cells],
            ..PointOutput::default()
        }
    }

    /// A multi-row output.
    pub fn rows(rows: Vec<Vec<String>>) -> Self {
        PointOutput {
            rows,
            ..PointOutput::default()
        }
    }

    /// Attach a collation scalar.
    pub fn with_value(mut self, v: f64) -> Self {
        self.values.push(v);
        self
    }

    /// Attach a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

/// One independent sweep job: runs an isolated simulation (or a small
/// family of them) in the given context and returns its contribution
/// to the report.
///
/// Points are `Fn` (not `FnOnce`) so the resilient executor can retry
/// them, and `Sync` so a deadline watchdog can re-invoke them from a
/// supervised thread. In practice every experiment's points capture
/// only small `Copy` configuration (CPU counts, seeds, fabric enums),
/// so the stronger bound costs nothing.
pub type SweepPoint = Box<dyn Fn(&RunContext) -> Result<PointOutput, SimError> + Send + Sync>;

/// One attempt at a point as the pool runs it: the point's result and
/// the trace bundles it recorded.
type Captured = (Result<PointOutput, SimError>, Vec<TraceBundle>);

/// A [`SweepPoint`] as the pool runs it: each call is one attempt, in
/// its own child context.
type CapturedPoint = Box<dyn Fn() -> Captured + Send + Sync>;

/// Collation hook: builds the report body from the index-ordered point
/// outputs. The default appends every point's rows, then every point's
/// notes, in sweep order.
pub type Collate = Box<dyn FnOnce(&mut Report, Vec<PointOutput>)>;

/// Why one sweep point produced no usable output. Ordered by sweep
/// index in [`SweepOutcome::failures`], so the first element is the
/// canonical lowest-indexed failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PointError {
    /// The simulation itself failed (deadlock, placement mismatch, …).
    Sim {
        /// Sweep index of the failing point.
        point: usize,
        /// The underlying simulation error.
        error: SimError,
    },
    /// The point panicked on every attempt.
    Panicked {
        /// Sweep index of the failing point.
        point: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Rendered panic payload of the final attempt.
        message: String,
    },
    /// The point overran its wall-clock deadline on every attempt and
    /// was abandoned by the watchdog.
    DeadlineExceeded {
        /// Sweep index of the failing point.
        point: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// The configured per-attempt deadline.
        deadline: Duration,
    },
    /// No worker settled the point's result slot — a pool invariant
    /// was violated. Surfaced as data, never as a panic.
    Lost {
        /// Sweep index of the lost point.
        point: usize,
    },
}

impl PointError {
    /// Sweep index of the failing point.
    pub fn point(&self) -> usize {
        match self {
            PointError::Sim { point, .. }
            | PointError::Panicked { point, .. }
            | PointError::DeadlineExceeded { point, .. }
            | PointError::Lost { point } => *point,
        }
    }

    /// One-line description without the `point N` prefix (diagnostic
    /// rows carry the index in their own cell). Multi-line simulation
    /// errors (deadlock reports) are truncated to their first line.
    pub fn describe(&self) -> String {
        match self {
            PointError::Sim { error, .. } => {
                let text = error.to_string();
                text.lines()
                    .next()
                    .unwrap_or("simulation error")
                    .to_string()
            }
            PointError::Panicked {
                attempts, message, ..
            } => {
                let first = message.lines().next().unwrap_or("");
                format!("panicked after {attempts} attempt(s): {first}")
            }
            PointError::DeadlineExceeded {
                attempts, deadline, ..
            } => format!(
                "exceeded its {:.3}s deadline on all {attempts} attempt(s)",
                deadline.as_secs_f64()
            ),
            PointError::Lost { .. } => "result lost (pool invariant violated)".to_string(),
        }
    }
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point {}: {}", self.point(), self.describe())
    }
}

impl std::error::Error for PointError {}

/// Policy knobs for [`SweepPlan::run_resilient`].
#[derive(Debug, Default)]
pub struct ResilienceOptions {
    /// Per-attempt wall-clock deadline for one point. `None` disables
    /// the watchdog.
    pub deadline: Option<Duration>,
    /// Retries after a panicked or timed-out attempt (0 = one attempt).
    pub max_retries: u32,
    /// Checkpoint store: every completed point is persisted here.
    pub store: Option<PointStore>,
    /// Serve previously checkpointed points from `store` instead of
    /// re-running them.
    pub resume: bool,
    /// Experiment id for checkpoint keys; defaults to the plan id.
    pub experiment: Option<String>,
}

/// What a resilient sweep did, beyond the report itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Total sweep points in the plan.
    pub points: usize,
    /// Points served from the checkpoint store without re-running.
    pub resumed: usize,
    /// Extra attempts across all points (attempts beyond the first).
    pub retries: u64,
    /// Points whose final attempt panicked.
    pub panics: u64,
    /// Points whose final attempt overran the deadline.
    pub timeouts: u64,
    /// Points that produced no usable output (all failure kinds).
    pub failed: usize,
    /// Checkpoint writes that failed (the sweep continues; the point
    /// just is not resumable).
    pub checkpoint_errors: u64,
}

impl SweepStats {
    /// Render as ordered JSON — the `stats` object inside both the run
    /// manifest and `repro`'s `SWEEP JSON` stderr record.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        let mut v = Value::object();
        v.set("points", Value::Number(self.points as f64));
        v.set("resumed", Value::Number(self.resumed as f64));
        v.set("retries", Value::Number(self.retries as f64));
        v.set("panics", Value::Number(self.panics as f64));
        v.set("timeouts", Value::Number(self.timeouts as f64));
        v.set("failed", Value::Number(self.failed as f64));
        v.set(
            "checkpoint_errors",
            Value::Number(self.checkpoint_errors as f64),
        );
        v
    }
}

/// The result of [`SweepPlan::run_resilient`]: the (possibly
/// degraded) report, the typed failures in sweep-index order, and run
/// statistics.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The collated report. With failures, it carries one diagnostic
    /// row and one note per failed point.
    pub report: Report,
    /// Typed per-point failures, ordered by sweep index.
    pub failures: Vec<PointError>,
    /// Execution statistics (resumed/retried/failed counts).
    pub stats: SweepStats,
}

impl SweepOutcome {
    /// The canonical lowest-indexed failure, if any point failed.
    pub fn first_failure(&self) -> Option<&PointError> {
        self.failures.first()
    }

    /// Whether every point produced a usable output.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// An experiment decomposed into independent, index-keyed jobs plus a
/// deterministic reduction.
pub struct SweepPlan {
    /// Report id ("Table 2", "Fig. 5", …).
    pub id: String,
    /// Report title.
    pub title: String,
    /// Report column headers.
    pub headers: Vec<String>,
    points: Vec<SweepPoint>,
    /// Plan-level notes, appended after all point notes.
    notes: Vec<String>,
    collate: Option<Collate>,
    /// Per-simulation PDES thread count requested by the spec's
    /// `[defaults] sim_threads` key (`None` = runner decides; the CLI
    /// flag overrides either way). Purely an execution hint: it cannot
    /// change any simulated result, so it is excluded from
    /// [`SweepPlan::fingerprint`] and checkpoints resolve across it.
    pub sim_threads: Option<usize>,
}

impl SweepPlan {
    /// Start a plan with the report skeleton.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        SweepPlan {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            points: Vec::new(),
            notes: Vec::new(),
            collate: None,
            sim_threads: None,
        }
    }

    /// Append one sweep point. Index order is the collation order.
    pub fn point(
        &mut self,
        f: impl Fn(&RunContext) -> Result<PointOutput, SimError> + Send + Sync + 'static,
    ) -> &mut Self {
        self.points.push(Box::new(f));
        self
    }

    /// Append an infallible sweep point.
    pub fn point_ok(
        &mut self,
        f: impl Fn(&RunContext) -> PointOutput + Send + Sync + 'static,
    ) -> &mut Self {
        self.point(move |ctx| Ok(f(ctx)))
    }

    /// Append a plan-level note (rendered after every point's notes).
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Replace the default collation with a custom reduction over the
    /// index-ordered point outputs.
    pub fn collate_with(&mut self, f: impl FnOnce(&mut Report, Vec<PointOutput>) + 'static) {
        self.collate = Some(Box::new(f));
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// A 64-bit fingerprint of the plan's *shape* — id, title, headers,
    /// and point count — folded into every checkpoint key. Point
    /// closures are opaque, so parameters are not covered: a spec edit
    /// that keeps the shape keeps the fingerprint (see `core::store`
    /// on when a checkpoint directory must start fresh).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv128::new();
        h.update(b"columbia-sweep-plan\0");
        h.update(self.id.as_bytes());
        h.update(b"\0");
        h.update(self.title.as_bytes());
        h.update(b"\0");
        for header in &self.headers {
            h.update(header.as_bytes());
            h.update(b"\0");
        }
        h.update(&(self.points.len() as u64).to_le_bytes());
        h.finish() as u64
    }

    /// Execute every point in `ctx` on `jobs` threads and collate in
    /// canonical order.
    ///
    /// Trace bundles the points record reach `ctx` in sweep order, not
    /// completion order (see the module docs). With one thread this is
    /// exactly the serial path: points run in index order on the
    /// calling thread.
    ///
    /// On failure the error of the **lowest-indexed** failing point is
    /// returned: every point at or below that index runs to
    /// completion (so the minimum is exact), while points above it are
    /// not started once the failure is in — points already in flight
    /// are still joined before this returns. A panicking point
    /// completes the same settlement and is then re-raised on the
    /// calling thread.
    pub fn run(self, ctx: &RunContext, jobs: usize) -> Result<Report, SimError> {
        let outcome = self.execute(ctx, jobs, ResilienceOptions::default(), true);
        match outcome.failures.into_iter().next() {
            None => Ok(outcome.report),
            Some(PointError::Sim { error, .. }) => Err(error),
            // The whole payload, not `describe`'s first line.
            Some(PointError::Panicked { point, message, .. }) => {
                panic!("sweep point {point} panicked: {message}")
            }
            Some(failure) => panic!("sweep {failure}"),
        }
    }

    /// [`SweepPlan::run`] in the process-default context. Kept only for
    /// `benchmark/probes` until ROADMAP item 3, step 3.
    pub fn run_with_jobs(self, jobs: usize) -> Result<Report, SimError> {
        self.run(&RunContext::process_default(), jobs)
    }

    /// Execute every point in `ctx` under the resilience policy in
    /// `opts` and collate whatever survives — the campaign-grade path
    /// behind `repro --resume/--point-deadline/--max-retries`. A store
    /// in `opts` records into `ctx`'s host capture.
    ///
    /// Unlike [`SweepPlan::run`] this never fails and never
    /// panics on a point failure: every point is attempted (with
    /// deadline, retry, and checkpoint semantics per `opts`), failed
    /// points degrade to one diagnostic row plus one note each, and the
    /// typed failures come back in [`SweepOutcome::failures`], ordered
    /// by sweep index. When every point succeeds the report is
    /// byte-identical to the strict path's.
    pub fn run_resilient(
        self,
        ctx: &RunContext,
        jobs: usize,
        opts: ResilienceOptions,
    ) -> SweepOutcome {
        self.execute(ctx, jobs, opts, false)
    }

    /// [`SweepPlan::run_resilient`] in the process-default context.
    /// Kept only for `benchmark/probes` until ROADMAP item 3, step 3.
    pub fn run_resilient_with_jobs(self, jobs: usize, opts: ResilienceOptions) -> SweepOutcome {
        self.run_resilient(&RunContext::process_default(), jobs, opts)
    }

    /// The one sweep body. `strict` stops starting points above the
    /// lowest failure and records only the traces of the points up to
    /// it.
    fn execute(
        self,
        ctx: &RunContext,
        jobs: usize,
        opts: ResilienceOptions,
        strict: bool,
    ) -> SweepOutcome {
        let n = self.points.len();
        let experiment = opts.experiment.unwrap_or_else(|| self.id.clone());
        let fingerprint = self.fingerprint();
        let host = ctx.host().cloned();
        let store = opts.store.map(|s| Arc::new(s.with_host(host.clone())));
        let checkpoint_errors = Arc::new(AtomicU64::new(0));
        let mut resumed = 0usize;

        let points: Vec<CapturedPoint> = self
            .points
            .into_iter()
            .enumerate()
            .map(|(idx, f)| {
                let key = PointKey {
                    experiment: experiment.clone(),
                    fingerprint,
                    index: idx,
                };
                if opts.resume {
                    if let Some(cached) = store.as_ref().and_then(|s| s.load(&key)) {
                        // Serve the checkpoint; the point never runs.
                        resumed += 1;
                        return Box::new(move || (Ok(cached.clone()), Vec::new())) as CapturedPoint;
                    }
                }
                let (store, ctx) = (store.clone(), ctx.clone());
                let checkpoint_errors = Arc::clone(&checkpoint_errors);
                Box::new(move || {
                    let attempt = ctx.child();
                    let out = f(&attempt);
                    // Checkpoint from the worker, so a kill between
                    // points loses at most the in-flight ones. A failed
                    // write only costs resumability, never the sweep.
                    if let (Ok(output), Some(store)) = (&out, &store) {
                        if store.save(&key, output).is_err() {
                            checkpoint_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    (out, attempt.into_bundles())
                }) as CapturedPoint
            })
            .collect();

        let run_opts = RunOptions {
            deadline: opts.deadline,
            max_retries: opts.max_retries,
            fail_fast: strict,
            host,
        };
        let statuses =
            columbia_par::run_governed(jobs, points, &run_opts, |(r, _): &Captured| r.is_err());

        let mut stats = SweepStats {
            points: n,
            resumed,
            ..SweepStats::default()
        };
        let mut outputs = Vec::with_capacity(n);
        let mut traces = Vec::with_capacity(n);
        let mut failures = Vec::new();
        for (idx, status) in statuses.into_iter().enumerate() {
            let bundles = match status {
                JobStatus::Done(outcome) => {
                    stats.retries += u64::from(outcome.attempts.saturating_sub(1));
                    match outcome.result {
                        Ok((Ok(output), bundles)) => {
                            outputs.push(output);
                            bundles
                        }
                        Ok((Err(error), bundles)) => {
                            failures.push(PointError::Sim { point: idx, error });
                            outputs.push(PointOutput::default());
                            bundles
                        }
                        Err(JobFailure::Panicked { message }) => {
                            stats.panics += 1;
                            failures.push(PointError::Panicked {
                                point: idx,
                                attempts: outcome.attempts,
                                message,
                            });
                            outputs.push(PointOutput::default());
                            Vec::new()
                        }
                        Err(JobFailure::DeadlineExceeded { deadline }) => {
                            stats.timeouts += 1;
                            failures.push(PointError::DeadlineExceeded {
                                point: idx,
                                attempts: outcome.attempts,
                                deadline,
                            });
                            outputs.push(PointOutput::default());
                            Vec::new()
                        }
                    }
                }
                // A strict run did not start this point: a lower one
                // failed, and that failure is the one reported.
                JobStatus::Skipped => {
                    outputs.push(PointOutput::default());
                    Vec::new()
                }
                JobStatus::Lost => {
                    failures.push(PointError::Lost { point: idx });
                    outputs.push(PointOutput::default());
                    Vec::new()
                }
            };
            traces.push(bundles);
        }
        stats.failed = failures.len();
        stats.checkpoint_errors = checkpoint_errors.load(Ordering::Relaxed);

        // A strict run stops at its lowest failure, so it records only
        // the points a one-thread run would have run.
        let traced = match failures.first() {
            Some(failure) if strict => failure.point() + 1,
            _ => n,
        };
        for bundle in traces.into_iter().take(traced).flatten() {
            ctx.record(bundle);
        }

        let mut report = if failures.is_empty() {
            build_report(
                &self.id,
                &self.title,
                &self.headers,
                self.collate,
                self.notes,
                outputs,
            )
        } else {
            // A custom collator may assume well-formed outputs (e.g.
            // divide by a point's collation scalar); failed points hand
            // it empty placeholders, so collation itself is isolated.
            let (id, title, headers) = (self.id, self.title, self.headers);
            let plan_notes = self.notes;
            let collate = self.collate;
            match catch_unwind(AssertUnwindSafe(|| {
                build_report(&id, &title, &headers, collate, plan_notes.clone(), outputs)
            })) {
                Ok(report) => report,
                Err(payload) => {
                    let mut report = Report::new(
                        &id,
                        &title,
                        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
                    );
                    report.note(format!(
                        "collation degraded: collator panicked over failed points ({})",
                        panic_message(payload)
                    ));
                    for note in plan_notes {
                        report.note(note);
                    }
                    report
                }
            }
        };

        // Diagnostic rows: one per failed point, at exact header arity
        // so the renderer never flags them as malformed.
        for failure in &failures {
            let width = report.headers.len().max(1);
            let mut row = vec![String::new(); width];
            if width > 1 {
                row[0] = format!("[point {}]", failure.point());
                row[1] = failure.describe();
            } else {
                row[0] = format!("[point {}] {}", failure.point(), failure.describe());
            }
            report.push_row(row);
            report.note(format!(
                "point {} failed: {}",
                failure.point(),
                failure.describe()
            ));
        }

        SweepOutcome {
            report,
            failures,
            stats,
        }
    }
}

/// The collation tail: report skeleton, default or custom body, then
/// plan notes.
fn build_report(
    id: &str,
    title: &str,
    headers: &[String],
    collate: Option<Collate>,
    plan_notes: Vec<String>,
    outputs: Vec<PointOutput>,
) -> Report {
    let mut report = Report::new(
        id,
        title,
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    match collate {
        Some(collate) => collate(&mut report, outputs),
        None => {
            for o in &outputs {
                for row in &o.rows {
                    report.push_row(row.clone());
                }
            }
            for o in outputs {
                for note in o.notes {
                    report.note(note);
                }
            }
        }
    }
    for note in plan_notes {
        report.note(note);
    }
    report
}

impl std::fmt::Debug for SweepPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPlan")
            .field("id", &self.id)
            .field("points", &self.points.len())
            .field("custom_collate", &self.collate.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PointStore;
    use std::sync::atomic::AtomicU32;
    use std::sync::{Barrier, Mutex};

    fn demo_plan() -> SweepPlan {
        let mut plan = SweepPlan::new("T", "demo", &["i", "sq"]);
        for i in 0..10u64 {
            plan.point_ok(move |_| {
                PointOutput::row(vec![i.to_string(), (i * i).to_string()]).with_value(i as f64)
            });
        }
        plan.note("plan note");
        plan
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "columbia-sweep-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn serial_and_parallel_reports_are_identical() {
        let serial = demo_plan().run_with_jobs(1).unwrap();
        for jobs in [2, 3, 7, 16] {
            let par = demo_plan().run_with_jobs(jobs).unwrap();
            assert_eq!(serial.to_text(), par.to_text(), "jobs={jobs}");
            assert_eq!(serial.to_json(), par.to_json(), "jobs={jobs}");
        }
    }

    #[test]
    fn rows_preserve_sweep_order_when_points_finish_out_of_order() {
        // Point i sleeps inversely to its index, so under any real
        // scheduler later points complete first; collation must not
        // leak insertion order into the report.
        let mut plan = SweepPlan::new("T", "ooo", &["i"]);
        for i in 0..8u64 {
            plan.point_ok(move |_| {
                std::thread::sleep(std::time::Duration::from_millis(2 * (8 - i)));
                PointOutput::row(vec![i.to_string()])
            });
        }
        let r = plan.run_with_jobs(4).unwrap();
        let got: Vec<&str> = r.rows.iter().map(|row| row[0].as_str()).collect();
        assert_eq!(got, ["0", "1", "2", "3", "4", "5", "6", "7"]);
    }

    #[test]
    fn lowest_indexed_error_wins() {
        let mk = |jobs: usize| {
            let mut plan = SweepPlan::new("T", "err", &["x"]);
            // Point 2 fails fast, point 1 fails slow — the canonical
            // error is point 1's, under any scheduling.
            plan.point_ok(|_| PointOutput::row(vec!["ok".into()]));
            plan.point(|_| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Err(SimError::WatchdogTimeout {
                    events: 1,
                    budget: 1,
                })
            });
            plan.point(|_| {
                Err(SimError::WatchdogTimeout {
                    events: 2,
                    budget: 2,
                })
            });
            plan.run_with_jobs(jobs).unwrap_err()
        };
        for jobs in [1, 4] {
            let SimError::WatchdogTimeout { events, .. } = mk(jobs) else {
                panic!("expected watchdog");
            };
            assert_eq!(events, 1, "jobs={jobs}");
        }
    }

    /// A strict sweep starts no point above its lowest failure. Points
    /// 0 and 1 meet at a barrier, so the two workers hold them at once,
    /// and both fail: each worker records its failure before it claims
    /// another point, so points 2 to 15 never start.
    #[test]
    fn strict_sweep_starts_no_point_above_its_lowest_failure() {
        let started = Arc::new(Mutex::new(Vec::new()));
        let pair = Arc::new(Barrier::new(2));
        let mut plan = SweepPlan::new("T", "fail-fast", &["i"]);
        for i in 0..16u64 {
            let started = Arc::clone(&started);
            let pair = Arc::clone(&pair);
            plan.point(move |_| {
                started.lock().unwrap().push(i);
                if i < 2 {
                    pair.wait();
                    return Err(SimError::WatchdogTimeout {
                        events: i,
                        budget: 0,
                    });
                }
                Ok(PointOutput::row(vec![i.to_string()]))
            });
        }
        let err = plan.run_with_jobs(2).unwrap_err();
        assert!(
            matches!(err, SimError::WatchdogTimeout { events: 0, .. }),
            "point 0's error: {err:?}"
        );
        let mut started = started.lock().unwrap().clone();
        started.sort_unstable();
        assert_eq!(started, [0, 1]);
    }

    #[test]
    fn strict_run_reraises_the_lowest_indexed_panic() {
        for jobs in [1, 3] {
            let ran: Vec<Arc<AtomicU32>> = (0..8).map(|_| Arc::new(AtomicU32::new(0))).collect();
            let mut plan = SweepPlan::new("T", "panics", &["i"]);
            for (i, ran) in ran.iter().enumerate() {
                let ran = Arc::clone(ran);
                plan.point_ok(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 2 || i == 6 {
                        panic!("boom at point {i}");
                    }
                    PointOutput::row(vec![i.to_string()])
                });
            }
            let Err(payload) = catch_unwind(AssertUnwindSafe(|| plan.run_with_jobs(jobs))) else {
                panic!("jobs={jobs}: a panicking point must be re-raised");
            };
            let msg = panic_message(payload);
            assert!(msg.contains("point 2"), "jobs={jobs}: {msg}");
            assert!(!msg.contains("point 6"), "jobs={jobs}: {msg}");
            for (i, ran) in ran.iter().enumerate().take(3) {
                assert_eq!(ran.load(Ordering::SeqCst), 1, "jobs={jobs}: point {i}");
            }
        }
    }

    #[test]
    fn custom_collation_sees_outputs_in_index_order() {
        let mut plan = demo_plan();
        plan.collate_with(|report, outputs| {
            let base = outputs[0].values[0].max(1.0);
            for o in &outputs {
                let mut row = o.rows[0].clone();
                row[1] = format!("{:.1}", o.values[0] / base);
                report.push_row(row);
            }
        });
        let r = plan.run_with_jobs(3).unwrap();
        assert_eq!(r.rows[5], vec!["5", "5.0"]);
        assert_eq!(r.notes, vec!["plan note"]);
    }

    #[test]
    fn point_notes_follow_rows_then_plan_notes() {
        let mut plan = SweepPlan::new("T", "notes", &["x"]);
        plan.point_ok(|_| PointOutput::row(vec!["a".into()]).with_note("from point 0"));
        plan.point_ok(|_| PointOutput::row(vec!["b".into()]).with_note("from point 1"));
        plan.note("plan-level");
        let r = plan.run_with_jobs(2).unwrap();
        assert_eq!(r.notes, vec!["from point 0", "from point 1", "plan-level"]);
    }

    // ---- resilient execution ----

    #[test]
    fn clean_resilient_run_is_byte_identical_to_strict() {
        let strict = demo_plan().run_with_jobs(3).unwrap();
        for jobs in [1, 4] {
            let out = demo_plan().run_resilient_with_jobs(jobs, ResilienceOptions::default());
            assert!(out.is_clean());
            assert_eq!(strict.to_text(), out.report.to_text(), "jobs={jobs}");
            assert_eq!(out.stats.points, 10);
            assert_eq!(out.stats.failed, 0);
        }
    }

    #[test]
    fn panicking_point_degrades_to_a_diagnostic_row() {
        let mut plan = SweepPlan::new("T", "panicky", &["i", "v"]);
        plan.point_ok(|_| PointOutput::row(vec!["0".into(), "ok".into()]));
        plan.point_ok(|_| panic!("boom at point 1"));
        plan.point_ok(|_| PointOutput::row(vec!["2".into(), "ok".into()]));
        let out = plan.run_resilient_with_jobs(2, ResilienceOptions::default());
        assert_eq!(out.stats.failed, 1);
        assert_eq!(out.stats.panics, 1);
        let failure = out.first_failure().unwrap();
        assert_eq!(failure.point(), 1);
        assert!(matches!(failure, PointError::Panicked { .. }));
        // Successful rows survive; the failed point is a diagnostic row.
        let text = out.report.to_text();
        assert!(text.contains("ok"), "{text}");
        assert!(text.contains("[point 1]"), "{text}");
        assert!(text.contains("boom at point 1"), "{text}");
        assert!(!out.report.notes.iter().any(|n| n.contains("malformed")));
    }

    #[test]
    fn sim_error_degrades_instead_of_aborting() {
        let mut plan = SweepPlan::new("T", "simerr", &["x"]);
        plan.point_ok(|_| PointOutput::row(vec!["fine".into()]));
        plan.point(|_| {
            Err(SimError::WatchdogTimeout {
                events: 9,
                budget: 3,
            })
        });
        let out = plan.run_resilient_with_jobs(1, ResilienceOptions::default());
        assert_eq!(out.stats.failed, 1);
        assert!(matches!(
            out.first_failure(),
            Some(PointError::Sim { point: 1, .. })
        ));
        assert!(out.report.to_text().contains("[point 1]"));
    }

    #[test]
    fn retries_rescue_a_transient_panic() {
        // Panics on the first two attempts, succeeds on the third.
        let hits = Arc::new(AtomicU32::new(0));
        let mut plan = SweepPlan::new("T", "flaky", &["x"]);
        let h = Arc::clone(&hits);
        plan.point_ok(move |_| {
            if h.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            PointOutput::row(vec!["recovered".into()])
        });
        let opts = ResilienceOptions {
            max_retries: 3,
            ..ResilienceOptions::default()
        };
        let out = plan.run_resilient_with_jobs(1, opts);
        assert!(out.is_clean(), "{:?}", out.failures);
        assert_eq!(out.stats.retries, 2);
        assert!(out.report.to_text().contains("recovered"));
    }

    #[test]
    fn retries_are_bounded() {
        let hits = Arc::new(AtomicU32::new(0));
        let mut plan = SweepPlan::new("T", "hopeless", &["x"]);
        let h = Arc::clone(&hits);
        plan.point_ok(move |_| -> PointOutput {
            h.fetch_add(1, Ordering::SeqCst);
            panic!("always")
        });
        let opts = ResilienceOptions {
            max_retries: 2,
            ..ResilienceOptions::default()
        };
        let out = plan.run_resilient_with_jobs(1, opts);
        assert_eq!(hits.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
        assert_eq!(out.stats.retries, 2);
        assert!(matches!(
            out.first_failure(),
            Some(PointError::Panicked { attempts: 3, .. })
        ));
    }

    #[test]
    fn deadline_abandons_a_hung_point() {
        let mut plan = SweepPlan::new("T", "hung", &["x"]);
        plan.point_ok(|_| PointOutput::row(vec!["quick".into()]));
        plan.point_ok(|_| {
            std::thread::sleep(Duration::from_secs(30));
            PointOutput::row(vec!["never".into()])
        });
        let opts = ResilienceOptions {
            deadline: Some(Duration::from_millis(50)),
            ..ResilienceOptions::default()
        };
        let start = std::time::Instant::now();
        let out = plan.run_resilient_with_jobs(2, opts);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "watchdog must not wait out the hang"
        );
        assert_eq!(out.stats.timeouts, 1);
        assert!(matches!(
            out.first_failure(),
            Some(PointError::DeadlineExceeded { point: 1, .. })
        ));
        assert!(out.report.to_text().contains("quick"));
    }

    #[test]
    fn failed_custom_collation_degrades_to_notes_not_a_crash() {
        // The collator indexes into every point's values — a failed
        // point's empty placeholder would panic it.
        let mut plan = SweepPlan::new("T", "fragile", &["i", "rel"]);
        plan.point_ok(|_| PointOutput::row(vec!["0".into(), "x".into()]).with_value(2.0));
        plan.point_ok(|_| panic!("no value from me"));
        plan.collate_with(|report, outputs| {
            for o in &outputs {
                report.push_row(vec!["r".into(), format!("{:.1}", o.values[0])]);
            }
        });
        let out = plan.run_resilient_with_jobs(1, ResilienceOptions::default());
        assert_eq!(out.stats.failed, 1);
        let text = out.report.to_text();
        assert!(text.contains("collation degraded"), "{text}");
        assert!(text.contains("[point 1]"), "{text}");
    }

    #[test]
    fn checkpoint_then_resume_is_byte_identical_and_skips_completed_points() {
        let runs = Arc::new(AtomicU32::new(0));
        let mk = |runs: &Arc<AtomicU32>| {
            let mut plan = SweepPlan::new("T", "ckpt", &["i"]);
            for i in 0..6u64 {
                let runs = Arc::clone(runs);
                plan.point_ok(move |_| {
                    runs.fetch_add(1, Ordering::SeqCst);
                    PointOutput::row(vec![i.to_string()]).with_value(i as f64 * 0.1)
                });
            }
            plan
        };
        let baseline = mk(&runs).run_with_jobs(1).unwrap();

        let dir = temp_dir("resume");
        let opts = |resume| ResilienceOptions {
            store: Some(PointStore::open(dir.clone()).unwrap()),
            resume,
            ..ResilienceOptions::default()
        };
        runs.store(0, Ordering::SeqCst);
        let first = mk(&runs).run_resilient_with_jobs(2, opts(false));
        assert!(first.is_clean());
        assert_eq!(runs.load(Ordering::SeqCst), 6);
        assert_eq!(baseline.to_text(), first.report.to_text());

        // Resume with a fully-populated store: nothing re-runs.
        runs.store(0, Ordering::SeqCst);
        let resumed = mk(&runs).run_resilient_with_jobs(2, opts(true));
        assert_eq!(runs.load(Ordering::SeqCst), 0, "all points resumed");
        assert_eq!(resumed.stats.resumed, 6);
        assert_eq!(baseline.to_text(), resumed.report.to_text());

        // Truncate the store (simulate a kill mid-sweep): only the
        // missing points re-run, and the report is still identical.
        let store = PointStore::open(dir.clone()).unwrap();
        let victims: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .take(3)
            .map(|e| e.path())
            .collect();
        for v in &victims {
            std::fs::remove_file(v).unwrap();
        }
        runs.store(0, Ordering::SeqCst);
        let partial = mk(&runs).run_resilient_with_jobs(2, opts(true));
        assert_eq!(runs.load(Ordering::SeqCst), 3, "only missing points run");
        assert_eq!(partial.stats.resumed, 3);
        assert_eq!(baseline.to_text(), partial.report.to_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_sensitive_to_plan_shape() {
        let base = demo_plan().fingerprint();
        assert_eq!(base, demo_plan().fingerprint(), "stable across builds");
        let mut other = demo_plan();
        other.point_ok(|_| PointOutput::default());
        assert_ne!(base, other.fingerprint(), "point count matters");
        let renamed = SweepPlan::new("T2", "demo", &["i", "sq"]);
        assert_ne!(base, renamed.fingerprint(), "id matters");
    }
}
