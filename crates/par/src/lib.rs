//! `columbia-par` — a std-only thread pool for embarrassingly-parallel
//! sweep execution, with panic isolation, per-job deadlines and bounded
//! retry built in.
//!
//! Every figure in the paper is a sweep: independent simulation points
//! (CPU counts, fabrics, fault ladders) whose results are reduced in a
//! canonical order. This crate fans those points out across OS threads
//! while keeping the reduction deterministic: jobs are identified by
//! their index, results land in index-order slots, and the caller reads
//! them back as if the whole sweep had run serially. A parallel run is
//! therefore bit-identical to a serial run regardless of how the
//! scheduler interleaves the work — the property the repo's
//! determinism gate (`repro --jobs N` vs `--jobs 1`) enforces.
//!
//! [`run_governed`] is the one entry point: one worker loop, which
//! runs every strict and every resilient sweep. Workers claim job
//! indices from one shared atomic cursor, lowest index first. The
//! calling thread is worker 0 and the others are scoped threads, so a
//! one-thread (or one-job) run spawns nothing and settles the jobs in
//! index order. Claiming lowest first is also what makes fail-fast
//! exact: by the time a job fails, every lower index has been claimed,
//! and no higher index starts after the failure is seen. A sweep has at
//! most a few dozen points of milliseconds to seconds each, all known
//! up front, so one cursor is all the scheduling it needs.
//!
//! # Resilience
//!
//! Long characterization campaigns die ugly: one panicking point used
//! to poison the whole pool, and one hung point used to block the sweep
//! forever. The pool therefore never lets a job failure escape as a
//! pool failure:
//!
//! * every job runs under [`catch_unwind`] — a panic becomes a typed
//!   [`JobFailure::Panicked`] in that job's status slot while the
//!   worker moves on to the next job;
//! * [`RunOptions`] adds per-job wall-clock deadlines (a straggler
//!   becomes [`JobFailure::DeadlineExceeded`] and is abandoned),
//!   bounded retry with deterministic backoff, and an optional
//!   fail-fast mode that stops *starting* jobs above the lowest failed
//!   index while still joining every in-flight worker;
//! * lock poisoning and channel teardown are absorbed into typed
//!   results ([`JobStatus::Lost`], [`JobFailure::Panicked`]) instead of
//!   aborting the pool.
//!
//! Abandoned attempts (deadline overruns) keep running on their own
//! detached thread, but they only ever write into a channel whose
//! receiving half the pool has already dropped — a send to a closed
//! channel is a no-op — so a straggler can never scribble on a result
//! slot the pool has moved past.
//!
//! # Host telemetry
//!
//! Every worker lane reports wall-clock execution through
//! [`columbia_obs::host`] when a capture is enabled (`repro --trace`):
//! one span per job (index, attempts, outcome), an instant per
//! fail-fast skip, backoff observations, and `host.*` counters for
//! jobs, retries, panics, and deadline overruns. When no
//! capture is live every hook is one relaxed atomic load — the
//! `--bench obs` host-overhead bench holds the disabled path under 2%.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use columbia_obs::host::{self, HostTrack};
use serde_json::Value;

/// Number of worker threads the platform comfortably supports; the
/// default for `repro --jobs`.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Why one job produced no value.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFailure {
    /// The job panicked on its final attempt; the payload is the
    /// panic message (or a placeholder for non-string payloads).
    Panicked {
        /// Rendered panic payload.
        message: String,
    },
    /// The job's final attempt overran its wall-clock deadline and was
    /// abandoned by the watchdog.
    DeadlineExceeded {
        /// The configured per-attempt deadline.
        deadline: Duration,
    },
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Panicked { message } => write!(f, "panicked: {message}"),
            JobFailure::DeadlineExceeded { deadline } => {
                write!(f, "exceeded its {:.3}s deadline", deadline.as_secs_f64())
            }
        }
    }
}

/// What one governed job produced, and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome<T> {
    /// The job's value, or its typed failure after every attempt was
    /// exhausted.
    pub result: Result<T, JobFailure>,
    /// Attempts made (1 = first try succeeded; retries = attempts - 1).
    pub attempts: u32,
    /// Wall clock from first attempt start to settlement (includes
    /// backoff sleeps between retries).
    pub elapsed: Duration,
}

/// Per-job status of a governed run.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus<T> {
    /// The job ran (possibly after retries) and settled.
    Done(JobOutcome<T>),
    /// Fail-fast mode did not start the job: a lower-indexed job had
    /// already failed.
    Skipped,
    /// The job's result slot was never filled: no worker settled it.
    /// Surfaced as data instead of a panic so one broken slot cannot
    /// abort a campaign.
    Lost,
}

impl<T> JobStatus<T> {
    /// The settled outcome, if the job ran.
    pub fn outcome(&self) -> Option<&JobOutcome<T>> {
        match self {
            JobStatus::Done(o) => Some(o),
            _ => None,
        }
    }
}

/// Knobs for [`run_governed`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Per-attempt wall-clock deadline. `None` disables the watchdog
    /// (attempts run inline on the worker; nothing is ever abandoned).
    pub deadline: Option<Duration>,
    /// Retries after a panicked or timed-out attempt (0 = one attempt),
    /// each after a [`backoff_delay`].
    pub max_retries: u32,
    /// When true, a failed job (panic, deadline, or a value the
    /// caller's `is_failure` predicate rejects) stops *later*-indexed
    /// jobs from starting; already-running jobs are joined normally.
    pub fail_fast: bool,
}

/// Base unit of the retry backoff: retry `k` sleeps about `2^k` of it.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// The deterministic backoff before retry `attempt` (0-based) of job
/// `index`: 10 ms doubled per attempt, jittered to 50–150% by a
/// splitmix64 stream of `(index, attempt)`. Same inputs, same
/// schedule — a resumed campaign retries on the same cadence.
pub fn backoff_delay(index: usize, attempt: u32) -> Duration {
    let mut z = (index as u64)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add((attempt as u64 + 1).wrapping_mul(0xbf58476d1ce4e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    // Jitter in [0.5, 1.5): half the lattice plus a uniform fraction.
    let jitter = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64;
    let scale = (1u32 << attempt.min(16)) as f64;
    BACKOFF_BASE.mul_f64(scale * jitter)
}

/// Render a caught panic payload as a message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Record one settled job as a span on worker `w`'s host lane. A no-op
/// when `start` is `None` — i.e. no capture was live when the job
/// began, so nothing was timed.
fn record_job_span(w: usize, idx: usize, start: Option<f64>, attempts: u32, outcome: &str) {
    let Some(start) = start else { return };
    host::count("host.jobs", 1);
    host::span(
        HostTrack::Worker(w as u32),
        "host.job",
        format!("job {idx}"),
        start,
        vec![
            ("index", Value::Number(idx as f64)),
            ("attempts", Value::Number(f64::from(attempts))),
            ("outcome", Value::String(outcome.to_string())),
        ],
    );
}

/// Run every job and return one status per job **in job index order**,
/// regardless of which worker settled which job when — the one entry
/// point of this crate. `threads` is clamped to between 1 and the job
/// count. Workers claim jobs lowest index first from one shared
/// cursor. The calling thread is worker 0, and the others are spawned
/// per call (scoped), not kept hot: sweep points are coarse enough
/// that spawn cost is noise, and holding no global state keeps the
/// pool trivially correct under nested use.
///
/// Every job runs under the resilience policy in `opts`: panics are
/// isolated per attempt, attempts may be bounded by a wall-clock
/// deadline, failed attempts are retried up to `max_retries` times on
/// a deterministic backoff, and — when `fail_fast` is set — a
/// failure (including a value `is_failure` rejects) stops
/// later-indexed jobs from *starting*, while every in-flight job is
/// still joined before this returns. Every job at or below the lowest
/// failure has started by then, so it settles.
///
/// Jobs must be `Fn` (not `FnOnce`) so they can be re-invoked on
/// retry, and `'static` so a deadline overrun can be abandoned to a
/// detached watchdog thread without borrowing from the pool's stack
/// frame.
pub fn run_governed<T, F>(
    threads: usize,
    jobs: Vec<F>,
    opts: &RunOptions,
    is_failure: impl Fn(&T) -> bool + Sync,
) -> Vec<JobStatus<T>>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    let n = jobs.len();
    let jobs: Vec<Arc<F>> = jobs.into_iter().map(Arc::new).collect();
    // The next index to hand out: jobs start lowest index first.
    let cursor = AtomicUsize::new(0);
    // Lowest failed index so far; fail-fast skips indices above it.
    let cancel_floor = AtomicUsize::new(usize::MAX);
    let status_slots: Vec<Mutex<Option<JobStatus<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let run_job = |idx: usize, w: usize| {
        if opts.fail_fast && idx > cancel_floor.load(Ordering::Acquire) {
            if host::is_enabled() {
                host::instant(
                    HostTrack::Worker(w as u32),
                    "host.skip",
                    format!("skip job {idx}"),
                    vec![("index", Value::Number(idx as f64))],
                );
            }
            return JobStatus::Skipped;
        }
        let t0 = host::clock();
        let outcome = settle_job(&jobs[idx], idx, opts);
        let failed = match &outcome.result {
            Ok(t) => is_failure(t),
            Err(_) => true,
        };
        let label = match &outcome.result {
            Ok(_) if failed => "failed",
            Ok(_) => "ok",
            Err(JobFailure::Panicked { .. }) => "panicked",
            Err(JobFailure::DeadlineExceeded { .. }) => "deadline",
        };
        record_job_span(w, idx, t0, outcome.attempts, label);
        if failed && opts.fail_fast {
            cancel_floor.fetch_min(idx, Ordering::AcqRel);
        }
        JobStatus::Done(outcome)
    };
    // Worker `w` claims indices until none is left. `Relaxed` suffices:
    // the cursor publishes no data (the jobs were shared before any
    // worker started), and the read-modify-write alone gives each index
    // to exactly one worker.
    let work = |w: usize| loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = status_slots.get(idx) else {
            break;
        };
        let status = run_job(idx, w);
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(status);
    };
    let workers = threads.clamp(1, n.max(1));
    std::thread::scope(|scope| {
        for w in 1..workers {
            let work = &work;
            scope.spawn(move || work(w));
        }
        // The calling thread is worker 0: a one-worker run spawns nothing.
        work(0);
    });
    status_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or(JobStatus::Lost)
        })
        .collect()
}

/// Run one governed job to settlement: attempt (inline, or on a
/// watchdog-supervised thread when a deadline is set), retry on panic
/// or deadline overrun with deterministic backoff, and report the
/// final result plus attempt count and wall clock.
fn settle_job<T, F>(job: &Arc<F>, index: usize, opts: &RunOptions) -> JobOutcome<T>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    let start = Instant::now();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let result = match opts.deadline {
            None => catch_unwind(AssertUnwindSafe(|| job())).map_err(|p| JobFailure::Panicked {
                message: panic_message(p),
            }),
            Some(deadline) => attempt_with_deadline(Arc::clone(job), deadline),
        };
        match result {
            Ok(t) => {
                return JobOutcome {
                    result: Ok(t),
                    attempts,
                    elapsed: start.elapsed(),
                }
            }
            Err(failure) => {
                if attempts <= opts.max_retries {
                    let delay = backoff_delay(index, attempts - 1);
                    if host::is_enabled() {
                        host::count("host.retries", 1);
                        host::observe("host.backoff_seconds", delay.as_secs_f64());
                    }
                    std::thread::sleep(delay);
                    continue;
                }
                if host::is_enabled() {
                    match &failure {
                        JobFailure::Panicked { .. } => host::count("host.panics", 1),
                        JobFailure::DeadlineExceeded { .. } => {
                            host::count("host.deadline_exceeded", 1)
                        }
                    }
                }
                return JobOutcome {
                    result: Err(failure),
                    attempts,
                    elapsed: start.elapsed(),
                };
            }
        }
    }
}

/// One attempt under a wall-clock deadline: the job runs on its own
/// thread and reports through a channel; the worker waits at most
/// `deadline`. On overrun the thread is abandoned (detached) — its
/// eventual send lands in a closed channel and is dropped, so it can
/// never write into state the pool still owns.
fn attempt_with_deadline<T, F>(job: Arc<F>, deadline: Duration) -> Result<T, JobFailure>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::sync_channel::<Result<T, String>>(1);
    let handle = std::thread::spawn(move || {
        let out = catch_unwind(AssertUnwindSafe(|| job())).map_err(panic_message);
        // The receiver may be gone (deadline already fired); a failed
        // send just drops the late result.
        let _ = tx.send(out);
    });
    match rx.recv_timeout(deadline) {
        Ok(Ok(t)) => {
            let _ = handle.join();
            Ok(t)
        }
        Ok(Err(message)) => {
            let _ = handle.join();
            Err(JobFailure::Panicked { message })
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Abandon the straggler: dropping `rx` closes the channel,
            // dropping `handle` detaches the thread. It owns an Arc
            // clone of the job and a dead sender — nothing the pool
            // still reads.
            drop(rx);
            drop(handle);
            Err(JobFailure::DeadlineExceeded { deadline })
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The attempt thread died without sending — only possible
            // if the runtime tore it down around the catch_unwind.
            let _ = handle.join();
            Err(JobFailure::Panicked {
                message: "attempt thread terminated without reporting".to_string(),
            })
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    /// Each job's result in index order, from a run with default
    /// options (without fail-fast every job settles).
    fn results<T, F>(threads: usize, jobs: Vec<F>) -> Vec<Result<T, JobFailure>>
    where
        T: Send + 'static,
        F: Fn() -> T + Send + Sync + 'static,
    {
        run_governed(threads, jobs, &RunOptions::default(), |_| false)
            .into_iter()
            .map(|status| match status {
                JobStatus::Done(outcome) => outcome.result,
                JobStatus::Skipped | JobStatus::Lost => panic!("job never settled"),
            })
            .collect()
    }

    /// [`results`] of jobs that must all succeed.
    fn values<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + std::fmt::Debug + 'static,
        F: Fn() -> T + Send + Sync + 'static,
    {
        results(threads, jobs)
            .into_iter()
            .map(Result::unwrap)
            .collect()
    }

    #[test]
    fn results_come_back_in_index_order() {
        // Early jobs sleep longest, so completion order inverts
        // submission order — collation must not care.
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(16 - i));
                    i * 10
                }
            })
            .collect();
        assert_eq!(
            values(4, jobs),
            (0..16u64).map(|i| i * 10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_thread_pool_runs_serially_in_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<_> = (0..8usize)
            .map(|i| {
                let order = Arc::clone(&order);
                move || {
                    order.lock().unwrap().push(i);
                    i
                }
            })
            .collect();
        assert_eq!(values(1, jobs), (0..8).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    /// Workers claim jobs lowest index first. Jobs 0 and 1 each wait
    /// for the other at a barrier, so with two workers they must be the
    /// first two jobs to start.
    #[test]
    fn workers_start_jobs_lowest_index_first() {
        let started = Arc::new(Mutex::new(Vec::new()));
        let pair = Arc::new(Barrier::new(2));
        let jobs: Vec<_> = (0..8usize)
            .map(|i| {
                let started = Arc::clone(&started);
                let pair = Arc::clone(&pair);
                move || {
                    started.lock().unwrap().push(i);
                    if i < 2 {
                        pair.wait();
                    }
                    i
                }
            })
            .collect();
        assert_eq!(values(2, jobs), (0..8).collect::<Vec<_>>());
        let order = started.lock().unwrap().clone();
        let mut first_two = order[..2].to_vec();
        first_two.sort_unstable();
        assert_eq!(first_two, [0, 1], "start order {order:?}");
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let count = Arc::clone(&count);
                move || count.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        assert_eq!(values(7, jobs).len(), 100);
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs: Vec<_> = [1, 2, 3].into_iter().map(|x| move || x * x).collect();
        assert_eq!(values(32, jobs), vec![1, 4, 9]);
    }

    #[test]
    fn zero_jobs_and_zero_threads_degrade_gracefully() {
        assert!(values(0, Vec::<fn() -> i32>::new()).is_empty());
        // Zero threads clamp to one worker, which still runs every job.
        let jobs: Vec<_> = [1, 2].into_iter().map(|x| move || x).collect();
        assert_eq!(values(0, jobs), vec![1, 2]);
    }

    /// Jobs are `'static`, so captured state is shared through an `Arc`.
    #[test]
    fn map_borrows_captured_state() {
        let base = Arc::new(100u64);
        let jobs: Vec<_> = (0..10u64)
            .map(|i| {
                let base = Arc::clone(&base);
                move || *base + i
            })
            .collect();
        assert_eq!(values(3, jobs)[9], 109);
    }

    #[test]
    fn parallelism_is_real() {
        // With 4 workers, 4 sleeping jobs overlap: total wall clock is
        // well under the serial sum. (Generous bound for slow CI.)
        let start = std::time::Instant::now();
        values(
            4,
            (0..4)
                .map(|_| || std::thread::sleep(Duration::from_millis(100)))
                .collect::<Vec<_>>(),
        );
        assert!(start.elapsed() < Duration::from_millis(350));
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_pool() {
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    if i == 5 {
                        panic!("point {i} exploded");
                    }
                    i
                }
            })
            .collect();
        for (i, r) in results(4, jobs).iter().enumerate() {
            if i == 5 {
                let Err(JobFailure::Panicked { message }) = r else {
                    panic!("job 5 must report its panic, got {r:?}");
                };
                assert!(message.contains("point 5 exploded"));
            } else {
                assert_eq!(*r, Ok(i as u64), "job {i} must survive job 5's panic");
            }
        }
    }

    /// Without fail-fast every job runs, and the lowest failing index —
    /// the one a strict sweep reports — is job 2 under any schedule.
    #[test]
    fn run_repropagates_the_lowest_indexed_panic_after_all_jobs() {
        let ran = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..8u64)
            .map(|i| {
                let ran = Arc::clone(&ran);
                move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 2 || i == 6 {
                        panic!("boom {i}");
                    }
                    i
                }
            })
            .collect();
        let out = results(3, jobs);
        assert_eq!(ran.load(Ordering::Relaxed), 8, "all jobs still ran");
        let lowest = out.iter().position(Result::is_err);
        assert_eq!(lowest, Some(2), "lowest index wins: {out:?}");
        let Err(JobFailure::Panicked { message }) = &out[2] else {
            panic!("job 2 must report its panic: {out:?}");
        };
        assert_eq!(message, "boom 2");
    }

    #[test]
    fn governed_retry_until_success_counts_attempts() {
        let flaky = Arc::new(AtomicU32::new(0));
        let flaky2 = Arc::clone(&flaky);
        let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = vec![
            Box::new(|| 7),
            Box::new(move || {
                let n = flaky2.fetch_add(1, Ordering::Relaxed);
                if n < 2 {
                    panic!("flaky attempt {n}");
                }
                42
            }),
        ];
        let opts = RunOptions {
            max_retries: 3,
            ..RunOptions::default()
        };
        let out = run_governed(2, jobs, &opts, |_| false);
        let JobStatus::Done(o0) = &out[0] else {
            panic!("{out:?}")
        };
        assert_eq!(o0.result, Ok(7));
        assert_eq!(o0.attempts, 1);
        let JobStatus::Done(o1) = &out[1] else {
            panic!("{out:?}")
        };
        assert_eq!(o1.result, Ok(42));
        assert_eq!(o1.attempts, 3, "two failures then success");
    }

    #[test]
    fn governed_retries_are_bounded() {
        let tries = Arc::new(AtomicU32::new(0));
        let tries2 = Arc::clone(&tries);
        let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = vec![Box::new(move || {
            tries2.fetch_add(1, Ordering::Relaxed);
            panic!("always fails");
        })];
        let opts = RunOptions {
            max_retries: 2,
            ..RunOptions::default()
        };
        let out = run_governed(1, jobs, &opts, |_| false);
        let JobStatus::Done(o) = &out[0] else {
            panic!("{out:?}")
        };
        assert!(matches!(o.result, Err(JobFailure::Panicked { .. })));
        assert_eq!(o.attempts, 3, "1 try + 2 retries");
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn deadline_abandons_a_hung_job_and_the_sweep_survives() {
        let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = vec![
            Box::new(|| 1),
            Box::new(|| {
                // Hangs far past the deadline; the watchdog abandons it.
                std::thread::sleep(Duration::from_secs(5));
                2
            }),
            Box::new(|| 3),
        ];
        let opts = RunOptions {
            deadline: Some(Duration::from_millis(50)),
            ..RunOptions::default()
        };
        let start = Instant::now();
        let out = run_governed(2, jobs, &opts, |_| false);
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "the hung job must not block the sweep"
        );
        assert_eq!(out[0].outcome().unwrap().result, Ok(1));
        assert_eq!(out[2].outcome().unwrap().result, Ok(3));
        let JobStatus::Done(o) = &out[1] else {
            panic!("{out:?}")
        };
        assert!(matches!(o.result, Err(JobFailure::DeadlineExceeded { .. })));
    }

    #[test]
    fn fail_fast_skips_above_the_lowest_failure_but_settles_every_slot() {
        // Serial claims run in index order: 0..=3 run, 3 fails, and
        // everything above the failure is skipped without running.
        let ran = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Box<dyn Fn() -> Result<u32, u32> + Send + Sync>> = (0..8u32)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.lock().unwrap().push(i);
                    if i == 3 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                }) as Box<dyn Fn() -> Result<u32, u32> + Send + Sync>
            })
            .collect();
        let opts = RunOptions {
            fail_fast: true,
            ..RunOptions::default()
        };
        let out = run_governed(1, jobs, &opts, |r| r.is_err());
        // Every slot settled: Done or Skipped, never Lost.
        assert!(out.iter().all(|s| *s != JobStatus::Lost));
        for i in 0..=3 {
            assert!(
                matches!(out[i], JobStatus::Done(_)),
                "job {i} (at or below the failure) must run: {out:?}"
            );
        }
        for (i, s) in out.iter().enumerate().skip(4) {
            assert_eq!(*s, JobStatus::Skipped, "job {i} is above the failure");
        }
        assert_eq!(*ran.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn fail_fast_with_many_workers_joins_in_flight_jobs_and_runs_lower_indices() {
        let ran = Arc::new(AtomicU32::new(0));
        let jobs: Vec<Box<dyn Fn() -> Result<u32, u32> + Send + Sync>> = (0..16u32)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    // Index 2 fails after a short delay; lower indices
                    // must still settle as Done whatever the schedule.
                    if i == 2 {
                        std::thread::sleep(Duration::from_millis(5));
                        Err(i)
                    } else {
                        std::thread::sleep(Duration::from_millis(1));
                        Ok(i)
                    }
                }) as Box<dyn Fn() -> Result<u32, u32> + Send + Sync>
            })
            .collect();
        let opts = RunOptions {
            fail_fast: true,
            ..RunOptions::default()
        };
        let out = run_governed(4, jobs, &opts, |r| r.is_err());
        // No slot is ever Lost: skipped or settled, and the scope join
        // means no worker is still writing after this returns.
        for (i, s) in out.iter().enumerate() {
            assert_ne!(*s, JobStatus::Lost, "job {i}");
        }
        // Everything at or below the lowest failure ran.
        for (i, s) in out.iter().enumerate().take(3) {
            assert!(matches!(s, JobStatus::Done(_)), "job {i}: {s:?}");
        }
        let JobStatus::Done(o2) = &out[2] else {
            panic!("{out:?}")
        };
        assert_eq!(o2.result, Ok(Err(2)), "job 2 failed with its typed error");
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_grows() {
        let a = backoff_delay(3, 0);
        let b = backoff_delay(3, 0);
        assert_eq!(a, b, "same job, same delay");
        assert_ne!(
            backoff_delay(3, 0),
            backoff_delay(4, 0),
            "index changes the jitter"
        );
        // Exponential growth dominates the jitter band.
        assert!(backoff_delay(3, 4) > backoff_delay(3, 1) * 2);
        // Jitter stays within [0.5, 1.5) of the exponential step.
        for attempt in 0..6 {
            let d = backoff_delay(11, attempt);
            let step = BACKOFF_BASE * (1 << attempt);
            assert!(
                d >= step / 2 && d < step + step / 2,
                "attempt {attempt}: {d:?}"
            );
        }
    }

    #[test]
    fn governed_zero_jobs_is_fine() {
        let out: Vec<JobStatus<u32>> =
            run_governed(4, Vec::<fn() -> u32>::new(), &RunOptions::default(), |_| {
                false
            });
        assert!(out.is_empty());
    }
}
