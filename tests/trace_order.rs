//! What a sweep leaves in the trace sink when points fail.
//!
//! Each sweep point runs inside a `sink::capture`, and the sweep
//! records the captured bundles in sweep-index order once the pool has
//! settled. A clean run's capture is pinned elsewhere
//! (`analysis.rs`, `integration_trace.rs`); these tests pin the failure
//! paths, where an export must not depend on timing or on `--jobs`:
//! abandoned attempts, retried attempts and a strict sweep's early stop.
//!
//! The sink is process-global, so every test here serializes on one
//! lock (this integration binary is its own process).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use columbia::obs::{sink, TraceBundle};
use columbia::simnet::SimError;
use columbia::{PointOutput, ResilienceOptions, SweepPlan};

static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Stand-in for one simulation the point runs under `--trace`.
fn record(label: &str) {
    sink::record(TraceBundle {
        label: label.into(),
        ..TraceBundle::default()
    });
}

/// Drain the sink and return its labels.
fn take_labels() -> Vec<String> {
    sink::take().into_iter().map(|b| b.label).collect()
}

#[test]
fn a_point_abandoned_at_its_deadline_records_nothing() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Point 1 blocks until released, far past its deadline. Once the
    // sweep has settled it records, then reports back before `take`.
    let (release, gate) = mpsc::channel::<()>();
    let (finished, done) = mpsc::channel::<()>();
    let (gate, finished) = (Mutex::new(gate), Mutex::new(finished));
    sink::install();
    let mut plan = SweepPlan::new("T", "abandoned", &["x"]);
    plan.point_ok(|| {
        record("p0");
        PointOutput::default()
    });
    plan.point_ok(move || {
        let _ = gate.lock().unwrap().recv();
        record("late");
        let _ = finished.lock().unwrap().send(());
        PointOutput::default()
    });
    let out = plan.run_resilient_with_jobs(
        2,
        ResilienceOptions {
            deadline: Some(Duration::from_millis(50)),
            ..ResilienceOptions::default()
        },
    );
    assert_eq!(out.stats.timeouts, 1);
    release.send(()).unwrap();
    done.recv().unwrap();
    assert_eq!(take_labels(), ["sim 0: p0", "sim 1: sweep resilience: T"]);
}

#[test]
fn a_retried_point_records_only_its_settling_attempt() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let attempts = Arc::new(AtomicU32::new(0));
    let a = Arc::clone(&attempts);
    sink::install();
    let mut plan = SweepPlan::new("T", "retried", &["x"]);
    plan.point_ok(move || {
        let attempt = a.fetch_add(1, Ordering::SeqCst);
        record(&format!("attempt {attempt}"));
        if attempt == 0 {
            panic!("transient");
        }
        PointOutput::default()
    });
    let out = plan.run_resilient_with_jobs(
        1,
        ResilienceOptions {
            max_retries: 1,
            ..ResilienceOptions::default()
        },
    );
    assert!(out.is_clean(), "{:?}", out.failures);
    assert_eq!(out.stats.retries, 1);
    assert_eq!(
        take_labels(),
        ["sim 0: attempt 1", "sim 1: sweep resilience: T"]
    );
}

#[test]
fn a_strict_sweep_records_up_to_its_lowest_failure_at_any_jobs() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for jobs in [1, 4] {
        sink::install();
        let mut plan = SweepPlan::new("T", "strict", &["x"]);
        for i in 0..8 {
            plan.point(move || {
                record(&format!("p{i}"));
                if i == 1 {
                    return Err(SimError::WatchdogTimeout {
                        events: 1,
                        budget: 1,
                    });
                }
                Ok(PointOutput::default())
            });
        }
        assert!(plan.run_with_jobs(jobs).is_err(), "jobs={jobs}");
        // A failed point's own simulations stay: a deadlocked run
        // leaves its partial timeline.
        assert_eq!(take_labels(), ["sim 0: p0", "sim 1: p1"], "jobs={jobs}");
    }
}
