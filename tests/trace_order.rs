//! What a sweep leaves in its context's trace list when points fail.
//!
//! Each attempt at a sweep point runs in a child context with a trace
//! list of its own, and the sweep records the attempts' bundles in
//! sweep-index order once the pool has settled. A clean run's capture
//! is pinned elsewhere (`analysis.rs`, `integration_trace.rs`); these
//! tests pin the failure paths, where an export must not depend on
//! timing or on `--jobs`: abandoned attempts, retried attempts and a
//! strict sweep's early stop.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use columbia::obs::{RunContext, TraceBundle};
use columbia::simnet::SimError;
use columbia::{PointOutput, ResilienceOptions, SweepPlan};

/// Stand-in for one simulation the point runs under `--trace`.
fn record(ctx: &RunContext, label: &str) {
    ctx.record(TraceBundle {
        label: label.into(),
        ..TraceBundle::default()
    });
}

/// Drain `ctx`'s trace list and return its labels.
fn take_labels(ctx: &RunContext) -> Vec<String> {
    ctx.take_traces().into_iter().map(|b| b.label).collect()
}

#[test]
fn a_point_abandoned_at_its_deadline_records_nothing() {
    // Point 1 blocks until released, far past its deadline. Once the
    // sweep has settled it records, then reports back before `take`.
    let (release, gate) = mpsc::channel::<()>();
    let (finished, done) = mpsc::channel::<()>();
    let (gate, finished) = (Mutex::new(gate), Mutex::new(finished));
    let ctx = RunContext::new(1).with_traces();
    let mut plan = SweepPlan::new("T", "abandoned", &["x"]);
    plan.point_ok(|ctx| {
        record(ctx, "p0");
        PointOutput::default()
    });
    plan.point_ok(move |ctx| {
        let _ = gate.lock().unwrap().recv();
        record(ctx, "late");
        let _ = finished.lock().unwrap().send(());
        PointOutput::default()
    });
    let out = plan.run_resilient(
        &ctx,
        2,
        ResilienceOptions {
            deadline: Some(Duration::from_millis(50)),
            ..ResilienceOptions::default()
        },
    );
    assert_eq!(out.stats.timeouts, 1);
    release.send(()).unwrap();
    done.recv().unwrap();
    assert_eq!(take_labels(&ctx), ["sim 0: p0"]);
}

#[test]
fn a_retried_point_records_only_its_settling_attempt() {
    let attempts = Arc::new(AtomicU32::new(0));
    let a = Arc::clone(&attempts);
    let ctx = RunContext::new(1).with_traces();
    let mut plan = SweepPlan::new("T", "retried", &["x"]);
    plan.point_ok(move |ctx| {
        let attempt = a.fetch_add(1, Ordering::SeqCst);
        record(ctx, &format!("attempt {attempt}"));
        if attempt == 0 {
            panic!("transient");
        }
        PointOutput::default()
    });
    let out = plan.run_resilient(
        &ctx,
        1,
        ResilienceOptions {
            max_retries: 1,
            ..ResilienceOptions::default()
        },
    );
    assert!(out.is_clean(), "{:?}", out.failures);
    assert_eq!(out.stats.retries, 1);
    assert_eq!(take_labels(&ctx), ["sim 0: attempt 1"]);
}

#[test]
fn a_strict_sweep_records_up_to_its_lowest_failure_at_any_jobs() {
    for jobs in [1, 4] {
        let ctx = RunContext::new(1).with_traces();
        let mut plan = SweepPlan::new("T", "strict", &["x"]);
        for i in 0..8 {
            plan.point(move |ctx| {
                record(ctx, &format!("p{i}"));
                if i == 1 {
                    return Err(SimError::WatchdogTimeout {
                        events: 1,
                        budget: 1,
                    });
                }
                Ok(PointOutput::default())
            });
        }
        assert!(plan.run(&ctx, jobs).is_err(), "jobs={jobs}");
        // A failed point's own simulations stay: a deadlocked run
        // leaves its partial timeline.
        assert_eq!(take_labels(&ctx), ["sim 0: p0", "sim 1: p1"], "jobs={jobs}");
    }
}
