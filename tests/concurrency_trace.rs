//! Thread-safety of a shared trace list.
//!
//! Two simulations traced from two threads into one shared context
//! must produce two *disjoint*, internally consistent bundles — no
//! interleaved spans, no shared counters — and drain in a deterministic
//! order. The probe runs the `trace` experiment (16 ranks, seeded
//! faults, fully deterministic) once solo to establish the expected
//! single-run shape, then twice concurrently.

use columbia::experiments::plan;
use columbia::obs::{RunContext, TraceBundle};

/// Run the trace experiment in a recording context and return its one
/// bundle.
fn solo_bundle() -> TraceBundle {
    let ctx = RunContext::new(1).with_traces();
    plan("trace").run(&ctx, 1).expect("the demo runs");
    let mut bundles = ctx.take_traces();
    assert_eq!(bundles.len(), 1, "trace experiment records one simulation");
    bundles.pop().unwrap()
}

#[test]
fn two_threads_trace_two_disjoint_consistent_profiles() {
    let solo = solo_bundle();
    assert_eq!(solo.profile.ranks.len(), 16);
    assert!(solo.profile.makespan > 0.0);
    assert!(!solo.spans.is_empty());

    let ctx = RunContext::new(1).with_traces();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| plan("trace").run(&ctx, 1).expect("the demo runs"));
        }
    });
    let bundles = ctx.take_traces();
    assert_eq!(bundles.len(), 2, "one bundle per concurrent simulation");

    for (i, b) in bundles.iter().enumerate() {
        // Internally consistent: exactly the shape of a solo run —
        // interleaving another thread's spans or double-counting
        // messages would change these.
        assert_eq!(b.spans.len(), solo.spans.len(), "bundle {i} span count");
        assert_eq!(b.profile.ranks.len(), 16, "bundle {i} rank count");
        assert!(
            (b.profile.makespan - solo.profile.makespan).abs() < 1e-12,
            "bundle {i} makespan {} != solo {}",
            b.profile.makespan,
            solo.profile.makespan
        );
        assert_eq!(
            b.metrics.counter("messages_sent"),
            solo.metrics.counter("messages_sent"),
            "bundle {i} message counter"
        );
        for (r, (got, want)) in b.profile.ranks.iter().zip(&solo.profile.ranks).enumerate() {
            assert!(
                (got.compute - want.compute).abs() < 1e-12 && (got.wait - want.wait).abs() < 1e-12,
                "bundle {i} rank {r} attribution drifted"
            );
        }
    }

    // Disjoint: distinct bundle objects with their own span buffers
    // (equal content is expected — both threads ran the same seeded
    // simulation), draining under deterministic labels.
    assert!(bundles[0].label.starts_with("sim 0: "));
    assert!(bundles[1].label.starts_with("sim 1: "));
    assert!(
        bundles[0].label.contains("trace demo") && bundles[1].label.contains("trace demo"),
        "{:?}",
        (&bundles[0].label, &bundles[1].label)
    );
}
