//! Resilient sweep execution, end to end.
//!
//! Three contracts under test, mirroring the executor's promises:
//!
//! * **Panic isolation** — a plan with K randomly panicking points
//!   still completes the other N−K, reports the canonical
//!   lowest-indexed failure first, and never poisons the pool
//!   (property-tested over random plans, failure sets, and worker
//!   counts).
//! * **Kill-and-resume byte-identity** — a real experiment
//!   checkpointed to disk, "killed" by deleting and truncating store
//!   entries, and resumed produces a report byte-identical to the
//!   uninterrupted golden fixture in `tests/golden/`. CI runs the same
//!   scenario through the `repro` binary as a smoke gate.
//! * **Deadline + retry policy** — a hung point is abandoned at its
//!   wall-clock deadline and a transiently panicking point is rescued
//!   by bounded retries, with the attempt counts surfaced in
//!   [`SweepStats`].

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use columbia::experiments::plan;
use columbia::{PointError, PointOutput, PointStore, ResilienceOptions, SweepPlan, SweepStats};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "columbia-resilience-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A plan of `n` points where the indices in `panicking` panic and the
/// rest emit one row each.
fn plan_with_panics(n: usize, panicking: &BTreeSet<usize>) -> SweepPlan {
    let mut plan = SweepPlan::new("P", "panic isolation", &["point", "status"]);
    for i in 0..n {
        let boom = panicking.contains(&i);
        plan.point_ok(move |_| {
            if boom {
                panic!("injected failure at point {i}");
            }
            PointOutput::row(vec![i.to_string(), "ok".into()])
        });
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// K panicking points out of N: the other N−K all land in the
    /// report, the failures come back typed and index-ordered, and the
    /// first failure is the canonical lowest index — for serial and
    /// parallel pools alike.
    #[test]
    fn k_panicking_points_never_take_down_the_other_n_minus_k(
        n in 1usize..24,
        panic_bits in 0u32..u32::MAX,
        jobs in prop::sample::select(vec![1usize, 2, 7]),
    ) {
        let panicking: BTreeSet<usize> =
            (0..n).filter(|i| panic_bits >> (i % 32) & 1 == 1).collect();
        let out = plan_with_panics(n, &panicking)
            .run_resilient_with_jobs(jobs, ResilienceOptions::default());

        // Typed failures, exactly the injected set, in index order.
        let failed: Vec<usize> = out.failures.iter().map(|f| f.point()).collect();
        let expected: Vec<usize> = panicking.iter().copied().collect();
        prop_assert_eq!(&failed, &expected);
        prop_assert!(out
            .failures
            .iter()
            .all(|f| matches!(f, PointError::Panicked { .. })));
        prop_assert_eq!(
            out.first_failure().map(|f| f.point()),
            panicking.iter().next().copied()
        );
        prop_assert_eq!(out.stats.failed, panicking.len());
        prop_assert_eq!(out.stats.panics, panicking.len() as u64);

        // Every surviving point contributed its row, in sweep order,
        // followed by one diagnostic row per failure.
        let ok_rows: Vec<&str> = out
            .report
            .rows
            .iter()
            .filter(|r| r[1] == "ok")
            .map(|r| r[0].as_str())
            .collect();
        let expected_ok: Vec<String> = (0..n)
            .filter(|i| !panicking.contains(i))
            .map(|i| i.to_string())
            .collect();
        prop_assert_eq!(
            ok_rows,
            expected_ok.iter().map(String::as_str).collect::<Vec<_>>()
        );
        prop_assert_eq!(out.report.rows.len(), n);
    }
}

fn golden(name: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../tests/golden/{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} (generate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_values`): {e}",
            path.display()
        )
    })
}

/// The tentpole acceptance scenario on a real experiment: checkpoint a
/// full run, "kill" it by deleting half the store entries and tearing
/// one in two, then resume — the resumed report must be byte-identical
/// to the uninterrupted golden fixture, with only the missing points
/// re-run.
#[test]
fn killed_and_resumed_table2_matches_the_uninterrupted_golden() {
    let dir = temp_dir("table2");
    let opts = |resume| ResilienceOptions {
        store: Some(PointStore::open(dir.clone()).unwrap()),
        resume,
        ..ResilienceOptions::default()
    };

    // Uninterrupted checkpointed run: already golden-identical.
    let full = plan("table2").run_resilient_with_jobs(2, opts(false));
    assert!(full.is_clean(), "{:?}", full.failures);
    assert_eq!(format!("{}\n", full.report.to_text()), golden("table2"));
    let total = full.stats.points;
    let store = PointStore::open(dir.clone()).unwrap();
    assert_eq!(store.len(), total, "every point checkpointed");

    // The "kill": delete half the entries and truncate one survivor
    // mid-file (a torn copy; atomic writes mean a real kill cannot
    // produce one, but resume must shrug either way).
    let mut entries: Vec<_> = std::fs::read_dir(store.dir())
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    let keep = entries.len() / 2;
    for path in &entries[keep..] {
        std::fs::remove_file(path).unwrap();
    }
    if let Some(survivor) = entries.first() {
        let text = std::fs::read_to_string(survivor).unwrap();
        std::fs::write(survivor, &text[..text.len() / 2]).unwrap();
    }

    let resumed = plan("table2").run_resilient_with_jobs(2, opts(true));
    assert!(resumed.is_clean(), "{:?}", resumed.failures);
    assert_eq!(
        format!("{}\n", resumed.report.to_text()),
        golden("table2"),
        "resumed report must be byte-identical to the golden"
    );
    // The torn entry is a miss, so it re-ran alongside the deleted
    // ones; only the intact survivors were served from the store.
    assert_eq!(resumed.stats.resumed, keep.saturating_sub(1));
    assert_eq!(resumed.stats.points, total);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming with different flags still converges: a second resumed run
/// over the repaired store serves every point from disk.
#[test]
fn fully_checkpointed_store_resumes_without_running_anything() {
    let dir = temp_dir("table1");
    let opts = |resume| ResilienceOptions {
        store: Some(PointStore::open(dir.clone()).unwrap()),
        resume,
        ..ResilienceOptions::default()
    };
    let first = plan("table1").run_resilient_with_jobs(1, opts(false));
    assert!(first.is_clean());
    let again = plan("table1").run_resilient_with_jobs(1, opts(true));
    assert_eq!(again.stats.resumed, again.stats.points);
    assert_eq!(first.report.to_text(), again.report.to_text());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--max-retries` semantics end to end: a point that panics twice and
/// then succeeds is rescued, and the retries are visible in the stats.
#[test]
fn transient_panics_are_retried_to_success() {
    let attempts = Arc::new(AtomicU32::new(0));
    let mut plan = SweepPlan::new("R", "retry", &["x"]);
    let a = Arc::clone(&attempts);
    plan.point_ok(move |_| {
        if a.fetch_add(1, Ordering::SeqCst) < 2 {
            panic!("flaky");
        }
        PointOutput::row(vec!["rescued".into()])
    });
    let out = plan.run_resilient_with_jobs(
        1,
        ResilienceOptions {
            max_retries: 2,
            ..ResilienceOptions::default()
        },
    );
    assert!(out.is_clean(), "{:?}", out.failures);
    assert_eq!(
        out.stats,
        SweepStats {
            points: 1,
            retries: 2,
            ..SweepStats::default()
        }
    );
    assert!(out.report.to_text().contains("rescued"));
}

/// A hung point is abandoned at its deadline instead of blocking the
/// sweep forever, and the remaining points still complete.
#[test]
fn hung_point_is_cancelled_at_the_deadline() {
    let mut plan = SweepPlan::new("D", "deadline", &["x"]);
    plan.point_ok(|_| PointOutput::row(vec!["fast".into()]));
    plan.point_ok(|_| {
        std::thread::sleep(Duration::from_secs(60));
        PointOutput::row(vec!["unreachable".into()])
    });
    plan.point_ok(|_| PointOutput::row(vec!["also fast".into()]));
    let start = std::time::Instant::now();
    let out = plan.run_resilient_with_jobs(
        2,
        ResilienceOptions {
            deadline: Some(Duration::from_millis(100)),
            ..ResilienceOptions::default()
        },
    );
    assert!(start.elapsed() < Duration::from_secs(20));
    assert_eq!(out.stats.timeouts, 1);
    assert!(matches!(
        out.first_failure(),
        Some(PointError::DeadlineExceeded { point: 1, .. })
    ));
    let text = out.report.to_text();
    assert!(text.contains("fast") && text.contains("also fast"));
    assert!(text.contains("[point 1]"), "{text}");
}
