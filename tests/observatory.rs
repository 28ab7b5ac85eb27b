//! The host-side observatory, end to end.
//!
//! Three contracts under test, mirroring `repro`'s promises:
//!
//! * **Manifest byte-stability** — two identical runs of the same
//!   experiment produce byte-identical run manifests once the declared
//!   `volatile` key is stripped, and the stable part changes exactly
//!   when the run's identity (plan shape) changes.
//! * **Host capture through real sweeps** — with a capture enabled, a
//!   resilient checkpointed run records worker-lane job spans and
//!   checkpoint-store hit/save counters, and the Chrome export renders
//!   them as a dedicated "host executor (wall clock)" process next to
//!   the simulated-time tracks.
//! * **Zero residue** — with no capture in its context the same run
//!   leaves nothing behind to take.

use std::sync::atomic::{AtomicU64, Ordering};

use columbia::experiments::{job, plan, run_with_jobs};
use columbia::manifest::{report_hash, ManifestBuilder, ResilienceSummary, Volatile};
use columbia::obs::{write_chrome_trace, RunContext};
use columbia::{PointStore, ResilienceOptions, RunManifest, SpecJob};
use serde_json::Value;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "columbia-observatory-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Build the manifest `repro --manifest` would for one plain run of
/// experiment `name` on `jobs` threads.
fn manifest_for(name: &str, jobs: usize, wall: f64) -> RunManifest {
    let report = run_with_jobs(name, jobs);
    let job = job(name).expect("known experiment");
    let mut b = ManifestBuilder::new("repro", jobs, &ResilienceSummary::default());
    b.record_experiment(
        &job.name,
        job.plan.fingerprint(),
        job.plan.len(),
        &report,
        None,
        &job.content_hash,
    );
    b.finish(&Volatile {
        wall_time_seconds: wall,
        git_rev: columbia::manifest::git_rev(),
        host_metrics: None,
        sim_threads: 1,
    })
}

#[test]
fn manifests_of_identical_runs_are_byte_stable() {
    let a = manifest_for("table2", 1, 0.5);
    let b = manifest_for("table2", 2, 7.5);
    // Different job counts are a *declared* stable field — they change
    // the stable part — so compare equal-jobs runs first.
    let a2 = manifest_for("table2", 1, 99.0);
    assert_eq!(
        a.stable_string(),
        a2.stable_string(),
        "same experiment, same jobs: stable part byte-identical"
    );
    assert_ne!(
        a.to_string_pretty(),
        a2.to_string_pretty(),
        "wall time still differs in the full document"
    );
    assert_ne!(
        a.stable_string(),
        b.stable_string(),
        "jobs is part of the run's stable identity"
    );
    // And a different experiment moves the fingerprint + report hash.
    let c = manifest_for("table1", 1, 0.5);
    assert_ne!(a.stable_string(), c.stable_string());
}

#[test]
fn spec_manifest_entries_pin_spec_hash_and_points_in_the_stable_part() {
    let text = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs/table1.toml"),
    )
    .expect("shipped spec readable");

    let manifest_of = |spec_text: &str, wall: f64| -> RunManifest {
        let job = SpecJob::from_text("table1", spec_text, false).expect("spec compiles");
        let (fingerprint, points) = (job.plan.fingerprint(), job.plan.len());
        let report = job
            .plan
            .run(&RunContext::new(1), 1)
            .expect("spec plan runs");
        let mut b = ManifestBuilder::new("repro", 1, &ResilienceSummary::default());
        b.record_experiment(
            &job.name,
            fingerprint,
            points,
            &report,
            None,
            &job.content_hash,
        );
        b.finish(&Volatile {
            wall_time_seconds: wall,
            git_rev: columbia::manifest::git_rev(),
            host_metrics: None,
            sim_threads: 1,
        })
    };

    let a = manifest_of(&text, 0.5);
    let b = manifest_of(&text, 42.0);
    assert_eq!(
        a.stable_string(),
        b.stable_string(),
        "same spec bytes: stable part byte-identical"
    );

    // The spec object sits in the stable portion and carries the
    // FNV-128 content hash of the spec bytes plus the resolved point
    // count after grid expansion.
    let doc = serde_json::from_str(&a.stable_string()).expect("stable part parses");
    let e = &doc.get("experiments").and_then(Value::as_array).unwrap()[0];
    let spec = e.get("spec").expect("spec object recorded");
    assert_eq!(
        spec.get("content_hash").and_then(Value::as_str),
        Some(columbia::spec::spec_hash(text.as_bytes()).as_str())
    );
    assert_eq!(
        spec.get("points").and_then(Value::as_f64),
        e.get("points").and_then(Value::as_f64),
        "resolved point count mirrors the entry's"
    );

    // Touching the spec text — even a comment that compiles to the very
    // same plan — moves the content hash, and with it the stable part:
    // the manifest pins the *text* that ran, not just the plan shape.
    let touched = format!("# provenance comment\n{text}");
    let c = manifest_of(&touched, 0.5);
    let doc_c = serde_json::from_str(&c.stable_string()).expect("stable part parses");
    let e_c = &doc_c.get("experiments").and_then(Value::as_array).unwrap()[0];
    assert_eq!(
        e_c.get("plan_fingerprint"),
        e.get("plan_fingerprint"),
        "comment-only edit leaves the plan identical"
    );
    assert_ne!(
        c.stable_string(),
        a.stable_string(),
        "but the spec content hash changes the stable part"
    );
}

#[test]
fn manifest_report_hash_matches_the_rendered_report() {
    let report = run_with_jobs("table1", 1);
    let m = manifest_for("table1", 1, 0.0);
    let doc = serde_json::from_str(&m.to_string_pretty()).expect("manifest parses");
    let exps = doc
        .get("experiments")
        .and_then(Value::as_array)
        .expect("experiments array");
    assert_eq!(exps.len(), 1);
    assert_eq!(
        exps[0].get("report_hash").and_then(Value::as_str),
        Some(report_hash(&report).as_str()),
        "manifest pins the report content"
    );
    assert_eq!(
        exps[0].get("points").and_then(Value::as_f64),
        Some(plan("table1").len() as f64)
    );
}

#[test]
fn resilient_checkpointed_run_fills_worker_and_store_tracks() {
    let dir = temp_dir("capture");
    let points = plan("table2").len();

    // First run: cold store, capture on. Every point runs and saves.
    let ctx = RunContext::new(1).with_host_capture();
    let opts = ResilienceOptions {
        store: Some(PointStore::open(&dir).expect("store opens")),
        resume: true,
        ..ResilienceOptions::default()
    };
    let outcome = plan("table2").run_resilient(&ctx, 2, opts);
    assert_eq!(outcome.stats.failed, 0);
    let report = ctx.take_host_report().expect("capture live");
    let job_spans = report.spans.iter().filter(|s| s.cat == "host.job").count();
    assert_eq!(job_spans, points, "one worker-lane span per sweep point");
    assert_eq!(report.metrics.counter("host.jobs") as usize, points);
    assert_eq!(
        report.metrics.counter("store.saves") as usize,
        points,
        "every point checkpointed"
    );
    assert_eq!(
        report.metrics.counter("store.misses") as usize,
        points,
        "cold store: every resume probe missed"
    );
    assert!(
        report
            .metrics
            .histogram("store.write_seconds")
            .is_some_and(|h| h.count() as usize == points),
        "write latency observed per save"
    );

    // Second run: warm store. Every probe hits; nothing re-runs.
    let ctx = RunContext::new(1).with_host_capture();
    let opts = ResilienceOptions {
        store: Some(PointStore::open(&dir).expect("store reopens")),
        resume: true,
        ..ResilienceOptions::default()
    };
    let outcome = plan("table2").run_resilient(&ctx, 2, opts);
    assert_eq!(outcome.stats.resumed, points);
    let warm = ctx.take_host_report().expect("capture live");
    assert_eq!(warm.metrics.counter("store.hits") as usize, points);
    assert_eq!(warm.metrics.counter("store.saves"), 0, "nothing re-saved");

    // The capture renders as its own process in the Chrome export.
    let mut trace = Vec::new();
    write_chrome_trace(&mut trace, &[], Some(&report), &[]).expect("export writes");
    let text = String::from_utf8(trace).expect("trace is UTF-8");
    let parsed = serde_json::from_str(&text).expect("trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert_eq!(names, vec!["host executor (wall clock)"]);
    let threads: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(
        threads.iter().any(|t| t.starts_with("worker ")),
        "worker lanes named: {threads:?}"
    );
    assert!(
        threads.contains(&"checkpoint store"),
        "store lane named: {threads:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncaptured_runs_leave_nothing_to_take() {
    let ctx = RunContext::new(1);
    assert!(ctx.host().is_none());
    let _ = plan("table1").run(&ctx, 2);
    assert!(ctx.take_host_report().is_none(), "no capture was enabled");
}
