//! Integration tests for the simulated-time performance analyzer
//! (`columbia_obs::analysis`) over real experiment captures, plus the
//! golden pin of the merged (sim + host) Chrome trace export.
//!
//! The chrome-trace goldens live at `tests/golden/chrome_host.txt` and
//! `tests/golden/trace_export.json`; regenerate them with
//! `UPDATE_GOLDEN=1 cargo test --test analysis` (which fails the run,
//! forcing a clean confirmation pass — same workflow as
//! `golden_values`).

use std::path::PathBuf;

use columbia::experiments::plan;
use columbia::obs::host::{HostReport, HostSpan, HostTrack};
use columbia::obs::{
    analyze, write_chrome_trace, Analysis, CommProfile, CriticalPath, Metrics, RunContext,
    SpanEvent, SpanKind, TraceBundle,
};
use serde_json::Value;

/// Capture every simulation experiment `name` runs at the given
/// parallelism, in a recording context of its own.
fn capture(name: &str, jobs: usize) -> Vec<TraceBundle> {
    let ctx = RunContext::new(1).with_traces();
    let _ = plan(name).run(&ctx, jobs);
    ctx.take_traces()
}

#[test]
fn analysis_of_a_real_experiment_is_jobs_independent() {
    let serial = capture("table4", 1);
    let parallel = capture("table4", 4);
    assert!(!serial.is_empty(), "table4 records simulations");
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.label, b.label, "canonical drain order");
        let va = serde_json::to_string(&analyze(a).to_value());
        let vb = serde_json::to_string(&analyze(b).to_value());
        assert_eq!(va, vb, "analysis of {} is schedule-independent", a.label);
    }
}

#[test]
fn critical_path_accounts_for_every_captured_makespan() {
    for bundle in capture("table4", 2) {
        let a: Analysis = analyze(&bundle);
        let cp = &a.critical_path;
        assert!(!cp.truncated, "{}: walk terminated", bundle.label);
        assert!(cp.makespan > 0.0, "{}: sim did work", bundle.label);
        // The walk attributes exactly the time it traverses, so the
        // category totals reconstruct the makespan to rounding dust.
        assert!(
            (cp.total - cp.makespan).abs() <= 1e-9 * cp.makespan.max(1.0),
            "{}: critical path {} vs makespan {}",
            bundle.label,
            cp.total,
            cp.makespan
        );
        assert!(!cp.segments.is_empty());
        // Per-rank and per-node attributions are partitions of the
        // same path.
        let by_rank: f64 = cp.by_rank.values().map(|b| b.total()).sum();
        assert!((by_rank - cp.total).abs() <= 1e-9 * cp.total.max(1.0));
        if !bundle.rank_nodes.is_empty() {
            let by_node: f64 = cp.by_node.values().map(|b| b.total()).sum();
            assert!((by_node - cp.total).abs() <= 1e-9 * cp.total.max(1.0));
        }
        // Segments are forward-ordered and non-overlapping.
        for w in cp.segments.windows(2) {
            assert!(w[0].end <= w[1].start + 1e-12, "{}", bundle.label);
        }
        // Busy time can never exceed the area the imbalance stats
        // normalize by.
        assert!(a.imbalance.max_busy <= cp.makespan * (1.0 + 1e-9));
        assert!((0.0..=1.0).contains(&a.imbalance.idle_fraction));
    }
}

// ---- chrome trace golden ----

/// A small fixed simulation bundle: two ranks, one wait, one net span.
fn sim_bundle() -> TraceBundle {
    let spans = vec![
        SpanEvent {
            rank: 0,
            kind: SpanKind::Compute,
            start: 0.0,
            end: 1.0,
        },
        SpanEvent {
            rank: 0,
            kind: SpanKind::Send,
            start: 1.0,
            end: 1.25,
        },
        SpanEvent {
            rank: 1,
            kind: SpanKind::RecvWait,
            start: 0.0,
            end: 1.5,
        },
        SpanEvent {
            rank: 1,
            kind: SpanKind::RetransmitBackoff,
            start: 0.5,
            end: 0.75,
        },
    ];
    let profile = CommProfile::from_spans(&spans, 2);
    TraceBundle {
        label: "golden sim".into(),
        spans,
        edges: vec![],
        rank_nodes: vec![0, 1],
        metrics: Metrics::new(),
        profile,
    }
}

/// A small fixed host capture: one worker lane plus store activity.
fn host_report() -> HostReport {
    let mut r = HostReport::default();
    r.spans.push(HostSpan {
        track: HostTrack::Worker(0),
        label: "job 0".into(),
        cat: "host.job",
        start: 0.0,
        end: 0.5,
        args: vec![("outcome", Value::String("ok".into()))],
    });
    r.spans.push(HostSpan {
        track: HostTrack::Store,
        label: "save".into(),
        cat: "host.store",
        start: 0.5,
        end: 0.6,
        args: vec![],
    });
    r
}

/// Compare `actual` against `tests/golden/<file>`; under
/// `UPDATE_GOLDEN=1` rewrite the fixture instead, then fail anyway,
/// forcing a clean confirmation run (see the module docs).
fn check_fixture(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        panic!(
            "UPDATE_GOLDEN: rewrote {}; review `git diff tests/golden/` \
             then re-run without UPDATE_GOLDEN to confirm",
            path.display()
        );
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             Generate it with `UPDATE_GOLDEN=1 cargo test --test analysis`",
            path.display()
        )
    });
    // Report the first differing byte, not two multi-kilobyte strings.
    if let Some(at) = expected
        .bytes()
        .zip(actual.bytes())
        .position(|(a, b)| a != b)
        .or_else(|| (expected.len() != actual.len()).then(|| expected.len().min(actual.len())))
    {
        let context = |s: &str| {
            let bytes = &s.as_bytes()[at.saturating_sub(60)..(at + 60).min(s.len())];
            String::from_utf8_lossy(bytes).into_owned()
        };
        panic!(
            "tests/golden/{file} drifted at byte {at} \
             (regenerate deliberately with UPDATE_GOLDEN=1)\n\
             --- golden ---\n{}\n--- actual ---\n{}",
            context(&expected),
            context(actual)
        );
    }
}

/// Golden pin of the merged (simulated-time + host wall-clock) Chrome
/// trace: the exact serialized JSON is deliberate-update-only, because
/// downstream tooling (Perfetto configs, trace diff scripts) keys on
/// event names, track layout, and field order.
#[test]
fn merged_chrome_trace_matches_golden() {
    let mut trace = Vec::new();
    write_chrome_trace(&mut trace, &[sim_bundle()], Some(&host_report()), &[]).unwrap();
    let doc = serde_json::from_str(std::str::from_utf8(&trace).unwrap()).unwrap();
    check_fixture(
        "chrome_host.txt",
        &format!("{}\n", serde_json::to_string_pretty(&doc)),
    );
}

/// Golden pin of the raw export bytes of a real capture: the shipped
/// `trace` experiment (16 ranks on 2 nodes, seeded drops) with its
/// critical-path flows and no host report. Its timestamps are
/// simulated microseconds, most of them non-integral, so this is the
/// fixture that fails when the export prints any number with other
/// digits; `chrome_host.txt` holds only integral numbers and is
/// compared after a parse.
#[test]
fn trace_experiment_export_matches_golden_byte_for_byte() {
    let bundles = capture("trace", 1);
    assert_eq!(bundles.len(), 1, "the demo runs exactly one simulation");
    let paths: Vec<CriticalPath> = bundles.iter().map(|b| analyze(b).critical_path).collect();
    let mut trace = Vec::new();
    write_chrome_trace(&mut trace, &bundles, None, &paths).unwrap();
    let trace = String::from_utf8(trace).expect("the export is UTF-8");
    assert!(
        trace.contains("\"ph\":\"s\"") && trace.contains("\"cat\":\"net\""),
        "the capture carries flow arrows and retransmit spans"
    );
    check_fixture("trace_export.json", &trace);
}
