//! End-to-end observability: a recording context captures an
//! experiment's simulations and the Chrome export is well-formed.

use columbia::experiments::plan;
use columbia::obs::{write_chrome_trace, RunContext, Track};

#[test]
fn trace_experiment_capture_and_chrome_export() {
    let ctx = RunContext::new(1).with_traces();
    let report = plan("trace").run(&ctx, 1).expect("the demo runs");
    let bundles = ctx.take_traces();
    assert!(report.to_text().contains("hotspots"));
    assert_eq!(bundles.len(), 1, "the demo runs exactly one simulation");
    let b = &bundles[0];
    assert!(b.label.contains("trace demo"), "{}", b.label);
    assert!(!b.spans.is_empty());
    assert!(b.metrics.counter("messages_sent") > 0);
    assert_eq!(b.profile.ranks.len(), 16);

    // The export must parse back as JSON and carry one CPU track per
    // rank (tid = rank) plus named processes/threads for Perfetto.
    let mut doc = Vec::new();
    write_chrome_trace(&mut doc, &bundles, None, &[]).expect("export writes");
    let doc = String::from_utf8(doc).expect("chrome trace is UTF-8");
    let v = serde_json::from_str(&doc).expect("chrome trace is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut cpu_tracks = std::collections::BTreeSet::new();
    let mut metas = 0usize;
    for e in events {
        match e.get("ph").and_then(|p| p.as_str()) {
            Some("X") => {
                let tid = e.get("tid").and_then(|t| t.as_f64()).unwrap() as usize;
                let dur = e.get("dur").and_then(|d| d.as_f64()).unwrap();
                assert!(dur >= 0.0);
                if tid < b.profile.ranks.len() {
                    cpu_tracks.insert(tid);
                }
            }
            Some("M") => metas += 1,
            ph => panic!("unexpected phase {ph:?}"),
        }
    }
    assert_eq!(cpu_tracks.len(), 16, "one CPU track per rank");
    assert!(metas > 16, "process + thread name metadata");

    // The span stream agrees with the profile: per-rank CPU time sums
    // to the rank's total.
    for rank in &b.profile.ranks {
        let sum: f64 = b
            .spans
            .iter()
            .filter(|s| s.rank == rank.rank && s.kind.track() == Track::Cpu)
            .map(|s| s.duration())
            .sum();
        assert!(
            (sum - rank.total).abs() < 1e-9,
            "rank {}: {} != {}",
            rank.rank,
            sum,
            rank.total
        );
    }
}
