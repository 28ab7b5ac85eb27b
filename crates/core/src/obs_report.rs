//! Render observability data ([`CommProfile`], [`Metrics`]) as
//! [`Report`] tables.
//!
//! The tracer (see `columbia-obs`) captures where every simulated
//! second went; this module turns that into the repo's standard
//! human-readable output: a top-N hotspot table of the ranks that
//! spent the most time waiting, annotated with the fabric counters
//! that explain *why* they waited.

use columbia_obs::{Analysis, CommProfile, Metrics};

use crate::report::{secs, Report};

/// Top-N hotspot table: the ranks losing the most time to waiting,
/// with their compute/comm/wait attribution.
///
/// `id`/`title` name the report (e.g. the experiment that produced the
/// trace); `top_n` bounds the table size. Counter totals that explain
/// the waits (drops, retransmits, multiplexing) are appended as notes.
pub fn hotspot_report(
    id: &str,
    title: &str,
    profile: &CommProfile,
    metrics: &Metrics,
    top_n: usize,
) -> Report {
    let mut r = Report::new(
        id,
        title,
        &["rank", "compute", "comm", "wait", "total", "wait %"],
    );
    for p in profile.hotspots(top_n) {
        let pct = if p.total > 0.0 {
            100.0 * p.wait / p.total
        } else {
            0.0
        };
        r.push_row(vec![
            p.rank.to_string(),
            secs(p.compute),
            secs(p.comm),
            secs(p.wait),
            secs(p.total),
            format!("{pct:.1}%"),
        ]);
    }
    r.note(format!(
        "makespan {}; comm fraction {:.1}% across {} rank(s), {} phase(s)",
        secs(profile.makespan),
        100.0 * profile.comm_fraction(),
        profile.ranks.len(),
        profile.phases.len(),
    ));
    r.note(format!(
        "messages: {} sent, {} dropped, {} retransmit(s), {} multiplexed; {} bytes on the wire",
        metrics.counter("messages_sent"),
        metrics.counter("messages_dropped"),
        metrics.counter("retransmits"),
        metrics.counter("messages_multiplexed"),
        metrics.counter("bytes_sent"),
    ));
    if let Some(((from, to), bytes)) = metrics.links_by_bytes().into_iter().next() {
        r.note(format!(
            "heaviest link: node {from} -> node {to}, {bytes} bytes"
        ));
    }
    r
}

/// Critical-path attribution table: one row per analyzed simulation,
/// makespan split into the five bottleneck categories, the dominant
/// one named in the last column.
///
/// Each simulation also contributes a note with its load-imbalance
/// statistics and heaviest communicating rank pair — the "why" behind
/// the attribution. `id`/`title` name the report (normally the
/// experiment that produced the traces).
pub fn analysis_report(id: &str, title: &str, sims: &[(String, Analysis)]) -> Report {
    let mut r = Report::new(
        id,
        title,
        &[
            "sim",
            "makespan",
            "compute",
            "send",
            "recv-wait",
            "collective",
            "fault",
            "bottleneck",
        ],
    );
    for (label, a) in sims {
        let cp = &a.critical_path;
        let b = &cp.breakdown;
        r.push_row(vec![
            label.clone(),
            secs(cp.makespan),
            secs(b.compute),
            secs(b.send),
            secs(b.recv_wait),
            secs(b.collective),
            secs(b.fault_retransmit),
            b.dominant().name().to_string(),
        ]);
    }
    for (label, a) in sims {
        let cp = &a.critical_path;
        let imb = &a.imbalance;
        let mut note = format!(
            "{label}: path over {} rank(s) on {} node(s); busy max {} / mean {} / p95 {} (ratio {:.2}), idle {:.1}%",
            cp.by_rank.len(),
            cp.by_node.len().max(1),
            secs(imb.max_busy),
            secs(imb.mean_busy),
            secs(imb.p95_busy),
            imb.ratio(),
            100.0 * imb.idle_fraction,
        );
        if let Some(p) = a.heaviest_pair() {
            note.push_str(&format!(
                "; heaviest pair rank {} -> {} (node {} -> {}): {} msg, {} bytes, {}",
                p.from_rank,
                p.to_rank,
                p.from_node,
                p.to_node,
                p.messages,
                p.bytes,
                secs(p.cost),
            ));
        }
        if cp.truncated {
            note.push_str("; WARNING: path walk truncated");
        }
        r.note(note);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_obs::{SpanEvent, SpanKind};

    fn profile() -> CommProfile {
        let spans = vec![
            SpanEvent {
                rank: 0,
                kind: SpanKind::Compute,
                start: 0.0,
                end: 4.0,
            },
            SpanEvent {
                rank: 1,
                kind: SpanKind::Compute,
                start: 0.0,
                end: 1.0,
            },
            SpanEvent {
                rank: 1,
                kind: SpanKind::RecvWait,
                start: 1.0,
                end: 4.0,
            },
        ];
        CommProfile::from_spans(&spans, 2)
    }

    #[test]
    fn hotspots_lead_with_the_most_waiting_rank() {
        let mut m = Metrics::default();
        m.inc("messages_sent", 1);
        m.inc("bytes_sent", 1024);
        let r = hotspot_report("Trace", "demo", &profile(), &m, 10);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], "1"); // rank 1 waited 3s, rank 0 none
        assert!(r.rows[0][5].starts_with("75.0"));
        assert!(r.notes.iter().any(|n| n.contains("1 sent")));
    }

    #[test]
    fn top_n_truncates() {
        let m = Metrics::default();
        let r = hotspot_report("Trace", "demo", &profile(), &m, 1);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn analysis_report_names_the_bottleneck_per_sim() {
        use columbia_obs::tracer::{CausalEdge, EdgeKind, RecordingTracer, Tracer};
        let mut t = RecordingTracer::new();
        t.topology(&[0, 1]);
        t.span(0, SpanKind::Compute, 0.0, 1.0);
        t.span(0, SpanKind::Send, 1.0, 1.01);
        t.edge(&CausalEdge {
            kind: EdgeKind::Message,
            src_rank: 0,
            src_time: 1.0,
            dst_rank: 1,
            dst_time: 1.2,
            bytes: 4096,
            wire_time: 0.2,
            fault_delay: 0.0,
        });
        t.span(1, SpanKind::Compute, 0.0, 0.1);
        t.span(1, SpanKind::RecvWait, 0.1, 1.2);
        t.span(1, SpanKind::Compute, 1.2, 1.5);
        let a = columbia_obs::analyze(&t.into_bundle("demo"));
        let r = analysis_report("Analyze", "demo", &[("sim 0".into(), a)]);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], "sim 0");
        assert_eq!(r.rows[0][7], "compute", "compute dominates this path");
        let note = &r.notes[0];
        assert!(note.contains("heaviest pair rank 0 -> 1"), "note: {note}");
        assert!(note.contains("idle"), "note: {note}");
        assert!(!note.contains("WARNING"));
        // The table renders and round-trips as JSON.
        assert!(r.to_text().contains("bottleneck"));
        assert!(serde_json::from_str(&r.to_json()).is_ok());
    }
}
