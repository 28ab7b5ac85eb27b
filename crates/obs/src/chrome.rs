//! Chrome trace-event export.
//!
//! Renders recorded simulations in the [Trace Event Format] consumed
//! by Perfetto (`ui.perfetto.dev`) and `chrome://tracing`: each
//! simulation becomes a "process", each rank a named "thread" (track),
//! and every span a complete (`"ph": "X"`) event with microsecond
//! timestamps. Network-side spans (retransmit backoff, multiplex
//! queuing) get their own per-rank tracks so they can overlap CPU
//! activity without confusing the renderer.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use serde_json::Value;

use crate::analysis::CriticalPath;
use crate::host::{HostReport, HostTrack};
use crate::sink::TraceBundle;
use crate::tracer::{SpanEvent, Track};

/// Seconds → trace-event microseconds.
fn us(t: f64) -> f64 {
    t * 1e6
}

fn meta(name: &str, pid: usize, tid: usize, arg: &str) -> Value {
    let mut args = Value::object();
    args.set("name", Value::String(arg.to_string()));
    let mut e = Value::object();
    e.set("ph", Value::String("M".into()));
    e.set("name", Value::String(name.into()));
    e.set("pid", Value::Number(pid as f64));
    e.set("tid", Value::Number(tid as f64));
    e.set("args", args);
    e
}

fn complete(span: &SpanEvent, pid: usize, tid: usize) -> Value {
    let mut e = Value::object();
    e.set("name", Value::String(span.kind.name().into()));
    e.set(
        "cat",
        Value::String(
            match span.kind.track() {
                Track::Cpu => "cpu",
                Track::Net => "net",
            }
            .into(),
        ),
    );
    e.set("ph", Value::String("X".into()));
    e.set("ts", Value::Number(us(span.start)));
    e.set("dur", Value::Number(us(span.duration())));
    e.set("pid", Value::Number(pid as f64));
    e.set("tid", Value::Number(tid as f64));
    e
}

/// Render one host-side span as a complete event on the host process.
fn host_complete(span: &crate::host::HostSpan, pid: usize, tid: usize) -> Value {
    let mut e = Value::object();
    e.set("name", Value::String(span.label.clone()));
    e.set("cat", Value::String(span.cat.into()));
    e.set("ph", Value::String("X".into()));
    e.set("ts", Value::Number(us(span.start)));
    e.set("dur", Value::Number(us(span.duration())));
    e.set("pid", Value::Number(pid as f64));
    e.set("tid", Value::Number(tid as f64));
    if !span.args.is_empty() {
        let mut args = Value::object();
        for (k, v) in &span.args {
            args.set(k, v.clone());
        }
        e.set("args", args);
    }
    e
}

/// Render `bundles` plus an optional host-telemetry capture as one
/// Chrome trace document.
///
/// Simulated-time tracks are laid out exactly as in [`chrome_trace`].
/// The host capture — when present — becomes one extra process (pid
/// `bundles.len()`, named "host executor (wall clock)"): one thread
/// per worker lane ("worker 0", "worker 1", …) carrying job spans and
/// steal instants, plus a "checkpoint store" thread for store
/// save/load activity. Host timestamps are wall-clock seconds since
/// the capture epoch, so in Perfetto the executor's real occupancy
/// reads side by side with the simulators' virtual timelines.
pub fn chrome_trace_with_host(bundles: &[TraceBundle], host: Option<&HostReport>) -> Value {
    chrome_trace_with_flows(bundles, host, &[])
}

/// Render `bundles` plus host telemetry plus critical-path flow
/// events.
///
/// `paths[i]` — when present — is the analyzed critical path of
/// `bundles[i]` (see [`crate::analysis::analyze`]); each cross-rank hop
/// it traversed becomes a Perfetto flow (`"ph": "s"` at the source
/// event, `"ph": "f"` at the arrival, shared id, name
/// `"critical-path"`, category `"cp"`), so the path reads as arrows
/// threading through the rank tracks. Without `paths` (or with an empty
/// slice) the output is byte-identical to [`chrome_trace_with_host`].
///
/// Events are listed simulated tracks first, then host tracks, then
/// flow arrows.
pub fn chrome_trace_with_flows(
    bundles: &[TraceBundle],
    host: Option<&HostReport>,
    paths: &[CriticalPath],
) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for (pid, bundle) in bundles.iter().enumerate() {
        let n_ranks = bundle.profile.ranks.len();
        events.push(meta("process_name", pid, 0, &bundle.label));
        let mut rank_seen = vec![false; n_ranks];
        let mut net_seen = vec![false; n_ranks];
        for span in &bundle.spans {
            let tid = match span.kind.track() {
                Track::Cpu => {
                    rank_seen[span.rank] = true;
                    span.rank
                }
                Track::Net => {
                    net_seen[span.rank] = true;
                    n_ranks + span.rank
                }
            };
            events.push(complete(span, pid, tid));
        }
        for (r, seen) in rank_seen.iter().enumerate() {
            if *seen {
                events.push(meta("thread_name", pid, r, &format!("rank {r}")));
            }
        }
        for (r, seen) in net_seen.iter().enumerate() {
            if *seen {
                events.push(meta(
                    "thread_name",
                    pid,
                    n_ranks + r,
                    &format!("rank {r} (net)"),
                ));
            }
        }
    }
    if let Some(host) = host {
        let pid = bundles.len();
        let workers = host.workers();
        // Store track sits after the last worker lane (or at 0 when no
        // worker ever recorded — a store-only capture still renders).
        let store_tid = workers.last().map_or(0, |w| *w as usize + 1);
        events.push(meta("process_name", pid, 0, "host executor (wall clock)"));
        let mut store_seen = false;
        for span in &host.spans {
            let tid = match span.track {
                HostTrack::Worker(w) => w as usize,
                HostTrack::Store => {
                    store_seen = true;
                    store_tid
                }
            };
            events.push(host_complete(span, pid, tid));
        }
        for w in &workers {
            events.push(meta(
                "thread_name",
                pid,
                *w as usize,
                &format!("worker {w}"),
            ));
        }
        if store_seen {
            events.push(meta("thread_name", pid, store_tid, "checkpoint store"));
        }
    }
    let mut id = 0usize;
    for (pid, path) in paths.iter().enumerate().take(bundles.len()) {
        for hop in &path.hops {
            if hop.src_rank == hop.dst_rank {
                continue;
            }
            id += 1;
            let mut s = Value::object();
            s.set("ph", Value::String("s".into()));
            s.set("id", Value::Number(id as f64));
            s.set("name", Value::String("critical-path".into()));
            s.set("cat", Value::String("cp".into()));
            s.set("pid", Value::Number(pid as f64));
            s.set("tid", Value::Number(hop.src_rank as f64));
            s.set("ts", Value::Number(us(hop.src_time)));
            events.push(s);
            let mut f = Value::object();
            f.set("ph", Value::String("f".into()));
            f.set("bp", Value::String("e".into()));
            f.set("id", Value::Number(id as f64));
            f.set("name", Value::String("critical-path".into()));
            f.set("cat", Value::String("cp".into()));
            f.set("pid", Value::Number(pid as f64));
            f.set("tid", Value::Number(hop.dst_rank as f64));
            f.set("ts", Value::Number(us(hop.dst_time)));
            events.push(f);
        }
    }
    let mut doc = Value::object();
    doc.set("traceEvents", Value::Array(events));
    doc.set("displayTimeUnit", Value::String("ms".into()));
    doc
}

/// Render `bundles` as one Chrome trace document.
///
/// Simulation `i` is process `i` (named by its bundle label); rank `r`
/// is thread `r` of that process, and its network activity — if any —
/// thread `n_ranks + r` (named "rank r (net)").
pub fn chrome_trace(bundles: &[TraceBundle]) -> Value {
    chrome_trace_with_flows(bundles, None, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::profile::CommProfile;
    use crate::tracer::SpanKind;

    fn bundle() -> TraceBundle {
        let spans = vec![
            SpanEvent {
                rank: 0,
                kind: SpanKind::Compute,
                start: 0.0,
                end: 1.0,
            },
            SpanEvent {
                rank: 1,
                kind: SpanKind::RecvWait,
                start: 0.0,
                end: 0.5,
            },
            SpanEvent {
                rank: 0,
                kind: SpanKind::RetransmitBackoff,
                start: 1.0,
                end: 1.5,
            },
        ];
        let profile = CommProfile::from_spans(&spans, 2);
        TraceBundle {
            label: "demo".into(),
            spans,
            edges: vec![],
            rank_nodes: vec![],
            metrics: Metrics::new(),
            profile,
        }
    }

    #[test]
    fn export_is_valid_json_with_per_rank_tracks() {
        let doc = chrome_trace(&[bundle()]);
        let text = serde_json::to_string_pretty(&doc);
        let parsed = serde_json::from_str(&text).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // One thread_name per CPU rank plus one for the net track.
        let thread_names: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .collect();
        assert_eq!(thread_names.len(), 3);
        // Complete events carry microsecond timestamps.
        let compute = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("compute"))
            .unwrap();
        assert_eq!(compute.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(compute.get("dur").and_then(Value::as_f64), Some(1e6));
        // The net span lands on the offset track.
        let net = events
            .iter()
            .find(|e| e.get("cat").and_then(Value::as_str) == Some("net"))
            .unwrap();
        assert_eq!(net.get("tid").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn host_capture_renders_as_its_own_process_with_worker_tracks() {
        use crate::host::{HostReport, HostSpan, HostTrack};
        let mut report = HostReport::default();
        report.spans.push(HostSpan {
            track: HostTrack::Worker(0),
            label: "job 0".into(),
            cat: "host.job",
            start: 0.0,
            end: 0.25,
            args: vec![("outcome", Value::String("ok".into()))],
        });
        report.spans.push(HostSpan {
            track: HostTrack::Worker(2),
            label: "steal".into(),
            cat: "host.steal",
            start: 0.1,
            end: 0.1,
            args: vec![],
        });
        report.spans.push(HostSpan {
            track: HostTrack::Store,
            label: "save".into(),
            cat: "host.store",
            start: 0.2,
            end: 0.21,
            args: vec![],
        });
        let doc = chrome_trace_with_host(&[bundle()], Some(&report));
        let text = serde_json::to_string(&doc);
        let parsed = serde_json::from_str(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
        // Host process is pid 1 (after the one sim bundle).
        let host_events: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("pid").and_then(Value::as_f64) == Some(1.0))
            .collect();
        assert!(!host_events.is_empty(), "host process present");
        let names: Vec<&str> = host_events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, vec!["worker 0", "worker 2", "checkpoint store"]);
        // The store track lands after the last worker lane (tid 3).
        let save = host_events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("save"))
            .unwrap();
        assert_eq!(save.get("tid").and_then(Value::as_f64), Some(3.0));
        // Job args survive the export.
        let job = host_events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("job 0"))
            .unwrap();
        assert_eq!(
            job.get("args")
                .and_then(|a| a.get("outcome"))
                .and_then(Value::as_str),
            Some("ok")
        );
        // Simulated-time tracks are untouched alongside.
        assert!(events
            .iter()
            .any(|e| e.get("pid").and_then(Value::as_f64) == Some(0.0)
                && e.get("ph").and_then(Value::as_str) == Some("X")));
    }

    #[test]
    fn no_host_capture_is_exactly_the_plain_export() {
        let plain = serde_json::to_string(&chrome_trace(&[bundle()]));
        let merged = serde_json::to_string(&chrome_trace_with_host(&[bundle()], None));
        assert_eq!(plain, merged);
    }

    #[test]
    fn no_paths_is_exactly_the_host_export() {
        let host = serde_json::to_string(&chrome_trace_with_host(&[bundle()], None));
        let flows = serde_json::to_string(&chrome_trace_with_flows(&[bundle()], None, &[]));
        assert_eq!(host, flows);
    }

    #[test]
    fn critical_path_hops_render_as_well_formed_flow_pairs() {
        use crate::analysis::analyze;
        use crate::tracer::{CausalEdge, EdgeKind, RecordingTracer, Tracer};
        use std::collections::BTreeMap;

        // Rank 0 computes then sends; rank 1 waits for the message.
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
            bytes: 8,
            wire_time: 0.2,
            fault_delay: 0.0,
        });
        t.span(1, SpanKind::Compute, 0.0, 0.1);
        t.span(1, SpanKind::RecvWait, 0.1, 1.2);
        t.span(1, SpanKind::Compute, 1.2, 1.5);
        let b = t.into_bundle("flow demo");
        let path = analyze(&b).critical_path;
        assert!(!path.hops.is_empty());

        let doc = chrome_trace_with_flows(&[b], None, std::slice::from_ref(&path));
        let parsed = serde_json::from_str(&serde_json::to_string(&doc)).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::as_array).unwrap();
        // Group flow events by id: each id appears exactly twice, as an
        // "s"/"f" pair with matching name and category, timestamps
        // inside the path's time range, and tids on the hop's ranks.
        let mut by_id: BTreeMap<u64, Vec<&Value>> = BTreeMap::new();
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
            if ph == "s" || ph == "f" {
                let id = e.get("id").and_then(Value::as_f64).expect("flow id") as u64;
                by_id.entry(id).or_default().push(e);
            }
        }
        assert_eq!(by_id.len(), path.hops.len());
        for (id, pair) in &by_id {
            assert_eq!(pair.len(), 2, "flow id {id} must have an s/f pair");
            assert_eq!(pair[0].get("ph").and_then(Value::as_str), Some("s"));
            assert_eq!(pair[1].get("ph").and_then(Value::as_str), Some("f"));
            assert_eq!(pair[1].get("bp").and_then(Value::as_str), Some("e"));
            for e in pair {
                assert_eq!(e.get("name").and_then(Value::as_str), Some("critical-path"));
                assert_eq!(e.get("cat").and_then(Value::as_str), Some("cp"));
                let ts = e.get("ts").and_then(Value::as_f64).unwrap();
                assert!((0.0..=1.5e6).contains(&ts));
            }
            let s_ts = pair[0].get("ts").and_then(Value::as_f64).unwrap();
            let f_ts = pair[1].get("ts").and_then(Value::as_f64).unwrap();
            assert!(s_ts <= f_ts, "flow start precedes its finish");
        }
        // The one hop's flow binds rank 0's track to rank 1's.
        let pair = by_id.values().next().unwrap();
        assert_eq!(pair[0].get("tid").and_then(Value::as_f64), Some(0.0));
        assert_eq!(pair[1].get("tid").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn empty_export_still_parses() {
        let doc = chrome_trace(&[]);
        let parsed = serde_json::from_str(&serde_json::to_string(&doc)).unwrap();
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(0)
        );
    }
}
