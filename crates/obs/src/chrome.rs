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
//! [`write_chrome_trace`] is the one renderer. It streams every event
//! straight into an [`std::io::Write`] through `serde_json`'s scalar
//! writers, in a fixed event and field order, so no document tree and
//! no whole-file string is ever built: `repro --trace` hands it a
//! buffered file. Simulated spans are nearly all of a trace's events,
//! and each is written as one static prefix per span kind (its name,
//! category, phase and the `ts` key) followed by its four numbers
//! behind pre-quoted keys; host spans, metadata and flow events, whose
//! names are dynamic or few, go through the field writers.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::io::{self, Write};

use serde_json::{write_number, write_str, Value};

use crate::analysis::CriticalPath;
use crate::host::{HostReport, HostTrack};
use crate::sink::TraceBundle;
use crate::tracer::{SpanKind, Track};

/// Seconds → trace-event microseconds.
fn us(t: f64) -> f64 {
    t * 1e6
}

/// What a simulated span's complete event holds after its opening
/// brace, up to its `ts` value. Span-kind names and categories are
/// static ASCII that `write_str` passes through unescaped (tested), so
/// these are the bytes [`Events::complete`] would write for them.
fn span_prefix(kind: SpanKind) -> &'static [u8] {
    match kind {
        SpanKind::Compute => br#""name":"compute","cat":"cpu","ph":"X","ts":"#,
        SpanKind::Send => br#""name":"send","cat":"cpu","ph":"X","ts":"#,
        SpanKind::RecvWait => br#""name":"recv-wait","cat":"cpu","ph":"X","ts":"#,
        SpanKind::Collective => br#""name":"collective","cat":"cpu","ph":"X","ts":"#,
        SpanKind::RetransmitBackoff => br#""name":"retransmit-backoff","cat":"net","ph":"X","ts":"#,
        SpanKind::MultiplexQueue => br#""name":"multiplex-queue","cat":"net","ph":"X","ts":"#,
    }
}

/// The document's `traceEvents` list, written one compact JSON object
/// at a time: [`Events::open`] an event, write its fields in order,
/// then [`Events::close`] it.
struct Events<W> {
    out: W,
    /// Events opened so far.
    events: usize,
    /// Fields written into the open event.
    fields: usize,
}

impl<W: Write> Events<W> {
    fn open(&mut self) -> io::Result<()> {
        self.out
            .write_all(if self.events == 0 { b"{" } else { b",{" })?;
        self.events += 1;
        self.fields = 0;
        Ok(())
    }

    fn close(&mut self) -> io::Result<()> {
        self.out.write_all(b"}")
    }

    /// Start the next field of the open event.
    fn key(&mut self, key: &str) -> io::Result<()> {
        if self.fields > 0 {
            self.out.write_all(b",")?;
        }
        self.fields += 1;
        write_str(&mut self.out, key)?;
        self.out.write_all(b":")
    }

    fn str(&mut self, key: &str, value: &str) -> io::Result<()> {
        self.key(key)?;
        write_str(&mut self.out, value)
    }

    fn num(&mut self, key: &str, value: f64) -> io::Result<()> {
        self.key(key)?;
        write_number(&mut self.out, value)
    }

    /// An `args` object of `entries`, in order.
    fn args(&mut self, entries: &[(&str, Value)]) -> io::Result<()> {
        self.key("args")?;
        self.out.write_all(b"{")?;
        for (i, (k, v)) in entries.iter().enumerate() {
            if i > 0 {
                self.out.write_all(b",")?;
            }
            write_str(&mut self.out, k)?;
            self.out.write_all(b":")?;
            serde_json::to_writer(&mut self.out, v)?;
        }
        self.out.write_all(b"}")
    }

    /// A metadata event: `name` is `process_name` or `thread_name`,
    /// `arg` the name it gives.
    fn meta(&mut self, name: &str, pid: usize, tid: usize, arg: &str) -> io::Result<()> {
        self.open_meta(name, pid, tid, arg)?;
        self.close()
    }

    /// Open a metadata event and write its fields; the caller may add
    /// more, then closes it.
    fn open_meta(&mut self, name: &str, pid: usize, tid: usize, arg: &str) -> io::Result<()> {
        self.open()?;
        self.str("ph", "M")?;
        self.str("name", name)?;
        self.num("pid", pid as f64)?;
        self.num("tid", tid as f64)?;
        self.key("args")?;
        self.out.write_all(b"{\"name\":")?;
        write_str(&mut self.out, arg)?;
        self.out.write_all(b"}")
    }

    /// Open a complete (`"ph": "X"`) event and write the fields every
    /// such event starts with; the caller may add `args`, then closes
    /// it. `start` and `duration` are in seconds.
    fn complete(
        &mut self,
        name: &str,
        cat: &str,
        start: f64,
        duration: f64,
        pid: usize,
        tid: usize,
    ) -> io::Result<()> {
        self.open()?;
        self.str("name", name)?;
        self.str("cat", cat)?;
        self.str("ph", "X")?;
        self.num("ts", us(start))?;
        self.num("dur", us(duration))?;
        self.num("pid", pid as f64)?;
        self.num("tid", tid as f64)
    }

    /// A simulated span's whole complete event: the same fields as
    /// [`Events::complete`], in the same order, written as its kind's
    /// static prefix and four numbers. Nothing follows them, so the
    /// field count is not kept.
    fn span(
        &mut self,
        kind: SpanKind,
        start: f64,
        duration: f64,
        pid: usize,
        tid: usize,
    ) -> io::Result<()> {
        self.open()?;
        self.out.write_all(span_prefix(kind))?;
        write_number(&mut self.out, us(start))?;
        self.out.write_all(b",\"dur\":")?;
        write_number(&mut self.out, us(duration))?;
        self.out.write_all(b",\"pid\":")?;
        write_number(&mut self.out, pid as f64)?;
        self.out.write_all(b",\"tid\":")?;
        write_number(&mut self.out, tid as f64)?;
        self.close()
    }
}

/// Stream `bundles`, an optional host-telemetry capture and
/// critical-path flow events into `out` as one compact Chrome trace
/// document, `{"traceEvents":[…],"displayTimeUnit":"ms"}`.
///
/// * Simulation `i` is process `i` (named by its bundle label): its
///   complete events in span order, then one `thread_name` per rank
///   that recorded a span. Rank `r` is thread `r`, and its network
///   activity, if any, thread `n_ranks + r` ("rank r (net)").
/// * The host capture, when present, is one more process (pid
///   `bundles.len()`, "host executor (wall clock)"): one thread per
///   worker lane ("worker 0", "worker 1", …) carrying job spans and
///   fail-fast skip instants, plus a "checkpoint store" thread after
///   the last worker for store activity, then one "partition p" thread
///   per PDES partition lane that recorded rounds, placed after the
///   store thread. Its spans and its `thread_name` event carry category
///   `host.pdes`, so dropping `host.*` categories removes every trace
///   of a partition lane. Host timestamps are
///   wall-clock seconds since the capture epoch, so in Perfetto the
///   executor's real occupancy reads side by side with the
///   simulators' virtual timelines. A span's `args` keys are written
///   in order, so they must be distinct.
/// * `paths[i]`, when present, is the analyzed critical path of
///   `bundles[i]` (see [`crate::analysis::analyze`]). Each cross-rank
///   hop it traversed becomes a Perfetto flow (`"ph": "s"` at the
///   source event, `"ph": "f"` at the arrival, shared id, name
///   `"critical-path"`, category `"cp"`), so the path reads as arrows
///   threading through the rank tracks. Without paths no flow events
///   are written.
///
/// Events are listed simulated tracks first, then host tracks, then
/// flow arrows. Nothing is buffered here: pass a buffered writer.
pub fn write_chrome_trace(
    out: &mut impl Write,
    bundles: &[TraceBundle],
    host: Option<&HostReport>,
    paths: &[CriticalPath],
) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\":[")?;
    let mut ev = Events {
        out: &mut *out,
        events: 0,
        fields: 0,
    };
    for (pid, bundle) in bundles.iter().enumerate() {
        let n_ranks = bundle.profile.ranks.len();
        ev.meta("process_name", pid, 0, &bundle.label)?;
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
            ev.span(span.kind, span.start, span.duration(), pid, tid)?;
        }
        for (r, seen) in rank_seen.iter().enumerate() {
            if *seen {
                ev.meta("thread_name", pid, r, &format!("rank {r}"))?;
            }
        }
        for (r, seen) in net_seen.iter().enumerate() {
            if *seen {
                ev.meta("thread_name", pid, n_ranks + r, &format!("rank {r} (net)"))?;
            }
        }
    }
    if let Some(host) = host {
        let pid = bundles.len();
        let workers = host.workers();
        // Store track sits after the last worker lane (or at 0 when no
        // worker ever recorded — a store-only capture still renders).
        let store_tid = workers.last().map_or(0, |w| *w as usize + 1);
        ev.meta("process_name", pid, 0, "host executor (wall clock)")?;
        let mut store_seen = false;
        for span in &host.spans {
            let tid = match span.track {
                HostTrack::Worker(w) => w as usize,
                HostTrack::Store => {
                    store_seen = true;
                    store_tid
                }
            };
            ev.complete(&span.label, span.cat, span.start, span.duration(), pid, tid)?;
            if !span.args.is_empty() {
                ev.args(&span.args)?;
            }
            ev.close()?;
        }
        // Partition lanes follow the store lane.
        let partition_tid = |p: u32| store_tid + 1 + p as usize;
        for span in &host.partitions {
            let tid = partition_tid(span.partition);
            ev.complete(
                &span.label,
                "host.pdes",
                span.start,
                span.duration(),
                pid,
                tid,
            )?;
            let (key, count) = span.count;
            ev.args(&[(key, Value::Number(count as f64))])?;
            ev.close()?;
        }
        for w in &workers {
            ev.meta("thread_name", pid, *w as usize, &format!("worker {w}"))?;
        }
        if store_seen {
            ev.meta("thread_name", pid, store_tid, "checkpoint store")?;
        }
        // A partition lane's name carries its spans' category too, so a
        // filter on `host.*` categories drops every trace of the lanes.
        for p in host.partition_lanes() {
            let name = format!("partition {p}");
            ev.open_meta("thread_name", pid, partition_tid(p), &name)?;
            ev.str("cat", "host.pdes")?;
            ev.close()?;
        }
    }
    let mut id = 0usize;
    for (pid, path) in paths.iter().enumerate().take(bundles.len()) {
        for hop in &path.hops {
            if hop.src_rank == hop.dst_rank {
                continue;
            }
            id += 1;
            ev.open()?;
            ev.str("ph", "s")?;
            ev.num("id", id as f64)?;
            ev.str("name", "critical-path")?;
            ev.str("cat", "cp")?;
            ev.num("pid", pid as f64)?;
            ev.num("tid", hop.src_rank as f64)?;
            ev.num("ts", us(hop.src_time))?;
            ev.close()?;
            ev.open()?;
            ev.str("ph", "f")?;
            ev.str("bp", "e")?;
            ev.num("id", id as f64)?;
            ev.str("name", "critical-path")?;
            ev.str("cat", "cp")?;
            ev.num("pid", pid as f64)?;
            ev.num("tid", hop.dst_rank as f64)?;
            ev.num("ts", us(hop.dst_time))?;
            ev.close()?;
        }
    }
    out.write_all(b"],\"displayTimeUnit\":\"ms\"}")
}

/// [`write_chrome_trace`] without flow events, parsed back into a
/// [`Value`].
///
/// Kept only because the benchmark's probes (`benchmark/probes`) call
/// it and serialize the result themselves; everything else streams
/// with [`write_chrome_trace`].
pub fn chrome_trace_with_host(bundles: &[TraceBundle], host: Option<&HostReport>) -> Value {
    chrome_trace_with_flows(bundles, host, &[])
}

/// [`write_chrome_trace`]'s document parsed back into a [`Value`], so
/// there is still one renderer.
///
/// Kept only because the benchmark's probes (`benchmark/probes`) call
/// it and serialize the result themselves; everything else streams
/// with [`write_chrome_trace`].
pub fn chrome_trace_with_flows(
    bundles: &[TraceBundle],
    host: Option<&HostReport>,
    paths: &[CriticalPath],
) -> Value {
    let mut out = Vec::new();
    // A `Vec<u8>` takes every write and the writer emits UTF-8 JSON, so
    // neither step fails and `Null` is never returned; the tests pin
    // this document, serialized again, to the stream byte for byte.
    write_chrome_trace(&mut out, bundles, host, paths)
        .ok()
        .and_then(|()| serde_json::from_str(&String::from_utf8_lossy(&out)).ok())
        .unwrap_or(Value::Null)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostSpan, PartitionSpan};
    use crate::metrics::Metrics;
    use crate::profile::CommProfile;
    use crate::tracer::{CausalEdge, EdgeKind, SpanEvent, SpanKind};
    use proptest::prelude::*;
    use proptest::TestRng;

    /// [`write_chrome_trace`]'s document as a string.
    fn export(
        bundles: &[TraceBundle],
        host: Option<&HostReport>,
        paths: &[CriticalPath],
    ) -> String {
        let mut out = Vec::new();
        write_chrome_trace(&mut out, bundles, host, paths).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// [`write_chrome_trace`]'s document, parsed.
    fn parsed(bundles: &[TraceBundle], host: Option<&HostReport>, paths: &[CriticalPath]) -> Value {
        serde_json::from_str(&export(bundles, host, paths)).unwrap()
    }

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

    fn host_report() -> HostReport {
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
            label: "skip job 4".into(),
            cat: "host.skip",
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
        report.partitions.push(PartitionSpan {
            partition: 1,
            label: "round 0".into(),
            start: 0.3,
            end: 0.31,
            count: ("events", 42),
        });
        report
    }

    #[test]
    fn export_is_valid_json_with_per_rank_tracks() {
        let parsed = parsed(&[bundle()], None, &[]);
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
        let report = host_report();
        let parsed = parsed(&[bundle()], Some(&report), &[]);
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
        assert_eq!(
            names,
            vec!["worker 0", "worker 2", "checkpoint store", "partition 1"]
        );
        // The store track lands after the last worker lane (tid 3).
        let save = host_events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("save"))
            .unwrap();
        assert_eq!(save.get("tid").and_then(Value::as_f64), Some(3.0));
        // Partition lanes follow the store lane: partition 1 is tid 5.
        let round = host_events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("round 0"))
            .unwrap();
        assert_eq!(round.get("tid").and_then(Value::as_f64), Some(5.0));
        assert_eq!(round.get("cat").and_then(Value::as_str), Some("host.pdes"));
        assert_eq!(
            round
                .get("args")
                .and_then(|a| a.get("events"))
                .and_then(Value::as_f64),
            Some(42.0)
        );
        // Its lane's name carries the category too, so a `host.*` filter
        // drops it with the spans.
        let lane = host_events
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    == Some("partition 1")
            })
            .unwrap();
        assert_eq!(lane.get("tid").and_then(Value::as_f64), Some(5.0));
        assert_eq!(lane.get("cat").and_then(Value::as_str), Some("host.pdes"));
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

    /// The probes' shim parses the writer's bytes back: serialized
    /// again, it is exactly the plain export.
    #[test]
    fn no_host_capture_is_exactly_the_plain_export() {
        let plain = export(&[bundle()], None, &[]);
        let merged = serde_json::to_string(&chrome_trace_with_host(&[bundle()], None));
        assert_eq!(plain, merged);
    }

    #[test]
    fn no_paths_is_exactly_the_host_export() {
        let report = host_report();
        let host = serde_json::to_string(&chrome_trace_with_host(&[bundle()], Some(&report)));
        let flows =
            serde_json::to_string(&chrome_trace_with_flows(&[bundle()], Some(&report), &[]));
        assert_eq!(host, flows);
        assert_eq!(host, export(&[bundle()], Some(&report), &[]));
    }

    #[test]
    fn critical_path_hops_render_as_well_formed_flow_pairs() {
        use crate::analysis::analyze;
        use crate::tracer::{RecordingTracer, Tracer};
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
            drops: 0,
            retransmit_delay: 0.0,
            multiplex_delay: 0.0,
        });
        t.span(1, SpanKind::Compute, 0.0, 0.1);
        t.span(1, SpanKind::RecvWait, 0.1, 1.2);
        t.span(1, SpanKind::Compute, 1.2, 1.5);
        let b = t.into_bundle("flow demo");
        let path = analyze(&b).critical_path;
        assert!(!path.hops.is_empty());

        let parsed = parsed(&[b], None, std::slice::from_ref(&path));
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
        let parsed = parsed(&[], None, &[]);
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(0)
        );
    }

    /// Each span kind's static prefix is what the field writers write
    /// for its name, category and phase, and none of those needs
    /// escaping.
    #[test]
    fn span_prefixes_are_the_field_writers_bytes() {
        for kind in SpanKind::ALL {
            let cat = match kind.track() {
                Track::Cpu => "cpu",
                Track::Net => "net",
            };
            for text in [kind.name(), cat] {
                let mut quoted = Vec::new();
                write_str(&mut quoted, text).unwrap();
                assert_eq!(
                    quoted,
                    format!("\"{text}\"").into_bytes(),
                    "{text} is escaped"
                );
            }
            let mut ev = Events {
                out: Vec::new(),
                events: 1,
                fields: 0,
            };
            ev.complete(kind.name(), cat, 0.0, 0.0, 0, 0).unwrap();
            let fields = String::from_utf8(ev.out).unwrap();
            let prefix = std::str::from_utf8(span_prefix(kind)).unwrap();
            assert!(fields.starts_with(&format!(",{{{prefix}0,")), "{fields}");
        }
    }

    // The reference the streaming writer must match byte for byte: the
    // same document built as a `Value` tree, one object per event.

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

    fn host_complete(span: &HostSpan, pid: usize, tid: usize) -> Value {
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

    fn partition_complete(span: &PartitionSpan, pid: usize, tid: usize) -> Value {
        let mut e = Value::object();
        e.set("name", Value::String(span.label.clone()));
        e.set("cat", Value::String("host.pdes".into()));
        e.set("ph", Value::String("X".into()));
        e.set("ts", Value::Number(us(span.start)));
        e.set("dur", Value::Number(us(span.duration())));
        e.set("pid", Value::Number(pid as f64));
        e.set("tid", Value::Number(tid as f64));
        let mut args = Value::object();
        args.set(span.count.0, Value::Number(span.count.1 as f64));
        e.set("args", args);
        e
    }

    fn oracle(bundles: &[TraceBundle], host: Option<&HostReport>, paths: &[CriticalPath]) -> Value {
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
            let partition_tid = |p: u32| store_tid + 1 + p as usize;
            for span in &host.partitions {
                events.push(partition_complete(span, pid, partition_tid(span.partition)));
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
            for p in host.partition_lanes() {
                let mut e = meta(
                    "thread_name",
                    pid,
                    partition_tid(p),
                    &format!("partition {p}"),
                );
                e.set("cat", Value::String("host.pdes".into()));
                events.push(e);
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

    /// Labels covering every class of character the string writer
    /// treats apart: quotes, backslashes, named and numeric control
    /// escapes, U+007F and multibyte text.
    const LABELS: [&str; 5] = [
        "demo",
        "quote \" and \\ backslash",
        "tab\tnew\nline\u{01}\u{1F}\u{7F}",
        "é ü 😀 日本",
        "",
    ];

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[(rng.next_u64() % items.len() as u64) as usize]
    }

    /// Seconds whose microseconds are whole, fractional, or large
    /// (past 2^53 µs, where numbers stop rendering as integers).
    fn seconds(rng: &mut TestRng) -> f64 {
        match rng.next_u64() % 3 {
            0 => (rng.next_u64() % 2_000_000) as f64 / 1e6,
            1 => rng.next_f64() * 1e-3,
            _ => 1e9 * (1 + rng.next_u64() % 100) as f64 * pick(rng, &[1.0, 1.5, 0.3]),
        }
    }

    fn arg_value(rng: &mut TestRng) -> Value {
        match rng.next_u64() % 3 {
            0 => Value::Number(seconds(rng)),
            1 => Value::String(pick(rng, &LABELS).into()),
            _ => Value::Bool(rng.next_u64().is_multiple_of(2)),
        }
    }

    /// A subset of a host span's argument keys, each with a number,
    /// string or bool value.
    fn host_args(rng: &mut TestRng) -> Vec<(&'static str, Value)> {
        let mut args = Vec::new();
        for key in ["index", "attempts", "outcome"] {
            if rng.next_u64().is_multiple_of(2) {
                args.push((key, arg_value(rng)));
            }
        }
        args
    }

    /// 1–3 bundles, an optional host capture and critical paths.
    struct TraceCase;

    impl Strategy for TraceCase {
        type Value = (Vec<TraceBundle>, Option<HostReport>, Vec<CriticalPath>);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let bundles: Vec<TraceBundle> = (0..1 + rng.next_u64() % 3)
                .map(|_| {
                    let n_ranks = 1 + (rng.next_u64() % 4) as usize;
                    let spans: Vec<SpanEvent> = (0..rng.next_u64() % 8)
                        .map(|_| {
                            let start = seconds(rng);
                            SpanEvent {
                                rank: (rng.next_u64() % n_ranks as u64) as usize,
                                kind: pick(rng, &SpanKind::ALL),
                                start,
                                end: start + seconds(rng),
                            }
                        })
                        .collect();
                    TraceBundle {
                        label: pick(rng, &LABELS).into(),
                        profile: CommProfile::from_spans(&spans, n_ranks),
                        spans,
                        edges: vec![],
                        rank_nodes: vec![],
                        metrics: Metrics::new(),
                    }
                })
                .collect();
            let host = rng.next_u64().is_multiple_of(2).then(|| HostReport {
                spans: (0..rng.next_u64() % 6)
                    .map(|_| {
                        let start = seconds(rng);
                        HostSpan {
                            track: if rng.next_u64().is_multiple_of(3) {
                                HostTrack::Store
                            } else {
                                HostTrack::Worker((rng.next_u64() % 4) as u32)
                            },
                            label: pick(rng, &LABELS).into(),
                            cat: pick(rng, &["host.job", "host.skip", "host.store"]),
                            start,
                            end: start + seconds(rng),
                            args: host_args(rng),
                        }
                    })
                    .collect(),
                partitions: (0..rng.next_u64() % 5)
                    .map(|_| {
                        let start = seconds(rng);
                        PartitionSpan {
                            partition: (rng.next_u64() % 3) as u32,
                            label: pick(rng, &LABELS).into(),
                            start,
                            end: start + seconds(rng),
                            count: (pick(rng, &["events", "messages"]), rng.next_u64() % 5000),
                        }
                    })
                    .collect(),
                metrics: Metrics::new(),
            });
            let paths = (0..rng.next_u64() % (bundles.len() as u64 + 2))
                .map(|_| CriticalPath {
                    hops: (0..rng.next_u64() % 5)
                        .map(|_| {
                            let src_time = seconds(rng);
                            CausalEdge {
                                kind: EdgeKind::Message,
                                src_rank: (rng.next_u64() % 3) as usize,
                                src_time,
                                dst_rank: (rng.next_u64() % 3) as usize,
                                dst_time: src_time + seconds(rng),
                                bytes: 8,
                                wire_time: 0.0,
                                drops: 0,
                                retransmit_delay: 0.0,
                                multiplex_delay: 0.0,
                            }
                        })
                        .collect(),
                    ..CriticalPath::default()
                })
                .collect();
            (bundles, host, paths)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streamed document is byte for byte the tree the export
        /// used to build, serialized: same events, same order, same
        /// fields in the same order, same numbers and escapes.
        #[test]
        fn streamed_export_matches_the_tree_oracle_byte_for_byte(case in TraceCase) {
            let (bundles, host, paths) = case;
            prop_assert_eq!(
                export(&bundles, host.as_ref(), &paths),
                serde_json::to_string(&oracle(&bundles, host.as_ref(), &paths))
            );
        }
    }
}
