//! Simulated-time performance analysis: turn one recorded simulation
//! into an explanation of where its makespan came from.
//!
//! The engine's tracer hooks capture two things (see
//! [`crate::tracer`]): CPU spans that tile each rank's timeline, and
//! happens-before [`CausalEdge`]s — one per message delivery and one
//! per collective release. Together they form the run's causal event
//! graph: intra-rank program order is span adjacency, and cross-rank
//! dependencies are the edges, whose `dst_time` is bit-exact with the
//! end of the span they produced, so joining needs no tolerance
//! windows.
//!
//! [`analyze`] extracts three views from that graph:
//!
//! * **Critical path** — walk backward from the makespan rank's finish.
//!   Inside a compute or send span the predecessor is the same rank's
//!   previous span; at a recv-wait or collective span whose end matches
//!   an edge, the predecessor is the edge's source event (the sender's
//!   post, the straggler's arrival, the broadcast root's clock), and
//!   the walk hops ranks. Every step attributes exactly the simulated
//!   time it traverses to one of five categories — compute, send,
//!   recv-wait, collective, fault-retransmit (the fault tail of a
//!   delivery) — so the category totals sum to the makespan exactly.
//! * **Load imbalance** — max/mean/p95 per-rank busy time (p95 via
//!   [`Histogram::percentile`]) and the fleet-wide idle fraction.
//! * **Communication matrix** — message/byte/cost totals per directed
//!   rank pair, carrying the node pair so inter-node traffic reads
//!   directly.
//!
//! Everything is a pure function of the [`TraceBundle`], so the output
//! is deterministic however the run was scheduled.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::metrics::Histogram;
use crate::sink::TraceBundle;
use crate::tracer::{CausalEdge, EdgeKind, SpanEvent, SpanKind, Track};

/// Schema tag of the analysis JSON document (`repro --analyze`).
pub const ANALYSIS_SCHEMA: &str = "columbia-analysis-v1";

/// What a stretch of critical-path time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Busy compute.
    Compute,
    /// CPU-side send overhead.
    Send,
    /// Blocked waiting for a message (its fault-free part).
    RecvWait,
    /// Inside a collective, including the wait for the straggler.
    Collective,
    /// The fault tail of a delivery: retransmit backoff plus multiplex
    /// queuing delay.
    FaultRetransmit,
}

impl Category {
    /// Stable lowercase name (report column, JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Send => "send",
            Category::RecvWait => "recv-wait",
            Category::Collective => "collective",
            Category::FaultRetransmit => "fault-retransmit",
        }
    }

    /// All categories, in canonical report order.
    pub const ALL: [Category; 5] = [
        Category::Compute,
        Category::Send,
        Category::RecvWait,
        Category::Collective,
        Category::FaultRetransmit,
    ];
}

/// Seconds of critical-path time per [`Category`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Seconds attributed to [`Category::Compute`].
    pub compute: f64,
    /// Seconds attributed to [`Category::Send`].
    pub send: f64,
    /// Seconds attributed to [`Category::RecvWait`].
    pub recv_wait: f64,
    /// Seconds attributed to [`Category::Collective`].
    pub collective: f64,
    /// Seconds attributed to [`Category::FaultRetransmit`].
    pub fault_retransmit: f64,
}

impl Breakdown {
    /// Add `seconds` to `category`.
    pub fn add(&mut self, category: Category, seconds: f64) {
        *self.slot(category) += seconds;
    }

    /// Seconds attributed to `category`.
    pub fn get(&self, category: Category) -> f64 {
        match category {
            Category::Compute => self.compute,
            Category::Send => self.send,
            Category::RecvWait => self.recv_wait,
            Category::Collective => self.collective,
            Category::FaultRetransmit => self.fault_retransmit,
        }
    }

    fn slot(&mut self, category: Category) -> &mut f64 {
        match category {
            Category::Compute => &mut self.compute,
            Category::Send => &mut self.send,
            Category::RecvWait => &mut self.recv_wait,
            Category::Collective => &mut self.collective,
            Category::FaultRetransmit => &mut self.fault_retransmit,
        }
    }

    /// Sum over all categories.
    pub fn total(&self) -> f64 {
        Category::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// The largest category (first in canonical order on ties).
    pub fn dominant(&self) -> Category {
        let mut best = Category::ALL[0];
        for &c in &Category::ALL[1..] {
            if self.get(c) > self.get(best) {
                best = c;
            }
        }
        best
    }

    fn to_value(self) -> Value {
        let mut v = Value::object();
        for c in Category::ALL {
            v.set(c.name(), Value::Number(self.get(c)));
        }
        v
    }
}

/// One maximal stretch of the critical path on a single rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSegment {
    /// The rank the time was spent on (for a delivery, the waiter).
    pub rank: usize,
    /// Attribution of the stretch.
    pub category: Category,
    /// Start, virtual seconds.
    pub start: f64,
    /// End, virtual seconds (`end >= start`).
    pub end: f64,
}

impl PathSegment {
    /// Segment duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The simulated-time critical path of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Path segments in forward time order, adjacent same-rank
    /// same-category stretches merged.
    pub segments: Vec<PathSegment>,
    /// The causal edges the path traversed, forward order.
    pub hops: Vec<CausalEdge>,
    /// Sum of segment durations — equals `makespan` (exactly, modulo
    /// accumulated rounding of at most a few ULPs per segment).
    pub total: f64,
    /// The run's makespan (finish time of the slowest rank).
    pub makespan: f64,
    /// The rank whose finish defines the makespan (lowest on ties).
    pub end_rank: usize,
    /// Critical-path seconds per category.
    pub breakdown: Breakdown,
    /// Critical-path seconds per category, per rank on the path.
    pub by_rank: BTreeMap<usize, Breakdown>,
    /// Critical-path seconds per category, per node on the path
    /// (empty when the bundle has no recorded placement).
    pub by_node: BTreeMap<u32, Breakdown>,
    /// True if the walk hit its step cap (malformed input); the
    /// attributed `total` then under-covers the makespan.
    pub truncated: bool,
}

/// Per-rank busy-time statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Imbalance {
    /// Ranks in the run.
    pub n_ranks: usize,
    /// Largest per-rank busy time (compute + active comm), seconds.
    pub max_busy: f64,
    /// Mean per-rank busy time, seconds.
    pub mean_busy: f64,
    /// 95th-percentile per-rank busy time (decade-bucket estimate).
    pub p95_busy: f64,
    /// Fraction of the `n_ranks × makespan` area spent not busy
    /// (blocked or finished early).
    pub idle_fraction: f64,
}

impl Imbalance {
    /// `max / mean` busy time — 1.0 is perfectly balanced; 0 when the
    /// run had no busy time at all.
    pub fn ratio(&self) -> f64 {
        if self.mean_busy > 0.0 {
            self.max_busy / self.mean_busy
        } else {
            0.0
        }
    }

    fn to_value(self) -> Value {
        let mut v = Value::object();
        v.set("n_ranks", Value::Number(self.n_ranks as f64));
        v.set("max_busy", Value::Number(self.max_busy));
        v.set("mean_busy", Value::Number(self.mean_busy));
        v.set("p95_busy", Value::Number(self.p95_busy));
        v.set("ratio", Value::Number(self.ratio()));
        v.set("idle_fraction", Value::Number(self.idle_fraction));
        v
    }
}

/// Aggregated traffic of one directed rank pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommPair {
    /// Sending rank.
    pub from_rank: usize,
    /// Receiving rank.
    pub to_rank: usize,
    /// Sender's node (0 when the bundle has no placement).
    pub from_node: u32,
    /// Receiver's node (0 when the bundle has no placement).
    pub to_node: u32,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Total delivery cost, seconds (wire time + fault delays).
    pub cost: f64,
}

/// Everything [`analyze`] derives from one [`TraceBundle`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Analysis {
    /// The critical path and its attribution.
    pub critical_path: CriticalPath,
    /// Per-rank busy-time statistics.
    pub imbalance: Imbalance,
    /// Directed rank-pair traffic, ordered by `(from_rank, to_rank)`.
    pub comm_matrix: Vec<CommPair>,
}

impl Analysis {
    /// The heaviest communicating pair (by bytes, then cost, then
    /// pair order), if any traffic was recorded.
    pub fn heaviest_pair(&self) -> Option<&CommPair> {
        self.comm_matrix.iter().max_by(|a, b| {
            a.bytes.cmp(&b.bytes).then(
                a.cost
                    .partial_cmp(&b.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then((b.from_rank, b.to_rank).cmp(&(a.from_rank, a.to_rank))),
            )
        })
    }

    /// Render as ordered JSON (one sim's entry of the
    /// [`ANALYSIS_SCHEMA`] document).
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        let cp = &self.critical_path;
        v.set("makespan", Value::Number(cp.makespan));
        let mut c = Value::object();
        c.set("total", Value::Number(cp.total));
        c.set("end_rank", Value::Number(cp.end_rank as f64));
        c.set("truncated", Value::Bool(cp.truncated));
        c.set("breakdown", cp.breakdown.to_value());
        let by_rank = cp
            .by_rank
            .iter()
            .map(|(r, b)| {
                let mut e = Value::object();
                e.set("rank", Value::Number(*r as f64));
                e.set("breakdown", b.to_value());
                e
            })
            .collect();
        c.set("by_rank", Value::Array(by_rank));
        let by_node = cp
            .by_node
            .iter()
            .map(|(n, b)| {
                let mut e = Value::object();
                e.set("node", Value::Number(*n as f64));
                e.set("breakdown", b.to_value());
                e
            })
            .collect();
        c.set("by_node", Value::Array(by_node));
        let segments = cp
            .segments
            .iter()
            .map(|s| {
                let mut e = Value::object();
                e.set("rank", Value::Number(s.rank as f64));
                e.set("category", Value::String(s.category.name().into()));
                e.set("start", Value::Number(s.start));
                e.set("end", Value::Number(s.end));
                e
            })
            .collect();
        c.set("segments", Value::Array(segments));
        let hops = cp
            .hops
            .iter()
            .map(|h| {
                let mut e = Value::object();
                e.set("kind", Value::String(h.kind.name().into()));
                e.set("src_rank", Value::Number(h.src_rank as f64));
                e.set("src_time", Value::Number(h.src_time));
                e.set("dst_rank", Value::Number(h.dst_rank as f64));
                e.set("dst_time", Value::Number(h.dst_time));
                e
            })
            .collect();
        c.set("hops", Value::Array(hops));
        v.set("critical_path", c);
        v.set("imbalance", self.imbalance.to_value());
        let matrix = self
            .comm_matrix
            .iter()
            .map(|p| {
                let mut e = Value::object();
                e.set("from_rank", Value::Number(p.from_rank as f64));
                e.set("to_rank", Value::Number(p.to_rank as f64));
                e.set("from_node", Value::Number(p.from_node as f64));
                e.set("to_node", Value::Number(p.to_node as f64));
                e.set("messages", Value::Number(p.messages as f64));
                e.set("bytes", Value::Number(p.bytes as f64));
                e.set("cost", Value::Number(p.cost));
                e
            })
            .collect();
        v.set("comm_matrix", Value::Array(matrix));
        v
    }
}

/// Analyze one recorded simulation: critical path, imbalance, and the
/// communication matrix. Pure and deterministic — same bundle, same
/// answer, regardless of how the run was scheduled.
pub fn analyze(bundle: &TraceBundle) -> Analysis {
    Analysis {
        critical_path: critical_path(bundle),
        imbalance: imbalance(bundle),
        comm_matrix: comm_matrix(bundle),
    }
}

/// Number of ranks a bundle describes (profile size, topology size, or
/// max span/edge rank + 1 — whichever is largest, so hand-built test
/// bundles work too).
fn rank_count(bundle: &TraceBundle) -> usize {
    let mut n = bundle.profile.ranks.len().max(bundle.rank_nodes.len());
    for s in &bundle.spans {
        n = n.max(s.rank + 1);
    }
    for e in &bundle.edges {
        n = n.max(e.src_rank.max(e.dst_rank) + 1);
    }
    n
}

fn imbalance(bundle: &TraceBundle) -> Imbalance {
    let ranks = &bundle.profile.ranks;
    let makespan = bundle.profile.makespan;
    if ranks.is_empty() {
        return Imbalance::default();
    }
    let mut hist = Histogram::default();
    let mut max_busy = 0.0f64;
    let mut sum_busy = 0.0f64;
    for r in ranks {
        let busy = r.compute + r.comm;
        hist.record(busy);
        max_busy = max_busy.max(busy);
        sum_busy += busy;
    }
    let n = ranks.len();
    let area = n as f64 * makespan;
    Imbalance {
        n_ranks: n,
        max_busy,
        mean_busy: sum_busy / n as f64,
        p95_busy: hist.percentile(95.0),
        idle_fraction: if area > 0.0 {
            (1.0 - sum_busy / area).max(0.0)
        } else {
            0.0
        },
    }
}

fn comm_matrix(bundle: &TraceBundle) -> Vec<CommPair> {
    let node_of = |rank: usize| bundle.rank_nodes.get(rank).copied().unwrap_or(0);
    let mut pairs: BTreeMap<(usize, usize), CommPair> = BTreeMap::new();
    for e in &bundle.edges {
        if e.kind != EdgeKind::Message {
            continue;
        }
        let entry = pairs
            .entry((e.src_rank, e.dst_rank))
            .or_insert_with(|| CommPair {
                from_rank: e.src_rank,
                to_rank: e.dst_rank,
                from_node: node_of(e.src_rank),
                to_node: node_of(e.dst_rank),
                messages: 0,
                bytes: 0,
                cost: 0.0,
            });
        entry.messages += 1;
        entry.bytes += e.bytes;
        entry.cost += e.wire_time + e.fault_delay();
    }
    pairs.into_values().collect()
}

fn critical_path(bundle: &TraceBundle) -> CriticalPath {
    let n = rank_count(bundle);
    // Per-rank CPU spans, in (already monotone) emission order.
    let mut rank_spans: Vec<Vec<&SpanEvent>> = vec![Vec::new(); n];
    for s in &bundle.spans {
        if s.kind.track() == Track::Cpu {
            rank_spans[s.rank].push(s);
        }
    }
    // Arrival-keyed edge join: `(dst_rank, dst_time bits)` — the same
    // computed f64 as the matching span's end, so the key is exact.
    // Candidates queue in emission order and are consumed on use, so
    // coincident arrivals resolve deterministically and every hop makes
    // progress.
    let mut by_arrival: BTreeMap<(usize, u64), Vec<&CausalEdge>> = BTreeMap::new();
    for e in bundle.edges.iter().rev() {
        by_arrival
            .entry((e.dst_rank, e.dst_time.to_bits()))
            .or_default()
            .push(e); // reversed insert + pop() = consume in emission order
    }

    let totals: Vec<f64> = rank_spans
        .iter()
        .map(|spans| spans.last().map_or(0.0, |s| s.end))
        .collect();
    let makespan = totals.iter().fold(0.0f64, |a, &b| a.max(b));
    let mut end_rank = 0usize;
    for (r, &total) in totals.iter().enumerate() {
        if total > totals[end_rank] {
            end_rank = r;
        }
    }

    let mut cp = CriticalPath {
        makespan,
        end_rank,
        ..CriticalPath::default()
    };
    if n == 0 || makespan <= 0.0 {
        return cp;
    }

    // Backward walk. Segments accumulate newest-first and are merged
    // with their predecessor when contiguous on the same rank and
    // category; everything is reversed at the end.
    let mut segments: Vec<PathSegment> = Vec::new();
    let mut hops: Vec<CausalEdge> = Vec::new();
    let push = |segments: &mut Vec<PathSegment>,
                cp: &mut CriticalPath,
                rank: usize,
                category: Category,
                start: f64,
                end: f64| {
        if end <= start {
            return;
        }
        let d = end - start;
        cp.total += d;
        cp.breakdown.add(category, d);
        cp.by_rank.entry(rank).or_default().add(category, d);
        if let Some(&node) = bundle.rank_nodes.get(rank) {
            cp.by_node.entry(node).or_default().add(category, d);
        }
        if let Some(last) = segments.last_mut() {
            if last.rank == rank && last.category == category && last.start == end {
                last.start = start;
                return;
            }
        }
        segments.push(PathSegment {
            rank,
            category,
            start,
            end,
        });
    };
    // Consume the oldest pending edge arriving at exactly (rank, t).
    let mut take_edge = |kind: EdgeKind, rank: usize, t: f64| -> Option<CausalEdge> {
        let candidates = by_arrival.get_mut(&(rank, t.to_bits()))?;
        let idx = candidates.iter().rposition(|e| e.kind == kind)?;
        Some(*candidates.remove(idx))
    };

    let mut rank = end_rank;
    let mut t = makespan;
    // Each loop iteration either consumes an edge (finitely many) or
    // retreats within a rank's finite span list; the cap is a backstop
    // against malformed hand-built input, not a real bound.
    let cap = 4 * (bundle.spans.len() + bundle.edges.len()) + 16;
    let mut steps = 0usize;
    while t > 0.0 {
        steps += 1;
        if steps > cap {
            cp.truncated = true;
            break;
        }
        let spans = &rank_spans[rank];
        // The span with start < t <= end. Spans tile each rank's
        // timeline, so this is the unique span covering t.
        let idx = spans.partition_point(|s| s.start < t);
        if idx == 0 {
            break; // before this rank's first activity: origin reached
        }
        let s = spans[idx - 1];
        if s.end < t {
            // A gap (hand-built bundles only): skip the hole silently.
            t = s.end;
            continue;
        }
        match s.kind {
            SpanKind::Compute => {
                push(&mut segments, &mut cp, rank, Category::Compute, s.start, t);
                t = s.start;
            }
            SpanKind::Send => {
                push(&mut segments, &mut cp, rank, Category::Send, s.start, t);
                t = s.start;
            }
            SpanKind::RecvWait => {
                match take_edge(EdgeKind::Message, rank, t).filter(|e| e.src_time < t) {
                    Some(e) => {
                        // The delivery's fault delay sits at its tail;
                        // the rest of the hop is genuine message wait.
                        let fault = e.fault_delay().clamp(0.0, t - e.src_time);
                        push(
                            &mut segments,
                            &mut cp,
                            rank,
                            Category::FaultRetransmit,
                            t - fault,
                            t,
                        );
                        push(
                            &mut segments,
                            &mut cp,
                            rank,
                            Category::RecvWait,
                            e.src_time,
                            t - fault,
                        );
                        hops.push(e);
                        rank = e.src_rank;
                        t = e.src_time;
                    }
                    None => {
                        push(&mut segments, &mut cp, rank, Category::RecvWait, s.start, t);
                        t = s.start;
                    }
                }
            }
            SpanKind::Collective => {
                match take_edge(EdgeKind::Collective, rank, t).filter(|e| e.src_time < t) {
                    Some(e) => {
                        push(
                            &mut segments,
                            &mut cp,
                            rank,
                            Category::Collective,
                            e.src_time,
                            t,
                        );
                        hops.push(e);
                        rank = e.src_rank;
                        t = e.src_time;
                    }
                    None => {
                        push(
                            &mut segments,
                            &mut cp,
                            rank,
                            Category::Collective,
                            s.start,
                            t,
                        );
                        t = s.start;
                    }
                }
            }
            // rank_spans holds CPU-track spans only.
            SpanKind::RetransmitBackoff | SpanKind::MultiplexQueue => unreachable!(),
        }
    }
    segments.reverse();
    hops.reverse();
    cp.segments = segments;
    cp.hops = hops;
    cp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CommProfile;
    use crate::tracer::RecordingTracer;
    use crate::tracer::Tracer;

    fn bundle_from(tracer: RecordingTracer) -> TraceBundle {
        tracer.into_bundle("test")
    }

    /// Two ranks: rank 0 computes 1 s then posts a message that arrives
    /// at 1.2 s (0.05 s of that is fault delay); rank 1 computes 0.1 s
    /// and waits for it, then computes 0.3 s more.
    fn two_rank_tracer() -> RecordingTracer {
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
            wire_time: 0.15,
            drops: 1,
            retransmit_delay: 0.05,
            multiplex_delay: 0.0,
        });
        t.span(1, SpanKind::Compute, 0.0, 0.1);
        t.span(1, SpanKind::RecvWait, 0.1, 1.2);
        t.span(1, SpanKind::Compute, 1.2, 1.5);
        t
    }

    #[test]
    fn critical_path_crosses_the_message_and_totals_the_makespan() {
        let a = analyze(&bundle_from(two_rank_tracer()));
        let cp = &a.critical_path;
        assert_eq!(cp.end_rank, 1);
        assert!((cp.makespan - 1.5).abs() < 1e-12);
        assert!(
            (cp.total - cp.makespan).abs() < 1e-9,
            "attributed {} vs makespan {}",
            cp.total,
            cp.makespan
        );
        assert!(!cp.truncated);
        // Path: rank0 compute [0,1] → hop → rank1 recv-wait [1,1.15],
        // fault [1.15,1.2], compute [1.2,1.5].
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].src_rank, 0);
        assert!((cp.breakdown.compute - 1.3).abs() < 1e-12);
        assert!((cp.breakdown.recv_wait - 0.15).abs() < 1e-12);
        assert!((cp.breakdown.fault_retransmit - 0.05).abs() < 1e-12);
        assert_eq!(cp.breakdown.send, 0.0, "send overhead is off the path");
        // Segments are forward-ordered and contiguous per hop group.
        assert_eq!(cp.segments[0].rank, 0);
        assert_eq!(cp.segments[0].category, Category::Compute);
        for w in cp.segments.windows(2) {
            assert!(w[0].end <= w[1].start + 1e-12);
        }
        // Node attribution follows the recorded topology.
        assert!((cp.by_node[&0].compute - 1.0).abs() < 1e-12);
        assert!((cp.by_node[&1].compute - 0.3).abs() < 1e-12);
        assert_eq!(cp.breakdown.dominant(), Category::Compute);
    }

    #[test]
    fn comm_matrix_and_imbalance_summarize_the_run() {
        let a = analyze(&bundle_from(two_rank_tracer()));
        assert_eq!(a.comm_matrix.len(), 1);
        let p = &a.comm_matrix[0];
        assert_eq!((p.from_rank, p.to_rank), (0, 1));
        assert_eq!((p.from_node, p.to_node), (0, 1));
        assert_eq!(p.messages, 1);
        assert_eq!(p.bytes, 4096);
        assert!((p.cost - 0.2).abs() < 1e-12);
        assert_eq!(a.heaviest_pair().unwrap().bytes, 4096);
        let imb = &a.imbalance;
        assert_eq!(imb.n_ranks, 2);
        // Rank 0 busy 1.01 s, rank 1 busy 0.4 s.
        assert!((imb.max_busy - 1.01).abs() < 1e-12);
        assert!((imb.mean_busy - 0.705).abs() < 1e-12);
        assert!(imb.ratio() > 1.0);
        assert!(imb.idle_fraction > 0.0 && imb.idle_fraction < 1.0);
    }

    #[test]
    fn collective_hop_routes_through_the_straggler() {
        let mut t = RecordingTracer::new();
        t.topology(&[0, 0]);
        // Rank 1 is the straggler: computes 2 s, then the barrier costs
        // 0.5 s; rank 0 arrives at 0.3 s and waits.
        t.span(0, SpanKind::Compute, 0.0, 0.3);
        t.span(1, SpanKind::Compute, 0.0, 2.0);
        t.span(0, SpanKind::Collective, 0.3, 2.5);
        t.span(1, SpanKind::Collective, 2.0, 2.5);
        for dst in 0..2usize {
            t.edge(&CausalEdge {
                kind: EdgeKind::Collective,
                src_rank: 1,
                src_time: 2.0,
                dst_rank: dst,
                dst_time: 2.5,
                bytes: 0,
                wire_time: 0.5,
                drops: 0,
                retransmit_delay: 0.0,
                multiplex_delay: 0.0,
            });
        }
        let a = analyze(&bundle_from(t));
        let cp = &a.critical_path;
        assert!((cp.total - cp.makespan).abs() < 1e-9);
        // The path is rank 1's compute plus the collective cost — rank
        // 0's wait for the straggler is not on it.
        assert!((cp.breakdown.compute - 2.0).abs() < 1e-12);
        assert!((cp.breakdown.collective - 0.5).abs() < 1e-12);
        assert!(
            cp.by_rank.keys().all(|&r| r == 1) || cp.by_rank.len() <= 2,
            "path stays on the straggler"
        );
        assert!((cp.by_rank[&1].compute - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bundle_yields_an_empty_analysis() {
        let a = analyze(&TraceBundle::default());
        assert_eq!(a.critical_path.total, 0.0);
        assert!(a.critical_path.segments.is_empty());
        assert!(a.comm_matrix.is_empty());
        assert_eq!(a.imbalance.n_ranks, 0);
        // And the JSON rendering still parses.
        let parsed = serde_json::from_str(&serde_json::to_string(&a.to_value())).expect("parses");
        assert_eq!(
            parsed
                .get("critical_path")
                .and_then(|c| c.get("total"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn metrics_only_bundle_is_harmless() {
        let b = TraceBundle {
            label: "no spans".into(),
            profile: CommProfile::from_spans(&[], 0),
            ..TraceBundle::default()
        };
        let a = analyze(&b);
        assert_eq!(a.critical_path.makespan, 0.0);
        assert!(!a.critical_path.truncated);
    }

    #[test]
    fn json_export_carries_schema_fields() {
        let a = analyze(&bundle_from(two_rank_tracer()));
        let text = serde_json::to_string_pretty(&a.to_value());
        let doc = serde_json::from_str(&text).expect("parses");
        let cp = doc.get("critical_path").expect("critical_path");
        assert!(cp.get("segments").and_then(Value::as_array).is_some());
        assert!(!cp
            .get("segments")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
        assert_eq!(
            cp.get("breakdown")
                .and_then(|b| b.get("compute"))
                .and_then(Value::as_f64)
                .map(|v| (v - 1.3).abs() < 1e-9),
            Some(true)
        );
        assert!(doc.get("imbalance").is_some());
        assert_eq!(
            doc.get("comm_matrix")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(1)
        );
    }
}
