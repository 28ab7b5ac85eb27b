//! The [`Tracer`] trait and its two implementations.
//!
//! The discrete-event engine is generic over a `Tracer`; every clock
//! advance of every rank is reported as a [`SpanEvent`]. The
//! [`NullTracer`] makes all hooks empty inlined functions, so the
//! traced engine monomorphizes to exactly the untraced one. The
//! [`RecordingTracer`] keeps each event in a list of its owner rank
//! and decides the canonical order a [`TraceBundle`] is laid out and
//! folded in.

use crate::metrics::Metrics;
use crate::profile::CommProfile;
use crate::sink::TraceBundle;

/// What a span of virtual time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Busy compute (an `Op::Compute`).
    Compute,
    /// CPU-side send overhead (library call + injection, including
    /// re-injections for retransmitted messages).
    Send,
    /// Blocked in a receive waiting for the matching message.
    RecvWait,
    /// Inside a collective (barrier / allreduce / alltoall / bcast),
    /// including the wait for the slowest rank.
    Collective,
    /// Network-side: a dropped message waiting out its
    /// exponential-backoff retransmission timer.
    RetransmitBackoff,
    /// Network-side: queuing delay from connection-table multiplexing
    /// (§2 InfiniBand connection limit).
    MultiplexQueue,
}

/// Which per-rank track a span belongs to.
///
/// [`Track::Cpu`] spans tile each rank's timeline exactly: they are
/// contiguous, monotone, and their durations sum to the rank's final
/// clock (property-tested). [`Track::Net`] spans describe in-flight
/// message delays and may overlap CPU activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// The rank's own timeline.
    Cpu,
    /// Network-side delays attributed to the rank's messages.
    Net,
}

impl SpanKind {
    /// Stable lowercase name (trace event name, metrics key).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Send => "send",
            SpanKind::RecvWait => "recv-wait",
            SpanKind::Collective => "collective",
            SpanKind::RetransmitBackoff => "retransmit-backoff",
            SpanKind::MultiplexQueue => "multiplex-queue",
        }
    }

    /// The track this kind of span lives on.
    pub fn track(self) -> Track {
        match self {
            SpanKind::Compute | SpanKind::Send | SpanKind::RecvWait | SpanKind::Collective => {
                Track::Cpu
            }
            SpanKind::RetransmitBackoff | SpanKind::MultiplexQueue => Track::Net,
        }
    }

    /// All kinds, for iteration.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Compute,
        SpanKind::Send,
        SpanKind::RecvWait,
        SpanKind::Collective,
        SpanKind::RetransmitBackoff,
        SpanKind::MultiplexQueue,
    ];
}

/// One span of virtual time on one rank's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// The rank the span belongs to.
    pub rank: usize,
    /// What the time was spent on.
    pub kind: SpanKind,
    /// Start, in virtual seconds since simulation start.
    pub start: f64,
    /// End, in virtual seconds (`end >= start`).
    pub end: f64,
}

impl SpanEvent {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// What kind of happens-before dependency a [`CausalEdge`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A point-to-point delivery: the receiver's clock cannot pass
    /// `dst_time` until the sender posted at `src_time`.
    Message,
    /// A collective release: every participant leaves together, gated
    /// by the straggler (or the root, for a broadcast) at `src_time`.
    Collective,
}

impl EdgeKind {
    /// Stable lowercase name (JSON export).
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Message => "message",
            EdgeKind::Collective => "collective",
        }
    }
}

/// One happens-before edge of the causal event graph. A message edge
/// is the engine's one record of a point-to-point message: the metrics
/// a bundle carries for messages are folded from these edges.
///
/// `dst_time` is bit-exact with the end of the CPU span the dependency
/// produced on the destination rank (both are the same computed `f64`),
/// so an analyzer can join edges to spans by `(dst_rank,
/// dst_time.to_bits())` without tolerance windows. Intra-rank program
/// order needs no edges — the CPU spans tile each rank's timeline, so
/// adjacency *is* the program-order edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CausalEdge {
    /// The dependency's kind.
    pub kind: EdgeKind,
    /// Rank the dependency originates on (sender / straggler / root).
    pub src_rank: usize,
    /// Source-side event time: message post, or collective start.
    pub src_time: f64,
    /// Rank whose progress the dependency gates.
    pub dst_rank: usize,
    /// Destination-side event time: message arrival, or collective
    /// finish on `dst_rank`.
    pub dst_time: f64,
    /// Payload bytes (per-pair bytes for collectives).
    pub bytes: u64,
    /// Fault-free wire/operation cost inside `dst_time - src_time`.
    pub wire_time: f64,
    /// Times a message was dropped before getting through (0 for a
    /// collective).
    pub drops: u32,
    /// Retransmission-backoff delay inside `dst_time - src_time`,
    /// right after the wire time.
    pub retransmit_delay: f64,
    /// Connection-multiplexing queue delay inside `dst_time -
    /// src_time`, at its tail.
    pub multiplex_delay: f64,
}

impl CausalEdge {
    /// The fault-injected delay inside `dst_time - src_time`
    /// (retransmit backoff, then multiplex queuing), always at its tail.
    pub fn fault_delay(&self) -> f64 {
        self.retransmit_delay + self.multiplex_delay
    }
}

/// Instrumentation hooks the simulation engine calls.
///
/// The event hooks default to no-ops and [`Tracer::enabled`] to `true`;
/// implementations override what they need. Callers may guard
/// expensive argument construction with [`Tracer::enabled`], which
/// constant-folds for the [`NullTracer`]. The engine runs its ranks in
/// partitions, each recording into a [`Tracer::partition`] recorder of
/// the caller's type, and hands every rank's events to the caller's
/// recorder with [`Tracer::take_rank`] when the run stops; partitions
/// may run on helper threads, hence `Send`.
pub trait Tracer: Send {
    /// Whether this tracer records anything at all.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// One span of virtual time on `rank`'s timeline.
    #[inline]
    fn span(&mut self, rank: usize, kind: SpanKind, start: f64, end: f64) {
        let _ = (rank, kind, start, end);
    }

    /// A scalar observation (e.g. connection-table occupancy).
    #[inline]
    fn gauge(&mut self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// One happens-before edge of the causal event graph.
    #[inline]
    fn edge(&mut self, edge: &CausalEdge) {
        let _ = edge;
    }

    /// The run's placement: `rank_nodes[r]` is rank `r`'s node. Called
    /// once, before any span or edge.
    #[inline]
    fn topology(&mut self, rank_nodes: &[u32]) {
        let _ = rank_nodes;
    }

    /// An empty recorder of this type for one partition of a run.
    fn partition(&self) -> Self;

    /// Move every event `part` recorded for `rank` to the end of this
    /// recorder's events for `rank`.
    fn take_rank(&mut self, part: &mut Self, rank: usize);
}

/// The disabled tracer: every hook is an empty inlined function, so a
/// simulation over it compiles to exactly the untraced engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span(&mut self, _: usize, _: SpanKind, _: f64, _: f64) {}

    #[inline(always)]
    fn gauge(&mut self, _: &'static str, _: f64) {}

    #[inline(always)]
    fn edge(&mut self, _: &CausalEdge) {}

    #[inline(always)]
    fn topology(&mut self, _: &[u32]) {}

    #[inline(always)]
    fn partition(&self) -> Self {
        NullTracer
    }

    #[inline(always)]
    fn take_rank(&mut self, _: &mut Self, _: usize) {}
}

/// Captures the full event stream of a simulation, in canonical order.
///
/// The engine's outcomes do not depend on scheduling, but the order in
/// which it reports events does: its worklist interleaves ranks as they
/// become runnable, and that changes with the partition map. So each
/// event is kept in a list of its *owner* rank, in the order it
/// arrives: a span belongs to its rank, a message edge to the sender,
/// and a collective edge to the receiver. Every
/// partition reports each rank's events in that rank's program order,
/// so the lists do not depend on the partition map, and
/// [`RecordingTracer::into_bundle`] lays them out rank by rank and
/// folds them into [`Metrics`] and a [`CommProfile`] in that order —
/// the *canonical* order, which is why every trace byte is the same at
/// any thread count. Topology and gauges arrive directly, before any
/// event. A recorder holds one simulation: a second run's events would
/// join the first's rank by rank.
#[derive(Debug, Clone, Default)]
pub struct RecordingTracer {
    /// Each rank's events, indexed by owner rank.
    ranks: Vec<RankEvents>,
    rank_nodes: Vec<u32>,
    /// The gauges; the event metrics are folded by `into_bundle`.
    metrics: Metrics,
}

/// The events one rank owns, each list in arrival order.
#[derive(Debug, Clone, Default)]
struct RankEvents {
    spans: Vec<SpanEvent>,
    edges: Vec<CausalEdge>,
}

/// Move `from`'s items to the end of `to`, without a copy when `to` is
/// empty, as it is for every rank the engine hands over.
fn move_onto<E>(to: &mut Vec<E>, from: &mut Vec<E>) {
    if to.is_empty() {
        std::mem::swap(to, from);
    } else {
        to.append(from);
    }
}

impl RecordingTracer {
    /// Fresh, empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lists of `owner`, growing the table so that it also covers
    /// `other`, the event's other rank: a bundle covers every rank an
    /// event names.
    fn lists(&mut self, owner: usize, other: usize) -> &mut RankEvents {
        let covered = owner.max(other) + 1;
        if self.ranks.len() < covered {
            self.ranks.resize_with(covered, RankEvents::default);
        }
        &mut self.ranks[owner]
    }

    /// Package the recording as a [`TraceBundle`] in canonical order:
    /// the spans and edges of rank 0, then of rank 1, and so on, with
    /// the metrics folded in that order too. A message's link is the
    /// pair of its ranks' nodes in the recorded topology; a message
    /// between ranks the topology does not place adds no link bytes.
    pub fn into_bundle(self, label: impl Into<String>) -> TraceBundle {
        let n_ranks = self.ranks.len().max(self.rank_nodes.len());
        let mut metrics = self.metrics;
        let mut spans = Vec::with_capacity(self.ranks.iter().map(|r| r.spans.len()).sum());
        let mut edges = Vec::with_capacity(self.ranks.iter().map(|r| r.edges.len()).sum());
        let nodes = &self.rank_nodes;
        for rank in self.ranks {
            for s in &rank.spans {
                match s.kind {
                    SpanKind::RecvWait => metrics.observe("recv_wait_seconds", s.duration()),
                    SpanKind::Collective => metrics.observe("collective_seconds", s.duration()),
                    _ => {}
                }
            }
            for msg in rank.edges.iter().filter(|e| e.kind == EdgeKind::Message) {
                metrics.inc("messages_sent", 1);
                metrics.inc("bytes_sent", msg.bytes);
                if msg.drops > 0 {
                    metrics.inc("messages_dropped", 1);
                    metrics.inc("retransmits", msg.drops as u64);
                }
                if msg.multiplex_delay > 0.0 {
                    metrics.inc("messages_multiplexed", 1);
                }
                let link = (nodes.get(msg.src_rank), nodes.get(msg.dst_rank));
                if let (Some(&from), Some(&to)) = link {
                    metrics.link_bytes(from, to, msg.bytes);
                }
                let latency = msg.wire_time + msg.retransmit_delay + msg.multiplex_delay;
                metrics.observe("message_latency_seconds", latency);
            }
            spans.extend(rank.spans);
            edges.extend(rank.edges);
        }
        let profile = CommProfile::from_spans(&spans, n_ranks);
        TraceBundle {
            label: label.into(),
            spans,
            edges,
            rank_nodes: self.rank_nodes,
            metrics,
            profile,
        }
    }
}

impl Tracer for RecordingTracer {
    fn span(&mut self, rank: usize, kind: SpanKind, start: f64, end: f64) {
        self.lists(rank, rank).spans.push(SpanEvent {
            rank,
            kind,
            start,
            end,
        });
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.metrics.gauge(name, value);
    }

    fn edge(&mut self, edge: &CausalEdge) {
        let (owner, other) = match edge.kind {
            EdgeKind::Message => (edge.src_rank, edge.dst_rank),
            EdgeKind::Collective => (edge.dst_rank, edge.src_rank),
        };
        self.lists(owner, other).edges.push(*edge);
    }

    fn topology(&mut self, rank_nodes: &[u32]) {
        self.rank_nodes = rank_nodes.to_vec();
    }

    fn partition(&self) -> Self {
        RecordingTracer::new()
    }

    fn take_rank(&mut self, part: &mut Self, rank: usize) {
        let Some(from) = part.ranks.get_mut(rank) else {
            return;
        };
        let to = self.lists(rank, rank);
        move_onto(&mut to.spans, &mut from.spans);
        move_onto(&mut to.edges, &mut from.edges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(kind: EdgeKind, src: usize, dst: usize) -> CausalEdge {
        CausalEdge {
            kind,
            src_rank: src,
            src_time: 0.0,
            dst_rank: dst,
            dst_time: 1e-6,
            bytes: 8,
            wire_time: 1e-6,
            drops: 0,
            retransmit_delay: 0.0,
            multiplex_delay: 0.0,
        }
    }

    #[test]
    fn null_tracer_is_disabled() {
        assert!(!NullTracer.enabled());
    }

    #[test]
    fn recording_tracer_captures_spans_and_counts() {
        let mut t = RecordingTracer::new();
        t.topology(&[0, 1]);
        t.span(0, SpanKind::Compute, 0.0, 1.0);
        t.span(1, SpanKind::RecvWait, 0.0, 0.5);
        let dropped = CausalEdge {
            bytes: 4096,
            wire_time: 1e-5,
            drops: 2,
            retransmit_delay: 3e-4,
            multiplex_delay: 2e-6,
            ..edge(EdgeKind::Message, 0, 1)
        };
        t.edge(&dropped);
        // A collective edge is no message.
        t.edge(&edge(EdgeKind::Collective, 1, 0));
        let b = t.into_bundle("demo");
        assert_eq!(b.spans.len(), 2);
        assert_eq!(b.profile.ranks.len(), 2);
        assert_eq!(b.metrics.counter("messages_sent"), 1);
        assert_eq!(b.metrics.counter("messages_dropped"), 1);
        assert_eq!(b.metrics.counter("retransmits"), 2);
        assert_eq!(b.metrics.counter("messages_multiplexed"), 1);
        assert_eq!(b.metrics.counter("bytes_sent"), 4096);
        assert_eq!(b.metrics.links_by_bytes(), vec![((0, 1), 4096)]);
        let latency = b.metrics.histogram("message_latency_seconds").unwrap();
        assert_eq!(latency.sum(), 1e-5 + 3e-4 + 2e-6);
        assert_eq!(dropped.fault_delay(), 3e-4 + 2e-6);
        assert_eq!(b.metrics.histogram("recv_wait_seconds").unwrap().count(), 1);
    }

    #[test]
    fn recording_tracer_captures_edges_and_topology() {
        let mut t = RecordingTracer::new();
        t.topology(&[0, 0, 1]);
        t.edge(&CausalEdge {
            kind: EdgeKind::Message,
            src_rank: 0,
            src_time: 0.0,
            dst_rank: 2,
            dst_time: 1.5e-5,
            bytes: 4096,
            wire_time: 1.5e-5,
            drops: 0,
            retransmit_delay: 0.0,
            multiplex_delay: 0.0,
        });
        let bundle = t.into_bundle("demo");
        assert_eq!(bundle.edges.len(), 1);
        assert_eq!(bundle.rank_nodes, vec![0, 0, 1]);
        assert_eq!(bundle.profile.ranks.len(), 3);
        assert_eq!(bundle.edges[0].kind.name(), "message");
        assert_eq!(EdgeKind::Collective.name(), "collective");
    }

    #[test]
    fn a_bundle_covers_every_rank_an_event_names() {
        // No topology: the receiver of rank 0's message is the highest
        // rank named.
        let mut t = RecordingTracer::new();
        t.span(0, SpanKind::Send, 0.0, 1e-6);
        t.edge(&edge(EdgeKind::Message, 0, 3));
        assert_eq!(t.into_bundle("demo").profile.ranks.len(), 4);
    }

    /// Scrambled events, the way one partition's worklist reports them:
    /// ranks interleaved, each rank's own events in program order.
    fn hook_scrambled<T: Tracer>(t: &mut T) {
        t.span(2, SpanKind::Compute, 0.0, 1.0);
        t.span(0, SpanKind::Compute, 0.0, 2.0);
        t.edge(&edge(EdgeKind::Message, 1, 0)); // owner: src rank 1
        t.edge(&edge(EdgeKind::Collective, 2, 0)); // owner: dst rank 0
        t.span(0, SpanKind::Send, 2.0, 2.1);
        t.span(2, SpanKind::RecvWait, 1.0, 1.5);
    }

    #[test]
    fn events_come_out_rank_major_in_each_ranks_order() {
        let mut t = RecordingTracer::new();
        t.topology(&[0, 0, 1]);
        hook_scrambled(&mut t);
        let b = t.into_bundle("demo");
        assert_eq!(b.rank_nodes, vec![0, 0, 1]);
        // Rank 0's two spans in hook order, then rank 2's.
        let got: Vec<(usize, SpanKind)> = b.spans.iter().map(|s| (s.rank, s.kind)).collect();
        assert_eq!(
            got,
            vec![
                (0, SpanKind::Compute),
                (0, SpanKind::Send),
                (2, SpanKind::Compute),
                (2, SpanKind::RecvWait),
            ]
        );
        // Rank 0 owns the collective edge, rank 1 the message edge.
        assert_eq!(b.edges[0].kind, EdgeKind::Collective);
        assert_eq!(b.edges[1].kind, EdgeKind::Message);
        assert_eq!(b.metrics.counter("messages_sent"), 1);
    }

    #[test]
    fn partition_recorders_handed_over_give_the_same_bundle() {
        let mut whole = RecordingTracer::new();
        whole.topology(&[0, 0, 1]);
        hook_scrambled(&mut whole);

        // The same events split by owner over two partitions: ranks 0
        // and 1 in one, rank 2 in the other.
        let mut merged = RecordingTracer::new();
        merged.topology(&[0, 0, 1]);
        let (mut a, mut b) = (merged.partition(), merged.partition());
        a.span(0, SpanKind::Compute, 0.0, 2.0);
        b.span(2, SpanKind::Compute, 0.0, 1.0);
        a.edge(&edge(EdgeKind::Message, 1, 0));
        b.span(2, SpanKind::RecvWait, 1.0, 1.5);
        a.edge(&edge(EdgeKind::Collective, 2, 0));
        a.span(0, SpanKind::Send, 2.0, 2.1);
        merged.take_rank(&mut a, 0);
        merged.take_rank(&mut a, 1);
        merged.take_rank(&mut b, 2);
        assert_eq!(merged.into_bundle("demo"), whole.into_bundle("demo"));
    }

    #[test]
    fn span_kinds_have_stable_names_and_tracks() {
        for k in SpanKind::ALL {
            assert!(!k.name().is_empty());
        }
        assert_eq!(SpanKind::Compute.track(), Track::Cpu);
        assert_eq!(SpanKind::RetransmitBackoff.track(), Track::Net);
        assert_eq!(SpanKind::MultiplexQueue.track(), Track::Net);
    }
}
