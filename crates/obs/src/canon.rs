//! Canonical (schedule-independent) ordering of trace event streams.
//!
//! The discrete-event engine's *outcomes* are schedule-independent, but
//! its raw emission order is not: its worklist interleaves ranks in
//! whatever order they become runnable, and that order changes with
//! how the ranks are partitioned. Consumers that fold the stream
//! left-to-right into `f64` accumulators (histograms, per-phase sums) or
//! export it verbatim (the Chrome trace) would see those orders, so
//! byte-identity across thread counts requires a *canonical* order.
//!
//! The canonical order is: topology and gauges first (the engine emits
//! them before any span), then every buffered event of rank 0, then
//! rank 1, and so on. Each event has exactly one owner rank — spans
//! belong to [`SpanEvent::rank`], messages to the sender, message edges
//! to the source rank, and collective edges to the destination rank —
//! chosen so that every partition produces each rank's sub-stream in
//! that rank's program order. Replaying per-rank sub-streams in rank
//! order therefore yields one global order that is a pure function of
//! the simulation's inputs.
//!
//! [`EventBuffer`] is the per-owner staging structure: the engine keeps
//! one per partition when tracing and merges them rank by rank. When
//! the tracer is disabled the engine stages into the `NullTracer`
//! instead, so nothing is buffered and every hook stays an inlined
//! no-op, preserving the engine's zero-overhead guarantee.

use crate::tracer::{CausalEdge, EdgeKind, MessageRecord, SpanEvent, SpanKind, Tracer};

/// One buffered trace event, tagged with what it was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferedEvent {
    /// A span on the owner rank's timeline.
    Span(SpanEvent),
    /// A message posted by the owner rank.
    Message(MessageRecord),
    /// A causal edge owned per [`EventBuffer::owner_of_edge`].
    Edge(CausalEdge),
}

/// Per-rank staging of trace events, replayable in canonical order.
///
/// Also a [`Tracer`] itself (always enabled; topology and gauges are
/// dropped — the engine that owns the buffer forwards those directly),
/// so the engine's emission code can be generic over "real tracer or
/// staging buffer".
#[derive(Debug, Default)]
pub struct EventBuffer {
    per_rank: Vec<Vec<BufferedEvent>>,
}

impl EventBuffer {
    /// An empty buffer for `n` ranks.
    pub fn new(n: usize) -> Self {
        EventBuffer {
            per_rank: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// The rank whose sub-stream an edge belongs to: the source for
    /// message edges (emitted at post time by the sender), the
    /// destination for collective edges (emitted per released rank).
    pub fn owner_of_edge(edge: &CausalEdge) -> usize {
        match edge.kind {
            EdgeKind::Message => edge.src_rank,
            EdgeKind::Collective => edge.dst_rank,
        }
    }

    /// Number of buffered events across all ranks.
    pub fn len(&self) -> usize {
        self.per_rank.iter().map(Vec::len).sum()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.per_rank.iter().all(Vec::is_empty)
    }

    /// Forward rank `r`'s buffered events to `out` in buffer order,
    /// leaving the buffer intact (the caller clears or drops it).
    pub fn replay_rank<T: Tracer + ?Sized>(&self, r: usize, out: &mut T) {
        let Some(events) = self.per_rank.get(r) else {
            return;
        };
        for ev in events {
            match ev {
                BufferedEvent::Span(s) => out.span(s.rank, s.kind, s.start, s.end),
                BufferedEvent::Message(m) => out.message(m),
                BufferedEvent::Edge(e) => out.edge(e),
            }
        }
    }

    /// Replay every rank's events in rank order — the canonical order.
    pub fn replay_all<T: Tracer + ?Sized>(&self, out: &mut T) {
        for r in 0..self.per_rank.len() {
            self.replay_rank(r, out);
        }
    }
}

impl Tracer for EventBuffer {
    fn span(&mut self, rank: usize, kind: SpanKind, start: f64, end: f64) {
        self.per_rank[rank].push(BufferedEvent::Span(SpanEvent {
            rank,
            kind,
            start,
            end,
        }));
    }

    fn message(&mut self, msg: &MessageRecord) {
        self.per_rank[msg.from_rank].push(BufferedEvent::Message(*msg));
    }

    fn edge(&mut self, edge: &CausalEdge) {
        self.per_rank[Self::owner_of_edge(edge)].push(BufferedEvent::Edge(*edge));
    }

    // Topology and gauges are ordered before all spans already; the
    // engine forwards them to the downstream tracer directly.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::RecordingTracer;

    fn msg(from: usize, to: usize) -> MessageRecord {
        MessageRecord {
            from_rank: from,
            to_rank: to,
            from_node: 0,
            to_node: 0,
            bytes: 8,
            wire_time: 1e-6,
            drops: 0,
            retransmit_delay: 0.0,
            multiplex_delay: 0.0,
        }
    }

    fn edge(kind: EdgeKind, src: usize, dst: usize) -> CausalEdge {
        CausalEdge {
            kind,
            src_rank: src,
            src_time: 0.0,
            dst_rank: dst,
            dst_time: 1e-6,
            bytes: 8,
            wire_time: 1e-6,
            fault_delay: 0.0,
        }
    }

    #[test]
    fn replay_orders_by_owner_rank_then_emission() {
        let mut canon = RecordingTracer::new();
        canon.topology(&[0, 0, 1]);
        let mut t = EventBuffer::new(3);
        // Emitted in a scrambled scheduler order.
        t.span(2, SpanKind::Compute, 0.0, 1.0);
        t.span(0, SpanKind::Compute, 0.0, 2.0);
        t.message(&msg(1, 0));
        t.edge(&edge(EdgeKind::Message, 1, 0)); // owner: src rank 1
        t.edge(&edge(EdgeKind::Collective, 2, 0)); // owner: dst rank 0
        t.span(0, SpanKind::Send, 2.0, 2.1);
        t.replay_all(&mut canon);
        assert_eq!(canon.rank_nodes, vec![0, 0, 1]);
        // Rank 0's events (two spans + the collective edge) come first,
        // in emission order; then rank 1's message+edge; then rank 2.
        let ranks: Vec<usize> = canon.spans.iter().map(|s| s.rank).collect();
        assert_eq!(ranks, vec![0, 0, 2]);
        assert_eq!(canon.edges[0].kind, EdgeKind::Collective);
        assert_eq!(canon.edges[1].kind, EdgeKind::Message);
        assert_eq!(canon.metrics.counter("messages_sent"), 1);
    }

    #[test]
    fn event_buffer_merges_across_buffers_per_rank() {
        // Two partition-local buffers over the same rank space; a
        // leader-merged replay interleaves them rank-by-rank.
        let mut a = EventBuffer::new(2);
        let mut b = EventBuffer::new(2);
        a.span(0, SpanKind::Compute, 0.0, 1.0);
        b.span(1, SpanKind::Compute, 0.0, 0.5);
        a.span(0, SpanKind::Send, 1.0, 1.1);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        let mut out = RecordingTracer::new();
        for r in 0..2 {
            a.replay_rank(r, &mut out);
            b.replay_rank(r, &mut out);
        }
        let got: Vec<(usize, SpanKind)> = out.spans.iter().map(|s| (s.rank, s.kind)).collect();
        assert_eq!(
            got,
            vec![
                (0, SpanKind::Compute),
                (0, SpanKind::Send),
                (1, SpanKind::Compute)
            ]
        );
    }
}
