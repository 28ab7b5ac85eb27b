//! Recorded simulations, and the trace-list shims the probes call.
//!
//! A [`TraceBundle`] is everything recorded about one simulation. The
//! executor (`columbia-runtime`) asks its [`RunContext`] "is this run
//! recording?" once per simulation and, when it is, runs under a
//! [`RecordingTracer`](crate::RecordingTracer) and records the
//! resulting bundle into the context's trace list (see
//! [`crate::context`] for how sweeps keep that list in sweep order).
//!
//! [`install`] and [`take`] are one-line shims onto the process-default
//! context, kept only for `benchmark/probes` until ROADMAP item 3,
//! step 3.

use crate::context::RunContext;
use crate::metrics::Metrics;
use crate::profile::CommProfile;
use crate::tracer::{CausalEdge, SpanEvent};

/// Everything recorded about one simulation, in the canonical order
/// [`RecordingTracer`](crate::RecordingTracer) lays it out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBundle {
    /// Human label ("bt-mz 256x4", "sim 3", …).
    pub label: String,
    /// The spans of rank 0, then of rank 1, and so on; each rank's in
    /// program order.
    pub spans: Vec<SpanEvent>,
    /// The causal happens-before edges, grouped by owner rank in rank
    /// order (a message edge belongs to its sender, a collective edge
    /// to its receiver); each rank's in program order.
    pub edges: Vec<CausalEdge>,
    /// Node of each rank (`rank_nodes[r]` is rank `r`'s node), empty
    /// for bundles without a recorded placement.
    pub rank_nodes: Vec<u32>,
    /// Aggregated counters/histograms, folded in the order above.
    pub metrics: Metrics,
    /// The compute/comm/wait attribution.
    pub profile: CommProfile,
}

/// Give the process-default context a fresh trace list. Kept only
/// for `benchmark/probes` until ROADMAP item 3, step 3.
pub fn install() {
    RunContext::update_process_default(|ctx| *ctx = ctx.clone().with_traces());
}

/// Stop the process-default context recording and drain its list (see
/// [`RunContext::take_traces`]). Kept only for `benchmark/probes` until
/// ROADMAP item 3, step 3.
pub fn take() -> Vec<TraceBundle> {
    RunContext::update_process_default(|ctx| {
        let bundles = ctx.take_traces();
        ctx.traces = None;
        bundles
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the process-default context records.
    fn is_active() -> bool {
        RunContext::process_default().records()
    }

    /// Record into the process-default context.
    fn record(bundle: TraceBundle) {
        RunContext::process_default().record(bundle);
    }

    fn bundle(label: &str) -> TraceBundle {
        TraceBundle {
            label: label.into(),
            ..TraceBundle::default()
        }
    }

    #[test]
    fn sink_lifecycle() {
        // Exercises the shims end-to-end.
        assert!(!is_active());
        record(bundle("dropped"));
        assert!(take().is_empty());

        install();
        assert!(is_active());
        record(bundle("a"));
        record(bundle("b"));
        let bundles = take();
        assert!(!is_active());
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].label, "sim 0: a");
        assert_eq!(bundles[1].label, "sim 1: b");
        assert!(take().is_empty());
    }
}
