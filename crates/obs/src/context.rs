//! The run context: one run's configuration as an explicit value.
//!
//! A [`RunContext`] travels from `repro` down the whole run — sweep,
//! point, workload entry point, `runtime::exec`, `simnet::simulate` —
//! and carries everything that used to live in process globals: the
//! simulation thread count, the trace list the run records into, and
//! its host-telemetry capture. Two runs with different contexts can
//! therefore execute side by side in one process without seeing each
//! other's threads, traces or telemetry.
//!
//! The trace list is an append-only list: [`RunContext::take_traces`]
//! numbers the `sim N` labels in the order bundles were recorded. It
//! knows nothing about sweeps. The sweep executor (`core::sweep`) runs
//! each attempt at a point in a [`RunContext::child`] with a list of
//! its own, and after the pool settles records the points' bundles
//! into the parent in sweep-index order, so every export is the same
//! at any `--jobs`.
//!
//! One process-default context remains, read and written only by the
//! shims `benchmark/probes` still calls (`simnet::set_sim_threads`,
//! [`sink::install`](crate::sink::install)/[`take`](crate::sink::take),
//! [`host::enable`](crate::host::enable)/[`take`](crate::host::take)/[`clock`](crate::host::clock),
//! `SweepPlan::run_with_jobs`/`run_resilient_with_jobs`,
//! `runtime::execute` and `md::weak_scaling_point`). ROADMAP item 3,
//! step 3 deletes it with them.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::host::{HostCapture, HostReport};
use crate::sink::TraceBundle;

/// One run's configuration: the simulation thread count, the trace
/// list (under `--trace`, `--metrics` or `--analyze`) and the host
/// capture (under `--trace` or `--manifest`).
///
/// Clones are cheap and share the list and the capture, so everything
/// recording into one run lands in one place. A context that records
/// nothing allocates nothing.
#[derive(Debug, Clone)]
pub struct RunContext {
    pub(crate) sim_threads: usize,
    pub(crate) traces: Option<Arc<Mutex<Vec<TraceBundle>>>>,
    pub(crate) host: Option<Arc<HostCapture>>,
}

/// The process-default context, read and written only by the probe
/// shims (see the module docs).
static PROCESS_DEFAULT: Mutex<RunContext> = Mutex::new(RunContext::new(1));

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl RunContext {
    /// A context that simulates on `sim_threads` threads (at least 1)
    /// and records nothing.
    pub const fn new(sim_threads: usize) -> Self {
        RunContext {
            sim_threads: if sim_threads > 1 { sim_threads } else { 1 },
            traces: None,
            host: None,
        }
    }

    /// This context with a fresh trace list: every simulation run in
    /// it is recorded.
    pub fn with_traces(mut self) -> Self {
        self.traces = Some(Arc::default());
        self
    }

    /// This context with a fresh host capture, its clock starting now.
    pub fn with_host_capture(mut self) -> Self {
        self.host = Some(Arc::default());
        self
    }

    /// A copy that simulates on `n` threads (at least 1), sharing this
    /// context's trace list and capture.
    pub fn with_sim_threads(&self, n: usize) -> Self {
        RunContext {
            sim_threads: n.max(1),
            ..self.clone()
        }
    }

    /// The context one attempt at a sweep point runs in: the same
    /// thread count and capture, and a trace list of its own when this
    /// context records.
    pub fn child(&self) -> Self {
        let mut child = self.clone();
        child.traces = self.traces.as_ref().map(|_| Arc::default());
        child
    }

    /// The simulation thread count.
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// Whether simulations run in this context are recorded.
    pub fn records(&self) -> bool {
        self.traces.is_some()
    }

    /// The host capture, if host telemetry is on.
    pub fn host(&self) -> Option<&Arc<HostCapture>> {
        self.host.as_ref()
    }

    /// Append one recorded simulation to the trace list. Dropped when
    /// the context records nothing.
    pub fn record(&self, bundle: TraceBundle) {
        if let Some(traces) = &self.traces {
            lock(traces).push(bundle);
        }
    }

    /// Everything recorded in this context, in record order and
    /// unnumbered: what a child hands back to its parent.
    pub fn into_bundles(self) -> Vec<TraceBundle> {
        self.traces
            .map(|traces| std::mem::take(&mut *lock(&traces)))
            .unwrap_or_default()
    }

    /// Drain the trace list, in record order. Labels gain their final
    /// `sim N: ` prefix here, numbered in that order.
    pub fn take_traces(&self) -> Vec<TraceBundle> {
        let mut bundles = self.clone().into_bundles();
        for (seq, bundle) in bundles.iter_mut().enumerate() {
            bundle.label = format!("sim {seq}: {}", bundle.label);
        }
        bundles
    }

    /// Stop the host capture and return what it recorded: `None`
    /// without a capture, or once it has been taken.
    pub fn take_host_report(&self) -> Option<HostReport> {
        self.host.as_ref()?.take()
    }

    /// A copy of the process-default context. Kept only for the probe
    /// shims until ROADMAP item 3, step 3.
    pub fn process_default() -> RunContext {
        lock(&PROCESS_DEFAULT).clone()
    }

    /// Change the process-default context. Kept only for the probe
    /// shims until ROADMAP item 3, step 3.
    pub fn update_process_default<R>(f: impl FnOnce(&mut RunContext) -> R) -> R {
        f(&mut lock(&PROCESS_DEFAULT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle(label: &str) -> TraceBundle {
        TraceBundle {
            label: label.into(),
            ..TraceBundle::default()
        }
    }

    #[test]
    fn an_idle_context_drops_what_it_is_given() {
        let ctx = RunContext::new(0);
        assert_eq!(ctx.sim_threads(), 1, "clamped to one thread");
        assert!(!ctx.records() && ctx.host().is_none());
        ctx.record(bundle("dropped"));
        assert!(ctx.take_traces().is_empty());
        assert!(ctx.take_host_report().is_none());
    }

    #[test]
    fn clones_share_the_list_and_children_keep_their_own() {
        let ctx = RunContext::new(2).with_traces().with_host_capture();
        let four = ctx.with_sim_threads(4);
        let child = four.child();
        assert_eq!((ctx.sim_threads(), four.sim_threads()), (2, 4));
        assert_eq!(child.sim_threads(), 4);
        assert!(Arc::ptr_eq(
            child.host().expect("shared"),
            ctx.host().expect("on")
        ));
        ctx.record(bundle("a"));
        child.record(bundle("in child"));
        four.record(bundle("b"));
        let handed_back = child.into_bundles();
        assert_eq!(handed_back.len(), 1);
        assert_eq!(handed_back[0].label, "in child");
        let labels: Vec<String> = ctx.take_traces().into_iter().map(|b| b.label).collect();
        assert_eq!(labels, ["sim 0: a", "sim 1: b"]);
        assert!(four.take_traces().is_empty(), "one list, drained once");
        assert!(RunContext::new(1).child().into_bundles().is_empty());
    }
}
