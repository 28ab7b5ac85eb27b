//! `columbia-obs` — the observability layer of the Columbia simulator.
//!
//! The source paper's contribution is *measurement*: it explains
//! Columbia's application performance by attributing time to compute,
//! communication, and placement effects. This crate gives the
//! simulator the same power over itself:
//!
//! * [`tracer`] — a zero-cost-when-disabled [`Tracer`] trait the
//!   discrete-event engine emits span events through. [`NullTracer`]
//!   compiles to nothing (the engine is generic over the tracer, so
//!   the null impl monomorphizes away); [`RecordingTracer`] captures
//!   per-rank timelines and aggregates [`Metrics`] as it goes.
//! * [`metrics`] — a registry of named counters, gauges, and
//!   log-bucketed latency [`Histogram`]s: messages sent, dropped, and
//!   retransmitted, bytes per inter-node link, per-rank wait time,
//!   connection-table occupancy.
//! * [`profile`] — [`CommProfile`], the compute / communication / wait
//!   breakdown per rank and per phase (phases are delimited by
//!   collectives, the natural epochs of the simulated workloads) —
//!   the simulator's analogue of the paper's Table 4-style
//!   attribution.
//! * [`analysis`] — the simulated-time performance analyzer: the
//!   recorded causal event graph (spans + happens-before edges) turned
//!   into a critical path with per-category bottleneck attribution,
//!   load-imbalance statistics, and a rank-pair communication matrix
//!   (`repro --analyze`, schema `columbia-analysis-v1`).
//! * [`chrome`] — export a set of recorded simulations as Chrome
//!   trace-event JSON, loadable in Perfetto (`ui.perfetto.dev`) or
//!   `chrome://tracing`, one track per rank. [`write_chrome_trace`]
//!   streams the document event by event into any `io::Write`,
//!   without building it in memory.
//! * [`sink`] — a process-global collection point so `repro --trace`
//!   can capture every simulation an experiment runs without
//!   threading a tracer through each workload crate's API.
//! * [`host`] — host-side (wall-clock) execution telemetry: worker
//!   lanes, retries, skips, and checkpoint-store activity, recorded
//!   by the sweep executor and merged into the Chrome export as its
//!   own process so real execution reads next to simulated time.
//!
//! Overhead guarantees: with [`NullTracer`] every hook is an inlined
//! empty function behind an `enabled()` check that constant-folds to
//! `false`, so the instrumented engine produces bit-identical
//! [`SimOutcome`]s (asserted by regression tests in `columbia-simnet`)
//! at unmeasurable cost. The global sink costs one relaxed atomic load
//! per *simulation* (not per event) when disabled.
//!
//! [`SimOutcome`]: https://docs.rs/columbia-simnet

pub mod analysis;
pub mod canon;
pub mod chrome;
pub mod host;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod tracer;

pub use analysis::{
    analyze, Analysis, Breakdown, Category, CommPair, CriticalPath, Imbalance, PathSegment,
    ANALYSIS_SCHEMA,
};
pub use canon::{BufferedEvent, EventBuffer};
pub use chrome::{chrome_trace_with_flows, chrome_trace_with_host, write_chrome_trace};
pub use host::{HostReport, HostSpan, HostTrack, PartitionSpan};
pub use metrics::{Histogram, Metrics};
pub use profile::{CommProfile, PhaseProfile, RankProfile};
pub use sink::TraceBundle;
pub use tracer::{
    CausalEdge, EdgeKind, MessageRecord, NullTracer, RecordingTracer, SpanEvent, SpanKind, Tracer,
    Track,
};
