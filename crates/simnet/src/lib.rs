//! Discrete-event simulation of Columbia's communication fabrics.
//!
//! The paper times message-passing codes whose behaviour is set by the
//! interplay of per-message latency, per-stream bandwidth, topology
//! distance, and contention — across three fabrics: NUMAlink3 inside a
//! 3700 node, NUMAlink4 inside (and between) BX2 nodes, and the
//! InfiniBand switch between any nodes. This crate provides:
//!
//! * [`fabric`] — cost models answering "what does one `bytes`-byte
//!   message from CPU *a* to CPU *b* cost" for each fabric, composed
//!   into a whole-cluster view by [`fabric::ClusterFabric`];
//! * [`engine`] — a deterministic discrete-event simulator that runs
//!   per-rank programs of [`engine::Op`]s (compute, send, recv,
//!   exchange, collectives) to a per-rank timeline with compute/comm
//!   attribution, behind one entry point, [`simulate`];
//! * [`collectives`] — closed-form cost models for barrier, allreduce,
//!   broadcast, and all-to-all, shared by the engine;
//! * [`program`] — compact SPMD program representations: one
//!   [`program::ProgramSet`] template shared across all ranks keeps a
//!   10,240-rank program in O(ops) memory;
//! * [`patterns`] — the HPCC `b_eff` communication patterns (ping-pong,
//!   natural ring, random ring) including the statistical contention
//!   model for bisection-crossing flows;
//! * [`fault`] — seeded fault-injection plans ([`fault::FaultPlan`])
//!   that drop messages (with timeout + exponential-backoff
//!   retransmission), degrade or fail links, slow CPUs, and enforce the
//!   §2 InfiniBand per-card connection limit with graceful multiplexing;
//! * [`error`] — the typed [`error::SimError`] every failure surfaces
//!   as, including a per-rank [`error::DeadlockReport`];
//! * [`pdes`] — the engine's event loop: conservative parallel
//!   (PDES) rounds over rank partitions, one per worker in whole-node
//!   blocks when [`simulate`] gets more than one thread, producing
//!   bit-identical outcomes, reports, and traces at any thread count.
//!
//! The engine reads no global: callers pass a
//! [`RunContext`](columbia_obs::RunContext) carrying the thread count
//! (`repro --sim-threads`) and the host capture a partitioned run
//! records its rounds into. Its tracer receives every span of virtual time (compute, send,
//! recv-wait, collective, plus network-side retransmit/multiplex
//! delays) through [`columbia_obs::Tracer`], at zero cost when the
//! [`columbia_obs::NullTracer`] is used (re-exported here as [`obs`]).
//!
//! All randomness is seeded; a simulation is a pure function of its
//! inputs — including fault injection, which is keyed off stable message
//! identities rather than schedule order.

pub mod collectives;
pub mod engine;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod mailbox;
pub mod patterns;
pub mod pdes;
pub mod program;

pub use columbia_obs as obs;
pub use engine::{simulate, simulate_on, Op, RankResult, SimOutcome};
pub use error::{DeadlockReport, PendingOp, SimError};
pub use fabric::{CachedFabric, ClusterFabric, Fabric, MptVersion};
pub use fault::{
    ConnectionLimit, ConnectionPolicy, CpuSlowdown, FaultPlan, FaultStats, FaultyFabric, LinkFault,
    LinkState, RetransmitPolicy,
};
pub use pdes::{set_sim_threads, sim_threads, simulate_parallel_on};
pub use program::{ByteRule, Peer, ProgramSet, Programs, SpmdOp};
