//! Deterministic discrete-event execution of per-rank programs.
//!
//! Each virtual MPI rank runs a straight-line program of [`Op`]s. The
//! engine advances per-rank clocks with eager message matching: a send
//! deposits a message whose arrival time is the sender's clock plus the
//! fabric's point-to-point cost; a receive completes at
//! `max(receiver clock, arrival)`. Collectives synchronize all ranks
//! and charge the closed-form costs from [`crate::collectives`].
//!
//! The scheduler is a worklist over blocked ranks, so arbitrary
//! (deadlock-free) send/recv orders simulate correctly — including the
//! pipelined LU-SGS wavefronts and ring exchanges the workloads emit.
//! Failures are structured [`SimError`]s: a genuine deadlock (cycle of
//! receives with no matching sends) is diagnosed per rank with its
//! program counter and pending operation, a placement mismatch is
//! rejected up front, ranks that reach a collective with different ops
//! are a [`SimError::CollectiveMismatch`], and an event-budget watchdog
//! guards against livelock.
//!
//! [`simulate`] is the one entry point. It runs the programs under a
//! [`FaultPlan`] (message drops with exponential-backoff
//! retransmission, degraded links, slow CPUs, and the §2 InfiniBand
//! connection limit, multiplexed or failing with
//! [`SimError::ConnectionsExhausted`]), reports every clock advance to a
//! [`Tracer`], and takes a thread count. The event loop lives in
//! [`crate::pdes`]: it runs ranks in one partition per worker, in
//! whole-node blocks, and its outcomes and traces are bit-identical at
//! every thread count. This module holds the entry point and the
//! per-op helpers the loop applies. It is generic over the tracer,
//! the fabric and the program representation, so under the
//! [`NullTracer`](columbia_obs::NullTracer) the instrumentation
//! compiles away, and SPMD workloads share one
//! [`crate::program::ProgramSet`] template. The loop is instantiated in
//! the caller's crate, so every non-generic helper it calls per op
//! (here, in `program`, `fabric`, `fault` and `mailbox`) carries
//! `#[inline]` or `#[inline(always)]`, and per-message cost calls
//! inline (pair the fabric with [`crate::fabric::CachedFabric`] for
//! table lookups); `ci/hot_loop.sh` fails when one is out of line.
//! [`simulate_on`] and [`crate::pdes::simulate_parallel_on`] are its
//! untraced shorthands.

use columbia_machine::cluster::CpuId;
use columbia_obs::{CausalEdge, EdgeKind, RunContext, SpanKind, Tracer};

use crate::collectives;
use crate::error::SimError;
use crate::fabric::Fabric;
use crate::fault::{ConnectionPolicy, FaultPlan, FaultStats};
use crate::mailbox::IndexedMailbox;
use crate::pdes::run_partitioned;
use crate::program::Programs;

/// Per-CPU cost of initiating a send (library call + injection), well
/// under the wire latency; folded out of `Fabric::latency` so overlap
/// of computation with in-flight messages is modelled.
const SEND_CPU_OVERHEAD: f64 = 0.2e-6;

/// One instruction of a virtual rank's program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Busy compute for the given number of seconds (already costed by
    /// the machine model upstream).
    Compute(f64),
    /// Eager, non-blocking send of `bytes` to rank `to` with a match
    /// `tag`.
    Send { to: usize, bytes: u64, tag: u64 },
    /// Blocking receive from rank `from` with matching `tag`.
    Recv { from: usize, tag: u64 },
    /// Simultaneous pairwise exchange with rank `with` (send + recv of
    /// equal `bytes`), the staple of halo swaps.
    Exchange { with: usize, bytes: u64, tag: u64 },
    /// Barrier over the whole communicator.
    Barrier,
    /// Allreduce contributing `bytes` per rank.
    AllReduce { bytes: u64 },
    /// All-to-all moving `bytes_per_pair` between every ordered pair.
    AllToAll { bytes_per_pair: u64 },
    /// Broadcast of `bytes` from rank `root` (must be a valid rank).
    /// The tree is charged from the root's clock: ranks that reach the
    /// broadcast after the root has finished feeding the tree are not
    /// charged extra wait.
    Bcast { root: usize, bytes: u64 },
}

impl Op {
    /// The peer this op blocks on, if it names one.
    pub(crate) fn waiting_on(&self) -> Option<usize> {
        match self {
            Op::Recv { from, .. } => Some(*from),
            Op::Exchange { with, .. } => Some(*with),
            _ => None,
        }
    }
}

/// Timeline of one rank after simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankResult {
    /// Final clock value: when the rank finished its program.
    pub total: f64,
    /// Seconds spent in [`Op::Compute`].
    pub compute: f64,
    /// Seconds spent sending, waiting, and inside collectives.
    pub comm: f64,
}

/// Result of simulating a whole program set.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Per-rank timelines.
    pub ranks: Vec<RankResult>,
    /// Completion time of the slowest rank — the measured wall clock.
    pub makespan: f64,
    /// Fault activity observed during the run (all zeros for a
    /// fault-free plan).
    pub faults: FaultStats,
}

impl SimOutcome {
    /// Mean communication time across ranks (what the application
    /// tables report as "comm").
    pub fn mean_comm(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks.iter().map(|r| r.comm).sum::<f64>() / self.ranks.len() as f64
    }

    /// Maximum communication time across ranks.
    pub fn max_comm(&self) -> f64 {
        self.ranks.iter().map(|r| r.comm).fold(0.0, f64::max)
    }
}

#[derive(Clone, Copy, Default)]
pub(crate) struct RankState {
    /// The global rank this state belongs to.
    pub(crate) rank: usize,
    pub(crate) pc: usize,
    pub(crate) clock: f64,
    pub(crate) compute: f64,
    pub(crate) comm: f64,
    /// Sequence number of the next collective this rank will join.
    pub(crate) coll_seq: usize,
    /// The send half of the `Exchange` at `pc` is out and its receive
    /// half is blocked, so the retry must not send again.
    pub(crate) half_sent: bool,
}

/// Per-rank fault accounting, folded into one [`FaultStats`] in rank
/// order at the end of a run. The `f64` sums are order-sensitive, so
/// accumulating per sender and folding canonically makes the totals a
/// pure function of the simulation's inputs — identical under every
/// partition map regardless of scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FaultLedger {
    pub(crate) dropped_messages: u64,
    pub(crate) drop_events: u64,
    pub(crate) retransmit_delay: f64,
    pub(crate) multiplexed_messages: u64,
    pub(crate) multiplex_delay: f64,
}

impl FaultLedger {
    pub(crate) fn fold_into(&self, stats: &mut FaultStats) {
        stats.dropped_messages += self.dropped_messages;
        stats.drop_events += self.drop_events;
        stats.retransmit_delay += self.retransmit_delay;
        stats.multiplexed_messages += self.multiplexed_messages;
        stats.multiplex_delay += self.multiplex_delay;
    }
}

/// Price one message and charge the sender: fabric cost, drop +
/// retransmit sampling, multiplex delay, the sender's CPU overhead, and
/// all sender-side trace events. Returns the arrival time; the caller
/// deposits it (directly into a mailbox, or into a cross-partition
/// lane). Shared by the `Send` op and the send half of `Exchange`, and
/// forced inline: hinted, it stayed out of line in the event loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn charge_send<T: Tracer, F: Fabric + ?Sized>(
    tracer: &mut T,
    fabric: &F,
    plan: &FaultPlan,
    cpus: &[CpuId],
    mux_delay: f64,
    ledger: &mut FaultLedger,
    state: &mut RankState,
    r: usize,
    to: usize,
    bytes: u64,
    tag: u64,
    seq: u64,
) -> f64 {
    let cost = fabric.pt2pt_time(cpus[r], cpus[to], bytes);
    let drops = plan.drops_for_message(r, to, tag, seq);
    let posted = state.clock;
    let mut arrival = posted + cost;
    let mut retransmit_delay = 0.0;
    if drops > 0 {
        let delay = plan.retransmit_delay(drops);
        arrival += delay;
        retransmit_delay = delay;
        ledger.dropped_messages += 1;
        ledger.drop_events += drops as u64;
        ledger.retransmit_delay += delay;
    }
    let muxed = mux_delay > 0.0 && cpus[r].node != cpus[to].node;
    if muxed {
        arrival += mux_delay;
        ledger.multiplexed_messages += 1;
        ledger.multiplex_delay += mux_delay;
    }
    // The sender re-injects once per retransmission.
    let overhead = SEND_CPU_OVERHEAD * (drops + 1) as f64;
    state.clock += overhead;
    state.comm += overhead;
    if tracer.enabled() {
        tracer.span(r, SpanKind::Send, posted, posted + overhead);
        if retransmit_delay > 0.0 {
            tracer.span(
                r,
                SpanKind::RetransmitBackoff,
                posted + cost,
                posted + cost + retransmit_delay,
            );
        }
        if muxed {
            tracer.span(r, SpanKind::MultiplexQueue, arrival - mux_delay, arrival);
        }
        // `arrival` here and the receiver's RecvWait span end are
        // the same computed f64, so the analyzer joins them
        // bit-exactly.
        tracer.edge(&CausalEdge {
            kind: EdgeKind::Message,
            src_rank: r,
            src_time: posted,
            dst_rank: to,
            dst_time: arrival,
            bytes,
            wire_time: cost,
            drops,
            retransmit_delay,
            multiplex_delay: if muxed { mux_delay } else { 0.0 },
        });
    }
    arrival
}

/// Apply one compute phase of `secs` (already scaled by the plan's
/// CPU-slowdown factor): advance the clock, charge compute time, emit
/// the span.
pub(crate) fn apply_compute<T: Tracer>(tracer: &mut T, state: &mut RankState, r: usize, secs: f64) {
    let started = state.clock;
    state.clock += secs;
    state.compute += secs;
    state.pc += 1;
    if tracer.enabled() && secs > 0.0 {
        tracer.span(r, SpanKind::Compute, started, state.clock);
    }
}

/// Complete a blocking receive whose matching message arrives at
/// `arrival`: emit the wait span, charge comm time, advance the clock
/// and pc. One helper for the `Recv` op and the recv half of `Exchange`.
pub(crate) fn finish_recv<T: Tracer>(
    tracer: &mut T,
    state: &mut RankState,
    r: usize,
    arrival: f64,
) {
    let done = state.clock.max(arrival);
    if tracer.enabled() && done > state.clock {
        tracer.span(r, SpanKind::RecvWait, state.clock, done);
    }
    state.comm += done - state.clock;
    state.clock = done;
    state.pc += 1;
}

/// The closed-form cost of one collective op.
pub(crate) fn collective_cost<F: Fabric + ?Sized>(op: Op, fabric: &F, cpus: &[CpuId]) -> f64 {
    match op {
        Op::Barrier => collectives::barrier(fabric, cpus),
        Op::AllReduce { bytes } => collectives::allreduce(fabric, cpus, bytes),
        Op::AllToAll { bytes_per_pair } => collectives::alltoall(fabric, cpus, bytes_per_pair),
        Op::Bcast { bytes, .. } => collectives::bcast(fabric, cpus, bytes),
        _ => unreachable!("not a collective"),
    }
}

/// Per-pair payload a collective's causal edges report.
pub(crate) fn collective_payload(op: Op) -> u64 {
    match op {
        Op::AllReduce { bytes } | Op::Bcast { bytes, .. } => bytes,
        Op::AllToAll { bytes_per_pair } => bytes_per_pair,
        _ => 0,
    }
}

/// Causal source of a collective release: the broadcast root, or the
/// straggler whose arrival set the start time (lowest rank on ties).
/// `clocks` must be in rank order.
pub(crate) fn collective_source(op: Op, clocks: impl Iterator<Item = f64>) -> usize {
    if let Op::Bcast { root, .. } = op {
        return root;
    }
    let mut src = 0usize;
    let mut best: Option<f64> = None;
    for (i, c) in clocks.enumerate() {
        match best {
            Some(b) if c <= b => {}
            Some(_) => {
                best = Some(c);
                src = i;
            }
            None => best = Some(c),
        }
    }
    src
}

/// The error for collective number `seq` once two arrivals issued
/// different ops (each partition compares its arrivals with its first,
/// and the leader compares the partitions' first ops): the lowest rank
/// whose current op, `op_of(r)`, differs from rank 0's, whatever the
/// partition map.
pub(crate) fn collective_mismatch(n: usize, seq: usize, op_of: impl Fn(usize) -> Op) -> SimError {
    let expected = op_of(0);
    let rank = (1..n)
        .find(|&r| op_of(r) != expected)
        .expect("two arrivals issued different ops");
    SimError::CollectiveMismatch {
        seq,
        rank,
        expected,
        found: op_of(rank),
    }
}

/// Release rank `i` from a collective that runs `[start, start+cost]`:
/// emit its span and causal edge, charge comm time, advance clock,
/// collective sequence, and pc. `done == end` except under a broadcast,
/// where a rank already past the root-driven finish keeps its own
/// clock. Applied by the leader's collective release.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_collective_release<T: Tracer>(
    tracer: &mut T,
    state: &mut RankState,
    i: usize,
    start: f64,
    cost: f64,
    end: f64,
    coll_src: usize,
    coll_bytes: u64,
) {
    let done = state.clock.max(end);
    if tracer.enabled() && done > state.clock {
        tracer.span(i, SpanKind::Collective, state.clock, done);
        tracer.edge(&CausalEdge {
            kind: EdgeKind::Collective,
            src_rank: coll_src,
            src_time: start,
            dst_rank: i,
            dst_time: done,
            bytes: coll_bytes,
            wire_time: cost,
            drops: 0,
            retransmit_delay: 0.0,
            multiplex_delay: 0.0,
        });
    }
    state.comm += done - state.clock;
    state.clock = done;
    state.coll_seq += 1;
    state.pc += 1;
}

/// Connections node-local `procs` ranks need for full pure-MPI
/// connectivity across `n_nodes` nodes: `p²(n−1)` (§2).
fn connections_required(procs: usize, n_nodes: usize) -> u64 {
    (procs as u64).pow(2) * (n_nodes as u64 - 1)
}

/// Check the placement against the plan's connection limit. Returns the
/// per-inter-node-message queuing delay (0.0 when within budget or no
/// limit), the worst oversubscription ratio, or the exhaustion error.
pub(crate) fn connection_check(cpus: &[CpuId], plan: &FaultPlan) -> Result<(f64, f64), SimError> {
    let Some(limit) = &plan.connection_limit else {
        return Ok((0.0, 0.0));
    };
    // Ranks per node: one count per run of equal node ids (a node-major
    // placement has one run per node), sorted by node with the runs of
    // one node merged, so the lowest-numbered exhausted node is reported.
    let mut nodes: Vec<(u32, usize)> = Vec::new();
    for c in cpus {
        match nodes.last_mut() {
            Some((node, procs)) if *node == c.node.0 => *procs += 1,
            _ => nodes.push((c.node.0, 1)),
        }
    }
    nodes.sort_unstable_by_key(|&(node, _)| node);
    nodes.dedup_by(|run, kept| {
        let same = run.0 == kept.0;
        if same {
            kept.1 += run.1;
        }
        same
    });
    let n_nodes = nodes.len();
    if n_nodes < 2 {
        return Ok((0.0, 0.0));
    }
    let available = limit.budget();
    let mut worst_ratio = 0.0f64;
    for (node, procs) in nodes {
        let required = connections_required(procs, n_nodes);
        let ratio = required as f64 / available as f64;
        if required > available {
            if let ConnectionPolicy::Fail = limit.policy {
                return Err(SimError::ConnectionsExhausted {
                    node,
                    procs_on_node: procs,
                    required,
                    available,
                });
            }
        }
        worst_ratio = worst_ratio.max(ratio);
    }
    let delay = match limit.policy {
        ConnectionPolicy::Multiplex { queue_penalty } if worst_ratio > 1.0 => {
            queue_penalty * (worst_ratio - 1.0)
        }
        _ => 0.0,
    };
    Ok((delay, worst_ratio))
}

/// Simulate `programs` (one per rank) placed on `cpus` over `fabric`
/// under `plan`, reporting every span of virtual time to `tracer`, on
/// `ctx`'s `threads = ctx.sim_threads()` threads. A multi-partition run
/// records its rounds into `ctx`'s host capture, if it has one.
///
/// `cpus[r]` is the physical CPU of rank `r`; programs and placement
/// must have equal length. Faults only ever *delay* the timeline;
/// structural failures are [`SimError`]s. Tracing never perturbs the
/// outcome. The ranks run in one partition per worker, in whole-node
/// blocks: `k = min(threads, distinct nodes)` partitions, each a
/// contiguous run of whole nodes in ascending node-id order. At
/// `threads <= 1`, or on a one-node placement, that is one partition,
/// and the event loop runs on the calling thread without spawning or
/// waiting. Otherwise the calling thread runs partition 0 and each
/// other partition gets one helper thread for the whole run; the
/// threads share `P` and `F` (hence `Sync`). See [`crate::pdes`] for
/// the rounds and the measured speed-up.
pub fn simulate<T, P, F>(
    programs: &P,
    cpus: &[CpuId],
    fabric: &F,
    plan: &FaultPlan,
    tracer: &mut T,
    ctx: &RunContext,
) -> Result<SimOutcome, SimError>
where
    T: Tracer,
    P: Programs + ?Sized + Sync,
    F: Fabric + ?Sized + Sync,
{
    let n = programs.n_ranks();
    if n != cpus.len() {
        return Err(SimError::PlacementMismatch {
            programs: n,
            placements: cpus.len(),
        });
    }
    // The partition map is a pure function of the placement and
    // `threads`: over the `N` distinct node ids, sorted, node `i` goes to
    // partition `i·k/N` with `k = min(threads, N)`. One thread or one
    // node puts every rank in partition 0.
    let mut nodes: Vec<u32> = Vec::new();
    if ctx.sim_threads() > 1 {
        nodes = cpus.iter().map(|c| c.node.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
    }
    let n_parts = ctx.sim_threads().clamp(1, nodes.len().max(1));
    let part_of: Vec<u32> = if n_parts == 1 {
        vec![0; n]
    } else {
        cpus.iter()
            .map(|c| {
                let i = nodes.binary_search(&c.node.0).unwrap_or(0);
                (i * n_parts / nodes.len()) as u32
            })
            .collect()
    };
    run_partitioned::<T, IndexedMailbox, P, F>(
        programs,
        cpus,
        fabric,
        plan,
        tracer,
        &part_of,
        ctx.host(),
    )
}

/// [`simulate`] on one thread, untraced.
pub fn simulate_on<P, F>(
    programs: &P,
    cpus: &[CpuId],
    fabric: &F,
    plan: &FaultPlan,
) -> Result<SimOutcome, SimError>
where
    P: Programs + ?Sized + Sync,
    F: Fabric + ?Sized + Sync,
{
    crate::pdes::simulate_parallel_on(programs, cpus, fabric, plan, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::ClusterFabric;
    use crate::fault::{ConnectionLimit, ConnectionPolicy};
    use crate::mailbox::tests::ReferenceMailbox;
    use columbia_machine::cluster::{ClusterConfig, InterNodeFabric, NodeId};
    use columbia_machine::node::NodeKind;

    fn fabric() -> ClusterFabric {
        ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 1))
    }

    fn place(n: u32) -> Vec<CpuId> {
        (0..n).map(|c| CpuId::new(0, c)).collect()
    }

    #[test]
    fn pure_compute_runs_independently() {
        let progs = vec![vec![Op::Compute(1.0)], vec![Op::Compute(2.0)]];
        let out = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap();
        assert!((out.ranks[0].total - 1.0).abs() < 1e-12);
        assert!((out.ranks[1].total - 2.0).abs() < 1e-12);
        assert!((out.makespan - 2.0).abs() < 1e-12);
        assert_eq!(out.ranks[0].comm, 0.0);
        assert!(!out.faults.any());
    }

    #[test]
    fn recv_waits_for_matching_send() {
        let progs = vec![
            vec![
                Op::Compute(1.0),
                Op::Send {
                    to: 1,
                    bytes: 0,
                    tag: 7,
                },
            ],
            vec![Op::Recv { from: 0, tag: 7 }],
        ];
        let out = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap();
        // Rank 1 must wait ≥ 1 second for the send to be issued.
        assert!(out.ranks[1].total >= 1.0);
        assert!(out.ranks[1].comm >= 1.0);
    }

    #[test]
    fn send_before_recv_also_matches() {
        let progs = vec![
            vec![Op::Send {
                to: 1,
                bytes: 1024,
                tag: 1,
            }],
            vec![Op::Compute(0.5), Op::Recv { from: 0, tag: 1 }],
        ];
        let out = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap();
        // Message long since arrived; receiver barely waits.
        assert!(out.ranks[1].total < 0.5 + 1e-3);
    }

    #[test]
    fn messages_with_same_tag_preserve_order() {
        let progs = vec![
            vec![
                Op::Send {
                    to: 1,
                    bytes: 1 << 20,
                    tag: 0,
                },
                Op::Send {
                    to: 1,
                    bytes: 0,
                    tag: 0,
                },
            ],
            vec![Op::Recv { from: 0, tag: 0 }, Op::Recv { from: 0, tag: 0 }],
        ];
        let out = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap();
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let progs = vec![
            vec![Op::Compute(0.1), Op::Barrier],
            vec![Op::Compute(2.0), Op::Barrier],
            vec![Op::Barrier],
        ];
        let out = simulate_on(&progs, &place(3), &fabric(), &FaultPlan::none()).unwrap();
        for r in &out.ranks {
            assert!(r.total >= 2.0);
        }
        // Fast ranks accrue the wait as comm time.
        assert!(out.ranks[2].comm > 1.9);
        assert!(out.ranks[1].comm < 0.1);
    }

    #[test]
    fn ring_exchange_completes() {
        // Natural ring: everyone exchanges with both neighbours, in the
        // classic parity order (even ranks talk right first, odd ranks
        // left first) so matching exchanges are posted simultaneously.
        let n = 8usize;
        let mut progs = Vec::new();
        for r in 0..n {
            let right = (r + 1) % n;
            let left = (r + n - 1) % n;
            let tag = |a: usize, b: usize| 100 + a.min(b) as u64 * 7 + a.max(b) as u64;
            let ex_right = Op::Exchange {
                with: right,
                bytes: 4096,
                tag: tag(r, right),
            };
            let ex_left = Op::Exchange {
                with: left,
                bytes: 4096,
                tag: tag(r, left),
            };
            progs.push(if r % 2 == 0 {
                vec![ex_right, ex_left]
            } else {
                vec![ex_left, ex_right]
            });
        }
        let out = simulate_on(&progs, &place(n as u32), &fabric(), &FaultPlan::none()).unwrap();
        assert!(out.makespan > 0.0);
        assert!(out.ranks.iter().all(|r| r.comm > 0.0));
    }

    #[test]
    fn bcast_waits_for_a_late_root() {
        // Root 1 computes for 2 s before broadcasting; every other rank
        // is already parked at the collective, and must end no earlier
        // than the root's clock plus the tree cost.
        let progs: Vec<Vec<Op>> = (0..4)
            .map(|r| {
                let mut p = Vec::new();
                if r == 1 {
                    p.push(Op::Compute(2.0));
                }
                p.push(Op::Bcast {
                    root: 1,
                    bytes: 1 << 20,
                });
                p
            })
            .collect();
        let out = simulate_on(&progs, &place(4), &fabric(), &FaultPlan::none()).unwrap();
        let cost = collectives::bcast(&fabric(), &place(4), 1 << 20);
        for r in &out.ranks {
            assert!((r.total - (2.0 + cost)).abs() < 1e-12, "{}", r.total);
        }
        assert!(out.ranks[0].comm > 2.0);
    }

    #[test]
    fn bcast_does_not_back_charge_ranks_past_the_root() {
        // Root 0 broadcasts at t=0; rank 1 shows up at t=2 having
        // computed. The tree finished long before, so rank 1 keeps its
        // own clock and pays no collective wait.
        let progs = vec![
            vec![Op::Bcast { root: 0, bytes: 64 }],
            vec![Op::Compute(2.0), Op::Bcast { root: 0, bytes: 64 }],
        ];
        let out = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap();
        let cost = collectives::bcast(&fabric(), &place(2), 64);
        assert!((out.ranks[0].total - cost).abs() < 1e-12);
        assert!((out.ranks[1].total - 2.0).abs() < 1e-12);
        assert_eq!(out.ranks[1].comm, 0.0);
    }

    #[test]
    fn spmd_program_set_on_cached_fabric_matches_per_rank_on_dyn() {
        use crate::program::{ByteRule, Peer, ProgramSet, SpmdOp};
        let template = vec![
            SpmdOp::Compute(1e-4),
            SpmdOp::Send {
                to: Peer::RingOffset(1),
                bytes: ByteRule::Uniform(8192),
                tag: 1,
            },
            SpmdOp::Recv {
                from: Peer::RingOffset(-1),
                tag: 1,
            },
            SpmdOp::Exchange {
                with: Peer::Xor(1),
                bytes: ByteRule::RankScaled { base: 256, step: 8 },
                tag: 2,
            },
            SpmdOp::AllReduce { bytes: 64 },
            SpmdOp::Bcast {
                root: 3,
                bytes: 512,
            },
        ];
        let set = ProgramSet::spmd(8, template);
        let direct = fabric();
        let cached = crate::fabric::CachedFabric::new(direct.clone());
        for plan in [FaultPlan::none(), FaultPlan::with_drops(13, 0.3)] {
            let fast = simulate_on(&set, &place(8), &cached, &plan).unwrap();
            let slow = simulate_on(&set.materialize(), &place(8), &direct, &plan).unwrap();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn alltoall_costs_more_with_more_bytes() {
        let mk = |bytes| {
            let progs: Vec<Vec<Op>> = (0..16)
                .map(|_| {
                    vec![Op::AllToAll {
                        bytes_per_pair: bytes,
                    }]
                })
                .collect();
            simulate_on(&progs, &place(16), &fabric(), &FaultPlan::none())
                .unwrap()
                .makespan
        };
        assert!(mk(1 << 16) > mk(1 << 8));
    }

    #[test]
    fn deadlock_is_detected_and_diagnosed() {
        // Two ranks each waiting for a message never sent.
        let progs = vec![
            vec![Op::Recv { from: 1, tag: 0 }],
            vec![Op::Recv { from: 0, tag: 0 }],
        ];
        let err = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap_err();
        assert_eq!(err.stuck_ranks(), vec![0, 1]);
        assert!(err.to_string().contains("deadlock"));
        let SimError::Deadlock(report) = err else {
            panic!("expected a deadlock, got {err:?}");
        };
        // Each stuck rank names its pc, pending op, and peer.
        assert_eq!(report.stuck[0].pc, 0);
        assert_eq!(report.stuck[0].op, Op::Recv { from: 1, tag: 0 });
        assert_eq!(report.stuck[0].waiting_on, Some(1));
        assert_eq!(report.stuck[1].waiting_on, Some(0));
    }

    #[test]
    fn pipeline_wavefront_serializes() {
        // Rank r waits for r-1, computes, then releases r+1 — a LU-SGS
        // style pipeline. Makespan ≈ sum of stages, not max.
        let n = 4usize;
        let stage = 0.25;
        let mut progs = Vec::new();
        for r in 0..n {
            let mut p = Vec::new();
            if r > 0 {
                p.push(Op::Recv {
                    from: r - 1,
                    tag: 42,
                });
            }
            p.push(Op::Compute(stage));
            if r + 1 < n {
                p.push(Op::Send {
                    to: r + 1,
                    bytes: 8192,
                    tag: 42,
                });
            }
            progs.push(p);
        }
        let out = simulate_on(&progs, &place(n as u32), &fabric(), &FaultPlan::none()).unwrap();
        assert!(out.makespan >= n as f64 * stage);
        assert!(out.makespan < n as f64 * stage + 0.01);
    }

    #[test]
    fn mismatched_placement_is_a_typed_error() {
        let progs = vec![vec![Op::Compute(1.0)]];
        let err = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap_err();
        assert_eq!(
            err,
            SimError::PlacementMismatch {
                programs: 1,
                placements: 2
            }
        );
        assert!(err
            .to_string()
            .contains("one CPU placement per rank program"));
    }

    // ---- fault-plan behaviour ----

    /// A ring of send/recv pairs with some compute, n ranks.
    fn ring_progs(n: usize, bytes: u64) -> Vec<Vec<Op>> {
        (0..n)
            .map(|r| {
                vec![
                    Op::Compute(1e-4),
                    Op::Send {
                        to: (r + 1) % n,
                        bytes,
                        tag: 1,
                    },
                    Op::Recv {
                        from: (r + n - 1) % n,
                        tag: 1,
                    },
                ]
            })
            .collect()
    }

    #[test]
    fn zero_fault_plan_is_bit_identical() {
        let progs = ring_progs(8, 65536);
        // A seeded plan that drops nothing matches the fault-free one.
        let base = simulate_on(&progs, &place(8), &fabric(), &FaultPlan::none()).unwrap();
        let planned = simulate_on(&progs, &place(8), &fabric(), &FaultPlan::with_drops(5, 0.0));
        assert_eq!(base, planned.unwrap());
    }

    #[test]
    fn drops_inflate_makespan_monotonically() {
        let progs = ring_progs(16, 1 << 16);
        let mk = |p: f64| {
            simulate_on(&progs, &place(16), &fabric(), &FaultPlan::with_drops(11, p)).unwrap()
        };
        let clean = mk(0.0);
        let mut prev = clean.makespan;
        for p in [0.01, 0.05, 0.2, 0.5] {
            let out = mk(p);
            assert!(out.makespan >= prev, "p={p}: {} < {prev}", out.makespan);
            prev = out.makespan;
        }
        // At 50% drop probability some message must have been dropped
        // and its retransmission delay must show in the stats.
        let heavy = mk(0.5);
        assert!(heavy.faults.dropped_messages > 0);
        assert!(heavy.faults.retransmit_delay > 0.0);
        assert!(heavy.makespan > clean.makespan);
    }

    #[test]
    fn indexed_mailbox_matches_reference_mailbox() {
        // The flat channel table and slab must be bit-identical to the
        // original HashMap mailbox, including under faults (sequence
        // numbers feed the drop sampling) and exchanges. Only program
        // messages ride the mailbox: a blocked exchange keeps
        // `half_sent` on its rank's state.
        let progs = mixed_progs(8);
        for plan in [FaultPlan::none(), FaultPlan::with_drops(7, 0.3)] {
            let indexed = simulate_on(&progs, &place(8), &fabric(), &plan).unwrap();
            let reference = run_partitioned::<_, ReferenceMailbox, _, _>(
                &progs,
                &place(8),
                &fabric(),
                &plan,
                &mut columbia_obs::NullTracer,
                &[0; 8],
                None,
            )
            .unwrap();
            assert_eq!(indexed, reference);
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let progs = ring_progs(12, 4096);
        let a = simulate_on(
            &progs,
            &place(12),
            &fabric(),
            &FaultPlan::with_drops(5, 0.3),
        )
        .unwrap();
        let b = simulate_on(
            &progs,
            &place(12),
            &fabric(),
            &FaultPlan::with_drops(5, 0.3),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn slow_cpu_stretches_its_compute() {
        let progs = vec![vec![Op::Compute(1.0)], vec![Op::Compute(1.0)]];
        let plan = FaultPlan::none().slow_cpu(CpuId::new(0, 1), 2.5);
        let out = simulate_on(&progs, &place(2), &fabric(), &plan).unwrap();
        assert!((out.ranks[0].total - 1.0).abs() < 1e-12);
        assert!((out.ranks[1].total - 2.5).abs() < 1e-12);
    }

    #[test]
    fn degraded_link_slows_cross_node_traffic_only() {
        let cfg = ClusterConfig::uniform(NodeKind::Bx2b, 2);
        let f = ClusterFabric::new(
            cfg,
            InterNodeFabric::NumaLink4,
            crate::fabric::MptVersion::Beta,
            4,
        );
        let cpus = vec![
            CpuId::new(0, 0),
            CpuId::new(0, 1),
            CpuId::new(1, 0),
            CpuId::new(1, 1),
        ];
        let progs = ring_progs(4, 1 << 20);
        let clean = simulate_on(&progs, &cpus, &f, &FaultPlan::none()).unwrap();
        let plan = FaultPlan::none().degrade_link(NodeId(0), NodeId(1), 4.0, 0.25);
        let slow = simulate_on(&progs, &cpus, &f, &plan).unwrap();
        assert!(slow.makespan > clean.makespan);
    }

    #[test]
    fn watchdog_fires_on_tiny_budget() {
        let progs = ring_progs(8, 1024);
        let plan = FaultPlan::none().with_event_budget(3);
        let err = simulate_on(&progs, &place(8), &fabric(), &plan).unwrap_err();
        let SimError::WatchdogTimeout { events, budget } = err else {
            panic!("expected watchdog, got {err:?}");
        };
        assert_eq!(budget, 3);
        assert!(events > budget);
    }

    #[test]
    fn watchdog_budget_allows_normal_runs() {
        let progs = ring_progs(8, 1024);
        // Generous budget: the run completes and reports its events.
        let plan = FaultPlan::none().with_event_budget(10_000);
        let out = simulate_on(&progs, &place(8), &fabric(), &plan).unwrap();
        assert!(out.faults.events > 0);
        assert!(out.faults.events <= 10_000);
    }

    fn two_node_fabric_and_cpus(per_node: u32) -> (ClusterFabric, Vec<CpuId>) {
        let cfg = ClusterConfig::uniform(NodeKind::Bx2b, 2);
        let f = ClusterFabric::new(
            cfg,
            InterNodeFabric::InfiniBand,
            crate::fabric::MptVersion::Beta,
            per_node * 2,
        );
        let cpus: Vec<CpuId> = (0..per_node * 2)
            .map(|i| CpuId::new(i / per_node, i % per_node))
            .collect();
        (f, cpus)
    }

    #[test]
    fn connection_exhaustion_fails_under_fail_policy() {
        let (f, cpus) = two_node_fabric_and_cpus(8);
        // 8 procs/node over 2 nodes need 8² = 64 connections; allow 32.
        let plan = FaultPlan::none().with_connection_limit(ConnectionLimit {
            cards_per_node: 1,
            connections_per_card: 32,
            policy: ConnectionPolicy::Fail,
        });
        let progs = ring_progs(16, 4096);
        let err = simulate_on(&progs, &cpus, &f, &plan).unwrap_err();
        let SimError::ConnectionsExhausted {
            procs_on_node,
            required,
            available,
            ..
        } = err
        else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(procs_on_node, 8);
        assert_eq!(required, 64);
        assert_eq!(available, 32);
    }

    #[test]
    fn connection_exhaustion_multiplexes_gracefully() {
        let (f, cpus) = two_node_fabric_and_cpus(8);
        let progs = ring_progs(16, 4096);
        let clean = simulate_on(&progs, &cpus, &f, &FaultPlan::none()).unwrap();
        let plan = FaultPlan::none().with_connection_limit(ConnectionLimit {
            cards_per_node: 1,
            connections_per_card: 32,
            policy: ConnectionPolicy::Multiplex {
                queue_penalty: 2.0e-6,
            },
        });
        let muxed = simulate_on(&progs, &cpus, &f, &plan).unwrap();
        assert!(muxed.faults.multiplexed_messages > 0);
        assert!(muxed.faults.multiplex_delay > 0.0);
        assert!(muxed.faults.oversubscription > 1.0);
        assert!(muxed.makespan > clean.makespan);
    }

    // ---- SimOutcome edge cases ----

    #[test]
    fn zero_rank_outcome_has_zero_comm_stats() {
        let out = simulate_on(&Vec::<Vec<Op>>::new(), &[], &fabric(), &FaultPlan::none()).unwrap();
        assert!(out.ranks.is_empty());
        assert_eq!(out.mean_comm(), 0.0);
        assert_eq!(out.max_comm(), 0.0);
        assert_eq!(out.makespan, 0.0);
    }

    #[test]
    fn single_rank_mean_equals_max() {
        let progs = vec![vec![
            Op::Compute(0.5),
            Op::Send {
                to: 0,
                bytes: 1024,
                tag: 9,
            },
            Op::Recv { from: 0, tag: 9 },
        ]];
        let out = simulate_on(&progs, &place(1), &fabric(), &FaultPlan::none()).unwrap();
        assert!(out.ranks[0].comm > 0.0);
        assert_eq!(out.mean_comm(), out.max_comm());
        assert_eq!(out.mean_comm(), out.ranks[0].comm);
    }

    #[test]
    fn all_compute_program_has_no_comm() {
        let progs: Vec<Vec<Op>> = (0..4)
            .map(|r| vec![Op::Compute(0.1 * (r + 1) as f64), Op::Compute(0.2)])
            .collect();
        let out = simulate_on(&progs, &place(4), &fabric(), &FaultPlan::none()).unwrap();
        assert_eq!(out.mean_comm(), 0.0);
        assert_eq!(out.max_comm(), 0.0);
        assert!((out.makespan - 0.6).abs() < 1e-12);
    }

    // ---- tracer behaviour ----

    use columbia_obs::{RecordingTracer, SpanKind, Track};

    /// A workload exercising every op kind: compute, send/recv ring,
    /// exchange pairs, and two collectives.
    fn mixed_progs(n: usize) -> Vec<Vec<Op>> {
        (0..n)
            .map(|r| {
                vec![
                    Op::Compute(1e-4 * (1.0 + r as f64)),
                    Op::Send {
                        to: (r + 1) % n,
                        bytes: 32768,
                        tag: 1,
                    },
                    Op::Recv {
                        from: (r + n - 1) % n,
                        tag: 1,
                    },
                    Op::Barrier,
                    Op::Exchange {
                        with: r ^ 1,
                        bytes: 4096,
                        tag: 50 + (r | 1) as u64,
                    },
                    Op::AllReduce { bytes: 64 },
                ]
            })
            .collect()
    }

    #[test]
    fn recording_tracer_does_not_perturb_the_outcome() {
        let progs = mixed_progs(8);
        let plan = FaultPlan::with_drops(7, 0.3);
        let plain = simulate_on(&progs, &place(8), &fabric(), &plan).unwrap();
        let mut tracer = RecordingTracer::new();
        let traced = simulate(
            &progs,
            &place(8),
            &fabric(),
            &plan,
            &mut tracer,
            &RunContext::new(1),
        )
        .unwrap();
        assert_eq!(plain, traced);
        let bundle = tracer.into_bundle("test");
        assert!(!bundle.spans.is_empty());
        assert_eq!(bundle.profile.ranks.len(), 8);
    }

    #[test]
    fn cpu_spans_tile_each_rank_timeline() {
        let progs = mixed_progs(8);
        let mut tracer = RecordingTracer::new();
        let out = simulate(
            &progs,
            &place(8),
            &fabric(),
            &FaultPlan::none(),
            &mut tracer,
            &RunContext::new(1),
        )
        .unwrap();
        let bundle = tracer.into_bundle("test");
        for (r, rank) in out.ranks.iter().enumerate() {
            let mut cursor = 0.0;
            let mut sum = 0.0;
            for s in bundle
                .spans
                .iter()
                .filter(|s| s.rank == r && s.kind.track() == Track::Cpu)
            {
                assert!(
                    s.start >= cursor - 1e-12,
                    "rank {r}: span {s:?} starts before {cursor}"
                );
                assert!(s.end >= s.start);
                cursor = s.end;
                sum += s.duration();
            }
            assert!(
                (sum - rank.total).abs() < 1e-9,
                "rank {r}: spans sum to {sum}, clock is {}",
                rank.total
            );
        }
    }

    #[test]
    fn causal_edges_join_spans_bit_exactly() {
        use columbia_obs::EdgeKind;
        let progs = mixed_progs(8);
        let plan = FaultPlan::with_drops(7, 0.3);
        let mut tracer = RecordingTracer::new();
        let out = simulate(
            &progs,
            &place(8),
            &fabric(),
            &plan,
            &mut tracer,
            &RunContext::new(1),
        )
        .unwrap();
        let bundle = tracer.into_bundle("join test");
        // Placement is recorded for every rank.
        assert_eq!(bundle.rank_nodes.len(), 8);
        // Every blocking span's end is the arrival/release time of
        // exactly the edge that caused it — the analyzer joins on the
        // raw f64 bits, so the match must be exact, not approximate.
        for s in &bundle.spans {
            let want = match s.kind {
                SpanKind::RecvWait => EdgeKind::Message,
                SpanKind::Collective => EdgeKind::Collective,
                _ => continue,
            };
            assert!(
                bundle.edges.iter().any(|e| e.kind == want
                    && e.dst_rank == s.rank
                    && e.dst_time.to_bits() == s.end.to_bits()),
                "no {want:?} edge arriving at rank {} t={} (bits) for span {s:?}",
                s.rank,
                s.end
            );
        }
        // One message edge per delivered message, each carrying its
        // payload and a nonnegative fault tail bounded by the hop.
        let messages: Vec<_> = bundle
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Message)
            .collect();
        assert_eq!(
            messages.len() as u64,
            bundle.metrics.counter("messages_sent")
        );
        for e in &messages {
            assert!(e.bytes > 0);
            assert!(e.wire_time > 0.0);
            assert!(e.fault_delay() >= 0.0);
            assert!(e.src_time < e.dst_time);
        }
        assert!(
            messages.iter().any(|e| e.fault_delay() > 0.0),
            "the drop plan must surface as fault delay on some edge"
        );
        // And the analyzer closes the loop: the extracted critical
        // path accounts for the whole makespan.
        let analysis = columbia_obs::analyze(&bundle);
        let cp = &analysis.critical_path;
        assert!(!cp.truncated);
        assert!(
            (cp.total - out.makespan).abs() < 1e-9 * out.makespan.max(1.0),
            "critical path covers {} of makespan {}",
            cp.total,
            out.makespan
        );
        assert!(cp.breakdown.fault_retransmit > 0.0);
    }

    #[test]
    fn faults_surface_as_net_spans_and_message_metrics() {
        let progs = ring_progs(16, 1 << 16);
        let plan = FaultPlan::with_drops(11, 0.5);
        let mut tracer = RecordingTracer::new();
        let out = simulate(
            &progs,
            &place(16),
            &fabric(),
            &plan,
            &mut tracer,
            &RunContext::new(1),
        )
        .unwrap();
        assert!(out.faults.dropped_messages > 0);
        let bundle = tracer.into_bundle("test");
        let backoffs = bundle
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::RetransmitBackoff)
            .count() as u64;
        assert_eq!(backoffs, out.faults.dropped_messages);
        assert_eq!(bundle.metrics.counter("messages_sent"), 16);
        assert_eq!(
            bundle.metrics.counter("messages_dropped"),
            out.faults.dropped_messages
        );
        assert_eq!(
            bundle.metrics.counter("retransmits"),
            out.faults.drop_events
        );
        assert_eq!(bundle.metrics.counter("bytes_sent"), 16 * (1 << 16));
        let lat = bundle.metrics.histogram("message_latency_seconds").unwrap();
        assert_eq!(lat.count(), 16);
    }

    #[test]
    fn multiplexed_run_records_occupancy_gauge_and_queue_spans() {
        let (f, cpus) = two_node_fabric_and_cpus(8);
        let plan = FaultPlan::none().with_connection_limit(ConnectionLimit {
            cards_per_node: 1,
            connections_per_card: 32,
            policy: ConnectionPolicy::Multiplex {
                queue_penalty: 2.0e-6,
            },
        });
        let progs = ring_progs(16, 4096);
        let mut tracer = RecordingTracer::new();
        let out = simulate(&progs, &cpus, &f, &plan, &mut tracer, &RunContext::new(1)).unwrap();
        assert!(out.faults.multiplexed_messages > 0);
        let bundle = tracer.into_bundle("test");
        let mux_spans = bundle
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::MultiplexQueue)
            .count() as u64;
        assert_eq!(mux_spans, out.faults.multiplexed_messages);
        let occ = bundle.metrics.gauge_value("connection_occupancy").unwrap();
        assert!((occ - out.faults.oversubscription).abs() < 1e-12);
        // Cross-node traffic shows up in the per-link byte ledger.
        assert!(bundle
            .metrics
            .links_by_bytes()
            .iter()
            .any(|((a, b), bytes)| a != b && *bytes > 0));
    }

    #[test]
    fn profile_attribution_matches_engine_accounting() {
        let progs = mixed_progs(8);
        let mut tracer = RecordingTracer::new();
        let out = simulate(
            &progs,
            &place(8),
            &fabric(),
            &FaultPlan::none(),
            &mut tracer,
            &RunContext::new(1),
        )
        .unwrap();
        let profile = tracer.into_bundle("test").profile;
        assert!((profile.makespan - out.makespan).abs() < 1e-9);
        for (r, rank) in out.ranks.iter().enumerate() {
            let p = &profile.ranks[r];
            assert!((p.compute - rank.compute).abs() < 1e-9, "rank {r} compute");
            // The engine's "comm" bundles active comm and blocked wait;
            // the profile splits them.
            assert!((p.comm + p.wait - rank.comm).abs() < 1e-9, "rank {r} comm");
            assert!((p.accounted() - rank.total).abs() < 1e-9, "rank {r} total");
        }
        // Two collectives per rank ⇒ three phases (last may be empty).
        assert!(profile.phases.len() >= 2);
    }

    #[test]
    fn within_budget_placement_pays_no_multiplex_penalty() {
        let (f, cpus) = two_node_fabric_and_cpus(4);
        // 4 procs/node need 16 connections; budget 1024 — plenty.
        let plan = FaultPlan::none().with_connection_limit(ConnectionLimit {
            cards_per_node: 1,
            connections_per_card: 1024,
            policy: ConnectionPolicy::Multiplex {
                queue_penalty: 2.0e-6,
            },
        });
        let progs = ring_progs(8, 4096);
        let out = simulate_on(&progs, &cpus, &f, &plan).unwrap();
        assert_eq!(out.faults.multiplexed_messages, 0);
        assert!(out.faults.oversubscription <= 1.0);
        assert!(out.faults.oversubscription > 0.0);
    }

    /// The `HashMap` fold `connection_check` counted ranks per node with:
    /// the oracle for its run-length count.
    fn connection_check_by_hash_map(
        cpus: &[CpuId],
        plan: &FaultPlan,
    ) -> Result<(f64, f64), SimError> {
        let Some(limit) = &plan.connection_limit else {
            return Ok((0.0, 0.0));
        };
        let mut per_node: std::collections::HashMap<u32, usize> = Default::default();
        for c in cpus {
            *per_node.entry(c.node.0).or_insert(0) += 1;
        }
        let n_nodes = per_node.len();
        if n_nodes < 2 {
            return Ok((0.0, 0.0));
        }
        let available = limit.budget();
        let mut worst_ratio = 0.0f64;
        let mut nodes: Vec<(u32, usize)> = per_node.into_iter().collect();
        nodes.sort_unstable();
        for (node, procs) in nodes {
            let required = connections_required(procs, n_nodes);
            let ratio = required as f64 / available as f64;
            if required > available {
                if let ConnectionPolicy::Fail = limit.policy {
                    return Err(SimError::ConnectionsExhausted {
                        node,
                        procs_on_node: procs,
                        required,
                        available,
                    });
                }
            }
            worst_ratio = worst_ratio.max(ratio);
        }
        let delay = match limit.policy {
            ConnectionPolicy::Multiplex { queue_penalty } if worst_ratio > 1.0 => {
                queue_penalty * (worst_ratio - 1.0)
            }
            _ => 0.0,
        };
        Ok((delay, worst_ratio))
    }

    /// Interleaved placements (rank `r` on node `r % 4`, or `3 - r % 4`,
    /// so the heaviest node is not the first one met) and a node-major
    /// one, at budgets below, at and above the need, under both
    /// policies: the same node, counts, delay and ratio as the oracle.
    #[test]
    fn connection_check_matches_the_hash_map_fold() {
        for ranks in [1u32, 2, 5, 8, 13, 64, 1021] {
            let placements: [Vec<CpuId>; 3] = [
                (0..ranks).map(|r| CpuId::new(r % 4, r / 4)).collect(),
                (0..ranks).map(|r| CpuId::new(3 - r % 4, r / 4)).collect(),
                (0..ranks).map(|r| CpuId::new(r * 4 / ranks, r)).collect(),
            ];
            for cpus in &placements {
                // A budget of 12 is the need of 8 ranks (2 per node) and
                // 196,608 that of the heaviest node of 1,021 (256 ranks).
                for per_card in [1u64, 4, 27, 192, 65_536, 1 << 20] {
                    for policy in [
                        ConnectionPolicy::Fail,
                        ConnectionPolicy::Multiplex {
                            queue_penalty: 2.0e-6,
                        },
                    ] {
                        let plan = FaultPlan::none().with_connection_limit(ConnectionLimit {
                            cards_per_node: 3,
                            connections_per_card: per_card,
                            policy,
                        });
                        assert_eq!(
                            connection_check(cpus, &plan),
                            connection_check_by_hash_map(cpus, &plan),
                            "{ranks} ranks, {per_card} per card, {policy:?}"
                        );
                    }
                }
            }
        }
    }
}
