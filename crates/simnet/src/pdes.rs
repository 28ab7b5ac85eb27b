//! The engine's event loop: conservative parallel discrete-event
//! simulation (PDES) over rank partitions.
//!
//! `--jobs` parallelizes *across* sweep points; this loop can also
//! parallelize *within* one simulation. [`crate::engine::simulate`]
//! hands it a partition map: at one thread, or on a one-node placement,
//! a single partition holds every rank; otherwise there is one
//! partition per node (the same node map `runtime::placement` computes —
//! the engine reads it off `cpus[r].node`). Each partition gets its own
//! runnable queue, rank states, and mailbox, so a partition can execute
//! its ranks' programs without touching any other partition's state.
//!
//! **Rounds.** Within a round every partition runs its ranks until each
//! is finished or blocked: on a receive whose channel is empty, or at a
//! collective. A message to another partition is staged in a lane and
//! not delivered during the round. At the round barrier a
//! single-threaded leader drains every lane into its destination
//! mailbox, waking the receivers, and releases any collective all `n`
//! ranks have reached. The run ends when a round leaves every runnable
//! queue empty. No round computes a time window: a message's arrival is
//! fixed when it is posted, so delivering it a round later changes when
//! the receiver is examined, never what it computes. No partition ever
//! acts on state another partition could still change, so no rollback
//! machinery is needed.
//!
//! **Determinism.** Outcomes are the same bits for every partition map,
//! and so at any thread count, because nothing observable depends on
//! scheduling:
//!
//! * *Matching*: each `(from, to, tag)` channel has exactly one sender,
//!   so its FIFO order is the sender's program order regardless of when
//!   messages are drained; receives pop in receiver program order.
//!   Cross-partition lanes are drained in canonical (sender-partition,
//!   slot) order, which preserves per-channel FIFO.
//! * *Clocks*: a receive completes at `max(receiver clock, arrival)`
//!   and arrival is computed at post time from the sender's clock —
//!   both pure functions of program state. Collective start times are
//!   `max` folds over all clocks (order-independent) or the root's
//!   clock, evaluated by the leader.
//! * *Faults*: drop sampling keys off `(from, to, tag, seq)` and the
//!   per-channel `seq` lives with the sender's partition; `f64` fault
//!   sums accumulate per rank and fold in rank order.
//! * *Traces*: each event has one owner rank, and every partition
//!   stages each rank's stream in program order; the streams are
//!   replayed in rank order (see `columbia_obs::canon`).
//!
//! The one schedule-dependent quantity is the scheduler-event *count*
//! (`FaultStats::events`, re-examinations of blocked ops). Within a
//! round each partition runs only on its own state, so the count
//! depends only on the partition map: it is the same at every thread
//! count above one, and may differ from the one-partition count. It is
//! reported for observability, never printed in reports. If the summed
//! count crosses the watchdog budget, the run fails with
//! `events = budget + 1` — a single partition's counter at its first
//! violation — whatever the partition map.
//!
//! **Threads.** A round runs its partitions on `threads` workers at
//! most, each over a contiguous chunk of partitions, spawned per round
//! by `std::thread::scope`. With one worker (one thread or one
//! partition) the rounds run on the calling thread and nothing is
//! spawned. On a 2-vCPU host more threads are still no faster than one
//! in the median. Over five runs of `cargo bench --bench simnet`, the
//! 10,240-rank Columbia point took 4.3–6.9 ms on one thread;
//! `speedup2` read 0.62–1.17 (median 0.85) and `speedup4` 0.65–1.08.
//! Its twenty partitions take 12 rounds where one partition takes 6,
//! do about a quarter more work in total, and add 1.7–2.1 ms of
//! single-threaded coordination. ROADMAP item 4 tracks whether the
//! multi-partition path stays.
//!
//! Collective op consistency: like MPI, all ranks must issue the same
//! collective sequence. Each partition compares its arrivals' ops with
//! its first arrival's, the leader compares the partitions' first ops,
//! and a difference fails with [`SimError::CollectiveMismatch`], the
//! same error for every partition map.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use columbia_machine::cluster::CpuId;
use columbia_obs::{EventBuffer, NullTracer, Tracer};

use crate::engine::{
    apply_collective_release, apply_compute, charge_send, collective_cost, collective_mismatch,
    collective_payload, collective_source, connection_check, finish_recv, simulate, FaultLedger,
    Op, RankResult, RankState, SimOutcome,
};
use crate::error::{DeadlockReport, PendingOp, SimError};
use crate::fabric::Fabric;
use crate::fault::{FaultPlan, FaultStats, FaultyFabric};
use crate::mailbox::MailboxOps;
use crate::program::Programs;

/// Process-global simulation thread count (1 = serial), set by `repro
/// --sim-threads`. The engine never reads it: `runtime::exec` and the
/// Columbia experiment pass it to [`simulate`] as `threads`.
static SIM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Set the number of threads single-run simulations may use. Values
/// below 1 are clamped to 1 (serial).
pub fn set_sim_threads(n: usize) {
    SIM_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The current single-run simulation thread count.
pub fn sim_threads() -> usize {
    SIM_THREADS.load(Ordering::Relaxed)
}

/// One staged cross-partition message, parked in a per-partition-pair
/// lane until the round barrier drains it.
#[derive(Debug, Clone, Copy)]
struct Staged {
    from: usize,
    to: usize,
    tag: u64,
    arrival: f64,
}

/// Per-partition staging sink for trace events: the real
/// [`EventBuffer`] when tracing, the [`NullTracer`] (all hooks
/// compile away) when not.
pub(crate) trait StageSink: Tracer + Send {
    fn for_ranks(n: usize) -> Self;
    fn replay_rank_to<T: Tracer + ?Sized>(&self, r: usize, out: &mut T);
}

impl StageSink for NullTracer {
    fn for_ranks(_n: usize) -> Self {
        NullTracer
    }
    fn replay_rank_to<T: Tracer + ?Sized>(&self, _r: usize, _out: &mut T) {}
}

impl StageSink for EventBuffer {
    fn for_ranks(n: usize) -> Self {
        EventBuffer::new(n)
    }
    fn replay_rank_to<T: Tracer + ?Sized>(&self, r: usize, out: &mut T) {
        self.replay_rank(r, out);
    }
}

/// One partition's ranks plus everything needed to run them
/// independently between round barriers.
struct Partition<B, M> {
    /// The states of the global ranks owned, ascending; a rank's local
    /// index is its position here.
    states: Vec<RankState>,
    ledgers: Vec<FaultLedger>,
    /// Global-rank-keyed; holds only channels whose *receiver* lives
    /// here (plus this partition's send-sequence counters — each
    /// channel has one sender, and the sender's partition owns its
    /// `seq` space).
    mailbox: M,
    /// Local indices of runnable ranks.
    runnable: VecDeque<usize>,
    in_queue: Vec<bool>,
    /// Last collective sequence each local rank joined: an O(1)
    /// arrival dedup for a rank re-examined at the same collective.
    coll_gen: Vec<usize>,
    /// Local ranks arrived at the current collective frontier.
    coll_arrived: usize,
    /// The first local arrival's op at the frontier, and whether a later
    /// local arrival issued a different one.
    coll_first: Option<Op>,
    coll_mismatch: bool,
    /// Outbound lanes, one per destination partition. The `Vec`s are
    /// arena-reused across rounds (drained and handed back with their
    /// capacity), so steady-state staging allocates nothing.
    outbox: Vec<Vec<Staged>>,
    events: u64,
    over_budget: bool,
    /// Per-rank trace staging, merged canonically at the end.
    buf: B,
}

impl<B: StageSink, M: MailboxOps> Partition<B, M> {
    /// A partition owning the ranks of `states`, all runnable, out of
    /// `n` ranks in `n_parts` partitions.
    fn new(states: Vec<RankState>, n: usize, n_parts: usize) -> Self {
        let k = states.len();
        Partition {
            states,
            ledgers: vec![FaultLedger::default(); k],
            mailbox: M::with_ranks(n),
            runnable: (0..k).collect(),
            in_queue: vec![true; k],
            coll_gen: vec![usize::MAX; k],
            coll_arrived: 0,
            coll_first: None,
            coll_mismatch: false,
            outbox: (0..n_parts).map(|_| Vec::new()).collect(),
            events: 0,
            over_budget: false,
            buf: B::for_ranks(n),
        }
    }
}

/// [`simulate`] untraced on `threads` node-partition workers — the same
/// result as [`crate::engine::simulate_on`], bit for bit.
pub fn simulate_parallel_on<P, F>(
    programs: &P,
    cpus: &[CpuId],
    fabric: &F,
    plan: &FaultPlan,
    threads: usize,
) -> Result<SimOutcome, SimError>
where
    P: Programs + ?Sized + Sync,
    F: Fabric + ?Sized + Sync,
{
    simulate(programs, cpus, fabric, plan, &mut NullTracer, threads)
}

/// Replay every rank's staged trace events into `tracer` in rank order:
/// per-rank streams are in program order in their owner partition's
/// buffer, so this yields the canonical stream for any partition map.
fn replay<T: Tracer, B, M>(partitions: &[Partition<B, M>], part_of: &[u32], tracer: &mut T)
where
    B: StageSink,
{
    if tracer.enabled() {
        for (r, &p) in part_of.iter().enumerate() {
            partitions[p as usize].buf.replay_rank_to(r, tracer);
        }
    }
}

/// The rounds of [`simulate`] over the partitions `part_of` assigns,
/// on at most `threads` workers. The drained trace stream is the same
/// for every partition map.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_partitioned<T, M, P, F, B>(
    programs: &P,
    cpus: &[CpuId],
    base_fabric: &F,
    plan: &FaultPlan,
    tracer: &mut T,
    part_of: &[u32],
    n_parts: usize,
    threads: usize,
) -> Result<SimOutcome, SimError>
where
    T: Tracer,
    M: MailboxOps + Send,
    P: Programs + ?Sized + Sync,
    F: Fabric + ?Sized + Sync,
    B: StageSink,
{
    let n = cpus.len();
    let (mux_delay, oversubscription) = connection_check(cpus, plan)?;
    if tracer.enabled() {
        let rank_nodes: Vec<u32> = cpus.iter().map(|c| c.node.0).collect();
        tracer.topology(&rank_nodes);
        if plan.connection_limit.is_some() {
            tracer.gauge("connection_occupancy", oversubscription);
        }
    }
    let faulty = FaultyFabric::new(base_fabric, plan);
    let fabric = &faulty;
    let event_budget = plan
        .event_budget
        .unwrap_or_else(|| 10_000 + 64 * programs.total_ops() as u64);

    let mut members: Vec<Vec<RankState>> = (0..n_parts)
        .map(|_| Vec::with_capacity(n / n_parts))
        .collect();
    // Each rank's (partition, local index), looked up together.
    let mut slot_of: Vec<(u32, u32)> = Vec::with_capacity(n);
    for (rank, &p) in part_of.iter().enumerate() {
        let states = &mut members[p as usize];
        slot_of.push((p, states.len() as u32));
        states.push(RankState {
            rank,
            ..RankState::default()
        });
    }
    let mut partitions: Vec<Partition<B, M>> = members
        .into_iter()
        .map(|states| Partition::new(states, n, n_parts))
        .collect();
    let slot_of = &slot_of[..];
    let state_of = |partitions: &[Partition<B, M>], r: usize| -> RankState {
        let (p, li) = slot_of[r];
        partitions[p as usize].states[li as usize]
    };

    // Rounds: run every partition until it is blocked, then a
    // single-threaded leader phase drains lanes, resolves collectives,
    // and decides progress.
    let workers = threads.clamp(1, n_parts);
    let chunk = n_parts.div_ceil(workers);
    let run_chunk = |first: usize, parts: &mut [Partition<B, M>]| {
        for (k, part) in parts.iter_mut().enumerate() {
            run_until_blocked(
                part,
                (first + k) as u32,
                programs,
                cpus,
                fabric,
                plan,
                slot_of,
                mux_delay,
                event_budget,
            );
        }
    };
    loop {
        if workers == 1 {
            run_chunk(0, &mut partitions);
        } else {
            std::thread::scope(|scope| {
                for (c, parts) in partitions.chunks_mut(chunk).enumerate() {
                    scope.spawn(move || run_chunk(c * chunk, parts));
                }
            });
        }

        // Watchdog: a lone partition stops at `events = budget + 1`;
        // report that whenever the summed count crosses the budget, so
        // the error is the same for every partition map (the trace
        // prefix on this path is not).
        let events: u64 = partitions.iter().map(|p| p.events).sum();
        if events > event_budget || partitions.iter().any(|p| p.over_budget) {
            replay(&partitions, part_of, tracer);
            return Err(SimError::WatchdogTimeout {
                events: event_budget + 1,
                budget: event_budget,
            });
        }

        // Drain cross-partition lanes in canonical (sender-partition,
        // slot) order. Every channel has a single sender, so this
        // preserves per-channel FIFO = sender program order.
        for src in 0..n_parts {
            for dst in 0..n_parts {
                if src == dst {
                    continue;
                }
                let mut lane = std::mem::take(&mut partitions[src].outbox[dst]);
                let dst_part = &mut partitions[dst];
                for m in lane.drain(..) {
                    dst_part.mailbox.push(m.from, m.to, m.tag, m.arrival);
                    let li = slot_of[m.to].1 as usize;
                    if !dst_part.in_queue[li] {
                        dst_part.runnable.push_back(li);
                        dst_part.in_queue[li] = true;
                    }
                }
                // Hand the (empty) lane back with its capacity intact.
                partitions[src].outbox[dst] = lane;
            }
        }

        // Collective rendezvous: the partition-local O(1) arrival
        // counters sum to `n` exactly when every rank sits at the
        // collective.
        let arrived: usize = partitions.iter().map(|p| p.coll_arrived).sum();
        if n > 0 && arrived == n {
            // Every partition holds ranks, so every `coll_first` is set.
            let op = partitions[0]
                .coll_first
                .expect("every rank is at the collective");
            if partitions
                .iter()
                .any(|p| p.coll_mismatch || p.coll_first != Some(op))
            {
                replay(&partitions, part_of, tracer);
                let seq = state_of(&partitions, 0).coll_seq;
                return Err(collective_mismatch(n, seq, |r| {
                    programs
                        .op(r, state_of(&partitions, r).pc)
                        .expect("rank is at a collective")
                }));
            }
            let start = match op {
                Op::Bcast { root, .. } => state_of(&partitions, root).clock,
                _ => partitions
                    .iter()
                    .flat_map(|p| &p.states)
                    .map(|s| s.clock)
                    .fold(0.0, f64::max),
            };
            let cost = collective_cost(op, fabric, cpus);
            let end = start + cost;
            let (coll_src, coll_bytes) = if tracer.enabled() {
                (
                    collective_source(op, (0..n).map(|r| state_of(&partitions, r).clock)),
                    collective_payload(op),
                )
            } else {
                (0, 0)
            };
            for part in &mut partitions {
                for (li, state) in part.states.iter_mut().enumerate() {
                    let r = state.rank;
                    apply_collective_release(
                        &mut part.buf,
                        state,
                        r,
                        start,
                        cost,
                        end,
                        coll_src,
                        coll_bytes,
                    );
                    if !part.in_queue[li] {
                        part.runnable.push_back(li);
                        part.in_queue[li] = true;
                    }
                }
                part.coll_arrived = 0;
                part.coll_first = None;
                part.coll_mismatch = false;
            }
        }

        if partitions.iter().all(|p| p.runnable.is_empty()) {
            // Quiescent with nothing drained and no collective ready:
            // the maximal fixpoint — either everyone finished or this is
            // a genuine deadlock.
            break;
        }
    }

    replay(&partitions, part_of, tracer);

    let mut ranks = vec![RankResult::default(); n];
    let mut stuck: Vec<PendingOp> = Vec::new();
    for part in &partitions {
        for s in &part.states {
            let r = s.rank;
            ranks[r] = RankResult {
                total: s.clock,
                compute: s.compute,
                comm: s.comm,
            };
            if let Some(op) = programs.op(r, s.pc) {
                stuck.push(PendingOp {
                    rank: r,
                    pc: s.pc,
                    waiting_on: op.waiting_on(),
                    op,
                });
            }
        }
    }
    if !stuck.is_empty() {
        stuck.sort_unstable_by_key(|p| p.rank);
        return Err(SimError::Deadlock(DeadlockReport { stuck }));
    }

    let mut stats = FaultStats {
        oversubscription,
        ..FaultStats::default()
    };
    for &(p, li) in slot_of {
        partitions[p as usize].ledgers[li as usize].fold_into(&mut stats);
    }
    stats.events = partitions.iter().map(|p| p.events).sum();

    let makespan = ranks.iter().map(|r| r.total).fold(0.0, f64::max);
    Ok(SimOutcome {
        ranks,
        makespan,
        faults: stats,
    })
}

/// Run partition `own`'s worklist until every local rank is blocked on
/// remote input (an empty channel or a collective) or finished — the
/// worker half of a round.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_until_blocked<M, P, F, B>(
    part: &mut Partition<B, M>,
    own: u32,
    programs: &P,
    cpus: &[CpuId],
    fabric: &FaultyFabric<'_, F>,
    plan: &FaultPlan,
    slot_of: &[(u32, u32)],
    mux_delay: f64,
    event_budget: u64,
) where
    M: MailboxOps,
    P: Programs + ?Sized,
    F: Fabric + ?Sized,
    B: StageSink,
{
    // Each pop executes at least one op or blocks; total ops bound the
    // work, and the event budget catches any livelock regression in
    // the scheduler itself. The counter lives in a local on this hot
    // loop and is written back on every exit.
    let mut events = part.events;
    while let Some(li) = part.runnable.pop_front() {
        part.in_queue[li] = false;
        let r = part.states[li].rank;
        while let Some(op) = programs.op(r, part.states[li].pc) {
            events += 1;
            if events > event_budget {
                part.events = events;
                part.over_budget = true;
                return;
            }
            match op {
                Op::Compute(secs) => {
                    apply_compute(
                        &mut part.buf,
                        &mut part.states[li],
                        r,
                        secs * plan.compute_factor(cpus[r]),
                    );
                }
                Op::Send { to, bytes, tag } => {
                    post_send_partitioned(
                        part, fabric, plan, cpus, slot_of, mux_delay, own, li, r, to, bytes, tag,
                    );
                    part.states[li].pc += 1;
                }
                Op::Recv { from, tag } => match part.mailbox.pop(from, r, tag) {
                    Some(arrival) => finish_recv(&mut part.buf, &mut part.states[li], r, arrival),
                    None => break, // blocked: the send is remote or future
                },
                Op::Exchange { with, bytes, tag } => {
                    // Decompose into send + recv so the partner's
                    // schedule is honoured. `half_sent` records that the
                    // send half already went out, so a blocked exchange
                    // does not double-send on wake-up.
                    if !part.states[li].half_sent {
                        post_send_partitioned(
                            part, fabric, plan, cpus, slot_of, mux_delay, own, li, r, with, bytes,
                            tag,
                        );
                    }
                    let state = &mut part.states[li];
                    match part.mailbox.pop(with, r, tag) {
                        Some(arrival) => {
                            state.half_sent = false;
                            finish_recv(&mut part.buf, state, r, arrival);
                        }
                        None => {
                            state.half_sent = true;
                            break;
                        }
                    }
                }
                Op::Barrier | Op::AllReduce { .. } | Op::AllToAll { .. } | Op::Bcast { .. } => {
                    let seq = part.states[li].coll_seq;
                    if part.coll_gen[li] != seq {
                        part.coll_gen[li] = seq;
                        part.coll_arrived += 1;
                        part.coll_mismatch |= *part.coll_first.get_or_insert(op) != op;
                    }
                    // Always blocks here; the leader resolves the
                    // rendezvous at the round barrier once the arrival
                    // counters sum to `n`.
                    break;
                }
            }
        }
    }
    part.events = events;
}

/// Post one message from local rank `li` (global `r`) of partition
/// `own`: price and charge it via the shared [`charge_send`], then
/// deliver it locally (waking the receiver) or stage it into the
/// destination partition's lane. The send-sequence counter always comes
/// from the *sender's* mailbox, so fault sampling sees the same
/// `(from, to, tag, seq)` identities under every partition map.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn post_send_partitioned<M, F, B>(
    part: &mut Partition<B, M>,
    fabric: &FaultyFabric<'_, F>,
    plan: &FaultPlan,
    cpus: &[CpuId],
    slot_of: &[(u32, u32)],
    mux_delay: f64,
    own: u32,
    li: usize,
    r: usize,
    to: usize,
    bytes: u64,
    tag: u64,
) where
    M: MailboxOps,
    F: Fabric + ?Sized,
    B: StageSink,
{
    let seq = part.mailbox.next_seq(r, to, tag);
    let arrival = charge_send(
        &mut part.buf,
        fabric,
        plan,
        cpus,
        mux_delay,
        &mut part.ledgers[li],
        &mut part.states[li],
        r,
        to,
        bytes,
        tag,
        seq,
    );
    let (p, lt) = slot_of[to];
    if p == own {
        part.mailbox.push(r, to, tag, arrival);
        let lt = lt as usize;
        if !part.in_queue[lt] {
            part.runnable.push_back(lt);
            part.in_queue[lt] = true;
        }
    } else {
        part.outbox[p as usize].push(Staged {
            from: r,
            to,
            tag,
            arrival,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{CachedFabric, ClusterFabric, MptVersion};
    use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric};
    use columbia_machine::node::NodeKind;
    use columbia_obs::RecordingTracer;

    /// A 4-node InfiniBand cluster with cached pair-class tables, so
    /// more than one thread runs four partitions.
    fn four_node_fabric(ranks: u32) -> CachedFabric {
        let config = ClusterConfig::uniform(NodeKind::Bx2b, 4);
        CachedFabric::new(ClusterFabric::new(
            config,
            InterNodeFabric::InfiniBand,
            MptVersion::Beta,
            ranks,
        ))
    }

    /// `ranks_per_node * 4` CPUs spread over 4 nodes, ranks interleaved
    /// so ring neighbours usually live on different nodes.
    fn cpus_4_nodes(ranks_per_node: u32) -> Vec<CpuId> {
        (0..ranks_per_node * 4)
            .map(|r| CpuId::new(r % 4, r / 4))
            .collect()
    }

    /// Cross-node ring + collectives + exchange: exercises every op.
    fn mixed_programs(n: usize) -> Vec<Vec<Op>> {
        (0..n)
            .map(|r| {
                vec![
                    Op::Compute(1e-5 * (1.0 + r as f64)),
                    Op::Send {
                        to: (r + 1) % n,
                        bytes: 4096,
                        tag: 7,
                    },
                    Op::Recv {
                        from: (r + n - 1) % n,
                        tag: 7,
                    },
                    Op::Exchange {
                        with: r ^ 1,
                        bytes: 2048,
                        tag: 9,
                    },
                    Op::AllReduce { bytes: 64 },
                    Op::Compute(2e-6),
                    Op::Bcast {
                        root: 0,
                        bytes: 1 << 16,
                    },
                    Op::Barrier,
                ]
            })
            .collect()
    }

    fn assert_identical(
        programs: &[Vec<Op>],
        cpus: &[CpuId],
        fabric: &CachedFabric,
        plan: &FaultPlan,
        threads: usize,
    ) {
        // Everything but the scheduler-event count, which depends on the
        // partition map; `Debug` prints every `f64` exactly.
        let run = |threads| {
            let mut out = simulate_parallel_on(programs, cpus, fabric, plan, threads);
            if let Ok(o) = &mut out {
                o.faults.events = 0;
            }
            format!("{out:?}")
        };
        assert_eq!(run(1), run(threads));
    }

    #[test]
    fn cross_node_mixed_workload_is_bit_identical_at_many_thread_counts() {
        let cpus = cpus_4_nodes(3);
        let fabric = four_node_fabric(cpus.len() as u32);
        let programs = mixed_programs(cpus.len());
        for threads in [2, 3, 4, 7] {
            assert_identical(&programs, &cpus, &fabric, &FaultPlan::none(), threads);
        }
    }

    #[test]
    fn faulted_runs_are_bit_identical() {
        let cpus = cpus_4_nodes(2);
        let fabric = four_node_fabric(cpus.len() as u32);
        let programs = mixed_programs(cpus.len());
        let plan = FaultPlan::with_drops(42, 0.25);
        assert_identical(&programs, &cpus, &fabric, &plan, 4);
    }

    #[test]
    fn traced_runs_drain_the_identical_canonical_stream() {
        let cpus = cpus_4_nodes(2);
        let fabric = four_node_fabric(cpus.len() as u32);
        let programs = mixed_programs(cpus.len());
        let plan = FaultPlan::with_drops(7, 0.2);
        let mut serial = RecordingTracer::default();
        let mut parallel = RecordingTracer::default();
        let s = simulate(&programs, &cpus, &fabric, &plan, &mut serial, 1).unwrap();
        let p = simulate(&programs, &cpus, &fabric, &plan, &mut parallel, 4).unwrap();
        assert_eq!(s.makespan.to_bits(), p.makespan.to_bits());
        assert_eq!(serial.spans, parallel.spans);
        assert_eq!(serial.edges, parallel.edges);
        assert_eq!(serial.rank_nodes, parallel.rank_nodes);
        assert_eq!(serial.metrics, parallel.metrics);
    }

    #[test]
    fn single_node_placement_falls_back_to_serial() {
        // One populated node: one partition at any thread count, so the
        // rounds run on the calling thread and match the one-thread run.
        let config = ClusterConfig::uniform(NodeKind::Bx2b, 1);
        let fabric = CachedFabric::new(ClusterFabric::single_node(config));
        let cpus: Vec<CpuId> = (0..8).map(|c| CpuId::new(0, c)).collect();
        let programs = mixed_programs(cpus.len());
        assert_identical(&programs, &cpus, &fabric, &FaultPlan::none(), 4);
    }

    #[test]
    fn deadlock_reports_are_identical() {
        let cpus = cpus_4_nodes(1);
        let fabric = four_node_fabric(cpus.len() as u32);
        // Rank 0 waits on a message nobody sends; everyone else blocks
        // on the collective rank 0 never reaches.
        let mut programs = mixed_programs(cpus.len());
        programs[0].insert(0, Op::Recv { from: 1, tag: 999 });
        assert_identical(&programs, &cpus, &fabric, &FaultPlan::none(), 4);
    }

    #[test]
    fn watchdog_timeout_is_the_exact_serial_error() {
        let cpus = cpus_4_nodes(2);
        let fabric = four_node_fabric(cpus.len() as u32);
        let programs = mixed_programs(cpus.len());
        // Budget below the op count: both partition maps must trip it,
        // and the summed count is reported as one partition's counter at
        // its first violation.
        let plan = FaultPlan::none().with_event_budget(3);
        assert_identical(&programs, &cpus, &fabric, &plan, 4);
    }

    #[test]
    fn spmd_program_sets_run_parallel_too() {
        let cpus = cpus_4_nodes(2);
        let n = cpus.len();
        let fabric = four_node_fabric(n as u32);
        let programs = mixed_programs(n);
        let serial =
            crate::engine::simulate_on(&programs, &cpus, &fabric, &FaultPlan::none()).unwrap();
        let parallel =
            simulate_parallel_on(&programs, &cpus, &fabric, &FaultPlan::none(), 3).unwrap();
        assert_eq!(serial.makespan.to_bits(), parallel.makespan.to_bits());
    }

    #[test]
    fn sim_threads_global_round_trips_and_clamps() {
        set_sim_threads(0);
        assert_eq!(sim_threads(), 1);
        set_sim_threads(4);
        assert_eq!(sim_threads(), 4);
        set_sim_threads(1);
        assert_eq!(sim_threads(), 1);
    }
}
