//! Conservative parallel discrete-event simulation (PDES) of a single
//! run, bit-identical to the serial engine.
//!
//! `--jobs` parallelizes *across* sweep points; this tier parallelizes
//! *within* one simulation, whenever [`crate::engine::simulate`] is
//! given more than one thread. Ranks are partitioned by node (the same
//! node map `runtime::placement` computes — the engine reads it off
//! `cpus[r].node`), and each partition gets its own runnable queue,
//! rank states, and mailbox, so a partition can execute its ranks'
//! programs without touching any other partition's state.
//!
//! **Lookahead.** Parallelizing is sound because the fabric guarantees
//! a minimum cross-node latency `L > 0`
//! ([`Fabric::min_cross_node_latency`], served from `CachedFabric`'s
//! pair-class tables): no event on one node can affect another node
//! sooner than `L` after it is posted. Execution proceeds in *window
//! rounds*: within a round every partition runs its ranks until each is
//! blocked on remote input (a receive whose channel is empty, or a
//! collective); at the round barrier the leader advances the global
//! window edge `W = min(blocked clocks) + L`, drains every
//! cross-partition lane — which by then holds *every* message with
//! arrival `< W`, and in fact every message the quiescent partitions
//! can ever produce before new remote input — and resolves any
//! collective all `n` ranks have reached. No partition ever speculates
//! past `W` on state another partition could still change, so no
//! rollback machinery is needed.
//!
//! **Determinism.** Outcomes are bit-identical to the serial engine at
//! any thread count because nothing observable depends on scheduling:
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
//!   clock, evaluated identically by the leader.
//! * *Faults*: drop sampling keys off `(from, to, tag, seq)` and the
//!   per-channel `seq` lives with the sender's partition; `f64` fault
//!   sums accumulate per rank and fold in rank order in both engines.
//! * *Traces*: each event has one owner rank and both engines deliver
//!   per-rank streams in program order, merged in rank order (see
//!   `columbia_obs::canon`).
//!
//! The one schedule-dependent quantity is the scheduler-event *count*
//! (`FaultStats::events`, re-examinations of blocked ops) — it is
//! reported for observability, never printed in reports, and documented
//! as engine-dependent. If the summed count crosses the watchdog
//! budget, the run fails with the exact error the serial engine
//! produces (`events = budget + 1` — the serial counter's value at its
//! first violation).
//!
//! **Fallbacks.** With one populated node, zero ranks, or no usable
//! lookahead (`None` or non-positive), the serial engine *is* the
//! implementation, so callers can pass any thread count.
//!
//! Collective op consistency: like MPI, all ranks must issue the same
//! collective sequence. Each partition compares its arrivals' ops with
//! its first arrival's, the leader compares the partitions' first ops,
//! and a difference fails with the same [`SimError::CollectiveMismatch`]
//! the serial engine returns.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use columbia_machine::cluster::CpuId;
use columbia_obs::{EventBuffer, NullTracer, Tracer};

use crate::engine::{
    apply_collective_release, apply_compute, charge_send, collective_cost, collective_mismatch,
    collective_payload, collective_source, connection_check, finish_recv, half_exchange_tag,
    simulate, FaultLedger, Op, RankResult, RankState, SimOutcome,
};
use crate::error::{DeadlockReport, PendingOp, SimError};
use crate::fabric::Fabric;
use crate::fault::{FaultPlan, FaultStats, FaultyFabric};
use crate::mailbox::{IndexedMailbox, MailboxOps};
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

/// One node's worth of ranks plus everything needed to run them
/// independently between round barriers.
struct Partition<B> {
    /// Global ranks owned, ascending; local index = position here.
    ranks: Vec<usize>,
    states: Vec<RankState>,
    ledgers: Vec<FaultLedger>,
    /// Global-rank-keyed; holds only channels whose *receiver* lives
    /// here (plus this partition's send-sequence counters — each
    /// channel has one sender, and the sender's partition owns its
    /// `seq` space).
    mailbox: IndexedMailbox,
    /// Local indices of runnable ranks.
    runnable: VecDeque<usize>,
    in_queue: Vec<bool>,
    /// Last collective sequence each local rank joined (mirrors the
    /// serial engine's O(1) arrival dedup).
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

impl<B: StageSink> Partition<B> {
    fn new(n: usize, n_parts: usize) -> Self {
        Partition {
            ranks: Vec::new(),
            states: Vec::new(),
            ledgers: Vec::new(),
            mailbox: IndexedMailbox::with_ranks(n),
            runnable: VecDeque::new(),
            in_queue: Vec::new(),
            coll_gen: Vec::new(),
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
/// buffer, so this yields the serial engine's canonical stream.
fn replay<T: Tracer, B: StageSink>(partitions: &[Partition<B>], part_of: &[u32], tracer: &mut T) {
    for (r, &p) in part_of.iter().enumerate() {
        partitions[p as usize].buf.replay_rank_to(r, tracer);
    }
}

/// The window rounds of [`simulate`] at `threads > 1`, over the node
/// partitions `part_of` assigns. The drained trace stream is
/// byte-identical to the serial engine's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_partitioned<T, P, F, B>(
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

    let mut partitions: Vec<Partition<B>> =
        (0..n_parts).map(|_| Partition::new(n, n_parts)).collect();
    let mut local_of: Vec<u32> = vec![0; n];
    for r in 0..n {
        let part = &mut partitions[part_of[r] as usize];
        local_of[r] = part.ranks.len() as u32;
        part.ranks.push(r);
    }
    for part in &mut partitions {
        let k = part.ranks.len();
        part.states = (0..k).map(|_| RankState::fresh()).collect();
        part.ledgers = vec![FaultLedger::default(); k];
        part.runnable.extend(0..k);
        part.in_queue = vec![true; k];
        part.coll_gen = vec![usize::MAX; k];
    }
    let local_of = &local_of[..];

    // Window rounds: run every partition to quiescence in parallel,
    // then a single-threaded leader phase drains lanes, resolves
    // collectives, and decides progress. Workers are spawned per round
    // (`std::thread::scope` over contiguous partition chunks) — spawn
    // cost is microseconds against rounds that execute millions of ops.
    let chunk = n_parts.div_ceil(threads.min(n_parts));
    loop {
        std::thread::scope(|scope| {
            for parts in partitions.chunks_mut(chunk) {
                scope.spawn(move || {
                    for part in parts {
                        run_until_blocked(
                            part,
                            programs,
                            cpus,
                            fabric,
                            plan,
                            part_of,
                            local_of,
                            mux_delay,
                            event_budget,
                        );
                    }
                });
            }
        });

        // Watchdog: the serial engine dies with `events = budget + 1`
        // at its first violation; reproduce that exact error when the
        // summed count crosses the budget. (The count itself is the one
        // schedule-dependent statistic, so the trace prefix on this
        // path may differ from serial — outcomes and errors do not.)
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
        // preserves per-channel FIFO = sender program order — exactly
        // the serial mailbox order.
        for src in 0..n_parts {
            for dst in 0..n_parts {
                if src == dst {
                    continue;
                }
                let mut lane = std::mem::take(&mut partitions[src].outbox[dst]);
                let dst_part = &mut partitions[dst];
                for m in lane.drain(..) {
                    dst_part.mailbox.push(m.from, m.to, m.tag, m.arrival);
                    let li = local_of[m.to] as usize;
                    if !dst_part.in_queue[li] {
                        dst_part.runnable.push_back(li);
                        dst_part.in_queue[li] = true;
                    }
                }
                // Hand the (empty) lane back with its capacity intact.
                partitions[src].outbox[dst] = lane;
            }
        }

        // Window-aligned collective rendezvous: the partition-local O(1)
        // arrival counters sum to `n` exactly when every rank sits at
        // the collective, which is the serial release condition.
        let arrived: usize = partitions.iter().map(|p| p.coll_arrived).sum();
        if arrived == n {
            let state = |r: usize| &partitions[part_of[r] as usize].states[local_of[r] as usize];
            // Every partition holds ranks, so every `coll_first` is set.
            let op = partitions[0]
                .coll_first
                .expect("every rank is at the collective");
            if partitions
                .iter()
                .any(|p| p.coll_mismatch || p.coll_first != Some(op))
            {
                replay(&partitions, part_of, tracer);
                return Err(collective_mismatch(n, state(0).coll_seq, |r| {
                    programs
                        .op(r, state(r).pc)
                        .expect("rank is at a collective")
                }));
            }
            let clock_of = |r: usize| state(r).clock;
            let start = match op {
                Op::Bcast { root, .. } => clock_of(root),
                _ => (0..n).map(clock_of).fold(0.0, f64::max),
            };
            let cost = collective_cost(op, fabric, cpus);
            let end = start + cost;
            let (coll_src, coll_bytes) = if tracer.enabled() {
                (
                    collective_source(op, (0..n).map(clock_of)),
                    collective_payload(op),
                )
            } else {
                (0, 0)
            };
            for r in 0..n {
                let part = &mut partitions[part_of[r] as usize];
                let li = local_of[r] as usize;
                apply_collective_release(
                    &mut part.buf,
                    &mut part.states[li],
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
            for part in &mut partitions {
                part.coll_arrived = 0;
                part.coll_first = None;
                part.coll_mismatch = false;
            }
        }

        if partitions.iter().all(|p| p.runnable.is_empty()) {
            // Quiescent with nothing drained and no collective ready:
            // the same maximal fixpoint the serial worklist reaches —
            // either everyone finished or this is a genuine deadlock.
            break;
        }
    }

    replay(&partitions, part_of, tracer);

    let state_of =
        |r: usize| -> &RankState { &partitions[part_of[r] as usize].states[local_of[r] as usize] };
    if (0..n).any(|r| state_of(r).pc < programs.len_of(r)) {
        let stuck: Vec<PendingOp> = (0..n)
            .filter(|&r| state_of(r).pc < programs.len_of(r))
            .map(|r| {
                let pc = state_of(r).pc;
                let op = programs.op(r, pc).expect("pc < len");
                PendingOp {
                    rank: r,
                    pc,
                    waiting_on: op.waiting_on(),
                    op,
                }
            })
            .collect();
        return Err(SimError::Deadlock(DeadlockReport { stuck }));
    }

    let mut stats = FaultStats {
        oversubscription,
        ..FaultStats::default()
    };
    for r in 0..n {
        partitions[part_of[r] as usize].ledgers[local_of[r] as usize].fold_into(&mut stats);
    }
    stats.events = partitions.iter().map(|p| p.events).sum();

    let ranks: Vec<RankResult> = (0..n)
        .map(|r| {
            let s = state_of(r);
            RankResult {
                total: s.clock,
                compute: s.compute,
                comm: s.comm,
            }
        })
        .collect();
    let makespan = ranks.iter().map(|r| r.total).fold(0.0, f64::max);
    Ok(SimOutcome {
        ranks,
        makespan,
        faults: stats,
    })
}

/// Run one partition's worklist until every local rank is blocked on
/// remote input (an empty channel or a collective) or finished — the
/// worker half of a window round. Mirrors the serial engine's main
/// loop op for op, via the same shared helpers.
#[allow(clippy::too_many_arguments)]
fn run_until_blocked<P, F, B>(
    part: &mut Partition<B>,
    programs: &P,
    cpus: &[CpuId],
    fabric: &FaultyFabric<'_, F>,
    plan: &FaultPlan,
    part_of: &[u32],
    local_of: &[u32],
    mux_delay: f64,
    event_budget: u64,
) where
    P: Programs + ?Sized,
    F: Fabric + ?Sized,
    B: StageSink,
{
    let own = part_of[part.ranks[0]];
    while let Some(li) = part.runnable.pop_front() {
        part.in_queue[li] = false;
        let r = part.ranks[li];
        while let Some(op) = programs.op(r, part.states[li].pc) {
            part.events += 1;
            if part.events > event_budget {
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
                        part, fabric, plan, cpus, part_of, local_of, mux_delay, own, li, r, to,
                        bytes, tag,
                    );
                    part.states[li].pc += 1;
                }
                Op::Recv { from, tag } => match part.mailbox.pop(from, r, tag) {
                    Some(arrival) => finish_recv(&mut part.buf, &mut part.states[li], r, arrival),
                    None => break, // blocked: the send is remote or future
                },
                Op::Exchange { with, bytes, tag } => {
                    // Same decomposition as the serial engine: a marker
                    // message-to-self records a completed send half so a
                    // blocked exchange does not double-send on wake-up.
                    let (b, t, w) = (bytes, tag, with);
                    let marker_tag = half_exchange_tag(w, t);
                    let already_sent = part.mailbox.pop(r, r, marker_tag).is_some();
                    if !already_sent {
                        post_send_partitioned(
                            part, fabric, plan, cpus, part_of, local_of, mux_delay, own, li, r, w,
                            b, t,
                        );
                    }
                    match part.mailbox.pop(w, r, t) {
                        Some(arrival) => {
                            finish_recv(&mut part.buf, &mut part.states[li], r, arrival)
                        }
                        None => {
                            part.mailbox.push(r, r, marker_tag, 0.0);
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
}

/// The partitioned Send: price and charge via the shared
/// [`charge_send`], then deliver locally (waking the receiver) or stage
/// into the destination partition's lane. The send-sequence counter
/// always comes from the *sender's* mailbox, so fault sampling sees the
/// serial `(from, to, tag, seq)` identities.
#[allow(clippy::too_many_arguments)]
fn post_send_partitioned<F, B>(
    part: &mut Partition<B>,
    fabric: &FaultyFabric<'_, F>,
    plan: &FaultPlan,
    cpus: &[CpuId],
    part_of: &[u32],
    local_of: &[u32],
    mux_delay: f64,
    own: u32,
    li: usize,
    r: usize,
    to: usize,
    bytes: u64,
    tag: u64,
) where
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
    if part_of[to] == own {
        part.mailbox.push(r, to, tag, arrival);
        let lt = local_of[to] as usize;
        if !part.in_queue[lt] {
            part.runnable.push_back(lt);
            part.in_queue[lt] = true;
        }
    } else {
        part.outbox[part_of[to] as usize].push(Staged {
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
    use crate::program::ProgramSet;
    use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric};
    use columbia_machine::node::NodeKind;
    use columbia_obs::RecordingTracer;

    /// A 4-node InfiniBand cluster with cached pair-class tables — the
    /// smallest fabric that exposes a real cross-node lookahead.
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
        let serial = crate::engine::simulate_on(programs, cpus, fabric, plan);
        let parallel = simulate_parallel_on(programs, cpus, fabric, plan, threads);
        match (&serial, &parallel) {
            (Ok(s), Ok(p)) => {
                assert_eq!(s.makespan.to_bits(), p.makespan.to_bits());
                assert_eq!(s.ranks.len(), p.ranks.len());
                for (a, b) in s.ranks.iter().zip(&p.ranks) {
                    assert_eq!(a.total.to_bits(), b.total.to_bits());
                    assert_eq!(a.compute.to_bits(), b.compute.to_bits());
                    assert_eq!(a.comm.to_bits(), b.comm.to_bits());
                }
                // Everything but the schedule-dependent event count.
                let (mut sf, mut pf) = (s.faults, p.faults);
                sf.events = 0;
                pf.events = 0;
                assert_eq!(format!("{sf:?}"), format!("{pf:?}"));
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            _ => panic!("engines disagree: serial={serial:?} parallel={parallel:?}"),
        }
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
        // One populated node: no cross-node latency, so the parallel
        // entry point must take the serial path and still succeed.
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
        // Budget below the op count: both engines must trip it, and the
        // parallel tier fabricates the serial counter's exact value.
        let plan = FaultPlan::none().with_event_budget(3);
        assert_identical(&programs, &cpus, &fabric, &plan, 4);
    }

    #[test]
    fn spmd_program_sets_run_parallel_too() {
        let cpus = cpus_4_nodes(2);
        let n = cpus.len();
        let fabric = four_node_fabric(n as u32);
        let set = ProgramSet::per_rank(mixed_programs(n));
        let serial = crate::engine::simulate_on(&set, &cpus, &fabric, &FaultPlan::none()).unwrap();
        let parallel = simulate_parallel_on(&set, &cpus, &fabric, &FaultPlan::none(), 3).unwrap();
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
