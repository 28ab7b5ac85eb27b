//! The engine's event loop: conservative parallel discrete-event
//! simulation (PDES) over rank partitions.
//!
//! `--jobs` parallelizes *across* sweep points; this loop can also
//! parallelize *within* one simulation. [`crate::engine::simulate`]
//! hands it a partition map with one partition per worker, in whole-node
//! blocks: on `threads` workers over `N` distinct nodes (read off
//! `cpus[r].node`, the node map `runtime::placement` computes) there are
//! `k = min(threads, N)` partitions, and node `i` in ascending node-id
//! order goes to partition `i·k/N`. At one thread, or on a one-node
//! placement, a single partition holds every rank. Each partition gets
//! its own runnable queue, rank states, and mailbox, so a partition can
//! execute its ranks' programs without touching any other partition's
//! state. Whole-node blocks keep node-local traffic, and node pairs
//! that exchange with their neighbour node, inside one partition.
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
//!   both pure functions of program state. A collective starts at the
//!   root's clock or at the latest arrival clock: each partition keeps
//!   the `max` of its ranks' clocks as they arrive, and the leader folds
//!   those (order-independent).
//! * *Faults*: drop sampling keys off `(from, to, tag, seq)` and the
//!   per-channel `seq` lives with the sender's partition; `f64` fault
//!   sums accumulate per rank and fold in rank order.
//! * *Traces*: each partition records into a recorder of the caller's
//!   tracer type ([`Tracer::partition`]), which keeps each event in a
//!   list of its owner rank, in that rank's program order. When the
//!   rounds stop, on success or on any error, each rank's lists move
//!   from the partition that owns the rank to the caller's recorder
//!   ([`Tracer::take_rank`]), which lays them out in canonical order
//!   (see `columbia_obs::RecordingTracer`).
//!
//! The one schedule-dependent quantity is the scheduler-event *count*
//! (`FaultStats::events`, re-examinations of blocked ops). Within a
//! round each partition runs only on its own state, so the count
//! depends only on the partition map, and the map depends on `threads`
//! up to the node count. The count is therefore the same at a fixed
//! thread count, traced or not, and across thread counts that give the
//! same map (every count at or above the node count); two counts above
//! one can differ (2 and 3 on four nodes), and any may differ from the
//! one-partition count. It is reported for observability, never
//! printed in reports. If the summed count crosses the watchdog budget,
//! the run fails with `events = budget + 1` — a single partition's
//! counter at its first violation — whatever the partition map.
//!
//! **Threads.** Each partition has one worker. The calling thread runs
//! partition 0 and the leader phase; each other partition gets one
//! helper thread, spawned once per simulation inside
//! `std::thread::scope`. The leader starts a round by bumping a round
//! counter, and each helper bumps a finished counter when its round
//! ends; a waiter spins `SPIN_BEFORE_PARK` (2,000) times, then parks, and
//! every signaller unparks after its store. Each partition sits in its
//! own `Mutex`: its worker locks it for a round and the leader locks
//! them all between rounds, so no lock is ever contended. A panic in
//! any partition propagates out of `simulate`: a helper counts a
//! panicked round as finished, and the leader then panics, releases
//! the helpers and lets the scope re-raise. With one partition nothing
//! is spawned and nothing waits.
//!
//! **Measured** on a 2-vCPU host over twenty runs of `cargo bench
//! --bench simnet`, each alternated with a run of the previous design
//! (one partition per node, workers spawned per round): `speedup2` of
//! the 10,240-rank Columbia point read 0.71–1.90 (median 1.44) where the
//! previous design read 0.53–1.39 (median 0.88). Interleaved in one
//! process, two threads took 0.78–0.96 of one thread's time. On two
//! workers the twenty nodes form two blocks of ten, so a simulation
//! takes 9 rounds instead of 12, sends 6 cross-partition messages
//! instead of 30,780, and creates one thread instead of 24.
//!
//! **Host telemetry.** When the run context carries a host capture,
//! each worker of a multi-partition run records one `host.pdes` span
//! per round ("round k", arg `events`: the round's scheduler events) on
//! its partition's lane, and the leader one "leader k" span per leader
//! phase on lane 0 (arg `messages`: the cross-partition messages it
//! delivered). Without a capture this costs one `None` check per
//! partition per round, and nothing per event. A one-partition run
//! records nothing.
//!
//! Collective op consistency: like MPI, all ranks must issue the same
//! collective sequence. Each partition compares its arrivals' ops with
//! its first arrival's, the leader compares the partitions' first ops,
//! and a difference fails with [`SimError::CollectiveMismatch`], the
//! same error for every partition map.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};

use columbia_machine::cluster::CpuId;
use columbia_obs::{HostCapture, NullTracer, RunContext, Tracer};

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

/// Set the process-default context's simulation thread count (values
/// below 1 are clamped to 1). Kept only for `benchmark/probes` until
/// ROADMAP item 3, step 3.
pub fn set_sim_threads(n: usize) {
    RunContext::update_process_default(|ctx| *ctx = ctx.with_sim_threads(n));
}

/// The process-default context's simulation thread count, as
/// [`set_sim_threads`] left it. Kept only beside that shim until
/// ROADMAP item 3, step 3.
pub fn sim_threads() -> usize {
    RunContext::process_default().sim_threads()
}

/// Spin iterations a waiting worker makes before it parks: about 43 µs
/// on the 2-vCPU reference host. Of the bounds 200, 2,000 and 20,000,
/// only this one beat spawning a scope per round both on idle cores and
/// with eight threads on two vCPUs, where a longer spin starves the
/// peer it waits for.
const SPIN_BEFORE_PARK: u32 = 2_000;

/// One staged cross-partition message, parked in a per-partition-pair
/// lane until the round barrier drains it.
#[derive(Debug, Clone, Copy)]
struct Staged {
    from: usize,
    to: usize,
    tag: u64,
    arrival: f64,
}

/// One partition's ranks plus everything needed to run them
/// independently between round barriers.
struct Partition<T, M> {
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
    /// Local ranks arrived at the current collective frontier, and the
    /// latest clock among them (from 0.0): a rank's clock stays put
    /// while it waits at a collective.
    coll_arrived: usize,
    coll_latest: f64,
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
    /// This partition's recorder, of the caller's tracer type.
    trace: T,
}

impl<T: Tracer, M: MailboxOps> Partition<T, M> {
    /// A partition owning the ranks of `states`, all runnable, out of
    /// `n` ranks in `n_parts` partitions, recording into `trace`.
    fn new(states: Vec<RankState>, n: usize, n_parts: usize, trace: T) -> Self {
        let k = states.len();
        Partition {
            states,
            ledgers: vec![FaultLedger::default(); k],
            mailbox: M::with_ranks(n),
            runnable: (0..k).collect(),
            in_queue: vec![true; k],
            coll_gen: vec![usize::MAX; k],
            coll_arrived: 0,
            coll_latest: 0.0,
            coll_first: None,
            coll_mismatch: false,
            outbox: (0..n_parts).map(|_| Vec::new()).collect(),
            events: 0,
            over_budget: false,
            trace,
        }
    }
}

/// What every worker reads and none writes during a run.
struct World<'a, P: ?Sized, F: Fabric + ?Sized> {
    programs: &'a P,
    cpus: &'a [CpuId],
    fabric: FaultyFabric<'a, F>,
    plan: &'a FaultPlan,
    /// Each rank's (partition, local index), looked up together.
    slot_of: Vec<(u32, u32)>,
    mux_delay: f64,
    event_budget: u64,
    /// The host capture rounds are recorded into, in a multi-partition
    /// run: one lane per partition.
    lanes: Option<&'a HostCapture>,
}

/// Why the rounds stopped.
enum Stop {
    /// No rank is runnable: every rank finished, or the rest deadlocked.
    Quiescent,
    /// The summed scheduler-event count crossed the budget.
    Watchdog,
    /// Ranks reached one collective with different ops.
    Mismatch,
}

/// [`simulate`] untraced on `threads` workers — the same result as
/// [`crate::engine::simulate_on`], bit for bit.
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
    let ctx = RunContext::new(threads);
    simulate(programs, cpus, fabric, plan, &mut NullTracer, &ctx)
}

/// A partition's lock. Only a worker that panicked mid-round poisons
/// one, and the leader stops before it locks again.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a panicked round ends the run before its partition is locked again")
}

/// Rank `r`'s state, read from its owner partition.
fn state_of<G, T, M>(parts: &[G], slot_of: &[(u32, u32)], r: usize) -> RankState
where
    G: Deref<Target = Partition<T, M>>,
{
    let (p, li) = slot_of[r];
    parts[p as usize].states[li as usize]
}

/// The rounds of [`simulate`] over the partitions `part_of` assigns
/// (numbered from 0 without gaps), one worker each; a multi-partition
/// run records its rounds into `host` if given. The events handed to
/// `tracer` are the same for every partition map.
pub(crate) fn run_partitioned<T, M, P, F>(
    programs: &P,
    cpus: &[CpuId],
    base_fabric: &F,
    plan: &FaultPlan,
    tracer: &mut T,
    part_of: &[u32],
    host: Option<&Arc<HostCapture>>,
) -> Result<SimOutcome, SimError>
where
    T: Tracer,
    M: MailboxOps + Send,
    P: Programs + ?Sized + Sync,
    F: Fabric + ?Sized + Sync,
{
    let n = cpus.len();
    let n_parts = part_of.iter().max().map_or(1, |&p| p as usize + 1);
    let (mux_delay, oversubscription) = connection_check(cpus, plan)?;
    if tracer.enabled() {
        let rank_nodes: Vec<u32> = cpus.iter().map(|c| c.node.0).collect();
        tracer.topology(&rank_nodes);
        if plan.connection_limit.is_some() {
            tracer.gauge("connection_occupancy", oversubscription);
        }
    }

    let mut members: Vec<Vec<RankState>> = (0..n_parts)
        .map(|_| Vec::with_capacity(n / n_parts))
        .collect();
    let mut slot_of: Vec<(u32, u32)> = Vec::with_capacity(n);
    for (rank, &p) in part_of.iter().enumerate() {
        let states = &mut members[p as usize];
        slot_of.push((p, states.len() as u32));
        states.push(RankState {
            rank,
            ..RankState::default()
        });
    }
    let mut partitions: Vec<Mutex<Partition<T, M>>> = members
        .into_iter()
        .map(|states| Mutex::new(Partition::new(states, n, n_parts, tracer.partition())))
        .collect();
    let world = World {
        programs,
        cpus,
        fabric: FaultyFabric::new(base_fabric, plan),
        plan,
        slot_of,
        mux_delay,
        event_budget: plan
            .event_budget
            .unwrap_or_else(|| 10_000 + 64 * programs.total_ops() as u64),
        lanes: host.filter(|_| n_parts > 1).map(|h| &**h),
    };
    let traced = tracer.enabled();

    let stop = if n_parts == 1 {
        lead(&partitions, &world, None, traced)
    } else {
        let handoff = Handoff {
            started: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            quit: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            leader: thread::current(),
        };
        thread::scope(|scope| {
            let helpers = (1..n_parts)
                .map(|own| {
                    let (part, world, handoff) = (&partitions[own], &world, &handoff);
                    let helper = scope.spawn(move || help(part, own as u32, world, handoff));
                    helper.thread().clone()
                })
                .collect();
            let crew = Crew {
                handoff: &handoff,
                helpers,
            };
            lead(&partitions, &world, Some(&crew), traced)
        })
    };

    let mut parts: Vec<&mut Partition<T, M>> = partitions
        .iter_mut()
        .map(|m| {
            m.get_mut()
                .expect("the scope re-raises a panicked round before this")
        })
        .collect();
    // Every way the rounds stop hands the recorded events over, so a
    // failed run leaves its partial timeline too.
    if traced {
        for (r, &p) in part_of.iter().enumerate() {
            tracer.take_rank(&mut parts[p as usize].trace, r);
        }
    }
    let slot_of = &world.slot_of[..];
    match stop {
        Stop::Quiescent => {}
        Stop::Watchdog => {
            // A lone partition stops at `events = budget + 1`; report
            // that whenever the summed count crosses the budget, so the
            // error is the same for every partition map (the trace
            // prefix on this path is not).
            return Err(SimError::WatchdogTimeout {
                events: world.event_budget + 1,
                budget: world.event_budget,
            });
        }
        Stop::Mismatch => {
            let seq = state_of(&parts, slot_of, 0).coll_seq;
            return Err(collective_mismatch(n, seq, |r| {
                programs
                    .op(r, state_of(&parts, slot_of, r).pc)
                    .expect("rank is at a collective")
            }));
        }
    }

    let mut ranks = vec![RankResult::default(); n];
    let mut stuck: Vec<PendingOp> = Vec::new();
    for part in &parts {
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
        parts[p as usize].ledgers[li as usize].fold_into(&mut stats);
    }
    stats.events = parts.iter().map(|p| p.events).sum();

    let makespan = ranks.iter().map(|r| r.total).fold(0.0, f64::max);
    Ok(SimOutcome {
        ranks,
        makespan,
        faults: stats,
    })
}

/// The round hand-off between the leader, which runs partition 0 on the
/// calling thread, and the helpers that run the others. Each counter is
/// stored with `Release` and read with `Acquire` by the other side; the
/// partitions themselves pass between threads through their `Mutex`es.
struct Handoff {
    /// Rounds the leader has started.
    started: AtomicUsize,
    /// Rounds the helpers have finished, summed over helpers.
    finished: AtomicUsize,
    /// The run is over: helpers return instead of waiting for a round.
    quit: AtomicBool,
    /// A helper's partition panicked during its round.
    panicked: AtomicBool,
    leader: Thread,
}

/// Spin, then park, until `ready()` holds. Every store that can make it
/// hold is followed by an `unpark` of the waiter, so a park never
/// sleeps through its wake-up; a spurious wake-up just re-checks.
fn wait_until(ready: impl Fn() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < SPIN_BEFORE_PARK {
            spins += 1;
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

/// The leader's side of the hand-off.
struct Crew<'a> {
    handoff: &'a Handoff,
    helpers: Vec<Thread>,
}

impl Crew<'_> {
    /// Start round `round` on every helper.
    fn start(&self, round: usize) {
        self.handoff.started.store(round + 1, Ordering::Release);
        for helper in &self.helpers {
            helper.unpark();
        }
    }

    /// Wait until every helper has finished round `round`. A helper that
    /// panicked counts as finished; the leader then panics too, and the
    /// scope re-raises once every helper has returned.
    fn finish(&self, round: usize) {
        let all = (round + 1) * self.helpers.len();
        wait_until(|| self.handoff.finished.load(Ordering::Acquire) == all);
        assert!(
            !self.handoff.panicked.load(Ordering::Acquire),
            "a PDES partition panicked"
        );
    }
}

impl Drop for Crew<'_> {
    /// Release the helpers however the leader stops, a panic included:
    /// the scope joins them before it returns.
    fn drop(&mut self) {
        self.handoff.quit.store(true, Ordering::Release);
        for helper in &self.helpers {
            helper.unpark();
        }
    }
}

/// Counts a helper's round as finished when dropped, even when its
/// partition panicked, so the leader never waits for a round that will
/// not end.
struct Finish<'a>(&'a Handoff);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.panicked.store(true, Ordering::Release);
        }
        self.0.finished.fetch_add(1, Ordering::Release);
        self.0.leader.unpark();
    }
}

/// A helper thread: run partition `own` once per round the leader
/// starts, until the leader quits.
fn help<T, M, P, F>(
    part: &Mutex<Partition<T, M>>,
    own: u32,
    world: &World<'_, P, F>,
    handoff: &Handoff,
) where
    T: Tracer,
    M: MailboxOps,
    P: Programs + ?Sized,
    F: Fabric + ?Sized,
{
    for round in 0.. {
        wait_until(|| {
            handoff.quit.load(Ordering::Acquire) || handoff.started.load(Ordering::Acquire) > round
        });
        if handoff.quit.load(Ordering::Acquire) {
            return;
        }
        // Dropped after the lock, which lives for one statement: the
        // partition is unlocked before the leader hears that the round
        // is over, also when the round panics.
        let _finish = Finish(handoff);
        run_round(&mut lock(part), own, round, world);
    }
}

/// The calling thread's side of a run: partition 0's rounds, each
/// followed by the leader phase, until the rounds stop. `crew` is the
/// helpers running the other partitions, if any.
fn lead<T, M, P, F>(
    partitions: &[Mutex<Partition<T, M>>],
    world: &World<'_, P, F>,
    crew: Option<&Crew<'_>>,
    traced: bool,
) -> Stop
where
    T: Tracer,
    M: MailboxOps,
    P: Programs + ?Sized,
    F: Fabric + ?Sized,
{
    let mut parts = Vec::with_capacity(partitions.len());
    let mut round = 0;
    loop {
        if let Some(crew) = crew {
            crew.start(round);
        }
        run_round(&mut lock(&partitions[0]), 0, round, world);
        if let Some(crew) = crew {
            crew.finish(round);
        }
        let lane = world.lanes.map(|h| (h, h.clock()));
        parts.extend(partitions.iter().map(lock));
        let (stop, messages) = leader_phase(&mut parts, world, traced);
        parts.clear();
        if let Some((host, t0)) = lane {
            host.partition_span(0, format!("leader {round}"), t0, ("messages", messages));
        }
        if let Some(stop) = stop {
            return stop;
        }
        round += 1;
    }
}

/// Run partition `own`'s round `round` and, in a multi-partition run
/// under host capture, record it on the partition's lane.
fn run_round<T, M, P, F>(
    part: &mut Partition<T, M>,
    own: u32,
    round: usize,
    world: &World<'_, P, F>,
) where
    T: Tracer,
    M: MailboxOps,
    P: Programs + ?Sized,
    F: Fabric + ?Sized,
{
    let lane = world.lanes.map(|h| (h, h.clock()));
    let before = part.events;
    run_until_blocked(part, own, world);
    if let Some((host, t0)) = lane {
        let events = part.events - before;
        host.partition_span(own, format!("round {round}"), t0, ("events", events));
    }
}

/// The leader phase between rounds, over every partition: the watchdog,
/// the canonical lane drain, the collective release and the quiescence
/// test. Returns why the rounds stop, if they do, and how many
/// cross-partition messages it delivered.
fn leader_phase<G, T, M, P, F>(
    parts: &mut [G],
    world: &World<'_, P, F>,
    traced: bool,
) -> (Option<Stop>, u64)
where
    G: DerefMut<Target = Partition<T, M>>,
    T: Tracer,
    M: MailboxOps,
    P: Programs + ?Sized,
    F: Fabric + ?Sized,
{
    let n = world.cpus.len();
    let slot_of = &world.slot_of[..];
    let events: u64 = parts.iter().map(|p| p.events).sum();
    if events > world.event_budget || parts.iter().any(|p| p.over_budget) {
        return (Some(Stop::Watchdog), 0);
    }

    // Drain cross-partition lanes in canonical (sender-partition, slot)
    // order. Every channel has a single sender, so this preserves
    // per-channel FIFO = sender program order.
    let mut messages = 0;
    for src in 0..parts.len() {
        for dst in 0..parts.len() {
            if src == dst {
                continue;
            }
            let mut lane = std::mem::take(&mut parts[src].outbox[dst]);
            messages += lane.len() as u64;
            let dst_part = &mut *parts[dst];
            for m in lane.drain(..) {
                dst_part.mailbox.push(m.from, m.to, m.tag, m.arrival);
                let li = slot_of[m.to].1 as usize;
                if !dst_part.in_queue[li] {
                    dst_part.runnable.push_back(li);
                    dst_part.in_queue[li] = true;
                }
            }
            // Hand the (empty) lane back with its capacity intact.
            parts[src].outbox[dst] = lane;
        }
    }

    // Collective rendezvous: the partition-local O(1) arrival counters
    // sum to `n` exactly when every rank sits at the collective.
    let arrived: usize = parts.iter().map(|p| p.coll_arrived).sum();
    if n > 0 && arrived == n {
        // Every partition holds ranks, so every `coll_first` is set.
        let op = parts[0]
            .coll_first
            .expect("every rank is at the collective");
        if parts
            .iter()
            .any(|p| p.coll_mismatch || p.coll_first != Some(op))
        {
            return (Some(Stop::Mismatch), messages);
        }
        let start = match op {
            Op::Bcast { root, .. } => state_of(parts, slot_of, root).clock,
            _ => parts.iter().map(|p| p.coll_latest).fold(0.0, f64::max),
        };
        let cost = collective_cost(op, &world.fabric, world.cpus);
        let end = start + cost;
        let (coll_src, coll_bytes) = if traced {
            (
                collective_source(op, (0..n).map(|r| state_of(parts, slot_of, r).clock)),
                collective_payload(op),
            )
        } else {
            (0, 0)
        };
        for part in parts.iter_mut() {
            let part = &mut **part;
            for (li, state) in part.states.iter_mut().enumerate() {
                let r = state.rank;
                apply_collective_release(
                    &mut part.trace,
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
            part.coll_latest = 0.0;
            part.coll_first = None;
            part.coll_mismatch = false;
        }
    }

    // Quiescent with nothing drained and no collective ready: the
    // maximal fixpoint — either everyone finished or this is a genuine
    // deadlock.
    let quiescent = parts.iter().all(|p| p.runnable.is_empty());
    (quiescent.then_some(Stop::Quiescent), messages)
}

/// Run partition `own`'s worklist until every local rank is blocked on
/// remote input (an empty channel or a collective) or finished — the
/// worker half of a round.
#[inline]
fn run_until_blocked<M, P, F, T>(part: &mut Partition<T, M>, own: u32, world: &World<'_, P, F>)
where
    M: MailboxOps,
    P: Programs + ?Sized,
    F: Fabric + ?Sized,
    T: Tracer,
{
    let (programs, cpus, plan) = (world.programs, world.cpus, world.plan);
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
            if events > world.event_budget {
                part.events = events;
                part.over_budget = true;
                return;
            }
            match op {
                Op::Compute(secs) => {
                    apply_compute(
                        &mut part.trace,
                        &mut part.states[li],
                        r,
                        secs * plan.compute_factor(cpus[r]),
                    );
                }
                Op::Send { to, bytes, tag } => {
                    post_send_partitioned(part, world, own, li, r, to, bytes, tag);
                    part.states[li].pc += 1;
                }
                Op::Recv { from, tag } => match part.mailbox.pop(from, r, tag) {
                    Some(arrival) => finish_recv(&mut part.trace, &mut part.states[li], r, arrival),
                    None => break, // blocked: the send is remote or future
                },
                Op::Exchange { with, bytes, tag } => {
                    // Decompose into send + recv so the partner's
                    // schedule is honoured. `half_sent` records that the
                    // send half already went out, so a blocked exchange
                    // does not double-send on wake-up.
                    if !part.states[li].half_sent {
                        post_send_partitioned(part, world, own, li, r, with, bytes, tag);
                    }
                    let state = &mut part.states[li];
                    match part.mailbox.pop(with, r, tag) {
                        Some(arrival) => {
                            state.half_sent = false;
                            finish_recv(&mut part.trace, state, r, arrival);
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
                        part.coll_latest = part.coll_latest.max(part.states[li].clock);
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
fn post_send_partitioned<M, P, F, T>(
    part: &mut Partition<T, M>,
    world: &World<'_, P, F>,
    own: u32,
    li: usize,
    r: usize,
    to: usize,
    bytes: u64,
    tag: u64,
) where
    M: MailboxOps,
    P: ?Sized,
    F: Fabric + ?Sized,
    T: Tracer,
{
    let seq = part.mailbox.next_seq(r, to, tag);
    let arrival = charge_send(
        &mut part.trace,
        &world.fabric,
        world.plan,
        world.cpus,
        world.mux_delay,
        &mut part.ledgers[li],
        &mut part.states[li],
        r,
        to,
        bytes,
        tag,
        seq,
    );
    let (p, lt) = world.slot_of[to];
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
        let s = simulate(
            &programs,
            &cpus,
            &fabric,
            &plan,
            &mut serial,
            &RunContext::new(1),
        )
        .unwrap();
        let p = simulate(
            &programs,
            &cpus,
            &fabric,
            &plan,
            &mut parallel,
            &RunContext::new(4),
        )
        .unwrap();
        assert_eq!(s.makespan.to_bits(), p.makespan.to_bits());
        assert_eq!(serial.into_bundle("run"), parallel.into_bundle("run"));
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
