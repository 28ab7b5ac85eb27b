//! Partition-map independence of the engine's event loop, and
//! closed-form oracles that are not the engine.
//!
//! The contract under test: [`simulate`] (and its untraced shorthand
//! [`simulate_parallel_on`]) gives **bit-identical** results at every
//! thread count — same `f64` clocks, same fault accounting, same trace
//! spans and causal edges after the canonical per-rank merge, same
//! errors — for every program set, placement, fabric and fault plan.
//! One thread runs every rank in one partition; `threads` threads run
//! `min(threads, nodes)` partitions of whole nodes, one worker each.
//! Every one-thread reference names `threads = 1`.
//!
//! * A proptest over random phase-structured workloads (compute, ring
//!   send/recv, pairwise exchange, all four collectives) on random
//!   clusters of 1–4 nodes with 1–3 ranks each and random fault plans,
//!   at sim-threads 2, 3, and 7 — thread counts above the partition
//!   count and single-rank partitions included.
//! * Closed-form oracles: ping-pong and ring makespans on a two-node
//!   fabric equal folds of its point-to-point costs, a pairwise
//!   exchange or any of the four collectives after random per-rank
//!   compute equals its tree formula (also on a placement where only
//!   the (middle, last) latency probe is the worst), and a burst of up
//!   to 300 queued sends equals a fold that carries the per-send
//!   overhead, bit for bit.
//! * Edge cases: one-node placements, zero cross-node latency, empty
//!   programs, mismatched collectives, a self-send on any tag during a
//!   half-done exchange, a panic inside a helper's partition, the
//!   spec key, and the process-default thread count the probe shims
//!   set.
//!
//! The comparison is exact (`f64::to_bits`) except for
//! `FaultStats::events`, the scheduler-event *count*, which depends on
//! the partition map: it is compared exactly between traced and
//! untraced runs at one thread count and across thread counts at or
//! above the node count (they share one map), and ignored otherwise.
//! It never reaches a report.

use columbia::machine::cluster::{ClusterConfig, CpuId, InterNodeFabric, NodeId};
use columbia::machine::node::NodeKind;
use columbia::obs::{NullTracer, RecordingTracer, RunContext};
use columbia::simnet::fabric::{CachedFabric, ClusterFabric, Fabric, MptVersion};
use columbia::simnet::{
    simulate, simulate_on, simulate_parallel_on, FaultPlan, Op, Programs, SimError, SimOutcome,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::Duration;

/// One per-phase instruction shared (in shape) by every rank, so the
/// generated collective sequences are globally consistent — the same
/// contract MPI programs obey.
#[derive(Debug, Clone)]
enum Phase {
    /// Per-rank compute, seconds scaled by `1 + rank`.
    Compute(f64),
    /// Ring: send `bytes` to `(r + 1) % n`, receive from the left.
    Ring {
        bytes: u64,
        tag: u64,
    },
    /// Pairwise exchange with `r ^ 1` (only generated for even `n`).
    Exchange {
        bytes: u64,
        tag: u64,
    },
    Barrier,
    AllReduce {
        bytes: u64,
    },
    AllToAll {
        bytes_per_pair: u64,
    },
    Bcast {
        bytes: u64,
    },
}

/// Uniform choice over the seven phase shapes with random payloads.
#[derive(Debug, Clone)]
struct PhaseStrategy;

impl Strategy for PhaseStrategy {
    type Value = Phase;

    fn generate(&self, rng: &mut TestRng) -> Phase {
        match rng.next_u64() % 7 {
            0 => Phase::Compute(1e-7 + rng.next_f64() * 1e-4),
            1 => Phase::Ring {
                bytes: 1 + rng.next_u64() % 65535,
                tag: rng.next_u64() % 8,
            },
            2 => Phase::Exchange {
                bytes: 1 + rng.next_u64() % 32767,
                tag: 8 + rng.next_u64() % 8,
            },
            3 => Phase::Barrier,
            4 => Phase::AllReduce {
                bytes: 1 + rng.next_u64() % 4095,
            },
            5 => Phase::AllToAll {
                bytes_per_pair: 1 + rng.next_u64() % 511,
            },
            _ => Phase::Bcast {
                bytes: 1 + rng.next_u64() % 65535,
            },
        }
    }
}

/// Expand a phase list into explicit per-rank programs.
fn programs_for(phases: &[Phase], n: usize, bcast_root: usize) -> Vec<Vec<Op>> {
    (0..n)
        .map(|r| {
            let mut ops = Vec::new();
            for phase in phases {
                match phase {
                    Phase::Compute(s) => ops.push(Op::Compute(s * (1.0 + r as f64))),
                    Phase::Ring { bytes, tag } => {
                        ops.push(Op::Send {
                            to: (r + 1) % n,
                            bytes: *bytes,
                            tag: *tag,
                        });
                        ops.push(Op::Recv {
                            from: (r + n - 1) % n,
                            tag: *tag,
                        });
                    }
                    Phase::Exchange { bytes, tag } => {
                        if n.is_multiple_of(2) {
                            ops.push(Op::Exchange {
                                with: r ^ 1,
                                bytes: *bytes,
                                tag: *tag,
                            });
                        }
                    }
                    Phase::Barrier => ops.push(Op::Barrier),
                    Phase::AllReduce { bytes } => ops.push(Op::AllReduce { bytes: *bytes }),
                    Phase::AllToAll { bytes_per_pair } => ops.push(Op::AllToAll {
                        bytes_per_pair: *bytes_per_pair,
                    }),
                    Phase::Bcast { bytes } => ops.push(Op::Bcast {
                        root: bcast_root % n,
                        bytes: *bytes,
                    }),
                }
            }
            ops
        })
        .collect()
}

/// A heterogeneous cluster over the given node kinds, every node
/// populated with `per_node` ranks, interleaved so neighbours in rank
/// order sit on different nodes (maximum cross-partition traffic).
fn placement(kinds: &[NodeKind], per_node: usize) -> (CachedFabric, Vec<CpuId>) {
    let n_nodes = kinds.len();
    let config = ClusterConfig {
        nodes: kinds.to_vec(),
        numalink4_subsystem: (0..n_nodes as u32)
            .filter(|&i| kinds[i as usize] != NodeKind::Altix3700)
            .map(NodeId)
            .collect(),
        ib_cards_per_node: 8,
        ib_connections_per_card: 64 * 1024,
    };
    let ranks = (n_nodes * per_node) as u32;
    let fabric = CachedFabric::new(ClusterFabric::new(
        config,
        InterNodeFabric::InfiniBand,
        MptVersion::Beta,
        ranks,
    ));
    let cpus = (0..ranks)
        .map(|r| CpuId::new(r % n_nodes as u32, r / n_nodes as u32))
        .collect();
    (fabric, cpus)
}

/// Bit-exact outcome equality, modulo the documented scheduler-event
/// count.
fn assert_outcomes_identical(s: &SimOutcome, p: &SimOutcome) {
    assert_eq!(s.makespan.to_bits(), p.makespan.to_bits(), "makespan");
    assert_eq!(s.ranks.len(), p.ranks.len());
    for (r, (a, b)) in s.ranks.iter().zip(&p.ranks).enumerate() {
        assert_eq!(a.total.to_bits(), b.total.to_bits(), "rank {r} total");
        assert_eq!(a.compute.to_bits(), b.compute.to_bits(), "rank {r} compute");
        assert_eq!(a.comm.to_bits(), b.comm.to_bits(), "rank {r} comm");
    }
    let (mut sf, mut pf) = (s.faults, p.faults);
    sf.events = 0;
    pf.events = 0;
    assert_eq!(format!("{sf:?}"), format!("{pf:?}"), "fault stats");
}

fn kinds_strategy() -> impl Strategy<Value = Vec<NodeKind>> {
    prop::collection::vec(
        prop::sample::select(vec![NodeKind::Altix3700, NodeKind::Bx2a, NodeKind::Bx2b]),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The central property: arbitrary workload × cluster × faults ×
    /// thread count, one thread and more agree bit for bit — outcomes
    /// *and* drained traces. The scheduler-event count follows the
    /// partition map: it must match exactly between the traced and the
    /// untraced run at each thread count, and across the thread counts
    /// at or above the node count, which all give one partition per
    /// node.
    #[test]
    fn parallel_engine_is_bit_identical_to_serial(
        kinds in kinds_strategy(),
        per_node in 1usize..4,
        phases in prop::collection::vec(PhaseStrategy, 1..10),
        bcast_root in 0usize..16,
        drop_sel in 0u64..3,
        drop_seed in 1u64..1000,
        drop_prob in 0.01f64..0.4,
    ) {
        let (fabric, cpus) = placement(&kinds, per_node);
        let n = cpus.len();
        let programs = programs_for(&phases, n, bcast_root);
        let plan = if drop_sel > 0 {
            FaultPlan::with_drops(drop_seed, drop_prob)
        } else {
            FaultPlan::none()
        };
        let mut serial_trace = RecordingTracer::default();
        let serial = simulate(&programs, &cpus, &fabric, &plan, &mut serial_trace, &RunContext::new(1))
            .expect("generated workloads never deadlock");
        let serial_trace = serial_trace.into_bundle("run");
        let mut per_node_events = None;
        for threads in [2usize, 3, 7] {
            let parallel = simulate_parallel_on(&programs, &cpus, &fabric, &plan, threads)
                .expect("parallel run of a deadlock-free workload");
            assert_outcomes_identical(&serial, &parallel);
            if threads >= kinds.len() {
                let events = *per_node_events.get_or_insert(parallel.faults.events);
                prop_assert_eq!(parallel.faults.events, events, "threads = {}", threads);
            }
            let mut parallel_trace = RecordingTracer::default();
            let traced = simulate(&programs, &cpus, &fabric, &plan, &mut parallel_trace, &RunContext::new(threads))
                .expect("traced parallel run");
            assert_outcomes_identical(&serial, &traced);
            prop_assert_eq!(
                traced.faults.events,
                parallel.faults.events,
                "traced, threads = {}",
                threads
            );
            // Spans, edges, placement, metrics and profile.
            prop_assert_eq!(&serial_trace, &parallel_trace.into_bundle("run"));
        }
    }

    /// Deadlocks report the identical stuck set at any thread count.
    #[test]
    fn deadlock_reports_are_identical(
        kinds in kinds_strategy(),
        per_node in 1usize..4,
        victim_seed in 0usize..64,
    ) {
        let (fabric, cpus) = placement(&kinds, per_node);
        let n = cpus.len();
        // Every rank recvs a message nobody sends — except the victim,
        // which jumps straight to a barrier the others never reach.
        let victim = victim_seed % n;
        let programs: Vec<Vec<Op>> = (0..n)
            .map(|r| {
                if r == victim {
                    vec![Op::Barrier]
                } else {
                    vec![Op::Recv { from: victim, tag: 42 }, Op::Barrier]
                }
            })
            .collect();
        let plan = FaultPlan::none();
        let serial = simulate_on(&programs, &cpus, &fabric, &plan);
        for threads in [2usize, 3, 7] {
            let parallel = simulate_parallel_on(&programs, &cpus, &fabric, &plan, threads);
            prop_assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
        }
    }
}

/// A failed run hands over what its ranks recorded before it stopped,
/// on every path the rounds stop by. A deadlock and a collective
/// mismatch stop at the fixpoint every partition map reaches, so they
/// leave the same partial bundle at one and three threads. A watchdog
/// stop cuts the rounds where the summed event count crosses the
/// budget, which depends on the partition map, so its prefix may
/// differ; it is never empty.
#[test]
fn failed_runs_leave_the_same_partial_bundle() {
    let (fabric, cpus) = placement(&[NodeKind::Bx2b; 4], 2);
    let n = cpus.len();
    let phases = [
        Phase::Compute(1e-5),
        Phase::Ring {
            bytes: 4096,
            tag: 1,
        },
        Phase::AllReduce { bytes: 64 },
    ];
    let base = programs_for(&phases, n, 0);
    let traced = |programs: &Vec<Vec<Op>>, plan: &FaultPlan, threads| {
        let mut tracer = RecordingTracer::default();
        let ctx = RunContext::new(threads);
        let out = simulate(programs, &cpus, &fabric, plan, &mut tracer, &ctx);
        (format!("{out:?}"), tracer.into_bundle("run"))
    };
    // Rank 0 first waits on a message nobody sends.
    let mut deadlocked = base.clone();
    deadlocked[0].insert(0, Op::Recv { from: 1, tag: 999 });
    // The last rank reaches a barrier where the others allreduce.
    let mut mismatched = base.clone();
    mismatched[n - 1][3] = Op::Barrier;
    for (what, programs, error) in [
        ("deadlock", &deadlocked, "Deadlock"),
        ("mismatch", &mismatched, "CollectiveMismatch"),
    ] {
        let (serial_out, serial) = traced(programs, &FaultPlan::none(), 1);
        let (parallel_out, parallel) = traced(programs, &FaultPlan::none(), 3);
        assert!(
            serial_out.starts_with(&format!("Err({error}")),
            "{serial_out}"
        );
        assert_eq!(serial_out, parallel_out, "{what}");
        assert!(
            !serial.spans.is_empty() && !serial.edges.is_empty(),
            "{what}"
        );
        assert_eq!(serial, parallel, "{what}");
    }
    let plan = FaultPlan::none().with_event_budget(5);
    for threads in [1, 3] {
        let (out, bundle) = traced(&base, &plan, threads);
        assert!(out.starts_with("Err(WatchdogTimeout"), "{out}");
        assert!(!bundle.spans.is_empty(), "threads {threads}");
    }
}

/// Every rank on one node: the partition map has a single partition at
/// any thread count, so the run stays on the calling thread and agrees
/// with the one-thread run.
#[test]
fn single_partition_falls_back_to_serial() {
    let (fabric, cpus) = placement(&[NodeKind::Bx2b], 6);
    let phases = [
        Phase::Compute(1e-5),
        Phase::Ring {
            bytes: 4096,
            tag: 1,
        },
        Phase::Exchange { bytes: 512, tag: 9 },
        Phase::AllReduce { bytes: 64 },
    ];
    let programs = programs_for(&phases, cpus.len(), 0);
    let serial = simulate_on(&programs, &cpus, &fabric, &FaultPlan::none()).unwrap();
    let parallel = simulate_parallel_on(&programs, &cpus, &fabric, &FaultPlan::none(), 8).unwrap();
    assert_outcomes_identical(&serial, &parallel);
    assert_eq!(serial.faults.events, parallel.faults.events);
}

/// A fabric that quotes nothing beyond latency and bandwidth runs like
/// any other, including one whose cross-node latency is zero: no round
/// depends on a latency bound. Outcomes and bundles are identical at
/// one, two and four threads, with and without message drops.
#[test]
fn fabric_without_lookahead_falls_back_to_serial() {
    struct TwoLevel {
        cross: f64,
    }
    impl Fabric for TwoLevel {
        fn latency(&self, src: CpuId, dst: CpuId) -> f64 {
            if src.node == dst.node {
                1e-6
            } else {
                self.cross
            }
        }
        fn bandwidth(&self, _src: CpuId, _dst: CpuId) -> f64 {
            1e9
        }
        fn internode_contention(&self, _flows: u32) -> f64 {
            1.0
        }
    }
    let cpus: Vec<CpuId> = (0..8).map(|r| CpuId::new(r % 4, r / 4)).collect();
    let phases = [
        Phase::Ring {
            bytes: 1024,
            tag: 3,
        },
        Phase::Exchange { bytes: 256, tag: 9 },
        Phase::Barrier,
    ];
    let programs = programs_for(&phases, cpus.len(), 0);
    for cross in [1e-5, 0.0] {
        let fabric = TwoLevel { cross };
        for plan in [FaultPlan::none(), FaultPlan::with_drops(17, 0.3)] {
            let mut one = RecordingTracer::default();
            let serial = simulate(
                &programs,
                &cpus,
                &fabric,
                &plan,
                &mut one,
                &RunContext::new(1),
            )
            .unwrap();
            let one = one.into_bundle("run");
            for threads in [2usize, 4] {
                let mut many = RecordingTracer::default();
                let parallel = simulate(
                    &programs,
                    &cpus,
                    &fabric,
                    &plan,
                    &mut many,
                    &RunContext::new(threads),
                )
                .unwrap();
                assert_outcomes_identical(&serial, &parallel);
                let many = many.into_bundle("run");
                assert_eq!(one, many, "cross {cross}, threads {threads}");
            }
        }
    }
}

/// Closed-form oracles, not the engine: on an uncontended two-node
/// fabric without faults, a ping-pong makespan is the fold
/// `t = (t + c01) + c10` over its round trips, and a ring after a
/// uniform `Compute(c)` ends at `max_r(c + c(r-1 -> r))`, where each `c`
/// is the fabric's `pt2pt_time`. The per-send CPU overhead (0.2 us)
/// stays below every hop, so it never reaches the critical path. Both
/// hold bit for bit at one and two threads, over several message
/// sizes and CPU pairs.
#[test]
fn ping_pong_and_ring_match_closed_form_costs() {
    const ROUND_TRIPS: u64 = 5;
    let fabric = ClusterFabric::new(
        ClusterConfig::uniform(NodeKind::Bx2b, 2),
        InterNodeFabric::InfiniBand,
        MptVersion::Beta,
        8,
    );
    let sizes = [0u64, 8, 4096, 1 << 20];
    let pairs = [
        (CpuId::new(0, 0), CpuId::new(1, 0)),
        (CpuId::new(0, 3), CpuId::new(1, 200)),
        (CpuId::new(1, 5), CpuId::new(0, 6)),
        (CpuId::new(0, 1), CpuId::new(0, 130)),
    ];
    let plan = FaultPlan::none();
    let check = |programs: &Vec<Vec<Op>>, cpus: &[CpuId], want: f64, what: &str| {
        for threads in [1usize, 2] {
            let out = simulate_parallel_on(programs, cpus, &fabric, &plan, threads).unwrap();
            let got = out.makespan;
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}, threads {threads}: {got} vs {want}"
            );
        }
    };
    for bytes in sizes {
        for (a, b) in pairs {
            let (c01, c10) = (
                fabric.pt2pt_time(a, b, bytes),
                fabric.pt2pt_time(b, a, bytes),
            );
            let mut want = 0.0f64;
            for _ in 0..ROUND_TRIPS {
                want = (want + c01) + c10;
            }
            let ping = (0..ROUND_TRIPS)
                .flat_map(|tag| [Op::Send { to: 1, bytes, tag }, Op::Recv { from: 1, tag }])
                .collect();
            let pong = (0..ROUND_TRIPS)
                .flat_map(|tag| [Op::Recv { from: 0, tag }, Op::Send { to: 0, bytes, tag }])
                .collect();
            let what = format!("ping-pong {a:?} <-> {b:?}, {bytes} B");
            check(&vec![ping, pong], &[a, b], want, &what);
        }

        // Ranks alternate between the nodes, so every ring hop crosses.
        let compute = 3e-5;
        let cpus: Vec<CpuId> = (0..6u32).map(|r| CpuId::new(r % 2, 7 * r)).collect();
        let n = cpus.len();
        let mut programs = programs_for(&[Phase::Ring { bytes, tag: 1 }], n, 0);
        for ops in &mut programs {
            ops.insert(0, Op::Compute(compute));
        }
        let want = (0..n)
            .map(|r| compute + fabric.pt2pt_time(cpus[(r + n - 1) % n], cpus[r], bytes))
            .fold(0.0, f64::max);
        check(&programs, &cpus, want, &format!("ring, {bytes} B"));
    }
}

/// The engine's CPU cost of posting one send, a model constant.
const SEND_OVERHEAD: f64 = 0.2e-6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Closed-form oracles, not the engine, for the pairwise exchange
    /// and the four collectives. Each of `2 * pairs` ranks on 1–3 BX2b
    /// nodes computes for `c_r`, then issues one op of `bytes`; the
    /// makespan must equal the op's formula, written in the engine's
    /// order of operations, bit for bit at one and two threads:
    ///
    /// * exchange with `r ^ 1`: `max_r max(c_r + o, c_{r^1} + t(r^1 -> r))`,
    ///   with `o` the per-send overhead and `t` the fabric's `pt2pt_time`
    ///   (every hop costs more than `o`, so the makespan is an arrival);
    /// * with `L` the largest latency and `B` the smallest bandwidth over
    ///   the CPU pairs (first, last), (first, middle), (middle, last),
    ///   `k = ceil(log2 p)` and `m = max_r c_r`: barrier `m + L·k`,
    ///   allreduce `m + k·(L + bytes/B)`, broadcast from `root`
    ///   `max(m, c_root + k·(L + bytes/B))`, and all-to-all
    ///   `m + (L·k + (p - 1)·bytes / alltoall_bandwidth)`.
    ///
    /// From four ranks on, the same ranks also run on three InfiniBand
    /// nodes with rank 0 in the middle and ranks p/2 and p - 1 at the
    /// ends, where the (middle, last) pair alone sets `L`: an engine
    /// that skips that probe fails there.
    #[test]
    fn exchange_and_collectives_match_closed_form_costs(
        nodes in 1u32..4,
        pairs in 1usize..9,
        numalink in prop::sample::select(vec![true, false]),
        node_of in prop::collection::vec(0u32..3, 16),
        stride in 0u32..8,
        shift in 0u32..16,
        cpu_of in prop::collection::vec(0u32..32, 16),
        compute in prop::collection::vec(0.0f64..1e-2, 16),
        bytes in 0u64..(2 << 20) + 1,
        root in 0usize..16,
    ) {
        let p = 2 * pairs;
        let inter = if numalink {
            InterNodeFabric::NumaLink4
        } else {
            InterNodeFabric::InfiniBand
        };
        let fabric = ClusterFabric::new(
            ClusterConfig::uniform(NodeKind::Bx2b, nodes),
            inter,
            MptVersion::Beta,
            p as u32,
        );
        // Each rank gets its own block of 32 CPUs: an odd stride over
        // the 16 blocks is a permutation, so no two ranks share a CPU
        // and rank order need not follow CPU distance.
        let cpus: Vec<CpuId> = (0..p as u32)
            .map(|r| {
                let block = ((2 * stride + 1) * r + shift) % 16;
                CpuId::new(node_of[r as usize] % nodes, 32 * block + cpu_of[r as usize])
            })
            .collect();
        let c = &compute[..p];
        let root = root % p;
        collective_oracle(&fabric, &cpus, c, bytes, root)?;

        // The same ranks on a three-node InfiniBand fabric, with rank 0
        // on the middle node and ranks p/2 and p - 1 on the two end
        // nodes: InfiniBand latency grows with node distance, so only
        // the (middle, last) probe spans the diameter.
        if p >= 4 {
            let ends = ClusterFabric::new(
                ClusterConfig::uniform(NodeKind::Bx2b, 3),
                InterNodeFabric::InfiniBand,
                MptVersion::Beta,
                p as u32,
            );
            let placed: Vec<CpuId> = cpus
                .iter()
                .enumerate()
                .map(|(r, cpu)| {
                    let node = match r {
                        0 => 1,
                        r if r == p / 2 => 0,
                        r if r == p - 1 => 2,
                        r => node_of[r] % 3,
                    };
                    CpuId::new(node, cpu.cpu)
                })
                .collect();
            let probe = |i: usize, j: usize| ends.latency(placed[i], placed[j]);
            prop_assert!(probe(p / 2, p - 1) > probe(0, p - 1).max(probe(0, p / 2)));
            collective_oracle(&ends, &placed, c, bytes, root)?;
        }
    }
}

/// The exchange and collective makespans on one placement against
/// their formulas (see `exchange_and_collectives_match_closed_form_costs`),
/// at one and two threads.
fn collective_oracle(
    fabric: &ClusterFabric,
    cpus: &[CpuId],
    c: &[f64],
    bytes: u64,
    root: usize,
) -> Result<(), TestCaseError> {
    let p = cpus.len();
    let plan = FaultPlan::none();
    let check = |op_of: &dyn Fn(usize) -> Op, want: f64| -> Result<(), TestCaseError> {
        let programs: Vec<Vec<Op>> = (0..p).map(|r| vec![Op::Compute(c[r]), op_of(r)]).collect();
        for threads in [1usize, 2] {
            let got = simulate_parallel_on(&programs, cpus, fabric, &plan, threads)
                .unwrap()
                .makespan;
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{:?}, threads {}: {} vs {}",
                op_of(0),
                threads,
                got,
                want
            );
        }
        Ok(())
    };

    let exchange = (0..p)
        .map(|r| {
            let w = r ^ 1;
            (c[r] + SEND_OVERHEAD).max(c[w] + fabric.pt2pt_time(cpus[w], cpus[r], bytes))
        })
        .fold(0.0, f64::max);
    check(
        &|r| Op::Exchange {
            with: r ^ 1,
            bytes,
            tag: 0,
        },
        exchange,
    )?;

    let middle = p / 2;
    let (mut lat, mut bw) = (0.0f64, f64::INFINITY);
    for (i, j) in [(0, p - 1), (0, middle), (middle, p - 1)] {
        if i != j {
            lat = lat.max(fabric.latency(cpus[i], cpus[j]));
            bw = bw.min(fabric.bandwidth(cpus[i], cpus[j]));
        }
    }
    let k = f64::from(usize::BITS - (p - 1).leading_zeros());
    let m = c.iter().copied().fold(0.0, f64::max);
    let tree = k * (lat + bytes as f64 / bw);
    check(&|_| Op::Barrier, m + lat * k)?;
    check(&|_| Op::AllReduce { bytes }, m + tree)?;
    check(&|_| Op::Bcast { root, bytes }, m.max(c[root] + tree))?;
    let alltoall = lat * k + (p - 1) as f64 * bytes as f64 / fabric.alltoall_bandwidth(cpus);
    check(
        &|_| Op::AllToAll {
            bytes_per_pair: bytes,
        },
        m + alltoall,
    )
}

/// Closed-form oracle for a deep FIFO queue, in which the per-send
/// overhead reaches the makespan. Rank 0 posts `k` sends of
/// non-increasing sizes `b_i` to rank 1 on one tag; rank 1 computes for
/// `c`, then runs `k` × (`Recv`, `Compute(d)`). With `o` the per-send
/// overhead, `p_0 = 0` and `p_{i+1} = p_i + o` (rank 0's clock, summed
/// as the engine sums it), and `t_i` the fabric's `pt2pt_time` for
/// `b_i`, the makespan is
/// `max(p_k, fold(c, |x, i| x.max(p_i + t_i) + d))`, bit for bit at one
/// and two threads, for in-node and cross-node pairs and `k` up to 300.
/// Every send is queued before rank 1 receives, so its receives pop a
/// queue `k` deep, and the later `p_i` carry `i` overheads.
#[test]
fn a_deep_send_burst_matches_its_closed_form_fold() {
    let fabric = ClusterFabric::new(
        ClusterConfig::uniform(NodeKind::Bx2b, 2),
        InterNodeFabric::InfiniBand,
        MptVersion::Beta,
        4,
    );
    let pairs = [
        [CpuId::new(0, 0), CpuId::new(0, 1)],
        [CpuId::new(0, 3), CpuId::new(0, 200)],
        [CpuId::new(0, 0), CpuId::new(1, 0)],
        [CpuId::new(1, 5), CpuId::new(0, 6)],
    ];
    // Sizes falling by 64 B a step, so that each arrival lands later than
    // the one before by about `o`, or halving, so that the first one
    // dominates.
    let sizes: [fn(u64, u64) -> u64; 2] = [|k, i| 64 * (k - i), |_, i| (1 << 20) >> i.min(20)];
    let timings = [(0.0, 0.0), (0.0, 1e-7), (2e-5, 1e-6)];
    let plan = FaultPlan::none();
    let mut overhead_bound = 0;
    for k in [1u64, 7, 300] {
        for cpus in pairs {
            for size in sizes {
                for (c, d) in timings {
                    let bytes: Vec<u64> = (0..k).map(|i| size(k, i)).collect();
                    let sender: Vec<Op> = bytes
                        .iter()
                        .map(|&bytes| Op::Send {
                            to: 1,
                            bytes,
                            tag: 3,
                        })
                        .collect();
                    let mut receiver = vec![Op::Compute(c)];
                    for _ in 0..k {
                        receiver.extend([Op::Recv { from: 0, tag: 3 }, Op::Compute(d)]);
                    }
                    let fold = |o: f64| {
                        let (mut p, mut x) = (0.0f64, c);
                        for &b in &bytes {
                            x = x.max(p + fabric.pt2pt_time(cpus[0], cpus[1], b)) + d;
                            p += o;
                        }
                        p.max(x)
                    };
                    let programs = vec![sender, receiver];
                    let want = fold(SEND_OVERHEAD);
                    if want != fold(0.0) {
                        overhead_bound += 1;
                    }
                    for threads in [1usize, 2] {
                        let got = simulate_parallel_on(&programs, &cpus, &fabric, &plan, threads)
                            .unwrap()
                            .makespan;
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "k {k}, {cpus:?}, c {c}, d {d}, threads {threads}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }
    assert!(
        overhead_bound > 0,
        "no case puts the send overhead on the critical path"
    );
}

/// A rank's own message can carry any tag, including one with bit 63
/// set, and must never be taken for a half-done exchange. Rank 0 sends
/// itself a message, blocks in an exchange with a late rank 1, then
/// receives its own message. The run must succeed and equal, bit for
/// bit, the run whose self-send uses an unremarkable tag.
#[test]
fn a_self_send_never_aliases_a_half_done_exchange() {
    let (fabric, cpus) = placement(&[NodeKind::Bx2b, NodeKind::Bx2b], 1);
    let programs = |tag: u64| {
        vec![
            vec![
                Op::Send {
                    to: 0,
                    bytes: 8,
                    tag,
                },
                Op::Exchange {
                    with: 1,
                    bytes: 64,
                    tag: 5,
                },
                Op::Recv { from: 0, tag },
            ],
            vec![
                Op::Compute(1e-3),
                Op::Exchange {
                    with: 0,
                    bytes: 64,
                    tag: 5,
                },
            ],
        ]
    };
    let aliasing = (5 ^ (1 << 32)) | (1 << 63);
    for threads in [1usize, 2] {
        let run =
            |tag| simulate_parallel_on(&programs(tag), &cpus, &fabric, &FaultPlan::none(), threads);
        let plain = run(7).expect("the plain program completes");
        let aliased = run(aliasing);
        assert_eq!(
            format!("{aliased:?}"),
            format!("{:?}", Ok::<_, SimError>(plain)),
            "threads {threads}"
        );
    }
}

/// A panic inside any partition propagates out of `simulate` at two
/// threads, whether it hits a helper's partition (the last node) or
/// the leader's own (the first): no side is left waiting for a round
/// that will not end. Each run happens on its own thread and the test
/// waits with a timeout, so a hang fails the test instead of stalling
/// the suite.
#[test]
fn a_panic_in_any_partition_propagates_out_of_simulate() {
    /// Every rank computes once, except `victim`, whose first op panics.
    struct PanicsAt {
        n: usize,
        victim: usize,
    }
    impl Programs for PanicsAt {
        fn n_ranks(&self) -> usize {
            self.n
        }
        fn op(&self, rank: usize, pc: usize) -> Option<Op> {
            assert_ne!(rank, self.victim, "rank {rank}'s program panics");
            (pc == 0).then_some(Op::Compute(1e-6))
        }
        fn len_of(&self, _rank: usize) -> usize {
            1
        }
    }
    // Ranks interleave over the two nodes, so rank n - 1 sits on node 1
    // (partition 1, a helper's) and rank 0 on node 0 (the leader's).
    for victim in [3, 0] {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let (fabric, cpus) = placement(&[NodeKind::Bx2b, NodeKind::Bx2b], 2);
            let programs = PanicsAt {
                n: cpus.len(),
                victim,
            };
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                simulate_parallel_on(&programs, &cpus, &fabric, &FaultPlan::none(), 2)
            }));
            tx.send(run.is_err()).ok();
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("simulate hung after rank {victim} panicked"));
        assert!(panicked, "rank {victim}'s panic reached the caller");
    }
}

/// Empty program sets succeed identically (no ranks, one empty
/// partition).
#[test]
fn empty_program_set_is_identical() {
    let (fabric, _) = placement(&[NodeKind::Bx2b], 1);
    let programs: Vec<Vec<Op>> = Vec::new();
    let cpus: Vec<CpuId> = Vec::new();
    let serial = simulate_on(&programs, &cpus, &fabric, &FaultPlan::none()).unwrap();
    let parallel = simulate_parallel_on(&programs, &cpus, &fabric, &FaultPlan::none(), 4).unwrap();
    assert_outcomes_identical(&serial, &parallel);
}

/// The `[defaults] sim_threads` spec key decodes, round-trips through
/// the canonical emission, rejects invalid values, and lands on the
/// compiled plan (outside the fingerprint, so checkpoints survive).
#[test]
fn spec_sim_threads_key_round_trips_and_compiles() {
    let text = r#"
schema = "columbia-spec-v1"

[report]
id = "b_eff"
title = "pdes spec plumbing"
headers = ["pattern", "node", "CPUs", "latency", "bandwidth GB/s"]

[defaults]
sim_threads = 4

[[sweep]]
kind = "beff-in-node"
cpus = [4]
node = "BX2b"
row = ["{pattern}", "{node}", "{cpus}", "{latency}", "{bandwidth}"]
"#;
    let spec = columbia::spec::load_str(text).expect("spec decodes");
    assert_eq!(spec.sim_threads, Some(4));
    let emitted = spec.to_toml();
    assert!(
        emitted.contains("sim_threads = 4"),
        "canonical emission keeps the key:\n{emitted}"
    );
    let reparsed = columbia::spec::load_str(&emitted).expect("emission re-decodes");
    assert_eq!(reparsed.sim_threads, Some(4));

    let plan = columbia::compile(&spec).expect("spec compiles");
    assert_eq!(plan.sim_threads, Some(4));
    let mut serial_shape = plan;
    serial_shape.sim_threads = None;
    assert_eq!(
        columbia::compile(&reparsed).unwrap().fingerprint(),
        serial_shape.fingerprint(),
        "sim_threads must not perturb the plan fingerprint"
    );

    let bad = text.replace("sim_threads = 4", "sim_threads = 0");
    assert!(
        columbia::spec::load_str(&bad).is_err(),
        "sim_threads = 0 must be rejected"
    );
}

/// Ranks that reach a collective with different ops are a typed error
/// naming the lowest rank whose op differs from rank 0's, the same one at
/// every thread count.
#[test]
fn mismatched_collectives_are_the_same_typed_error_at_every_thread_count() {
    const BARRIER: Op = Op::Barrier;
    const REDUCE: Op = Op::AllReduce { bytes: 64 };
    // Ranks alternate between the two nodes: 0 and 2 on node 0, 1 and 3
    // on node 1.
    let (fabric, cpus) = placement(&[NodeKind::Bx2b, NodeKind::Bx2b], 2);
    // Each case maps a rank to its collectives, and names the one that
    // differs.
    type Collectives = fn(usize) -> Vec<Op>;
    let cases: [(Collectives, usize); 3] = [
        // Rank 0 alone at a barrier, every other rank at an allreduce.
        (|r| vec![if r == 0 { BARRIER } else { REDUCE }], 0),
        // Each node agrees with itself; the two nodes disagree.
        (|r| vec![if r % 2 == 0 { BARRIER } else { REDUCE }], 0),
        // Only the second collective differs.
        (|r| vec![BARRIER, if r == 0 { BARRIER } else { REDUCE }], 1),
    ];
    let plan = FaultPlan::none();
    for (collectives, seq) in cases {
        let programs: Vec<Vec<Op>> = (0..cpus.len())
            .map(|r| [vec![Op::Compute(1e-5 * (1 + r) as f64)], collectives(r)].concat())
            .collect();
        let expected = SimError::CollectiveMismatch {
            seq,
            rank: 1,
            expected: BARRIER,
            found: REDUCE,
        };
        for threads in [1usize, 2, 3, 7] {
            let got = simulate(
                &programs,
                &cpus,
                &fabric,
                &plan,
                &mut NullTracer,
                &RunContext::new(threads),
            );
            assert_eq!(got, Err(expected.clone()), "threads = {threads}");
        }
    }
}

/// The process-default thread count that `set_sim_threads` sets reaches
/// the engine through the `runtime::execute` shim (both kept for the
/// benchmark probes): at 4 threads the run is partitioned by node,
/// bit-identical to the one-thread run.
#[test]
fn global_sim_threads_parallelizes_simulate_traced_on() {
    use columbia::runtime::{
        execute, ExecConfig, Placement, PlacementStrategy, SpecOp, WorkloadSpec,
    };
    use columbia::simnet::{set_sim_threads, sim_threads};

    /// Puts the global back to serial however the test exits.
    struct ResetToSerial;
    impl Drop for ResetToSerial {
        fn drop(&mut self) {
            set_sim_threads(1);
        }
    }

    // Four ranks on each of two NUMAlink4 nodes: a ring that crosses
    // nodes, then a broadcast.
    let cluster = ClusterConfig::uniform(NodeKind::Bx2b, 2);
    let nodes = [NodeId(0), NodeId(1)];
    let mut cfg = ExecConfig::single_node(cluster.clone(), nodes[0], 8, 1);
    cfg.placement = Placement::new(&cluster, &nodes, 8, 1, PlacementStrategy::DenseCapped(4));
    cfg.nodes = nodes.to_vec();
    let mut spec = WorkloadSpec::with_ranks(8);
    for (r, ops) in spec.ranks.iter_mut().enumerate() {
        let (to, from) = ((r + 1) % 8, (r + 7) % 8);
        ops.push(SpecOp::Send {
            to,
            bytes: 2048,
            tag: 5,
        });
        ops.push(SpecOp::Recv { from, tag: 5 });
        ops.push(SpecOp::Bcast {
            root: 0,
            bytes: 8192,
        });
    }

    let _reset = ResetToSerial;
    set_sim_threads(1);
    let serial = execute(&spec, &cfg).unwrap();
    set_sim_threads(4);
    assert_eq!(sim_threads(), 4);
    let via_global = execute(&spec, &cfg).unwrap();
    assert_outcomes_identical(&serial, &via_global);
    // The scheduler-event count depends on the partition map, so a
    // different count shows that the run was partitioned by node.
    assert_ne!(serial.faults.events, via_global.faults.events);
}
