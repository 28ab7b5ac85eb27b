//! Property-based tests over the discrete-event engine and fabrics.

use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric};
use columbia_machine::node::NodeKind;
use columbia_simnet::fabric::{CachedFabric, ClusterFabric, Fabric, MptVersion};
use columbia_simnet::obs::{RecordingTracer, Track};
use columbia_simnet::program::{ByteRule, Peer, ProgramSet, SpmdOp};
use columbia_simnet::{simulate, simulate_on, FaultPlan, Op};
use proptest::prelude::*;

fn fabric() -> ClusterFabric {
    ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 1))
}

/// Ring of compute + send/recv, the canonical fault-injection workload.
fn ring(n: usize, bytes: u64, compute: f64) -> Vec<Vec<Op>> {
    (0..n)
        .map(|r| {
            vec![
                Op::Compute(compute * (1.0 + r as f64)),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compute_only_programs_never_deadlock_and_sum_exactly(
        times in prop::collection::vec(
            prop::collection::vec(1e-6f64..1e-2, 1..6),
            1..12,
        ),
    ) {
        let programs: Vec<Vec<Op>> = times
            .iter()
            .map(|ts| ts.iter().map(|&t| Op::Compute(t)).collect())
            .collect();
        let cpus: Vec<CpuId> = (0..programs.len() as u32).map(|c| CpuId::new(0, c)).collect();
        let out = simulate_on(&programs, &cpus, &fabric(), &FaultPlan::none()).unwrap();
        for (r, ts) in out.ranks.iter().zip(&times) {
            let want: f64 = ts.iter().sum();
            prop_assert!((r.total - want).abs() < 1e-12);
            prop_assert_eq!(r.comm, 0.0);
        }
    }

    #[test]
    fn matched_send_recv_pairs_always_complete(
        n in 2usize..16,
        bytes in 1u64..1_000_000,
        compute in 1e-6f64..1e-3,
    ) {
        // Every rank sends to the next and receives from the previous
        // (posted sends-first, so any order completes).
        let programs: Vec<Vec<Op>> = (0..n)
            .map(|r| {
                vec![
                    Op::Compute(compute * (1.0 + r as f64)),
                    Op::Send { to: (r + 1) % n, bytes, tag: 1 },
                    Op::Recv { from: (r + n - 1) % n, tag: 1 },
                ]
            })
            .collect();
        let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
        let out = simulate_on(&programs, &cpus, &fabric(), &FaultPlan::none()).unwrap();
        prop_assert!(out.makespan >= compute * n as f64); // slowest compute
        for r in &out.ranks {
            prop_assert!(r.comm >= 0.0);
            prop_assert!(r.total >= r.compute);
        }
    }

    #[test]
    fn barriers_always_align_clocks(
        times in prop::collection::vec(1e-6f64..1e-2, 2..20),
    ) {
        let programs: Vec<Vec<Op>> = times
            .iter()
            .map(|&t| vec![Op::Compute(t), Op::Barrier])
            .collect();
        let cpus: Vec<CpuId> = (0..programs.len() as u32).map(|c| CpuId::new(0, c)).collect();
        let out = simulate_on(&programs, &cpus, &fabric(), &FaultPlan::none()).unwrap();
        let t0 = out.ranks[0].total;
        for r in &out.ranks {
            prop_assert!((r.total - t0).abs() < 1e-15);
        }
        let max_compute = times.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(t0 >= max_compute);
    }

    #[test]
    fn fabric_costs_are_positive_and_monotone_in_size(
        a in 0u32..512,
        b in 0u32..512,
        small in 1u64..10_000,
        extra in 1u64..10_000_000,
    ) {
        let f = fabric();
        let (ca, cb) = (CpuId::new(0, a), CpuId::new(0, b));
        if a != b {
            let lat = f.latency(ca, cb);
            prop_assert!(lat > 0.0);
            let t_small = f.pt2pt_time(ca, cb, small);
            let t_big = f.pt2pt_time(ca, cb, small + extra);
            prop_assert!(t_big > t_small);
        }
    }

    #[test]
    fn latency_is_symmetric(a in 0u32..512, b in 0u32..512) {
        let f = fabric();
        let (ca, cb) = (CpuId::new(0, a), CpuId::new(0, b));
        let ab = f.latency(ca, cb);
        let ba = f.latency(cb, ca);
        prop_assert!((ab - ba).abs() < 1e-15);
    }

    #[test]
    fn zero_fault_plan_is_bitwise_identical_to_baseline(
        n in 2usize..16,
        bytes in 1u64..1_000_000,
        compute in 1e-6f64..1e-3,
        seed in 0u64..u64::MAX,
    ) {
        // Whatever the seed, a plan with zero drop probability and no
        // faults must reproduce the fault-free timeline bit for bit.
        let programs = ring(n, bytes, compute);
        let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
        let base = simulate_on(&programs, &cpus, &fabric(), &FaultPlan::none()).unwrap();
        let plan = FaultPlan::with_drops(seed, 0.0);
        let faulted = simulate_on(&programs, &cpus, &fabric(), &plan).unwrap();
        prop_assert_eq!(base, faulted);
    }

    #[test]
    fn identical_seeds_yield_identical_faulted_runs(
        n in 2usize..16,
        bytes in 1u64..1_000_000,
        seed in 0u64..u64::MAX,
        drop_prob in 0.0f64..0.9,
    ) {
        let programs = ring(n, bytes, 1e-5);
        let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
        let plan = FaultPlan::with_drops(seed, drop_prob);
        let a = simulate_on(&programs, &cpus, &fabric(), &plan).unwrap();
        let b = simulate_on(&programs, &cpus, &fabric(), &plan).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn makespan_is_monotone_in_drop_probability(
        n in 2usize..12,
        bytes in 1u64..100_000,
        seed in 0u64..u64::MAX,
        p_lo in 0.0f64..0.4,
        p_extra in 0.0f64..0.5,
    ) {
        // For a fixed seed the dropped-prefix of each message is
        // monotone in the drop probability, so the makespan can only
        // grow as the fault rate rises.
        let programs = ring(n, bytes, 1e-5);
        let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
        let lo = simulate_on(
            &programs, &cpus, &fabric(), &FaultPlan::with_drops(seed, p_lo),
        ).unwrap();
        let hi = simulate_on(
            &programs, &cpus, &fabric(), &FaultPlan::with_drops(seed, p_lo + p_extra),
        ).unwrap();
        prop_assert!(hi.makespan >= lo.makespan);
        prop_assert!(hi.faults.drop_events >= lo.faults.drop_events);
    }

    #[test]
    fn recorded_spans_are_monotone_and_account_for_every_second(
        n in 2usize..14,
        bytes in 1u64..500_000,
        compute in 1e-6f64..1e-3,
        seed in 0u64..u64::MAX,
        drop_prob in 0.0f64..0.6,
        with_barrier in prop::sample::select(vec![false, true]),
    ) {
        // The tracer's CPU-track spans must tile each rank's timeline:
        // per-rank monotone, non-overlapping, durations summing to the
        // rank's final clock — under faults and collectives alike.
        let mut programs = ring(n, bytes, compute);
        if with_barrier {
            for p in &mut programs {
                p.push(Op::Barrier);
                p.push(Op::AllReduce { bytes: 128 });
            }
        }
        let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
        let plan = FaultPlan::with_drops(seed, drop_prob);
        let mut tracer = RecordingTracer::new();
        let traced = simulate(&programs, &cpus, &fabric(), &plan, &mut tracer, 1).unwrap();
        // Tracing never perturbs the simulation.
        let plain = simulate_on(&programs, &cpus, &fabric(), &plan).unwrap();
        prop_assert_eq!(&plain, &traced);
        for (r, rank) in traced.ranks.iter().enumerate() {
            let mut cursor = 0.0f64;
            let mut sum = 0.0f64;
            for s in tracer.rank_spans(r).filter(|s| s.kind.track() == Track::Cpu) {
                prop_assert!(s.end >= s.start, "negative span {s:?}");
                prop_assert!(
                    s.start >= cursor - 1e-12,
                    "rank {} span {:?} overlaps previous end {}", r, s, cursor
                );
                cursor = s.end;
                sum += s.end - s.start;
            }
            prop_assert!(
                (sum - rank.total).abs() < 1e-9,
                "rank {}: span sum {} != final clock {}", r, sum, rank.total
            );
        }
    }

    #[test]
    fn faults_never_shrink_a_run_below_fault_free(
        n in 2usize..12,
        seed in 0u64..u64::MAX,
        drop_prob in 0.0f64..0.9,
        slowdown in 1.0f64..4.0,
    ) {
        let programs = ring(n, 4096, 1e-5);
        let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
        let base = simulate_on(&programs, &cpus, &fabric(), &FaultPlan::none()).unwrap();
        let plan = FaultPlan::with_drops(seed, drop_prob)
            .slow_cpu(CpuId::new(0, 0), slowdown);
        let faulted = simulate_on(&programs, &cpus, &fabric(), &plan).unwrap();
        prop_assert!(faulted.makespan >= base.makespan);
    }

    #[test]
    fn cached_fabric_is_bitwise_identical_to_cluster_fabric(
        kind in prop::sample::select(vec![NodeKind::Altix3700, NodeKind::Bx2a, NodeKind::Bx2b]),
        n_nodes in 1u32..5,
        inter in prop::sample::select(vec![
            InterNodeFabric::NumaLink4,
            InterNodeFabric::InfiniBand,
        ]),
        mpt in prop::sample::select(vec![MptVersion::Released, MptVersion::Beta]),
        sa in 0u32..512,
        sb in 0u32..512,
        na in 0u32..5,
        nb in 0u32..5,
        bytes in 1u64..10_000_000,
    ) {
        // The pair-class cache must reproduce every point cost exactly —
        // same bits, not just close — across node kinds, inter-node
        // fabrics, and MPT versions, for in-node and cross-node pairs.
        let direct = ClusterFabric::new(
            ClusterConfig::uniform(kind, n_nodes),
            inter,
            mpt,
            n_nodes * 512,
        );
        let cached = CachedFabric::new(direct.clone());
        let a = CpuId::new(na % n_nodes, sa);
        let b = CpuId::new(nb % n_nodes, sb);
        prop_assert_eq!(cached.latency(a, b).to_bits(), direct.latency(a, b).to_bits());
        prop_assert_eq!(cached.bandwidth(a, b).to_bits(), direct.bandwidth(a, b).to_bits());
        prop_assert_eq!(
            cached.pt2pt_time(a, b, bytes).to_bits(),
            direct.pt2pt_time(a, b, bytes).to_bits()
        );
    }

    #[test]
    fn spmd_cached_static_engine_matches_per_rank_dyn_uncached(
        half in 1usize..12,
        bytes in 1u64..200_000,
        compute in 1e-6f64..1e-3,
        seed in 0u64..u64::MAX,
        drop_prob in 0.0f64..0.5,
        root_pick in 0usize..24,
    ) {
        // The whole fast path at once — compact SPMD programs on a
        // CachedFabric — must be bit-identical to materialized per-rank
        // programs on the uncached fabric, fault plans and all.
        let n = 2 * half; // even, so Xor(1) pairs every rank
        let template = vec![
            SpmdOp::Compute(compute),
            SpmdOp::Send {
                to: Peer::RingOffset(1),
                bytes: ByteRule::RankScaled { base: bytes, step: 64 },
                tag: 7,
            },
            SpmdOp::Recv { from: Peer::RingOffset(-1), tag: 7 },
            SpmdOp::Exchange { with: Peer::Xor(1), bytes: ByteRule::Uniform(bytes), tag: 9 },
            SpmdOp::AllReduce { bytes: 256 },
            SpmdOp::Bcast { root: root_pick % n, bytes },
            SpmdOp::Barrier,
        ];
        let set = ProgramSet::spmd(n, template);
        let direct = ClusterFabric::new(
            ClusterConfig::uniform(NodeKind::Bx2b, 2),
            InterNodeFabric::InfiniBand,
            MptVersion::Released,
            n as u32,
        );
        let cached = CachedFabric::new(direct.clone());
        let cpus: Vec<CpuId> = (0..n)
            .map(|r| CpuId::new((r % 2) as u32, (r / 2) as u32))
            .collect();
        let plan = FaultPlan::with_drops(seed, drop_prob);
        let fast = simulate_on(&set, &cpus, &cached, &plan).unwrap();
        let slow = simulate_on(&set.materialize(), &cpus, &direct, &plan).unwrap();
        prop_assert_eq!(fast, slow);
    }
}
