//! Simulator-engine benches: raw event throughput of the
//! discrete-event core, plus the PDES scaling curve on the
//! full-Columbia run, reported as a machine-readable `BENCH JSON` line
//! so CI can enforce the speedup floor.

use std::time::Instant;

use columbia_bench::BenchRecord;
use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric, NodeId};
use columbia_machine::node::NodeKind;
use columbia_simnet::fabric::{CachedFabric, ClusterFabric, MptVersion};
use columbia_simnet::fault::DEFAULT_MULTIPLEX_QUEUE_PENALTY;
use columbia_simnet::program::{ByteRule, Peer, ProgramSet, SpmdOp};
use columbia_simnet::{
    simulate_on, simulate_parallel_on, ConnectionLimit, ConnectionPolicy, FaultPlan, Op,
};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("ring_512_ranks_10_rounds", |b| {
        let fabric = ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 1));
        let n = 512usize;
        let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
        let programs: Vec<Vec<Op>> = (0..n)
            .map(|r| {
                let mut ops = Vec::new();
                for round in 0..10u64 {
                    ops.push(Op::Compute(1e-4));
                    ops.push(Op::Send {
                        to: (r + 1) % n,
                        bytes: 8192,
                        tag: round,
                    });
                    ops.push(Op::Recv {
                        from: (r + n - 1) % n,
                        tag: round,
                    });
                }
                ops
            })
            .collect();
        b.iter(|| simulate_on(&programs, &cpus, &fabric, &FaultPlan::none()).unwrap());
    });
    g.bench_function("alltoall_1024_ranks", |b| {
        let fabric = ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 2));
        let n = 1024usize;
        let cpus: Vec<CpuId> = (0..n)
            .map(|i| CpuId::new((i / 512) as u32, (i % 512) as u32))
            .collect();
        let programs: Vec<Vec<Op>> = (0..n)
            .map(|_| {
                vec![
                    Op::Compute(1e-3),
                    Op::AllToAll {
                        bytes_per_pair: 1024,
                    },
                ]
            })
            .collect();
        b.iter(|| simulate_on(&programs, &cpus, &fabric, &FaultPlan::none()).unwrap());
    });
    g.finish();
}

/// Minimum wall nanoseconds of a single call of `f` over `iters` timed
/// runs (after `warmup` discarded ones). Scheduling noise only ever
/// slows a run, so the per-iteration minimum is a far more stable
/// estimator than the mean for the speedup ratio the CI floor gates on.
fn time_ns(warmup: u32, iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// PDES scaling curve on the full-Columbia workload: the twenty-node,
/// 10,240-rank SPMD run of the `columbia` experiment (3 rounds of ring
/// send/recv + node-pair exchange + allreduce, then a 1 MB broadcast
/// and barrier, under the §2 connection budget), simulated on one
/// thread and on 2, 4 and 8 PDES threads. Bit-identity of the 4-thread
/// outcome is asserted before anything is timed. The `BENCH JSON` line
/// reports `speedup4` (one-thread time / 4-thread time), which
/// `ci/check_bench.py` floors at 1.92. On a box with fewer cores the
/// numbers are honest (the spawn-per-round scope just runs partitions
/// on the cores it has) — which is exactly why the floor lives in CI,
/// not here.
fn bench_pdes_scaling(_c: &mut Criterion) {
    let cluster = ClusterConfig::columbia();
    let ranks = cluster.total_cpus() as usize;
    let cpus: Vec<CpuId> = (0..cluster.nodes.len() as u32)
        .flat_map(|node| {
            let per = cluster.node_model(NodeId(node)).cpus;
            (0..per).map(move |c| CpuId::new(node, c))
        })
        .collect();
    let plan = FaultPlan::none().with_connection_limit(ConnectionLimit {
        cards_per_node: cluster.ib_cards_per_node,
        connections_per_card: cluster.ib_connections_per_card,
        policy: ConnectionPolicy::Multiplex {
            queue_penalty: DEFAULT_MULTIPLEX_QUEUE_PENALTY,
        },
    });
    let fabric = CachedFabric::new(ClusterFabric::new(
        cluster,
        InterNodeFabric::InfiniBand,
        MptVersion::Beta,
        ranks as u32,
    ));
    let template: Vec<SpmdOp> = {
        let mut t = Vec::new();
        for round in 0..3u64 {
            t.push(SpmdOp::Compute(2.0e-4));
            t.push(SpmdOp::Send {
                to: Peer::RingOffset(1),
                bytes: ByteRule::Uniform(8192),
                tag: round,
            });
            t.push(SpmdOp::Recv {
                from: Peer::RingOffset(-1),
                tag: round,
            });
            t.push(SpmdOp::Exchange {
                with: Peer::Xor(512),
                bytes: ByteRule::Uniform(32768),
                tag: 100 + round,
            });
            t.push(SpmdOp::AllReduce { bytes: 64 });
        }
        t.push(SpmdOp::Bcast {
            root: 0,
            bytes: 1 << 20,
        });
        t.push(SpmdOp::Barrier);
        t
    };
    let set = ProgramSet::spmd(ranks, template);

    let serial_out = simulate_on(&set, &cpus, &fabric, &plan).unwrap();
    let parallel_out = simulate_parallel_on(&set, &cpus, &fabric, &plan, 4).unwrap();
    assert_eq!(
        serial_out.makespan.to_bits(),
        parallel_out.makespan.to_bits(),
        "PDES path must be bit-identical before it is timed"
    );
    assert_eq!(
        serial_out.ranks.len(),
        parallel_out.ranks.len(),
        "PDES path must produce every rank"
    );
    for (r, (a, b)) in serial_out.ranks.iter().zip(&parallel_out.ranks).enumerate() {
        assert_eq!(
            a.total.to_bits(),
            b.total.to_bits(),
            "PDES rank {r} clock must match serial"
        );
    }

    let serial_ns = time_ns(1, 5, || {
        simulate_on(&set, &cpus, &fabric, &plan).unwrap();
    });
    let mut rec = BenchRecord::new("pdes_columbia_10240");
    rec = rec.metric("serial_ns_per_iter", serial_ns, 0);
    for threads in [2u32, 4, 8] {
        let t_ns = time_ns(1, 5, || {
            simulate_parallel_on(&set, &cpus, &fabric, &plan, threads as usize).unwrap();
        });
        rec = rec
            .metric(&format!("t{threads}_ns_per_iter"), t_ns, 0)
            .metric(&format!("speedup{threads}"), serial_ns / t_ns, 3);
    }
    rec.emit();
}

criterion_group!(benches, bench_engine, bench_pdes_scaling);
criterion_main!(benches);
