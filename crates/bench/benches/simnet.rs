//! Simulator-engine benches: raw event throughput of the
//! discrete-event core, plus the PDES scaling curve on the
//! full-Columbia run, reported as a machine-readable `BENCH JSON` line
//! so CI can enforce the speedup floor. A plain main (`harness =
//! false`): `cargo bench --bench simnet`.

use columbia_bench::timing::{print_row, time_ns};
use columbia_bench::BenchRecord;
use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric, NodeId};
use columbia_machine::node::NodeKind;
use columbia_simnet::fabric::{CachedFabric, ClusterFabric, MptVersion};
use columbia_simnet::fault::DEFAULT_MULTIPLEX_QUEUE_PENALTY;
use columbia_simnet::program::{ByteRule, Peer, ProgramSet, SpmdOp};
use columbia_simnet::{
    simulate_on, simulate_parallel_on, ConnectionLimit, ConnectionPolicy, FaultPlan, Op,
};

/// All-to-all over 1,024 ranks on two BX2b nodes: the engine's
/// collective path. An informational row; the 512-rank ring row lives
/// in the `obs` bench, beside its traced twin.
fn bench_engine() {
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
    print_row("engine/alltoall_1024_ranks", 10, || {
        simulate_on(&programs, &cpus, &fabric, &FaultPlan::none()).unwrap();
    });
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
fn bench_pdes_scaling() {
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

fn main() {
    bench_engine();
    bench_pdes_scaling();
}
