//! Fault-injection benches: engine overhead and makespan inflation of
//! a faulted fabric versus the healthy baseline.

use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric, NodeId};
use columbia_machine::node::NodeKind;
use columbia_simnet::fabric::{ClusterFabric, MptVersion};
use columbia_simnet::{simulate_on, FaultPlan, Op};
use criterion::{criterion_group, criterion_main, Criterion};

/// Two BX2b nodes, `per_node` ranks each, ring exchange with compute.
fn ring_setup(per_node: usize) -> (Vec<Vec<Op>>, Vec<CpuId>, ClusterFabric) {
    let n = 2 * per_node;
    let fabric = ClusterFabric::new(
        ClusterConfig::uniform(NodeKind::Bx2b, 2),
        InterNodeFabric::InfiniBand,
        MptVersion::Beta,
        n as u32,
    );
    let cpus: Vec<CpuId> = (0..n)
        .map(|i| CpuId::new((i / per_node) as u32, (i % per_node) as u32))
        .collect();
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
    (programs, cpus, fabric)
}

fn bench_fault_rates(c: &mut Criterion) {
    let (programs, cpus, fabric) = ring_setup(256);
    let healthy = simulate_on(&programs, &cpus, &fabric, &FaultPlan::none())
        .unwrap()
        .makespan;

    let mut g = c.benchmark_group("faults");
    g.sample_size(10);
    for drop_pct in [0u32, 2, 5, 10, 20] {
        let plan = FaultPlan::with_drops(42, drop_pct as f64 / 100.0);
        let out = simulate_on(&programs, &cpus, &fabric, &plan).unwrap();
        // The quantity under study: simulated-time inflation per rate.
        eprintln!(
            "faults/drop_{drop_pct}pct: makespan {:.3} ms, inflation {:.3}x, {} drops",
            out.makespan * 1e3,
            out.makespan / healthy,
            out.faults.drop_events,
        );
        g.bench_function(format!("ring_512_drop_{drop_pct}pct"), |b| {
            b.iter(|| simulate_on(&programs, &cpus, &fabric, &plan).unwrap());
        });
    }
    g.finish();
}

fn bench_fault_kinds(c: &mut Criterion) {
    let (programs, cpus, fabric) = ring_setup(256);
    let mut g = c.benchmark_group("fault_kinds");
    g.sample_size(10);
    let plans = [
        ("healthy", FaultPlan::none()),
        (
            "degraded_link",
            FaultPlan::none().degrade_link(NodeId(0), NodeId(1), 4.0, 0.25),
        ),
        ("slow_node", FaultPlan::none().slow_node(NodeId(1), 2.0)),
    ];
    for (name, plan) in plans {
        g.bench_function(name, |b| {
            b.iter(|| simulate_on(&programs, &cpus, &fabric, &plan).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fault_rates, bench_fault_kinds);
criterion_main!(benches);
