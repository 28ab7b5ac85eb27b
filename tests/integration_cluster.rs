//! Cross-crate integration: machine model + fabric + engine together.

use columbia::machine::cluster::{ClusterConfig, CpuId, InterNodeFabric, NodeId};
use columbia::machine::node::NodeKind;
use columbia::runtime::compiler::KernelClass;
use columbia::runtime::compute::WorkPhase;
use columbia::runtime::exec::{execute, ExecConfig, SpecOp, WorkloadSpec};
use columbia::simnet::fabric::{ClusterFabric, Fabric, MptVersion};
use columbia::simnet::{simulate_on, FaultPlan, Op};

#[test]
fn columbia_config_drives_the_fabric() {
    let cfg = ClusterConfig::columbia();
    let fabric = ClusterFabric::new(cfg, InterNodeFabric::InfiniBand, MptVersion::Beta, 1024);
    // 3700 nodes (id 0) vs BX2b nodes (id 19) have different in-node
    // bandwidths through the same fabric object.
    let bw_3700 = fabric.bandwidth(CpuId::new(0, 0), CpuId::new(0, 100));
    let bw_bx2b = fabric.bandwidth(CpuId::new(19, 0), CpuId::new(19, 100));
    assert!(bw_bx2b > bw_3700);
    // Cross-node goes over InfiniBand regardless of endpoints.
    let cross = fabric.bandwidth(CpuId::new(0, 0), CpuId::new(19, 0));
    assert!(cross < bw_3700);
}

#[test]
fn engine_runs_a_thousand_rank_program() {
    let n = 1024usize;
    let cfg = ClusterConfig::uniform(NodeKind::Bx2b, 2);
    let fabric = ClusterFabric::new(cfg, InterNodeFabric::NumaLink4, MptVersion::Beta, n as u32);
    let cpus: Vec<CpuId> = (0..n)
        .map(|i| CpuId::new((i / 512) as u32, (i % 512) as u32))
        .collect();
    let programs: Vec<Vec<Op>> = (0..n)
        .map(|r| {
            vec![
                Op::Compute(0.01 * (1.0 + (r % 7) as f64 / 10.0)),
                Op::Barrier,
                Op::AllReduce { bytes: 8 },
            ]
        })
        .collect();
    let out = simulate_on(&programs, &cpus, &fabric, &FaultPlan::none()).unwrap();
    assert_eq!(out.ranks.len(), n);
    // Everyone leaves the final collective together.
    let t0 = out.ranks[0].total;
    for r in &out.ranks {
        assert!((r.total - t0).abs() < 1e-12);
    }
}

#[test]
fn executor_spans_the_full_stack() {
    // A hybrid 2-node run through placement, compute model, fabric and
    // engine in one call.
    let cluster = ClusterConfig::uniform(NodeKind::Bx2b, 2);
    let nodes = vec![NodeId(0), NodeId(1)];
    let placement = columbia::runtime::placement::Placement::new(
        &cluster,
        &nodes,
        128,
        4,
        columbia::runtime::placement::PlacementStrategy::Dense,
    );
    let cfg = ExecConfig {
        cluster,
        nodes,
        inter: InterNodeFabric::NumaLink4,
        mpt: MptVersion::Beta,
        placement,
        compiler: columbia::runtime::compiler::CompilerVersion::V8_1,
        pinning: columbia::runtime::pinning::Pinning::Pinned,
        faults: columbia::simnet::FaultPlan::none(),
    };
    let mut spec = WorkloadSpec::with_ranks(128);
    for ops in spec.ranks.iter_mut() {
        ops.push(SpecOp::Work(WorkPhase::new(
            1.0e9,
            1.0e8,
            4 << 20,
            0.2,
            KernelClass::BlockSolver,
        )));
        ops.push(SpecOp::AllToAll {
            bytes_per_pair: 4096,
        });
    }
    let out = execute(&spec, &cfg).unwrap();
    assert!(out.makespan > 0.0);
    assert!(out.mean_comm() > 0.0);
    assert!(out.ranks.iter().all(|r| r.compute > 0.0));
}

#[test]
fn infiniband_connection_limit_enforced_by_config() {
    let c = ClusterConfig::columbia();
    // The §2 formula: three nodes fully usable, four not.
    assert_eq!(
        (2..=8).filter(|&n| c.pure_mpi_fully_usable(n)).max(),
        Some(3)
    );
}
