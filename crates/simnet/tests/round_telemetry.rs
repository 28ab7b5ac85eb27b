//! PDES rounds on the host-telemetry partition lanes.

use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric};
use columbia_machine::node::NodeKind;
use columbia_simnet::obs::{HostReport, NullTracer, PartitionSpan, RunContext};
use columbia_simnet::{simulate, ClusterFabric, FaultPlan, MptVersion, Op};

/// Run `programs` under a fresh host capture and return what it recorded.
fn captured(programs: &[Vec<Op>], cpus: &[CpuId], threads: usize) -> (u64, HostReport) {
    let nodes = cpus.iter().map(|c| c.node.0 + 1).max().unwrap_or(1);
    let fabric = ClusterFabric::new(
        ClusterConfig::uniform(NodeKind::Bx2b, nodes),
        InterNodeFabric::InfiniBand,
        MptVersion::Beta,
        cpus.len() as u32,
    );
    let ctx = RunContext::new(threads).with_host_capture();
    let out = simulate(
        programs,
        cpus,
        &fabric,
        &FaultPlan::none(),
        &mut NullTracer,
        &ctx,
    );
    let report = ctx.take_host_report().expect("the capture was live");
    (out.expect("the ring runs").faults.events, report)
}

fn labels<'a>(spans: impl Iterator<Item = &'a PartitionSpan>) -> Vec<&'a str> {
    spans.map(|s| s.label.as_str()).collect()
}

#[test]
fn partitioned_rounds_and_leader_phases_land_on_partition_lanes() {
    // Eight ranks, four per node, in a ring and then an allreduce: the
    // ring crosses the node boundary twice (3 -> 4 and 7 -> 0).
    let cpus: Vec<CpuId> = (0..8).map(|r| CpuId::new(r / 4, r % 4)).collect();
    let programs: Vec<Vec<Op>> = (0..8)
        .map(|r| {
            vec![
                Op::Compute(1e-6),
                Op::Send {
                    to: (r + 1) % 8,
                    bytes: 64,
                    tag: 1,
                },
                Op::Recv {
                    from: (r + 7) % 8,
                    tag: 1,
                },
                Op::AllReduce { bytes: 8 },
            ]
        })
        .collect();

    let (events, report) = captured(&programs, &cpus, 2);
    assert!(report.spans.is_empty(), "executor lanes are untouched");
    assert_eq!(report.partition_lanes(), vec![0, 1]);
    let (rounds, leaders): (Vec<&PartitionSpan>, Vec<&PartitionSpan>) = report
        .partitions
        .iter()
        .partition(|s| s.label.starts_with("round "));
    let n_rounds = leaders.len();
    assert!(n_rounds >= 2, "the ring needs a second round: {n_rounds}");
    // One "round k" per partition per round, one "leader k" per round on
    // lane 0, in order.
    for p in [0, 1] {
        assert_eq!(
            labels(rounds.iter().copied().filter(|s| s.partition == p)),
            (0..n_rounds)
                .map(|k| format!("round {k}"))
                .collect::<Vec<_>>(),
            "partition {p}"
        );
    }
    assert!(leaders.iter().all(|s| s.partition == 0));
    assert_eq!(
        labels(leaders.iter().copied()),
        (0..n_rounds)
            .map(|k| format!("leader {k}"))
            .collect::<Vec<_>>()
    );
    // The rounds' counts add up to the run's scheduler events, and the
    // leader delivered the two boundary messages.
    assert!(rounds.iter().all(|s| s.count.0 == "events"));
    assert_eq!(rounds.iter().map(|s| s.count.1).sum::<u64>(), events);
    assert!(leaders.iter().all(|s| s.count.0 == "messages"));
    assert_eq!(leaders.iter().map(|s| s.count.1).sum::<u64>(), 2);

    // One partition records nothing: at one thread, and on one node.
    let (_, serial) = captured(&programs, &cpus, 1);
    assert!(serial.partitions.is_empty(), "{:?}", serial.partitions);
    let one_node: Vec<CpuId> = (0..8).map(|r| CpuId::new(0, r)).collect();
    let (_, single) = captured(&programs, &one_node, 2);
    assert!(single.partitions.is_empty(), "{:?}", single.partitions);
}
