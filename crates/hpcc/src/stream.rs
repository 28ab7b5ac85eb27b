//! HPCC STREAM: sustained memory bandwidth (§4.1.1, §4.2).
//!
//! The measured behaviour the model reproduces:
//!
//! * one process: ~3.8 GB/s; every CPU of a node dense: ~2 GB/s per
//!   CPU (the shared front-side bus), scaling linearly to 7,500 CPUs;
//! * stride 2 or 4: per-CPU numbers return to the 1-CPU level — 1.9×
//!   on triad;
//! * the 3700 holds an unexplained ~1% edge over both BX2 flavours;
//! * the internode network plays no role (STREAM is node-local).

use columbia_machine::cluster::ClusterConfig;
use columbia_machine::cluster::NodeId;
use columbia_machine::memory::{MemoryModel, StreamOp};
use columbia_machine::node::{NodeKind, NodeModel};
use columbia_runtime::placement::{Placement, PlacementStrategy};

use crate::MEMORY_FRACTION;

/// Result of one STREAM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// Node flavour.
    pub kind: NodeKind,
    /// Active CPUs.
    pub cpus: u32,
    /// Placement stride.
    pub stride: u32,
    /// Per-CPU bandwidth for each op, bytes/s, in STREAM order.
    pub per_cpu: [(StreamOp, f64); 4],
}

impl StreamResult {
    /// Per-CPU triad bandwidth (the headline number).
    pub fn triad(&self) -> f64 {
        self.per_cpu[3].1
    }

    /// Aggregate triad bandwidth over all active CPUs.
    pub fn aggregate_triad(&self) -> f64 {
        self.triad() * self.cpus as f64
    }
}

/// Vector length per CPU under the 75%-of-memory rule (three vectors).
pub fn problem_size(node: &NodeModel) -> usize {
    (node.memory_per_cpu() as f64 * MEMORY_FRACTION / (3.0 * 8.0)) as usize
}

/// Simulate STREAM on `cpus` CPUs of a node placed at `stride`.
pub fn simulate(kind: NodeKind, cpus: u32, stride: u32) -> StreamResult {
    assert!(cpus >= 1 && stride >= 1);
    let cluster = ClusterConfig::uniform(kind, 1);
    let node = NodeModel::new(kind);
    let strategy = if stride == 1 {
        PlacementStrategy::Dense
    } else {
        PlacementStrategy::Strided(stride)
    };
    let placement = Placement::single_node(&cluster, NodeId(0), cpus as usize, 1, strategy);
    let mem = MemoryModel::new(&node);
    // Mean sharer count across active CPUs decides the per-CPU rate.
    let mean_sharers = placement.mean_bus_sharers;
    let sharers = if mean_sharers > 1.5 { 2 } else { 1 };
    let per_cpu = [
        StreamOp::Copy,
        StreamOp::Scale,
        StreamOp::Add,
        StreamOp::Triad,
    ]
    .map(|op| (op, mem.stream_bandwidth(op, sharers)));
    StreamResult {
        kind,
        cpus,
        stride,
        per_cpu,
    }
}

/// The October-2004 scaling observation: aggregate triad over `cpus`
/// CPUs spread across as many nodes as needed, ~2 GB/s per CPU.
pub fn aggregate_scaling(kind: NodeKind, cpus: u32) -> f64 {
    let per_node = 512.min(cpus);
    simulate(kind, per_node, 1).triad() * cpus as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cpu_hits_3_8_gbs() {
        let r = simulate(NodeKind::Bx2b, 1, 1);
        assert!((3.5e9..3.9e9).contains(&r.triad()), "{}", r.triad());
    }

    #[test]
    fn dense_node_gives_2_gbs_per_cpu() {
        let r = simulate(NodeKind::Bx2b, 512, 1);
        assert!((1.8e9..2.1e9).contains(&r.triad()), "{}", r.triad());
    }

    #[test]
    fn stride_2_restores_single_cpu_rate() {
        // §4.2: "at a CPU stride of either 2 or 4, the STREAM benchmark
        // produced per-processor numbers equivalent to the 1-CPU case
        // ... the bandwidth is 1.9x higher."
        let dense = simulate(NodeKind::Altix3700, 128, 1);
        let strided = simulate(NodeKind::Altix3700, 128, 2);
        let single = simulate(NodeKind::Altix3700, 1, 1);
        assert!((strided.triad() - single.triad()).abs() / single.triad() < 1e-9);
        let gain = strided.triad() / dense.triad();
        assert!((gain - 1.9).abs() < 0.05, "gain={gain}");
    }

    #[test]
    fn stride_4_equivalent_to_stride_2() {
        let s2 = simulate(NodeKind::Bx2a, 64, 2);
        let s4 = simulate(NodeKind::Bx2a, 64, 4);
        assert_eq!(s2.triad(), s4.triad());
    }

    #[test]
    fn the_3700_keeps_its_1pct_edge() {
        let t3 = simulate(NodeKind::Altix3700, 256, 1).triad();
        let tb = simulate(NodeKind::Bx2b, 256, 1).triad();
        let edge = t3 / tb;
        assert!((edge - 1.01).abs() < 1e-6, "edge={edge}");
    }

    #[test]
    fn aggregate_scales_linearly_to_7500_cpus() {
        let per_cpu_2 = aggregate_scaling(NodeKind::Altix3700, 2) / 2.0;
        let per_cpu_7500 = aggregate_scaling(NodeKind::Altix3700, 7500) / 7500.0;
        assert!((per_cpu_2 - per_cpu_7500).abs() / per_cpu_2 < 1e-9);
        assert!((1.8e9..2.2e9).contains(&per_cpu_7500));
    }

    #[test]
    fn copy_is_fastest_triad_slowest_in_order() {
        let r = simulate(NodeKind::Bx2b, 8, 1);
        assert!(r.per_cpu[0].1 >= r.per_cpu[3].1);
    }

    #[test]
    fn problem_size_fills_budget() {
        let node = NodeModel::new(NodeKind::Altix3700);
        let n = problem_size(&node);
        let bytes = 3 * n * 8;
        assert!((bytes as f64) <= node.memory_per_cpu() as f64 * MEMORY_FRACTION);
        assert!((bytes as f64) > 0.99 * node.memory_per_cpu() as f64 * MEMORY_FRACTION);
    }
}
