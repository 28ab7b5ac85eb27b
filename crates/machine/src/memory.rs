//! Memory-system performance model.
//!
//! Sustained bandwidth on the Altix is governed by three mechanisms the
//! paper measures directly:
//!
//! 1. **Bus sharing** (§4.2): two CPUs share each front-side bus. One
//!    STREAM process drives ~3.8 GB/s; when its bus-mate is also
//!    streaming, each gets ~2 GB/s. Strided placement (every 2nd or 4th
//!    CPU) restores the single-process figure — 1.9x on triad.
//! 2. **Cache residency**: working sets that fit in L3 (6 MB or 9 MB)
//!    run well above memory speed — the source of the ~50% MG/BT jump
//!    on BX2b at ≥64 CPUs (Fig. 6) and of OVERFLOW-D's BX2b advantage.
//! 3. **NUMA locality** (§4.3): a remote load through the directory
//!    protocol costs [`calib::NUMA_REMOTE_PENALTY`]× a local one, which
//!    is what thread pinning protects against.

use crate::brick::CBrick;
use crate::calib;
use crate::node::{NodeKind, NodeModel};
use crate::processor::CacheLevel;

/// STREAM kernel selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamOp {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = s * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + s * c[i]`
    Triad,
}

impl StreamOp {
    /// All four operations in STREAM's canonical order.
    pub const ALL: [StreamOp; 4] = [
        StreamOp::Copy,
        StreamOp::Scale,
        StreamOp::Add,
        StreamOp::Triad,
    ];

    /// Bytes moved per vector element (8-byte doubles).
    pub fn bytes_per_element(self) -> u64 {
        match self {
            StreamOp::Copy | StreamOp::Scale => 16,
            StreamOp::Add | StreamOp::Triad => 24,
        }
    }

    /// Flops per element (0 for copy, 1 for scale/add, 2 for triad).
    pub fn flops_per_element(self) -> u64 {
        match self {
            StreamOp::Copy => 0,
            StreamOp::Scale | StreamOp::Add => 1,
            StreamOp::Triad => 2,
        }
    }

    /// Relative sustained-bandwidth factor from the calibration table.
    pub fn calib_factor(self) -> f64 {
        calib::STREAM_OP_FACTOR[self as usize].1
    }

    /// Lower-case name as STREAM prints it.
    pub fn name(self) -> &'static str {
        calib::STREAM_OP_FACTOR[self as usize].0
    }
}

/// Memory model for one node flavour.
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel {
    kind: NodeKind,
    brick: CBrick,
}

impl MemoryModel {
    /// Model for a node of the given flavour.
    pub fn new(node: &NodeModel) -> Self {
        MemoryModel {
            kind: node.kind,
            brick: node.brick,
        }
    }

    /// Sustained local-memory bandwidth for one CPU, bytes/s, when
    /// `sharers` CPUs on its bus are simultaneously streaming
    /// (`sharers >= 1` counts the CPU itself).
    pub fn stream_bandwidth(&self, op: StreamOp, sharers: u32) -> f64 {
        assert!(sharers >= 1, "a CPU always shares with itself");
        let base = if sharers == 1 {
            calib::BUS_BANDWIDTH * calib::STREAM_SINGLE_FRACTION
        } else {
            calib::BUS_BANDWIDTH / sharers as f64
        };
        let edge = if self.kind == NodeKind::Altix3700 {
            calib::STREAM_3700_EDGE
        } else {
            1.0
        };
        base * op.calib_factor() * edge
    }

    /// Effective bandwidth multiplier for a per-CPU floating-point
    /// working set of `bytes`: >1 when the set is cache-resident.
    pub fn cache_speedup(&self, node: &NodeModel, working_set_bytes: u64) -> f64 {
        match node.processor.caches.fp_resident_level(working_set_bytes) {
            CacheLevel::L1 | CacheLevel::L2 => calib::CACHE_L2_SPEEDUP,
            CacheLevel::L3 => calib::CACHE_L3_SPEEDUP,
            CacheLevel::Memory => 1.0,
        }
    }

    /// Average access-time multiplier when a fraction `remote_fraction`
    /// of loads are serviced by a remote SHUB (pinning model input).
    pub fn numa_penalty(&self, remote_fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&remote_fraction));
        1.0 + remote_fraction * (calib::NUMA_REMOTE_PENALTY - 1.0)
    }

    /// Bus-sharer count for a CPU given the set of active CPUs in its
    /// node (dense in-node numbering).
    pub fn sharers(&self, cpu: u32, active: &[u32]) -> u32 {
        self.brick.bus_sharers(cpu, active).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(kind: NodeKind) -> (NodeModel, MemoryModel) {
        let node = NodeModel::new(kind);
        let mem = MemoryModel::new(&node);
        (node, mem)
    }

    #[test]
    fn single_cpu_triad_near_3_8_gbs() {
        let (_, mem) = model(NodeKind::Bx2b);
        let bw = mem.stream_bandwidth(StreamOp::Triad, 1);
        assert!((3.5e9..3.9e9).contains(&bw), "bw={bw:.3e}");
    }

    #[test]
    fn dense_triad_near_2_gbs_each() {
        let (_, mem) = model(NodeKind::Bx2b);
        let bw = mem.stream_bandwidth(StreamOp::Triad, 2);
        assert!((1.8e9..2.1e9).contains(&bw), "bw={bw:.3e}");
    }

    #[test]
    fn stride_gain_is_about_1_9x() {
        let (_, mem) = model(NodeKind::Altix3700);
        let gain =
            mem.stream_bandwidth(StreamOp::Triad, 1) / mem.stream_bandwidth(StreamOp::Triad, 2);
        assert!((gain - 1.9).abs() < 0.05, "gain={gain}");
    }

    #[test]
    fn the_3700_keeps_its_1pct_stream_edge() {
        let (_, m3) = model(NodeKind::Altix3700);
        let (_, mb) = model(NodeKind::Bx2b);
        let ratio =
            m3.stream_bandwidth(StreamOp::Triad, 2) / mb.stream_bandwidth(StreamOp::Triad, 2);
        assert!((ratio - 1.01).abs() < 1e-6);
    }

    #[test]
    fn bx2b_keeps_more_working_sets_in_cache() {
        let (n_a, m_a) = model(NodeKind::Bx2a);
        let (n_b, m_b) = model(NodeKind::Bx2b);
        let ws = 7 * 1024 * 1024; // between 6 MB and 9 MB
        assert_eq!(m_a.cache_speedup(&n_a, ws), 1.0);
        assert!(m_b.cache_speedup(&n_b, ws) > 1.0);
    }

    #[test]
    fn numa_penalty_is_linear_in_remote_fraction() {
        let (_, mem) = model(NodeKind::Bx2b);
        assert!((mem.numa_penalty(0.0) - 1.0).abs() < 1e-12);
        let full = mem.numa_penalty(1.0);
        assert!((full - calib::NUMA_REMOTE_PENALTY).abs() < 1e-12);
        let half = mem.numa_penalty(0.5);
        assert!((half - (1.0 + full) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn stream_op_bytes_and_flops() {
        assert_eq!(StreamOp::Copy.bytes_per_element(), 16);
        assert_eq!(StreamOp::Triad.bytes_per_element(), 24);
        assert_eq!(StreamOp::Copy.flops_per_element(), 0);
        assert_eq!(StreamOp::Triad.flops_per_element(), 2);
        assert_eq!(StreamOp::Scale.name(), "scale");
    }

    #[test]
    #[should_panic(expected = "shares with itself")]
    fn zero_sharers_rejected() {
        let (_, mem) = model(NodeKind::Bx2b);
        mem.stream_bandwidth(StreamOp::Copy, 0);
    }
}
