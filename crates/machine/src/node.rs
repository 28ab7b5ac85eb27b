//! Altix node models: the 3700, the BX2a, and the BX2b.
//!
//! Columbia is built from 512-CPU single-system-image Altix nodes. The
//! paper distinguishes three flavours (its §4.1 shorthand):
//!
//! | | 3700 | BX2a | BX2b |
//! |---|---|---|---|
//! | CPU | 1.5 GHz / 6 MB | 1.5 GHz / 6 MB | 1.6 GHz / 9 MB |
//! | interconnect | NUMAlink3, 3.2 GB/s | NUMAlink4, 6.4 GB/s | NUMAlink4, 6.4 GB/s |
//! | packaging | 4 CPU/brick, 32/rack | 8 CPU/brick, 64/rack | 8 CPU/brick, 64/rack |
//! | peak | 3.07 Tflop/s | 3.07 Tflop/s | 3.28 Tflop/s |

use crate::brick::CBrick;
use crate::calib;
use crate::processor::ProcessorModel;
use crate::topology::NumaLinkGen;

/// The three Altix node flavours present in Columbia.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Original Altix 3700: 1.5 GHz/6 MB CPUs on NUMAlink3.
    Altix3700,
    /// BX2 with 1.5 GHz/6 MB CPUs ("BX2a" in the paper's shorthand).
    Bx2a,
    /// BX2 with 1.6 GHz/9 MB CPUs ("BX2b"); the four-node NUMAlink4
    /// capability subsystem is built from these.
    Bx2b,
}

impl NodeKind {
    /// All three flavours, in the order the paper's figures present them.
    pub const ALL: [NodeKind; 3] = [NodeKind::Altix3700, NodeKind::Bx2a, NodeKind::Bx2b];

    /// Display name matching the paper's shorthand.
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::Altix3700 => "3700",
            NodeKind::Bx2a => "BX2a",
            NodeKind::Bx2b => "BX2b",
        }
    }
}

impl std::fmt::Display for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full model of one 512-CPU Altix node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeModel {
    /// Which flavour this node is.
    pub kind: NodeKind,
    /// Processor model (clock + caches).
    pub processor: ProcessorModel,
    /// C-Brick packaging.
    pub brick: CBrick,
    /// NUMAlink generation wiring the bricks together.
    pub numalink: NumaLinkGen,
    /// CPUs in the node (512 everywhere on Columbia).
    pub cpus: u32,
    /// Global shared memory in bytes (~1 TB per node).
    pub memory_bytes: u64,
}

impl NodeModel {
    /// Construct the canonical Columbia node of a given flavour.
    pub fn new(kind: NodeKind) -> Self {
        let (processor, brick, numalink) = match kind {
            NodeKind::Altix3700 => (
                ProcessorModel::itanium2_1500(),
                CBrick::altix3700(),
                NumaLinkGen::NumaLink3,
            ),
            NodeKind::Bx2a => (
                ProcessorModel::itanium2_1500(),
                CBrick::bx2(),
                NumaLinkGen::NumaLink4,
            ),
            NodeKind::Bx2b => (
                ProcessorModel::itanium2_1600(),
                CBrick::bx2(),
                NumaLinkGen::NumaLink4,
            ),
        };
        NodeModel {
            kind,
            processor,
            brick,
            numalink,
            cpus: 512,
            memory_bytes: 1 << 40, // 1 TB
        }
    }

    /// Theoretical peak of the whole node in Tflop/s (Table 1).
    pub fn peak_tflops(&self) -> f64 {
        self.cpus as f64 * self.processor.peak_flops() / 1.0e12
    }

    /// Peak NUMAlink bandwidth shared by one C-Brick, bytes/s (Table 1:
    /// 3.2 GB/s on the 3700, 6.4 GB/s on the BX2).
    pub fn brick_link_bandwidth(&self) -> f64 {
        self.numalink.link_bandwidth()
    }

    /// Memory available to each CPU when a benchmark divides the node
    /// evenly (HPCC sizes arrays to 75% of this).
    pub fn memory_per_cpu(&self) -> u64 {
        self.memory_bytes / self.cpus as u64
    }

    /// Render the node's Table-1 row as `(characteristic, value)` pairs.
    pub fn table1_row(&self) -> Vec<(&'static str, String)> {
        vec![
            ("Architecture", "NUMAflex, SSI".to_string()),
            ("# Processors", self.cpus.to_string()),
            (
                "Packaging",
                format!("{} CPUs/rack", self.brick.cpus_per_rack),
            ),
            (
                "Processor",
                format!(
                    "Itanium2 {} GHz/{} MB",
                    self.processor.clock_ghz,
                    self.processor.caches.l3_bytes / (1024 * 1024)
                ),
            ),
            ("Interconnect", self.numalink.name().to_string()),
            (
                "Bandwidth",
                format!("{:.1} GB/s", self.brick_link_bandwidth() / 1.0e9),
            ),
            (
                "Th. peak perf.",
                format!("{:.2} Tflop/s", self.peak_tflops()),
            ),
            ("Memory", "1 TB".to_string()),
        ]
    }

    /// Baseline efficiency for memory-bound CFD kernels on this node.
    pub fn cfd_base_efficiency(&self) -> f64 {
        calib::cfd_base_efficiency(self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_peaks() {
        assert!((NodeModel::new(NodeKind::Altix3700).peak_tflops() - 3.072).abs() < 1e-9);
        assert!((NodeModel::new(NodeKind::Bx2a).peak_tflops() - 3.072).abs() < 1e-9);
        assert!((NodeModel::new(NodeKind::Bx2b).peak_tflops() - 3.2768).abs() < 1e-9);
    }

    #[test]
    fn table1_bandwidths() {
        assert!((NodeModel::new(NodeKind::Altix3700).brick_link_bandwidth() - 3.2e9).abs() < 1.0);
        assert!((NodeModel::new(NodeKind::Bx2a).brick_link_bandwidth() - 6.4e9).abs() < 1.0);
        assert!((NodeModel::new(NodeKind::Bx2b).brick_link_bandwidth() - 6.4e9).abs() < 1.0);
    }

    #[test]
    fn bx2b_has_faster_clock_and_bigger_cache() {
        let a = NodeModel::new(NodeKind::Bx2a);
        let b = NodeModel::new(NodeKind::Bx2b);
        assert!(b.processor.clock_ghz > a.processor.clock_ghz);
        assert!(b.processor.caches.l3_bytes > a.processor.caches.l3_bytes);
    }

    #[test]
    fn memory_per_cpu_is_2gb() {
        for kind in NodeKind::ALL {
            assert_eq!(NodeModel::new(kind).memory_per_cpu(), 1 << 31);
        }
    }

    #[test]
    fn table1_row_shape() {
        let row = NodeModel::new(NodeKind::Bx2b).table1_row();
        assert_eq!(row.len(), 8);
        assert_eq!(row[3].1, "Itanium2 1.6 GHz/9 MB");
        assert_eq!(row[4].1, "NUMAlink4");
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(NodeKind::Altix3700.to_string(), "3700");
        assert_eq!(NodeKind::Bx2a.to_string(), "BX2a");
        assert_eq!(NodeKind::Bx2b.to_string(), "BX2b");
    }
}
