//! Cluster-level configuration of Columbia.
//!
//! Twenty 512-CPU Altix nodes — twelve 3700s and eight BX2s, five of the
//! BX2s being the faster "BX2b" flavour — joined by an InfiniBand switch
//! (low-latency MPI) and 10-GigE (user access / I/O). Four of the BX2b
//! nodes are additionally coupled with NUMAlink4 into a 2,048-CPU,
//! 13 Tflop/s shared-memory-capable capability subsystem.
//!
//! §2 also gives the constraint this crate must expose: each node has 8
//! InfiniBand cards of 64 K connections each, so a *pure MPI* job on
//! `n ≥ 2` nodes can use at most
//! `floor(sqrt(cards × connections / (n−1)))` processes per node — the
//! reason runs on four or more nodes must be hybrid MPI+OpenMP.

use crate::calib;
use crate::node::{NodeKind, NodeModel};

/// Identifies one Altix node (box) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies one CPU globally: node + dense in-node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CpuId {
    /// Which Altix node the CPU lives in.
    pub node: NodeId,
    /// Dense CPU index within the node (0..512).
    pub cpu: u32,
}

impl CpuId {
    /// Construct a CPU id.
    pub fn new(node: u32, cpu: u32) -> Self {
        CpuId {
            node: NodeId(node),
            cpu,
        }
    }
}

/// The inter-node fabric a multi-node run communicates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterNodeFabric {
    /// NUMAlink4 coupling (only the four-BX2b capability subsystem).
    NumaLink4,
    /// The Voltaire InfiniBand switch, reachable from every node.
    InfiniBand,
}

impl InterNodeFabric {
    /// Name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            InterNodeFabric::NumaLink4 => "NUMAlink4",
            InterNodeFabric::InfiniBand => "InfiniBand",
        }
    }
}

impl std::fmt::Display for InterNodeFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Static description of the whole supercluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node flavour of each of the boxes, indexed by [`NodeId`].
    pub nodes: Vec<NodeKind>,
    /// Indices of the BX2b nodes linked into the NUMAlink4 subsystem.
    pub numalink4_subsystem: Vec<NodeId>,
    /// InfiniBand cards installed per node.
    pub ib_cards_per_node: u32,
    /// Connections supported by each card.
    pub ib_connections_per_card: u64,
}

impl ClusterConfig {
    /// The full 20-node Columbia configuration as installed in 2004:
    /// twelve 3700s, three BX2a, five BX2b, with four BX2b nodes in the
    /// NUMAlink4 capability subsystem.
    pub fn columbia() -> Self {
        let mut nodes = vec![NodeKind::Altix3700; 12];
        nodes.extend(vec![NodeKind::Bx2a; 3]);
        nodes.extend(vec![NodeKind::Bx2b; 5]);
        let numalink4_subsystem = (15..19).map(NodeId).collect();
        ClusterConfig {
            nodes,
            numalink4_subsystem,
            ib_cards_per_node: calib::IB_CARDS_PER_NODE,
            ib_connections_per_card: calib::IB_CONNECTIONS_PER_CARD,
        }
    }

    /// A homogeneous test cluster of `n` nodes of one flavour, all
    /// NUMAlink4-coupled when the flavour is a BX2.
    pub fn uniform(kind: NodeKind, n: u32) -> Self {
        let numalink4_subsystem = if kind == NodeKind::Altix3700 {
            vec![]
        } else {
            (0..n).map(NodeId).collect()
        };
        ClusterConfig {
            nodes: vec![kind; n as usize],
            numalink4_subsystem,
            ib_cards_per_node: calib::IB_CARDS_PER_NODE,
            ib_connections_per_card: calib::IB_CONNECTIONS_PER_CARD,
        }
    }

    /// Total CPU count (10,240 for the real machine).
    pub fn total_cpus(&self) -> u32 {
        self.nodes.len() as u32 * 512
    }

    /// Model for one node.
    pub fn node_model(&self, id: NodeId) -> NodeModel {
        NodeModel::new(self.nodes[id.0 as usize])
    }

    /// Whether all of `ids` sit inside the NUMAlink4 subsystem, i.e. a
    /// multi-node run across them may use NUMAlink4.
    pub fn numalink4_reachable(&self, ids: &[NodeId]) -> bool {
        ids.iter().all(|id| self.numalink4_subsystem.contains(id))
    }

    /// Maximum per-node process count for a *pure MPI* job over
    /// InfiniBand across `n_nodes` nodes (§2 connection-limit formula).
    ///
    /// Each of the `p` processes on a node opens a connection to every
    /// process on the other `n−1` nodes (`p·(n−1)` peers), so the node
    /// needs `p² (n−1)` connections out of `cards × per_card`.
    pub fn max_pure_mpi_procs_per_node(&self, n_nodes: u32) -> u32 {
        assert!(n_nodes >= 2, "the limit only applies across nodes");
        let budget = self.ib_cards_per_node as u64 * self.ib_connections_per_card;
        ((budget / (n_nodes as u64 - 1)) as f64).sqrt().floor() as u32
    }

    /// Whether a pure-MPI job can use all 512 CPUs of each of
    /// `n_nodes` nodes. The paper: possible up to three nodes, not four.
    pub fn pure_mpi_fully_usable(&self, n_nodes: u32) -> bool {
        self.max_pure_mpi_procs_per_node(n_nodes) >= 512
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columbia_has_10240_cpus() {
        let c = ClusterConfig::columbia();
        assert_eq!(c.nodes.len(), 20);
        assert_eq!(c.total_cpus(), 10_240);
    }

    #[test]
    fn columbia_node_mix() {
        let c = ClusterConfig::columbia();
        let count = |k: NodeKind| c.nodes.iter().filter(|&&n| n == k).count();
        assert_eq!(count(NodeKind::Altix3700), 12);
        // Eight BX2 total, five of them the 1.6 GHz/9 MB flavour.
        assert_eq!(count(NodeKind::Bx2a) + count(NodeKind::Bx2b), 8);
        assert_eq!(count(NodeKind::Bx2b), 5);
    }

    #[test]
    fn numalink4_subsystem_is_four_bx2b_nodes() {
        let c = ClusterConfig::columbia();
        assert_eq!(c.numalink4_subsystem.len(), 4);
        for id in &c.numalink4_subsystem {
            assert_eq!(c.nodes[id.0 as usize], NodeKind::Bx2b);
        }
        // 2048 CPUs at 6.4 Gflop/s each = 13.1 Tflop/s (§2: "13 Tflop/s
        // peak capability platform").
        let peak_tflops = 4.0 * c.node_model(c.numalink4_subsystem[0]).peak_tflops();
        assert!((peak_tflops - 13.1072).abs() < 1e-9);
    }

    #[test]
    fn pure_mpi_limit_matches_paper() {
        let c = ClusterConfig::columbia();
        // §2: "a pure MPI code can only fully utilize up to three Altix
        // nodes"; four or more require a hybrid paradigm.
        assert!(c.pure_mpi_fully_usable(2));
        assert!(c.pure_mpi_fully_usable(3));
        assert!(!c.pure_mpi_fully_usable(4));
    }

    #[test]
    fn pure_mpi_limit_decreases_with_node_count() {
        let c = ClusterConfig::columbia();
        let mut prev = u32::MAX;
        for n in 2..=8 {
            let p = c.max_pure_mpi_procs_per_node(n);
            assert!(p <= prev);
            prev = p;
        }
    }

    #[test]
    fn uniform_cluster_reachability() {
        let c = ClusterConfig::uniform(NodeKind::Bx2b, 4);
        let ids: Vec<NodeId> = (0..4).map(NodeId).collect();
        assert!(c.numalink4_reachable(&ids));
        let c3700 = ClusterConfig::uniform(NodeKind::Altix3700, 4);
        assert!(!c3700.numalink4_reachable(&ids));
    }

    #[test]
    fn fabric_names() {
        assert_eq!(InterNodeFabric::NumaLink4.to_string(), "NUMAlink4");
        assert_eq!(InterNodeFabric::InfiniBand.to_string(), "InfiniBand");
    }
}
