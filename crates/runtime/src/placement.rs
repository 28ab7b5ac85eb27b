//! Rank/thread-to-CPU placement.
//!
//! A [`Placement`] fixes, for every (rank, thread) pair, the physical
//! CPU it runs on. Placement matters three ways on Columbia:
//!
//! * bus sharing — dense placement puts two workers on each front-side
//!   bus and halves their STREAM bandwidth (§4.2);
//! * topology distance — ranks packed in one brick talk faster than
//!   ranks spread across the router tree;
//! * the boot cpuset — full 512-CPU runs overlap the CPUs reserved for
//!   system software and lose 10–15% (§4.6.2); 508-CPU runs do not.

use std::collections::{HashMap, HashSet};

use columbia_machine::cluster::{ClusterConfig, CpuId, NodeId};

/// CPUs a placement fills on each node: every Altix node has 512.
pub const NODE_CPUS: u32 = 512;

/// How CPUs are assigned within each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Consecutive CPUs: 0, 1, 2, … (the default `dplace` layout).
    Dense,
    /// Every `k`-th CPU: 0, k, 2k, … — the §4.2 "CPU stride" layout
    /// that gives each worker a private bus at stride ≥ 2.
    Strided(u32),
    /// Consecutive CPUs but at most `cap` per node — how the batch
    /// scheduler steers production runs clear of the boot cpuset
    /// (§4.6.2: 508-CPU runs recover the 512-CPU loss).
    DenseCapped(u32),
}

/// A concrete assignment of ranks × threads to CPUs.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `cpus[rank][thread]` is the physical CPU of that worker.
    pub cpus: Vec<Vec<CpuId>>,
    /// Nodes actually used, in order of first use.
    pub nodes: Vec<NodeId>,
    /// Whether the run overlaps the boot cpuset (512 CPUs of a node
    /// requested, including the reserved ones).
    pub boot_cpuset_overlap: bool,
    /// Mean number of bus sharers over all workers (1.0 = every worker
    /// owns its bus, 2.0 = fully dense).
    pub mean_bus_sharers: f64,
}

impl Placement {
    /// Build a placement of `ranks` ranks × `threads` threads each over
    /// the given nodes of `cluster`, filling nodes in blocks.
    ///
    /// Panics if the requested workers exceed the capacity of the node
    /// list under the chosen strategy.
    pub fn new(
        cluster: &ClusterConfig,
        nodes: &[NodeId],
        ranks: usize,
        threads: usize,
        strategy: PlacementStrategy,
    ) -> Self {
        assert!(ranks >= 1 && threads >= 1);
        let (stride, cap) = match strategy {
            PlacementStrategy::Dense => (1, NODE_CPUS),
            PlacementStrategy::Strided(k) => {
                assert!(k >= 1, "stride must be positive");
                (k, NODE_CPUS)
            }
            PlacementStrategy::DenseCapped(cap) => {
                assert!(
                    (1..=NODE_CPUS).contains(&cap),
                    "cap must be in 1..={NODE_CPUS}"
                );
                (1, cap)
            }
        };
        let slots_per_node = (NODE_CPUS / stride).min(cap);
        let workers = (ranks * threads) as u32;
        assert!(
            workers <= slots_per_node * nodes.len() as u32,
            "placement overflow: {workers} workers > {} slots",
            slots_per_node * nodes.len() as u32
        );
        let mut cpus = Vec::with_capacity(ranks);
        let mut used_nodes: Vec<NodeId> = Vec::new();
        let mut w = 0u32;
        for _ in 0..ranks {
            let mut row = Vec::with_capacity(threads);
            for _ in 0..threads {
                let node = nodes[(w / slots_per_node) as usize];
                let cpu = (w % slots_per_node) * stride;
                if !used_nodes.contains(&node) {
                    used_nodes.push(node);
                }
                row.push(CpuId { node, cpu });
                w += 1;
            }
            cpus.push(row);
        }
        let boot_cpuset_overlap = {
            // Overlap occurs when any node is filled to its last CPU.
            let mut per_node = HashMap::new();
            for row in &cpus {
                for c in row {
                    let e = per_node.entry(c.node).or_insert(0u32);
                    *e = (*e).max(c.cpu + 1);
                }
            }
            per_node.values().any(|&hi| hi >= NODE_CPUS)
        };
        let mean_bus_sharers = mean_bus_sharers(cluster, &cpus);
        Placement {
            cpus,
            nodes: used_nodes,
            boot_cpuset_overlap,
            mean_bus_sharers,
        }
    }

    /// Single-node convenience constructor.
    pub fn single_node(
        cluster: &ClusterConfig,
        node: NodeId,
        ranks: usize,
        threads: usize,
        strategy: PlacementStrategy,
    ) -> Self {
        Placement::new(cluster, &[node], ranks, threads, strategy)
    }

    /// Number of ranks placed.
    pub fn ranks(&self) -> usize {
        self.cpus.len()
    }

    /// Threads per rank (uniform).
    pub fn threads(&self) -> usize {
        self.cpus[0].len()
    }

    /// Total workers (ranks × threads) — the paper's "number of CPUs".
    pub fn total_cpus(&self) -> usize {
        self.ranks() * self.threads()
    }

    /// The home CPU of a rank (its thread 0).
    pub fn rank_cpu(&self, rank: usize) -> CpuId {
        self.cpus[rank][0]
    }

    /// Home CPUs of all ranks, for the simulator's placement input.
    pub fn rank_cpus(&self) -> Vec<CpuId> {
        (0..self.ranks()).map(|r| self.rank_cpu(r)).collect()
    }

    /// Active in-node CPU indices for the node of the given CPU — the
    /// sharer set for the memory model.
    pub fn active_on_node(&self, node: NodeId) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .cpus
            .iter()
            .flatten()
            .filter(|c| c.node == node)
            .map(|c| c.cpu)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// [`Placement::mean_bus_sharers`] of the workers in `cpus`, in
/// O(workers): each active CPU shares its bus with the `k` active CPUs
/// on it, so a bus contributes `k²` to the sum. Every term is an exact
/// integer, so the mean has the same bits in any summation order.
fn mean_bus_sharers(cluster: &ClusterConfig, cpus: &[Vec<CpuId>]) -> f64 {
    let active: HashSet<CpuId> = cpus.iter().flatten().copied().collect();
    let mut per_bus: HashMap<(NodeId, u32), u64> = HashMap::new();
    for c in &active {
        let bus = cluster.node_model(c.node).brick.bus_of(c.cpu);
        *per_bus.entry((c.node, bus)).or_default() += 1;
    }
    let total: u64 = per_bus.values().map(|k| k * k).sum();
    total as f64 / (active.len() as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_machine::node::NodeKind;
    use proptest::prelude::*;

    fn cluster() -> ClusterConfig {
        ClusterConfig::uniform(NodeKind::Bx2b, 4)
    }

    /// The O(W²) definition of [`Placement::mean_bus_sharers`]: for
    /// every active CPU of every node, in order, scan the node's
    /// active CPUs for the ones on its bus.
    fn mean_bus_sharers_by_scan(p: &Placement, cluster: &ClusterConfig) -> f64 {
        let mut total = 0.0f64;
        let mut n = 0.0f64;
        for node in &p.nodes {
            let brick = cluster.node_model(*node).brick;
            let active = p.active_on_node(*node);
            for &c in &active {
                total += brick.bus_sharers(c, &active) as f64;
                n += 1.0;
            }
        }
        total / n.max(1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mean_bus_sharers_matches_the_pairwise_scan(
            kind in prop::sample::select(vec![NodeKind::Altix3700, NodeKind::Bx2a, NodeKind::Bx2b]),
            strategy in prop::sample::select(vec![
                PlacementStrategy::Dense,
                PlacementStrategy::Strided(2),
                PlacementStrategy::Strided(3),
                PlacementStrategy::Strided(4),
                PlacementStrategy::DenseCapped(7),
                PlacementStrategy::DenseCapped(255),
                PlacementStrategy::DenseCapped(508),
            ]),
            n_nodes in 1u32..5,
            threads in 1usize..5,
            draw in 0usize..1 << 20,
        ) {
            let slots = match strategy {
                PlacementStrategy::Dense => 512,
                PlacementStrategy::Strided(k) => 512 / k,
                PlacementStrategy::DenseCapped(cap) => cap,
            };
            let max_ranks = (slots * n_nodes) as usize / threads;
            prop_assume!(max_ranks >= 1);
            let ranks = 1 + draw % max_ranks;
            let cluster = ClusterConfig::uniform(kind, n_nodes);
            let nodes: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
            let p = Placement::new(&cluster, &nodes, ranks, threads, strategy);
            prop_assert_eq!(
                p.mean_bus_sharers.to_bits(),
                mean_bus_sharers_by_scan(&p, &cluster).to_bits()
            );
        }
    }

    #[test]
    fn dense_single_node_layout() {
        let c = cluster();
        let p = Placement::single_node(&c, NodeId(0), 4, 2, PlacementStrategy::Dense);
        assert_eq!(p.total_cpus(), 8);
        assert_eq!(p.cpus[0][0], CpuId::new(0, 0));
        assert_eq!(p.cpus[0][1], CpuId::new(0, 1));
        assert_eq!(p.cpus[3][1], CpuId::new(0, 7));
        assert!(!p.boot_cpuset_overlap);
        assert!((p.mean_bus_sharers - 2.0).abs() < 1e-12);
    }

    #[test]
    fn strided_placement_owns_buses() {
        let c = cluster();
        let p = Placement::single_node(&c, NodeId(0), 8, 1, PlacementStrategy::Strided(2));
        assert_eq!(p.cpus[1][0].cpu, 2);
        assert_eq!(p.cpus[7][0].cpu, 14);
        assert!((p.mean_bus_sharers - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stride_four_also_supported() {
        let c = cluster();
        let p = Placement::single_node(&c, NodeId(0), 4, 1, PlacementStrategy::Strided(4));
        let cpus: Vec<u32> = p.cpus.iter().map(|r| r[0].cpu).collect();
        assert_eq!(cpus, vec![0, 4, 8, 12]);
    }

    #[test]
    fn multi_node_block_fill() {
        let c = cluster();
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let p = Placement::new(&c, &nodes, 1024, 2, PlacementStrategy::Dense);
        assert_eq!(p.total_cpus(), 2048);
        assert_eq!(p.nodes.len(), 4);
        // First node holds the first 512 workers = ranks 0..256.
        assert_eq!(p.cpus[255][1].node, NodeId(0));
        assert_eq!(p.cpus[256][0].node, NodeId(1));
        assert!(p.boot_cpuset_overlap);
    }

    #[test]
    fn full_node_overlaps_boot_cpuset_508_does_not() {
        let c = cluster();
        let full = Placement::single_node(&c, NodeId(0), 512, 1, PlacementStrategy::Dense);
        assert!(full.boot_cpuset_overlap);
        let spared = Placement::single_node(&c, NodeId(0), 508, 1, PlacementStrategy::Dense);
        assert!(!spared.boot_cpuset_overlap);
    }

    #[test]
    #[should_panic(expected = "placement overflow")]
    fn overflow_detected() {
        let c = cluster();
        let _ = Placement::single_node(&c, NodeId(0), 513, 1, PlacementStrategy::Dense);
    }

    #[test]
    #[should_panic(expected = "placement overflow")]
    fn stride_reduces_capacity() {
        let c = cluster();
        let _ = Placement::single_node(&c, NodeId(0), 300, 1, PlacementStrategy::Strided(2));
    }

    #[test]
    fn rank_cpus_returns_thread_zero_homes() {
        let c = cluster();
        let p = Placement::single_node(&c, NodeId(0), 3, 4, PlacementStrategy::Dense);
        let homes = p.rank_cpus();
        assert_eq!(
            homes,
            vec![CpuId::new(0, 0), CpuId::new(0, 4), CpuId::new(0, 8)]
        );
    }
}
