//! Point-to-point cost models for the three Columbia fabrics.
//!
//! A [`Fabric`] answers, for a pair of CPUs, the one-way latency and the
//! sustainable per-stream bandwidth; everything else (ring patterns,
//! collectives, application exchanges) is composed from those answers
//! plus contention terms. [`ClusterFabric`] is the production
//! implementation: NUMAlink inside each node, and either NUMAlink4 or
//! InfiniBand between nodes.

use columbia_machine::brick::CBrick;
use columbia_machine::calib;
use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric, NodeId};
use columbia_machine::topology::NodeTopology;

/// Version of SGI's Message Passing Toolkit runtime in use.
///
/// §4.6.2: the *released* `mpt1.llr` showed an InfiniBand collective
/// anomaly (SP-MZ 40% slower on 256 CPUs); the beta `mpt1.llb` closed
/// the gap to NUMAlink4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MptVersion {
    /// Released library, `mpt1.llr` in the paper's notation.
    Released,
    /// Beta library, `mpt1.llb`.
    Beta,
}

impl MptVersion {
    /// Multiplier applied to InfiniBand collective/exchange costs.
    ///
    /// The anomaly shrinks as CPU count grows (the paper observed IB
    /// "performance improves as the number of CPUs increases"), so the
    /// penalty decays from its calibrated maximum at 256 CPUs.
    pub fn ib_penalty(self, total_cpus: u32) -> f64 {
        match self {
            MptVersion::Beta => 1.0,
            MptVersion::Released => {
                let peak = calib::MPT_RELEASED_IB_PENALTY;
                // Peak at ≤256 CPUs, decaying toward ~1.1 by 2048.
                let cpus = total_cpus.max(1) as f64;
                if cpus <= 256.0 {
                    peak
                } else {
                    1.0 + (peak - 1.0) * (256.0 / cpus).powf(0.75)
                }
            }
        }
    }
}

/// One-way message cost model.
pub trait Fabric {
    /// One-way small-message latency from `src` to `dst`, seconds.
    fn latency(&self, src: CpuId, dst: CpuId) -> f64;

    /// Per-stream sustainable bandwidth from `src` to `dst`, bytes/s.
    fn bandwidth(&self, src: CpuId, dst: CpuId) -> f64;

    /// Time for one `bytes`-byte message: `latency + bytes/bandwidth`.
    fn pt2pt_time(&self, src: CpuId, dst: CpuId, bytes: u64) -> f64 {
        self.latency(src, dst) + bytes as f64 / self.bandwidth(src, dst)
    }

    /// Slowdown factor (≥ 1) applied when `flows` independent streams
    /// simultaneously cross between nodes; 1.0 for in-node traffic on
    /// the linearly-scaling NUMAlink fat tree.
    fn internode_contention(&self, flows: u32) -> f64;

    /// Effective per-rank bandwidth during a `p`-way all-to-all.
    ///
    /// Under an all-to-all every rank injects simultaneously, so the
    /// *link* — not the memcpy path — limits each rank, and router
    /// contention grows with participant count. Default: the plain
    /// worst-pair stream bandwidth (no saturation model).
    fn alltoall_bandwidth(&self, cpus: &[CpuId]) -> f64 {
        if cpus.len() < 2 {
            return f64::INFINITY;
        }
        self.bandwidth(cpus[0], cpus[cpus.len() - 1])
    }
}

/// The production fabric: NUMAlink inside nodes, a selectable fabric
/// between them.
#[derive(Debug, Clone)]
pub struct ClusterFabric {
    config: ClusterConfig,
    inter: InterNodeFabric,
    mpt: MptVersion,
    /// Total CPUs participating (used by the MPT penalty decay).
    total_cpus: u32,
}

impl ClusterFabric {
    /// Fabric over `config` using `inter` between nodes.
    pub fn new(
        config: ClusterConfig,
        inter: InterNodeFabric,
        mpt: MptVersion,
        total_cpus: u32,
    ) -> Self {
        ClusterFabric {
            config,
            inter,
            mpt,
            total_cpus,
        }
    }

    /// Convenience: a single-node fabric (inter-node choice irrelevant).
    pub fn single_node(config: ClusterConfig) -> Self {
        ClusterFabric::new(config, InterNodeFabric::NumaLink4, MptVersion::Beta, 512)
    }

    /// The cluster configuration this fabric spans.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The MPT runtime version modelled.
    pub fn mpt(&self) -> MptVersion {
        self.mpt
    }

    fn node_topology(&self, node: columbia_machine::cluster::NodeId) -> NodeTopology {
        NodeTopology::new(self.config.node_model(node).brick)
    }

    fn in_node_latency(&self, src: CpuId, dst: CpuId) -> f64 {
        let hops = self.node_topology(src.node).hops(src.cpu, dst.cpu);
        calib::MPI_OVERHEAD + hops as f64 * calib::NUMALINK_HOP_LATENCY
    }

    fn in_node_bandwidth(&self, src: CpuId, dst: CpuId) -> f64 {
        let node = self.config.node_model(src.node);
        let memcpy = node.processor.clock_ghz * calib::SHM_COPY_BYTES_PER_GHZ;
        let hops = self.node_topology(src.node).hops(src.cpu, dst.cpu);
        if hops == 0 {
            // Bus mates: a pure shared-memory copy, processor-bound.
            memcpy
        } else {
            // Through NUMAlink: the link caps one stream, but so does
            // the copy in/out of the MPI buffers.
            (node.brick_link_bandwidth() * calib::NUMALINK_MPI_FRACTION)
                .min(memcpy * calib::SHM_COPY_LINK_CAP)
        }
    }
}

impl Fabric for ClusterFabric {
    fn latency(&self, src: CpuId, dst: CpuId) -> f64 {
        if src.node == dst.node {
            return self.in_node_latency(src, dst);
        }
        match self.inter {
            InterNodeFabric::NumaLink4 => {
                // Crossing nodes climbs the full router tree on both
                // sides (half a node diameter each) plus the inter-node
                // NUMAlink4 cable hops.
                let src_cpus = self.config.node_model(src.node).cpus;
                let dst_cpus = self.config.node_model(dst.node).cpus;
                let src_climb = self.node_topology(src.node).diameter(src_cpus) / 2;
                let dst_climb = self.node_topology(dst.node).diameter(dst_cpus) / 2;
                let hops = src_climb + dst_climb + 2;
                calib::MPI_OVERHEAD + hops as f64 * calib::NUMALINK_HOP_LATENCY
            }
            InterNodeFabric::InfiniBand => {
                let node_dist = (src.node.0 as i64 - dst.node.0 as i64).unsigned_abs() as f64;
                // The released-MPT anomaly (§4.6.2) lives in the send
                // path, so it taxes every message's latency — which is
                // why SP-MZ (many small boundary messages) lost 40%
                // while bandwidth-bound codes barely noticed.
                (calib::INFINIBAND_LATENCY + node_dist * calib::INFINIBAND_NODE_HOP_LATENCY)
                    * self.mpt.ib_penalty(self.total_cpus)
            }
        }
    }

    fn bandwidth(&self, src: CpuId, dst: CpuId) -> f64 {
        if src.node == dst.node {
            return self.in_node_bandwidth(src, dst);
        }
        match self.inter {
            InterNodeFabric::NumaLink4 => {
                let memcpy = self.config.node_model(src.node).processor.clock_ghz
                    * calib::SHM_COPY_BYTES_PER_GHZ;
                (calib::NUMALINK4_BANDWIDTH * calib::NUMALINK_MPI_FRACTION)
                    .min(memcpy * calib::SHM_COPY_LINK_CAP)
            }
            InterNodeFabric::InfiniBand => {
                calib::INFINIBAND_BANDWIDTH / self.mpt.ib_penalty(self.total_cpus).sqrt()
            }
        }
    }

    fn alltoall_bandwidth(&self, cpus: &[CpuId]) -> f64 {
        let p = cpus.len();
        if p < 2 {
            return f64::INFINITY;
        }
        // In-node (or NUMAlink-coupled) part: links saturate; router
        // contention grows as sqrt(p). The NUMAlink4 generation's
        // doubled link bandwidth carries straight through — the
        // mechanism behind FT's ~2x BX2-over-3700 at 256 CPUs (Fig. 6).
        let node = self.config.node_model(cpus[0].node);
        let link = match self.inter {
            _ if cpus.iter().all(|c| c.node == cpus[0].node) => node.brick_link_bandwidth(),
            InterNodeFabric::NumaLink4 => calib::NUMALINK4_BANDWIDTH,
            InterNodeFabric::InfiniBand => {
                // Cross-node IB all-to-all: cards shared by all flows.
                let first = cpus[0].node;
                let off = cpus.iter().filter(|c| c.node != first).count() as u32;
                let flows = (off.min(p as u32 - off)).max(1) * 2;
                return calib::INFINIBAND_BANDWIDTH
                    / self.internode_contention(flows)
                    / self.mpt.ib_penalty(self.total_cpus);
            }
        };
        // Calibrated to Fig. 6: per-rank all-to-all throughput decays
        // roughly linearly with participants (pairwise rounds each gated
        // by the busiest router).
        let saturation = (p as f64 / 4.0).max(1.0);
        link * calib::NUMALINK_MPI_FRACTION / saturation
    }

    fn internode_contention(&self, flows: u32) -> f64 {
        if flows <= 1 {
            return 1.0;
        }
        match self.inter {
            // The NUMAlink4 node coupling has ample parallel links; mild
            // contention only.
            InterNodeFabric::NumaLink4 => 1.0 + 0.02 * (flows as f64).ln(),
            // InfiniBand: flows share the per-node cards. §4.6.1: the
            // random ring shows "severe problems with scalability".
            InterNodeFabric::InfiniBand => {
                let cards = self.config.ib_cards_per_node as f64;
                let per_card = (flows as f64 / cards).max(1.0);
                per_card.powf(calib::IB_CONTENTION_EXP) * self.mpt.ib_penalty(self.total_cpus)
            }
        }
    }
}

/// Per-node cost tables indexed by router hop count.
#[derive(Debug, Clone)]
struct NodeCostCache {
    topo: NodeTopology,
    /// Indexed by hop count; entries at hop values no pair of this
    /// node's CPUs can produce are `NaN` sentinels (never hit for valid
    /// CPU indices — the query path falls back to direct evaluation).
    lat_by_hops: Vec<f64>,
    bw_by_hops: Vec<f64>,
}

/// A memoized view of a [`ClusterFabric`] serving per-message costs
/// from precomputed tables.
///
/// CPU pairs on the hierarchical topology fall into a handful of
/// equivalence classes: within a node the cost depends only on the
/// router hop count (same bus, same brick, router-tree LCA level);
/// across nodes it depends only on the node pair, never on the CPU
/// indices. `CachedFabric` classifies once at construction — per-node
/// latency/bandwidth tables evaluated at the
/// [`NodeTopology::hop_classes`] representatives, plus dense node-pair
/// tables for cross-node traffic — so the per-message `pt2pt_time` in
/// the engine's hot loop classifies the pair once (one hop count inside
/// a node, one node-pair index across nodes) and reads latency and
/// bandwidth at that index, instead of walking the topology twice
/// (and, on InfiniBand, calling `powf`). Every entry is produced by
/// evaluating the wrapped fabric itself, and `pt2pt_time` keeps the
/// default's `latency + bytes / bandwidth`, so the cache is *bitwise*
/// identical to direct evaluation (property-tested).
#[derive(Debug, Clone)]
pub struct CachedFabric {
    inner: ClusterFabric,
    nodes: Vec<NodeCostCache>,
    /// `latency(node s → node d)` at index `s * n + d` (diagonal unused).
    cross_lat: Vec<f64>,
    cross_bw: Vec<f64>,
}

impl CachedFabric {
    /// Precompute the pair-class tables for `inner`.
    pub fn new(inner: ClusterFabric) -> Self {
        let n = inner.config().nodes.len();
        let mut nodes = Vec::with_capacity(n);
        // Hop classes depend only on the brick and the CPU count: one
        // enumeration per distinct pair (two on Columbia's 20 nodes).
        let mut keys: Vec<(CBrick, u32)> = Vec::new();
        let mut known: Vec<Vec<(u32, u32)>> = Vec::new();
        for node in 0..n as u32 {
            let model = inner.config().node_model(NodeId(node));
            let topo = NodeTopology::new(model.brick);
            let key = (model.brick, model.cpus);
            let i = match keys.iter().position(|&k| k == key) {
                Some(i) => i,
                None => {
                    keys.push(key);
                    known.push(topo.hop_classes(model.cpus));
                    keys.len() - 1
                }
            };
            let classes = &known[i];
            let max_hops = classes.last().map_or(0, |&(h, _)| h) as usize;
            let mut lat_by_hops = vec![f64::NAN; max_hops + 1];
            let mut bw_by_hops = vec![f64::NAN; max_hops + 1];
            for &(h, rep) in classes {
                let (a, b) = (CpuId::new(node, 0), CpuId::new(node, rep));
                lat_by_hops[h as usize] = inner.latency(a, b);
                bw_by_hops[h as usize] = inner.bandwidth(a, b);
            }
            nodes.push(NodeCostCache {
                topo,
                lat_by_hops,
                bw_by_hops,
            });
        }
        let mut cross_lat = vec![0.0; n * n];
        let mut cross_bw = vec![0.0; n * n];
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let (a, b) = (CpuId::new(s as u32, 0), CpuId::new(d as u32, 0));
                cross_lat[s * n + d] = inner.latency(a, b);
                cross_bw[s * n + d] = inner.bandwidth(a, b);
            }
        }
        CachedFabric {
            inner,
            nodes,
            cross_lat,
            cross_bw,
        }
    }

    /// The wrapped fabric.
    pub fn inner(&self) -> &ClusterFabric {
        &self.inner
    }

    /// `(latency, bandwidth)` of `src → dst` from the tables, or `None`
    /// on a node or hop count they do not cover. Forced inline, like
    /// `pt2pt_time`: hinted, both stayed out of line in the event loop.
    #[inline(always)]
    fn costs(&self, src: CpuId, dst: CpuId) -> Option<(f64, f64)> {
        let n = self.nodes.len();
        let (s, d) = (src.node.0 as usize, dst.node.0 as usize);
        let cost = if s == d {
            let cache = self.nodes.get(s)?;
            let h = cache.topo.hops(src.cpu, dst.cpu) as usize;
            (*cache.lat_by_hops.get(h)?, cache.bw_by_hops[h])
        } else if s < n && d < n {
            (self.cross_lat[s * n + d], self.cross_bw[s * n + d])
        } else {
            return None;
        };
        (!cost.0.is_nan()).then_some(cost)
    }
}

impl Fabric for CachedFabric {
    fn latency(&self, src: CpuId, dst: CpuId) -> f64 {
        match self.costs(src, dst) {
            Some((lat, _)) => lat,
            None => self.inner.latency(src, dst),
        }
    }

    fn bandwidth(&self, src: CpuId, dst: CpuId) -> f64 {
        match self.costs(src, dst) {
            Some((_, bw)) => bw,
            None => self.inner.bandwidth(src, dst),
        }
    }

    #[inline(always)]
    fn pt2pt_time(&self, src: CpuId, dst: CpuId, bytes: u64) -> f64 {
        match self.costs(src, dst) {
            Some((lat, bw)) => lat + bytes as f64 / bw,
            None => self.inner.pt2pt_time(src, dst, bytes),
        }
    }

    // Collective-level models are evaluated once per collective, not
    // per message — delegate rather than cache.
    fn alltoall_bandwidth(&self, cpus: &[CpuId]) -> f64 {
        self.inner.alltoall_bandwidth(cpus)
    }

    fn internode_contention(&self, flows: u32) -> f64 {
        self.inner.internode_contention(flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_machine::node::NodeKind;

    fn cpu(node: u32, c: u32) -> CpuId {
        CpuId::new(node, c)
    }

    fn bx2b_cluster(n: u32) -> ClusterConfig {
        ClusterConfig::uniform(NodeKind::Bx2b, n)
    }

    #[test]
    fn in_node_latency_grows_with_distance() {
        let f = ClusterFabric::single_node(bx2b_cluster(1));
        let near = f.latency(cpu(0, 0), cpu(0, 1));
        let mid = f.latency(cpu(0, 0), cpu(0, 4));
        let far = f.latency(cpu(0, 0), cpu(0, 511));
        assert!(near < mid && mid < far, "{near} {mid} {far}");
    }

    #[test]
    fn bx2_has_lower_latency_and_higher_bandwidth_than_3700() {
        let f3 = ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Altix3700, 1));
        let fb = ClusterFabric::single_node(bx2b_cluster(1));
        // Same far-apart CPU pair: the BX2's double density means fewer
        // router hops and NUMAlink4 means double bandwidth.
        assert!(fb.latency(cpu(0, 0), cpu(0, 255)) <= f3.latency(cpu(0, 0), cpu(0, 255)));
        assert!(fb.bandwidth(cpu(0, 0), cpu(0, 255)) > f3.bandwidth(cpu(0, 0), cpu(0, 255)));
    }

    #[test]
    fn infiniband_latency_penalty_vs_numalink4() {
        let cfg = bx2b_cluster(4);
        let nl = ClusterFabric::new(
            cfg.clone(),
            InterNodeFabric::NumaLink4,
            MptVersion::Beta,
            2048,
        );
        let ib = ClusterFabric::new(cfg, InterNodeFabric::InfiniBand, MptVersion::Beta, 2048);
        let a = cpu(0, 10);
        let b = cpu(1, 20);
        assert!(ib.latency(a, b) > nl.latency(a, b));
        assert!(ib.bandwidth(a, b) < nl.bandwidth(a, b));
    }

    #[test]
    fn cross_node_costs_more_than_in_node() {
        let cfg = bx2b_cluster(2);
        for inter in [InterNodeFabric::NumaLink4, InterNodeFabric::InfiniBand] {
            let f = ClusterFabric::new(cfg.clone(), inter, MptVersion::Beta, 1024);
            assert!(f.latency(cpu(0, 0), cpu(1, 0)) > f.latency(cpu(0, 0), cpu(0, 64)));
        }
    }

    #[test]
    fn released_mpt_penalizes_ib_only() {
        assert!((MptVersion::Beta.ib_penalty(256) - 1.0).abs() < 1e-12);
        assert!(
            (MptVersion::Released.ib_penalty(256) - calib::MPT_RELEASED_IB_PENALTY).abs() < 1e-12
        );
        // Penalty decays with CPU count (paper: IB improves at scale).
        assert!(MptVersion::Released.ib_penalty(1024) < MptVersion::Released.ib_penalty(256));
        assert!(MptVersion::Released.ib_penalty(2048) > 1.0);
    }

    #[test]
    fn ib_contention_much_worse_than_numalink() {
        let cfg = bx2b_cluster(4);
        let nl = ClusterFabric::new(
            cfg.clone(),
            InterNodeFabric::NumaLink4,
            MptVersion::Beta,
            2048,
        );
        let ib = ClusterFabric::new(cfg, InterNodeFabric::InfiniBand, MptVersion::Beta, 2048);
        let flows = 512;
        assert!(ib.internode_contention(flows) > 5.0 * nl.internode_contention(flows));
        assert!(nl.internode_contention(1) == 1.0);
    }

    #[test]
    fn pt2pt_time_composes_latency_and_bandwidth() {
        let f = ClusterFabric::single_node(bx2b_cluster(1));
        let (a, b) = (cpu(0, 0), cpu(0, 100));
        let t0 = f.pt2pt_time(a, b, 0);
        let t1m = f.pt2pt_time(a, b, 1 << 20);
        assert!((t0 - f.latency(a, b)).abs() < 1e-15);
        assert!((t1m - t0 - (1u64 << 20) as f64 / f.bandwidth(a, b)).abs() < 1e-12);
    }

    #[test]
    fn cached_fabric_is_bitwise_identical_in_node() {
        for kind in [NodeKind::Altix3700, NodeKind::Bx2a, NodeKind::Bx2b] {
            let direct = ClusterFabric::single_node(ClusterConfig::uniform(kind, 1));
            let cached = CachedFabric::new(direct.clone());
            for a in [0u32, 1, 3, 7, 63, 200, 511] {
                for b in [0u32, 2, 5, 64, 255, 510] {
                    let (x, y) = (cpu(0, a), cpu(0, b));
                    assert_eq!(
                        direct.latency(x, y).to_bits(),
                        cached.latency(x, y).to_bits()
                    );
                    assert_eq!(
                        direct.bandwidth(x, y).to_bits(),
                        cached.bandwidth(x, y).to_bits()
                    );
                    assert_eq!(
                        direct.pt2pt_time(x, y, 8192).to_bits(),
                        cached.pt2pt_time(x, y, 8192).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn cached_fabric_is_bitwise_identical_across_columbia_nodes() {
        // The full heterogeneous machine: both fabrics, both MPT
        // versions, and the released-MPT powf penalty path.
        for inter in [InterNodeFabric::NumaLink4, InterNodeFabric::InfiniBand] {
            for mpt in [MptVersion::Beta, MptVersion::Released] {
                let direct = ClusterFabric::new(ClusterConfig::columbia(), inter, mpt, 10_240);
                let cached = CachedFabric::new(direct.clone());
                // Cross-node pairs, and in-node pairs on a 3700 (node
                // 0) and a BX2b (node 19).
                for (s, d) in [
                    (0u32, 1u32),
                    (0, 12),
                    (11, 19),
                    (15, 18),
                    (19, 0),
                    (0, 0),
                    (19, 19),
                ] {
                    for (a, b) in [(0u32, 0u32), (17, 300), (511, 511), (2, 9)] {
                        let (x, y) = (cpu(s, a), cpu(d, b));
                        assert_eq!(
                            direct.latency(x, y).to_bits(),
                            cached.latency(x, y).to_bits(),
                            "lat nodes {s}->{d}"
                        );
                        assert_eq!(
                            direct.bandwidth(x, y).to_bits(),
                            cached.bandwidth(x, y).to_bits(),
                            "bw nodes {s}->{d}"
                        );
                        for bytes in [0u64, 1, 64, 8192, 1 << 20, 123_456_789] {
                            assert_eq!(
                                direct.pt2pt_time(x, y, bytes).to_bits(),
                                cached.pt2pt_time(x, y, bytes).to_bits(),
                                "pt2pt nodes {s}->{d}, {bytes} bytes"
                            );
                        }
                    }
                }
                assert_eq!(
                    direct.internode_contention(512),
                    cached.internode_contention(512)
                );
                // Every CPU against every seventh, in a 3700 node (11)
                // and a BX2 node (19) that reuse the hop classes of the
                // first node of their brick kind (0 and 12).
                for node in [11u32, 19] {
                    let cpus = direct.config().node_model(NodeId(node)).cpus;
                    for a in 0..cpus {
                        for b in (0..cpus).step_by(7) {
                            let (x, y) = (cpu(node, a), cpu(node, b));
                            assert_eq!(
                                direct.pt2pt_time(x, y, 8192).to_bits(),
                                cached.pt2pt_time(x, y, 8192).to_bits(),
                                "pt2pt node {node}, CPUs {a}->{b}"
                            );
                            assert_eq!(
                                direct.latency(x, y).to_bits(),
                                cached.latency(x, y).to_bits(),
                                "lat node {node}, CPUs {a}->{b}"
                            );
                        }
                    }
                }
            }
        }
    }
}
