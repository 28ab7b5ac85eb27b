//! NUMAlink fat-tree topology inside an Altix node.
//!
//! The Altix 3700 wires its C-Bricks with NUMAlink3 through a fat-tree
//! of router bricks, so bisection bandwidth scales linearly with CPU
//! count; the BX2 uses NUMAlink4 at twice the link bandwidth. Because a
//! BX2 brick carries eight CPUs instead of four, a BX2 node of the same
//! CPU count has *half the bricks* and therefore a shallower tree —
//! this, together with the faster links, is why the paper's random-ring
//! latency curves separate at large CPU counts (Fig. 5).
//!
//! The model: C-Bricks are leaves of a radix-[`ROUTER_RADIX`] fat tree.
//! Two CPUs on the same front-side bus communicate through their SHUB
//! (distance 0 router hops); CPUs in the same brick cross the brick's
//! internal SHUB pair (1 hop); otherwise the path climbs to the lowest
//! common ancestor router and back down (2 hops per level).

use crate::brick::CBrick;
use crate::calib;

/// Ports per router brick in the fat tree (R-Brick radix).
pub const ROUTER_RADIX: u32 = 8;

/// NUMAlink interconnect generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumaLinkGen {
    /// NUMAlink3: 3.2 GB/s per brick (Altix 3700).
    NumaLink3,
    /// NUMAlink4: 6.4 GB/s per brick (BX2), also used to couple the
    /// four-node 2048-CPU capability subsystem.
    NumaLink4,
}

impl NumaLinkGen {
    /// Peak bandwidth of one link, bytes per second.
    pub fn link_bandwidth(self) -> f64 {
        match self {
            NumaLinkGen::NumaLink3 => calib::NUMALINK3_BANDWIDTH,
            NumaLinkGen::NumaLink4 => calib::NUMALINK4_BANDWIDTH,
        }
    }

    /// Human-readable name (Table 1 spelling).
    pub fn name(self) -> &'static str {
        match self {
            NumaLinkGen::NumaLink3 => "NUMAlink3",
            NumaLinkGen::NumaLink4 => "NUMAlink4",
        }
    }
}

/// Fat-tree hop model for one Altix node.
#[derive(Debug, Clone, Copy)]
pub struct NodeTopology {
    brick: CBrick,
}

impl NodeTopology {
    /// Build the topology for a node using the given brick packaging.
    pub fn new(brick: CBrick) -> Self {
        NodeTopology { brick }
    }

    /// Router hops between two CPUs (dense numbering within the node).
    ///
    /// * same bus: 0 (SHUB-local)
    /// * same brick: 1 (across the brick's SHUBs)
    /// * different bricks: `2 * lca_level` through the router tree.
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        if a == b {
            return 0;
        }
        if self.brick.bus_of(a) == self.brick.bus_of(b) {
            return 0;
        }
        let (ba, bb) = (self.brick.brick_of(a), self.brick.brick_of(b));
        if ba == bb {
            return 1;
        }
        2 * lca_level(ba, bb)
    }

    /// Worst-case hop count among the first `cpus` CPUs of the node.
    pub fn diameter(&self, cpus: u32) -> u32 {
        if cpus <= 1 {
            return 0;
        }
        self.hops(0, cpus - 1)
    }

    /// Mean hop count over uniformly random distinct CPU pairs drawn
    /// from the first `cpus` CPUs; closed-form from the brick layout.
    ///
    /// Used by the random-ring latency model.
    pub fn mean_random_hops(&self, cpus: u32) -> f64 {
        if cpus <= 1 {
            return 0.0;
        }
        // Exact expectation by summing over pair categories. CPU counts
        // here are ≤ 512, so the O(bricks²) enumeration is trivial.
        let n = cpus as u64;
        let total_pairs = (n * (n - 1) / 2) as f64;
        let per_bus = self.brick.cpus_per_bus as u64;
        let per_brick = self.brick.cpus_per_brick as u64;
        let full_bricks = n / per_brick;
        let rem = n % per_brick;

        let mut weighted = 0.0;
        // Same-bus pairs cost 0 hops: skip. Same-brick different-bus: 1.
        let same_brick_pairs = |c: u64| -> u64 {
            let buses = c / per_bus;
            let rem_c = c % per_bus;
            let pairs = |k: u64| k * k.saturating_sub(1) / 2;
            let same_bus = buses * pairs(per_bus) + pairs(rem_c);
            pairs(c) - same_bus
        };
        for brick in 0..full_bricks {
            let _ = brick;
            weighted += same_brick_pairs(per_brick) as f64 * 1.0;
        }
        if rem > 0 {
            weighted += same_brick_pairs(rem) as f64 * 1.0;
        }
        // Cross-brick pairs.
        let nbricks = full_bricks + (rem > 0) as u64;
        for i in 0..nbricks {
            let ci = if i < full_bricks { per_brick } else { rem };
            for j in (i + 1)..nbricks {
                let cj = if j < full_bricks { per_brick } else { rem };
                let hops = 2 * lca_level(i as u32, j as u32);
                weighted += (ci * cj) as f64 * hops as f64;
            }
        }
        weighted / total_pairs
    }

    /// Distinct hop counts among the first `cpus` CPUs, each with a
    /// representative partner for CPU 0, sorted by hop count.
    ///
    /// Any pair `(a, b)` with `a, b < cpus` has a hop count that appears
    /// in this list: hops depend only on the bus/brick relationship and
    /// the router-tree LCA level, and if bricks at LCA level `L` exist
    /// among the first `cpus` CPUs then so does the pair
    /// `(0, first CPU of brick R^(L-1))` with the same level. Cost
    /// caches (`simnet`'s `CachedFabric`) use the representatives to
    /// evaluate a fabric once per equivalence class instead of once per
    /// message.
    pub fn hop_classes(&self, cpus: u32) -> Vec<(u32, u32)> {
        let mut classes: Vec<(u32, u32)> = Vec::new();
        for b in 0..cpus {
            let h = self.hops(0, b);
            if !classes.iter().any(|&(hops, _)| hops == h) {
                classes.push((h, b));
            }
        }
        classes.sort_unstable();
        classes
    }
}

/// Level of the lowest common ancestor of two leaves in a radix-R tree
/// (1 = siblings under one first-level router).
fn lca_level(mut a: u32, mut b: u32) -> u32 {
    let mut level = 0;
    while a != b {
        a /= ROUTER_RADIX;
        b /= ROUTER_RADIX;
        level += 1;
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo3700() -> NodeTopology {
        NodeTopology::new(CBrick::altix3700())
    }

    fn topo_bx2() -> NodeTopology {
        NodeTopology::new(CBrick::bx2())
    }

    #[test]
    fn bus_mates_are_zero_hops() {
        assert_eq!(topo3700().hops(0, 1), 0);
        assert_eq!(topo_bx2().hops(6, 7), 0);
    }

    #[test]
    fn brick_mates_are_one_hop() {
        assert_eq!(topo3700().hops(0, 2), 1);
        assert_eq!(topo3700().hops(0, 3), 1);
        assert_eq!(topo_bx2().hops(0, 5), 1);
    }

    #[test]
    fn cross_brick_goes_through_routers() {
        // 3700: CPUs 0 and 4 are in adjacent bricks under one router.
        assert_eq!(topo3700().hops(0, 4), 2);
        // Far-apart bricks climb more levels.
        assert!(topo3700().hops(0, 511) > topo3700().hops(0, 4));
    }

    #[test]
    fn bx2_is_never_farther_than_3700() {
        let t3 = topo3700();
        let tb = topo_bx2();
        for cpus in [4u32, 16, 64, 128, 256, 512] {
            assert!(
                tb.diameter(cpus) <= t3.diameter(cpus),
                "cpus={cpus}: bx2 {} vs 3700 {}",
                tb.diameter(cpus),
                t3.diameter(cpus)
            );
            assert!(tb.mean_random_hops(cpus) <= t3.mean_random_hops(cpus) + 1e-12);
        }
    }

    #[test]
    fn mean_hops_grows_with_cpu_count() {
        let t = topo3700();
        let mut prev = -1.0;
        for cpus in [2u32, 8, 32, 128, 512] {
            let m = t.mean_random_hops(cpus);
            assert!(m >= prev, "cpus={cpus}");
            prev = m;
        }
    }

    #[test]
    fn mean_hops_bounded_by_diameter() {
        for t in [topo3700(), topo_bx2()] {
            for cpus in [2u32, 6, 10, 100, 512] {
                assert!(t.mean_random_hops(cpus) <= t.diameter(cpus) as f64 + 1e-12);
            }
        }
    }

    #[test]
    fn hop_classes_cover_every_pair() {
        for t in [topo3700(), topo_bx2()] {
            for cpus in [1u32, 2, 4, 8, 100, 512] {
                let classes = t.hop_classes(cpus);
                // Sorted, unique, representatives reproduce their class.
                for w in classes.windows(2) {
                    assert!(w[0].0 < w[1].0);
                }
                for &(h, rep) in &classes {
                    assert!(rep < cpus);
                    assert_eq!(t.hops(0, rep), h);
                }
                // Every pair's hop count appears as a class.
                for a in 0..cpus {
                    for b in 0..cpus {
                        let h = t.hops(a, b);
                        assert!(
                            classes.iter().any(|&(hops, _)| hops == h),
                            "cpus={cpus} pair=({a},{b}) hops={h} missing"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hop_classes_known_values_at_512() {
        // 3700: 4 CPUs/brick → 128 bricks → LCA levels 1..3.
        let c3 = topo3700().hop_classes(512);
        assert_eq!(
            c3.iter().map(|&(h, _)| h).collect::<Vec<_>>(),
            vec![0, 1, 2, 4, 6]
        );
        // BX2: 8 CPUs/brick → 64 bricks → LCA levels 1..2.
        let cb = topo_bx2().hop_classes(512);
        assert_eq!(
            cb.iter().map(|&(h, _)| h).collect::<Vec<_>>(),
            vec![0, 1, 2, 4]
        );
    }

    #[test]
    fn lca_level_basics() {
        assert_eq!(lca_level(0, 0), 0);
        assert_eq!(lca_level(0, 1), 1);
        assert_eq!(lca_level(0, 7), 1);
        assert_eq!(lca_level(0, 8), 2);
        assert_eq!(lca_level(63, 64), 3);
    }

    #[test]
    fn numalink_names_and_bandwidths() {
        assert_eq!(NumaLinkGen::NumaLink3.name(), "NUMAlink3");
        assert_eq!(NumaLinkGen::NumaLink4.name(), "NUMAlink4");
        assert!(NumaLinkGen::NumaLink4.link_bandwidth() > NumaLinkGen::NumaLink3.link_bandwidth());
    }
}
