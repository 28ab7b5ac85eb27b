//! Deterministic generators for the paper's two grid systems.
//!
//! We do not have NASA's proprietary grids, so we synthesize systems
//! with the published structure (DESIGN.md documents the
//! substitution): the same block counts, the same aggregate point
//! counts at full scale, comparable size spreads, and genuine
//! bounding-box connectivity. A `scale` parameter shrinks linear
//! dimensions for host-scale real runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::block::{Bbox, Block, GridSystem};

/// Published shape of the INS3D turbopump system (§3.4): 267 blocks,
/// 66 million points.
pub const TURBOPUMP_BLOCKS: usize = 267;
/// Aggregate points of the full turbopump grid.
pub const TURBOPUMP_POINTS: u64 = 66_000_000;

/// Published shape of the OVERFLOW-D rotor system (§3.5): 1,679 blocks
/// of various sizes, ~75 million points.
pub const ROTOR_BLOCKS: usize = 1_679;
/// Aggregate points of the full rotor-wake grid.
pub const ROTOR_POINTS: u64 = 75_000_000;

fn dims_for(points: f64, aspect: (f64, f64, f64)) -> (usize, usize, usize) {
    // dims proportional to the aspect with the requested volume.
    let (ax, ay, az) = aspect;
    let unit = (points / (ax * ay * az)).cbrt();
    let d = |a: f64| ((a * unit).round() as usize).max(3);
    (d(ax), d(ay), d(az))
}

/// The turbopump system: three components (inducer blades, flowliner,
/// bellows cavity) arranged in overlapping angular rings.
pub fn turbopump(scale: f64) -> GridSystem {
    assert!(scale > 0.0 && scale <= 1.0);
    let mut rng = StdRng::seed_from_u64(0x7E4B0);
    let mut blocks = Vec::with_capacity(TURBOPUMP_BLOCKS);
    // Component shares: 60 inducer blocks (large, stretched), 90
    // flowliner, 117 cavity (smaller).
    let comp = |i: usize| -> (f64, (f64, f64, f64), f64) {
        if i < 60 {
            (2.2, (3.0, 1.5, 1.0), 0.0) // inducer: big, blade-stretched
        } else if i < 150 {
            (1.0, (2.0, 1.0, 1.0), 2.0) // flowliner ring
        } else {
            (0.55, (1.0, 1.0, 1.0), 4.0) // bellows cavity
        }
    };
    // Normalize so full scale sums to TURBOPUMP_POINTS.
    let weight_sum: f64 = (0..TURBOPUMP_BLOCKS).map(|i| comp(i).0).sum();
    let pts_per_weight = TURBOPUMP_POINTS as f64 / weight_sum;
    for i in 0..TURBOPUMP_BLOCKS {
        let (w, aspect, axial) = comp(i);
        let jitter = rng.gen_range(0.85..1.15);
        let pts = w * pts_per_weight * jitter * scale.powi(3);
        let dims = dims_for(pts, aspect);
        // Ring placement: angular position with deliberate overlap of
        // neighbours; rings advance axially per component.
        let ring = 30.0;
        let theta = (i % 30) as f64 / ring * std::f64::consts::TAU;
        let r = 10.0;
        let c = [
            r * theta.cos(),
            r * theta.sin(),
            axial + (i / 30) as f64 * 0.8,
        ];
        let half = [1.3, 1.3, 0.9];
        blocks.push(Block {
            id: i,
            dims,
            bbox: Bbox {
                min: [c[0] - half[0], c[1] - half[1], c[2] - half[2]],
                max: [c[0] + half[0], c[1] + half[1], c[2] + half[2]],
            },
        });
    }
    GridSystem::new(blocks)
}

/// The rotor-wake system: 79 large near-body blocks around the hub and
/// blades plus 1,600 uniform off-body wake boxes in a cartesian
/// lattice of overlapping cubes.
pub fn rotor_wake(scale: f64) -> GridSystem {
    assert!(scale > 0.0 && scale <= 1.0);
    let mut rng = StdRng::seed_from_u64(0x0507);
    let near = 79usize;
    let off = ROTOR_BLOCKS - near;
    // Near-body blocks take ~40% of the points, off-body 60%.
    let near_pts = 0.40 * ROTOR_POINTS as f64 / near as f64;
    let off_pts = 0.60 * ROTOR_POINTS as f64 / off as f64;
    let mut blocks = Vec::with_capacity(ROTOR_BLOCKS);
    for i in 0..near {
        let jitter = rng.gen_range(0.75..1.35);
        let dims = dims_for(near_pts * jitter * scale.powi(3), (2.5, 1.2, 1.0));
        let theta = i as f64 / near as f64 * std::f64::consts::TAU;
        let c = [4.0 * theta.cos(), 4.0 * theta.sin(), 0.0];
        blocks.push(Block {
            id: i,
            dims,
            bbox: Bbox {
                min: [c[0] - 1.0, c[1] - 1.0, c[2] - 0.6],
                max: [c[0] + 1.0, c[1] + 1.0, c[2] + 0.6],
            },
        });
    }
    // Off-body lattice: 20×20×4 overlapping cubes.
    let (lx, ly, lz) = (20usize, 20usize, 4usize);
    debug_assert_eq!(lx * ly * lz, off);
    let pitch = 1.8; // < 2.0 edge → neighbours overlap
    for ix in 0..lx {
        for iy in 0..ly {
            for iz in 0..lz {
                let i = near + (ix * ly + iy) * lz + iz;
                let jitter = rng.gen_range(0.9..1.1);
                let dims = dims_for(off_pts * jitter * scale.powi(3), (1.0, 1.0, 1.0));
                let c = [
                    (ix as f64 - lx as f64 / 2.0) * pitch,
                    (iy as f64 - ly as f64 / 2.0) * pitch,
                    1.5 + iz as f64 * pitch,
                ];
                blocks.push(Block {
                    id: i,
                    dims,
                    bbox: Bbox {
                        min: [c[0] - 1.0, c[1] - 1.0, c[2] - 1.0],
                        max: [c[0] + 1.0, c[1] + 1.0, c[2] + 1.0],
                    },
                });
            }
        }
    }
    GridSystem::new(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turbopump_full_scale_matches_paper() {
        let sys = turbopump(1.0);
        assert_eq!(sys.len(), 267);
        let pts = sys.total_points();
        let target = TURBOPUMP_POINTS as f64;
        assert!(
            (pts as f64 - target).abs() / target < 0.10,
            "points={pts} (want ≈66M)"
        );
    }

    #[test]
    fn rotor_full_scale_matches_paper() {
        let sys = rotor_wake(1.0);
        assert_eq!(sys.len(), 1679);
        let pts = sys.total_points();
        let target = ROTOR_POINTS as f64;
        assert!(
            (pts as f64 - target).abs() / target < 0.10,
            "points={pts} (want ≈75M)"
        );
    }

    #[test]
    fn systems_are_deterministic() {
        let a = rotor_wake(0.1);
        let b = rotor_wake(0.1);
        assert_eq!(a.blocks(), b.blocks());
    }

    #[test]
    fn scaled_systems_shrink_points_not_blocks() {
        let full = turbopump(1.0);
        let small = turbopump(0.1);
        assert_eq!(full.len(), small.len());
        assert!(small.total_points() < full.total_points() / 100);
    }

    #[test]
    fn systems_have_connectivity() {
        let sys = rotor_wake(0.05);
        let pairs = sys.overlapping_pairs();
        // Lattice neighbours plus near-body ring: plenty of overlap.
        assert!(pairs.len() > sys.len(), "{} pairs", pairs.len());
    }

    #[test]
    fn rotor_block_sizes_vary() {
        let sys = rotor_wake(1.0);
        let min = sys.blocks().iter().map(Block::points).min().unwrap();
        let max = sys.blocks().iter().map(Block::points).max().unwrap();
        assert!(max > 3 * min, "sizes should vary: {min}..{max}");
    }
}
