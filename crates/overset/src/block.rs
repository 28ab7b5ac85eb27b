//! Grid blocks and whole grid systems.

/// Axis-aligned bounding box in physical space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bbox {
    /// Minimum corner.
    pub min: [f64; 3],
    /// Maximum corner.
    pub max: [f64; 3],
}

impl Bbox {
    /// Whether two boxes overlap (closed intervals).
    pub fn overlaps(&self, other: &Bbox) -> bool {
        (0..3).all(|a| self.min[a] <= other.max[a] && other.min[a] <= self.max[a])
    }

    /// Whether a point lies inside.
    pub fn contains(&self, p: [f64; 3]) -> bool {
        (0..3).all(|a| self.min[a] <= p[a] && p[a] <= self.max[a])
    }

    /// Volume.
    pub fn volume(&self) -> f64 {
        (0..3)
            .map(|a| (self.max[a] - self.min[a]).max(0.0))
            .product()
    }
}

/// One grid component of an overset system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Block id.
    pub id: usize,
    /// Grid dimensions.
    pub dims: (usize, usize, usize),
    /// Physical extent (uniform spacing within the box — the real
    /// curvilinear metric does not change the cost structure).
    pub bbox: Bbox,
}

impl Block {
    /// Grid points in the block.
    pub fn points(&self) -> u64 {
        let (ni, nj, nk) = self.dims;
        ni as u64 * nj as u64 * nk as u64
    }

    /// Fringe (outer-boundary) points needing donor interpolation: the
    /// outermost two layers, as in a double-fringe overset scheme.
    pub fn fringe_points(&self) -> u64 {
        let (ni, nj, nk) = self.dims;
        let interior = |n: usize| n.saturating_sub(4) as u64;
        self.points() - interior(ni) * interior(nj) * interior(nk)
    }

    /// Grid spacing along each axis.
    pub fn spacing(&self) -> [f64; 3] {
        let (ni, nj, nk) = self.dims;
        let d = [ni, nj, nk];
        let mut h = [0.0; 3];
        for a in 0..3 {
            h[a] = (self.bbox.max[a] - self.bbox.min[a]) / (d[a].max(2) - 1) as f64;
        }
        h
    }

    /// Physical coordinates of grid point (i, j, k).
    pub fn point(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        let h = self.spacing();
        [
            self.bbox.min[0] + h[0] * i as f64,
            self.bbox.min[1] + h[1] * j as f64,
            self.bbox.min[2] + h[2] * k as f64,
        ]
    }
}

/// A complete overset grid system.
#[derive(Debug, Clone)]
pub struct GridSystem {
    /// All blocks.
    pub blocks: Vec<Block>,
}

impl GridSystem {
    /// Total grid points.
    pub fn total_points(&self) -> u64 {
        self.blocks.iter().map(Block::points).sum()
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the system has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Pairs of blocks whose bounding boxes overlap — the candidate
    /// connectivity set.
    pub fn overlapping_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..self.blocks.len() {
            for j in i + 1..self.blocks.len() {
                if self.blocks[i].bbox.overlaps(&self.blocks[j].bbox) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(id: usize, min: [f64; 3], max: [f64; 3], dims: (usize, usize, usize)) -> Block {
        Block {
            id,
            dims,
            bbox: Bbox { min, max },
        }
    }

    #[test]
    fn bbox_overlap_and_containment() {
        let a = Bbox {
            min: [0.0; 3],
            max: [1.0; 3],
        };
        let b = Bbox {
            min: [0.5, 0.5, 0.5],
            max: [2.0; 3],
        };
        let c = Bbox {
            min: [1.5, 0.0, 0.0],
            max: [2.0, 1.0, 1.0],
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(a.contains([0.5, 0.5, 0.5]));
        assert!(!a.contains([1.5, 0.5, 0.5]));
    }

    #[test]
    fn fringe_is_a_thin_shell() {
        let b = block(0, [0.0; 3], [1.0; 3], (20, 20, 20));
        let fringe = b.fringe_points();
        assert_eq!(fringe, 8000 - 16 * 16 * 16);
        assert!(fringe < b.points() / 2);
    }

    #[test]
    fn point_coordinates_span_the_bbox() {
        let b = block(0, [1.0, 2.0, 3.0], [2.0, 4.0, 6.0], (11, 11, 11));
        assert_eq!(b.point(0, 0, 0), [1.0, 2.0, 3.0]);
        let far = b.point(10, 10, 10);
        assert!((far[0] - 2.0).abs() < 1e-12);
        assert!((far[1] - 4.0).abs() < 1e-12);
        assert!((far[2] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_pairs_found() {
        let sys = GridSystem {
            blocks: vec![
                block(0, [0.0; 3], [1.0; 3], (8, 8, 8)),
                block(1, [0.9, 0.0, 0.0], [1.9, 1.0, 1.0], (8, 8, 8)),
                block(2, [5.0; 3], [6.0; 3], (8, 8, 8)),
            ],
        };
        assert_eq!(sys.overlapping_pairs(), vec![(0, 1)]);
        assert_eq!(sys.total_points(), 3 * 512);
    }
}
