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

/// A complete overset grid system: its blocks and each block's overlap
/// neighbours, found once when the system is built.
#[derive(Debug, Clone)]
pub struct GridSystem {
    blocks: Vec<Block>,
    /// `neighbours[b]` lists, ascending, the blocks whose boxes overlap
    /// block `b`'s.
    neighbours: Vec<Vec<usize>>,
}

impl GridSystem {
    /// Connect `blocks`: test every pair of boxes for overlap, `i`
    /// ascending and then `j > i`, and record each overlapping pair in
    /// both blocks' lists, which leaves every list ascending.
    pub fn new(blocks: Vec<Block>) -> Self {
        let mut neighbours = vec![Vec::new(); blocks.len()];
        for (i, a) in blocks.iter().enumerate() {
            for (j, b) in blocks.iter().enumerate().skip(i + 1) {
                if a.bbox.overlaps(&b.bbox) {
                    neighbours[i].push(j);
                    neighbours[j].push(i);
                }
            }
        }
        GridSystem { blocks, neighbours }
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The blocks whose boxes overlap block `b`'s, ascending.
    pub fn neighbours(&self, b: usize) -> &[usize] {
        &self.neighbours[b]
    }

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
    /// connectivity set — in `(i, j)` order with `i < j`.
    pub fn overlapping_pairs(&self) -> Vec<(usize, usize)> {
        (0..self.len())
            .flat_map(|i| {
                self.neighbours(i)
                    .iter()
                    .filter(move |&&j| j > i)
                    .map(move |&j| (i, j))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;

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
        let sys = GridSystem::new(vec![
            block(0, [0.0; 3], [1.0; 3], (8, 8, 8)),
            block(1, [0.9, 0.0, 0.0], [1.9, 1.0, 1.0], (8, 8, 8)),
            block(2, [5.0; 3], [6.0; 3], (8, 8, 8)),
        ]);
        assert_eq!(sys.overlapping_pairs(), vec![(0, 1)]);
        assert_eq!(sys.total_points(), 3 * 512);
    }

    #[test]
    fn touching_boxes_are_neighbours_and_the_paper_systems_are_pinned() {
        // Closed intervals: a shared face, edge or corner is an overlap,
        // and one ULP of clearance is not.
        let sys = GridSystem::new(vec![
            block(0, [0.0; 3], [1.0; 3], (4, 4, 4)),
            block(1, [1.0, 0.0, 0.0], [2.0, 1.0, 1.0], (4, 4, 4)),
            block(2, [1.0, 1.0, 0.0], [2.0, 2.0, 1.0], (4, 4, 4)),
            block(3, [1.0; 3], [2.0; 3], (4, 4, 4)),
            block(4, [1.0f64.next_up(), 0.0, 0.0], [2.0, 1.0, 1.0], (4, 4, 4)),
            block(5, [0.0, 0.0, 1.0f64.next_up()], [1.0, 1.0, 2.0], (4, 4, 4)),
        ]);
        assert_eq!(sys.neighbours(0), [1, 2, 3]);
        assert_eq!(sys.neighbours(4), [1, 2, 3]);

        // The full-scale systems: pair counts from the pairwise scan, and
        // lists that are ascending and symmetric.
        let rotor = systems::rotor_wake(1.0);
        let pump = systems::turbopump(1.0);
        assert_eq!(rotor.overlapping_pairs().len(), 16_954);
        assert_eq!(pump.overlapping_pairs().len(), 1_058);
        for sys in [&rotor, &pump] {
            for b in 0..sys.len() {
                let list = sys.neighbours(b);
                assert!(list.windows(2).all(|w| w[0] < w[1]), "block {b}: {list:?}");
                assert!(!list.contains(&b), "block {b} lists itself");
                for &nb in list {
                    assert!(sys.neighbours(nb).binary_search(&b).is_ok(), "{b}-{nb}");
                }
            }
        }
        // Scale changes the grid dimensions, never the boxes.
        let small = systems::rotor_wake(0.03);
        assert!((0..rotor.len()).all(|b| small.neighbours(b) == rotor.neighbours(b)));
    }
}
