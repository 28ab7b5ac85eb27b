//! Zone decomposition tables for the multi-zone benchmarks.
//!
//! Each class fixes a 2-D grid of zones over an aggregate mesh. SP-MZ
//! splits the mesh evenly; BT-MZ applies a geometric progression in
//! the x-direction so the largest zone is ~20× the smallest — the
//! load-balance stressor.

/// Multi-zone problem classes, including the two the paper introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MzClass {
    /// Sample.
    S,
    /// Workstation.
    W,
    /// Class A.
    A,
    /// Class B.
    B,
    /// Class C (Figs. 7 and 9).
    C,
    /// Class D.
    D,
    /// Class E — 4,096 zones, 4224×3456×92 aggregate (§3.2; Fig. 11).
    E,
    /// Class F — 16,384 zones, 12032×8960×250 aggregate (§3.2).
    F,
}

impl MzClass {
    /// All classes smallest-first.
    pub const ALL: [MzClass; 8] = [
        MzClass::S,
        MzClass::W,
        MzClass::A,
        MzClass::B,
        MzClass::C,
        MzClass::D,
        MzClass::E,
        MzClass::F,
    ];

    /// Zone grid (x_zones, y_zones) and aggregate mesh (gx, gy, gz).
    pub fn layout(self) -> ((usize, usize), (usize, usize, usize)) {
        match self {
            MzClass::S => ((2, 2), (24, 24, 6)),
            MzClass::W => ((4, 4), (64, 64, 8)),
            MzClass::A => ((4, 4), (128, 128, 16)),
            MzClass::B => ((8, 8), (304, 208, 17)),
            MzClass::C => ((16, 16), (480, 320, 28)),
            MzClass::D => ((32, 32), (1632, 1216, 34)),
            MzClass::E => ((64, 64), (4224, 3456, 92)),
            MzClass::F => ((128, 128), (12032, 8960, 250)),
        }
    }

    /// Total zone count.
    pub fn zone_count(self) -> usize {
        let ((zx, zy), _) = self.layout();
        zx * zy
    }

    /// Aggregate grid points.
    pub fn total_points(self) -> u64 {
        let (_, (gx, gy, gz)) = self.layout();
        gx as u64 * gy as u64 * gz as u64
    }

    /// Benchmark time steps (shortened classes run the same loop).
    pub fn iterations(self) -> u32 {
        match self {
            MzClass::S | MzClass::W => 50,
            _ => 200,
        }
    }

    /// Class letter.
    pub fn name(self) -> &'static str {
        match self {
            MzClass::S => "S",
            MzClass::W => "W",
            MzClass::A => "A",
            MzClass::B => "B",
            MzClass::C => "C",
            MzClass::D => "D",
            MzClass::E => "E",
            MzClass::F => "F",
        }
    }
}

impl std::fmt::Display for MzClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One zone of the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// Zone index in row-major (x, y) order.
    pub id: usize,
    /// Dimensions.
    pub ni: usize,
    /// Dimensions.
    pub nj: usize,
    /// Dimensions.
    pub nk: usize,
}

impl Zone {
    /// Grid points in the zone.
    pub fn points(&self) -> u64 {
        self.ni as u64 * self.nj as u64 * self.nk as u64
    }

    /// Boundary-face bytes exchanged with one x/y neighbour per step
    /// (5 variables, double precision, one ghost layer).
    pub fn face_bytes_x(&self) -> u64 {
        (self.nj * self.nk * 5 * 8) as u64
    }

    /// Boundary bytes toward a y-neighbour.
    pub fn face_bytes_y(&self) -> u64 {
        (self.ni * self.nk * 5 * 8) as u64
    }
}

/// Ratio between the largest and smallest BT-MZ zone (the NPB-MZ spec
/// targets ~20).
pub const BTMZ_SIZE_RATIO: f64 = 20.0;

/// Even (SP-MZ) zone decomposition.
pub fn even_zones(class: MzClass) -> Vec<Zone> {
    let ((zx, zy), (gx, gy, gz)) = class.layout();
    let mut zones = Vec::with_capacity(zx * zy);
    for y in 0..zy {
        for x in 0..zx {
            zones.push(Zone {
                id: y * zx + x,
                ni: split_even(gx, zx, x),
                nj: split_even(gy, zy, y),
                nk: gz,
            });
        }
    }
    zones
}

/// Uneven (BT-MZ) decomposition: geometric x-widths spanning the
/// [`BTMZ_SIZE_RATIO`] spread, even in y.
pub fn uneven_zones(class: MzClass) -> Vec<Zone> {
    let ((zx, zy), (gx, gy, gz)) = class.layout();
    // widths[i] ∝ r^i with r^(zx−1) = RATIO.
    let r = if zx > 1 {
        BTMZ_SIZE_RATIO.powf(1.0 / (zx as f64 - 1.0))
    } else {
        1.0
    };
    let weights: Vec<f64> = (0..zx).map(|i| r.powi(i as i32)).collect();
    let wsum: f64 = weights.iter().sum();
    // Integer widths that sum exactly to gx.
    let mut widths: Vec<usize> = weights
        .iter()
        .map(|w| ((w / wsum) * gx as f64).floor().max(1.0) as usize)
        .collect();
    let mut deficit = gx as i64 - widths.iter().sum::<usize>() as i64;
    let mut i = zx - 1;
    while deficit != 0 {
        if deficit > 0 {
            widths[i] += 1;
            deficit -= 1;
        } else if widths[i] > 1 {
            widths[i] -= 1;
            deficit += 1;
        }
        i = if i == 0 { zx - 1 } else { i - 1 };
    }
    let mut zones = Vec::with_capacity(zx * zy);
    for y in 0..zy {
        for (x, &ni) in widths.iter().enumerate() {
            zones.push(Zone {
                id: y * zx + x,
                ni,
                nj: split_even(gy, zy, y),
                nk: gz,
            });
        }
    }
    zones
}

fn split_even(total: usize, parts: usize, idx: usize) -> usize {
    let base = total / parts;
    if idx < total % parts {
        base + 1
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_e_matches_paper() {
        // §3.2: "Class E (4096 zones, 4224×3456×92 aggregated grid
        // size)" — 1.3 billion points (§4.6.2).
        assert_eq!(MzClass::E.zone_count(), 4096);
        assert_eq!(MzClass::E.total_points(), 4224 * 3456 * 92);
        assert!(MzClass::E.total_points() > 1_300_000_000);
    }

    #[test]
    fn class_f_matches_paper() {
        assert_eq!(MzClass::F.zone_count(), 16384);
        assert_eq!(MzClass::F.total_points(), 12032 * 8960 * 250);
    }

    #[test]
    fn even_zones_cover_the_mesh_exactly() {
        for class in [MzClass::S, MzClass::C, MzClass::E] {
            let zones = even_zones(class);
            let pts: u64 = zones.iter().map(Zone::points).sum();
            assert_eq!(pts, class.total_points(), "{class}");
            assert_eq!(zones.len(), class.zone_count());
        }
    }

    #[test]
    fn even_zones_are_nearly_equal() {
        let zones = even_zones(MzClass::C);
        let min = zones.iter().map(Zone::points).min().unwrap();
        let max = zones.iter().map(Zone::points).max().unwrap();
        let spread = max as f64 / min as f64;
        assert!(spread < 1.15, "min={min} max={max}");
    }

    #[test]
    fn uneven_zones_cover_the_mesh_exactly() {
        for class in [MzClass::S, MzClass::C, MzClass::E] {
            let zones = uneven_zones(class);
            let pts: u64 = zones.iter().map(Zone::points).sum();
            assert_eq!(pts, class.total_points(), "{class}");
        }
    }

    #[test]
    fn uneven_spread_is_about_20x() {
        let zones = uneven_zones(MzClass::C);
        let min = zones.iter().map(Zone::points).min().unwrap();
        let max = zones.iter().map(Zone::points).max().unwrap();
        let ratio = max as f64 / min as f64;
        assert!((10.0..30.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn face_bytes_positive_and_directional() {
        let z = Zone {
            id: 0,
            ni: 10,
            nj: 20,
            nk: 5,
        };
        assert_eq!(z.face_bytes_x(), 20 * 5 * 40);
        assert_eq!(z.face_bytes_y(), 10 * 5 * 40);
    }
}
