//! The real Lennard-Jones molecular dynamics simulator.
//!
//! Reduced units (σ = ε = m = 1). Atoms start on a face-centred-cubic
//! lattice with randomized velocities at a target temperature (§3.3),
//! interact through the truncated 12-6 potential, and advance with the
//! velocity Verlet integrator — "the most complete form of the Verlet
//! algorithm", giving positions and velocities at the same instant.
//! Forces are evaluated through a cell list, with an O(N²) reference
//! path retained for cross-checks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Interaction cutoff radius (the paper uses 5.0).
pub const CUTOFF: f64 = 5.0;

/// A 3-vector.
pub type V3 = [f64; 3];

/// State of an MD simulation in a periodic cubic box.
#[derive(Debug, Clone)]
pub struct MdSystem {
    /// Atom positions.
    pub pos: Vec<V3>,
    /// Atom velocities.
    pub vel: Vec<V3>,
    /// Current forces.
    pub force: Vec<V3>,
    /// Box edge length.
    pub box_len: f64,
}

impl MdSystem {
    /// Build `cells³` fcc unit cells (4 atoms each) at reduced density
    /// `rho`, with Maxwell-ish random velocities at `temperature`,
    /// zero total momentum.
    pub fn fcc(cells: usize, rho: f64, temperature: f64, seed: u64) -> Self {
        assert!(cells >= 1 && rho > 0.0);
        let n = 4 * cells * cells * cells;
        let a = (4.0 / rho).cbrt(); // fcc lattice constant
        let box_len = a * cells as f64;
        let mut pos = Vec::with_capacity(n);
        let basis = [
            [0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 0.5, 0.5],
        ];
        for i in 0..cells {
            for j in 0..cells {
                for k in 0..cells {
                    for b in basis {
                        pos.push([
                            (i as f64 + b[0]) * a,
                            (j as f64 + b[1]) * a,
                            (k as f64 + b[2]) * a,
                        ]);
                    }
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vel: Vec<V3> = (0..n)
            .map(|_| {
                let s = (temperature).sqrt();
                [
                    s * gauss(&mut rng),
                    s * gauss(&mut rng),
                    s * gauss(&mut rng),
                ]
            })
            .collect();
        // Remove centre-of-mass drift.
        let mut com = [0.0f64; 3];
        for v in &vel {
            for d in 0..3 {
                com[d] += v[d];
            }
        }
        for v in &mut vel {
            for d in 0..3 {
                v[d] -= com[d] / n as f64;
            }
        }
        let mut sys = MdSystem {
            pos,
            vel,
            force: vec![[0.0; 3]; n],
            box_len,
        };
        sys.compute_forces_cells();
        sys
    }

    /// Atom count.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the system has no atoms.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Minimum-image displacement from atom `i` to atom `j`.
    #[inline]
    fn min_image(&self, i: usize, j: usize) -> V3 {
        let mut d = [0.0; 3];
        for (a, slot) in d.iter_mut().enumerate() {
            let mut x = self.pos[j][a] - self.pos[i][a];
            x -= self.box_len * (x / self.box_len).round();
            *slot = x;
        }
        d
    }

    /// Truncated LJ pair force magnitude/r and energy at squared
    /// distance `r2`.
    #[inline]
    fn lj(r2: f64) -> (f64, f64) {
        let inv2 = 1.0 / r2;
        let inv6 = inv2 * inv2 * inv2;
        let inv12 = inv6 * inv6;
        // F/r = 24(2 r⁻¹² − r⁻⁶)/r²,  U = 4(r⁻¹² − r⁻⁶)
        (24.0 * (2.0 * inv12 - inv6) * inv2, 4.0 * (inv12 - inv6))
    }

    /// O(N²) reference force evaluation; returns potential energy.
    pub fn compute_forces_naive(&mut self) -> f64 {
        let n = self.len();
        let rc2 = CUTOFF * CUTOFF;
        for f in self.force.iter_mut() {
            *f = [0.0; 3];
        }
        let mut pot = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                let d = self.min_image(i, j);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if r2 < rc2 {
                    let (fr, u) = Self::lj(r2);
                    pot += u;
                    for (a, &da) in d.iter().enumerate() {
                        self.force[i][a] -= fr * da;
                        self.force[j][a] += fr * da;
                    }
                }
            }
        }
        pot
    }

    /// Cell-list force evaluation (the production path); returns
    /// potential energy. Parallelized over atoms with rayon.
    pub fn compute_forces_cells(&mut self) -> f64 {
        let n = self.len();
        let rc2 = CUTOFF * CUTOFF;
        let ncell = (self.box_len / CUTOFF).floor().max(1.0) as usize;
        if ncell < 3 {
            // Box too small for a meaningful cell decomposition: the
            // reference path is already correct.
            return self.compute_forces_naive();
        }
        let cell_len = self.box_len / ncell as f64;
        // Bin atoms.
        let mut cells: Vec<Vec<usize>> = vec![Vec::new(); ncell * ncell * ncell];
        let cell_of = |p: &V3| -> usize {
            let mut c = [0usize; 3];
            for a in 0..3 {
                let mut x = p[a] % self.box_len;
                if x < 0.0 {
                    x += self.box_len;
                }
                c[a] = ((x / cell_len) as usize).min(ncell - 1);
            }
            (c[0] * ncell + c[1]) * ncell + c[2]
        };
        for (i, p) in self.pos.iter().enumerate() {
            cells[cell_of(p)].push(i);
        }
        // For each atom, scan its 27 neighbouring cells.
        let pos = &self.pos;
        let box_len = self.box_len;
        let results: Vec<(V3, f64)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let mut f = [0.0f64; 3];
                let mut pot = 0.0;
                let ci = {
                    let mut c = [0usize; 3];
                    for a in 0..3 {
                        let mut x = pos[i][a] % box_len;
                        if x < 0.0 {
                            x += box_len;
                        }
                        c[a] = ((x / cell_len) as usize).min(ncell - 1);
                    }
                    c
                };
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            let cx = (ci[0] as i64 + dx).rem_euclid(ncell as i64) as usize;
                            let cy = (ci[1] as i64 + dy).rem_euclid(ncell as i64) as usize;
                            let cz = (ci[2] as i64 + dz).rem_euclid(ncell as i64) as usize;
                            for &j in &cells[(cx * ncell + cy) * ncell + cz] {
                                if j == i {
                                    continue;
                                }
                                let mut d = [0.0f64; 3];
                                let mut r2 = 0.0;
                                for a in 0..3 {
                                    let mut x = pos[j][a] - pos[i][a];
                                    x -= box_len * (x / box_len).round();
                                    d[a] = x;
                                    r2 += x * x;
                                }
                                if r2 < rc2 && r2 > 0.0 {
                                    let (fr, u) = Self::lj(r2);
                                    pot += 0.5 * u; // half: each pair seen twice
                                    for a in 0..3 {
                                        f[a] -= fr * d[a];
                                    }
                                }
                            }
                        }
                    }
                }
                (f, pot)
            })
            .collect();
        let mut pot = 0.0;
        for (i, (f, p)) in results.into_iter().enumerate() {
            self.force[i] = f;
            pot += p;
        }
        pot
    }

    /// One velocity Verlet step of size `dt`; returns the potential
    /// energy at the new positions.
    pub fn step(&mut self, dt: f64) -> f64 {
        let n = self.len();
        // Half-kick + drift.
        for i in 0..n {
            for a in 0..3 {
                self.vel[i][a] += 0.5 * dt * self.force[i][a];
                self.pos[i][a] += dt * self.vel[i][a];
                self.pos[i][a] = self.pos[i][a].rem_euclid(self.box_len);
            }
        }
        // New forces, second half-kick.
        let pot = self.compute_forces_cells();
        for i in 0..n {
            for a in 0..3 {
                self.vel[i][a] += 0.5 * dt * self.force[i][a];
            }
        }
        pot
    }

    /// Kinetic energy.
    pub fn kinetic_energy(&self) -> f64 {
        0.5 * self
            .vel
            .iter()
            .map(|v| v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
            .sum::<f64>()
    }

    /// Total momentum vector.
    pub fn momentum(&self) -> V3 {
        let mut p = [0.0; 3];
        for v in &self.vel {
            for a in 0..3 {
                p[a] += v[a];
            }
        }
        p
    }

    /// Instantaneous temperature (equipartition).
    pub fn temperature(&self) -> f64 {
        2.0 * self.kinetic_energy() / (3.0 * self.len() as f64)
    }
}

fn gauss(rng: &mut StdRng) -> f64 {
    // Box-Muller.
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Approximate interaction count per atom at density `rho` with the
/// 5.0 cutoff — the flop-count input for the scaling model.
pub fn neighbours_per_atom(rho: f64) -> f64 {
    rho * 4.0 / 3.0 * std::f64::consts::PI * CUTOFF.powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> MdSystem {
        // 6³ fcc cells at ρ=0.8: 864 atoms, box ≈ 10.3 > 2×cutoff.
        MdSystem::fcc(6, 0.8, 0.5, 42)
    }

    #[test]
    fn fcc_counts_and_box() {
        let s = small_system();
        assert_eq!(s.len(), 4 * 6 * 6 * 6);
        let a = (4.0f64 / 0.8).cbrt();
        assert!((s.box_len - 6.0 * a).abs() < 1e-12);
    }

    #[test]
    fn initial_momentum_is_zero() {
        let s = small_system();
        for p in s.momentum() {
            assert!(p.abs() < 1e-9, "momentum={p}");
        }
    }

    #[test]
    fn cell_list_matches_naive_forces() {
        let mut s1 = small_system();
        let mut s2 = s1.clone();
        let p1 = s1.compute_forces_naive();
        let p2 = s2.compute_forces_cells();
        assert!((p1 - p2).abs() / p1.abs() < 1e-10, "pot {p1} vs {p2}");
        for (f1, f2) in s1.force.iter().zip(&s2.force) {
            for a in 0..3 {
                assert!((f1[a] - f2[a]).abs() < 1e-8, "{f1:?} vs {f2:?}");
            }
        }
    }

    #[test]
    fn lattice_forces_are_tiny() {
        // A perfect fcc lattice is an equilibrium: net forces ≈ 0.
        let mut s = MdSystem::fcc(6, 0.8, 0.0, 1);
        s.compute_forces_cells();
        let max_f = s
            .force
            .iter()
            .flat_map(|f| f.iter())
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(max_f < 1e-8, "max force {max_f}");
    }

    #[test]
    fn energy_is_conserved_over_verlet_steps() {
        let mut s = small_system();
        let pot0 = s.compute_forces_cells();
        let e0 = pot0 + s.kinetic_energy();
        let mut e_final = e0;
        for _ in 0..50 {
            let pot = s.step(0.002);
            e_final = pot + s.kinetic_energy();
        }
        let drift = ((e_final - e0) / e0).abs();
        assert!(drift < 5e-3, "energy drift {drift} (e0={e0}, e={e_final})");
    }

    #[test]
    fn momentum_is_conserved() {
        let mut s = small_system();
        for _ in 0..20 {
            s.step(0.002);
        }
        for p in s.momentum() {
            assert!(p.abs() < 1e-6, "momentum={p}");
        }
    }

    #[test]
    fn temperature_matches_initialization_roughly() {
        let s = MdSystem::fcc(6, 0.8, 0.5, 7);
        let t = s.temperature();
        assert!((0.35..0.65).contains(&t), "T={t}");
    }

    #[test]
    fn neighbour_count_is_large_at_cutoff_5() {
        // ρ·(4/3)π·5³ ≈ 419 at ρ=0.8 — the 5.0 cutoff makes this an
        // expensive force field.
        let n = neighbours_per_atom(0.8);
        assert!((350.0..500.0).contains(&n), "{n}");
    }
}
