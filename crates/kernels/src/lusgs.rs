//! Pipelined LU-SGS sweeps (the OVERFLOW-D linear solver, §3.5).
//!
//! LU-SGS relaxes the implicit operator with symmetric Gauss-Seidel
//! sweeps: the forward sweep updates points in an order where "lower"
//! neighbours (`i−1`, `j−1`, `k−1`) already carry new values, the
//! backward sweep mirrors it. The data dependence serializes a
//! lexicographic loop, but all points on a *hyperplane* `i+j+k = const`
//! are mutually independent — the pipeline reimplementation the paper
//! mentions ("the linear solver … was reimplemented using a pipeline
//! algorithm to enhance efficiency"). We provide both the lexicographic
//! reference and the hyperplane form (each plane's points are
//! independent, though this crate updates them on one thread) and test
//! them for *bitwise* agreement.

use crate::grid::Grid3;

/// Coefficients of the model operator
/// `A u = diag·u − off·(Σ six neighbours)`; `diag > 6·off` gives
/// diagonal dominance and guaranteed sweep convergence.
#[derive(Debug, Clone, Copy)]
pub struct LuSgsCoeffs {
    /// Diagonal coefficient.
    pub diag: f64,
    /// Off-diagonal coupling to each of the six neighbours.
    pub off: f64,
}

impl Default for LuSgsCoeffs {
    fn default() -> Self {
        LuSgsCoeffs {
            diag: 6.5,
            off: 1.0,
        }
    }
}

#[inline]
fn neighbour_sum(u: &Grid3, i: usize, j: usize, k: usize) -> f64 {
    let (ni, nj, nk) = u.dims();
    let mut s = 0.0;
    if i > 0 {
        s += u.get(i - 1, j, k);
    }
    if j > 0 {
        s += u.get(i, j - 1, k);
    }
    if k > 0 {
        s += u.get(i, j, k - 1);
    }
    if i + 1 < ni {
        s += u.get(i + 1, j, k);
    }
    if j + 1 < nj {
        s += u.get(i, j + 1, k);
    }
    if k + 1 < nk {
        s += u.get(i, j, k + 1);
    }
    s
}

/// Forward Gauss-Seidel sweep in strict lexicographic order — the
/// reference implementation.
pub fn forward_sweep_lex(u: &mut Grid3, rhs: &Grid3, c: LuSgsCoeffs) {
    let (ni, nj, nk) = u.dims();
    for i in 0..ni {
        for j in 0..nj {
            for k in 0..nk {
                let acc = rhs.get(i, j, k) + c.off * neighbour_sum(u, i, j, k);
                u.set(i, j, k, acc / c.diag);
            }
        }
    }
}

/// Backward Gauss-Seidel sweep in reverse lexicographic order.
pub fn backward_sweep_lex(u: &mut Grid3, rhs: &Grid3, c: LuSgsCoeffs) {
    let (ni, nj, nk) = u.dims();
    for i in (0..ni).rev() {
        for j in (0..nj).rev() {
            for k in (0..nk).rev() {
                let acc = rhs.get(i, j, k) + c.off * neighbour_sum(u, i, j, k);
                u.set(i, j, k, acc / c.diag);
            }
        }
    }
}

/// Forward sweep by hyperplanes `i+j+k = h`, each plane's updates
/// computed from the grid before any is written — the pipelined form.
/// Bitwise identical to
/// [`forward_sweep_lex`]: a point's lower neighbours live on plane
/// `h−1` (already final) and its upper neighbours on `h+1` (still
/// old), exactly as in the lexicographic order.
pub fn forward_sweep_hyperplane(u: &mut Grid3, rhs: &Grid3, c: LuSgsCoeffs) {
    let planes = {
        let (ni, nj, nk) = u.dims();
        hyperplanes(ni, nj, nk)
    };
    for plane in &planes {
        let updates: Vec<(usize, f64)> = plane
            .iter()
            .map(|&(i, j, k)| {
                let acc = rhs.get(i, j, k) + c.off * neighbour_sum(u, i, j, k);
                (u.idx(i, j, k), acc / c.diag)
            })
            .collect();
        let slice = u.as_mut_slice();
        for (idx, v) in updates {
            slice[idx] = v;
        }
    }
}

/// Enumerate hyperplanes in sweep order.
pub fn hyperplanes(ni: usize, nj: usize, nk: usize) -> Vec<Vec<(usize, usize, usize)>> {
    let hmax = ni + nj + nk - 2;
    let mut planes: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); hmax + 1];
    for i in 0..ni {
        for j in 0..nj {
            for k in 0..nk {
                planes[i + j + k].push((i, j, k));
            }
        }
    }
    planes
}

/// One full LU-SGS iteration: forward then backward sweep (symmetric
/// Gauss-Seidel).
pub fn lusgs_iteration(u: &mut Grid3, rhs: &Grid3, c: LuSgsCoeffs) {
    forward_sweep_lex(u, rhs, c);
    backward_sweep_lex(u, rhs, c);
}

/// L2 residual `‖rhs − A u‖` of the model operator.
pub fn model_residual(u: &Grid3, rhs: &Grid3, c: LuSgsCoeffs) -> f64 {
    let (ni, nj, nk) = u.dims();
    let mut sum = 0.0;
    for i in 0..ni {
        for j in 0..nj {
            for k in 0..nk {
                let au = c.diag * u.get(i, j, k) - c.off * neighbour_sum(u, i, j, k);
                let r = rhs.get(i, j, k) - au;
                sum += r * r;
            }
        }
    }
    (sum / (ni * nj * nk) as f64).sqrt()
}

/// Flops per grid point of one LU-SGS iteration of the 5-variable
/// Navier-Stokes form (two sweeps of a 5×5 block solve + flux terms).
pub const LUSGS_FLOPS_PER_POINT: f64 = 420.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn rhs_grid(n: usize) -> Grid3 {
        Grid3::from_fn(n, n, n, |i, j, k| ((i * 7 + j * 3 + k) % 5) as f64 - 2.0)
    }

    #[test]
    fn hyperplane_sweep_matches_lexicographic_exactly() {
        let n = 10;
        let rhs = rhs_grid(n);
        let c = LuSgsCoeffs::default();
        let mut u_lex = Grid3::from_fn(n, n, n, |i, j, k| (i + j + k) as f64 * 0.01);
        let mut u_hyp = u_lex.clone();
        forward_sweep_lex(&mut u_lex, &rhs, c);
        forward_sweep_hyperplane(&mut u_hyp, &rhs, c);
        for (a, b) in u_lex.as_slice().iter().zip(u_hyp.as_slice()) {
            assert_eq!(a, b, "hyperplane ordering must be bitwise identical");
        }
    }

    #[test]
    fn hyperplane_enumeration_is_complete_and_ordered() {
        let (ni, nj, nk) = (3, 4, 5);
        let planes = hyperplanes(ni, nj, nk);
        let total: usize = planes.iter().map(Vec::len).sum();
        assert_eq!(total, ni * nj * nk);
        for (h, plane) in planes.iter().enumerate() {
            for &(i, j, k) in plane {
                assert_eq!(i + j + k, h);
            }
        }
        // Pipeline width peaks in the middle.
        let widths: Vec<usize> = planes.iter().map(Vec::len).collect();
        let max_w = *widths.iter().max().unwrap();
        assert!(max_w > widths[0] && max_w > *widths.last().unwrap());
    }

    #[test]
    fn iterations_converge_on_dominant_operator() {
        let n = 12;
        let rhs = rhs_grid(n);
        let c = LuSgsCoeffs {
            diag: 7.0,
            off: 1.0,
        };
        let mut u = Grid3::zeros(n, n, n);
        let r0 = model_residual(&u, &rhs, c);
        let mut last = f64::INFINITY;
        for _ in 0..25 {
            lusgs_iteration(&mut u, &rhs, c);
            let r = model_residual(&u, &rhs, c);
            assert!(r <= last * 1.0001, "residual must not grow: {r} > {last}");
            last = r;
        }
        assert!(last < r0 * 1e-6, "did not converge: {last} vs initial {r0}");
    }

    #[test]
    fn solution_satisfies_operator() {
        let n = 8;
        let rhs = rhs_grid(n);
        let c = LuSgsCoeffs {
            diag: 8.0,
            off: 1.0,
        };
        let mut u = Grid3::zeros(n, n, n);
        for _ in 0..60 {
            lusgs_iteration(&mut u, &rhs, c);
        }
        assert!(model_residual(&u, &rhs, c) < 1e-10);
    }

    #[test]
    fn forward_then_backward_touches_every_point() {
        let n = 6;
        let rhs = Grid3::from_fn(n, n, n, |_, _, _| 1.0);
        let mut u = Grid3::zeros(n, n, n);
        lusgs_iteration(&mut u, &rhs, LuSgsCoeffs::default());
        for v in u.as_slice() {
            assert!(*v > 0.0);
        }
    }
}
