//! 5×5 block-tridiagonal line solver (the NPB BT / BT-MZ core).
//!
//! BT's ADI scheme factors the implicit operator into three directional
//! sweeps, each solving block-tridiagonal systems with 5×5 blocks (the
//! five Navier-Stokes unknowns) along every grid line. This module
//! implements the dense 5×5 arithmetic and the block Thomas algorithm.

/// Number of flow variables per grid point.
pub const NVAR: usize = 5;

/// A 5×5 dense block.
pub type Mat5 = [[f64; NVAR]; NVAR];

/// A length-5 vector.
pub type Vec5 = [f64; NVAR];

/// `C ← A·B`.
pub fn mat_mul(a: &Mat5, b: &Mat5) -> Mat5 {
    let mut c = [[0.0; NVAR]; NVAR];
    for i in 0..NVAR {
        for k in 0..NVAR {
            let aik = a[i][k];
            for j in 0..NVAR {
                c[i][j] += aik * b[k][j];
            }
        }
    }
    c
}

/// `y ← A·x`.
pub fn mat_vec(a: &Mat5, x: &Vec5) -> Vec5 {
    let mut y = [0.0; NVAR];
    for i in 0..NVAR {
        for j in 0..NVAR {
            y[i] += a[i][j] * x[j];
        }
    }
    y
}

/// `C ← A − B`.
pub fn mat_sub(a: &Mat5, b: &Mat5) -> Mat5 {
    let mut c = *a;
    for i in 0..NVAR {
        for j in 0..NVAR {
            c[i][j] -= b[i][j];
        }
    }
    c
}

/// Solve `Ax = b` for one 5×5 block by Gaussian elimination with
/// partial pivoting. Panics on a (numerically) singular block.
pub fn solve5(a: &Mat5, b: &Vec5) -> Vec5 {
    let mut m = *a;
    let mut x = *b;
    for col in 0..NVAR {
        // Pivot.
        let mut piv = col;
        for r in col + 1..NVAR {
            if m[r][col].abs() > m[piv][col].abs() {
                piv = r;
            }
        }
        if m[piv][col].abs() < 1e-14 {
            panic!("singular 5x5 block in btsolve");
        }
        m.swap(col, piv);
        x.swap(col, piv);
        // Eliminate below.
        let d = m[col][col];
        for r in col + 1..NVAR {
            let f = m[r][col] / d;
            if f == 0.0 {
                continue;
            }
            for c in col..NVAR {
                m[r][c] -= f * m[col][c];
            }
            x[r] -= f * x[col];
        }
    }
    // Back substitution.
    for col in (0..NVAR).rev() {
        let mut acc = x[col];
        for c in col + 1..NVAR {
            acc -= m[col][c] * x[c];
        }
        x[col] = acc / m[col][col];
    }
    x
}

/// Invert a 5×5 block (via five solves against unit vectors).
pub fn invert5(a: &Mat5) -> Mat5 {
    let mut inv = [[0.0; NVAR]; NVAR];
    for j in 0..NVAR {
        let mut e = [0.0; NVAR];
        e[j] = 1.0;
        let col = solve5(a, &e);
        for i in 0..NVAR {
            inv[i][j] = col[i];
        }
    }
    inv
}

/// Solve a block-tridiagonal system along one line by the block Thomas
/// algorithm.
///
/// `lower[i]·x[i−1] + diag[i]·x[i] + upper[i]·x[i+1] = rhs[i]` for
/// `i = 0..n`, with `lower[0]` and `upper[n−1]` ignored. `rhs` is
/// overwritten with the solution.
pub fn block_thomas(lower: &[Mat5], diag: &[Mat5], upper: &[Mat5], rhs: &mut [Vec5]) {
    let n = diag.len();
    assert!(n >= 1);
    assert_eq!(lower.len(), n);
    assert_eq!(upper.len(), n);
    assert_eq!(rhs.len(), n);
    // Forward elimination: d'_i = d_i − l_i d'_{i−1}⁻¹ u_{i−1}.
    let mut dprime: Vec<Mat5> = Vec::with_capacity(n);
    dprime.push(diag[0]);
    for i in 1..n {
        let dinv = invert5(&dprime[i - 1]);
        let l_dinv = mat_mul(&lower[i], &dinv);
        dprime.push(mat_sub(&diag[i], &mat_mul(&l_dinv, &upper[i - 1])));
        let corr = mat_vec(&l_dinv, &rhs[i - 1]);
        for v in 0..NVAR {
            rhs[i][v] -= corr[v];
        }
    }
    // Back substitution.
    rhs[n - 1] = solve5(&dprime[n - 1], &rhs[n - 1]);
    for i in (0..n - 1).rev() {
        let ux = mat_vec(&upper[i], &rhs[i + 1]);
        let mut b = rhs[i];
        for v in 0..NVAR {
            b[v] -= ux[v];
        }
        rhs[i] = solve5(&dprime[i], &b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_block(rng: &mut StdRng, dominant: bool) -> Mat5 {
        let mut m = [[0.0; NVAR]; NVAR];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = rng.gen_range(-1.0..1.0);
                if dominant && i == j {
                    *v += 10.0;
                }
            }
        }
        m
    }

    #[test]
    fn solve5_recovers_known_solution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_block(&mut rng, true);
        let x_true = [1.0, -2.0, 0.5, 3.0, -0.25];
        let b = mat_vec(&a, &x_true);
        let x = solve5(&a, &b);
        for v in 0..NVAR {
            assert!((x[v] - x_true[v]).abs() < 1e-10);
        }
    }

    #[test]
    fn invert5_gives_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_block(&mut rng, true);
        let inv = invert5(&a);
        let prod = mat_mul(&a, &inv);
        for i in 0..NVAR {
            for j in 0..NVAR {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[i][j] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn block_thomas_solves_constructed_system() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 12;
        let lower: Vec<Mat5> = (0..n).map(|_| random_block(&mut rng, false)).collect();
        let diag: Vec<Mat5> = (0..n).map(|_| random_block(&mut rng, true)).collect();
        let upper: Vec<Mat5> = (0..n).map(|_| random_block(&mut rng, false)).collect();
        let x_true: Vec<Vec5> = (0..n)
            .map(|_| {
                let mut v = [0.0; NVAR];
                for e in v.iter_mut() {
                    *e = rng.gen_range(-2.0..2.0);
                }
                v
            })
            .collect();
        // rhs_i = l_i x_{i-1} + d_i x_i + u_i x_{i+1}
        let mut rhs: Vec<Vec5> = Vec::with_capacity(n);
        for i in 0..n {
            let mut b = mat_vec(&diag[i], &x_true[i]);
            if i > 0 {
                let lx = mat_vec(&lower[i], &x_true[i - 1]);
                for v in 0..NVAR {
                    b[v] += lx[v];
                }
            }
            if i + 1 < n {
                let ux = mat_vec(&upper[i], &x_true[i + 1]);
                for v in 0..NVAR {
                    b[v] += ux[v];
                }
            }
            rhs.push(b);
        }
        block_thomas(&lower, &diag, &upper, &mut rhs);
        for i in 0..n {
            for v in 0..NVAR {
                assert!(
                    (rhs[i][v] - x_true[i][v]).abs() < 1e-8,
                    "mismatch at point {i} var {v}"
                );
            }
        }
    }

    #[test]
    fn single_block_line_degenerates_to_solve5() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = random_block(&mut rng, true);
        let zero = [[0.0; NVAR]; NVAR];
        let x_true = [2.0, 1.0, 0.0, -1.0, 4.0];
        let mut rhs = vec![mat_vec(&d, &x_true)];
        block_thomas(&[zero], &[d], &[zero], &mut rhs);
        for v in 0..NVAR {
            assert!((rhs[0][v] - x_true[v]).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_block_detected() {
        let a = [[0.0; NVAR]; NVAR];
        let _ = solve5(&a, &[1.0; NVAR]);
    }
}
