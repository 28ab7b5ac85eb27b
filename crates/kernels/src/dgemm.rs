//! Dense double-precision matrix multiply (the HPCC DGEMM component).
//!
//! Three variants: a reference naive triple loop, a cache-blocked
//! version (tested against the naive one), and a rayon-parallel
//! tiled version used for multi-worker host runs. All compute
//! `C ← αAB + βC` on row-major square-free `m×k · k×n` operands.

use rayon::prelude::*;

/// Cache block edge, sized so three blocks of doubles stay inside a
/// 256 KB L2-like cache.
pub const BLOCK: usize = 64;

/// Reference naive `C ← αAB + βC`.
///
/// `a` is `m×k`, `b` is `k×n`, `c` is `m×n`, all row-major.
pub fn dgemm_naive(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    check_dims(m, n, k, a, b, c);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a[i * k + l] * b[l * n + j];
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

/// Cache-blocked `C ← αAB + βC` with an `i,l,j` inner order that
/// streams `b` and `c` rows.
pub fn dgemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    check_dims(m, n, k, a, b, c);
    if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for l0 in (0..k).step_by(BLOCK) {
            let l1 = (l0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                for i in i0..i1 {
                    for l in l0..l1 {
                        let av = alpha * a[i * k + l];
                        let brow = &b[l * n + j0..l * n + j1];
                        let crow = &mut c[i * n + j0..i * n + j1];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += av * bv;
                        }
                    }
                }
            }
        }
    }
}

/// Rayon-parallel blocked multiply: row bands of `c` are independent.
pub fn dgemm_parallel(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    check_dims(m, n, k, a, b, c);
    c.par_chunks_mut(n.max(1) * BLOCK)
        .enumerate()
        .for_each(|(band, cband)| {
            let i0 = band * BLOCK;
            let rows = cband.len() / n;
            dgemm_blocked(
                rows,
                n,
                k,
                alpha,
                &a[i0 * k..(i0 + rows) * k],
                b,
                beta,
                cband,
            );
        });
}

/// Flop count of one `m×n×k` multiply-accumulate (2 flops per MAC) —
/// what the HPCC harness divides by the measured time.
pub fn dgemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

fn check_dims(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &[f64]) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn identity_times_matrix_is_matrix() {
        let n = 8;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let b: Vec<f64> = (0..n * n).map(|x| x as f64).collect();
        let mut c = vec![0.0; n * n];
        dgemm_blocked(n, n, n, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn blocked_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let (m, n, k) = (70, 65, 90); // deliberately non-multiples of BLOCK
        let a = random_mat(&mut rng, m * k);
        let b = random_mat(&mut rng, k * n);
        let c0 = random_mat(&mut rng, m * n);
        let mut c_naive = c0.clone();
        let mut c_block = c0.clone();
        dgemm_naive(m, n, k, 1.3, &a, &b, 0.7, &mut c_naive);
        dgemm_blocked(m, n, k, 1.3, &a, &b, 0.7, &mut c_block);
        assert!(max_diff(&c_naive, &c_block) < 1e-10);
    }

    #[test]
    fn parallel_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        let (m, n, k) = (150, 40, 60);
        let a = random_mat(&mut rng, m * k);
        let b = random_mat(&mut rng, k * n);
        let c0 = random_mat(&mut rng, m * n);
        let mut c_naive = c0.clone();
        let mut c_par = c0.clone();
        dgemm_naive(m, n, k, 2.0, &a, &b, -0.5, &mut c_naive);
        dgemm_parallel(m, n, k, 2.0, &a, &b, -0.5, &mut c_par);
        assert!(max_diff(&c_naive, &c_par) < 1e-10);
    }

    #[test]
    fn flop_count() {
        assert_eq!(dgemm_flops(10, 10, 10), 2000.0);
    }

    #[test]
    #[should_panic(expected = "A must be")]
    fn dimension_mismatch_panics() {
        let mut c = vec![0.0; 4];
        dgemm_naive(2, 2, 2, 1.0, &[0.0; 3], &[0.0; 4], 0.0, &mut c);
    }
}
