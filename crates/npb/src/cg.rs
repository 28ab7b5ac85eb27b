//! NPB CG: conjugate-gradient eigenvalue estimation.
//!
//! "CG tests irregular memory access and communication": the sparse
//! matvec gathers random columns, and the distributed version reduces
//! partial sums across the processor grid every inner iteration. The
//! real mini-run drives `columbia_kernels::cg`'s power iteration; the
//! spec emits the per-inner-iteration reductions and transpose
//! exchanges.

use columbia_kernels::cg as kcg;
use columbia_runtime::compiler::KernelClass;
use columbia_runtime::exec::{SpecOp, WorkloadSpec};

use crate::class::NpbClass;
use crate::profile::BenchmarkProfile;

/// Problem shape per class: unknowns, nonzeros per row, outer
/// iterations, eigenvalue shift (NPB3.1 CG table).
pub fn size(class: NpbClass) -> (usize, usize, u32, f64) {
    match class {
        NpbClass::S => (1_400, 7, 15, 10.0),
        NpbClass::W => (7_000, 8, 15, 12.0),
        NpbClass::A => (14_000, 11, 15, 20.0),
        NpbClass::B => (75_000, 13, 75, 60.0),
        NpbClass::C => (150_000, 15, 75, 110.0),
        NpbClass::D => (1_500_000, 21, 100, 500.0),
    }
}

/// Inner CG iterations per outer step (fixed at 25 in the spec).
pub const INNER_ITERS: u32 = 25;

/// Analytic profile. One outer iteration = 25 inner CG steps; each
/// streams the matrix (12 bytes per stored nonzero) and four vectors.
pub fn profile(class: NpbClass) -> BenchmarkProfile {
    let (n, nz_row, iterations, _) = size(class);
    let nnz = (n * nz_row) as f64;
    let flops_inner = kcg::cg_iter_flops(n, n * nz_row);
    BenchmarkProfile {
        flops_per_iter: flops_inner * INNER_ITERS as f64,
        mem_bytes_per_iter: INNER_ITERS as f64 * (nnz * 12.0 + 4.0 * n as f64 * 8.0),
        total_bytes: (nnz * 12.0 + 5.0 * n as f64 * 8.0) as u64,
        iterations,
        efficiency: 0.20,
        serial_fraction: 0.02,
        remote_share: 0.40,
        kernel: KernelClass::ConjugateGradient,
    }
}

/// Whether CG runs under MPI on `np` ranks: its transpose exchange
/// pairs rank `r` with `(r + np/2) % np`, which pairs every rank only
/// when `np` is even; a lone rank exchanges with nobody.
pub fn mpi_ranks_pair(np: usize) -> bool {
    np == 1 || np.is_multiple_of(2)
}

/// MPI spec: `iters` outer steps on `np` ranks. Per inner iteration:
/// the partitioned matvec work, a transpose exchange with the opposite
/// rank of the processor grid, and the two dot-product allreduces.
/// `np` must be at least 1 and pass [`mpi_ranks_pair`].
pub fn spec_mpi(class: NpbClass, np: usize, iters: u32) -> WorkloadSpec {
    assert!(
        np >= 1 && mpi_ranks_pair(np),
        "CG cannot pair {np} MPI ranks"
    );
    let prof = profile(class);
    let (n, _, _, _) = size(class);
    let mut spec = WorkloadSpec::with_ranks(np);
    let exch_bytes = ((n / np.max(1)) * 8) as u64;
    // Split the outer iteration's work evenly over inner steps.
    let mut inner_phase = prof.rank_phase(np);
    inner_phase.flops /= INNER_ITERS as f64;
    inner_phase.mem_bytes /= INNER_ITERS as f64;
    for it in 0..iters {
        for inner in 0..INNER_ITERS {
            for (r, ops) in spec.ranks.iter_mut().enumerate() {
                ops.push(SpecOp::Work(inner_phase));
                if np >= 2 {
                    let partner = (r + np / 2) % np;
                    let tag = (it as u64) << 32 | (inner as u64) << 8;
                    ops.push(SpecOp::Send {
                        to: partner,
                        bytes: exch_bytes.max(64),
                        tag: tag + (r.min(partner)) as u64,
                    });
                    ops.push(SpecOp::Recv {
                        from: partner,
                        tag: tag + (r.min(partner)) as u64,
                    });
                }
                ops.push(SpecOp::AllReduce { bytes: 8 });
                ops.push(SpecOp::AllReduce { bytes: 8 });
            }
        }
    }
    spec
}

/// Result of a real host-scale CG run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgRunResult {
    /// Final ζ estimate.
    pub zeta: f64,
    /// Change in ζ over the last outer iteration.
    pub final_drift: f64,
    /// Shift used.
    pub shift: f64,
}

impl CgRunResult {
    /// Verification: ζ settled just above the class shift.
    pub fn verified(&self) -> bool {
        self.zeta > self.shift
            && self.zeta < self.shift + 1.5
            && self.final_drift.abs() < 1e-2 * self.zeta
    }
}

/// Run CG for real at a (small) class.
pub fn run_real(class: NpbClass) -> CgRunResult {
    let (n, nz_row, iters, shift) = size(class);
    assert!(n <= 14_000, "host-scale real runs use classes S/W/A");
    let a = kcg::npb_matrix(n, nz_row, 314_159);
    let mut x = vec![1.0; n];
    let mut zeta = 0.0;
    let mut prev = 0.0;
    for _ in 0..iters {
        prev = zeta;
        zeta = kcg::power_iteration_step(&a, &mut x, shift, INNER_ITERS);
    }
    CgRunResult {
        zeta,
        final_drift: zeta - prev,
        shift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_real_run_verifies() {
        let r = run_real(NpbClass::S);
        assert!(r.verified(), "{r:?}");
    }

    #[test]
    fn class_w_real_run_verifies() {
        let r = run_real(NpbClass::W);
        assert!(r.verified(), "{r:?}");
    }

    #[test]
    fn profile_scales_with_class() {
        let a = profile(NpbClass::A);
        let b = profile(NpbClass::B);
        assert!(b.flops_per_iter > 5.0 * a.flops_per_iter);
        assert!(b.iterations > a.iterations);
    }

    #[test]
    fn spec_inner_loop_structure() {
        let spec = spec_mpi(NpbClass::A, 8, 1);
        let ops = &spec.ranks[0];
        let works = ops.iter().filter(|o| matches!(o, SpecOp::Work(_))).count();
        let reduces = ops
            .iter()
            .filter(|o| matches!(o, SpecOp::AllReduce { .. }))
            .count();
        assert_eq!(works, INNER_ITERS as usize);
        assert_eq!(reduces, 2 * INNER_ITERS as usize);
    }

    #[test]
    fn only_one_or_an_even_count_of_ranks_pairs() {
        let pairs: Vec<usize> = (1..=8).filter(|&np| mpi_ranks_pair(np)).collect();
        assert_eq!(pairs, [1, 2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "CG cannot pair 3 MPI ranks")]
    fn an_odd_rank_count_is_refused() {
        spec_mpi(NpbClass::S, 3, 1);
    }

    #[test]
    fn transpose_partners_are_mutual() {
        let np = 12;
        let spec = spec_mpi(NpbClass::S, np, 1);
        for (r, ops) in spec.ranks.iter().enumerate() {
            for op in ops {
                if let SpecOp::Send { to, tag, .. } = op {
                    let matched = spec.ranks[*to].iter().any(
                        |o| matches!(o, SpecOp::Recv { from, tag: t } if *from == r && t == tag),
                    );
                    assert!(matched, "rank {r} send to {to} unmatched");
                }
            }
        }
    }
}
