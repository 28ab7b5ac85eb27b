//! Intel compiler version model (§4.4).
//!
//! Columbia had four Intel Fortran compilers installed: 7.1 (the
//! default), 8.0, 8.1 (latest official), and a 9.0 beta. The paper's
//! finding is that *no version wins everywhere*: 8.0 was worst in most
//! cases, 9.0b excelled on FT, MG preferred 7.1/8.0 below 32 threads
//! but 8.1/9.0b above (turning around again past 128), CG was
//! indifferent, and the applications (Table 4) saw either nothing
//! (INS3D) or a low-CPU-count 7.1 advantage (OVERFLOW-D).
//!
//! We cannot re-implement four Fortran code generators; instead each
//! version carries an explicit per-kernel-shape efficiency factor,
//! calibrated to Fig. 8 / Table 4 — a documented substitution (see
//! DESIGN.md). The *mechanism* (different versions scheduling
//! different loop shapes differently, with thread-count-dependent
//! crossovers) is preserved.

/// An installed Intel compiler version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerVersion {
    /// 7.1(.042) — the system default.
    V7_1,
    /// 8.0(.070).
    V8_0,
    /// 8.1(.026) — latest official release at the time.
    V8_1,
    /// 9.0(.012) beta.
    V9_0Beta,
}

impl CompilerVersion {
    /// All four versions in release order.
    pub const ALL: [CompilerVersion; 4] = [
        CompilerVersion::V7_1,
        CompilerVersion::V8_0,
        CompilerVersion::V8_1,
        CompilerVersion::V9_0Beta,
    ];

    /// Version string as `module load` would show it.
    pub fn name(self) -> &'static str {
        match self {
            CompilerVersion::V7_1 => "7.1",
            CompilerVersion::V8_0 => "8.0",
            CompilerVersion::V8_1 => "8.1",
            CompilerVersion::V9_0Beta => "9.0b",
        }
    }
}

impl std::fmt::Display for CompilerVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The loop shapes that dominate each workload — what the code
/// generator actually differentiates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Sparse matrix-vector products and irregular gathers (NPB CG).
    ConjugateGradient,
    /// Butterfly loops with strided complex accesses (NPB FT).
    Fourier,
    /// Stencil smoothing over a grid hierarchy (NPB MG).
    Multigrid,
    /// Dense 5×5 block solves along pencils (NPB BT / SP, BT-MZ, SP-MZ).
    BlockSolver,
    /// Gauss-Seidel line relaxation sweeps (INS3D).
    LineRelaxation,
    /// Pipelined LU-SGS hyperplane sweeps (OVERFLOW-D).
    LuSgs,
    /// Long-vector streaming (STREAM, DGEMM handled by BLAS).
    Streaming,
    /// Short-range force loops over neighbour lists (MD).
    ParticleForce,
}

impl CompilerVersion {
    /// Code-generation efficiency factor for a kernel shape when the
    /// run uses `units` parallel workers (threads for OpenMP codes,
    /// processes for MPI codes — Fig. 8's x-axis).
    ///
    /// Factors are relative to compiler 7.1 at small scale = 1.0.
    pub fn factor(self, kernel: KernelClass, units: u32) -> f64 {
        use CompilerVersion::*;
        use KernelClass::*;
        match kernel {
            // "All the compilers gave similar results on the CG
            // benchmark."
            ConjugateGradient => match self {
                V8_0 => 0.99,
                _ => 1.0,
            },
            // "The beta version of 9.0 performed very well on FT";
            // 8.0 produced the worst results in most cases.
            Fourier => match self {
                V7_1 => 1.0,
                V8_0 => 0.88,
                V8_1 => 0.97,
                V9_0Beta => 1.09,
            },
            // MG: "between 32 and 128 threads the 8.1 and 9.0b
            // compilers outperformed the 7.1 and 8.0; however, below 32
            // threads, the 7.1 and 8.0 compilers performed 20-30%
            // better... The scaling also turns around above 128."
            Multigrid => {
                let (lo, mid, hi) = match self {
                    V7_1 => (1.00, 1.00, 1.00),
                    V8_0 => (0.98, 0.85, 0.85),
                    V8_1 => (0.78, 1.12, 0.95),
                    V9_0Beta => (0.80, 1.15, 0.97),
                };
                if units < 32 {
                    lo
                } else if units <= 128 {
                    mid
                } else {
                    hi
                }
            }
            // BT: 8.0 worst, rest close.
            BlockSolver => match self {
                V7_1 => 1.0,
                V8_0 => 0.90,
                V8_1 => 0.98,
                V9_0Beta => 1.0,
            },
            // Table 4: INS3D "negligible difference" between 7.1/8.1.
            LineRelaxation => match self {
                V8_0 => 0.97,
                _ => 1.0,
            },
            // Table 4: OVERFLOW-D 7.1 superior "by 20-40% when running
            // on less than 64 processors, but almost identical on
            // larger counts".
            LuSgs => {
                if units < 64 {
                    match self {
                        V7_1 => 1.0,
                        V8_0 => 0.72,
                        V8_1 => 0.75,
                        V9_0Beta => 0.80,
                    }
                } else {
                    match self {
                        V8_0 => 0.97,
                        _ => 1.0,
                    }
                }
            }
            // Bandwidth-bound code: the compiler hardly matters.
            Streaming => 1.0,
            ParticleForce => match self {
                V8_0 => 0.96,
                _ => 1.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CompilerVersion::*;
    use KernelClass::*;

    #[test]
    fn cg_is_compiler_insensitive() {
        for v in CompilerVersion::ALL {
            for units in [1, 32, 256] {
                let f = v.factor(ConjugateGradient, units);
                assert!((f - 1.0).abs() < 0.02, "{v} {units} {f}");
            }
        }
    }

    #[test]
    fn ft_beta_wins_v80_loses() {
        let units = 64;
        let f: Vec<f64> = CompilerVersion::ALL
            .iter()
            .map(|v| v.factor(Fourier, units))
            .collect();
        // 9.0b best, 8.0 worst.
        assert!(f[3] > f[0] && f[0] > f[1]);
        assert!(f[1] < f[2]);
    }

    #[test]
    fn mg_crossover_at_32_threads() {
        // Below 32 threads 7.1 beats 8.1 by 20-30%.
        let below = V7_1.factor(Multigrid, 16) / V8_1.factor(Multigrid, 16);
        assert!(below > 1.2 && below < 1.35, "ratio={below}");
        // Between 32 and 128, 8.1 wins.
        assert!(V8_1.factor(Multigrid, 64) > V7_1.factor(Multigrid, 64));
        // Above 128 the ordering turns again.
        assert!(V7_1.factor(Multigrid, 256) > V8_1.factor(Multigrid, 256));
    }

    #[test]
    fn ins3d_sees_negligible_compiler_difference() {
        let a = V7_1.factor(LineRelaxation, 36);
        let b = V8_1.factor(LineRelaxation, 36);
        assert!((a - b).abs() < 0.01);
    }

    #[test]
    fn overflowd_71_advantage_fades_at_64_procs() {
        let small = V7_1.factor(LuSgs, 32) / V8_1.factor(LuSgs, 32);
        assert!((1.2..=1.4).contains(&small), "ratio={small}");
        let large = V7_1.factor(LuSgs, 128) / V8_1.factor(LuSgs, 128);
        assert!((large - 1.0).abs() < 0.01);
    }

    #[test]
    fn names_render() {
        assert_eq!(V7_1.to_string(), "7.1");
        assert_eq!(V9_0Beta.to_string(), "9.0b");
    }

    #[test]
    fn v80_worst_in_most_cases() {
        // Count kernels where 8.0 is strictly the minimum at 64 units.
        let mut worst = 0;
        let kernels = [
            ConjugateGradient,
            Fourier,
            Multigrid,
            BlockSolver,
            LineRelaxation,
            LuSgs,
            ParticleForce,
        ];
        for k in kernels {
            let f80 = V8_0.factor(k, 64);
            if CompilerVersion::ALL
                .iter()
                .filter(|&&v| v != V8_0)
                .all(|v| v.factor(k, 64) >= f80)
            {
                worst += 1;
            }
        }
        assert!(
            worst >= 5,
            "8.0 should be worst in most cases, was in {worst}"
        );
    }
}
