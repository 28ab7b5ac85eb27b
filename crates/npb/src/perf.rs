//! NPB performance sweeps: the engine behind Fig. 6 (node-type
//! comparison) and Fig. 8 (compiler comparison).

use columbia_machine::cluster::{ClusterConfig, NodeId};
use columbia_machine::node::NodeKind;
use columbia_runtime::compiler::CompilerVersion;
use columbia_runtime::exec::{execute_in, ExecConfig, SpecOp, WorkloadSpec};
use columbia_simnet::obs::RunContext;
use columbia_simnet::SimError;

use crate::class::NpbClass;
use crate::profile::BenchmarkProfile;
use crate::{bt, cg, ft, mg};

/// The four single-zone benchmarks the paper selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpbBenchmark {
    /// Conjugate gradient.
    Cg,
    /// 3-D FFT spectral solver.
    Ft,
    /// Multigrid.
    Mg,
    /// Block-tridiagonal application.
    Bt,
}

impl NpbBenchmark {
    /// All four, in Fig. 6's panel order.
    pub const ALL: [NpbBenchmark; 4] = [
        NpbBenchmark::Cg,
        NpbBenchmark::Ft,
        NpbBenchmark::Mg,
        NpbBenchmark::Bt,
    ];

    /// Benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            NpbBenchmark::Cg => "CG",
            NpbBenchmark::Ft => "FT",
            NpbBenchmark::Mg => "MG",
            NpbBenchmark::Bt => "BT",
        }
    }

    /// Analytic profile at a class.
    pub fn profile(self, class: NpbClass) -> BenchmarkProfile {
        match self {
            NpbBenchmark::Cg => cg::profile(class),
            NpbBenchmark::Ft => ft::profile(class),
            NpbBenchmark::Mg => mg::profile(class),
            NpbBenchmark::Bt => bt::profile(class),
        }
    }

    /// MPI workload spec for `np` ranks over `iters` iterations.
    pub fn spec_mpi(self, class: NpbClass, np: usize, iters: u32) -> WorkloadSpec {
        match self {
            NpbBenchmark::Cg => cg::spec_mpi(class, np, iters),
            NpbBenchmark::Ft => ft::spec_mpi(class, np, iters),
            NpbBenchmark::Mg => mg::spec_mpi(class, np, iters),
            NpbBenchmark::Bt => bt::spec_mpi(class, np, iters),
        }
    }
}

impl std::fmt::Display for NpbBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Programming paradigm of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// One MPI rank per CPU.
    Mpi,
    /// One process, one OpenMP thread per CPU.
    OpenMp,
}

impl Paradigm {
    /// Both paradigms, MPI first (Fig. 6's rows).
    pub const ALL: [Paradigm; 2] = [Paradigm::Mpi, Paradigm::OpenMp];

    /// Label.
    pub fn name(self) -> &'static str {
        match self {
            Paradigm::Mpi => "MPI",
            Paradigm::OpenMp => "OpenMP",
        }
    }
}

/// Most CPUs one configuration runs on: every run fits one node.
pub const MAX_CPUS: u32 = 512;

/// Iterations actually simulated per sweep point (results are
/// per-iteration rates, so a short, representative run suffices).
const SIM_ITERS: u32 = 2;

/// Simulated per-CPU Gflop/s for one configuration, run in `ctx` — one
/// point of Fig. 6 (with `compiler = 7.1`) or Fig. 8 (varying
/// `compiler`). A failed simulation (deadlock, watchdog, …) surfaces as
/// the [`SimError`] rather than a panic.
pub fn gflops_per_cpu(
    ctx: &RunContext,
    bench: NpbBenchmark,
    class: NpbClass,
    kind: NodeKind,
    paradigm: Paradigm,
    cpus: u32,
    compiler: CompilerVersion,
) -> Result<f64, SimError> {
    assert!((1..=MAX_CPUS).contains(&cpus));
    let cluster = ClusterConfig::uniform(kind, 1);
    let prof = bench.profile(class);
    let (spec, mut cfg) = match paradigm {
        Paradigm::Mpi => {
            let spec = bench.spec_mpi(class, cpus as usize, SIM_ITERS);
            let cfg = ExecConfig::single_node(cluster, NodeId(0), cpus as usize, 1);
            (spec, cfg)
        }
        Paradigm::OpenMp => {
            let mut spec = WorkloadSpec::with_ranks(1);
            for _ in 0..SIM_ITERS {
                spec.ranks[0].push(SpecOp::Work(prof.omp_phase(cpus as usize)));
            }
            let cfg = ExecConfig::single_node(cluster, NodeId(0), 1, cpus as usize);
            (spec, cfg)
        }
    };
    cfg.compiler = compiler;
    let out = execute_in(ctx, &spec, &cfg)?;
    let flops = prof.flops_per_iter * SIM_ITERS as f64;
    Ok(flops / out.makespan / cpus as f64 / 1.0e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    const V71: CompilerVersion = CompilerVersion::V7_1;

    /// Healthy-machine shorthand: these sweeps must never fail.
    fn gflops_per_cpu(
        bench: NpbBenchmark,
        class: NpbClass,
        kind: NodeKind,
        paradigm: Paradigm,
        cpus: u32,
        compiler: CompilerVersion,
    ) -> f64 {
        let ctx = RunContext::new(1);
        super::gflops_per_cpu(&ctx, bench, class, kind, paradigm, cpus, compiler).unwrap()
    }

    #[test]
    fn single_cpu_rates_are_sub_gflops() {
        // Fig. 6's y-axes live under ~1.5 Gflop/s per CPU.
        for bench in NpbBenchmark::ALL {
            let g = gflops_per_cpu(bench, NpbClass::A, NodeKind::Bx2b, Paradigm::Mpi, 1, V71);
            assert!(g > 0.05 && g < 1.9, "{bench}: {g}");
        }
    }

    #[test]
    fn openmp_scales_better_on_bx2_than_3700() {
        // Fig. 6: "the four OpenMP benchmarks scaled much better on
        // both types of BX2 than on 3700 when the number of threads is
        // four or more. With 128 threads, the difference can be as
        // large as 2x for both FT and BT."
        for bench in [NpbBenchmark::Ft, NpbBenchmark::Bt] {
            let b3 = gflops_per_cpu(
                bench,
                NpbClass::B,
                NodeKind::Altix3700,
                Paradigm::OpenMp,
                128,
                V71,
            );
            let bb = gflops_per_cpu(
                bench,
                NpbClass::B,
                NodeKind::Bx2b,
                Paradigm::OpenMp,
                128,
                V71,
            );
            let ratio = bb / b3;
            assert!(
                ratio > 1.5,
                "{bench}: OpenMP 128-thread BX2b/3700 = {ratio}"
            );
        }
    }

    #[test]
    fn openmp_node_gap_is_small_at_low_threads() {
        let b3 = gflops_per_cpu(
            NpbBenchmark::Ft,
            NpbClass::B,
            NodeKind::Altix3700,
            Paradigm::OpenMp,
            2,
            V71,
        );
        let bb = gflops_per_cpu(
            NpbBenchmark::Ft,
            NpbClass::B,
            NodeKind::Bx2a,
            Paradigm::OpenMp,
            2,
            V71,
        );
        let ratio = bb / b3;
        assert!(ratio < 1.25, "gap at 2 threads should be small: {ratio}");
    }

    #[test]
    fn ft_mpi_about_2x_on_bx2_at_256() {
        // Fig. 6: "on 256 processors, FT runs about twice as fast on
        // BX2 than on 3700".
        let f3 = gflops_per_cpu(
            NpbBenchmark::Ft,
            NpbClass::B,
            NodeKind::Altix3700,
            Paradigm::Mpi,
            256,
            V71,
        );
        let fb = gflops_per_cpu(
            NpbBenchmark::Ft,
            NpbClass::B,
            NodeKind::Bx2a,
            Paradigm::Mpi,
            256,
            V71,
        );
        let ratio = fb / f3;
        assert!((1.5..2.6).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn mg_and_bt_jump_on_bx2b_at_64() {
        // Fig. 6: "At about 64 processors, both MG and BT exhibit a
        // performance jump (~50%) on BX2b comparing to BX2a … a result
        // of a larger L3 cache."
        for bench in [NpbBenchmark::Mg, NpbBenchmark::Bt] {
            let a = gflops_per_cpu(bench, NpbClass::B, NodeKind::Bx2a, Paradigm::Mpi, 64, V71);
            let b = gflops_per_cpu(bench, NpbClass::B, NodeKind::Bx2b, Paradigm::Mpi, 64, V71);
            let jump = b / a;
            assert!(jump > 1.3, "{bench}: BX2b/BX2a at 64 = {jump}");
        }
    }

    #[test]
    fn mpi_scales_reasonably_to_256() {
        // MPI per-CPU rate should not collapse by 256 ranks.
        let g1 = gflops_per_cpu(
            NpbBenchmark::Bt,
            NpbClass::B,
            NodeKind::Bx2b,
            Paradigm::Mpi,
            1,
            V71,
        );
        let g256 = gflops_per_cpu(
            NpbBenchmark::Bt,
            NpbClass::B,
            NodeKind::Bx2b,
            Paradigm::Mpi,
            256,
            V71,
        );
        assert!(g256 > 0.25 * g1, "g1={g1} g256={g256}");
    }

    #[test]
    fn openmp_beats_mpi_at_small_counts_and_loses_at_scale() {
        // §4.1.2: "OpenMP versions demonstrated better performance on a
        // small number of CPUs, but MPI versions scaled much better."
        let omp4 = gflops_per_cpu(
            NpbBenchmark::Mg,
            NpbClass::B,
            NodeKind::Bx2b,
            Paradigm::OpenMp,
            4,
            V71,
        );
        let mpi4 = gflops_per_cpu(
            NpbBenchmark::Mg,
            NpbClass::B,
            NodeKind::Bx2b,
            Paradigm::Mpi,
            4,
            V71,
        );
        assert!(omp4 > 0.9 * mpi4, "omp4={omp4} mpi4={mpi4}");
        let omp256 = gflops_per_cpu(
            NpbBenchmark::Mg,
            NpbClass::B,
            NodeKind::Bx2b,
            Paradigm::OpenMp,
            256,
            V71,
        );
        let mpi256 = gflops_per_cpu(
            NpbBenchmark::Mg,
            NpbClass::B,
            NodeKind::Bx2b,
            Paradigm::Mpi,
            256,
            V71,
        );
        assert!(mpi256 > omp256, "omp256={omp256} mpi256={mpi256}");
    }

    #[test]
    fn compiler_study_shapes() {
        use CompilerVersion::*;
        // Fig. 8 panels, all on BX2b OpenMP.
        let run = |bench, v, t| {
            gflops_per_cpu(bench, NpbClass::B, NodeKind::Bx2b, Paradigm::OpenMp, t, v)
        };
        // CG: all compilers similar.
        let cg: Vec<f64> = CompilerVersion::ALL
            .iter()
            .map(|&v| run(NpbBenchmark::Cg, v, 16))
            .collect();
        let spread =
            cg.iter().fold(0.0f64, |m, &x| m.max(x)) / cg.iter().fold(f64::MAX, |m, &x| m.min(x));
        assert!(spread < 1.05, "CG spread {spread}");
        // FT: 9.0b best.
        assert!(run(NpbBenchmark::Ft, V9_0Beta, 16) > run(NpbBenchmark::Ft, V8_0, 16));
        // MG crossover: 7.1 wins at 16 threads, 8.1 between 32 and 128.
        assert!(run(NpbBenchmark::Mg, V7_1, 16) > run(NpbBenchmark::Mg, V8_1, 16));
        assert!(run(NpbBenchmark::Mg, V8_1, 64) > run(NpbBenchmark::Mg, V7_1, 64));
    }
}
