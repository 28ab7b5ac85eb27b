//! Table 2 / Table 4 runner: INS3D on the turbopump grid system.
//!
//! The paper's experiment: the 66-million-point, 267-block turbopump
//! grid, run under MLP with a fixed 36 groups and 1–14 OpenMP threads
//! per group, on the 3700 and the BX2b, with the 7.1 and 8.1 Fortran
//! compilers. Observations the model reproduces:
//!
//! * BX2b ≈ 50% faster per iteration (clock + the 9 MB L3 holding the
//!   line-solver's per-block hot set);
//! * good thread scaling to 8 threads, decaying beyond (the line
//!   relaxation carries a large serial fraction);
//! * negligible 7.1-vs-8.1 compiler difference (Table 4);
//! * MLP communication (shared-arena copies) is a minor cost.

use columbia_machine::node::{NodeKind, NodeModel};
use columbia_overset::group_blocks;
use columbia_overset::systems::turbopump;
use columbia_runtime::compiler::{CompilerVersion, KernelClass};
use columbia_runtime::compute::{NodeComputeModel, WorkPhase};
use columbia_runtime::mlp::MlpModel;
use columbia_runtime::pinning::Pinning;

/// Pseudo-time sub-iterations per physical step (§3.4: 10–30).
pub const SUBITERS: u32 = 20;

/// Flops per point per sub-iteration (RHS assembly + line solves).
pub const FLOPS_PER_POINT: f64 = 1200.0;

/// Memory traffic per point per sub-iteration, bytes.
pub const BYTES_PER_POINT: f64 = 950.0;

/// Hot working set per point: the line solver walks a few planes of
/// the current block (~30 bytes/point live) — between the 6 MB and
/// 9 MB L3 sizes for typical turbopump blocks, which is where the
/// BX2b's Table 2 advantage beyond clock comes from.
pub const HOT_BYTES_PER_POINT: f64 = 30.0;

/// Serial (un-threaded) fraction of a sub-iteration: the line
/// relaxation's recurrences limit loop-level OpenMP (Table 2's decay
/// beyond 8 threads).
pub const SERIAL_FRACTION: f64 = 0.25;

/// Most CPUs one run may use: MLP's groups share one node's memory
/// arena, so a run fits inside one 512-CPU Altix node.
pub const MAX_CPUS: usize = 512;

/// One Table 2 configuration.
#[derive(Debug, Clone, Copy)]
pub struct Ins3dConfig {
    /// Node flavour (Table 2 compares 3700 and BX2b).
    pub kind: NodeKind,
    /// MLP groups (36 in the paper's scaling study).
    pub groups: usize,
    /// OpenMP threads per group.
    pub threads: usize,
    /// Fortran compiler (Table 4: 7.1 vs 8.1).
    pub compiler: CompilerVersion,
}

impl Ins3dConfig {
    /// The paper's fixed-36-group configuration.
    pub fn table2(kind: NodeKind, threads: usize) -> Self {
        Ins3dConfig {
            kind,
            groups: 36,
            threads,
            compiler: CompilerVersion::V7_1,
        }
    }

    /// Total CPUs.
    pub fn total_cpus(&self) -> usize {
        self.groups * self.threads
    }
}

/// Seconds per physical time step (the Table 2 metric — 720 steps make
/// one inducer rotation).
pub fn iteration_seconds(cfg: &Ins3dConfig) -> f64 {
    assert!(cfg.groups >= 1 && cfg.threads >= 1);
    assert!(
        cfg.total_cpus() <= MAX_CPUS,
        "INS3D runs inside one Altix node"
    );
    let system = turbopump(1.0);
    let node = NodeModel::new(cfg.kind);
    // Zone-to-group balance (or the whole system for one group).
    let max_load = if cfg.groups == 1 {
        system.total_points()
    } else {
        group_blocks(&system, cfg.groups).max_load()
    };
    let mean_block = system.total_points() / system.len() as u64;
    let model = NodeComputeModel::new(
        node,
        cfg.compiler,
        Pinning::Pinned,
        cfg.total_cpus() as u32,
        cfg.total_cpus() as u32,
        2.0,
        false,
    );
    let phase = WorkPhase::new(
        max_load as f64 * FLOPS_PER_POINT,
        max_load as f64 * BYTES_PER_POINT,
        mean_block * HOT_BYTES_PER_POINT as u64,
        0.045,
        KernelClass::LineRelaxation,
    )
    .with_serial_fraction(SERIAL_FRACTION);
    let compute = model.seconds(&phase, cfg.threads as u32) * SUBITERS as f64;
    // MLP boundary exchange per sub-iteration: each group archives its
    // fringe into the shared arena and reads its neighbours'.
    let mlp = MlpModel::new(node);
    let fringe_bytes: u64 = system
        .blocks()
        .iter()
        .map(|b| b.fringe_points() * 4 * 8)
        .sum::<u64>()
        / cfg.groups.max(1) as u64;
    let comm = mlp.exchange(cfg.groups as u32, fringe_bytes, fringe_bytes) * SUBITERS as f64;
    compute + comm
}

/// Extension trait used by the Table 2 runner.
trait MaxLoad {
    fn max_load(&self) -> u64;
}

impl MaxLoad for columbia_overset::Grouping {
    fn max_load(&self) -> u64 {
        *self.load.iter().max().unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(kind: NodeKind, threads: usize) -> f64 {
        iteration_seconds(&Ins3dConfig::table2(kind, threads))
    }

    #[test]
    fn bx2b_is_about_50_pct_faster() {
        // Table 2: "the BX2b demonstrates approximately 50% faster
        // iteration time."
        for threads in [1usize, 4, 8] {
            let ratio = t(NodeKind::Altix3700, threads) / t(NodeKind::Bx2b, threads);
            assert!(
                (1.3..1.8).contains(&ratio),
                "threads={threads} ratio={ratio}"
            );
        }
    }

    #[test]
    fn thread_scaling_matches_table2_shape() {
        // BX2b column of Table 2: 825.2 → 508.4 → 331.8 → 287.7 →
        // 247.6 for 1, 2, 4, 8, 14 threads.
        let t1 = t(NodeKind::Bx2b, 1);
        let t2 = t(NodeKind::Bx2b, 2);
        let t8 = t(NodeKind::Bx2b, 8);
        let t14 = t(NodeKind::Bx2b, 14);
        let s2 = t1 / t2;
        let s8 = t1 / t8;
        let s14 = t1 / t14;
        assert!(
            (1.4..1.8).contains(&s2),
            "2-thread speedup {s2} (paper 1.62)"
        );
        assert!(
            (2.4..3.4).contains(&s8),
            "8-thread speedup {s8} (paper 2.87)"
        );
        assert!(
            (2.9..3.9).contains(&s14),
            "14-thread speedup {s14} (paper 3.33)"
        );
        // Decay beyond 8 threads: the 8→14 gain is small.
        assert!(s14 / s8 < 1.25, "scaling must decay beyond 8 threads");
    }

    #[test]
    fn single_group_baseline_is_much_slower() {
        let base = iteration_seconds(&Ins3dConfig {
            kind: NodeKind::Bx2b,
            groups: 1,
            threads: 1,
            compiler: CompilerVersion::V7_1,
        });
        let g36 = t(NodeKind::Bx2b, 1);
        let speedup = base / g36;
        // Table 2: 26430 / 825.2 ≈ 32x on 36 groups.
        assert!(
            (24.0..36.0).contains(&speedup),
            "36-group speedup {speedup}"
        );
    }

    #[test]
    fn compiler_difference_is_negligible() {
        // Table 4: "negligible difference in runtime per iteration".
        let v71 = iteration_seconds(&Ins3dConfig {
            compiler: CompilerVersion::V7_1,
            ..Ins3dConfig::table2(NodeKind::Bx2b, 4)
        });
        let v81 = iteration_seconds(&Ins3dConfig {
            compiler: CompilerVersion::V8_1,
            ..Ins3dConfig::table2(NodeKind::Bx2b, 4)
        });
        assert!((v71 / v81 - 1.0).abs() < 0.02, "{v71} vs {v81}");
    }

    #[test]
    fn groups_must_fit_the_node() {
        let cfg = Ins3dConfig::table2(NodeKind::Bx2b, 14);
        assert_eq!(cfg.total_cpus(), 504); // the paper's largest run
        assert!(iteration_seconds(&cfg) > 0.0);
    }

    #[test]
    #[should_panic(expected = "inside one Altix node")]
    fn oversubscription_rejected() {
        let cfg = Ins3dConfig {
            kind: NodeKind::Bx2b,
            groups: 36,
            threads: 16,
            compiler: CompilerVersion::V7_1,
        };
        iteration_seconds(&cfg);
    }
}
