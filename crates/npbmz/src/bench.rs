//! Hybrid MPI+OpenMP execution of BT-MZ and SP-MZ.
//!
//! Zones go to MPI ranks via bin-packing; each rank advances its zones
//! (OpenMP threads inside), then exchanges zone boundaries. The
//! figure runners parameterize this over process/thread combinations
//! (Fig. 9), pinning (Fig. 7), and fabrics/nodes (Fig. 11).

use columbia_kernels::grid::Grid3;
use columbia_kernels::lusgs::{lusgs_iteration, model_residual, LuSgsCoeffs};
use columbia_machine::cluster::{ClusterConfig, InterNodeFabric, NodeId};
use columbia_machine::node::NodeKind;
use columbia_npb::mg::push_halo;
use columbia_runtime::compiler::{CompilerVersion, KernelClass};
use columbia_runtime::compute::WorkPhase;
use columbia_runtime::exec::{execute_in, ExecConfig, SpecOp, WorkloadSpec};
use columbia_runtime::pinning::Pinning;
use columbia_runtime::placement::{Placement, PlacementStrategy};
use columbia_simnet::fabric::MptVersion;
use columbia_simnet::obs::RunContext;
use columbia_simnet::{FaultPlan, FaultStats, SimError};

use crate::balance::{bin_pack, Assignment};
use crate::zones::{even_zones, uneven_zones, MzClass, Zone};

/// The two multi-zone benchmarks the paper runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MzBenchmark {
    /// Uneven zones — load-balance stressor.
    BtMz,
    /// Even zones — trivially balanced at divisor rank counts.
    SpMz,
}

impl MzBenchmark {
    /// Zone decomposition for a class.
    pub fn zones(self, class: MzClass) -> Vec<Zone> {
        match self {
            MzBenchmark::BtMz => uneven_zones(class),
            MzBenchmark::SpMz => even_zones(class),
        }
    }

    /// Flops per grid point per step (published NPB operation counts;
    /// SP's scalar pentadiagonal solves are cheaper than BT's 5×5
    /// blocks).
    pub fn flops_per_point(self) -> f64 {
        match self {
            MzBenchmark::BtMz => 3200.0,
            MzBenchmark::SpMz => 1400.0,
        }
    }

    /// Memory traffic per point per step, bytes.
    pub fn bytes_per_point(self) -> f64 {
        match self {
            MzBenchmark::BtMz => 2600.0,
            MzBenchmark::SpMz => 1100.0,
        }
    }

    /// Resident bytes per point.
    pub fn resident_bytes_per_point(self) -> f64 {
        match self {
            MzBenchmark::BtMz => 500.0,
            MzBenchmark::SpMz => 320.0,
        }
    }

    /// Name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            MzBenchmark::BtMz => "BT-MZ",
            MzBenchmark::SpMz => "SP-MZ",
        }
    }
}

impl std::fmt::Display for MzBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One hybrid run configuration.
#[derive(Debug, Clone)]
pub struct MzRunConfig {
    /// Benchmark.
    pub bench: MzBenchmark,
    /// Class.
    pub class: MzClass,
    /// MPI processes.
    pub procs: usize,
    /// OpenMP threads per process.
    pub threads: usize,
    /// Node flavour.
    pub kind: NodeKind,
    /// Nodes spanned (1 = in-node).
    pub nodes: u32,
    /// Inter-node fabric for multi-node runs.
    pub inter: InterNodeFabric,
    /// MPT library version.
    pub mpt: MptVersion,
    /// Pinning discipline.
    pub pinning: Pinning,
    /// Faults active during the run ([`FaultPlan::none`] = healthy).
    pub faults: FaultPlan,
}

impl MzRunConfig {
    /// Pinned, in-node BX2b defaults.
    pub fn new(bench: MzBenchmark, class: MzClass, procs: usize, threads: usize) -> Self {
        MzRunConfig {
            bench,
            class,
            procs,
            threads,
            kind: NodeKind::Bx2b,
            nodes: 1,
            inter: InterNodeFabric::NumaLink4,
            mpt: MptVersion::Beta,
            pinning: Pinning::Pinned,
            faults: FaultPlan::none(),
        }
    }

    /// Total CPUs.
    pub fn total_cpus(&self) -> usize {
        self.procs * self.threads
    }
}

/// Steps actually simulated (rates are per-step).
const SIM_STEPS: u32 = 2;

/// Outcome of one simulated hybrid run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MzOutcome {
    /// Wall-clock seconds per step.
    pub seconds_per_step: f64,
    /// Aggregate Gflop/s over all CPUs.
    pub total_gflops: f64,
    /// Per-CPU Gflop/s (Fig. 11's top row metric).
    pub gflops_per_cpu: f64,
    /// Zone-to-rank load imbalance of the run.
    pub imbalance: f64,
    /// Fault activity observed during the run (all zeros when healthy).
    pub faults: FaultStats,
}

/// Build the per-rank workload spec for one configuration.
pub fn build_spec(cfg: &MzRunConfig) -> (WorkloadSpec, Assignment) {
    let zones = cfg.bench.zones(cfg.class);
    let assign = bin_pack(&zones, cfg.procs);
    let mut spec = WorkloadSpec::with_ranks(cfg.procs);
    let fpp = cfg.bench.flops_per_point();
    let bpp = cfg.bench.bytes_per_point();
    let rpp = cfg.bench.resident_bytes_per_point();
    for step in 0..SIM_STEPS {
        for (r, ops) in spec.ranks.iter_mut().enumerate() {
            let pts = assign.load[r] as f64;
            let phase = WorkPhase::new(
                pts * fpp,
                pts * bpp,
                (pts * rpp / cfg.threads.max(1) as f64) as u64,
                0.25,
                KernelClass::BlockSolver,
            )
            .with_serial_fraction(0.03)
            .with_remote_share(0.6);
            ops.push(SpecOp::Work(phase));
            // Boundary exchange: each rank's aggregate zone faces go to
            // its ring neighbours (zone adjacency aggregated per rank).
            let boundary: u64 = assign.zone_ids[r]
                .iter()
                .map(|&id| zones[id].face_bytes_x() + zones[id].face_bytes_y())
                .sum();
            push_halo(
                ops,
                r,
                cfg.procs,
                1,
                (boundary / 2).max(64),
                step as u64 * 10,
            );
            ops.push(SpecOp::Barrier);
        }
    }
    (spec, assign)
}

/// Execute one configuration on the simulator in `ctx`, or surface the
/// run's typed [`SimError`] diagnosis.
pub fn run(ctx: &RunContext, cfg: &MzRunConfig) -> Result<MzOutcome, SimError> {
    let cluster = ClusterConfig::uniform(cfg.kind, cfg.nodes);
    let nodes: Vec<NodeId> = (0..cfg.nodes).map(NodeId).collect();
    let placement = Placement::new(
        &cluster,
        &nodes,
        cfg.procs,
        cfg.threads,
        PlacementStrategy::Dense,
    );
    let (spec, assign) = build_spec(cfg);
    let exec_cfg = ExecConfig {
        cluster,
        nodes,
        inter: cfg.inter,
        mpt: cfg.mpt,
        placement,
        compiler: CompilerVersion::V7_1,
        pinning: cfg.pinning,
        faults: cfg.faults.clone(),
    };
    let out = execute_in(ctx, &spec, &exec_cfg)?;
    // The §4.6.2 released-MPT InfiniBand anomaly. The paper could not
    // explain it mechanistically ("we are actively working with SGI
    // engineers to find the true cause"), so we carry it as an
    // empirical multiplier: 40% at 256 CPUs, decaying as CPU count
    // grows, absent with the beta library or on NUMAlink4.
    let anomaly = if cfg.bench == MzBenchmark::SpMz
        && cfg.nodes > 1
        && cfg.inter == InterNodeFabric::InfiniBand
        && cfg.mpt == MptVersion::Released
    {
        1.0 + 0.40 * (256.0 / (cfg.total_cpus() as f64).max(256.0))
    } else {
        1.0
    };
    let seconds_per_step = out.makespan * anomaly / SIM_STEPS as f64;
    let total_flops_per_step = cfg.class.total_points() as f64 * cfg.bench.flops_per_point();
    let total_gflops = total_flops_per_step / seconds_per_step / 1.0e9;
    Ok(MzOutcome {
        seconds_per_step,
        total_gflops,
        gflops_per_cpu: total_gflops / cfg.total_cpus() as f64,
        imbalance: assign.imbalance(),
        faults: out.faults,
    })
}

/// Result of the real class-S multi-zone mini-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MzRealResult {
    /// Residual before stepping.
    pub initial_residual: f64,
    /// Residual after the steps.
    pub final_residual: f64,
    /// Largest boundary mismatch between adjacent zones after the
    /// final exchange.
    pub boundary_mismatch: f64,
}

impl MzRealResult {
    /// Verification: converging zones with consistent boundaries.
    ///
    /// The Schwarz-style boundary averaging trades per-zone convergence
    /// speed for inter-zone consistency, so the residual contracts
    /// steadily rather than geometrically.
    pub fn verified(&self) -> bool {
        self.final_residual < self.initial_residual * 0.5 && self.boundary_mismatch < 1e-12
    }
}

/// A real miniature multi-zone solve: each class-S zone relaxes a
/// diffusion operator, exchanging one-cell boundary strips with its
/// x-neighbours every step (the multi-zone structure for real).
pub fn run_real(bench: MzBenchmark) -> MzRealResult {
    let class = MzClass::S;
    let zones = bench.zones(class);
    let ((zx, _), _) = class.layout();
    let coeffs = LuSgsCoeffs {
        diag: 7.0,
        off: 1.0,
    };
    let mut fields: Vec<Grid3> = zones
        .iter()
        .map(|z| Grid3::zeros(z.ni, z.nj, z.nk))
        .collect();
    let rhss: Vec<Grid3> = zones
        .iter()
        .map(|z| {
            Grid3::from_fn(z.ni, z.nj, z.nk, |i, j, k| {
                ((i * 3 + j * 5 + k * 7 + z.id) % 11) as f64 - 5.0
            })
        })
        .collect();
    let initial: f64 = fields
        .iter()
        .zip(&rhss)
        .map(|(f, r)| model_residual(f, r, coeffs))
        .sum();
    let steps = 40;
    for _ in 0..steps {
        for (f, r) in fields.iter_mut().zip(&rhss) {
            lusgs_iteration(f, r, coeffs);
        }
        // Exchange x-boundaries: copy the neighbour's edge plane into
        // our ghost-adjacent plane (averaged, symmetric).
        for y_row in 0..zones.len() / zx {
            for x in 0..zx - 1 {
                let left = y_row * zx + x;
                let right = left + 1;
                let (zl, zr) = (zones[left], zones[right]);
                let nj = zl.nj.min(zr.nj);
                let nk = zl.nk.min(zr.nk);
                for j in 0..nj {
                    for k in 0..nk {
                        let a = fields[left].get(zl.ni - 1, j, k);
                        let b = fields[right].get(0, j, k);
                        let avg = 0.5 * (a + b);
                        fields[left].set(zl.ni - 1, j, k, avg);
                        fields[right].set(0, j, k, avg);
                    }
                }
            }
        }
    }
    let final_r: f64 = fields
        .iter()
        .zip(&rhss)
        .map(|(f, r)| model_residual(f, r, coeffs))
        .sum();
    // Boundary consistency after the final exchange.
    let mut mismatch = 0.0f64;
    for y_row in 0..zones.len() / zx {
        for x in 0..zx - 1 {
            let left = y_row * zx + x;
            let right = left + 1;
            let (zl, zr) = (zones[left], zones[right]);
            for j in 0..zl.nj.min(zr.nj) {
                for k in 0..zl.nk.min(zr.nk) {
                    mismatch = mismatch.max(
                        (fields[left].get(zl.ni - 1, j, k) - fields[right].get(0, j, k)).abs(),
                    );
                }
            }
        }
    }
    MzRealResult {
        initial_residual: initial,
        final_residual: final_r,
        boundary_mismatch: mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Healthy-machine shorthand: these figure sweeps must never fail.
    fn run(cfg: &MzRunConfig) -> MzOutcome {
        super::run(&RunContext::new(1), cfg).unwrap()
    }

    #[test]
    fn real_mini_runs_verify() {
        for bench in [MzBenchmark::BtMz, MzBenchmark::SpMz] {
            let r = run_real(bench);
            assert!(r.verified(), "{bench}: {r:?}");
        }
    }

    #[test]
    fn mpi_scales_at_fixed_threads() {
        // Fig. 9, left panel: "for a given number of OpenMP threads,
        // MPI scales very well, almost linearly up to the point where
        // load imbalancing becomes a problem."
        let g =
            |procs| run(&MzRunConfig::new(MzBenchmark::BtMz, MzClass::C, procs, 1)).total_gflops;
        let g16 = g(16);
        let g64 = g(64);
        assert!(g64 > 3.0 * g16, "g16={g16} g64={g64}");
    }

    #[test]
    fn openmp_scaling_is_limited() {
        // Fig. 9, right panel: "OpenMP performance drops quickly as the
        // number of threads increases" (beyond 2).
        let g = |threads| {
            run(&MzRunConfig::new(
                MzBenchmark::BtMz,
                MzClass::C,
                16,
                threads,
            ))
            .total_gflops
        };
        let eff8 = g(8) / (4.0 * g(2));
        assert!(eff8 < 0.9, "8-thread efficiency vs 2-thread {eff8}");
    }

    #[test]
    fn threads_rescue_btmz_load_balance_at_256() {
        // Fig. 11: BT-MZ's uneven zones need OpenMP threads for load
        // balance at high CPU counts (256 zones, class C).
        let pure = run(&MzRunConfig::new(MzBenchmark::BtMz, MzClass::C, 256, 1));
        let hybrid = run(&MzRunConfig::new(MzBenchmark::BtMz, MzClass::C, 64, 4));
        assert!(pure.imbalance > 2.0);
        assert!(hybrid.imbalance < 1.2);
        assert!(hybrid.total_gflops > pure.total_gflops);
    }

    #[test]
    fn pinning_matters_for_hybrid_runs() {
        // Fig. 7: SP-MZ class C, 128 CPUs: pinning improves hybrid
        // performance substantially; pure process mode barely moves.
        let mut pinned = MzRunConfig::new(MzBenchmark::SpMz, MzClass::C, 8, 16);
        let mut unpinned = pinned.clone();
        unpinned.pinning = Pinning::Unpinned;
        let tp = run(&pinned).seconds_per_step;
        let tu = run(&unpinned).seconds_per_step;
        assert!(tu > 1.4 * tp, "hybrid unpinned/pinned = {}", tu / tp);
        // Pure process mode.
        pinned.procs = 128;
        pinned.threads = 1;
        unpinned.procs = 128;
        unpinned.threads = 1;
        let tp1 = run(&pinned).seconds_per_step;
        let tu1 = run(&unpinned).seconds_per_step;
        assert!(
            tu1 < 1.15 * tp1,
            "process mode unpinned/pinned = {}",
            tu1 / tp1
        );
    }

    #[test]
    fn spmz_dips_at_768() {
        // Fig. 11: SP-MZ drop at 768 CPUs from load imbalance.
        let cfg = |procs| {
            let mut c = MzRunConfig::new(MzBenchmark::SpMz, MzClass::E, procs, 1);
            c.nodes = 2;
            c
        };
        let per_cpu_512 = run(&cfg(512)).gflops_per_cpu;
        let per_cpu_768 = run(&cfg(768)).gflops_per_cpu;
        assert!(
            per_cpu_768 < 0.95 * per_cpu_512,
            "768={per_cpu_768} 512={per_cpu_512}"
        );
    }

    #[test]
    fn infiniband_close_to_numalink_for_btmz() {
        // Fig. 11 bottom: "The InfiniBand results are only about 7%
        // worse" for BT-MZ (large messages, bandwidth-bound).
        let mk = |inter| {
            let mut c = MzRunConfig::new(MzBenchmark::BtMz, MzClass::E, 512, 2);
            c.nodes = 2;
            c.inter = inter;
            run(&c).total_gflops
        };
        let nl = mk(InterNodeFabric::NumaLink4);
        let ib = mk(InterNodeFabric::InfiniBand);
        let gap = nl / ib;
        assert!((1.0..1.35).contains(&gap), "gap={gap}");
    }

    #[test]
    fn released_mpt_hurts_spmz_on_ib() {
        // §4.6.2: SP-MZ over IB 40% slower with the released MPT at 256
        // CPUs; the beta closes the gap.
        let mk = |mpt| {
            let mut c = MzRunConfig::new(MzBenchmark::SpMz, MzClass::E, 256, 1);
            c.nodes = 2;
            c.inter = InterNodeFabric::InfiniBand;
            c.mpt = mpt;
            run(&c).total_gflops
        };
        let beta = mk(MptVersion::Beta);
        let released = mk(MptVersion::Released);
        assert!(beta > released * 1.05, "beta={beta} released={released}");
    }

    #[test]
    fn boot_cpuset_makes_508_beat_512() {
        // §4.6.2: 512-CPU in-node runs dropped 10-15%; 508 recovers.
        // Class D keeps the runs compute-bound so the derate is
        // visible; BT-MZ's uneven zones bin-pack evenly onto both 254
        // and 256 ranks (SP-MZ's identical zones cannot balance on
        // 254).
        let g512 = run(&MzRunConfig::new(MzBenchmark::BtMz, MzClass::D, 256, 2)).total_gflops;
        let mut c508 = MzRunConfig::new(MzBenchmark::BtMz, MzClass::D, 254, 2);
        c508.nodes = 1;
        let g508 = run(&c508).total_gflops;
        // Per-CPU, the 508 run must be better.
        assert!(g508 / 508.0 > g512 / 512.0 * 1.05);
    }
}
