//! Table 5: weak scaling of the MD code on the machine model.
//!
//! "This is a weak scaling exercise: we assign 64,000 atoms to each
//! processor … For 2040 processors, we simulated 130.56 million atoms.
//! The entire simulation was run for 100 steps. Results show almost
//! perfect scalability all the way up to 2040 processors. The
//! communication costs are insignificant for this test case."
//!
//! The spatial decomposition gives each rank a box whose six faces
//! exchange ghost-atom shells with the neighbouring boxes — entirely
//! local communication, which is why the scaling holds.

use columbia_machine::cluster::{ClusterConfig, NodeId};
use columbia_machine::node::NodeKind;
use columbia_npb::mg::push_halo;
use columbia_runtime::compiler::KernelClass;
use columbia_runtime::compute::WorkPhase;
use columbia_runtime::exec::{execute_in, ExecConfig, SpecOp, WorkloadSpec};
use columbia_runtime::placement::{Placement, PlacementStrategy};
use columbia_simnet::obs::RunContext;
use columbia_simnet::{FaultPlan, SimError};

use crate::system::neighbours_per_atom;

/// Atoms per processor in the weak-scaling exercise.
pub const ATOMS_PER_CPU: u64 = 64_000;

/// Steps the paper times.
pub const STEPS: u32 = 100;

/// Reduced density of the test case.
pub const DENSITY: f64 = 0.8;

/// One row of Table 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakScalingPoint {
    /// Processor count.
    pub cpus: u32,
    /// Atoms simulated.
    pub atoms: u64,
    /// Wall-clock seconds per step.
    pub seconds_per_step: f64,
    /// Mean communication seconds per step.
    pub comm_per_step: f64,
}

impl WeakScalingPoint {
    /// Parallel efficiency relative to a reference point.
    pub fn efficiency_vs(&self, reference: &WeakScalingPoint) -> f64 {
        reference.seconds_per_step / self.seconds_per_step
    }
}

/// Flops per atom per step: ~45 flops per pair interaction (distance,
/// LJ kernel, accumulation), halved for Newton's third law, plus the
/// integrator.
pub fn flops_per_atom() -> f64 {
    45.0 * neighbours_per_atom(DENSITY) / 2.0 + 60.0
}

/// [`weak_scaling_point_in`] the process-default context. Kept only for
/// `benchmark/probes` until ROADMAP item 3, step 3.
pub fn weak_scaling_point(cpus: u32) -> Result<WeakScalingPoint, SimError> {
    weak_scaling_point_in(&RunContext::process_default(), cpus)
}

/// Simulate one weak-scaling point in `ctx` on `cpus` processors spread
/// over as many BX2b nodes as needed (NUMAlink4, as Table 5's caption
/// says). A failed simulation surfaces as its typed [`SimError`]
/// diagnosis.
pub fn weak_scaling_point_in(ctx: &RunContext, cpus: u32) -> Result<WeakScalingPoint, SimError> {
    assert!(cpus >= 1);
    // Production runs steer clear of the boot cpuset: at most 508
    // CPUs per node (§4.6.2). Full-node 512-CPU requests still pack
    // densely and take the hit.
    let cap = if cpus.is_multiple_of(512) { 512 } else { 508 };
    let nodes_needed = cpus.div_ceil(cap).max(1);
    let cluster = ClusterConfig::uniform(NodeKind::Bx2b, nodes_needed);
    let nodes: Vec<NodeId> = (0..nodes_needed).map(NodeId).collect();
    let strategy = if cap == 512 {
        PlacementStrategy::Dense
    } else {
        PlacementStrategy::DenseCapped(cap)
    };
    let placement = Placement::new(&cluster, &nodes, cpus as usize, 1, strategy);

    // Per-rank per-step work.
    let atoms = ATOMS_PER_CPU as f64;
    let phase = WorkPhase::new(
        atoms * flops_per_atom(),
        // Neighbour scans stream position triples repeatedly; the cell
        // list keeps it to a few passes over ~27 cells per atom.
        atoms * 27.0 * 24.0,
        (atoms * 6.0 * 8.0) as u64,
        0.20,
        KernelClass::ParticleForce,
    );
    // Ghost shell: atoms within one cutoff of a face. Box edge for
    // 64,000 atoms at ρ=0.8 is (64000/0.8)^(1/3) ≈ 43σ; a face shell
    // of depth 5σ holds ~ 43²·5·0.8 ≈ 7,400 atoms, 24 bytes each.
    let side = (atoms / DENSITY).cbrt();
    let shell_atoms = side * side * crate::system::CUTOFF * DENSITY;
    let ghost_bytes = (shell_atoms * 24.0) as u64;

    let np = cpus as usize;
    let mut spec = WorkloadSpec::with_ranks(np);
    const SIM_STEPS: u32 = 2;
    // Neighbour distances in the 3-D process grid.
    let px = (np as f64).cbrt().round().max(1.0) as usize;
    for step in 0..SIM_STEPS {
        for (r, ops) in spec.ranks.iter_mut().enumerate() {
            ops.push(SpecOp::Work(phase));
            if np >= 2 {
                for (axis, d) in [1usize, px, (px * px).max(1)].into_iter().enumerate() {
                    push_halo(
                        ops,
                        r,
                        np,
                        d.min(np - 1).max(1),
                        ghost_bytes,
                        step as u64 * 100 + axis as u64 * 10,
                    );
                }
            }
        }
    }
    let cfg = ExecConfig {
        cluster,
        nodes,
        inter: columbia_machine::cluster::InterNodeFabric::NumaLink4,
        mpt: columbia_simnet::fabric::MptVersion::Beta,
        placement,
        compiler: columbia_runtime::compiler::CompilerVersion::V7_1,
        pinning: columbia_runtime::pinning::Pinning::Pinned,
        faults: FaultPlan::none(),
    };
    let out = execute_in(ctx, &spec, &cfg)?;
    Ok(WeakScalingPoint {
        cpus,
        atoms: ATOMS_PER_CPU * cpus as u64,
        seconds_per_step: out.makespan / SIM_STEPS as f64,
        comm_per_step: out.mean_comm() / SIM_STEPS as f64,
    })
}

/// The processor counts Table 5 reports (508 rather than 512 in a
/// node: full-node runs overlap the boot cpuset, §4.6.2).
pub const TABLE5_CPUS: [u32; 7] = [1, 8, 64, 256, 508, 1008, 2040];

#[cfg(test)]
mod tests {
    use super::*;

    /// Healthy-machine shorthand: these sweeps must never fail.
    fn weak_scaling_point(cpus: u32) -> WeakScalingPoint {
        super::weak_scaling_point_in(&RunContext::new(1), cpus).unwrap()
    }

    #[test]
    fn atom_counts_match_paper() {
        let p = weak_scaling_point(2040);
        assert_eq!(p.atoms, 130_560_000, "130.56 million atoms at 2040 CPUs");
    }

    #[test]
    fn weak_scaling_is_nearly_perfect() {
        let base = weak_scaling_point(1);
        for cpus in [64, 508, 2040] {
            let p = weak_scaling_point(cpus);
            let eff = p.efficiency_vs(&base);
            assert!(eff > 0.93, "cpus={cpus} efficiency={eff}");
        }
    }

    #[test]
    fn full_node_512_dips_from_the_boot_cpuset() {
        // A dense 512-CPU allocation overlaps the CPUs reserved for
        // system software (§4.6.2) — the reason the sweep uses 508.
        let full = weak_scaling_point(512);
        let spared = weak_scaling_point(508);
        assert!(full.seconds_per_step > 1.05 * spared.seconds_per_step);
    }

    #[test]
    fn communication_is_insignificant() {
        let p = weak_scaling_point(256);
        assert!(
            p.comm_per_step < 0.05 * p.seconds_per_step,
            "comm={} total={}",
            p.comm_per_step,
            p.seconds_per_step
        );
    }

    #[test]
    fn step_time_is_order_hundreds_of_ms() {
        // 64,000 atoms × ~9,500 flops at ~1 Gflop/s sustained.
        let p = weak_scaling_point(1);
        assert!(
            (0.05..5.0).contains(&p.seconds_per_step),
            "sec/step={}",
            p.seconds_per_step
        );
    }

    #[test]
    fn multi_node_counts_span_nodes() {
        // 1008 and 2040 CPUs require 2 and 4 Altix nodes.
        let p = weak_scaling_point(1008);
        assert!(p.seconds_per_step > 0.0);
        let q = weak_scaling_point(2040);
        assert!(q.seconds_per_step < 1.1 * p.seconds_per_step);
    }
}
