//! Tables 3, 4, and 6: OVERFLOW-D on the rotor-wake system.
//!
//! The experiment: 1,679 blocks, ~75 million points, hybrid
//! MPI+OpenMP. Table 3 compares communication and execution time per
//! step on the 3700 and BX2b for 8–508 CPUs; Table 6 repeats the
//! multi-node runs over NUMAlink4 and InfiniBand; Table 4 compares
//! compilers 7.1 and 8.1 (on the 3700). Behaviours the model carries:
//!
//! * BX2b ~2× faster on average, ~3× at 508 CPUs (clock + 9 MB L3 on
//!   the per-block hot set + doubled exchange bandwidth);
//! * 3700 scaling flattens past 256 CPUs: with 508 processes and 1,679
//!   blocks no grouping balances, per-rank work shrinks to ~150k
//!   points, and the comm/exec ratio climbs from ~0.3 to >0.5;
//! * a per-step serial cost (grid-loop bookkeeping + the §4.6.4 I/O on
//!   a shared-filesystem-less cluster) that caps scalability;
//! * NUMAlink4 totals ~10% better than InfiniBand across nodes, while
//!   *reported* comm is slightly lower on IB (card offload shifts the
//!   wait out of the MPI timers — the paper's paradoxical reversal).

use std::sync::LazyLock;

use columbia_machine::cluster::{ClusterConfig, InterNodeFabric, NodeId};
use columbia_machine::node::{NodeKind, NodeModel};
use columbia_overset::systems::rotor_wake;
use columbia_overset::{group_blocks, GridSystem};
use columbia_runtime::compiler::{CompilerVersion, KernelClass};
use columbia_runtime::compute::WorkPhase;
use columbia_runtime::exec::{execute, ExecConfig, SpecOp, WorkloadSpec};
use columbia_runtime::pinning::Pinning;
use columbia_runtime::placement::{Placement, PlacementStrategy};
use columbia_simnet::fabric::MptVersion;
use columbia_simnet::{FaultPlan, SimError};

/// Flops per point per step (RHS + pipelined LU-SGS sweeps).
pub const FLOPS_PER_POINT: f64 = 1500.0;

/// Memory traffic per point per step, bytes.
pub const BYTES_PER_POINT: f64 = 1200.0;

/// Hot working set of the pipelined LU-SGS sweep: a few active
/// hyperplanes of the current block plus Jacobian scratch — roughly
/// block-size independent at ~7 MB, which lands between the 6 MB L3 of
/// the 3700/BX2a and the 9 MB of the BX2b (the §4.1.4 attribution of
/// the BX2b's computation-time reduction).
pub const HOT_WORKING_SET: u64 = 7 << 20;

/// Inter-group boundary traffic per step: the aggregated overset
/// fringe, ~5 variables × 8 bytes × fringe points.
pub const BOUNDARY_BYTES_PER_FRINGE_POINT: f64 = 40.0;

/// Per-step serial seconds on a 1.5 GHz part: grid-loop bookkeeping,
/// connectivity updates, and the §4.6.4 I/O activity. Scales inversely
/// with clock/cache like the rest of the serial code.
pub const STEP_SERIAL_SECONDS_3700: f64 = 0.30;

/// The full-scale rotor-wake system, built and connected once per
/// process and shared by every [`step_times`] call. It is a constant:
/// immutable and deterministic, not run configuration or captured
/// telemetry, which stay out of statics.
pub static ROTOR_WAKE: LazyLock<GridSystem> = LazyLock::new(|| rotor_wake(1.0));

/// One run configuration.
#[derive(Debug, Clone, Copy)]
pub struct OverflowConfig {
    /// Node flavour.
    pub kind: NodeKind,
    /// MPI processes (groups).
    pub procs: usize,
    /// OpenMP threads per process.
    pub threads: usize,
    /// Nodes spanned.
    pub nodes: u32,
    /// Inter-node fabric.
    pub inter: InterNodeFabric,
    /// Compiler.
    pub compiler: CompilerVersion,
}

impl OverflowConfig {
    /// Single-node pinned run (Table 3's columns).
    pub fn table3(kind: NodeKind, cpus: usize) -> Self {
        OverflowConfig {
            kind,
            procs: cpus,
            threads: 1,
            nodes: 1,
            inter: InterNodeFabric::NumaLink4,
            compiler: CompilerVersion::V8_1,
        }
    }

    /// Total CPUs.
    pub fn total_cpus(&self) -> usize {
        self.procs * self.threads
    }
}

/// Per-step times, split as the paper's tables report them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTimes {
    /// Communication seconds per step (as the MPI timers report).
    pub comm: f64,
    /// Total execution seconds per step.
    pub exec: f64,
}

impl StepTimes {
    /// The comm/exec ratio the paper uses to diagnose the 3700's
    /// flattening (§4.1.4).
    pub fn comm_ratio(&self) -> f64 {
        self.comm / self.exec
    }
}

fn spec_for(system: &GridSystem, cfg: &OverflowConfig) -> WorkloadSpec {
    let grouping = group_blocks(system, cfg.procs);
    let total_fringe: u64 = system.blocks().iter().map(|b| b.fringe_points()).sum();
    let boundary_total = total_fringe as f64 * BOUNDARY_BYTES_PER_FRINGE_POINT;
    let bytes_per_pair = ((boundary_total / (cfg.procs * cfg.procs.max(2)) as f64) as u64).max(64);
    // The serial per-step cost, expressed as flops so clock, cache and
    // compiler treatment apply to it too.
    let serial_flops = STEP_SERIAL_SECONDS_3700 * 6.0e9 * 0.045;
    let mut spec = WorkloadSpec::with_ranks(cfg.procs);
    const SIM_STEPS: u32 = 2;
    for _ in 0..SIM_STEPS {
        for (r, ops) in spec.ranks.iter_mut().enumerate() {
            let pts = grouping.load[r] as f64;
            let phase = WorkPhase::new(
                pts * FLOPS_PER_POINT + serial_flops,
                pts * BYTES_PER_POINT,
                HOT_WORKING_SET,
                0.045,
                KernelClass::LuSgs,
            )
            .with_serial_fraction(0.06)
            .with_remote_share(0.5);
            ops.push(SpecOp::Work(phase));
            // Inter-group boundary exchange: all-to-all pattern every
            // step (§4.1.4).
            if cfg.procs >= 2 {
                ops.push(SpecOp::AllToAll { bytes_per_pair });
            }
        }
    }
    spec
}

/// How [`step_times`] places `cpus` CPUs (processes × threads) on
/// `nodes` nodes of `kind`: packed densely and spread evenly over the
/// nodes (the paper's Table 6 layout), at most 508 per node so the boot
/// cpuset stays free, unless `cpus` is a multiple of 512, which takes
/// whole nodes. `Err(per_node)` when the CPUs do not fit the nodes at
/// the `per_node` CPUs each that this allows.
pub fn placement_strategy(
    kind: NodeKind,
    cpus: usize,
    nodes: u32,
) -> Result<PlacementStrategy, u32> {
    let (strategy, cap) = if cpus.is_multiple_of(512) {
        (PlacementStrategy::Dense, 512)
    } else {
        let spread = (cpus as u64)
            .div_ceil(u64::from(nodes.max(1)))
            .clamp(1, 508) as u32;
        (PlacementStrategy::DenseCapped(spread), spread)
    };
    let per_node = cap.min(NodeModel::new(kind).cpus);
    if cpus as u64 <= u64::from(per_node) * u64::from(nodes) {
        Ok(strategy)
    } else {
        Err(per_node)
    }
}

/// Simulate one configuration, returning per-step times or the typed
/// [`SimError`] a failed run diagnoses itself with.
pub fn step_times(cfg: &OverflowConfig) -> Result<StepTimes, SimError> {
    assert!(cfg.procs >= 1 && cfg.threads >= 1 && cfg.nodes >= 1);
    let system = &*ROTOR_WAKE;
    assert!(
        cfg.procs <= system.len(),
        "more MPI processes than blocks cannot be grouped"
    );
    let strategy =
        placement_strategy(cfg.kind, cfg.total_cpus(), cfg.nodes).unwrap_or_else(|per_node| {
            panic!(
                "{} CPUs do not fit {} nodes at {per_node} CPUs per node",
                cfg.total_cpus(),
                cfg.nodes
            )
        });
    let cluster = ClusterConfig::uniform(cfg.kind, cfg.nodes);
    let nodes: Vec<NodeId> = (0..cfg.nodes).map(NodeId).collect();
    let placement = Placement::new(&cluster, &nodes, cfg.procs, cfg.threads, strategy);
    let spec = spec_for(system, cfg);
    let exec_cfg = ExecConfig {
        cluster,
        nodes,
        inter: cfg.inter,
        mpt: MptVersion::Beta,
        placement,
        compiler: cfg.compiler,
        pinning: Pinning::Pinned,
        faults: FaultPlan::none(),
    };
    let out = execute(&spec, &exec_cfg)?;
    const SIM_STEPS: f64 = 2.0;
    let mut comm = out.mean_comm() / SIM_STEPS;
    let exec = out.makespan / SIM_STEPS;
    // Table 6's reversal: the InfiniBand cards run the transfer engine,
    // so the in-application MPI timers attribute less of the wait to
    // "communication" even though the wall clock is longer.
    if cfg.nodes > 1 && cfg.inter == InterNodeFabric::InfiniBand {
        comm *= 0.80;
    }
    Ok(StepTimes { comm, exec })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Healthy-machine shorthand: these table sweeps must never fail.
    fn step_times(cfg: &OverflowConfig) -> StepTimes {
        super::step_times(cfg).unwrap()
    }

    fn t3(kind: NodeKind, cpus: usize) -> StepTimes {
        step_times(&OverflowConfig::table3(kind, cpus))
    }

    #[test]
    fn bx2b_about_2x_faster_on_average() {
        // Table 3: "On average, OVERFLOW-D runs almost 2x faster on the
        // BX2b than the 3700."
        let mut ratios = Vec::new();
        for cpus in [32usize, 64, 128, 256] {
            let r = t3(NodeKind::Altix3700, cpus).exec / t3(NodeKind::Bx2b, cpus).exec;
            ratios.push(r);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((1.5..2.6).contains(&mean), "mean ratio {mean} ({ratios:?})");
    }

    #[test]
    fn bx2b_gap_grows_at_508() {
        // Table 3: "more than a factor of 3x on 508 CPUs" — comm and
        // the serial tail weigh more, and BX2b shrinks both.
        let gap508 = t3(NodeKind::Altix3700, 508).exec / t3(NodeKind::Bx2b, 508).exec;
        let gap64 = t3(NodeKind::Altix3700, 64).exec / t3(NodeKind::Bx2b, 64).exec;
        assert!(gap508 > gap64, "gap should grow: 64→{gap64}, 508→{gap508}");
    }

    #[test]
    fn comm_ratio_climbs_on_the_3700() {
        // §4.1.4: comm/exec ≈ 0.3 at 256 CPUs, > 0.5 at 508.
        let r256 = t3(NodeKind::Altix3700, 256).comm_ratio();
        let r508 = t3(NodeKind::Altix3700, 508).comm_ratio();
        assert!(r508 > r256, "ratio must climb: {r256} → {r508}");
        assert!(r256 > 0.1 && r256 < 0.55, "r256={r256}");
        assert!(r508 > 0.3, "r508={r508}");
    }

    #[test]
    fn scaling_flattens_beyond_256_on_3700() {
        // Table 3: "reasonably good up to 64 processors, but flattens
        // beyond 256."
        let e64 = t3(NodeKind::Altix3700, 64).exec;
        let e256 = t3(NodeKind::Altix3700, 256).exec;
        let e508 = t3(NodeKind::Altix3700, 508).exec;
        // 64→256: still gains meaningfully.
        assert!(e256 < 0.7 * e64, "e64={e64} e256={e256}");
        // 256→508: barely gains (flattened).
        assert!(e508 > 0.7 * e256, "e256={e256} e508={e508}");
    }

    #[test]
    fn communication_reduced_by_more_than_half_on_bx2b() {
        // Table 3: "the communication time is also reduced by more than
        // 50%."
        let c3700 = t3(NodeKind::Altix3700, 256).comm;
        let cbx2b = t3(NodeKind::Bx2b, 256).comm;
        // The paper reports "more than 50%"; the model lands at 40-55%
        // (waits shrink with the 1.6x compute gain, transfers with the
        // doubled link bandwidth).
        assert!(cbx2b < 0.7 * c3700, "3700={c3700} bx2b={cbx2b}");
    }

    #[test]
    fn compiler_71_wins_below_64_procs_only() {
        // Table 4: 7.1 better by 20-40% under 64 processors, identical
        // above.
        let mk = |compiler, procs| {
            step_times(&OverflowConfig {
                compiler,
                ..OverflowConfig::table3(NodeKind::Altix3700, procs)
            })
            .exec
        };
        let small = mk(CompilerVersion::V8_1, 32) / mk(CompilerVersion::V7_1, 32);
        assert!(small > 1.15, "7.1 advantage at 32 procs: {small}");
        let large = mk(CompilerVersion::V8_1, 128) / mk(CompilerVersion::V7_1, 128);
        assert!((large - 1.0).abs() < 0.05, "no advantage at 128: {large}");
    }

    #[test]
    fn numalink_totals_beat_infiniband_but_comm_reverses() {
        // Table 6: "total execution times obtained via NUMAlink4 are
        // generally about 10% better; however, the reverse appears to
        // be true for the communication times."
        let mk = |inter| {
            step_times(&OverflowConfig {
                kind: NodeKind::Bx2b,
                procs: 508,
                threads: 1,
                nodes: 2,
                inter,
                compiler: CompilerVersion::V8_1,
            })
        };
        let nl = mk(InterNodeFabric::NumaLink4);
        let ib = mk(InterNodeFabric::InfiniBand);
        assert!(
            ib.exec > nl.exec,
            "NL4 total must win: {} vs {}",
            nl.exec,
            ib.exec
        );
        assert!(ib.exec < 1.6 * nl.exec, "but not by a large factor");
        assert!(
            ib.comm < nl.comm,
            "reported comm reverses: {} vs {}",
            ib.comm,
            nl.comm
        );
    }

    #[test]
    fn multinode_distribution_does_not_hurt() {
        // Table 6: "We did not find any pronounced increase in the
        // execution ... for the same total number of processors when
        // distributed across multiple nodes."
        let one = step_times(&OverflowConfig {
            kind: NodeKind::Bx2b,
            procs: 256,
            threads: 1,
            nodes: 1,
            inter: InterNodeFabric::NumaLink4,
            compiler: CompilerVersion::V8_1,
        });
        let two = step_times(&OverflowConfig {
            kind: NodeKind::Bx2b,
            procs: 256,
            threads: 1,
            nodes: 2,
            inter: InterNodeFabric::NumaLink4,
            compiler: CompilerVersion::V8_1,
        });
        assert!(
            two.exec < 1.25 * one.exec,
            "one={} two={}",
            one.exec,
            two.exec
        );
    }

    #[test]
    #[should_panic(expected = "more MPI processes than blocks")]
    fn procs_capped_by_block_count() {
        let _ = step_times(&OverflowConfig::table3(NodeKind::Bx2b, 1700));
    }

    #[test]
    fn placement_leaves_the_boot_cpuset_free_unless_whole_nodes_are_asked() {
        use PlacementStrategy::{Dense, DenseCapped};
        let kind = NodeKind::Bx2b;
        assert_eq!(placement_strategy(kind, 508, 1), Ok(DenseCapped(508)));
        assert_eq!(placement_strategy(kind, 509, 1), Err(508));
        assert_eq!(placement_strategy(kind, 512, 1), Ok(Dense));
        assert_eq!(placement_strategy(kind, 1016, 1), Err(508));
        assert_eq!(placement_strategy(kind, 1016, 2), Ok(DenseCapped(508)));
        assert_eq!(placement_strategy(kind, 1024, 1), Err(512));
        assert_eq!(placement_strategy(kind, 1024, 2), Ok(Dense));
        assert_eq!(placement_strategy(kind, 384, 3), Ok(DenseCapped(128)));
    }
}
