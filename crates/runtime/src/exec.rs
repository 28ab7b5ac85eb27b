//! The executor: cost a [`WorkloadSpec`] and run it through the
//! discrete-event engine.
//!
//! Workload crates (NPB, NPB-MZ, MD, the CFD applications) describe
//! each benchmark as per-rank programs of [`SpecOp`]s — compute phases
//! plus communication. The executor resolves every compute phase to
//! seconds using the [`NodeComputeModel`] for the rank's node (its
//! thread team, placement sharers, compiler, pinning), then hands the
//! resulting [`Op`] programs to [`simulate`] on the configured fabric,
//! at the process-wide thread count [`columbia_simnet::sim_threads`]
//! (`repro --sim-threads`).

use columbia_machine::cluster::{ClusterConfig, InterNodeFabric, NodeId};
use columbia_obs::{sink, NullTracer, RecordingTracer, Tracer};
use columbia_simnet::engine::{simulate, Op, SimOutcome};
use columbia_simnet::fabric::{CachedFabric, ClusterFabric, MptVersion};
use columbia_simnet::fault::{
    ConnectionLimit, ConnectionPolicy, FaultPlan, DEFAULT_MULTIPLEX_QUEUE_PENALTY,
};
use columbia_simnet::SimError;

use crate::compiler::CompilerVersion;
use crate::compute::{NodeComputeModel, WorkPhase};
use crate::pinning::Pinning;
use crate::placement::Placement;

/// One instruction of a rank's *workload-level* program.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecOp {
    /// A compute phase, costed by the machine model at execution time.
    Work(WorkPhase),
    /// Point-to-point send.
    Send {
        /// Destination rank.
        to: usize,
        /// Payload size in bytes.
        bytes: u64,
        /// Match tag.
        tag: u64,
    },
    /// Blocking receive.
    Recv {
        /// Source rank.
        from: usize,
        /// Match tag.
        tag: u64,
    },
    /// Pairwise halo exchange.
    Exchange {
        /// Partner rank.
        with: usize,
        /// Bytes each way.
        bytes: u64,
        /// Match tag.
        tag: u64,
    },
    /// Barrier over all ranks.
    Barrier,
    /// Allreduce of `bytes` per rank.
    AllReduce {
        /// Contribution size in bytes.
        bytes: u64,
    },
    /// All-to-all of `bytes_per_pair` between every ordered pair.
    AllToAll {
        /// Per-pair payload in bytes.
        bytes_per_pair: u64,
    },
    /// Broadcast from `root`.
    Bcast {
        /// Broadcasting rank.
        root: usize,
        /// Payload in bytes.
        bytes: u64,
    },
}

/// Per-rank programs for a whole benchmark run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSpec {
    /// One program per MPI rank (or MLP group).
    pub ranks: Vec<Vec<SpecOp>>,
}

impl WorkloadSpec {
    /// A spec with `n` empty rank programs.
    pub fn with_ranks(n: usize) -> Self {
        WorkloadSpec {
            ranks: vec![Vec::new(); n],
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Total op count across ranks (diagnostics).
    pub fn total_ops(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }
}

/// Everything needed to execute a spec on the simulated machine.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Cluster composition.
    pub cluster: ClusterConfig,
    /// Nodes the run spans.
    pub nodes: Vec<NodeId>,
    /// Inter-node fabric (ignored for single-node runs).
    pub inter: InterNodeFabric,
    /// MPT runtime version.
    pub mpt: MptVersion,
    /// Rank/thread placement.
    pub placement: Placement,
    /// Compiler the binaries were built with.
    pub compiler: CompilerVersion,
    /// Pinning discipline.
    pub pinning: Pinning,
    /// Faults active during the run (drops, link/CPU degradation,
    /// connection limits); [`FaultPlan::none`] for a healthy machine.
    pub faults: FaultPlan,
}

impl ExecConfig {
    /// Baseline single-node config: dense placement, pinned, compiler
    /// 7.1 — the defaults used for most of the paper's measurements.
    pub fn single_node(cluster: ClusterConfig, node: NodeId, ranks: usize, threads: usize) -> Self {
        let placement = Placement::single_node(
            &cluster,
            node,
            ranks,
            threads,
            crate::placement::PlacementStrategy::Dense,
        );
        ExecConfig {
            cluster,
            nodes: vec![node],
            inter: InterNodeFabric::NumaLink4,
            mpt: MptVersion::Beta,
            placement,
            compiler: CompilerVersion::V7_1,
            pinning: Pinning::Pinned,
            faults: FaultPlan::none(),
        }
    }

    /// Total worker CPUs (the paper's "number of CPUs").
    pub fn total_cpus(&self) -> usize {
        self.placement.total_cpus()
    }

    /// The fabric implied by this configuration.
    pub fn fabric(&self) -> ClusterFabric {
        ClusterFabric::new(
            self.cluster.clone(),
            self.inter,
            self.mpt,
            self.total_cpus() as u32,
        )
    }

    /// The compute model for one rank.
    fn model_for_rank(&self, rank: usize) -> NodeComputeModel {
        let home = self.placement.rank_cpu(rank);
        let node = self.cluster.node_model(home.node);
        let units = self.total_cpus() as u32;
        let pool = 512u32.min(units.max(2));
        NodeComputeModel::new(
            node,
            self.compiler,
            self.pinning,
            units,
            pool,
            self.placement.mean_bus_sharers,
            self.placement.boot_cpuset_overlap,
        )
    }

    /// The fault plan to simulate under: the configured plan, with the
    /// paper's §2 InfiniBand connection limit filled in automatically
    /// for multi-node IB runs that did not set one. The default policy
    /// multiplexes (graceful degradation) rather than failing, matching
    /// how MPT actually behaves when contexts run short.
    fn effective_faults(&self) -> FaultPlan {
        let mut plan = self.faults.clone();
        if plan.connection_limit.is_none()
            && self.inter == InterNodeFabric::InfiniBand
            && self.nodes.len() > 1
        {
            plan.connection_limit = Some(ConnectionLimit {
                cards_per_node: self.cluster.ib_cards_per_node,
                connections_per_card: self.cluster.ib_connections_per_card,
                policy: ConnectionPolicy::Multiplex {
                    queue_penalty: DEFAULT_MULTIPLEX_QUEUE_PENALTY,
                },
            });
        }
        plan
    }
}

/// Execute `spec` under `cfg`, returning per-rank timelines.
///
/// Every failure mode is a typed [`SimError`]: a spec whose rank count
/// disagrees with the placement is a [`SimError::PlacementMismatch`], a
/// malformed workload that deadlocks comes back as
/// [`SimError::Deadlock`] with per-rank diagnostics, ranks that disagree
/// on a collective as [`SimError::CollectiveMismatch`], and fault plans
/// can surface [`SimError::ConnectionsExhausted`] or
/// [`SimError::WatchdogTimeout`].
pub fn execute(spec: &WorkloadSpec, cfg: &ExecConfig) -> Result<SimOutcome, SimError> {
    if !sink::is_active() {
        return execute_traced(spec, cfg, &mut NullTracer);
    }
    // A collector is installed (`repro --trace/--metrics`): record the
    // run and deposit the bundle — even on error, so a deadlocked or
    // watchdog-killed run still leaves its partial timeline behind.
    let mut tracer = RecordingTracer::new();
    let result = execute_traced(spec, cfg, &mut tracer);
    let label = format!(
        "{} ranks x {} threads on {} node(s)",
        cfg.placement.ranks(),
        cfg.placement.threads(),
        cfg.nodes.len()
    );
    sink::record(tracer.into_bundle(label));
    result
}

/// Execute `spec` under `cfg`, reporting every span of virtual time to
/// `tracer`.
///
/// This is [`execute`] with the observer made explicit: pass
/// [`NullTracer`] for the zero-overhead path (what `execute` does when
/// no trace sink is installed) or a [`RecordingTracer`] to capture
/// per-rank timelines, fabric counters, and a
/// [`CommProfile`](columbia_obs::CommProfile).
pub fn execute_traced<T: Tracer>(
    spec: &WorkloadSpec,
    cfg: &ExecConfig,
    tracer: &mut T,
) -> Result<SimOutcome, SimError> {
    if spec.nranks() != cfg.placement.ranks() {
        return Err(SimError::PlacementMismatch {
            programs: spec.nranks(),
            placements: cfg.placement.ranks(),
        });
    }
    let threads = cfg.placement.threads() as u32;
    let programs: Vec<Vec<Op>> = spec
        .ranks
        .iter()
        .enumerate()
        .map(|(r, ops)| {
            let model = cfg.model_for_rank(r);
            ops.iter()
                .map(|op| match op {
                    SpecOp::Work(phase) => Op::Compute(model.seconds(phase, threads)),
                    SpecOp::Send { to, bytes, tag } => Op::Send {
                        to: *to,
                        bytes: *bytes,
                        tag: *tag,
                    },
                    SpecOp::Recv { from, tag } => Op::Recv {
                        from: *from,
                        tag: *tag,
                    },
                    SpecOp::Exchange { with, bytes, tag } => Op::Exchange {
                        with: *with,
                        bytes: *bytes,
                        tag: *tag,
                    },
                    SpecOp::Barrier => Op::Barrier,
                    SpecOp::AllReduce { bytes } => Op::AllReduce { bytes: *bytes },
                    SpecOp::AllToAll { bytes_per_pair } => Op::AllToAll {
                        bytes_per_pair: *bytes_per_pair,
                    },
                    SpecOp::Bcast { root, bytes } => Op::Bcast {
                        root: *root,
                        bytes: *bytes,
                    },
                })
                .collect()
        })
        .collect();
    // Precompute the pair-class cost tables: bit-identical to the
    // uncached fabric (property-tested in simnet), just without the
    // per-message topology walk.
    let fabric = CachedFabric::new(cfg.fabric());
    let plan = cfg.effective_faults();
    simulate(
        programs.as_slice(),
        &cfg.placement.rank_cpus(),
        &fabric,
        &plan,
        tracer,
        columbia_simnet::sim_threads(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::KernelClass;
    use columbia_machine::node::NodeKind;

    fn phase() -> WorkPhase {
        WorkPhase::new(1.0e9, 1.0e8, 1 << 20, 0.2, KernelClass::BlockSolver)
    }

    fn cfg(ranks: usize, threads: usize) -> ExecConfig {
        ExecConfig::single_node(
            ClusterConfig::uniform(NodeKind::Bx2b, 1),
            NodeId(0),
            ranks,
            threads,
        )
    }

    #[test]
    fn compute_only_spec_runs() {
        let mut spec = WorkloadSpec::with_ranks(4);
        for r in &mut spec.ranks {
            r.push(SpecOp::Work(phase()));
        }
        let out = execute(&spec, &cfg(4, 1)).unwrap();
        assert_eq!(out.ranks.len(), 4);
        assert!(out.makespan > 0.0);
        // Identical work ⇒ near-identical finish times.
        let t0 = out.ranks[0].total;
        for r in &out.ranks {
            assert!((r.total - t0).abs() < 1e-12);
        }
    }

    #[test]
    fn more_ranks_less_time_per_rank_workload() {
        // Strong scaling: same total work split across ranks.
        let total_flops = 4.0e10;
        let run = |n: usize| {
            let mut spec = WorkloadSpec::with_ranks(n);
            for r in &mut spec.ranks {
                let mut p = phase();
                p.flops = total_flops / n as f64;
                p.mem_bytes = 0.0;
                r.push(SpecOp::Work(p));
                r.push(SpecOp::Barrier);
            }
            execute(&spec, &cfg(n, 1)).unwrap().makespan
        };
        let t8 = run(8);
        let t32 = run(32);
        assert!(t32 < t8 / 2.0, "t8={t8} t32={t32}");
    }

    #[test]
    fn exchange_ring_executes() {
        let n = 16;
        let mut spec = WorkloadSpec::with_ranks(n);
        for (r, prog) in spec.ranks.iter_mut().enumerate() {
            let partner = r ^ 1; // pairwise neighbours
            prog.push(SpecOp::Work(phase()));
            prog.push(SpecOp::Exchange {
                with: partner,
                bytes: 65536,
                tag: (r.min(partner)) as u64,
            });
        }
        let out = execute(&spec, &cfg(n, 1)).unwrap();
        assert!(out.ranks.iter().all(|r| r.comm > 0.0));
    }

    #[test]
    fn hybrid_threads_speed_up_work() {
        let mut spec = WorkloadSpec::with_ranks(4);
        for r in &mut spec.ranks {
            r.push(SpecOp::Work(phase()));
        }
        let t1 = execute(&spec, &cfg(4, 1)).unwrap().makespan;
        let t4 = execute(&spec, &cfg(4, 4)).unwrap().makespan;
        assert!(t4 < t1, "t1={t1} t4={t4}");
        assert!(t4 > t1 / 4.0, "thread scaling can't be super-linear here");
    }

    #[test]
    fn rank_mismatch_is_a_typed_error() {
        let spec = WorkloadSpec::with_ranks(3);
        let err = execute(&spec, &cfg(4, 1)).unwrap_err();
        assert_eq!(
            err,
            SimError::PlacementMismatch {
                programs: 3,
                placements: 4
            }
        );
    }

    #[test]
    fn deadlock_is_reported_with_diagnosis() {
        let mut spec = WorkloadSpec::with_ranks(2);
        spec.ranks[0].push(SpecOp::Recv { from: 1, tag: 0 });
        spec.ranks[1].push(SpecOp::Recv { from: 0, tag: 0 });
        let err = execute(&spec, &cfg(2, 1)).unwrap_err();
        assert_eq!(err.stuck_ranks(), vec![0, 1]);
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn fault_plan_inflates_makespan() {
        let mk = |plan: FaultPlan| {
            let n = 8;
            let mut spec = WorkloadSpec::with_ranks(n);
            for (r, prog) in spec.ranks.iter_mut().enumerate() {
                prog.push(SpecOp::Work(phase()));
                prog.push(SpecOp::Send {
                    to: (r + 1) % n,
                    bytes: 65536,
                    tag: 1,
                });
                prog.push(SpecOp::Recv {
                    from: (r + n - 1) % n,
                    tag: 1,
                });
            }
            let mut c = cfg(n, 1);
            c.faults = plan;
            execute(&spec, &c).unwrap()
        };
        let clean = mk(FaultPlan::none());
        let faulted = mk(FaultPlan::with_drops(3, 0.5));
        assert!(faulted.makespan >= clean.makespan);
        assert!(faulted.faults.dropped_messages > 0);
        assert!(!clean.faults.any());
    }
}
