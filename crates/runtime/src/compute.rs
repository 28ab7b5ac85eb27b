//! Roofline + Amdahl cost model for one rank's compute phase.
//!
//! A [`WorkPhase`] describes what a rank does between communications:
//! how many flops it retires, how many bytes it moves from memory, how
//! big its per-worker working set is (cache residency), what fraction
//! of peak its inner loops can reach, and how much of it cannot be
//! multi-threaded. [`NodeComputeModel`] turns that into seconds on a
//! given node flavour for a given OpenMP team, composing:
//!
//! * the processor's peak and the workload's efficiency (× the
//!   compiler's code-generation factor, §4.4);
//! * memory bandwidth derated by bus sharing (§4.2) and boosted by
//!   cache residency — the BX2b's 9 MB L3 shows up here (Fig. 6);
//! * the pinning penalty on memory accesses (§4.3);
//! * Amdahl serial fraction + fork-join overhead for the thread team
//!   (Fig. 9: OpenMP scaling is "very limited");
//! * the boot-cpuset derate for full 512-CPU runs (§4.6.2).

use columbia_machine::calib;
use columbia_machine::memory::{MemoryModel, StreamOp};
use columbia_machine::node::NodeModel;

use crate::compiler::{CompilerVersion, KernelClass};
use crate::pinning::Pinning;

/// One compute phase of one rank (totals across its thread team).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkPhase {
    /// Floating-point operations retired in the phase.
    pub flops: f64,
    /// Bytes moved between memory and the cache hierarchy.
    pub mem_bytes: f64,
    /// Per-worker resident working set in bytes (decides cache level).
    pub working_set: u64,
    /// Fraction of processor peak the compute part reaches with the
    /// baseline (7.1) compiler; workload-specific.
    pub efficiency: f64,
    /// Fraction of the phase that cannot be multi-threaded.
    pub serial_fraction: f64,
    /// Fraction of memory traffic that crosses C-Brick boundaries when
    /// the thread team spans multiple bricks (OpenMP codes touching
    /// shared arrays); this is what NUMAlink4's doubled bandwidth
    /// accelerates in Fig. 6's OpenMP curves.
    pub remote_share: f64,
    /// Dominant loop shape, for the compiler model.
    pub kernel: KernelClass,
}

impl WorkPhase {
    /// A phase with the default application serial fraction.
    pub fn new(
        flops: f64,
        mem_bytes: f64,
        working_set: u64,
        efficiency: f64,
        kernel: KernelClass,
    ) -> Self {
        WorkPhase {
            flops,
            mem_bytes,
            working_set,
            efficiency,
            serial_fraction: calib::OMP_SERIAL_FRACTION,
            remote_share: 0.0,
            kernel,
        }
    }

    /// Set the cross-brick traffic share for shared-memory codes.
    pub fn with_remote_share(mut self, r: f64) -> Self {
        assert!((0.0..=1.0).contains(&r));
        self.remote_share = r;
        self
    }

    /// Override the serial fraction (poorly-threaded solvers like the
    /// INS3D line relaxation carry a much larger one).
    pub fn with_serial_fraction(mut self, s: f64) -> Self {
        assert!((0.0..=1.0).contains(&s));
        self.serial_fraction = s;
        self
    }
}

/// Execution context costing [`WorkPhase`]s on one node flavour.
#[derive(Debug, Clone, Copy)]
pub struct NodeComputeModel {
    node: NodeModel,
    compiler: CompilerVersion,
    pinning: Pinning,
    /// Parallel units of the whole job (Fig. 8's x-axis) for the
    /// compiler factor: threads for OpenMP codes, processes for MPI.
    units: u32,
    /// CPU pool an unpinned thread can wander over.
    pool_cpus: u32,
    /// Mean bus sharers under the active placement (1.0 strided, 2.0
    /// dense).
    sharers: f64,
    /// Whether the run overlaps the boot cpuset.
    boot_overlap: bool,
}

impl NodeComputeModel {
    /// Build a model.
    pub fn new(
        node: NodeModel,
        compiler: CompilerVersion,
        pinning: Pinning,
        units: u32,
        pool_cpus: u32,
        sharers: f64,
        boot_overlap: bool,
    ) -> Self {
        assert!(sharers >= 1.0);
        NodeComputeModel {
            node,
            compiler,
            pinning,
            units,
            pool_cpus,
            sharers,
            boot_overlap,
        }
    }

    /// Pinned, dense, default-compiler model — the common baseline.
    pub fn baseline(node: NodeModel, units: u32) -> Self {
        NodeComputeModel::new(
            node,
            CompilerVersion::V7_1,
            Pinning::Pinned,
            units,
            units,
            2.0,
            false,
        )
    }

    /// The node this model costs work on.
    pub fn node(&self) -> &NodeModel {
        &self.node
    }

    /// Per-worker sustained memory bandwidth, bytes/s, given bus
    /// sharing, cache residency, and the pinning penalty.
    fn worker_bandwidth(&self, phase: &WorkPhase, threads: u32) -> f64 {
        let mem = MemoryModel::new(&self.node);
        // Interpolate between the unshared and fully-shared bus points.
        let single = mem.stream_bandwidth(StreamOp::Triad, 1);
        let shared = mem.stream_bandwidth(StreamOp::Triad, 2);
        let f = (self.sharers - 1.0).clamp(0.0, 1.0);
        let bus = single + (shared - single) * f;
        let cache = mem.cache_speedup(&self.node, phase.working_set);
        let local = bus * cache;
        // Cross-brick share of a multi-brick thread team goes over
        // NUMAlink: each SHUB (2 CPUs) drives one link of the node's
        // generation, so per-CPU remote bandwidth doubles on the BX2.
        let thread_bricks = threads.div_ceil(self.node.brick.cpus_per_brick).max(1);
        // Even a single worker pays remote-access costs when its data
        // cannot fit one brick's local memory: pages land on other
        // bricks and stream over NUMAlink (the large single-CPU BX2b
        // advantage of the big CFD codes, Tables 2/3).
        let data_bricks = ((phase.working_set as f64 * threads as f64)
            / self.node.brick.memory_bytes as f64)
            .ceil()
            .max(1.0) as u32;
        let bricks = thread_bricks.max(data_bricks);
        let remote_frac = phase.remote_share * (1.0 - 1.0 / bricks as f64);
        let eff = if remote_frac > 0.0 {
            let remote_bw = self.node.brick_link_bandwidth() / 4.0;
            1.0 / ((1.0 - remote_frac) / local + remote_frac / remote_bw)
        } else {
            local
        };
        let numa = self.pinning.memory_penalty(threads, self.pool_cpus);
        eff / numa
    }

    /// Seconds to execute `phase` with a team of `threads` workers.
    ///
    /// Cache residency accelerates *both* terms — a working set inside
    /// L3 removes stalls from the compute pipeline as much as from the
    /// streaming loops (§4.1.4 attributes the BX2b computation-time
    /// reduction to its larger L3). The compiler factor likewise
    /// scales the whole phase: on the in-order Itanium2, code
    /// generation quality governs how well memory latency is hidden.
    pub fn seconds(&self, phase: &WorkPhase, threads: u32) -> f64 {
        assert!(threads >= 1);
        let cache = MemoryModel::new(&self.node).cache_speedup(&self.node, phase.working_set);
        let cf = self.compiler.factor(phase.kernel, self.units);
        let eff = phase.efficiency * cf * cache;
        // An unpinned thread team also loses compute throughput: every
        // migration abandons warm caches, stalling the pipeline (a
        // weaker effect than the remote-memory tax, hence the square
        // root). Single processes stay put (§4.3: pure process mode is
        // barely affected).
        let migration = if threads > 1 {
            self.pinning.memory_penalty(threads, self.pool_cpus).sqrt()
        } else {
            1.0
        };
        let t_comp = phase.flops * migration / (self.node.processor.peak_flops() * eff);
        let bw = self.worker_bandwidth(phase, threads) * cf;
        let t_mem = phase.mem_bytes / bw;
        let t1 = t_comp.max(t_mem);
        let mut t = if threads == 1 {
            t1
        } else {
            let tf = threads as f64;
            let parallel = (t_comp / tf).max(t_mem / tf);
            let serial = phase.serial_fraction * t1;
            let fork_join = calib::OMP_FORK_JOIN_BASE * tf.log2().ceil();
            serial + (1.0 - phase.serial_fraction) * parallel + fork_join
        };
        if self.boot_overlap {
            t /= calib::BOOT_CPUSET_PENALTY;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_machine::node::NodeKind;
    use proptest::prelude::*;

    fn bx2b() -> NodeModel {
        NodeModel::new(NodeKind::Bx2b)
    }

    fn node3700() -> NodeModel {
        NodeModel::new(NodeKind::Altix3700)
    }

    fn cpu_phase() -> WorkPhase {
        // Compute-bound: lots of flops, negligible memory traffic.
        WorkPhase::new(1.0e10, 1.0e6, 64 << 20, 0.9, KernelClass::Streaming)
    }

    fn mem_phase() -> WorkPhase {
        // Memory-bound: big streaming traffic, out-of-cache.
        WorkPhase::new(1.0e8, 1.0e10, 64 << 20, 0.1, KernelClass::Streaming)
    }

    #[test]
    fn compute_bound_phase_tracks_peak() {
        let m = NodeComputeModel::baseline(bx2b(), 1);
        let t = m.seconds(&cpu_phase(), 1);
        // 1e10 flops at 6.4e9*0.9 ≈ 1.736 s
        assert!((t - 1.0e10 / (6.4e9 * 0.9)).abs() < 1e-9);
    }

    #[test]
    fn bx2b_faster_than_3700_on_compute() {
        let mb = NodeComputeModel::baseline(bx2b(), 1);
        let m3 = NodeComputeModel::baseline(node3700(), 1);
        let ratio = m3.seconds(&cpu_phase(), 1) / mb.seconds(&cpu_phase(), 1);
        assert!((ratio - 6.4 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn memory_bound_phase_tracks_bandwidth() {
        let m = NodeComputeModel::baseline(bx2b(), 1);
        let t = m.seconds(&mem_phase(), 1);
        // 1e10 bytes at ~2 GB/s (dense sharing) ≈ 5 s.
        assert!((4.5..5.6).contains(&t), "t={t}");
    }

    #[test]
    fn strided_placement_speeds_memory_phase() {
        let dense = NodeComputeModel::new(
            bx2b(),
            CompilerVersion::V7_1,
            Pinning::Pinned,
            1,
            1,
            2.0,
            false,
        );
        let strided = NodeComputeModel::new(
            bx2b(),
            CompilerVersion::V7_1,
            Pinning::Pinned,
            1,
            1,
            1.0,
            false,
        );
        let gain = dense.seconds(&mem_phase(), 1) / strided.seconds(&mem_phase(), 1);
        assert!((gain - 1.9).abs() < 0.05, "gain={gain}");
    }

    #[test]
    fn cache_resident_set_faster_on_bx2b_than_bx2a() {
        // 7 MB per-worker set: in L3 on BX2b (9 MB), out on BX2a (6 MB).
        let ws = 7 << 20;
        let phase = WorkPhase::new(1.0e8, 5.0e9, ws, 0.1, KernelClass::Multigrid);
        let ma = NodeComputeModel::baseline(NodeModel::new(NodeKind::Bx2a), 1);
        let mb = NodeComputeModel::baseline(bx2b(), 1);
        let ratio = ma.seconds(&phase, 1) / mb.seconds(&phase, 1);
        // Fig. 6: ~50% jump attributed to the larger L3.
        assert!(ratio > 1.4, "ratio={ratio}");
    }

    #[test]
    fn thread_scaling_obeys_amdahl() {
        let m = NodeComputeModel::baseline(bx2b(), 8);
        let phase = cpu_phase().with_serial_fraction(0.1);
        let t1 = m.seconds(&phase, 1);
        let t8 = m.seconds(&phase, 8);
        let speedup = t1 / t8;
        let ideal = 1.0 / (0.1 + 0.9 / 8.0);
        assert!(
            (speedup - ideal).abs() / ideal < 0.05,
            "speedup={speedup} ideal={ideal}"
        );
    }

    #[test]
    fn unpinned_thread_teams_pay_on_memory() {
        let pinned = NodeComputeModel::new(
            bx2b(),
            CompilerVersion::V7_1,
            Pinning::Pinned,
            32,
            128,
            2.0,
            false,
        );
        let unpinned = NodeComputeModel::new(
            bx2b(),
            CompilerVersion::V7_1,
            Pinning::Unpinned,
            32,
            128,
            2.0,
            false,
        );
        let ratio = unpinned.seconds(&mem_phase(), 32) / pinned.seconds(&mem_phase(), 32);
        assert!(ratio > 1.5, "ratio={ratio}");
        // Compute-bound work is unaffected by pinning.
        let ratio_cpu = unpinned.seconds(&cpu_phase(), 1) / pinned.seconds(&cpu_phase(), 1);
        assert!((ratio_cpu - 1.0).abs() < 1e-9);
    }

    #[test]
    fn boot_cpuset_costs_10_to_15_pct() {
        let clean = NodeComputeModel::new(
            bx2b(),
            CompilerVersion::V7_1,
            Pinning::Pinned,
            1,
            1,
            2.0,
            false,
        );
        let dirty = NodeComputeModel::new(
            bx2b(),
            CompilerVersion::V7_1,
            Pinning::Pinned,
            1,
            1,
            2.0,
            true,
        );
        let ratio = dirty.seconds(&cpu_phase(), 1) / clean.seconds(&cpu_phase(), 1);
        assert!(ratio > 1.10 && ratio < 1.16, "ratio={ratio}");
    }

    #[test]
    fn compiler_factor_feeds_through() {
        let v71 = NodeComputeModel::new(
            bx2b(),
            CompilerVersion::V7_1,
            Pinning::Pinned,
            64,
            64,
            2.0,
            false,
        );
        let v80 = NodeComputeModel::new(
            bx2b(),
            CompilerVersion::V8_0,
            Pinning::Pinned,
            64,
            64,
            2.0,
            false,
        );
        let phase = WorkPhase::new(1.0e10, 1.0e6, 100 * 1024, 0.2, KernelClass::Fourier);
        assert!(v80.seconds(&phase, 1) > v71.seconds(&phase, 1));
    }

    #[test]
    #[should_panic(expected = "threads >= 1")]
    fn zero_threads_rejected() {
        NodeComputeModel::baseline(bx2b(), 1).seconds(&cpu_phase(), 0);
    }

    const KERNELS: [KernelClass; 8] = [
        KernelClass::ConjugateGradient,
        KernelClass::Fourier,
        KernelClass::Multigrid,
        KernelClass::BlockSolver,
        KernelClass::LineRelaxation,
        KernelClass::LuSgs,
        KernelClass::Streaming,
        KernelClass::ParticleForce,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Closed-form oracles, not the model: a pinned phase with no
        /// cross-brick traffic costs its roofline at one thread,
        /// `t1 = max(flops / (peak·eff·cf·cache), bytes / (bw·cf))`, and
        /// Amdahl's law plus the fork-join cost for a team of `T`,
        /// `s·t1 + (1 − s)·max(t_comp, t_mem) / T + fork_join·ceil(log2 T)`.
        /// `peak` is the processor's, `cache` the memory model's
        /// speed-up for the working set, `bw` the STREAM triad bandwidth
        /// interpolated between one and two bus sharers times `cache`,
        /// and `cf` the compiler's factor: each read off `machine`
        /// parameters, not recomputed by the model under test.
        #[test]
        fn seconds_match_the_roofline_and_amdahl(
            kind in prop::sample::select(vec![NodeKind::Altix3700, NodeKind::Bx2a, NodeKind::Bx2b]),
            compiler in prop::sample::select(CompilerVersion::ALL.to_vec()),
            kernel in prop::sample::select(KERNELS.to_vec()),
            flops in 1.0e6f64..1.0e12,
            mem_bytes in 1.0e6f64..1.0e12,
            working_set_log2 in 10u32..30,
            efficiency in 0.01f64..1.0,
            serial_fraction in 0.0f64..0.5,
            sharers in 1.0f64..2.0,
            units in 1u32..600,
            threads in 1u32..65,
        ) {
            let node = NodeModel::new(kind);
            let model =
                NodeComputeModel::new(node, compiler, Pinning::Pinned, units, units, sharers, false);
            let working_set = 1u64 << working_set_log2;
            let phase = WorkPhase::new(flops, mem_bytes, working_set, efficiency, kernel)
                .with_serial_fraction(serial_fraction);

            let mem = MemoryModel::new(&node);
            let cache = mem.cache_speedup(&node, working_set);
            let (one, two) = (
                mem.stream_bandwidth(StreamOp::Triad, 1),
                mem.stream_bandwidth(StreamOp::Triad, 2),
            );
            let bw = (one + (two - one) * (sharers - 1.0)) * cache;
            let cf = compiler.factor(kernel, units);
            let t_comp = flops / (node.processor.peak_flops() * efficiency * cf * cache);
            let t_mem = mem_bytes / (bw * cf);
            let t1 = t_comp.max(t_mem);
            let want = if threads == 1 {
                t1
            } else {
                let team = f64::from(threads);
                serial_fraction * t1
                    + (1.0 - serial_fraction) * t_comp.max(t_mem) / team
                    + calib::OMP_FORK_JOIN_BASE * team.log2().ceil()
            };
            let got = model.seconds(&phase, threads);
            prop_assert!(
                (got - want).abs() <= 1e-12 * want,
                "{:?} {:?} {:?}, {} threads: model {} vs closed form {}",
                kind,
                compiler,
                kernel,
                threads,
                got,
                want
            );
        }
    }
}
