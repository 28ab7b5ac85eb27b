//! The paper's evaluation as data: one embedded spec per table and
//! figure.
//!
//! Each of the 18 experiments is the spec file `specs/<name>.toml`,
//! compiled into the library with `include_str!` and listed in
//! [`EXPERIMENTS`] in paper order. [`job`] lowers the embedded text
//! through [`SpecJob::from_text`], the constructor `repro --spec`
//! runs on a file, so `repro --exp fig11` and
//! `repro --spec specs/fig11.toml` build the same plan (same
//! fingerprint, same content hash, same checkpoint keys) and render
//! the same bytes. EXPERIMENTS.md records the comparison against the
//! paper.
//!
//! What remains here as code are the point helpers that three entries
//! of the spec compiler's kind table call (`table1`, `trace` and
//! `columbia`, the kinds that render their own rows) and
//! [`failure_report`], which renders a failed sweep as a report.

use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric, NodeId};
use columbia_machine::node::{NodeKind, NodeModel};
use columbia_obs::{NullTracer, RecordingTracer, RunContext};
use columbia_runtime::compiler::{CompilerVersion, KernelClass};
use columbia_runtime::compute::WorkPhase;
use columbia_runtime::exec::{execute_traced, ExecConfig, SpecOp, WorkloadSpec};
use columbia_runtime::pinning::Pinning;
use columbia_runtime::placement::{Placement, PlacementStrategy};
use columbia_simnet::fabric::{CachedFabric, ClusterFabric, MptVersion};
use columbia_simnet::fault::DEFAULT_MULTIPLEX_QUEUE_PENALTY;
use columbia_simnet::program::{ByteRule, Peer, ProgramSet, SpmdOp};
use columbia_simnet::{simulate, ConnectionLimit, ConnectionPolicy, FaultPlan, SimError};

use crate::obs_report::hotspot_report;
use crate::report::{secs, Report};
use crate::spec::SpecJob;
use crate::sweep::{PointOutput, SweepPlan};

/// `(name, text of specs/<name>.toml)`: the name picks the file, so
/// the table cannot pair a name with another experiment's spec.
macro_rules! embedded_spec {
    ($name:literal) => {
        (
            $name,
            include_str!(concat!("../../../specs/", $name, ".toml")),
        )
    };
}

/// Every table and figure of the paper's evaluation, in paper order:
/// the `repro --exp` name and the text of `specs/<name>.toml`.
pub const EXPERIMENTS: [(&str, &str); 18] = [
    embedded_spec!("table1"),
    embedded_spec!("fig5"),
    embedded_spec!("dgemm-stream"),
    embedded_spec!("fig6"),
    embedded_spec!("table2"),
    embedded_spec!("table3"),
    embedded_spec!("stride"),
    embedded_spec!("fig7"),
    embedded_spec!("fig8"),
    embedded_spec!("table4"),
    embedded_spec!("fig9"),
    embedded_spec!("fig10"),
    embedded_spec!("fig11"),
    embedded_spec!("table5"),
    embedded_spec!("table6"),
    embedded_spec!("degraded"),
    embedded_spec!("trace"),
    embedded_spec!("columbia"),
];

/// Workload-flavoured aliases for the figures people look for by
/// benchmark name: BT-MZ process/thread combinations are Fig. 9, and
/// the §4.1.1 DGEMM/STREAM table is the HPC Challenge slice.
const ALIASES: [(&str, &str); 3] = [
    ("bt_mz", "fig9"),
    ("bt-mz", "fig9"),
    ("hpcc", "dgemm-stream"),
];

/// Compile experiment `name` (a name from [`EXPERIMENTS`] or an alias)
/// from its embedded spec. The job carries the canonical name, so an
/// alias shares the checkpoint store of the name it stands for.
/// `None` for an unknown name.
pub fn job(name: &str) -> Option<SpecJob> {
    let name = ALIASES
        .iter()
        .find(|(alias, _)| *alias == name)
        .map_or(name, |(_, canonical)| *canonical);
    let (name, text) = EXPERIMENTS.iter().find(|(n, _)| *n == name)?;
    Some(
        SpecJob::from_text(name, text, false)
            .unwrap_or_else(|e| panic!("embedded specs/{name}.toml: {e}")),
    )
}

fn known(name: &str) -> SpecJob {
    job(name).unwrap_or_else(|| panic!("unknown experiment '{name}'"))
}

/// The [`SweepPlan`] of experiment `name`.
///
/// # Panics
///
/// If `name` is neither an experiment nor an alias.
pub fn plan(name: &str) -> SweepPlan {
    known(name).plan
}

/// Run experiment `name`'s sweep points across `jobs` worker threads,
/// simulating on one thread and recording nothing; a failed simulation
/// becomes a diagnostic report rather than a panic, so sweeps always
/// produce output. Byte-identical for any `jobs` (the determinism
/// property the golden harness asserts).
///
/// # Panics
///
/// If `name` is neither an experiment nor an alias.
pub fn run_with_jobs(name: &str, jobs: usize) -> Report {
    let SpecJob { name, plan, .. } = known(name);
    plan.run(&RunContext::new(1), jobs)
        .unwrap_or_else(|err| failure_report(&name, &err))
}

/// Run experiment `name` serially (see [`run_with_jobs`]).
///
/// # Panics
///
/// If `name` is neither an experiment nor an alias.
pub fn run(name: &str) -> Report {
    run_with_jobs(name, 1)
}

/// Render a [`SimError`] as a report so failures are first-class
/// experiment output (stuck ranks, exhausted connections, …). `repro`
/// degrades every failed plan this way, with the job name as the
/// report id.
pub fn failure_report(name: &str, err: &SimError) -> Report {
    let mut r = Report::new(
        name,
        "simulation failed — structured diagnosis",
        &["diagnostic"],
    );
    for line in err.to_string().lines() {
        r.push_row(vec![line.trim().to_string()]);
    }
    r.note("see DESIGN.md \"Fault model\" for the failure taxonomy");
    r
}

/// The Table 1 point: zipped node-characteristics rows plus the
/// cluster-shape note — `core::spec`'s `kind = "table1"`.
pub(crate) fn table1_output() -> PointOutput {
    let mut out = PointOutput::default();
    let nodes: Vec<_> = NodeKind::ALL
        .iter()
        .map(|&k| NodeModel::new(k).table1_row())
        .collect();
    for ((a, b), c) in nodes[0].iter().zip(&nodes[1]).zip(&nodes[2]) {
        out.rows
            .push(vec![a.0.to_string(), a.1.clone(), b.1.clone(), c.1.clone()]);
    }
    let c = ClusterConfig::columbia();
    out.with_note(format!(
        "cluster: {} nodes, {} CPUs total; pure MPI fully usable on up to {} nodes",
        c.nodes.len(),
        c.total_cpus(),
        (2..8)
            .take_while(|&n| c.pure_mpi_fully_usable(n))
            .last()
            .unwrap_or(1)
    ))
}

/// The fault-injection seed the shipped `degraded` and `trace` specs
/// pin, and the `trace` kind's default: results are deterministic, so
/// the reports are reproducible run to run.
pub const DEGRADED_SEED: u64 = 42;

/// Parameters of one traced-exchange demo run — `core::spec`'s
/// `kind = "trace"`: a deliberately imbalanced halo-exchange workload
/// (by default 16 ranks split across two BX2b nodes over InfiniBand,
/// seeded drops) captured by a [`RecordingTracer`] and rendered as the
/// top-N hotspot table. `repro --exp trace --trace t.json --metrics
/// m.json` exports the same run as a Perfetto-loadable timeline and
/// counter dump.
#[derive(Debug, Clone)]
pub(crate) struct TraceParams {
    /// SPMD ranks.
    pub ranks: usize,
    /// Node count (BX2b, InfiniBand between them).
    pub nodes: u32,
    /// Seeded per-message drop probability.
    pub drop_prob: f64,
    /// Fault seed.
    pub seed: u64,
    /// Iterations of the work/exchange/allreduce loop.
    pub iters: u32,
    /// Hotspot rows to keep (top-N by wait time).
    pub top: usize,
}

impl TraceParams {
    /// Fewest ranks the workload is defined on: the compute skew
    /// divides by `ranks - 1`.
    pub(crate) const MIN_RANKS: usize = 2;
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            ranks: 16,
            nodes: 2,
            drop_prob: 0.05,
            seed: DEGRADED_SEED,
            iters: 3,
            top: 8,
        }
    }
}

/// One traced-exchange point: build the skewed workload, run it in `ctx`
/// under a [`RecordingTracer`], record the run into `ctx`, and render
/// the top-N hotspot table.
pub(crate) fn trace_output(ctx: &RunContext, p: &TraceParams) -> Result<PointOutput, SimError> {
    let n = p.ranks;
    let cluster = ClusterConfig::uniform(NodeKind::Bx2b, p.nodes);
    let nodes: Vec<NodeId> = (0..p.nodes).map(NodeId).collect();
    // Cap each node at ranks/nodes so the exchange partners
    // (r <-> r + ranks/2) straddle the inter-node link.
    let cap = n.div_ceil(p.nodes as usize) as u32;
    let placement = Placement::new(&cluster, &nodes, n, 1, PlacementStrategy::DenseCapped(cap));
    let mut spec = WorkloadSpec::with_ranks(n);
    for (r, prog) in spec.ranks.iter_mut().enumerate() {
        let partner = (r + n / 2) % n;
        for _iter in 0..p.iters {
            // Linear compute skew: the last rank does ~2x rank 0's work,
            // so the early ranks pile up wait time at the collectives.
            prog.push(SpecOp::Work(WorkPhase::new(
                1.0e9 * (1.0 + r as f64 / (n - 1) as f64),
                1.0e8,
                1 << 20,
                0.2,
                KernelClass::BlockSolver,
            )));
            prog.push(SpecOp::Exchange {
                with: partner,
                bytes: 1 << 20,
                tag: r.min(partner) as u64,
            });
            prog.push(SpecOp::AllReduce { bytes: 64 });
        }
    }
    // Seeded drops (software-level timeout, as in the degraded
    // experiment) so the trace shows retransmit backoff on the net
    // track, deterministically.
    let mut faults = FaultPlan::with_drops(p.seed, p.drop_prob);
    faults.retransmit.timeout = 5.0e-3;
    let cfg = ExecConfig {
        cluster,
        nodes,
        inter: InterNodeFabric::InfiniBand,
        mpt: MptVersion::Beta,
        placement,
        compiler: CompilerVersion::V7_1,
        pinning: Pinning::Pinned,
        faults,
    };
    let mut tracer = RecordingTracer::new();
    execute_traced(ctx, &spec, &cfg, &mut tracer)?;
    // The hotspot table needs the bundle whether or not `ctx` records,
    // so this point records its run itself rather than through
    // `execute_in`.
    let bundle = tracer.into_bundle(format!(
        "trace demo: {} ranks over {} nodes (IB)",
        p.ranks, p.nodes
    ));
    // Only the rows and notes are kept: the spec's `[report]` names the table.
    let r = hotspot_report("", "", &bundle.profile, &bundle.metrics, p.top);
    ctx.record(bundle);
    Ok(PointOutput {
        rows: r.rows,
        notes: r.notes,
        values: Vec::new(),
    })
}

/// The SPMD template every Columbia point runs: ring rounds with a
/// node-pairing exchange and a small allreduce, closed by a broadcast
/// and a barrier. `Xor(512)` pairs whole 512-CPU nodes (node 2k with
/// node 2k+1), so the exchange traffic crosses the inter-node fabric on
/// every rank; the ring only crosses at node boundaries.
fn columbia_template() -> Vec<SpmdOp> {
    let mut t = Vec::new();
    for round in 0..3u64 {
        t.push(SpmdOp::Compute(2.0e-4));
        t.push(SpmdOp::Send {
            to: Peer::RingOffset(1),
            bytes: ByteRule::Uniform(8192),
            tag: round,
        });
        t.push(SpmdOp::Recv {
            from: Peer::RingOffset(-1),
            tag: round,
        });
        t.push(SpmdOp::Exchange {
            with: Peer::Xor(512),
            bytes: ByteRule::Uniform(32768),
            tag: 100 + round,
        });
        t.push(SpmdOp::AllReduce { bytes: 64 });
    }
    t.push(SpmdOp::Bcast {
        root: 0,
        bytes: 1 << 20,
    });
    t.push(SpmdOp::Barrier);
    t
}

/// One Columbia point — `core::spec`'s `kind = "columbia"`: the full
/// machine (all twenty nodes over InfiniBand under the §2 connection
/// budget) when `full`, else the capability subsystem (its four
/// NUMAlink4 nodes), every CPU one rank. Runs on the compact
/// [`ProgramSet`] + [`CachedFabric`] + monomorphized engine path; a
/// full-machine run is only seconds *because* of those optimizations
/// (see `cargo bench -p columbia-bench --bench simnet`). It simulates
/// untraced at `ctx`'s thread count (`repro --sim-threads`), recording
/// its PDES rounds into its host capture.
pub(crate) fn columbia_output(ctx: &RunContext, full: bool) -> Result<PointOutput, SimError> {
    let cluster = ClusterConfig::columbia();
    let (label, nodes, inter) = if full {
        let all = (0..cluster.nodes.len() as u32).map(NodeId).collect();
        ("full machine", all, InterNodeFabric::InfiniBand)
    } else {
        let sub = cluster.numalink4_subsystem.clone();
        ("capability subsystem", sub, InterNodeFabric::NumaLink4)
    };
    let cpus: Vec<CpuId> = nodes
        .iter()
        .flat_map(|&node| (0..cluster.node_model(node).cpus).map(move |c| CpuId::new(node.0, c)))
        .collect();
    let ranks = cpus.len();
    // Pure MPI at 512 procs/node over 19 peers wants p²(n−1) ≈ 5.0M
    // InfiniBand connections against the 8 × 64K budget, so MPT
    // multiplexes every cross-node message — the machine's real §2
    // behavior at full scale.
    let faults = if full {
        FaultPlan::none().with_connection_limit(ConnectionLimit {
            cards_per_node: cluster.ib_cards_per_node,
            connections_per_card: cluster.ib_connections_per_card,
            policy: ConnectionPolicy::Multiplex {
                queue_penalty: DEFAULT_MULTIPLEX_QUEUE_PENALTY,
            },
        })
    } else {
        FaultPlan::none()
    };
    let fabric = CachedFabric::new(ClusterFabric::new(
        cluster,
        inter,
        MptVersion::Beta,
        ranks as u32,
    ));
    let set = ProgramSet::spmd(ranks, columbia_template());
    let out = simulate(&set, &cpus, &fabric, &faults, &mut NullTracer, ctx)?;
    let point = PointOutput::row(vec![
        label.into(),
        ranks.to_string(),
        nodes.len().to_string(),
        inter.name().into(),
        secs(out.makespan),
        secs(out.mean_comm()),
        secs(out.max_comm()),
        out.faults.multiplexed_messages.to_string(),
    ]);
    Ok(if full {
        point.with_note(format!(
            "full machine: section 2's p^2(n-1) formula oversubscribes the connection budget {:.1}x at 512 procs/node over 19 peers, so every cross-node message pays the multiplex queue penalty",
            out.faults.oversubscription
        ))
    } else {
        point
    })
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    #[test]
    fn names_round_trip() {
        for (name, _) in EXPERIMENTS {
            assert_eq!(job(name).map(|j| j.name), Some(name.to_string()));
        }
        assert!(job("nope").is_none());
    }

    #[test]
    fn bt_mz_aliases_fig9() {
        assert_eq!(job("bt_mz").map(|j| j.name), Some("fig9".into()));
        assert_eq!(job("bt-mz").map(|j| j.name), Some("fig9".into()));
    }

    #[test]
    fn hpcc_aliases_the_dgemm_stream_table() {
        assert_eq!(job("hpcc").map(|j| j.name), Some("dgemm-stream".into()));
    }

    #[test]
    fn every_plan_decomposes_into_points() {
        for (name, _) in EXPERIMENTS {
            assert!(!plan(name).is_empty(), "{name} has no sweep points");
        }
        // The sweep-heavy experiments expose real parallelism.
        // 4 benches x 2 paradigms x 3 node kinds.
        assert!(plan("fig6").len() >= 24);
        assert!(plan("degraded").len() >= 10);
        assert_eq!(plan("table1").len(), 1);
    }

    #[test]
    fn trace_report_finds_the_waiting_ranks() {
        let r = run("trace");
        // Top-8 of 16 ranks.
        assert_eq!(r.rows.len(), 8);
        // The compute skew makes rank 15 the laggard, so it never tops
        // the wait table; some other rank does, with real wait time.
        assert_ne!(r.rows[0][0], "15");
        assert!(
            r.rows[0][3] != "0.00 us",
            "top hotspot must wait: {:?}",
            r.rows[0]
        );
        // The seeded drops leave fabric counters behind.
        let msgs = r.notes.iter().find(|n| n.contains("messages:")).unwrap();
        assert!(msgs.contains("dropped"), "{msgs}");
        assert!(
            r.notes.iter().any(|n| n.contains("heaviest link")),
            "inter-node traffic must be attributed: {:?}",
            r.notes
        );
    }

    #[test]
    fn table1_reproduces_node_table() {
        let r = run("table1");
        let text = r.to_text();
        assert!(text.contains("Itanium2 1.6 GHz/9 MB"));
        assert!(text.contains("NUMAlink3"));
        assert!(text.contains("3.07 Tflop/s"));
    }

    #[test]
    fn stride_report_shows_the_1_9x_gain() {
        let r = run("stride");
        // Row 0 = stride 1, row 1 = stride 2 of STREAM triad.
        let dense: f64 = r.rows[0][2]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let strided: f64 = r.rows[1][2]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let gain = strided / dense;
        assert!((gain - 1.9).abs() < 0.1, "gain={gain}");
    }

    #[test]
    fn table2_runs_all_thread_counts() {
        let r = run("table2");
        assert_eq!(r.rows.len(), 7); // baseline + 6 thread counts
        assert!(r.rows[6][0].contains("504"));
    }

    // The two sweeps below run at `--jobs 2` to keep both cores busy;
    // a report is byte-identical at any job count.

    #[test]
    fn table5_shows_flat_scaling() {
        // `--jobs 2` keeps both cores busy; the report is the same bytes.
        let r = run_with_jobs("table5", 2);
        let eff_last: f64 = r.rows.last().unwrap()[4]
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(eff_last > 90.0, "eff={eff_last}%");
        // s/step ("<value> <unit>") stays within 15% of the first row's.
        let step = |row: &[String]| row[2].split(' ').next().unwrap().parse::<f64>().unwrap();
        let (first, last) = (step(&r.rows[0]), step(r.rows.last().unwrap()));
        assert!(last < 1.15 * first, "flat weak scaling: {first} → {last}");
    }

    /// The degraded report, computed once for the tests that read it.
    fn degraded() -> &'static Report {
        static REPORT: OnceLock<Report> = OnceLock::new();
        REPORT.get_or_init(|| run_with_jobs("degraded", 2))
    }

    /// Parse the `{:.3}x` slowdown column of the degraded report.
    fn slowdown(row: &[String]) -> f64 {
        row[2].trim_end_matches('x').parse().unwrap()
    }

    #[test]
    fn degraded_inflation_is_monotone_in_drop_rate() {
        let r = degraded();
        // Rows 0..=4: healthy, then drop 2/5/10/20%.
        assert_eq!(r.rows[0][0], "healthy");
        assert_eq!(slowdown(&r.rows[0]), 1.0);
        for w in r.rows[..5].windows(2) {
            assert!(
                slowdown(&w[1]) >= slowdown(&w[0]),
                "{} ({}) must not beat {} ({})",
                w[1][0],
                w[1][2],
                w[0][0],
                w[0][2]
            );
        }
        let worst = slowdown(&r.rows[4]);
        assert!(worst > 1.0, "20% drops must cost something: {worst}x");
        let dropped: Vec<u64> = r.rows[1..5]
            .iter()
            .map(|row| row[3].parse().unwrap())
            .collect();
        assert!(dropped.windows(2).all(|w| w[1] >= w[0]), "{dropped:?}");
        assert!(dropped[3] > 0);
    }

    #[test]
    fn degraded_faults_each_leave_a_mark() {
        let r = degraded();
        // Every non-healthy scenario must cost time, gracefully.
        for row in &r.rows[1..] {
            assert!(slowdown(row) >= 1.0, "{}: {}", row[0], row[2]);
        }
        let slow_node = r
            .rows
            .iter()
            .find(|row| row[0].starts_with("slow node"))
            .unwrap();
        assert!(
            slowdown(slow_node) > 1.3,
            "2x compute on half the ranks: {}",
            slow_node[2]
        );
        let muxed = r
            .rows
            .iter()
            .find(|row| row[0].contains("multiplexed"))
            .unwrap();
        let n_muxed: u64 = muxed[5].parse().unwrap();
        assert!(n_muxed > 0, "halved budget must multiplex messages");
        // The fail-fast counterpart of the multiplex row is a note.
        assert!(
            r.notes.iter().any(|n| n.contains("connections exhausted")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn failed_simulations_render_as_reports() {
        let err = SimError::ConnectionsExhausted {
            node: 3,
            procs_on_node: 512,
            required: 786_432,
            available: 524_288,
        };
        let r = failure_report("fig11", &err);
        let text = r.to_text();
        assert!(text.contains("node 3"), "{text}");
        assert!(text.contains("Fault model"), "{text}");
    }
}
