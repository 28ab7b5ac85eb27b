//! Observability overhead: the tracer hooks must be free when disabled.
//!
//! The engine is generic over `Tracer`, so the untraced
//! `ring_512_baseline` — `simulate` under the `NullTracer` — carries no
//! instrumentation (the hooks monomorphize to nothing). The
//! `RecordingTracer` row measures what a full capture actually costs:
//! the traced run and the bundle `into_bundle` lays out and folds.
//!
//! The host-telemetry hooks in the sweep executor carry the same
//! contract at job granularity: with no capture in the pool's options,
//! every hook is one `None` check. `bench_host_overhead` measures the
//! worker loop every sweep runs (`run_governed`) against a bare serial
//! loop over the same jobs and emits the median per-round difference as
//! `host_obs_overhead`; CI's bench check holds `overhead_pct` under 2.
//!
//! A plain main (`harness = false`): `cargo bench --bench obs` runs all
//! three benches.

use std::sync::Arc;

use columbia::par::{run_governed, RunOptions};
use columbia_bench::timing::{median, print_row, time_rounds_ns};
use columbia_bench::BenchRecord;
use columbia_machine::cluster::{ClusterConfig, CpuId};
use columbia_machine::node::NodeKind;
use columbia_simnet::fabric::ClusterFabric;
use columbia_simnet::obs::{RecordingTracer, RunContext};
use columbia_simnet::{simulate, simulate_on, FaultPlan, Op};

fn ring(n: usize, rounds: u64) -> Vec<Vec<Op>> {
    (0..n)
        .map(|r| {
            let mut ops = Vec::new();
            for round in 0..rounds {
                ops.push(Op::Compute(1e-4));
                ops.push(Op::Send {
                    to: (r + 1) % n,
                    bytes: 8192,
                    tag: round,
                });
                ops.push(Op::Recv {
                    from: (r + n - 1) % n,
                    tag: round,
                });
            }
            ops
        })
        .collect()
}

/// A 512-rank, 10-round ring untraced and under the
/// `RecordingTracer`: informational rows.
fn bench_tracer_overhead() {
    let fabric = ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 1));
    let n = 512usize;
    let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
    let programs = ring(n, 10);
    let plan = FaultPlan::none();
    print_row("obs/ring_512_baseline", 10, || {
        simulate_on(&programs, &cpus, &fabric, &plan).unwrap();
    });
    print_row("obs/ring_512_recording_tracer", 10, || {
        let mut tracer = RecordingTracer::new();
        simulate(
            &programs,
            &cpus,
            &fabric,
            &plan,
            &mut tracer,
            &RunContext::new(1),
        )
        .unwrap();
        std::hint::black_box(tracer.into_bundle("ring"));
    });
}

/// The sweep executor's host-telemetry hooks with no capture,
/// against a bare loop over the same jobs: 8 sweep-point-sized
/// simulations (a 64-rank ring) per iteration, run through the
/// instrumented worker loop at one thread vs. called directly. The
/// emitted `overhead_pct` is what the disabled hooks cost per job — CI
/// fails the bench check at 2%.
///
/// `overhead_pct` is the median over 400 interleaved rounds of each
/// round's `(pool - direct) / direct`. Scheduling noise slows one side
/// of a round, and the median passes over the rounds it hits, while a
/// difference of per-side minimums moves by more than the 2% bound
/// between runs of one binary on a 2-vCPU host.
fn bench_host_overhead() {
    let fabric = ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 1));
    let n = 64usize;
    let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
    let jobs = 8usize;
    // Pool jobs are `'static`, so the point owns its inputs through an
    // `Arc`: cloning it per job is one reference-count increment.
    let inputs = Arc::new((ring(n, 4), cpus, fabric, FaultPlan::none()));
    let point = move || {
        let (programs, cpus, fabric, plan) = &*inputs;
        simulate_on(programs, cpus, fabric, plan).unwrap().makespan
    };
    let opts = RunOptions::default();
    assert!(
        opts.host.is_none(),
        "overhead is measured with telemetry disabled"
    );
    let pool_run = || run_governed(1, vec![point.clone(); jobs], &opts, |_| false);

    let rounds = time_rounds_ns(
        3,
        400,
        || {
            for _ in 0..jobs {
                std::hint::black_box(point());
            }
        },
        || {
            std::hint::black_box(pool_run());
        },
    );
    let overhead_pct = median(
        rounds
            .iter()
            .map(|(direct, pool)| (pool - direct) / direct * 100.0)
            .collect(),
    );
    let direct_ns = median(rounds.iter().map(|r| r.0).collect());
    let pool_ns = median(rounds.iter().map(|r| r.1).collect());
    BenchRecord::new("host_obs_overhead")
        .metric("direct_ns_per_iter", direct_ns, 0)
        .metric("pool_ns_per_iter", pool_ns, 0)
        .metric("overhead_pct", overhead_pct, 2)
        .emit();
}

/// What the analyzer itself costs, relative to the capture it consumes:
/// record a 512-rank 10-round ring once, then time `analyze` (critical
/// path + imbalance + comm matrix) against the traced simulation that
/// produced the bundle. Emitted as `analysis_cost` with the
/// capture-relative ratio — informational (`ci/check_bench.py` sets it
/// no bound), since the analyzer runs offline on already-captured data
/// and never sits on the untraced engine path.
fn bench_analysis_cost() {
    let fabric = ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 1));
    let n = 512usize;
    let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
    let programs = ring(n, 10);
    let plan = FaultPlan::none();
    let mut tracer = RecordingTracer::new();
    simulate(
        &programs,
        &cpus,
        &fabric,
        &plan,
        &mut tracer,
        &RunContext::new(1),
    )
    .unwrap();
    let bundle = tracer.into_bundle("analysis bench");

    let rounds = time_rounds_ns(
        3,
        30,
        || {
            let mut t = RecordingTracer::new();
            std::hint::black_box(
                simulate(
                    &programs,
                    &cpus,
                    &fabric,
                    &plan,
                    &mut t,
                    &RunContext::new(1),
                )
                .unwrap(),
            );
            std::hint::black_box(t.into_bundle("ring"));
        },
        || {
            std::hint::black_box(columbia::obs::analyze(&bundle));
        },
    );
    // Scheduling noise only ever slows a call, so each side's minimum
    // estimates its cost.
    let capture_ns = rounds.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let analyze_ns = rounds.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    BenchRecord::new("analysis_cost")
        .metric("capture_ns_per_iter", capture_ns, 0)
        .metric("analyze_ns_per_iter", analyze_ns, 0)
        .metric("analyze_vs_capture_ratio", analyze_ns / capture_ns, 4)
        .emit();
}

fn main() {
    bench_tracer_overhead();
    bench_host_overhead();
    bench_analysis_cost();
}
