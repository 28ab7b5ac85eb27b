//! Observability overhead: the tracer hooks must be free when disabled.
//!
//! The engine is generic over `Tracer`, so the untraced
//! `ring_512_baseline` — `simulate` under the `NullTracer` — carries no
//! instrumentation (the hooks monomorphize to nothing). The
//! `RecordingTracer` rows measure what a full capture actually costs.
//!
//! The host-telemetry hooks in the sweep executor carry the same
//! contract at job granularity: with no capture live, every hook is
//! one relaxed atomic load. `bench_host_overhead` measures the worker
//! loop every sweep runs (`run_governed`) against a bare serial loop
//! over the same jobs and emits the difference as `host_obs_overhead`;
//! CI's bench check holds `overhead_pct` under 2.

use std::sync::Arc;
use std::time::Instant;

use columbia::obs::host;
use columbia::par::{run_governed, RunOptions};
use columbia_bench::BenchRecord;
use columbia_machine::cluster::{ClusterConfig, CpuId};
use columbia_machine::node::NodeKind;
use columbia_simnet::fabric::ClusterFabric;
use columbia_simnet::obs::RecordingTracer;
use columbia_simnet::{simulate, simulate_on, FaultPlan, Op};
use criterion::{criterion_group, criterion_main, Criterion};

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

fn bench_tracer_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    g.sample_size(10);
    let fabric = ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 1));
    let n = 512usize;
    let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
    let programs = ring(n, 10);
    let plan = FaultPlan::none();
    g.bench_function("ring_512_baseline", |b| {
        b.iter(|| simulate_on(&programs, &cpus, &fabric, &plan).unwrap());
    });
    g.bench_function("ring_512_recording_tracer", |b| {
        b.iter(|| {
            let mut tracer = RecordingTracer::new();
            simulate(&programs, &cpus, &fabric, &plan, &mut tracer, 1).unwrap()
        });
    });
    g.finish();
}

/// Minimum wall nanoseconds per call of `a` and of `b`, measured
/// **interleaved** (a, b, a, b, …) over `iters` rounds after `warmup`
/// discarded ones. Interleaving cancels the drift that poisons
/// back-to-back comparisons (frequency ramp-up, allocator and cache
/// warm-up land on whichever side runs second); the per-side minimum
/// then estimates true cost, since scheduling noise only ever slows a
/// run.
fn time_pair_ns(warmup: u32, iters: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    for _ in 0..warmup {
        a();
        b();
    }
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters {
        let start = Instant::now();
        a();
        best_a = best_a.min(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        b();
        best_b = best_b.min(start.elapsed().as_nanos() as f64);
    }
    (best_a, best_b)
}

/// The sweep executor's host-telemetry hooks with no capture live,
/// against a bare loop over the same jobs: 8 sweep-point-sized
/// simulations (a 64-rank ring) per iteration, run through the
/// instrumented worker loop at one thread vs. called directly. The
/// emitted `overhead_pct` is what the disabled hooks cost per job — CI
/// fails the bench check at 2%.
fn bench_host_overhead(c: &mut Criterion) {
    assert!(
        !host::is_enabled(),
        "overhead is measured with telemetry disabled"
    );
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
    let pool_run = || run_governed(1, vec![point.clone(); jobs], &opts, |_| false);

    let (direct_ns, pool_ns) = time_pair_ns(
        3,
        30,
        || {
            for _ in 0..jobs {
                std::hint::black_box(point());
            }
        },
        || {
            std::hint::black_box(pool_run());
        },
    );
    let overhead_pct = (pool_ns - direct_ns) / direct_ns * 100.0;
    BenchRecord::new("host_obs_overhead")
        .metric("direct_ns_per_iter", direct_ns, 0)
        .metric("pool_ns_per_iter", pool_ns, 0)
        .metric("overhead_pct", overhead_pct, 2)
        .emit();

    let mut g = c.benchmark_group("host");
    g.sample_size(10);
    g.bench_function("ring_64_x8_direct", |b| {
        b.iter(|| (0..jobs).map(|_| point()).collect::<Vec<_>>());
    });
    g.bench_function("ring_64_x8_pool_telemetry_off", |b| {
        b.iter(pool_run);
    });
    g.finish();
}

/// What the analyzer itself costs, relative to the capture it consumes:
/// record a 512-rank 10-round ring once, then time `analyze` (critical
/// path + imbalance + comm matrix) against the traced simulation that
/// produced the bundle. Emitted as `analysis_cost` with the
/// capture-relative ratio — informational (`ci/check_bench.py` sets it
/// no bound), since the analyzer runs offline on already-captured data
/// and never sits on the untraced engine path.
fn bench_analysis_cost(c: &mut Criterion) {
    let fabric = ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 1));
    let n = 512usize;
    let cpus: Vec<CpuId> = (0..n as u32).map(|c| CpuId::new(0, c)).collect();
    let programs = ring(n, 10);
    let plan = FaultPlan::none();
    let mut tracer = RecordingTracer::new();
    simulate(&programs, &cpus, &fabric, &plan, &mut tracer, 1).unwrap();
    let bundle = tracer.into_bundle("analysis bench");

    let (capture_ns, analyze_ns) = time_pair_ns(
        3,
        30,
        || {
            let mut t = RecordingTracer::new();
            std::hint::black_box(simulate(&programs, &cpus, &fabric, &plan, &mut t, 1).unwrap());
        },
        || {
            std::hint::black_box(columbia::obs::analyze(&bundle));
        },
    );
    BenchRecord::new("analysis_cost")
        .metric("capture_ns_per_iter", capture_ns, 0)
        .metric("analyze_ns_per_iter", analyze_ns, 0)
        .metric("analyze_vs_capture_ratio", analyze_ns / capture_ns, 4)
        .emit();

    let mut g = c.benchmark_group("analysis");
    g.sample_size(10);
    g.bench_function("ring_512_analyze", |b| {
        b.iter(|| columbia::obs::analyze(&bundle));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tracer_overhead,
    bench_host_overhead,
    bench_analysis_cost
);
criterion_main!(benches);
