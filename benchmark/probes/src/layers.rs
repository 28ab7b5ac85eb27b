//! Layer probes: each layer's public functions timed directly on fixed
//! representative inputs. Every probe first checks that its input
//! reproduces the golden value it stands for, so a number is never kept
//! for a run that computed something else.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use columbia::kernels::{dgemm, stream};
use columbia::machine::cluster::InterNodeFabric;
use columbia::machine::memory::StreamOp;
use columbia::machine::{ClusterConfig, CpuId, NodeId, NodeKind};
use columbia::md::weak_scaling_point;
use columbia::npbmz::bench::build_spec;
use columbia::npbmz::{MzBenchmark, MzClass, MzRunConfig};
use columbia::obs::{analyze, chrome_trace_with_flows, host, sink, CriticalPath, HostTrack};
use columbia::report::secs;
use columbia::runtime::{
    execute, CompilerVersion, ExecConfig, Pinning, Placement, PlacementStrategy, SpecOp,
};
use columbia::simnet::fault::DEFAULT_MULTIPLEX_QUEUE_PENALTY;
use columbia::simnet::{
    simulate_on, simulate_parallel_on, ByteRule, CachedFabric, ClusterFabric, ConnectionLimit,
    ConnectionPolicy, Fabric, FaultPlan, MptVersion, Op, Peer, ProgramSet, Programs, SimOutcome,
    SpmdOp,
};
use columbia::spec::{compile, load_str};
use columbia::{PointKey, PointStore, ResilienceOptions};
use columbia_benchmark::stats::median;
use columbia_benchmark::workloads::{fixture, Rng};
use serde_json::Value;

use crate::Results;

/// Repetitions of the short probes; each reports the median.
const REPEATS: usize = 5;

/// The reference host's last-level cache (one 105 MiB L3). The triad's
/// three arrays together span four times that, so it streams from
/// memory while the probe stays near 420 MiB.
const LLC_BYTES: usize = 105 << 20;

/// Run `f` `n` times; return the last result and every duration.
fn repeat<R>(n: usize, mut f: impl FnMut() -> R) -> (R, Vec<f64>) {
    let mut samples = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(black_box(f()));
        samples.push(t.elapsed().as_secs_f64());
    }
    (last.expect("n >= 1"), samples)
}

/// Record the median of `samples` times `scale` as metric `name`.
fn record(results: &mut Results, name: &str, samples: &[f64], scale: f64) -> f64 {
    let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
    let m = median(&scaled);
    results.metric(name, m, &scaled);
    m
}

fn expect(what: &str, got: String, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, golden value is {want}"))
    }
}

/// Host calibration: a single-threaded STREAM triad and a blocked DGEMM.
/// No change to the simulator should move these; they tell runs on
/// different hosts apart.
pub fn host(results: &mut Results) {
    let triad = stream::measure(StreamOp::Triad, 4 * LLC_BYTES / 3 / 8, 3);
    results.single("host.stream_triad_gbs", triad.bytes_per_second / 1e9);

    let n = 512;
    let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 * 0.5).collect();
    let b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64 * 0.25).collect();
    let mut c = vec![0.0; n * n];
    let flops = dgemm::dgemm_flops(n, n, n);
    let (_, times) = repeat(REPEATS, || {
        dgemm::dgemm_blocked(n, n, n, 1.0, &a, &b, 0.0, &mut c);
        c[0]
    });
    let rates: Vec<f64> = times.iter().map(|t| flops / t / 1e9).collect();
    results.metric("host.dgemm_gflops", median(&rates), &rates);
}

/// The checkpoint store's write and read paths, on the 24 points of the
/// Fig. 6 spec: a resilient run saves them from its workers, then each
/// is loaded back by key.
pub fn store(scratch: &Path, results: &mut Results) -> Result<(), String> {
    let fig6 = fixture("fig6");
    let plan =
        compile(&load_str(fig6.spec).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let (fingerprint, n) = (plan.fingerprint(), plan.len());
    let dir = scratch.join("probe_store");
    let _ = fs::remove_dir_all(&dir);
    let open = || PointStore::open(&dir).map_err(|e| e.to_string());
    host::enable();
    let outcome = plan.run_resilient_with_jobs(
        2,
        ResilienceOptions {
            store: Some(open()?),
            experiment: Some("fig6".into()),
            ..ResilienceOptions::default()
        },
    );
    let telemetry = host::take().expect("host telemetry is on");
    if !outcome.is_clean() || outcome.report.to_text() + "\n" != fig6.golden {
        return Err("store probe: the Fig. 6 run does not match its golden".into());
    }
    let mut saves = Vec::new();
    let mut bytes = 0.0;
    for s in &telemetry.spans {
        if s.track == HostTrack::Store && s.label.starts_with("save") {
            saves.push(s.duration());
            if let Some((_, Value::Number(b))) = s.args.iter().find(|(k, _)| *k == "bytes") {
                bytes += b;
            }
        }
    }
    if saves.len() != n {
        return Err(format!("store probe: {} saves for {n} points", saves.len()));
    }
    record(results, "store.save_ms", &saves, 1e3);
    results.single("store.bytes_written", bytes);

    let store = open()?;
    let mut hits = 0;
    let mut loads = Vec::with_capacity(n);
    for index in 0..n {
        let key = PointKey {
            experiment: "fig6".into(),
            fingerprint,
            index,
        };
        let t = Instant::now();
        hits += usize::from(black_box(store.load(&key)).is_some());
        loads.push(t.elapsed().as_secs_f64());
    }
    record(results, "store.load_us", &loads, 1e6);
    results.single("store.hit_ratio", hits as f64 / n as f64);
    Ok(())
}

/// Runtime costing on the Fig. 11 point BT-MZ class E, 512 ranks x 2
/// threads over two InfiniBand-linked BX2b nodes, and the Table 5 MD
/// point at 1,008 CPUs.
pub fn runtime(results: &mut Results) -> Result<(), String> {
    let mut cfg = MzRunConfig::new(MzBenchmark::BtMz, MzClass::E, 512, 2);
    cfg.nodes = 2;
    cfg.inter = InterNodeFabric::InfiniBand;
    let ((spec, _), builds) = repeat(REPEATS, || build_spec(&cfg));
    record(results, "workload.mz_e_512x2.build_spec_ms", &builds, 1e3);

    let cluster = ClusterConfig::uniform(NodeKind::Bx2b, 2);
    let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
    let exec = ExecConfig {
        placement: Placement::new(&cluster, &nodes, 512, 2, PlacementStrategy::Dense),
        cluster: cluster.clone(),
        nodes,
        inter: InterNodeFabric::InfiniBand,
        mpt: MptVersion::Beta,
        compiler: CompilerVersion::V7_1,
        pinning: Pinning::Pinned,
        faults: FaultPlan::none(),
    };
    columbia::simnet::set_sim_threads(1);
    let (out, executes) = repeat(3, || execute(&spec, &exec));
    let out = out.map_err(|e| e.to_string())?;
    // Two simulated steps, as `npbmz::bench::run` rates them.
    let gflops = MzClass::E.total_points() as f64 * MzBenchmark::BtMz.flops_per_point()
        / (out.makespan / 2.0)
        / 1e9;
    expect(
        "BT-MZ E 512x2 IB beta Gflop/s",
        format!("{gflops:.3}"),
        "1388.921",
    )?;

    let (fabric, fabric_builds) = repeat(REPEATS, || CachedFabric::new(exec.fabric()));
    // The twin: the same ops with every compute phase replaced by one
    // fixed step, so its time is the engine's share of `execute`.
    let twin: Vec<Vec<Op>> = spec
        .ranks
        .iter()
        .map(|ops| ops.iter().map(twin_op).collect())
        .collect();
    let faults = FaultPlan::none().with_connection_limit(ib_limit(&cluster));
    let cpus = exec.placement.rank_cpus();
    let (twin_out, twins) = repeat(REPEATS, || simulate_on(&twin, &cpus, &fabric, &faults));
    twin_out.map_err(|e| e.to_string())?;

    let execute_s = record(results, "runtime.mz_e_512x2.execute_s", &executes, 1.0);
    let fabric_s = record(results, "fabric.mz_e_512x2.build_us", &fabric_builds, 1e6) / 1e6;
    let twin_s = record(results, "engine.mz_e_512x2.twin_ms", &twins, 1e3) / 1e3;
    let costing_s = execute_s - fabric_s - twin_s;
    results.single("runtime.mz_e_512x2.costing_s", costing_s);
    results.single("runtime.mz_e_512x2.ns_per_rank", costing_s * 1e9 / 512.0);

    let t = Instant::now();
    let md = weak_scaling_point(1008).map_err(|e| e.to_string())?;
    let md_s = t.elapsed().as_secs_f64();
    expect(
        "Table 5 s/step at 1008 CPUs",
        secs(md.seconds_per_step),
        "316.37 ms",
    )?;
    results.single("workload.md_weak_1008.point_s", md_s);
    Ok(())
}

fn twin_op(op: &SpecOp) -> Op {
    match *op {
        SpecOp::Work(_) => Op::Compute(1.0e-3),
        SpecOp::Send { to, bytes, tag } => Op::Send { to, bytes, tag },
        SpecOp::Recv { from, tag } => Op::Recv { from, tag },
        SpecOp::Exchange { with, bytes, tag } => Op::Exchange { with, bytes, tag },
        SpecOp::Barrier => Op::Barrier,
        SpecOp::AllReduce { bytes } => Op::AllReduce { bytes },
        SpecOp::AllToAll { bytes_per_pair } => Op::AllToAll { bytes_per_pair },
        SpecOp::Bcast { root, bytes } => Op::Bcast { root, bytes },
    }
}

/// The section 2 InfiniBand connection budget with multiplexing, as the
/// runtime applies it to every multi-node InfiniBand run.
fn ib_limit(cluster: &ClusterConfig) -> ConnectionLimit {
    ConnectionLimit {
        cards_per_node: cluster.ib_cards_per_node,
        connections_per_card: cluster.ib_connections_per_card,
        policy: ConnectionPolicy::Multiplex {
            queue_penalty: DEFAULT_MULTIPLEX_QUEUE_PENALTY,
        },
    }
}

/// The template both `kind = "columbia"` points run: three rounds of
/// compute, ring send/recv, node-pair exchange and allreduce, then a
/// broadcast and a barrier.
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

/// Bit-exact equality of two outcomes, except `FaultStats::events`: the
/// scheduler-event count is the one statistic documented to depend on
/// the engine's worklist order, and it never reaches a report.
fn same_outcome(a: &SimOutcome, b: &SimOutcome) -> bool {
    let bits = |o: &SimOutcome| -> Vec<u64> {
        let ranks = o.ranks.iter();
        std::iter::once(o.makespan.to_bits())
            .chain(ranks.flat_map(|r| [r.total, r.compute, r.comm].map(f64::to_bits)))
            .collect()
    };
    let (mut fa, mut fb) = (a.faults, b.faults);
    fa.events = 0;
    fb.events = 0;
    bits(a) == bits(b) && format!("{fa:?}") == format!("{fb:?}")
}

/// One Columbia configuration through the serial engine and the PDES
/// tier at two threads. Bit-identity is checked before anything is
/// timed. Returns the serial outcome and the serial and PDES timings.
fn engine_pair(
    set: &ProgramSet,
    cpus: &[CpuId],
    fabric: &CachedFabric,
    faults: &FaultPlan,
) -> Result<(SimOutcome, Vec<f64>, Vec<f64>), String> {
    let serial = simulate_on(set, cpus, fabric, faults).map_err(|e| e.to_string())?;
    let parallel = simulate_parallel_on(set, cpus, fabric, faults, 2).map_err(|e| e.to_string())?;
    if !same_outcome(&serial, &parallel) {
        return Err(format!(
            "PDES at 2 threads differs from the serial engine: makespan {} vs {}, faults {:?} vs {:?}",
            serial.makespan, parallel.makespan, serial.faults, parallel.faults
        ));
    }
    let (_, serial_t) = repeat(REPEATS, || simulate_on(set, cpus, fabric, faults));
    let (_, pdes_t) = repeat(REPEATS, || {
        simulate_parallel_on(set, cpus, fabric, faults, 2)
    });
    Ok((serial, serial_t, pdes_t))
}

/// The fabric, engine and PDES layers on the two Columbia points: the
/// 10,240-rank full machine over InfiniBand and the 2,048-rank
/// NUMAlink4 subsystem.
pub fn engine(seed: u64, results: &mut Results) -> Result<(), String> {
    columbia::simnet::set_sim_threads(1);
    let cluster = ClusterConfig::columbia();
    let ranks = cluster.total_cpus() as usize;
    let cpus: Vec<CpuId> = (0..cluster.nodes.len() as u32)
        .flat_map(|node| {
            let per = cluster.node_model(NodeId(node)).cpus;
            (0..per).map(move |c| CpuId::new(node, c))
        })
        .collect();
    let (fabric, builds) = repeat(REPEATS, || {
        CachedFabric::new(ClusterFabric::new(
            cluster.clone(),
            InterNodeFabric::InfiniBand,
            MptVersion::Beta,
            ranks as u32,
        ))
    });
    record(results, "fabric.columbia.build_us", &builds, 1e6);

    let set = ProgramSet::spmd(ranks, columbia_template());
    let faults = FaultPlan::none().with_connection_limit(ib_limit(&cluster));
    let (full, serial_t, pdes_t) = engine_pair(&set, &cpus, &fabric, &faults)?;
    expect("full-machine makespan", secs(full.makespan), "21.30 ms")?;
    expect(
        "full-machine multiplexed messages",
        full.faults.multiplexed_messages.to_string(),
        "30780",
    )?;
    let ops = set.total_ops() as f64;
    let serial_ms = record(results, "engine.full_machine.sim_ms", &serial_t, 1e3);
    let pdes_ms = record(results, "pdes.full_machine.sim_ms", &pdes_t, 1e3);
    results.single("engine.ns_per_op", serial_ms * 1e6 / ops);
    results.single("pdes.ns_per_op", pdes_ms * 1e6 / ops);
    results.single("pdes.speedup2", serial_ms / pdes_ms);
    results.single(
        "engine.multiplexed_msgs",
        full.faults.multiplexed_messages as f64,
    );

    let sub = cluster.numalink4_subsystem.clone();
    let sub_ranks = sub.len() * 512;
    let sub_cpus: Vec<CpuId> = sub
        .iter()
        .flat_map(|&node| (0..512).map(move |c| CpuId::new(node.0, c)))
        .collect();
    let sub_fabric = CachedFabric::new(ClusterFabric::new(
        cluster.clone(),
        InterNodeFabric::NumaLink4,
        MptVersion::Beta,
        sub_ranks as u32,
    ));
    let sub_set = ProgramSet::spmd(sub_ranks, columbia_template());
    let (subsystem, serial_t, pdes_t) =
        engine_pair(&sub_set, &sub_cpus, &sub_fabric, &FaultPlan::none())?;
    expect("subsystem makespan", secs(subsystem.makespan), "4.61 ms")?;
    record(results, "engine.subsystem.sim_ms", &serial_t, 1e3);
    record(results, "pdes.subsystem.sim_ms", &pdes_t, 1e3);

    // Latency plus bandwidth over a million seeded CPU pairs of the full
    // machine, through the cached tables the engine prices messages with.
    let mut rng = Rng::new(seed);
    let mut cpu = || {
        let r = rng.next_u64();
        CpuId::new((r % 20) as u32, ((r >> 32) % 512) as u32)
    };
    let pairs: Vec<(CpuId, CpuId)> = (0..1_000_000).map(|_| (cpu(), cpu())).collect();
    let (_, lookups) = repeat(3, || {
        pairs
            .iter()
            .map(|&(a, b)| fabric.latency(a, b) + fabric.bandwidth(a, b))
            .sum::<f64>()
    });
    record(
        results,
        "fabric.lookup_ns",
        &lookups,
        1e9 / pairs.len() as f64,
    );
    Ok(())
}

/// The observability layer on one recorded exchange shaped like a
/// `traced` point: capture, critical-path analysis, Chrome export,
/// serialization and the file write.
pub fn obs(seed: u64, scratch: &Path, results: &mut Results) -> Result<(), String> {
    let spec = format!(
        "schema = \"columbia-spec-v1\"\n[report]\nid = \"Probe\"\ntitle = \"obs probe\"\n\
         headers = [\"rank\", \"compute\", \"comm\", \"wait\", \"total\", \"wait %\"]\n\
         [[sweep]]\nkind = \"trace\"\nranks = 256\nnodes = 4\ndrop_prob = 0.05\niters = 30\n\
         top = 8\nseed = {}\n",
        Rng::new(seed).next_u64() >> 33
    );
    let plan = compile(&load_str(&spec).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    sink::install();
    let run = plan.run_with_jobs(1);
    let bundles = sink::take();
    run.map_err(|e| e.to_string())?;
    let spans: usize = bundles.iter().map(|b| b.spans.len()).sum();
    let edges: usize = bundles.iter().map(|b| b.edges.len()).sum();
    if bundles.is_empty() || edges == 0 {
        return Err("obs probe: nothing was recorded".into());
    }
    results.single("obs.spans", spans as f64);
    results.single("obs.edges", edges as f64);

    let (analyses, t) = repeat(3, || bundles.iter().map(analyze).collect::<Vec<_>>());
    if analyses.iter().any(|a| a.critical_path.truncated) {
        return Err("obs probe: a critical path is truncated".into());
    }
    let analyze_s = record(results, "obs.analyze_s", &t, 1.0);
    results.single("obs.analyze_ns_per_edge", analyze_s * 1e9 / edges as f64);
    let paths: Vec<CriticalPath> = analyses.iter().map(|a| a.critical_path.clone()).collect();
    let (doc, t) = repeat(3, || chrome_trace_with_flows(&bundles, None, &paths));
    record(results, "obs.export_s", &t, 1.0);
    let (json, t) = repeat(3, || serde_json::to_string(&doc));
    let serialize_s = record(results, "obs.serialize_s", &t, 1.0);
    let mb = json.len() as f64 / 1e6;
    results.single("obs.trace_mb", mb);
    results.single("obs.serialize_mb_per_s", mb / serialize_s);
    let path = scratch.join("probe_trace.json");
    let (written, t) = repeat(3, || fs::write(&path, &json));
    written.map_err(|e| format!("{}: {e}", path.display()))?;
    record(results, "obs.write_s", &t, 1.0);
    Ok(())
}
