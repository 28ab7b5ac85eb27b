//! Lower a validated [`Spec`] onto a [`SweepPlan`].
//!
//! Each `[[sweep]]` block expands its grid (cartesian product of the
//! declared axes, first axis slowest, like nested loops) into
//! independent sweep points. A point binds its axis values and
//! evaluates derived parameters. Its block's measurement kind, one
//! entry of [`KIND_TABLE`], then reads and checks the kind's parameters
//! and returns a [`Measure`]: the names its rows bind, the numeric
//! outputs `value` may name, and the closure that measures. Row and
//! note templates resolve every placeholder to one of those names or to
//! a parameter binding. All validation — parameter types and counts,
//! enum names, template placeholders, vector-parameter shapes — happens
//! here at compile time, so a compiled point can only fail with the
//! simulator's own [`SimError`].
//!
//! The measurement kinds call the workload crates' entry points
//! directly and read the bounds those entry points assert from the same
//! crates; the three free-form kinds `table1`/`trace`/`columbia` call
//! helpers in `crate::experiments`. The shipped `specs/` are the
//! experiments: `repro --exp` compiles them from their embedded text,
//! and `tests/golden/` pins every report byte.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

use columbia_hpcc::beff::{self, BeffSweep, Pattern};
use columbia_hpcc::{dgemm, stream};
use columbia_ins3d::perf::MAX_CPUS as INS3D_MAX_CPUS;
use columbia_ins3d::{iteration_seconds, Ins3dConfig};
use columbia_machine::cluster::{InterNodeFabric, NodeId};
use columbia_machine::node::NodeKind;
use columbia_md::scaling::weak_scaling_point_in;
use columbia_npb::cg::mpi_ranks_pair as cg_mpi_ranks_pair;
use columbia_npb::perf::MAX_CPUS as NPB_MAX_CPUS;
use columbia_npb::{gflops_per_cpu, NpbBenchmark, NpbClass, Paradigm};
use columbia_npbmz::bench::{run as mz_run, MzBenchmark, MzRunConfig};
use columbia_npbmz::MzClass;
use columbia_obs::RunContext;
use columbia_overflowd::{placement_strategy as overflow_placement, step_times, OverflowConfig};
use columbia_overset::systems::{ROTOR_BLOCKS, TURBOPUMP_BLOCKS};
use columbia_runtime::compiler::CompilerVersion;
use columbia_runtime::pinning::Pinning;
use columbia_runtime::placement::NODE_CPUS;
use columbia_simnet::fabric::MptVersion;
use columbia_simnet::fault::{
    Bound, BANDWIDTH_FACTOR, DEFAULT_MULTIPLEX_QUEUE_PENALTY, DROP_PROB, LATENCY_FACTOR,
    NON_NEGATIVE, SLOWDOWN_FACTOR,
};
use columbia_simnet::patterns::MIN_PROCS;
use columbia_simnet::{ConnectionLimit, ConnectionPolicy, FaultPlan, SimError};

use super::expr;
use super::model::{as_int, as_str, as_table, Fields, Spec, SweepSpec};
use super::toml::{Node, Span, Table, Value};
use super::{suggest, SpecError};
use crate::experiments::{columbia_output, table1_output, trace_output, TraceParams};
use crate::report::{gbs, gf, secs};
use crate::sweep::{PointOutput, RatioToFirst, SweepPlan, SweepPoint};

/// Ceiling on points one spec may expand to — a guard against
/// accidental (or fuzzed) combinatorial explosions.
const MAX_POINTS: usize = 100_000;

/// The bound on a count a workload takes as a `u32`.
const U32_COUNT: (usize, &str) = (u32::MAX as usize, "a 32-bit count");

fn invalid(span: Span, message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        line: span.line,
        col: span.col,
        message: message.into(),
    }
}

/// `what` (a quoted key) exceeds `max`, the bound `why` explains.
fn above(span: Span, what: &str, max: impl Display, why: &str, got: impl Display) -> SpecError {
    invalid(
        span,
        format!("{what} must be at most {max} ({why}), got {got}"),
    )
}

/// `v`, the value of `what` at `span`, if it is between 0 and `max`.
fn in_unsigned_range(span: Span, what: &str, v: i64, max: i64) -> Result<i64, SpecError> {
    if v < 0 || v > max {
        return Err(invalid(
            span,
            format!("{what} must be between 0 and {max}, got {v}"),
        ));
    }
    Ok(v)
}

/// The integer literal at `n`, between 0 and `max`: the largest value
/// of the field it sets, or `i64::MAX` for a `u64`.
fn unsigned(n: &Node, what: &str, max: i64) -> Result<i64, SpecError> {
    in_unsigned_range(n.span, what, as_int(n, what)?, max)
}

/// The entries of the list parameter `key` (a scalar is a one-entry
/// list), and how a diagnostic names one.
fn entries<'n>(n: &'n Node, key: &str) -> (&'n [Node], String) {
    match &n.value {
        Value::Array(items) => (items.as_slice(), format!("'{key}' entry")),
        _ => (std::slice::from_ref(n), format!("'{key}'")),
    }
}

/// Names for a diagnostic: comma-separated, or `none`.
fn listing(names: &[&str]) -> String {
    if names.is_empty() {
        "none".to_string()
    } else {
        names.join(", ")
    }
}

/// Compile a validated spec into a runnable plan.
pub fn compile(spec: &Spec) -> Result<SweepPlan, SpecError> {
    let headers: Vec<&str> = spec.report.headers.iter().map(String::as_str).collect();
    let mut plan = SweepPlan::new(&spec.report.id, &spec.report.title, &headers);
    plan.sim_threads = spec.sim_threads;
    for sweep in &spec.sweeps {
        expand_sweep(&mut plan, sweep, headers.len())?;
    }
    if plan.is_empty() {
        return Err(invalid(
            Span { line: 1, col: 1 },
            "spec expands to zero sweep points",
        ));
    }
    if let Some(c) = &spec.collate {
        if c.column >= spec.report.headers.len() {
            return Err(invalid(
                c.span,
                format!(
                    "collate column {} is out of range (report has {} columns)",
                    c.column,
                    spec.report.headers.len()
                ),
            ));
        }
        plan.collate = Some(RatioToFirst {
            column: c.column,
            decimals: c.decimals,
            suffix: c.suffix.clone(),
        });
    }
    for n in &spec.report.notes {
        plan.note(n);
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Measurement kinds

/// One measurement kind of the spec language.
struct Kind {
    /// The name a `[[sweep]]` block's `kind` selects it by.
    name: &'static str,
    /// Reads and checks the kind's parameters from one point's context.
    compile: fn(&mut ParamCtx<'_>) -> Result<Measure, SpecError>,
}

/// What one point of a kind measures.
struct Measure {
    /// The names each row of `run`'s output binds, in order, for the
    /// block's `row` template; `None` when `run` returns finished report
    /// rows and notes, and the block takes no `row`.
    outputs: Option<Vec<String>>,
    /// The numeric outputs `value` may name, in the order of `run`'s
    /// values.
    numeric: Vec<&'static str>,
    /// Runs the measurement.
    run: SweepPoint,
}

impl Measure {
    /// A measurement that renders its own rows and notes.
    fn raw(
        run: impl Fn(&RunContext) -> Result<PointOutput, SimError> + Send + Sync + 'static,
    ) -> Self {
        Measure {
            outputs: None,
            numeric: Vec::new(),
            run: Box::new(run),
        }
    }
}

/// Every measurement kind, in the order diagnostics list them.
const KIND_TABLE: [Kind; 12] = [
    Kind {
        name: "table1",
        compile: |_| Ok(Measure::raw(|_| Ok(table1_output()))),
    },
    Kind {
        name: "beff-in-node",
        compile: |p| {
            let (node, node_name) = p.enum_param("node", node_kind, None)?;
            let cpus = p.count_list("cpus", MIN_PROCS, U32_COUNT)?;
            let fixed = [node_name.to_string()];
            let names = ["pattern", "node", "cpus", "latency", "bandwidth"];
            Ok(p.measure(&names, &[], &[], move |_| {
                Ok(beff_rows(&beff::in_node_sweep(node, &cpus), &cpus, &fixed))
            }))
        },
    },
    Kind {
        name: "beff-multi",
        compile: |p| {
            let nodes = p.count("nodes", 1, Some(U32_COUNT), None)? as u32;
            let (inter, fabric_name) = p.enum_param("fabric", fabric, None)?;
            let (mptv, _) = p.enum_param("mpt", mpt, Some("beta"))?;
            let cpus = p.count_list("cpus", MIN_PROCS, U32_COUNT)?;
            let fixed = [fabric_name.to_string(), nodes.to_string()];
            let names = ["pattern", "fabric", "nodes", "cpus", "latency", "bandwidth"];
            Ok(p.measure(&names, &[], &[], move |_| {
                let sweep = beff::multi_node_sweep(nodes, inter, mptv, &cpus);
                Ok(beff_rows(&sweep, &cpus, &fixed))
            }))
        },
    },
    Kind {
        name: "dgemm",
        compile: |p| {
            let (node, node_name) = p.enum_param("node", node_kind, None)?;
            let stride = p
                .take_unsigned("stride", u32::MAX.into())?
                .map_or(1, |v| v as u32);
            let names = ["node", "stride", "gflops"];
            Ok(p.measure(&names, &[], &["gflops"], move |_| {
                let g = dgemm::simulate(node, stride).gflops_per_cpu;
                let row = vec![node_name.to_string(), stride.to_string(), gf(g)];
                Ok(PointOutput::row(row).with_value(g))
            }))
        },
    },
    Kind {
        name: "stream",
        compile: |p| {
            let (node, node_name) = p.enum_param("node", node_kind, None)?;
            let cpus_span = p.span_of("cpus");
            let cpus = p.count("cpus", 1, None, None)?;
            let node_cpus = NODE_CPUS as usize;
            let stride = p.count("stride", 1, Some((node_cpus, "a node's CPUs")), Some(1))?;
            if cpus > node_cpus / stride {
                let why = format!("the CPUs of one node at stride {stride}");
                return Err(above(cpus_span, "'cpus'", node_cpus / stride, &why, cpus));
            }
            let (cpus, stride) = (cpus as u32, stride as u32);
            let names = ["node", "stride", "cpus", "triad"];
            Ok(p.measure(&names, &[], &["triad"], move |_| {
                let t = stream::simulate(node, cpus, stride).triad();
                let row = vec![
                    node_name.to_string(),
                    stride.to_string(),
                    cpus.to_string(),
                    gbs(t),
                ];
                Ok(PointOutput::row(row).with_value(t))
            }))
        },
    },
    Kind {
        name: "npb",
        compile: |p| {
            let (bench, _) = p.enum_param("bench", npb_bench, None)?;
            let (class, _) = p.enum_param("class", npb_class, None)?;
            let (node, _) = p.enum_param("node", node_kind, None)?;
            let (par, _) = p.enum_param("paradigm", paradigm, None)?;
            let cpus = p.count_list("cpus", 1, (NPB_MAX_CPUS as usize, "one node's CPUs"))?;
            if bench == NpbBenchmark::Cg && par == Paradigm::Mpi {
                p.require_each("cpus", "1 or even (CG pairs MPI ranks)", cg_mpi_ranks_pair)?;
            }
            let compilers = p.enum_list("compiler", compiler, "7.1")?;
            let names = ["bench", "paradigm", "node", "cpus"];
            Ok(p.measure(&names, &["gflops"], &[], move |ctx| {
                let mut rows = Vec::new();
                for &n in &cpus {
                    let mut row = vec![
                        bench.name().to_string(),
                        par.name().to_string(),
                        node.name().to_string(),
                        n.to_string(),
                    ];
                    for &(v, _) in &compilers {
                        row.push(gf(gflops_per_cpu(ctx, bench, class, node, par, n, v)?));
                    }
                    rows.push(row);
                }
                Ok(PointOutput::rows(rows))
            }))
        },
    },
    Kind {
        name: "ins3d",
        compile: |p| {
            let kinds = p.enum_list("node", node_kind, "BX2b")?;
            let compilers = p.enum_list("compiler", compiler, "7.1")?;
            let blocks = (TURBOPUMP_BLOCKS, "the turbopump system's block count");
            let groups = p.count("groups", 1, Some(blocks), Some(36))?;
            let fit =
                format!("so that {groups} groups × 'threads' fit in one {INS3D_MAX_CPUS}-CPU node");
            let threads = p.count("threads", 1, Some((INS3D_MAX_CPUS / groups, &fit)), None)?;
            let names = ["groups", "threads", "cpus"];
            Ok(p.measure(&names, &["s_step"], &["s_step"], move |_| {
                let cpus = groups * threads;
                let mut row = vec![groups.to_string(), threads.to_string(), cpus.to_string()];
                let mut values = Vec::new();
                for &(kind, _) in &kinds {
                    for &(compiler, _) in &compilers {
                        let s = iteration_seconds(&Ins3dConfig {
                            kind,
                            groups,
                            threads,
                            compiler,
                        });
                        row.push(secs(s));
                        values.push(s);
                    }
                }
                Ok(PointOutput {
                    values,
                    ..PointOutput::row(row)
                })
            }))
        },
    },
    Kind {
        name: "overflow",
        compile: |p| {
            let kinds = p.enum_list("node", node_kind, "BX2b")?;
            let fabrics = p.enum_list("fabric", fabric, "NUMAlink4")?;
            let compilers = p.enum_list("compiler", compiler, "8.1")?;
            let procs_span = p.span_of("procs");
            let blocks = (ROTOR_BLOCKS, "the rotor-wake system's block count");
            let procs = p.count("procs", 1, Some(blocks), None)?;
            let threads = p.count("threads", 1, None, Some(1))?;
            let nodes = p.count("nodes", 1, Some(U32_COUNT), Some(1))? as u32;
            let cpus = procs.saturating_mul(threads);
            for &(kind, _) in &kinds {
                if let Err(per_node) = overflow_placement(kind, cpus, nodes) {
                    return Err(invalid(
                        procs_span,
                        format!(
                            "'procs' × 'threads' must fit {nodes} node(s) at {per_node} CPUs \
                             per node (the boot cpuset stays free unless the CPU count is a \
                             multiple of 512), got {cpus} CPUs"
                        ),
                    ));
                }
            }
            let names = ["procs", "threads", "nodes", "cpus"];
            let per = ["comm", "exec"];
            Ok(p.measure(&names, &per, &per, move |ctx| {
                let mut row = vec![
                    procs.to_string(),
                    threads.to_string(),
                    nodes.to_string(),
                    cpus.to_string(),
                ];
                let mut values = Vec::new();
                for &(kind, _) in &kinds {
                    for &(inter, _) in &fabrics {
                        for &(compiler, _) in &compilers {
                            let cfg = OverflowConfig {
                                kind,
                                procs,
                                threads,
                                nodes,
                                inter,
                                compiler,
                            };
                            let t = step_times(ctx, &cfg)?;
                            row.extend([secs(t.comm), secs(t.exec)]);
                            values.extend([t.comm, t.exec]);
                        }
                    }
                }
                Ok(PointOutput {
                    values,
                    ..PointOutput::row(row)
                })
            }))
        },
    },
    Kind {
        name: "mz",
        compile: |p| {
            let (bench, _) = p.enum_param("bench", mz_bench, None)?;
            let (class, class_name) = p.enum_param("class", mz_class, None)?;
            let procs_span = p.span_of("procs");
            let zones = format!("class {class_name}'s zone count");
            let procs = p.count("procs", 1, Some((class.zone_count(), &zones)), None)?;
            let threads = p.count("threads", 1, None, None)?;
            let (kind, node_name) = p.enum_param("node", node_kind, Some("BX2b"))?;
            let nodes = p.count("nodes", 1, Some(U32_COUNT), Some(1))? as u32;
            let cpus = procs.saturating_mul(threads);
            if cpus as u64 > u64::from(NODE_CPUS) * u64::from(nodes) {
                return Err(invalid(
                    procs_span,
                    format!(
                        "'procs' × 'threads' must fit {nodes} node(s) at {NODE_CPUS} CPUs \
                         per node, got {cpus} CPUs"
                    ),
                ));
            }
            let (inter, fabric_name) = p.enum_param("fabric", fabric, Some("NUMAlink4"))?;
            let (mptv, mpt_name) = p.enum_param("mpt", mpt, Some("beta"))?;
            let pinnings = p.enum_list("pinning", pinning, "pinned")?;
            let faults = match p.get("faults") {
                Some(n) => build_faults(p, as_table(n, "'faults'")?, nodes)?,
                None => FaultPlan::none(),
            };
            let base = MzRunConfig {
                kind,
                nodes,
                inter,
                mpt: mptv,
                faults,
                ..MzRunConfig::new(bench, class, procs, threads)
            };
            let fixed = vec![
                bench.name().to_string(),
                fabric_name.to_string(),
                mpt_name.to_string(),
                node_name.to_string(),
                procs.to_string(),
                threads.to_string(),
                cpus.to_string(),
                nodes.to_string(),
            ];
            let names = [
                "bench", "fabric", "mpt", "node", "procs", "threads", "cpus", "nodes",
            ];
            let per = [
                "s_step",
                "total_gflops",
                "gflops_per_cpu",
                "dropped",
                "retransmit_s",
                "muxed",
            ];
            Ok(p.measure(
                &names,
                &per,
                &["s_step", "total_gflops", "gflops_per_cpu"],
                move |ctx| {
                    let mut row = fixed.clone();
                    let mut values = Vec::new();
                    for &(pinning, _) in &pinnings {
                        let cfg = MzRunConfig {
                            pinning,
                            ..base.clone()
                        };
                        let r = mz_run(ctx, &cfg)?;
                        row.extend([
                            secs(r.seconds_per_step),
                            gf(r.total_gflops),
                            gf(r.gflops_per_cpu),
                            r.faults.dropped_messages.to_string(),
                            secs(r.faults.retransmit_delay),
                            r.faults.multiplexed_messages.to_string(),
                        ]);
                        values.extend([r.seconds_per_step, r.total_gflops, r.gflops_per_cpu]);
                    }
                    Ok(PointOutput {
                        values,
                        ..PointOutput::row(row)
                    })
                },
            ))
        },
    },
    Kind {
        name: "md-weak",
        compile: |p| {
            let cpus = p.count("cpus", 1, Some(U32_COUNT), None)? as u32;
            let names = ["cpus", "atoms", "s_step", "comm_step", "efficiency"];
            let numeric = ["s_step", "comm_step", "atoms"];
            Ok(p.measure(&names, &[], &numeric, move |ctx| {
                // The 1-CPU efficiency baseline is recomputed per point,
                // keeping points independent.
                let base = weak_scaling_point_in(ctx, 1)?;
                let w = weak_scaling_point_in(ctx, cpus)?;
                let row = vec![
                    cpus.to_string(),
                    w.atoms.to_string(),
                    secs(w.seconds_per_step),
                    secs(w.comm_per_step),
                    format!("{:.1}%", 100.0 * w.efficiency_vs(&base)),
                ];
                Ok(PointOutput {
                    values: vec![w.seconds_per_step, w.comm_per_step, w.atoms as f64],
                    ..PointOutput::row(row)
                })
            }))
        },
    },
    Kind {
        name: "trace",
        compile: |p| {
            let d = TraceParams::default();
            let ranks_span = p.span_of("ranks");
            let ranks = p.count("ranks", TraceParams::MIN_RANKS, None, Some(d.ranks))?;
            let nodes = p.count("nodes", 1, Some(U32_COUNT), Some(d.nodes as usize))?;
            let max = NODE_CPUS as usize * nodes;
            if ranks > max {
                let why = format!("{NODE_CPUS} ranks per node on {nodes} node(s)");
                return Err(above(ranks_span, "'ranks'", max, &why, ranks));
            }
            let drop_prob = match p.get("drop_prob") {
                Some(n) => p.bounded(n, "'drop_prob'", DROP_PROB)?,
                None => d.drop_prob,
            };
            let params = TraceParams {
                ranks,
                nodes: nodes as u32,
                drop_prob,
                seed: p
                    .take_unsigned("seed", i64::MAX)?
                    .map_or(d.seed, |v| v as u64),
                iters: p
                    .take_unsigned("iters", u32::MAX.into())?
                    .map_or(d.iters, |v| v as u32),
                top: p
                    .take_unsigned("top", i64::MAX)?
                    .map_or(d.top, |v| v as usize),
            };
            Ok(Measure::raw(move |ctx| trace_output(ctx, &params)))
        },
    },
    Kind {
        name: "columbia",
        compile: |p| {
            let (full, _) = p.enum_param("config", columbia_config, None)?;
            Ok(Measure::raw(move |ctx| columbia_output(ctx, full)))
        },
    },
];

/// b_eff rows: for each pattern and CPU count the sweep measured, the
/// pattern, `fixed`, the count, latency and bandwidth.
fn beff_rows(sweep: &BeffSweep, cpus: &[u32], fixed: &[String]) -> PointOutput {
    let mut rows = Vec::new();
    for pattern in Pattern::ALL {
        for &n in cpus {
            if let Some(p) = sweep.get(pattern, n) {
                let mut row = vec![pattern.name().to_string()];
                row.extend_from_slice(fixed);
                row.extend([n.to_string(), secs(p.latency), gbs(p.bandwidth)]);
                rows.push(row);
            }
        }
    }
    PointOutput::rows(rows)
}

// ---------------------------------------------------------------------------
// Templates

/// One piece of a `"text {name} text"` template: literal text, or a
/// placeholder — its name as parsed, its [`Slot`] once resolved.
#[derive(Debug, Clone)]
enum Seg<P> {
    Lit(String),
    Var(P),
}

/// Where a resolved placeholder reads its text.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The point's parameter binding of this index.
    Param(usize),
    /// The rendered row's output of this index.
    Output(usize),
}

/// A template whose placeholders are resolved.
type Template = Vec<Seg<Slot>>;

/// Split template text into literal text and placeholder names.
fn parse_template(text: &str, span: Span) -> Result<Vec<Seg<String>>, SpecError> {
    let mut segs = Vec::new();
    let mut lit = String::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
                lit.push('{');
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
                lit.push('}');
            }
            '{' => {
                if !lit.is_empty() {
                    segs.push(Seg::Lit(std::mem::take(&mut lit)));
                }
                let mut name = String::new();
                loop {
                    match chars.next() {
                        Some('}') => break,
                        Some(c)
                            if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-' =>
                        {
                            name.push(c)
                        }
                        Some(c) => {
                            return Err(invalid(
                                span,
                                format!(
                                    "bad character '{c}' in template placeholder \
                                     (names use A-Z a-z 0-9 _ . -)"
                                ),
                            ))
                        }
                        None => {
                            return Err(invalid(
                                span,
                                format!("unclosed '{{' in template \"{text}\""),
                            ))
                        }
                    }
                }
                if name.is_empty() {
                    return Err(invalid(span, "empty placeholder '{}' in template"));
                }
                segs.push(Seg::Var(name));
            }
            c => lit.push(c),
        }
    }
    if !lit.is_empty() {
        segs.push(Seg::Lit(lit));
    }
    Ok(segs)
}

/// Resolve each placeholder of the `what` template `parsed` to a slot:
/// a name among `outputs` shadows the same name among `params`. A name
/// in neither is an error at `span` that lists what is available.
fn resolve(
    parsed: &[Seg<String>],
    what: &str,
    span: Span,
    params: &[String],
    outputs: &[String],
) -> Result<Template, SpecError> {
    let slot = |name: &String| {
        let output = outputs.iter().position(|o| o == name).map(Slot::Output);
        output.or_else(|| params.iter().position(|p| p == name).map(Slot::Param))
    };
    parsed
        .iter()
        .map(|seg| match seg {
            Seg::Lit(l) => Ok(Seg::Lit(l.clone())),
            Seg::Var(name) => slot(name).map(Seg::Var).ok_or_else(|| {
                let available: BTreeSet<&str> =
                    params.iter().chain(outputs).map(String::as_str).collect();
                let available: Vec<&str> = available.into_iter().collect();
                let hint = suggest(name, &available)
                    .map(|s| format!(" (did you mean '{s}'?)"))
                    .unwrap_or_default();
                invalid(
                    span,
                    format!(
                        "unknown placeholder '{{{name}}}' in {what} template (available: {}){hint}",
                        listing(&available)
                    ),
                )
            }),
        })
        .collect()
}

/// Render a resolved template from a point's parameter bindings and one
/// row's outputs.
fn render(template: &Template, params: &[String], outputs: &[String]) -> String {
    let mut out = String::new();
    for seg in template {
        out.push_str(match seg {
            Seg::Lit(l) => l,
            Seg::Var(Slot::Param(i)) => &params[*i],
            Seg::Var(Slot::Output(i)) => &outputs[*i],
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Per-point parameter context

/// One point's view of a sweep block's parameters: the block entries
/// overlaid by this point's axis bindings and derived values, plus the
/// numeric environment for expressions.
struct ParamCtx<'a> {
    sweep: &'a SweepSpec,
    overlay: &'a BTreeMap<String, Node>,
    env: &'a BTreeMap<String, f64>,
    /// The block's entries, and every key asked of them: the keys the
    /// block may set.
    fields: Fields<'a>,
    /// The list-valued enum parameter, if any (at most one): its key,
    /// and its elements' canonical names.
    vector: Option<(&'static str, Vec<&'static str>)>,
}

impl<'a> ParamCtx<'a> {
    fn new(
        sweep: &'a SweepSpec,
        overlay: &'a BTreeMap<String, Node>,
        env: &'a BTreeMap<String, f64>,
    ) -> Self {
        ParamCtx {
            sweep,
            overlay,
            env,
            fields: Fields::new(&sweep.params),
            vector: None,
        }
    }

    fn get(&mut self, key: &'static str) -> Option<&'a Node> {
        let block = self.fields.take(key);
        self.overlay.get(key).or(block)
    }

    /// Where `key`'s value sits, for a check that needs later
    /// parameters too.
    fn span_of(&mut self, key: &'static str) -> Span {
        self.get(key).map(|n| n.span).unwrap_or_default()
    }

    fn missing(&self, key: &str) -> SpecError {
        invalid(
            self.sweep.kind_span,
            format!(
                "kind '{}' requires parameter '{key}' (block {})",
                self.sweep.kind, self.sweep.index
            ),
        )
    }

    /// A float: literal number, or a string evaluated as an expression
    /// over the point's numeric bindings.
    fn num_of(&self, node: &Node) -> Result<f64, SpecError> {
        match &node.value {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Str(s) => expr::eval(s, self.env)
                .map_err(|m| invalid(node.span, format!("in expression \"{s}\": {m}"))),
            v => Err(invalid(
                node.span,
                format!(
                    "expected a number or expression string, found {}",
                    v.type_name()
                ),
            )),
        }
    }

    fn int_of(&self, node: &Node, what: &str) -> Result<i64, SpecError> {
        let v = self.num_of(node)?;
        if v.fract() != 0.0 || !(-9.0e15..9.0e15).contains(&v) {
            return Err(invalid(
                node.span,
                format!("{what} must be an integer, got {v}"),
            ));
        }
        Ok(v as i64)
    }

    /// A number that must meet the fault plan's `bound`.
    fn bounded(&self, node: &Node, what: &str, bound: Bound) -> Result<f64, SpecError> {
        let v = self.num_of(node)?;
        if !bound.holds(v) {
            return Err(invalid(
                node.span,
                format!("{what} must be {}, got {v}", bound.must),
            ));
        }
        Ok(v)
    }

    fn take_unsigned(&mut self, key: &'static str, max: i64) -> Result<Option<i64>, SpecError> {
        match self.get(key) {
            Some(n) => {
                let what = format!("'{key}'");
                let v = self.int_of(n, &what)?;
                in_unsigned_range(n.span, &what, v, max).map(Some)
            }
            None => Ok(None),
        }
    }

    /// A count: an integer of at least `min` and, when `cap` is
    /// `Some((max, why))`, at most `max`, with `why` in the error. The
    /// workload entry points assert these bounds; checking them here
    /// rejects the spec at the value before anything runs.
    fn count_of(
        &self,
        node: &Node,
        what: &str,
        min: usize,
        cap: Option<(usize, &str)>,
    ) -> Result<usize, SpecError> {
        let v = self.int_of(node, what)?;
        if v < min as i64 {
            return Err(invalid(
                node.span,
                format!("{what} must be at least {min}, got {v}"),
            ));
        }
        match cap {
            Some((max, why)) if v as u64 > max as u64 => Err(above(node.span, what, max, why, v)),
            _ => Ok(v as usize),
        }
    }

    /// The count `key` (see [`ParamCtx::count_of`]), or `default` when
    /// absent; required when there is no default.
    fn count(
        &mut self,
        key: &'static str,
        min: usize,
        cap: Option<(usize, &str)>,
        default: Option<usize>,
    ) -> Result<usize, SpecError> {
        match (self.get(key), default) {
            (Some(n), _) => self.count_of(n, &format!("'{key}'"), min, cap),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(self.missing(key)),
        }
    }

    /// A required list of `u32` counts, each checked as by
    /// [`ParamCtx::count_of`]; a scalar is a one-element list.
    fn count_list(
        &mut self,
        key: &'static str,
        min: usize,
        cap: (usize, &str),
    ) -> Result<Vec<u32>, SpecError> {
        let n = self.get(key).ok_or_else(|| self.missing(key))?;
        if matches!(&n.value, Value::Array(items) if items.is_empty()) {
            return Err(invalid(n.span, format!("'{key}' must not be empty")));
        }
        let (items, what) = entries(n, key);
        items
            .iter()
            .map(|item| Ok(self.count_of(item, &what, min, Some(cap))? as u32))
            .collect()
    }

    /// Reject the first entry of the count list `key`, read by
    /// [`ParamCtx::count_list`], that breaks `rule`, at that entry;
    /// `must` says what the rule asks for.
    fn require_each(
        &mut self,
        key: &'static str,
        must: &str,
        rule: impl Fn(usize) -> bool,
    ) -> Result<(), SpecError> {
        let Some(n) = self.get(key) else {
            return Ok(());
        };
        let (items, what) = entries(n, key);
        for item in items {
            let v = self.int_of(item, &what)?;
            if !rule(v as usize) {
                return Err(invalid(
                    item.span,
                    format!("{what} must be {must}, got {v}"),
                ));
            }
        }
        Ok(())
    }

    fn take_str(&mut self, key: &'static str) -> Result<Option<(String, Span)>, SpecError> {
        match self.get(key) {
            Some(n) => Ok(Some((as_str(n, &format!("'{key}'"))?.to_string(), n.span))),
            None => Ok(None),
        }
    }

    fn take_bool(&mut self, key: &'static str) -> Result<Option<bool>, SpecError> {
        match self.get(key) {
            Some(n) => match &n.value {
                Value::Bool(b) => Ok(Some(*b)),
                v => Err(invalid(
                    n.span,
                    format!("'{key}' must be a boolean, found {}", v.type_name()),
                )),
            },
            None => Ok(None),
        }
    }

    /// An enum parameter and its canonical name: `default` (spec text)
    /// when absent, required when there is no default.
    fn enum_param<T>(
        &mut self,
        key: &'static str,
        parse: Parser<T>,
        default: Option<&str>,
    ) -> Result<(T, &'static str), SpecError> {
        match (self.get(key), default) {
            (Some(n), _) => parse(as_str(n, &format!("'{key}'"))?, n.span),
            (None, Some(d)) => parse(d, Span::NONE),
            (None, None) => Err(self.missing(key)),
        }
    }

    /// A vector-capable enum parameter: a string is one element, an
    /// array of strings a vector, whose elements suffix the kind's
    /// per-element outputs. At most one parameter per block may be a
    /// vector.
    fn enum_list<T>(
        &mut self,
        key: &'static str,
        parse: Parser<T>,
        default: &str,
    ) -> Result<Vec<(T, &'static str)>, SpecError> {
        let Some(n) = self.get(key) else {
            return Ok(vec![parse(default, Span::NONE)?]);
        };
        match &n.value {
            Value::Str(s) => Ok(vec![parse(s, n.span)?]),
            Value::Array(items) => {
                let mut out = Vec::new();
                for item in items {
                    out.push(parse(as_str(item, &format!("'{key}' entry"))?, item.span)?);
                }
                if out.is_empty() {
                    return Err(invalid(n.span, format!("'{key}' must not be empty")));
                }
                if let Some((first, _)) = &self.vector {
                    return Err(invalid(
                        n.span,
                        format!("only one parameter may be a list; '{first}' already is"),
                    ));
                }
                self.vector = Some((key, out.iter().map(|&(_, name)| name).collect()));
                Ok(out)
            }
            v => Err(invalid(
                n.span,
                format!(
                    "'{key}' must be a string or array of strings, found {}",
                    v.type_name()
                ),
            )),
        }
    }

    /// A measurement whose rows bind `names`, then `per` once for each
    /// element of the block's vector parameter, suffixed `.element`, or
    /// once unsuffixed when there is none. `value` may name `numeric`
    /// only without a vector, when the point measures once.
    fn measure(
        &self,
        names: &[&str],
        per: &[&str],
        numeric: &[&'static str],
        run: impl Fn(&RunContext) -> Result<PointOutput, SimError> + Send + Sync + 'static,
    ) -> Measure {
        let mut outputs: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        let numeric = match &self.vector {
            Some((_, elements)) => {
                for e in elements {
                    outputs.extend(per.iter().map(|base| format!("{base}.{e}")));
                }
                Vec::new()
            }
            None => {
                outputs.extend(per.iter().map(|base| base.to_string()));
                numeric.to_vec()
            }
        };
        Measure {
            outputs: Some(outputs),
            numeric,
            run: Box::new(run),
        }
    }

    /// Error on a block parameter nothing asked for, suggesting the
    /// closest key something did.
    fn finish(self) -> Result<(), SpecError> {
        let context = format!(
            "[[sweep]] block {} (kind '{}')",
            self.sweep.index, self.sweep.kind
        );
        self.fields.finish(&context)
    }
}

// ---------------------------------------------------------------------------
// Enum parsers (lenient on case, canonical on output)

/// Parses an enum parameter's text into its value and canonical name.
type Parser<T> = fn(&str, Span) -> Result<(T, &'static str), SpecError>;

fn bad_enum(span: Span, what: &str, got: &str, options: &[&str]) -> SpecError {
    let suggestion = suggest(got, options)
        .map(|s| format!(" (did you mean '{s}'?)"))
        .unwrap_or_default();
    invalid(
        span,
        format!(
            "unknown {what} '{got}' (available: {}){suggestion}",
            options.join(", ")
        ),
    )
}

/// The value whose canonical name in `named` is `s`, ignoring ASCII
/// case.
fn pick<T: Copy>(
    named: &[(T, &'static str)],
    what: &str,
    s: &str,
    span: Span,
) -> Result<(T, &'static str), SpecError> {
    match named.iter().find(|(_, name)| name.eq_ignore_ascii_case(s)) {
        Some(&found) => Ok(found),
        None => {
            let names: Vec<&str> = named.iter().map(|&(_, name)| name).collect();
            Err(bad_enum(span, what, s, &names))
        }
    }
}

fn node_kind(s: &str, span: Span) -> Result<(NodeKind, &'static str), SpecError> {
    let s = if s.eq_ignore_ascii_case("altix3700") {
        "3700"
    } else {
        s
    };
    pick(&NodeKind::ALL.map(|k| (k, k.name())), "node kind", s, span)
}

fn fabric(s: &str, span: Span) -> Result<(InterNodeFabric, &'static str), SpecError> {
    let s = match s.to_ascii_lowercase().as_str() {
        "nl4" => "NUMAlink4",
        "ib" => "InfiniBand",
        _ => s,
    };
    let all = [InterNodeFabric::NumaLink4, InterNodeFabric::InfiniBand];
    pick(&all.map(|f| (f, f.name())), "fabric", s, span)
}

fn compiler(s: &str, span: Span) -> Result<(CompilerVersion, &'static str), SpecError> {
    for v in CompilerVersion::ALL {
        if v.name() == s {
            return Ok((v, v.name()));
        }
    }
    let names: Vec<&str> = CompilerVersion::ALL.iter().map(|v| v.name()).collect();
    Err(bad_enum(span, "compiler version", s, &names))
}

fn paradigm(s: &str, span: Span) -> Result<(Paradigm, &'static str), SpecError> {
    pick(&Paradigm::ALL.map(|p| (p, p.name())), "paradigm", s, span)
}

fn npb_bench(s: &str, span: Span) -> Result<(NpbBenchmark, &'static str), SpecError> {
    pick(
        &NpbBenchmark::ALL.map(|b| (b, b.name())),
        "NPB benchmark",
        s,
        span,
    )
}

fn npb_class(s: &str, span: Span) -> Result<(NpbClass, &'static str), SpecError> {
    pick(&NpbClass::ALL.map(|c| (c, c.name())), "NPB class", s, span)
}

fn mz_bench(s: &str, span: Span) -> Result<(MzBenchmark, &'static str), SpecError> {
    let canon = s.to_ascii_lowercase().replace('_', "-");
    let b = match canon.as_str() {
        "bt-mz" => MzBenchmark::BtMz,
        "sp-mz" => MzBenchmark::SpMz,
        _ => {
            return Err(bad_enum(
                span,
                "multi-zone benchmark",
                s,
                &["BT-MZ", "SP-MZ"],
            ))
        }
    };
    Ok((b, b.name()))
}

fn mz_class(s: &str, span: Span) -> Result<(MzClass, &'static str), SpecError> {
    pick(
        &MzClass::ALL.map(|c| (c, c.name())),
        "multi-zone class",
        s,
        span,
    )
}

fn mpt(s: &str, span: Span) -> Result<(MptVersion, &'static str), SpecError> {
    let named = [
        (MptVersion::Beta, "beta"),
        (MptVersion::Released, "released"),
    ];
    pick(&named, "MPT version", s, span)
}

fn pinning(s: &str, span: Span) -> Result<(Pinning, &'static str), SpecError> {
    let named = [(Pinning::Pinned, "pinned"), (Pinning::Unpinned, "unpinned")];
    pick(&named, "pinning", s, span)
}

fn columbia_config(s: &str, span: Span) -> Result<(bool, &'static str), SpecError> {
    match s {
        "full-machine" => Ok((true, "full-machine")),
        "subsystem" => Ok((false, "subsystem")),
        _ => Err(bad_enum(
            span,
            "columbia configuration",
            s,
            &["full-machine", "subsystem"],
        )),
    }
}

// ---------------------------------------------------------------------------
// Fault plans from data

/// The fault plan of a `faults` table for a point on `nodes` nodes.
/// Each value is checked at the value against the bound
/// `simnet::fault` states for it, or against the type of the plan
/// field it sets; a node index must name one of the point's nodes.
fn build_faults(ctx: &ParamCtx<'_>, table: &Table, nodes: u32) -> Result<FaultPlan, SpecError> {
    let mut f = Fields::new(&table.entries);
    let mut plan = FaultPlan::none();
    if let Some(n) = f.take("seed") {
        plan.seed = unsigned(n, "'seed'", i64::MAX)? as u64;
    }
    if let Some(n) = f.take("drop_prob") {
        plan.drop_prob = ctx.bounded(n, "'drop_prob'", DROP_PROB)?;
    }
    if let Some(n) = f.take("retransmit_timeout") {
        plan.retransmit.timeout = ctx.bounded(n, "'retransmit_timeout'", NON_NEGATIVE)?;
    }
    if let Some(n) = f.take("retransmit_backoff") {
        plan.retransmit.backoff = ctx.bounded(n, "'retransmit_backoff'", NON_NEGATIVE)?;
    }
    if let Some(n) = f.take("retransmit_max_retries") {
        let max = u32::MAX.into();
        plan.retransmit.max_retries = unsigned(n, "'retransmit_max_retries'", max)? as u32;
    }
    let factor_of = |g: &mut Fields<'_>, key: &'static str, bound: Bound| {
        g.take(key)
            .map(|x| ctx.bounded(x, &format!("'{key}'"), bound))
            .transpose()
            .map(|v| v.unwrap_or(1.0))
    };
    if let Some(n) = f.take("degrade_link") {
        let t = as_table(n, "'degrade_link'")?;
        let mut g = Fields::new(&t.entries);
        let a = link_end(&mut g, n.span, "a", nodes, None)?;
        let b = link_end(&mut g, n.span, "b", nodes, Some(a))?;
        let lat = factor_of(&mut g, "latency_factor", LATENCY_FACTOR)?;
        let bw = factor_of(&mut g, "bandwidth_factor", BANDWIDTH_FACTOR)?;
        g.finish("'degrade_link'")?;
        plan = plan.degrade_link(a, b, lat, bw);
    }
    if let Some(n) = f.take("fail_link") {
        let t = as_table(n, "'fail_link'")?;
        let mut g = Fields::new(&t.entries);
        let a = link_end(&mut g, n.span, "a", nodes, None)?;
        let b = link_end(&mut g, n.span, "b", nodes, Some(a))?;
        g.finish("'fail_link'")?;
        plan = plan.fail_link(a, b);
    }
    if let Some(n) = f.take("slow_node") {
        let t = as_table(n, "'slow_node'")?;
        let mut g = Fields::new(&t.entries);
        let node = link_end(&mut g, n.span, "node", nodes, None)?;
        let factor = factor_of(&mut g, "factor", SLOWDOWN_FACTOR)?;
        g.finish("'slow_node'")?;
        plan = plan.slow_node(node, factor);
    }
    if let Some(n) = f.take("connection_limit") {
        let t = as_table(n, "'connection_limit'")?;
        let mut g = Fields::new(&t.entries);
        let missing = |k: &str| invalid(n.span, format!("'connection_limit' requires '{k}'"));
        let cards_node = g.take("cards").ok_or_else(|| missing("cards"))?;
        let cards = unsigned(cards_node, "'cards'", u32::MAX.into())? as u32;
        let per_card_node = g.take("per_card").ok_or_else(|| missing("per_card"))?;
        let per_card = unsigned(per_card_node, "'per_card'", i64::MAX)? as u64;
        let policy_node = g.take("policy").ok_or_else(|| missing("policy"))?;
        let policy_name = as_str(policy_node, "'policy'")?;
        let queue_penalty = g
            .take("queue_penalty")
            .map(|x| ctx.bounded(x, "'queue_penalty'", NON_NEGATIVE))
            .transpose()?
            .unwrap_or(DEFAULT_MULTIPLEX_QUEUE_PENALTY);
        let policy = match policy_name {
            "fail" => ConnectionPolicy::Fail,
            "multiplex" => {
                // Multiplexing divides by the budget: a node needs at
                // least one connection to queue behind.
                for (node, v, key) in [
                    (cards_node, cards.into(), "cards"),
                    (per_card_node, per_card, "per_card"),
                ] {
                    if v == 0 {
                        return Err(invalid(
                            node.span,
                            format!("'{key}' must be at least 1 under policy \"multiplex\", got 0"),
                        ));
                    }
                }
                ConnectionPolicy::Multiplex { queue_penalty }
            }
            other => {
                return Err(bad_enum(
                    policy_node.span,
                    "connection policy",
                    other,
                    &["fail", "multiplex"],
                ))
            }
        };
        g.finish("'connection_limit'")?;
        plan = plan.with_connection_limit(ConnectionLimit {
            cards_per_node: cards,
            connections_per_card: per_card,
            policy,
        });
    }
    if let Some(n) = f.take("event_budget") {
        plan.event_budget = Some(unsigned(n, "'event_budget'", i64::MAX)? as u64);
    }
    f.finish("[sweep] 'faults'")?;
    Ok(plan)
}

/// The node index `key`, one of the point's `nodes` nodes, and not
/// `a`, the link end read before it: traffic inside a node never takes
/// a link, so a link from a node to itself would fault nothing.
fn link_end(
    g: &mut Fields<'_>,
    span: Span,
    key: &'static str,
    nodes: u32,
    a: Option<NodeId>,
) -> Result<NodeId, SpecError> {
    let n = g
        .take(key)
        .ok_or_else(|| invalid(span, format!("missing '{key}' (a node index)")))?;
    let v = as_int(n, key)?;
    if !(0..i64::from(nodes)).contains(&v) {
        return Err(invalid(
            n.span,
            format!("'{key}' must be a node index below 'nodes' = {nodes}, got {v}"),
        ));
    }
    if a == Some(NodeId(v as u32)) {
        return Err(invalid(
            n.span,
            format!("'{key}' must name a node other than 'a' = {v}: a link joins two nodes"),
        ));
    }
    Ok(NodeId(v as u32))
}

// ---------------------------------------------------------------------------
// Sweep expansion

/// Expand one `[[sweep]]` block into plan points.
fn expand_sweep(plan: &mut SweepPlan, sweep: &SweepSpec, columns: usize) -> Result<(), SpecError> {
    let Some(kind) = KIND_TABLE.iter().find(|k| k.name == sweep.kind) else {
        let names: Vec<&str> = KIND_TABLE.iter().map(|k| k.name).collect();
        let suggestion = suggest(&sweep.kind, &names)
            .map(|s| format!(" (did you mean '{s}'?)"))
            .unwrap_or_default();
        return Err(invalid(
            sweep.kind_span,
            format!(
                "unknown kind '{}' (available: {}){suggestion}",
                sweep.kind,
                names.join(", ")
            ),
        ));
    };

    // Grid axes: each element binds either the axis name (scalar) or
    // each key of an inline table (tuple point).
    let mut axes: Vec<Vec<Vec<(String, Node)>>> = Vec::new();
    for axis in &sweep.grid {
        let mut points = Vec::new();
        for v in &axis.values {
            match &v.value {
                Value::Table(t) => {
                    let mut bindings = Vec::new();
                    for e in &t.entries {
                        if matches!(e.node.value, Value::Array(_) | Value::Table(_)) {
                            return Err(invalid(
                                e.node.span,
                                format!(
                                    "tuple axis '{}' entries must be scalar, key '{}' is {}",
                                    axis.name,
                                    e.key,
                                    e.node.value.type_name()
                                ),
                            ));
                        }
                        bindings.push((e.key.clone(), e.node.clone()));
                    }
                    points.push(bindings);
                }
                Value::Array(_) => {
                    return Err(invalid(
                        v.span,
                        format!(
                            "grid axis '{}' elements must be scalars or inline tables",
                            axis.name
                        ),
                    ))
                }
                _ => points.push(vec![(axis.name.clone(), v.clone())]),
            }
        }
        axes.push(points);
    }

    let total: usize = axes.iter().map(Vec::len).product();
    if total > MAX_POINTS {
        return Err(invalid(
            sweep.kind_span,
            format!("grid expands to {total} points (maximum {MAX_POINTS})"),
        ));
    }
    if plan.len() + total > MAX_POINTS {
        return Err(invalid(
            sweep.kind_span,
            format!("spec expands past {MAX_POINTS} total points"),
        ));
    }

    // Odometer over the axes, first axis slowest (nested-loop
    // order).
    let mut idx = vec![0usize; axes.len()];
    loop {
        expand_point(plan, sweep, kind, columns, &axes, &idx)?;
        let mut k = axes.len();
        loop {
            if k == 0 {
                return Ok(());
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < axes[k].len() {
                break;
            }
            idx[k] = 0;
        }
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Compile one grid point of one block into a plan point.
fn expand_point(
    plan: &mut SweepPlan,
    sweep: &SweepSpec,
    kind: &Kind,
    columns: usize,
    axes: &[Vec<Vec<(String, Node)>>],
    idx: &[usize],
) -> Result<(), SpecError> {
    // Point bindings: axis values, then derived parameters.
    let mut overlay: BTreeMap<String, Node> = BTreeMap::new();
    let mut disp: BTreeMap<String, String> = BTreeMap::new();
    let mut env: BTreeMap<String, f64> = BTreeMap::new();
    for (axis, &i) in axes.iter().zip(idx) {
        for (name, node) in &axis[i] {
            match &node.value {
                Value::Int(v) => {
                    disp.insert(name.clone(), v.to_string());
                    env.insert(name.clone(), *v as f64);
                }
                Value::Float(v) => {
                    disp.insert(name.clone(), fmt_num(*v));
                    env.insert(name.clone(), *v);
                }
                Value::Str(s) => {
                    disp.insert(name.clone(), s.clone());
                }
                Value::Bool(b) => {
                    disp.insert(name.clone(), b.to_string());
                }
                _ => {}
            }
            overlay.insert(name.clone(), node.clone());
        }
    }
    // Scalar numeric block parameters join the expression scope (so
    // `nodes = "ceildiv(procs * threads, 512)"` can reference a fixed
    // `procs`), without overriding axis bindings.
    for e in &sweep.params {
        match &e.node.value {
            Value::Int(v) => {
                env.entry(e.key.clone()).or_insert(*v as f64);
            }
            Value::Float(v) => {
                env.entry(e.key.clone()).or_insert(*v);
            }
            _ => {}
        }
    }
    for d in &sweep.derived {
        let v = expr::eval(&d.expr, &env)
            .map_err(|m| invalid(d.expr_span, format!("derived parameter '{}': {m}", d.name)))?;
        env.insert(d.name.clone(), v);
        disp.insert(d.name.clone(), fmt_num(v));
        overlay.insert(
            d.name.clone(),
            Node {
                value: if v.fract() == 0.0 && v.abs() < 9.0e15 {
                    Value::Int(v as i64)
                } else {
                    Value::Float(v)
                },
                span: d.expr_span,
            },
        );
    }

    let mut p = ParamCtx::new(sweep, &overlay, &env);

    // Generic parameters.
    let row = match p.get("row") {
        Some(n) => match &n.value {
            Value::Array(items) => {
                let mut cells = Vec::new();
                for item in items {
                    cells.push(parse_template(as_str(item, "'row' cell")?, item.span)?);
                }
                if cells.len() != columns {
                    return Err(invalid(
                        n.span,
                        format!(
                            "'row' has {} cells but the report has {columns} columns",
                            cells.len()
                        ),
                    ));
                }
                Some((cells, n.span))
            }
            v => {
                return Err(invalid(
                    n.span,
                    format!(
                        "'row' must be an array of template strings, found {}",
                        v.type_name()
                    ),
                ))
            }
        },
        None => None,
    };
    let note = match p.take_str("note")? {
        Some((s, span)) => Some((parse_template(&s, span)?, span)),
        None => None,
    };
    let value = p.take_str("value")?;
    let expect_error = p.take_bool("expect_error")?.unwrap_or(false);
    if let Some((label, _)) = p.take_str("label")? {
        disp.insert("label".into(), label);
    }

    // The measurement.
    let measure = (kind.compile)(&mut p)?;
    p.finish()?;

    // Resolve templates and `value` against what the point binds: a row
    // renders from the parameter bindings and its outputs; a note from
    // the parameter bindings, and from `{error}` when the point is
    // expected to fail, since only a failure renders it then.
    let (names, params): (Vec<String>, Vec<String>) = disp.into_iter().unzip();
    let row_templates = match (&measure.outputs, row) {
        (Some(outputs), Some((cells, span))) => Some(
            cells
                .iter()
                .map(|c| resolve(c, "row", span, &names, outputs))
                .collect::<Result<Vec<_>, _>>()?,
        ),
        (Some(_), None) => {
            return Err(invalid(
                sweep.kind_span,
                format!(
                    "kind '{}' requires a 'row' template (block {})",
                    sweep.kind, sweep.index
                ),
            ))
        }
        (None, Some((_, span))) => {
            return Err(invalid(
                span,
                format!(
                    "kind '{}' emits its own rows; 'row' is not allowed",
                    sweep.kind
                ),
            ))
        }
        (None, None) => None,
    };
    let error = if expect_error {
        vec!["error".to_string()]
    } else {
        Vec::new()
    };
    let note_template = match note {
        Some((t, span)) => Some(resolve(&t, "note", span, &names, &error)?),
        None => None,
    };
    let value_slot = match value {
        Some((name, span)) => {
            let slot = measure.numeric.iter().position(|n| *n == name);
            Some(slot.ok_or_else(|| {
                invalid(
                    span,
                    format!(
                        "'value' names unknown numeric output '{name}' for kind '{}' \
                         (available: {})",
                        sweep.kind,
                        listing(&measure.numeric)
                    ),
                )
            })?)
        }
        None => None,
    };

    let run = measure.run;
    plan.point(move |ctx| match run(ctx) {
        // The measurement was expected to fail but did not: contribute
        // nothing (the degraded experiment's fail-fast probe).
        Ok(_) if expect_error => Ok(PointOutput::default()),
        Ok(mut out) => {
            if let Some(templates) = &row_templates {
                let render_row = |r: &Vec<String>| {
                    let cells = templates.iter().map(|t| render(t, &params, r));
                    cells.collect()
                };
                out.rows = out.rows.iter().map(render_row).collect();
                out.values = value_slot.map(|i| out.values[i]).into_iter().collect();
            }
            if let Some(t) = &note_template {
                out.notes.push(render(t, &params, &[]));
            }
            Ok(out)
        }
        Err(err) if expect_error => {
            let mut out = PointOutput::default();
            if let Some(t) = &note_template {
                out.notes.push(render(t, &params, &[err.to_string()]));
            }
            Ok(out)
        }
        Err(err) => Err(err),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::load_str;

    const DGEMM_SPEC: &str = r#"
schema = "columbia-spec-v1"

[report]
id = "T"
title = "dgemm demo"
headers = ["benchmark", "node", "per-CPU result"]

[[sweep]]
kind = "dgemm"
row = ["DGEMM", "{node}", "{gflops} Gflop/s"]

[sweep.grid]
node = ["3700", "BX2a", "BX2b"]
"#;

    #[test]
    fn grid_expands_in_declaration_order() {
        let plan = compile(&load_str(DGEMM_SPEC).unwrap()).unwrap();
        assert_eq!(plan.len(), 3);
        let report = plan.run_with_jobs(1).unwrap();
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0][1], "3700");
        assert_eq!(report.rows[2][1], "BX2b");
        assert!(report.rows[0][2].ends_with("Gflop/s"));
    }

    #[test]
    fn unknown_kind_and_params_suggest() {
        let bad_kind = DGEMM_SPEC.replace("\"dgemm\"", "\"dgem\"");
        let err = compile(&load_str(&bad_kind).unwrap()).unwrap_err();
        assert!(err.to_string().contains("did you mean 'dgemm'"), "{err}");

        let bad_param = DGEMM_SPEC.replace("row =", "rwo =");
        let err = compile(&load_str(&bad_param).unwrap()).unwrap_err();
        assert!(err.to_string().contains("did you mean 'row'"), "{err}");
    }

    #[test]
    fn template_placeholders_are_validated() {
        let bad = DGEMM_SPEC.replace("{gflops}", "{gflop}");
        let err = compile(&load_str(&bad).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("unknown placeholder '{gflop}'"),
            "{err}"
        );
        assert!(err.to_string().contains("did you mean 'gflops'"), "{err}");
    }

    /// A note renders from the point's parameter bindings, and from
    /// `{error}` only when the point is expected to fail; anything else
    /// is an error at the note.
    #[test]
    fn note_templates_name_only_what_they_render_from() {
        let with = |extra: &str| {
            let text = DGEMM_SPEC.replace("Gflop/s\"]\n", &format!("Gflop/s\"]\n{extra}\n"));
            compile(&load_str(&text).unwrap()).map(|_| ())
        };
        assert_eq!(with("note = \"on {node}\""), Ok(()));
        assert_eq!(
            with("expect_error = true\nnote = \"on {node}: {error}\""),
            Ok(())
        );
        for note in ["note = \"{gflops}\"", "note = \"{error}\""] {
            let err = with(note).unwrap_err().to_string();
            assert!(err.starts_with("12:8: unknown placeholder"), "{err}");
            assert!(err.contains("in note template (available: node)"), "{err}");
        }
    }

    #[test]
    fn derived_parameters_feed_numeric_positions() {
        let spec = load_str(
            r#"
schema = "columbia-spec-v1"

[report]
id = "S"
title = "stream demo"
headers = ["stride", "cpus", "triad"]

[[sweep]]
kind = "stream"
node = "3700"
cpus = "64 * stride"
row = ["{stride}", "{cpus}", "{triad} GB/s"]

[sweep.grid]
stride = [1, 2]
"#,
        )
        .unwrap();
        let plan = compile(&spec).unwrap();
        assert_eq!(plan.len(), 2);
        let report = plan.run_with_jobs(1).unwrap();
        assert_eq!(report.rows[0][1], "64");
        assert_eq!(report.rows[1][1], "128");
    }

    /// The counts the overset workloads assert on are checked on either
    /// side of each bound, and an out-of-range one is an error at its
    /// own key, which each case writes last. An OVERFLOW-D point must
    /// also fit its nodes under `step_times`'s placement: a whole
    /// rotor-wake system of 1,679 processes needs four nodes.
    #[test]
    fn overset_counts_are_checked_at_their_key() {
        let cases = [
            (
                "overflow",
                "procs = 0",
                Some("'procs' must be at least 1, got 0"),
            ),
            (
                "overflow",
                "procs = 1680",
                Some("'procs' must be at most 1679"),
            ),
            ("overflow", "nodes = 4\nprocs = 1679", None),
            (
                "overflow",
                "procs = 1016",
                Some("'procs' × 'threads' must fit 1 node(s) at 508 CPUs per node"),
            ),
            ("overflow", "procs = 512", None),
            (
                "overflow",
                "threads = 2\nprocs = 255",
                Some("'procs' × 'threads' must fit 1 node(s) at 508 CPUs per node"),
            ),
            ("overflow", "threads = 2\nprocs = 254", None),
            (
                "overflow",
                "procs = 8\nthreads = 0",
                Some("'threads' must be at least 1"),
            ),
            (
                "overflow",
                "procs = 8\nnodes = 0",
                Some("'nodes' must be at least 1"),
            ),
            (
                "ins3d",
                "threads = 1\ngroups = 268",
                Some("'groups' must be at most 267"),
            ),
            ("ins3d", "groups = 267\nthreads = 1", None),
            ("ins3d", "threads = 0", Some("'threads' must be at least 1")),
            (
                "ins3d",
                "groups = 2\nthreads = 257",
                Some("'threads' must be at most 256"),
            ),
            ("ins3d", "groups = 2\nthreads = 256", None),
        ];
        check_counts(&cases);
    }

    /// Every other count a workload asserts on is checked on either side
    /// of its bound, at the value, which each case writes last.
    #[test]
    fn every_kind_checks_its_counts_at_the_value() {
        let cases = [
            (
                "mz",
                "threads = 1\nprocs = 0",
                Some("'procs' must be at least 1, got 0"),
            ),
            (
                "mz",
                "procs = 1\nthreads = 0",
                Some("'threads' must be at least 1"),
            ),
            (
                "mz",
                "procs = 1\nthreads = 1\nnodes = 0",
                Some("'nodes' must be at least 1"),
            ),
            (
                "mz",
                "threads = 1\nprocs = 17",
                Some("'procs' must be at most 16 (class A's zone count), got 17"),
            ),
            ("mz", "threads = 1\nprocs = 16", None),
            (
                "mz",
                "threads = 33\nprocs = 16",
                Some("'procs' × 'threads' must fit 1 node(s) at 512 CPUs per node"),
            ),
            ("mz", "threads = 32\nprocs = 16", None),
            ("mz", "threads = 64\nnodes = 2\nprocs = 16", None),
            (
                "npb",
                "bench = \"MG\"\ncpus = [4, 0]",
                Some("'cpus' entry must be at least 1"),
            ),
            (
                "npb",
                "bench = \"MG\"\ncpus = 513",
                Some("'cpus' must be at most 512"),
            ),
            ("npb", "bench = \"MG\"\ncpus = [1, 512]", None),
            ("npb", "bench = \"MG\"\ncpus = 3", None),
            (
                "npb",
                "bench = \"CG\"\ncpus = [2, 3]",
                Some("'cpus' entry must be 1 or even (CG pairs MPI ranks), got 3"),
            ),
            ("npb", "bench = \"CG\"\ncpus = [1, 2, 512]", None),
            ("md-weak", "cpus = 0", Some("'cpus' must be at least 1")),
            ("md-weak", "cpus = 1", None),
            ("stream", "cpus = 0", Some("'cpus' must be at least 1")),
            (
                "stream",
                "cpus = 1\nstride = 0",
                Some("'stride' must be at least 1"),
            ),
            (
                "stream",
                "cpus = 1\nstride = 513",
                Some("'stride' must be at most 512"),
            ),
            ("stream", "cpus = 513", Some("'cpus' must be at most 512")),
            ("stream", "cpus = 512", None),
            (
                "stream",
                "stride = 2\ncpus = 257",
                Some("'cpus' must be at most 256"),
            ),
            ("stream", "stride = 2\ncpus = 256", None),
            (
                "beff-in-node",
                "cpus = [4, 1]",
                Some("'cpus' entry must be at least 2"),
            ),
            ("beff-in-node", "cpus = [2]", None),
            (
                "beff-multi",
                "cpus = [4]\nnodes = 0",
                Some("'nodes' must be at least 1"),
            ),
            (
                "beff-multi",
                "nodes = 2\ncpus = 1",
                Some("'cpus' must be at least 2"),
            ),
            ("beff-multi", "nodes = 2\ncpus = [2]", None),
            (
                "trace",
                "ranks = 1",
                Some("'ranks' must be at least 2, got 1"),
            ),
            ("trace", "nodes = 0", Some("'nodes' must be at least 1")),
            (
                "trace",
                "nodes = 1\nranks = 513",
                Some("'ranks' must be at most 512"),
            ),
            ("trace", "nodes = 1\nranks = 512", None),
            (
                "trace",
                "ranks = 4\ndrop_prob = 1.0",
                Some("'drop_prob' must be in [0, 1)"),
            ),
            ("trace", "ranks = 2", None),
        ];
        check_counts(&cases);
    }

    /// Every fault-plan value is checked on either side of the bound
    /// `simnet::fault` states for it, or of the range of the field it
    /// sets, at the value.
    #[test]
    fn fault_values_are_checked_at_the_value() {
        let cases = [
            ("seed = -7", Some("'seed' must be between 0 and")),
            ("seed = 0", None),
            (
                "drop_prob = 1.0",
                Some("'drop_prob' must be in [0, 1), got 1"),
            ),
            ("drop_prob = 0.0", None),
            (
                "retransmit_timeout = -1.0",
                Some("'retransmit_timeout' must be at least 0"),
            ),
            ("retransmit_timeout = 0.0", None),
            (
                "retransmit_backoff = -2.0",
                Some("'retransmit_backoff' must be at least 0"),
            ),
            ("retransmit_backoff = 0.0", None),
            (
                "retransmit_max_retries = -3",
                Some("'retransmit_max_retries' must be between 0"),
            ),
            (
                "retransmit_max_retries = 4294967297",
                Some("'retransmit_max_retries' must be between 0 and 4294967295"),
            ),
            ("retransmit_max_retries = 4294967295", None),
            (
                "event_budget = -1",
                Some("'event_budget' must be between 0 and"),
            ),
            ("event_budget = 0", None),
            (
                "degrade_link = { a = 0, b = 1, latency_factor = 0.5 }",
                Some("'latency_factor' must be at least 1, got 0.5"),
            ),
            (
                "degrade_link = { a = 0, b = 1, latency_factor = 1.0 }",
                None,
            ),
            (
                "degrade_link = { a = 0, b = 1, bandwidth_factor = 0.0 }",
                Some("'bandwidth_factor' must be in (0, 1], got 0"),
            ),
            (
                "degrade_link = { a = 0, b = 1, bandwidth_factor = 1.5 }",
                Some("'bandwidth_factor' must be in (0, 1]"),
            ),
            (
                "degrade_link = { a = 0, b = 1, bandwidth_factor = 1.0 }",
                None,
            ),
            (
                "slow_node = { node = 0, factor = 0.5 }",
                Some("'factor' must be at least 1, got 0.5"),
            ),
            ("slow_node = { node = 0, factor = 1.0 }", None),
            (
                "slow_node = { node = 7, factor = 2.0 }",
                Some("'node' must be a node index below 'nodes' = 2, got 7"),
            ),
            ("slow_node = { node = 1, factor = 2.0 }", None),
            (
                "degrade_link = { a = 0, b = 9, latency_factor = 2.0 }",
                Some("'b' must be a node index below 'nodes' = 2, got 9"),
            ),
            (
                "fail_link = { a = 2, b = 0 }",
                Some("'a' must be a node index below 'nodes' = 2, got 2"),
            ),
            ("fail_link = { a = 1, b = 0 }", None),
            (
                "fail_link = { a = 1, b = 1 }",
                Some("'b' must name a node other than 'a' = 1: a link joins two nodes"),
            ),
            (
                "degrade_link = { a = 0, b = 0, latency_factor = 4.0, bandwidth_factor = 0.25 }",
                Some("'b' must name a node other than 'a' = 0"),
            ),
            (
                "degrade_link = { a = 0, b = 1, latency_factor = 4.0, bandwidth_factor = 0.25 }",
                None,
            ),
            (
                "connection_limit = { cards = -1, per_card = 1, policy = \"fail\" }",
                Some("'cards' must be between 0 and 4294967295, got -1"),
            ),
            (
                "connection_limit = { cards = 4294967296, per_card = 1, policy = \"fail\" }",
                Some("'cards' must be between 0 and 4294967295"),
            ),
            (
                "connection_limit = { cards = 1, per_card = -1, policy = \"fail\" }",
                Some("'per_card' must be between 0 and"),
            ),
            (
                "connection_limit = { cards = 1, per_card = 1, policy = \"multiplex\", \
                 queue_penalty = -1.0 }",
                Some("'queue_penalty' must be at least 0"),
            ),
            (
                "connection_limit = { cards = 4294967295, per_card = 1, policy = \"multiplex\", \
                 queue_penalty = 0.0 }",
                None,
            ),
            (
                "connection_limit = { cards = 0, per_card = 0, policy = \"fail\" }",
                None,
            ),
            (
                "connection_limit = { cards = 0, per_card = 8192, policy = \"multiplex\" }",
                Some("'cards' must be at least 1 under policy \"multiplex\", got 0"),
            ),
            (
                "connection_limit = { cards = 8, per_card = 0, policy = \"multiplex\" }",
                Some("'per_card' must be at least 1 under policy \"multiplex\", got 0"),
            ),
        ];
        let cases = cases.map(|(faults, want)| {
            let params = format!("procs = 16\nthreads = 1\nnodes = 2\nfaults = {{ {faults} }}");
            ("mz", params, want)
        });
        let cases: Vec<(&str, &str, Option<&str>)> =
            cases.iter().map(|(k, p, w)| (*k, p.as_str(), *w)).collect();
        check_counts(&cases);
    }

    /// Compile a one-block spec of `kind` (with the other parameters it
    /// requires) per case and expect either a plan (`None`) or an error
    /// on the case's last line whose message starts with the given text.
    fn check_counts(cases: &[(&str, &str, Option<&str>)]) {
        for &(kind, params, want) in cases {
            let required = match kind {
                "mz" => "bench = \"BT-MZ\"\nclass = \"A\"\n",
                "npb" => "class = \"A\"\nnode = \"BX2b\"\nparadigm = \"MPI\"\n",
                "stream" | "beff-in-node" => "node = \"BX2b\"\n",
                "beff-multi" => "fabric = \"IB\"\n",
                _ => "",
            };
            // `trace` emits its own rows.
            let row = if kind == "trace" {
                ""
            } else {
                "row = [\"{cpus}\"]\n"
            };
            let text = format!(
                "schema = \"columbia-spec-v1\"\n\n[report]\nid = \"X\"\ntitle = \"x\"\n\
                 headers = [\"CPUs\"]\n\n[[sweep]]\nkind = \"{kind}\"\n{required}{row}{params}\n"
            );
            let compiled = compile(&load_str(&text).unwrap());
            match (compiled, want) {
                (Ok(_), None) => {}
                (Err(SpecError::Invalid { line, message, .. }), Some(want)) => {
                    assert!(message.starts_with(want), "{kind} {params:?}: {message}");
                    assert_eq!(line as usize, text.lines().count(), "{kind} {params:?}");
                }
                (got, _) => panic!("{kind} {params:?}: {got:?}"),
            }
        }
    }

    #[test]
    fn fingerprints_depend_on_shape() {
        let a = compile(&load_str(DGEMM_SPEC).unwrap()).unwrap();
        let b = compile(&load_str(DGEMM_SPEC).unwrap()).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let shrunk = DGEMM_SPEC.replace(", \"BX2b\"", "");
        let c = compile(&load_str(&shrunk).unwrap()).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
