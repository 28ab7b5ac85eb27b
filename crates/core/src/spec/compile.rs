//! Lower a validated [`Spec`] onto a [`SweepPlan`].
//!
//! Each `[[sweep]]` block expands its grid (cartesian product of the
//! declared axes, first axis slowest, like nested loops) into
//! independent sweep points. A point binds its axis
//! values, evaluates derived parameters, builds one typed measurement
//! [`Task`], and renders the block's row/note templates from the
//! task's output bindings. All validation — parameter types, enum
//! names, template placeholders, vector-parameter shapes — happens
//! here at compile time, so a compiled point can only fail with the
//! simulator's own [`SimError`].
//!
//! The measurement kinds call the workload crates' entry points
//! directly; the three free-form kinds `table1`/`trace`/`columbia`
//! call helpers in `crate::experiments`. The shipped `specs/` are the
//! experiments: `repro --exp` compiles them from their embedded text,
//! and `tests/golden/` pins every report byte.

use std::collections::{BTreeMap, BTreeSet};

use columbia_hpcc::beff::{self, Pattern};
use columbia_hpcc::{dgemm, stream};
use columbia_ins3d::perf::MAX_CPUS;
use columbia_ins3d::{iteration_seconds, Ins3dConfig};
use columbia_machine::cluster::{InterNodeFabric, NodeId};
use columbia_machine::node::NodeKind;
use columbia_md::scaling::weak_scaling_point;
use columbia_npb::{gflops_per_cpu, NpbBenchmark, NpbClass, Paradigm};
use columbia_npbmz::bench::{run as mz_run, MzBenchmark, MzRunConfig};
use columbia_npbmz::MzClass;
use columbia_overflowd::{placement_strategy as overflow_placement, step_times, OverflowConfig};
use columbia_overset::systems::{ROTOR_BLOCKS, TURBOPUMP_BLOCKS};
use columbia_runtime::compiler::CompilerVersion;
use columbia_runtime::pinning::Pinning;
use columbia_simnet::fabric::MptVersion;
use columbia_simnet::fault::DEFAULT_MULTIPLEX_QUEUE_PENALTY;
use columbia_simnet::{ConnectionLimit, ConnectionPolicy, FaultPlan, SimError};

use super::expr;
use super::model::{as_int, as_str, as_table, Fields, Spec, SweepSpec};
use super::toml::{Node, Span, Table, Value};
use super::{suggest, SpecError};
use crate::experiments::{
    columbia_full_output, columbia_subsystem_output, table1_output, trace_output, TraceParams,
};
use crate::report::{gbs, gf, secs};
use crate::sweep::{PointOutput, SweepPlan};

/// Ceiling on points one spec may expand to — a guard against
/// accidental (or fuzzed) combinatorial explosions.
const MAX_POINTS: usize = 100_000;

/// All measurement kinds, for unknown-kind suggestions.
const KINDS: [&str; 12] = [
    "table1",
    "beff-in-node",
    "beff-multi",
    "dgemm",
    "stream",
    "npb",
    "ins3d",
    "overflow",
    "mz",
    "md-weak",
    "trace",
    "columbia",
];

/// Parameters every kind accepts.
const GENERIC_PARAMS: [&str; 5] = ["row", "note", "value", "label", "expect_error"];

fn invalid(span: Span, message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        line: span.line,
        col: span.col,
        message: message.into(),
    }
}

/// Compile a validated spec into a runnable plan.
pub fn compile(spec: &Spec) -> Result<SweepPlan, SpecError> {
    let headers: Vec<&str> = spec.report.headers.iter().map(String::as_str).collect();
    let mut plan = SweepPlan::new(&spec.report.id, &spec.report.title, &headers);
    plan.sim_threads = spec.sim_threads;
    for sweep in &spec.sweeps {
        expand_sweep(&mut plan, sweep, spec)?;
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
        let (column, decimals, suffix) = (c.column, c.decimals, c.suffix.clone());
        plan.collate_with(move |report, outputs| {
            let base = outputs
                .first()
                .and_then(|o| o.values.first())
                .copied()
                .unwrap_or(f64::NAN);
            for o in &outputs {
                for row in &o.rows {
                    let mut row = row.clone();
                    if let Some(v) = o.values.first() {
                        row[column] = format!("{:.*}{}", decimals, v / base, suffix);
                    }
                    report.push_row(row);
                }
            }
            for o in outputs {
                for note in o.notes {
                    report.note(note);
                }
            }
        });
    }
    for n in &spec.report.notes {
        plan.note(n);
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Templates

/// A parsed `"text {name} text"` template.
#[derive(Debug, Clone)]
struct Template {
    segs: Vec<Seg>,
}

#[derive(Debug, Clone)]
enum Seg {
    Lit(String),
    Var(String),
}

impl Template {
    fn parse(text: &str, span: Span) -> Result<Template, SpecError> {
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
                                if c.is_ascii_alphanumeric()
                                    || c == '_'
                                    || c == '.'
                                    || c == '-' =>
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
        Ok(Template { segs })
    }

    fn vars(&self) -> impl Iterator<Item = &str> {
        self.segs.iter().filter_map(|s| match s {
            Seg::Var(v) => Some(v.as_str()),
            Seg::Lit(_) => None,
        })
    }

    /// Render against `bindings`; a name that is (unexpectedly) absent
    /// at runtime renders as its literal `{name}` rather than
    /// panicking.
    fn render(&self, bindings: &BTreeMap<String, String>) -> String {
        let mut out = String::new();
        for seg in &self.segs {
            match seg {
                Seg::Lit(l) => out.push_str(l),
                Seg::Var(v) => match bindings.get(v) {
                    Some(s) => out.push_str(s),
                    None => {
                        out.push('{');
                        out.push_str(v);
                        out.push('}');
                    }
                },
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Per-point parameter context

/// A vector-capable enum parameter's resolved values — `(parsed,
/// canonical name)` pairs — and whether the spec wrote it as a list
/// (which turns on suffixed output bindings).
type EnumVec<T> = (Vec<(T, &'static str)>, bool);

/// One point's view of a sweep block's parameters: the block entries
/// overlaid by this point's axis bindings and derived values, plus the
/// numeric environment for expressions.
struct ParamCtx<'a> {
    sweep: &'a SweepSpec,
    overlay: &'a BTreeMap<String, Node>,
    env: &'a BTreeMap<String, f64>,
    consumed: Vec<String>,
    /// Vector-valued parameter names seen so far (at most one allowed).
    vectors: Vec<&'static str>,
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
            consumed: Vec::new(),
            vectors: Vec::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Node> {
        self.consumed.push(key.to_string());
        if let Some(n) = self.overlay.get(key) {
            return Some(n);
        }
        self.sweep
            .params
            .iter()
            .find(|e| e.key == key)
            .map(|e| &e.node)
    }

    fn context(&self) -> String {
        format!(
            "[[sweep]] block {} (kind '{}')",
            self.sweep.index, self.sweep.kind
        )
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

    fn take_f64(&mut self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.get(key) {
            Some(n) => Ok(Some(self.num_of(n)?)),
            None => Ok(None),
        }
    }

    fn take_unsigned(&mut self, key: &str, max: i64) -> Result<Option<i64>, SpecError> {
        match self.get(key) {
            Some(n) => {
                let v = self.int_of(n, &format!("'{key}'"))?;
                if v < 0 || v > max {
                    return Err(invalid(
                        n.span,
                        format!("'{key}' must be between 0 and {max}, got {v}"),
                    ));
                }
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    /// A count: an integer of at least 1 and, when `cap` is
    /// `Some((max, why))`, at most `max`, with `why` in the error. The
    /// workload entry points assert these bounds; checking them here
    /// rejects the spec before anything runs.
    fn take_count(
        &mut self,
        key: &str,
        cap: Option<(usize, &str)>,
    ) -> Result<Option<usize>, SpecError> {
        let Some(n) = self.get(key) else {
            return Ok(None);
        };
        let v = self.int_of(n, &format!("'{key}'"))?;
        if v < 1 {
            return Err(invalid(
                n.span,
                format!("'{key}' must be at least 1, got {v}"),
            ));
        }
        if let Some((max, why)) = cap {
            if v as u64 > max as u64 {
                return Err(invalid(
                    n.span,
                    format!("'{key}' must be at most {max} ({why}), got {v}"),
                ));
            }
        }
        Ok(Some(v as usize))
    }

    fn take_usize(&mut self, key: &str) -> Result<Option<usize>, SpecError> {
        Ok(self.take_unsigned(key, i64::MAX)?.map(|v| v as usize))
    }

    fn take_u32(&mut self, key: &str) -> Result<Option<u32>, SpecError> {
        Ok(self
            .take_unsigned(key, i64::from(u32::MAX))?
            .map(|v| v as u32))
    }

    fn take_u64(&mut self, key: &str) -> Result<Option<u64>, SpecError> {
        Ok(self.take_unsigned(key, i64::MAX)?.map(|v| v as u64))
    }

    fn take_str(&mut self, key: &str) -> Result<Option<(String, Span)>, SpecError> {
        match self.get(key) {
            Some(n) => Ok(Some((as_str(n, &format!("'{key}'"))?.to_string(), n.span))),
            None => Ok(None),
        }
    }

    fn take_bool(&mut self, key: &str) -> Result<Option<bool>, SpecError> {
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

    /// A list of u32s: scalar promotes to a one-element list.
    fn take_u32_list(&mut self, key: &str) -> Result<Option<Vec<u32>>, SpecError> {
        match self.get(key) {
            None => Ok(None),
            Some(n) => match &n.value {
                Value::Array(items) => {
                    let mut out = Vec::new();
                    for item in items {
                        let v = self.int_of(item, &format!("'{key}' entry"))?;
                        if !(0..=i64::from(u32::MAX)).contains(&v) {
                            return Err(invalid(
                                item.span,
                                format!("'{key}' entry out of range: {v}"),
                            ));
                        }
                        out.push(v as u32);
                    }
                    if out.is_empty() {
                        return Err(invalid(n.span, format!("'{key}' must not be empty")));
                    }
                    Ok(Some(out))
                }
                _ => {
                    let v = self.int_of(n, &format!("'{key}'"))?;
                    if !(0..=i64::from(u32::MAX)).contains(&v) {
                        return Err(invalid(n.span, format!("'{key}' out of range: {v}")));
                    }
                    Ok(Some(vec![v as u32]))
                }
            },
        }
    }

    /// A vector-capable enum parameter: a string is a scalar, an array
    /// of strings is a vector (producing suffixed output bindings). At
    /// most one parameter per kind may be a vector.
    fn take_enum_vec<T: Copy>(
        &mut self,
        key: &'static str,
        parse: impl Fn(&str, Span) -> Result<(T, &'static str), SpecError>,
        default: (T, &'static str),
    ) -> Result<EnumVec<T>, SpecError> {
        match self.get(key) {
            None => Ok((vec![default], false)),
            Some(n) => match &n.value {
                Value::Str(s) => Ok((vec![parse(s, n.span)?], false)),
                Value::Array(items) => {
                    let mut out = Vec::new();
                    for item in items {
                        let s = as_str(item, &format!("'{key}' entry"))?;
                        out.push(parse(s, item.span)?);
                    }
                    if out.is_empty() {
                        return Err(invalid(n.span, format!("'{key}' must not be empty")));
                    }
                    if !self.vectors.is_empty() {
                        return Err(invalid(
                            n.span,
                            format!(
                                "only one parameter may be a list; '{}' already is",
                                self.vectors[0]
                            ),
                        ));
                    }
                    self.vectors.push(key);
                    Ok((out, true))
                }
                v => Err(invalid(
                    n.span,
                    format!(
                        "'{key}' must be a string or array of strings, found {}",
                        v.type_name()
                    ),
                )),
            },
        }
    }

    fn take_enum<T: Copy>(
        &mut self,
        key: &'static str,
        parse: impl Fn(&str, Span) -> Result<(T, &'static str), SpecError>,
    ) -> Result<Option<T>, SpecError> {
        match self.take_str(key)? {
            Some((s, span)) => Ok(Some(parse(&s, span)?.0)),
            None => Ok(None),
        }
    }

    /// Error on block parameters no stage consumed.
    fn finish(&self, kind_params: &[&str]) -> Result<(), SpecError> {
        for e in &self.sweep.params {
            if !self.consumed.iter().any(|c| c == &e.key) {
                let mut allowed: Vec<&str> = GENERIC_PARAMS.to_vec();
                allowed.extend_from_slice(kind_params);
                return Err(SpecError::UnknownKey {
                    line: e.key_span.line,
                    col: e.key_span.col,
                    key: e.key.clone(),
                    context: self.context(),
                    suggestion: suggest(&e.key, &allowed),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Enum parsers (lenient on case, canonical on output)

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

fn node_kind(s: &str, span: Span) -> Result<(NodeKind, &'static str), SpecError> {
    let k = match s.to_ascii_lowercase().as_str() {
        "3700" | "altix3700" => NodeKind::Altix3700,
        "bx2a" => NodeKind::Bx2a,
        "bx2b" => NodeKind::Bx2b,
        _ => return Err(bad_enum(span, "node kind", s, &["3700", "BX2a", "BX2b"])),
    };
    Ok((k, k.name()))
}

fn fabric(s: &str, span: Span) -> Result<(InterNodeFabric, &'static str), SpecError> {
    let f = match s.to_ascii_lowercase().as_str() {
        "numalink4" | "nl4" => InterNodeFabric::NumaLink4,
        "infiniband" | "ib" => InterNodeFabric::InfiniBand,
        _ => return Err(bad_enum(span, "fabric", s, &["NUMAlink4", "InfiniBand"])),
    };
    Ok((f, f.name()))
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
    let p = match s.to_ascii_lowercase().as_str() {
        "mpi" => Paradigm::Mpi,
        "openmp" => Paradigm::OpenMp,
        _ => return Err(bad_enum(span, "paradigm", s, &["MPI", "OpenMP"])),
    };
    Ok((p, p.name()))
}

fn npb_bench(s: &str, span: Span) -> Result<(NpbBenchmark, &'static str), SpecError> {
    for b in NpbBenchmark::ALL {
        if b.name().eq_ignore_ascii_case(s) {
            return Ok((b, b.name()));
        }
    }
    let names: Vec<&str> = NpbBenchmark::ALL.iter().map(|b| b.name()).collect();
    Err(bad_enum(span, "NPB benchmark", s, &names))
}

fn npb_class(s: &str, span: Span) -> Result<(NpbClass, &'static str), SpecError> {
    for c in NpbClass::ALL {
        if c.name().eq_ignore_ascii_case(s) {
            return Ok((c, c.name()));
        }
    }
    let names: Vec<&str> = NpbClass::ALL.iter().map(|c| c.name()).collect();
    Err(bad_enum(span, "NPB class", s, &names))
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
    let (c, name) = match s.to_ascii_uppercase().as_str() {
        "S" => (MzClass::S, "S"),
        "W" => (MzClass::W, "W"),
        "A" => (MzClass::A, "A"),
        "B" => (MzClass::B, "B"),
        "C" => (MzClass::C, "C"),
        "D" => (MzClass::D, "D"),
        "E" => (MzClass::E, "E"),
        "F" => (MzClass::F, "F"),
        _ => {
            return Err(bad_enum(
                span,
                "multi-zone class",
                s,
                &["S", "W", "A", "B", "C", "D", "E", "F"],
            ))
        }
    };
    Ok((c, name))
}

fn mpt(s: &str, span: Span) -> Result<(MptVersion, &'static str), SpecError> {
    let v = match s.to_ascii_lowercase().as_str() {
        "beta" => MptVersion::Beta,
        "released" => MptVersion::Released,
        _ => return Err(bad_enum(span, "MPT version", s, &["beta", "released"])),
    };
    Ok((
        v,
        if v == MptVersion::Beta {
            "beta"
        } else {
            "released"
        },
    ))
}

fn pinning(s: &str, span: Span) -> Result<(Pinning, &'static str), SpecError> {
    let p = match s.to_ascii_lowercase().as_str() {
        "pinned" => Pinning::Pinned,
        "unpinned" => Pinning::Unpinned,
        _ => return Err(bad_enum(span, "pinning", s, &["pinned", "unpinned"])),
    };
    Ok((
        p,
        if p == Pinning::Pinned {
            "pinned"
        } else {
            "unpinned"
        },
    ))
}

// ---------------------------------------------------------------------------
// Fault plans from data

const FAULT_KEYS: [&str; 10] = [
    "seed",
    "drop_prob",
    "retransmit_timeout",
    "retransmit_backoff",
    "retransmit_max_retries",
    "degrade_link",
    "fail_link",
    "slow_node",
    "connection_limit",
    "event_budget",
];

fn build_faults(ctx: &ParamCtx<'_>, table: &Table) -> Result<FaultPlan, SpecError> {
    let mut f = Fields::new(table);
    let mut plan = FaultPlan::none();
    if let Some(n) = f.take("seed") {
        plan.seed = as_int(n, "'seed'")?.max(0) as u64;
    }
    if let Some(n) = f.take("drop_prob") {
        let p = ctx.num_of(n)?;
        if !(0.0..1.0).contains(&p) {
            return Err(invalid(
                n.span,
                format!("'drop_prob' must be in [0, 1), got {p}"),
            ));
        }
        plan.drop_prob = p;
    }
    if let Some(n) = f.take("retransmit_timeout") {
        plan.retransmit.timeout = ctx.num_of(n)?;
    }
    if let Some(n) = f.take("retransmit_backoff") {
        plan.retransmit.backoff = ctx.num_of(n)?;
    }
    if let Some(n) = f.take("retransmit_max_retries") {
        plan.retransmit.max_retries = as_int(n, "'retransmit_max_retries'")?.max(0) as u32;
    }
    if let Some(n) = f.take("degrade_link") {
        let t = as_table(n, "'degrade_link'")?;
        let mut g = Fields::new(t);
        let a = link_end(&mut g, n.span, "a")?;
        let b = link_end(&mut g, n.span, "b")?;
        let lat = g
            .take("latency_factor")
            .map(|x| ctx.num_of(x))
            .transpose()?
            .unwrap_or(1.0);
        let bw = g
            .take("bandwidth_factor")
            .map(|x| ctx.num_of(x))
            .transpose()?
            .unwrap_or(1.0);
        g.finish(
            "'degrade_link'",
            &["a", "b", "latency_factor", "bandwidth_factor"],
        )?;
        plan = plan.degrade_link(a, b, lat, bw);
    }
    if let Some(n) = f.take("fail_link") {
        let t = as_table(n, "'fail_link'")?;
        let mut g = Fields::new(t);
        let a = link_end(&mut g, n.span, "a")?;
        let b = link_end(&mut g, n.span, "b")?;
        g.finish("'fail_link'", &["a", "b"])?;
        plan = plan.fail_link(a, b);
    }
    if let Some(n) = f.take("slow_node") {
        let t = as_table(n, "'slow_node'")?;
        let mut g = Fields::new(t);
        let node = link_end(&mut g, n.span, "node")?;
        let factor = g
            .take("factor")
            .map(|x| ctx.num_of(x))
            .transpose()?
            .unwrap_or(1.0);
        g.finish("'slow_node'", &["node", "factor"])?;
        plan = plan.slow_node(node, factor);
    }
    if let Some(n) = f.take("connection_limit") {
        let t = as_table(n, "'connection_limit'")?;
        let mut g = Fields::new(t);
        let missing = |k: &str| invalid(n.span, format!("'connection_limit' requires '{k}'"));
        let cards = as_int(g.take("cards").ok_or_else(|| missing("cards"))?, "'cards'")?;
        let per_card = as_int(
            g.take("per_card").ok_or_else(|| missing("per_card"))?,
            "'per_card'",
        )?;
        if cards < 0 || per_card < 0 {
            return Err(invalid(n.span, "connection budget must be non-negative"));
        }
        let policy_node = g.take("policy").ok_or_else(|| missing("policy"))?;
        let policy_name = as_str(policy_node, "'policy'")?;
        let queue_penalty = g
            .take("queue_penalty")
            .map(|x| ctx.num_of(x))
            .transpose()?
            .unwrap_or(DEFAULT_MULTIPLEX_QUEUE_PENALTY);
        let policy = match policy_name {
            "fail" => ConnectionPolicy::Fail,
            "multiplex" => ConnectionPolicy::Multiplex { queue_penalty },
            other => {
                return Err(bad_enum(
                    policy_node.span,
                    "connection policy",
                    other,
                    &["fail", "multiplex"],
                ))
            }
        };
        g.finish(
            "'connection_limit'",
            &["cards", "per_card", "policy", "queue_penalty"],
        )?;
        plan = plan.with_connection_limit(ConnectionLimit {
            cards_per_node: cards as u32,
            connections_per_card: per_card as u64,
            policy,
        });
    }
    if let Some(n) = f.take("event_budget") {
        plan.event_budget = Some(as_int(n, "'event_budget'")?.max(0) as u64);
    }
    f.finish("[sweep] 'faults'", &FAULT_KEYS)?;
    Ok(plan)
}

fn link_end(g: &mut Fields<'_>, span: Span, key: &'static str) -> Result<NodeId, SpecError> {
    let n = g
        .take(key)
        .ok_or_else(|| invalid(span, format!("missing '{key}' (a node index)")))?;
    let v = as_int(n, key)?;
    if !(0..=i64::from(u32::MAX)).contains(&v) {
        return Err(invalid(
            n.span,
            format!("'{key}' must be a node index, got {v}"),
        ));
    }
    Ok(NodeId(v as u32))
}

// ---------------------------------------------------------------------------
// Measurement tasks

/// One typed, fully-resolved measurement — everything a sweep point
/// needs at run time. Cheap to clone into the point closure.
#[derive(Debug, Clone)]
enum Task {
    Table1,
    BeffInNode {
        kind: NodeKind,
        cpus: Vec<u32>,
    },
    BeffMulti {
        nodes: u32,
        inter: InterNodeFabric,
        mpt: MptVersion,
        cpus: Vec<u32>,
    },
    Dgemm {
        kind: NodeKind,
        stride: u32,
    },
    Stream {
        kind: NodeKind,
        cpus: u32,
        stride: u32,
    },
    Npb {
        bench: NpbBenchmark,
        class: NpbClass,
        kind: NodeKind,
        paradigm: Paradigm,
        cpus: Vec<u32>,
        compilers: Vec<(CompilerVersion, &'static str)>,
        compiler_vec: bool,
    },
    Ins3d {
        kinds: Vec<(NodeKind, &'static str)>,
        kind_vec: bool,
        compilers: Vec<(CompilerVersion, &'static str)>,
        compiler_vec: bool,
        groups: usize,
        threads: usize,
    },
    Overflow {
        kinds: Vec<(NodeKind, &'static str)>,
        kind_vec: bool,
        fabrics: Vec<(InterNodeFabric, &'static str)>,
        fabric_vec: bool,
        compilers: Vec<(CompilerVersion, &'static str)>,
        compiler_vec: bool,
        procs: usize,
        threads: usize,
        nodes: u32,
    },
    Mz {
        bench: MzBenchmark,
        class: MzClass,
        procs: usize,
        threads: usize,
        kind: NodeKind,
        nodes: u32,
        inter: InterNodeFabric,
        mpt: MptVersion,
        pinnings: Vec<(Pinning, &'static str)>,
        pinning_vec: bool,
        faults: FaultPlan,
    },
    MdWeak {
        cpus: u32,
    },
    Trace(TraceParams),
    Columbia {
        full: bool,
    },
}

/// What a task produced: templated row bindings plus numeric outputs,
/// or (for the free-form kinds) raw report rows and notes.
#[derive(Debug, Default)]
struct TaskOut {
    rows: Vec<BTreeMap<String, String>>,
    nums: BTreeMap<String, f64>,
    raw: Option<PointOutput>,
}

impl Task {
    /// Kinds whose rows come from the measurement itself, not a `row`
    /// template.
    fn is_raw(&self) -> bool {
        matches!(self, Task::Table1 | Task::Trace(_) | Task::Columbia { .. })
    }

    /// Display bindings this task makes available to templates.
    fn binding_names(&self) -> Vec<String> {
        fn suffixed<T>(base: &[&str], vec: &[(T, &'static str)], on: bool) -> Vec<String> {
            if on {
                base.iter()
                    .flat_map(|b| vec.iter().map(move |(_, s)| format!("{b}.{s}")))
                    .collect()
            } else {
                base.iter().map(|b| b.to_string()).collect()
            }
        }
        match self {
            Task::Table1 | Task::Trace(_) | Task::Columbia { .. } => Vec::new(),
            Task::BeffInNode { .. } => ["pattern", "node", "cpus", "latency", "bandwidth"]
                .map(String::from)
                .to_vec(),
            Task::BeffMulti { .. } => {
                ["pattern", "fabric", "nodes", "cpus", "latency", "bandwidth"]
                    .map(String::from)
                    .to_vec()
            }
            Task::Dgemm { .. } => ["node", "stride", "gflops"].map(String::from).to_vec(),
            Task::Stream { .. } => ["node", "stride", "cpus", "triad"]
                .map(String::from)
                .to_vec(),
            Task::Npb {
                compilers,
                compiler_vec,
                ..
            } => {
                let mut n = ["bench", "paradigm", "node", "cpus"]
                    .map(String::from)
                    .to_vec();
                n.extend(suffixed(&["gflops"], compilers, *compiler_vec));
                n
            }
            Task::Ins3d {
                kinds,
                kind_vec,
                compilers,
                compiler_vec,
                ..
            } => {
                let mut n = ["groups", "threads", "cpus"].map(String::from).to_vec();
                if *kind_vec {
                    n.extend(suffixed(&["s_step"], kinds, true));
                } else {
                    n.extend(suffixed(&["s_step"], compilers, *compiler_vec));
                }
                n
            }
            Task::Overflow {
                kinds,
                kind_vec,
                fabrics,
                fabric_vec,
                compilers,
                compiler_vec,
                ..
            } => {
                let mut n = ["procs", "threads", "nodes", "cpus"]
                    .map(String::from)
                    .to_vec();
                let base = ["comm", "exec"];
                if *kind_vec {
                    n.extend(suffixed(&base, kinds, true));
                } else if *fabric_vec {
                    n.extend(suffixed(&base, fabrics, true));
                } else {
                    n.extend(suffixed(&base, compilers, *compiler_vec));
                }
                n
            }
            Task::Mz {
                pinnings,
                pinning_vec,
                ..
            } => {
                let mut n = [
                    "bench", "fabric", "mpt", "node", "procs", "threads", "cpus", "nodes",
                ]
                .map(String::from)
                .to_vec();
                n.extend(suffixed(
                    &[
                        "s_step",
                        "total_gflops",
                        "gflops_per_cpu",
                        "dropped",
                        "retransmit_s",
                        "muxed",
                    ],
                    pinnings,
                    *pinning_vec,
                ));
                n
            }
            Task::MdWeak { .. } => ["cpus", "atoms", "s_step", "comm_step", "efficiency"]
                .map(String::from)
                .to_vec(),
        }
    }

    /// Numeric outputs a block's `value` may name (single-measurement
    /// kinds only).
    fn numeric_names(&self) -> Vec<&'static str> {
        match self {
            Task::Dgemm { .. } => vec!["gflops"],
            Task::Stream { .. } => vec!["triad"],
            Task::Ins3d {
                kind_vec: false,
                compiler_vec: false,
                ..
            } => vec!["s_step"],
            Task::Overflow {
                kind_vec: false,
                fabric_vec: false,
                compiler_vec: false,
                ..
            } => vec!["comm", "exec"],
            Task::Mz {
                pinning_vec: false, ..
            } => vec!["s_step", "total_gflops", "gflops_per_cpu"],
            Task::MdWeak { .. } => vec!["s_step", "comm_step", "atoms"],
            _ => Vec::new(),
        }
    }

    fn run(&self) -> Result<TaskOut, SimError> {
        let mut out = TaskOut::default();
        match self {
            Task::Table1 => out.raw = Some(table1_output()),
            Task::Trace(p) => out.raw = Some(trace_output(p)?),
            Task::Columbia { full } => {
                out.raw = Some(if *full {
                    columbia_full_output()?
                } else {
                    columbia_subsystem_output()?
                })
            }
            Task::BeffInNode { kind, cpus } => {
                let sweep = beff::in_node_sweep(*kind, cpus);
                for pattern in Pattern::ALL {
                    for &n in cpus {
                        if let Some(p) = sweep.get(pattern, n) {
                            let mut b = BTreeMap::new();
                            b.insert("pattern".into(), pattern.name().to_string());
                            b.insert("node".into(), kind.name().to_string());
                            b.insert("cpus".into(), n.to_string());
                            b.insert("latency".into(), secs(p.latency));
                            b.insert("bandwidth".into(), gbs(p.bandwidth));
                            out.rows.push(b);
                        }
                    }
                }
            }
            Task::BeffMulti {
                nodes,
                inter,
                mpt,
                cpus,
            } => {
                let sweep = beff::multi_node_sweep(*nodes, *inter, *mpt, cpus);
                for pattern in Pattern::ALL {
                    for &n in cpus {
                        if let Some(p) = sweep.get(pattern, n) {
                            let mut b = BTreeMap::new();
                            b.insert("pattern".into(), pattern.name().to_string());
                            b.insert("fabric".into(), inter.name().to_string());
                            b.insert("nodes".into(), nodes.to_string());
                            b.insert("cpus".into(), n.to_string());
                            b.insert("latency".into(), secs(p.latency));
                            b.insert("bandwidth".into(), gbs(p.bandwidth));
                            out.rows.push(b);
                        }
                    }
                }
            }
            Task::Dgemm { kind, stride } => {
                let d = dgemm::simulate(*kind, *stride);
                let mut b = BTreeMap::new();
                b.insert("node".into(), kind.name().to_string());
                b.insert("stride".into(), stride.to_string());
                b.insert("gflops".into(), gf(d.gflops_per_cpu));
                out.nums.insert("gflops".into(), d.gflops_per_cpu);
                out.rows.push(b);
            }
            Task::Stream { kind, cpus, stride } => {
                let s = stream::simulate(*kind, *cpus, *stride);
                let mut b = BTreeMap::new();
                b.insert("node".into(), kind.name().to_string());
                b.insert("stride".into(), stride.to_string());
                b.insert("cpus".into(), cpus.to_string());
                b.insert("triad".into(), gbs(s.triad()));
                out.nums.insert("triad".into(), s.triad());
                out.rows.push(b);
            }
            Task::Npb {
                bench,
                class,
                kind,
                paradigm,
                cpus,
                compilers,
                compiler_vec,
            } => {
                for &n in cpus {
                    let mut b = BTreeMap::new();
                    b.insert("bench".into(), bench.name().to_string());
                    b.insert("paradigm".into(), paradigm.name().to_string());
                    b.insert("node".into(), kind.name().to_string());
                    b.insert("cpus".into(), n.to_string());
                    for (v, sfx) in compilers {
                        let g = gflops_per_cpu(*bench, *class, *kind, *paradigm, n, *v)?;
                        let key = if *compiler_vec {
                            format!("gflops.{sfx}")
                        } else {
                            "gflops".into()
                        };
                        b.insert(key, gf(g));
                    }
                    out.rows.push(b);
                }
            }
            Task::Ins3d {
                kinds,
                kind_vec,
                compilers,
                compiler_vec,
                groups,
                threads,
            } => {
                let mut b = BTreeMap::new();
                b.insert("groups".into(), groups.to_string());
                b.insert("threads".into(), threads.to_string());
                b.insert("cpus".into(), (groups * threads).to_string());
                for (k, ks) in kinds {
                    for (c, cs) in compilers {
                        let s = iteration_seconds(&Ins3dConfig {
                            kind: *k,
                            groups: *groups,
                            threads: *threads,
                            compiler: *c,
                        });
                        let key = if *kind_vec {
                            format!("s_step.{ks}")
                        } else if *compiler_vec {
                            format!("s_step.{cs}")
                        } else {
                            out.nums.insert("s_step".into(), s);
                            "s_step".into()
                        };
                        b.insert(key, secs(s));
                    }
                }
                out.rows.push(b);
            }
            Task::Overflow {
                kinds,
                kind_vec,
                fabrics,
                fabric_vec,
                compilers,
                compiler_vec,
                procs,
                threads,
                nodes,
            } => {
                let mut b = BTreeMap::new();
                b.insert("procs".into(), procs.to_string());
                b.insert("threads".into(), threads.to_string());
                b.insert("nodes".into(), nodes.to_string());
                b.insert("cpus".into(), (procs * threads).to_string());
                for (k, ks) in kinds {
                    for (fb, fs) in fabrics {
                        for (c, cs) in compilers {
                            let t = step_times(&OverflowConfig {
                                kind: *k,
                                procs: *procs,
                                threads: *threads,
                                nodes: *nodes,
                                inter: *fb,
                                compiler: *c,
                            })?;
                            let sfx = if *kind_vec {
                                Some(*ks)
                            } else if *fabric_vec {
                                Some(*fs)
                            } else if *compiler_vec {
                                Some(*cs)
                            } else {
                                None
                            };
                            match sfx {
                                Some(sfx) => {
                                    b.insert(format!("comm.{sfx}"), secs(t.comm));
                                    b.insert(format!("exec.{sfx}"), secs(t.exec));
                                }
                                None => {
                                    b.insert("comm".into(), secs(t.comm));
                                    b.insert("exec".into(), secs(t.exec));
                                    out.nums.insert("comm".into(), t.comm);
                                    out.nums.insert("exec".into(), t.exec);
                                }
                            }
                        }
                    }
                }
                out.rows.push(b);
            }
            Task::Mz {
                bench,
                class,
                procs,
                threads,
                kind,
                nodes,
                inter,
                mpt,
                pinnings,
                pinning_vec,
                faults,
            } => {
                let mut b = BTreeMap::new();
                b.insert("bench".into(), bench.name().to_string());
                b.insert("fabric".into(), inter.name().to_string());
                b.insert(
                    "mpt".into(),
                    if *mpt == MptVersion::Beta {
                        "beta"
                    } else {
                        "released"
                    }
                    .to_string(),
                );
                b.insert("node".into(), kind.name().to_string());
                b.insert("procs".into(), procs.to_string());
                b.insert("threads".into(), threads.to_string());
                b.insert("cpus".into(), (procs * threads).to_string());
                b.insert("nodes".into(), nodes.to_string());
                for (p, ps) in pinnings {
                    let mut cfg = MzRunConfig::new(*bench, *class, *procs, *threads);
                    cfg.kind = *kind;
                    cfg.nodes = *nodes;
                    cfg.inter = *inter;
                    cfg.mpt = *mpt;
                    cfg.pinning = *p;
                    cfg.faults = faults.clone();
                    let r = mz_run(&cfg)?;
                    let key = |base: &str| {
                        if *pinning_vec {
                            format!("{base}.{ps}")
                        } else {
                            base.to_string()
                        }
                    };
                    b.insert(key("s_step"), secs(r.seconds_per_step));
                    b.insert(key("total_gflops"), gf(r.total_gflops));
                    b.insert(key("gflops_per_cpu"), gf(r.gflops_per_cpu));
                    b.insert(key("dropped"), r.faults.dropped_messages.to_string());
                    b.insert(key("retransmit_s"), secs(r.faults.retransmit_delay));
                    b.insert(key("muxed"), r.faults.multiplexed_messages.to_string());
                    if !*pinning_vec {
                        out.nums.insert("s_step".into(), r.seconds_per_step);
                        out.nums.insert("total_gflops".into(), r.total_gflops);
                        out.nums.insert("gflops_per_cpu".into(), r.gflops_per_cpu);
                    }
                }
                out.rows.push(b);
            }
            Task::MdWeak { cpus } => {
                // The 1-CPU efficiency baseline is recomputed per point,
                // keeping points independent.
                let base = weak_scaling_point(1)?;
                let p = weak_scaling_point(*cpus)?;
                let mut b = BTreeMap::new();
                b.insert("cpus".into(), cpus.to_string());
                b.insert("atoms".into(), p.atoms.to_string());
                b.insert("s_step".into(), secs(p.seconds_per_step));
                b.insert("comm_step".into(), secs(p.comm_per_step));
                b.insert(
                    "efficiency".into(),
                    format!("{:.1}%", 100.0 * p.efficiency_vs(&base)),
                );
                out.nums.insert("s_step".into(), p.seconds_per_step);
                out.nums.insert("comm_step".into(), p.comm_per_step);
                out.nums.insert("atoms".into(), p.atoms as f64);
                out.rows.push(b);
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Sweep expansion

/// Expand one `[[sweep]]` block into plan points.
fn expand_sweep(plan: &mut SweepPlan, sweep: &SweepSpec, spec: &Spec) -> Result<(), SpecError> {
    if !KINDS.contains(&sweep.kind.as_str()) {
        let suggestion = suggest(&sweep.kind, &KINDS)
            .map(|s| format!(" (did you mean '{s}'?)"))
            .unwrap_or_default();
        return Err(invalid(
            sweep.kind_span,
            format!(
                "unknown kind '{}' (available: {}){suggestion}",
                sweep.kind,
                KINDS.join(", ")
            ),
        ));
    }

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
        expand_point(plan, sweep, spec, &axes, &idx)?;
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
    spec: &Spec,
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

    let mut ctx = ParamCtx::new(sweep, &overlay, &env);

    // Generic parameters.
    let row_templates: Option<(Vec<Template>, Span)> = match ctx.get("row") {
        Some(n) => match &n.value {
            Value::Array(items) => {
                let mut ts = Vec::new();
                for item in items {
                    let s = as_str(item, "'row' cell")?;
                    ts.push(Template::parse(s, item.span)?);
                }
                Some((ts, n.span))
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
    if let Some((ts, span)) = &row_templates {
        if ts.len() != spec.report.headers.len() {
            return Err(invalid(
                *span,
                format!(
                    "'row' has {} cells but the report has {} columns",
                    ts.len(),
                    spec.report.headers.len()
                ),
            ));
        }
    }
    let note_template = match ctx.take_str("note")? {
        Some((s, span)) => Some(Template::parse(&s, span)?),
        None => None,
    };
    let value_name = ctx.take_str("value")?;
    let expect_error = ctx.take_bool("expect_error")?.unwrap_or(false);
    if let Some((label, _)) = ctx.take_str("label")? {
        disp.insert("label".into(), label);
    }

    // The measurement.
    let (task, kind_params) = build_task(&mut ctx, spec)?;
    ctx.finish(kind_params)?;

    // Compile-time validation of templates and value names.
    let mut available: BTreeSet<String> = task.binding_names().into_iter().collect();
    available.extend(disp.keys().cloned());
    let avail_list = || {
        available
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join(", ")
    };
    if task.is_raw() {
        if let Some((_, span)) = &row_templates {
            return Err(invalid(
                *span,
                format!(
                    "kind '{}' emits its own rows; 'row' is not allowed",
                    sweep.kind
                ),
            ));
        }
    } else {
        let (templates, row_span) = row_templates.as_ref().ok_or_else(|| {
            invalid(
                sweep.kind_span,
                format!(
                    "kind '{}' requires a 'row' template (block {})",
                    sweep.kind, sweep.index
                ),
            )
        })?;
        for t in templates {
            for v in t.vars() {
                if !available.contains(v) {
                    let cands: Vec<&str> = available.iter().map(String::as_str).collect();
                    let hint = suggest(v, &cands)
                        .map(|s| format!(" (did you mean '{s}'?)"))
                        .unwrap_or_default();
                    return Err(invalid(
                        *row_span,
                        format!(
                            "unknown placeholder '{{{v}}}' in row template \
                             (available: {}){hint}",
                            avail_list()
                        ),
                    ));
                }
            }
        }
    }
    if let Some(t) = &note_template {
        for v in t.vars() {
            if v != "error" && !available.contains(v) {
                return Err(invalid(
                    sweep.kind_span,
                    format!(
                        "unknown placeholder '{{{v}}}' in note template (available: error, {})",
                        avail_list()
                    ),
                ));
            }
        }
    }
    let value_name = match value_name {
        Some((name, span)) => {
            let nums = task.numeric_names();
            if !nums.contains(&name.as_str()) {
                return Err(invalid(
                    span,
                    format!(
                        "'value' names unknown numeric output '{name}' for kind '{}' \
                         (available: {})",
                        sweep.kind,
                        if nums.is_empty() {
                            "none".to_string()
                        } else {
                            nums.join(", ")
                        }
                    ),
                ));
            }
            Some(name)
        }
        None => None,
    };

    let row_templates = row_templates.map(|(t, _)| t);
    let point_disp = disp;
    plan.point(move || {
        match task.run() {
            Ok(t) => {
                let mut po = PointOutput::default();
                if expect_error {
                    // The measurement was expected to fail but did not:
                    // contribute nothing (the degraded experiment's
                    // fail-fast probe).
                    return Ok(po);
                }
                if let Some(raw) = t.raw {
                    po.rows = raw.rows;
                    po.notes = raw.notes;
                    po.values = raw.values;
                } else if let Some(templates) = &row_templates {
                    for rb in &t.rows {
                        let mut merged = point_disp.clone();
                        merged.extend(rb.iter().map(|(k, v)| (k.clone(), v.clone())));
                        po.rows
                            .push(templates.iter().map(|c| c.render(&merged)).collect());
                    }
                }
                if let Some(nt) = &note_template {
                    po.notes.push(nt.render(&point_disp));
                }
                if let Some(name) = &value_name {
                    if let Some(v) = t.nums.get(name) {
                        po.values.push(*v);
                    }
                }
                Ok(po)
            }
            Err(err) if expect_error => {
                let mut po = PointOutput::default();
                if let Some(nt) = &note_template {
                    let mut b = point_disp.clone();
                    b.insert("error".into(), err.to_string());
                    po.notes.push(nt.render(&b));
                }
                Ok(po)
            }
            Err(err) => Err(err),
        }
    });
    Ok(())
}

/// Build the typed task for one point, consuming kind parameters from
/// the context. Returns the task plus the kind's parameter list (for
/// unknown-key suggestions).
fn build_task(
    ctx: &mut ParamCtx<'_>,
    spec: &Spec,
) -> Result<(Task, &'static [&'static str]), SpecError> {
    let kind = ctx.sweep.kind.clone();
    match kind.as_str() {
        "table1" => Ok((Task::Table1, &[])),
        "beff-in-node" => {
            let node = ctx
                .take_enum("node", node_kind)?
                .ok_or_else(|| ctx.missing("node"))?;
            let cpus = ctx
                .take_u32_list("cpus")?
                .ok_or_else(|| ctx.missing("cpus"))?;
            Ok((Task::BeffInNode { kind: node, cpus }, &["node", "cpus"]))
        }
        "beff-multi" => {
            let nodes = ctx.take_u32("nodes")?.ok_or_else(|| ctx.missing("nodes"))?;
            let inter = ctx
                .take_enum("fabric", fabric)?
                .ok_or_else(|| ctx.missing("fabric"))?;
            let mptv = ctx.take_enum("mpt", mpt)?.unwrap_or(MptVersion::Beta);
            let cpus = ctx
                .take_u32_list("cpus")?
                .ok_or_else(|| ctx.missing("cpus"))?;
            Ok((
                Task::BeffMulti {
                    nodes,
                    inter,
                    mpt: mptv,
                    cpus,
                },
                &["nodes", "fabric", "mpt", "cpus"],
            ))
        }
        "dgemm" => {
            let node = ctx
                .take_enum("node", node_kind)?
                .ok_or_else(|| ctx.missing("node"))?;
            let stride = ctx.take_u32("stride")?.unwrap_or(1);
            Ok((Task::Dgemm { kind: node, stride }, &["node", "stride"]))
        }
        "stream" => {
            let node = ctx
                .take_enum("node", node_kind)?
                .ok_or_else(|| ctx.missing("node"))?;
            let cpus = ctx.take_u32("cpus")?.ok_or_else(|| ctx.missing("cpus"))?;
            let stride = ctx.take_u32("stride")?.unwrap_or(1);
            Ok((
                Task::Stream {
                    kind: node,
                    cpus,
                    stride,
                },
                &["node", "cpus", "stride"],
            ))
        }
        "npb" => {
            let bench = ctx
                .take_enum("bench", npb_bench)?
                .ok_or_else(|| ctx.missing("bench"))?;
            let class = ctx
                .take_enum("class", npb_class)?
                .ok_or_else(|| ctx.missing("class"))?;
            let node = ctx
                .take_enum("node", node_kind)?
                .ok_or_else(|| ctx.missing("node"))?;
            let par = ctx
                .take_enum("paradigm", paradigm)?
                .ok_or_else(|| ctx.missing("paradigm"))?;
            let cpus = ctx
                .take_u32_list("cpus")?
                .ok_or_else(|| ctx.missing("cpus"))?;
            let (compilers, compiler_vec) =
                ctx.take_enum_vec("compiler", compiler, (CompilerVersion::V7_1, "7.1"))?;
            Ok((
                Task::Npb {
                    bench,
                    class,
                    kind: node,
                    paradigm: par,
                    cpus,
                    compilers,
                    compiler_vec,
                },
                &["bench", "class", "node", "paradigm", "cpus", "compiler"],
            ))
        }
        "ins3d" => {
            let (kinds, kind_vec) =
                ctx.take_enum_vec("node", node_kind, (NodeKind::Bx2b, "BX2b"))?;
            let (compilers, compiler_vec) =
                ctx.take_enum_vec("compiler", compiler, (CompilerVersion::V7_1, "7.1"))?;
            let groups = ctx
                .take_count(
                    "groups",
                    Some((TURBOPUMP_BLOCKS, "the turbopump system's block count")),
                )?
                .unwrap_or(36);
            let fit = format!("so that {groups} groups × 'threads' fit in one {MAX_CPUS}-CPU node");
            let threads = ctx
                .take_count("threads", Some((MAX_CPUS / groups, &fit)))?
                .ok_or_else(|| ctx.missing("threads"))?;
            Ok((
                Task::Ins3d {
                    kinds,
                    kind_vec,
                    compilers,
                    compiler_vec,
                    groups,
                    threads,
                },
                &["node", "compiler", "groups", "threads"],
            ))
        }
        "overflow" => {
            let (kinds, kind_vec) =
                ctx.take_enum_vec("node", node_kind, (NodeKind::Bx2b, "BX2b"))?;
            let (fabrics, fabric_vec) =
                ctx.take_enum_vec("fabric", fabric, (InterNodeFabric::NumaLink4, "NUMAlink4"))?;
            let (compilers, compiler_vec) =
                ctx.take_enum_vec("compiler", compiler, (CompilerVersion::V8_1, "8.1"))?;
            let procs_span = ctx.get("procs").map(|n| n.span).unwrap_or_default();
            let procs = ctx
                .take_count(
                    "procs",
                    Some((ROTOR_BLOCKS, "the rotor-wake system's block count")),
                )?
                .ok_or_else(|| ctx.missing("procs"))?;
            let threads = ctx.take_count("threads", None)?.unwrap_or(1);
            let nodes = ctx
                .take_count("nodes", Some((u32::MAX as usize, "a 32-bit count")))?
                .map_or(1, |n| n as u32);
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
            Ok((
                Task::Overflow {
                    kinds,
                    kind_vec,
                    fabrics,
                    fabric_vec,
                    compilers,
                    compiler_vec,
                    procs,
                    threads,
                    nodes,
                },
                &["node", "fabric", "compiler", "procs", "threads", "nodes"],
            ))
        }
        "mz" => {
            let bench = ctx
                .take_enum("bench", mz_bench)?
                .ok_or_else(|| ctx.missing("bench"))?;
            let class = ctx
                .take_enum("class", mz_class)?
                .ok_or_else(|| ctx.missing("class"))?;
            let procs = ctx
                .take_usize("procs")?
                .ok_or_else(|| ctx.missing("procs"))?;
            let threads = ctx
                .take_usize("threads")?
                .ok_or_else(|| ctx.missing("threads"))?;
            let node = ctx.take_enum("node", node_kind)?.unwrap_or(NodeKind::Bx2b);
            let nodes = ctx.take_u32("nodes")?.unwrap_or(1);
            let inter = ctx
                .take_enum("fabric", fabric)?
                .unwrap_or(InterNodeFabric::NumaLink4);
            let mptv = ctx.take_enum("mpt", mpt)?.unwrap_or(MptVersion::Beta);
            let (pinnings, pinning_vec) =
                ctx.take_enum_vec("pinning", pinning, (Pinning::Pinned, "pinned"))?;
            let faults = match ctx.get("faults") {
                Some(n) => {
                    let t = as_table(n, "'faults'")?.clone();
                    build_faults(ctx, &t)?
                }
                None => FaultPlan::none(),
            };
            Ok((
                Task::Mz {
                    bench,
                    class,
                    procs,
                    threads,
                    kind: node,
                    nodes,
                    inter,
                    mpt: mptv,
                    pinnings,
                    pinning_vec,
                    faults,
                },
                &[
                    "bench", "class", "procs", "threads", "node", "nodes", "fabric", "mpt",
                    "pinning", "faults",
                ],
            ))
        }
        "md-weak" => {
            let cpus = ctx.take_u32("cpus")?.ok_or_else(|| ctx.missing("cpus"))?;
            Ok((Task::MdWeak { cpus }, &["cpus"]))
        }
        "trace" => {
            let mut p = TraceParams {
                id: spec.report.id.clone(),
                title: spec.report.title.clone(),
                ..TraceParams::default()
            };
            if let Some(v) = ctx.take_usize("ranks")? {
                if v < 2 {
                    return Err(ctx.missing("ranks (must be >= 2)"));
                }
                p.ranks = v;
            }
            if let Some(v) = ctx.take_u32("nodes")? {
                if v == 0 {
                    return Err(ctx.missing("nodes (must be >= 1)"));
                }
                p.nodes = v;
            }
            if let Some(v) = ctx.take_f64("drop_prob")? {
                p.drop_prob = v;
            }
            if let Some(v) = ctx.take_u64("seed")? {
                p.seed = v;
            }
            if let Some(v) = ctx.take_u32("iters")? {
                p.iters = v;
            }
            if let Some(v) = ctx.take_usize("top")? {
                p.top = v;
            }
            if !(0.0..1.0).contains(&p.drop_prob) {
                return Err(invalid(
                    ctx.sweep.kind_span,
                    format!("'drop_prob' must be in [0, 1), got {}", p.drop_prob),
                ));
            }
            Ok((
                Task::Trace(p),
                &["ranks", "nodes", "drop_prob", "seed", "iters", "top"],
            ))
        }
        "columbia" => {
            let (config, span) = ctx
                .take_str("config")?
                .ok_or_else(|| ctx.missing("config"))?;
            let full = match config.as_str() {
                "full-machine" => true,
                "subsystem" => false,
                other => {
                    return Err(bad_enum(
                        span,
                        "columbia configuration",
                        other,
                        &["full-machine", "subsystem"],
                    ))
                }
            };
            Ok((Task::Columbia { full }, &["config"]))
        }
        other => unreachable!("kind '{other}' was validated against KINDS"),
    }
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
        for (kind, params, want) in cases {
            let text = format!(
                "schema = \"columbia-spec-v1\"\n\n[report]\nid = \"X\"\ntitle = \"x\"\n\
                 headers = [\"CPUs\"]\n\n[[sweep]]\nkind = \"{kind}\"\nrow = [\"{{cpus}}\"]\n\
                 {params}\n"
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
