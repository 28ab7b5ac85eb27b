//! The typed spec document: decode a parsed [`Table`] into a [`Spec`].
//!
//! Decoding validates document *structure* — required sections, value
//! types, unknown keys (with suggestions). Sweep-block parameters stay
//! raw [`Node`]s here; [`crate::spec::compile`] validates them against
//! the selected measurement kind, because only the kind knows which
//! parameters exist.

use super::toml::{Entry, Node, Span, Table, Value};
use super::{SpecError, SPEC_SCHEMA};

/// A validated spec document, ready to compile.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Report identity: id, title, column headers, plan-level notes.
    pub report: ReportSpec,
    /// Sweep blocks in declaration order (defaults already merged in).
    pub sweeps: Vec<SweepSpec>,
    /// Optional cross-point collation.
    pub collate: Option<CollateSpec>,
    /// `[defaults] sim_threads` — per-simulation PDES thread count
    /// requested for every point of this spec (`None` = runner
    /// decides). An execution hint only: results are bit-identical at
    /// any value.
    pub sim_threads: Option<usize>,
}

/// The `[report]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// Report id (e.g. `"Fig. 9"`).
    pub id: String,
    /// Report title line.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Plan-level notes, rendered after all point output.
    pub notes: Vec<String>,
}

/// One `[[sweep]]` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Measurement kind (`"npb"`, `"mz"`, `"dgemm"`, …).
    pub kind: String,
    /// Source position of the kind value.
    pub kind_span: Span,
    /// 1-based block index, for diagnostics.
    pub index: usize,
    /// Remaining parameters (defaults merged, block wins), raw — the
    /// compiler types them per kind.
    pub params: Vec<Entry>,
    /// Grid axes in declaration order; the cartesian product runs with
    /// the first axis slowest.
    pub grid: Vec<Axis>,
    /// Derived parameters, evaluated in declaration order.
    pub derived: Vec<Derived>,
}

/// One grid axis: scalar values bind the axis name; inline-table
/// values are tuple points binding each of their keys (an explicit
/// point list).
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Binding name (or tuple-axis label).
    pub name: String,
    /// Source position of the axis key.
    pub name_span: Span,
    /// Axis values.
    pub values: Vec<Node>,
}

/// One derived parameter: `name = "expr"`.
#[derive(Debug, Clone, PartialEq)]
pub struct Derived {
    /// Binding name.
    pub name: String,
    /// Source position of the name.
    pub name_span: Span,
    /// Expression text (see [`crate::spec::expr`]).
    pub expr: String,
    /// Source position of the expression string.
    pub expr_span: Span,
}

/// The `[collate]` section: a cross-point reduction applied at report
/// time. Its one mode, `"ratio-to-first"`, divides each point's scalar
/// value by the first point's and writes it into `column`.
#[derive(Debug, Clone, PartialEq)]
pub struct CollateSpec {
    /// Target column index.
    pub column: usize,
    /// Decimal places of the rendered ratio.
    pub decimals: usize,
    /// Suffix appended to the rendered ratio (e.g. `"x"`).
    pub suffix: String,
    /// Source position of the section, for late validation.
    pub span: Span,
}

/// Tracks the keys a decode stage asks a table's entries for, so that
/// an entry it never asked for becomes [`SpecError::UnknownKey`], with
/// a suggestion from the keys it did ask for.
pub(crate) struct Fields<'a> {
    entries: &'a [Entry],
    asked: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(entries: &'a [Entry]) -> Self {
        Fields {
            entries,
            asked: Vec::new(),
        }
    }

    /// The value of `key`, if present; asked for either way.
    pub(crate) fn take(&mut self, key: &'static str) -> Option<&'a Node> {
        self.asked.push(key);
        self.entries.iter().find(|e| e.key == key).map(|e| &e.node)
    }

    /// Error on the first entry never asked for, suggesting the closest
    /// key that was, the earliest asked on a tie.
    pub(crate) fn finish(self, context: &str) -> Result<(), SpecError> {
        for e in self.entries {
            if !self.asked.contains(&e.key.as_str()) {
                return Err(SpecError::UnknownKey {
                    line: e.key_span.line,
                    col: e.key_span.col,
                    key: e.key.clone(),
                    context: context.to_string(),
                    suggestion: super::suggest(&e.key, &self.asked),
                });
            }
        }
        Ok(())
    }
}

fn invalid(span: Span, message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        line: span.line,
        col: span.col,
        message: message.into(),
    }
}

pub(crate) fn as_str<'a>(node: &'a Node, what: &str) -> Result<&'a str, SpecError> {
    match &node.value {
        Value::Str(s) => Ok(s),
        v => Err(invalid(
            node.span,
            format!("{what} must be a string, found {}", v.type_name()),
        )),
    }
}

pub(crate) fn as_table<'a>(node: &'a Node, what: &str) -> Result<&'a Table, SpecError> {
    match &node.value {
        Value::Table(t) => Ok(t),
        v => Err(invalid(
            node.span,
            format!("{what} must be a table, found {}", v.type_name()),
        )),
    }
}

pub(crate) fn as_int(node: &Node, what: &str) -> Result<i64, SpecError> {
    match &node.value {
        Value::Int(i) => Ok(*i),
        v => Err(invalid(
            node.span,
            format!("{what} must be an integer, found {}", v.type_name()),
        )),
    }
}

fn as_str_array(node: &Node, what: &str) -> Result<Vec<String>, SpecError> {
    match &node.value {
        Value::Array(items) => items
            .iter()
            .map(|n| as_str(n, what).map(str::to_string))
            .collect(),
        v => Err(invalid(
            node.span,
            format!(
                "{what} must be an array of strings, found {}",
                v.type_name()
            ),
        )),
    }
}

/// Decode a parsed document into a [`Spec`].
pub fn decode(root: &Table) -> Result<Spec, SpecError> {
    let mut fields = Fields::new(&root.entries);

    let schema = fields
        .take("schema")
        .ok_or_else(|| invalid(Span { line: 1, col: 1 }, "missing required key 'schema'"))?;
    let schema_str = as_str(schema, "'schema'")?;
    if schema_str != SPEC_SCHEMA {
        return Err(invalid(
            schema.span,
            format!("unsupported schema '{schema_str}' (expected '{SPEC_SCHEMA}')"),
        ));
    }

    let report_node = fields.take("report").ok_or_else(|| {
        invalid(
            Span { line: 1, col: 1 },
            "missing required section [report]",
        )
    })?;
    let report = decode_report(as_table(report_node, "[report]")?)?;

    let mut sim_threads = None;
    let defaults: Vec<Entry> = match fields.take("defaults") {
        Some(n) => {
            let t = as_table(n, "[defaults]")?;
            let mut entries = Vec::new();
            for e in &t.entries {
                if e.key == "grid" || e.key == "derived" {
                    return Err(invalid(
                        e.key_span,
                        format!("[defaults] cannot set '{}' (it is per-sweep)", e.key),
                    ));
                }
                // `sim_threads` is spec-level execution policy, not a
                // sweep parameter: lift it out before merging defaults
                // into the blocks.
                if e.key == "sim_threads" {
                    let v = as_int(&e.node, "'sim_threads'")?;
                    if v < 1 {
                        return Err(invalid(
                            e.node.span,
                            format!("'sim_threads' must be at least 1, found {v}"),
                        ));
                    }
                    sim_threads = Some(v as usize);
                    continue;
                }
                entries.push(e.clone());
            }
            entries
        }
        None => Vec::new(),
    };

    let sweep_node = fields.take("sweep").ok_or_else(|| {
        invalid(
            Span { line: 1, col: 1 },
            "missing required section [[sweep]] (at least one sweep block)",
        )
    })?;
    let sweep_tables = match &sweep_node.value {
        Value::Array(items) => items,
        v => {
            return Err(invalid(
                sweep_node.span,
                format!(
                    "'sweep' must be an array of tables ([[sweep]] blocks), found {}",
                    v.type_name()
                ),
            ))
        }
    };
    if sweep_tables.is_empty() {
        return Err(invalid(
            sweep_node.span,
            "at least one [[sweep]] block is required",
        ));
    }
    let mut sweeps = Vec::new();
    for (i, n) in sweep_tables.iter().enumerate() {
        let t = as_table(n, "[[sweep]]")?;
        sweeps.push(decode_sweep(t, i + 1, &defaults, n.span)?);
    }

    let collate = match fields.take("collate") {
        Some(n) => Some(decode_collate(as_table(n, "[collate]")?, n.span)?),
        None => None,
    };

    fields.finish("the top level")?;

    Ok(Spec {
        report,
        sweeps,
        collate,
        sim_threads,
    })
}

fn decode_report(t: &Table) -> Result<ReportSpec, SpecError> {
    let mut f = Fields::new(&t.entries);
    let missing = |what: &str| {
        invalid(
            Span { line: 1, col: 1 },
            format!("[report] is missing required key '{what}'"),
        )
    };
    let id = as_str(f.take("id").ok_or_else(|| missing("id"))?, "'id'")?.to_string();
    let title = as_str(f.take("title").ok_or_else(|| missing("title"))?, "'title'")?.to_string();
    let headers_node = f.take("headers").ok_or_else(|| missing("headers"))?;
    let headers = as_str_array(headers_node, "'headers'")?;
    if headers.is_empty() {
        return Err(invalid(headers_node.span, "'headers' must not be empty"));
    }
    let notes = match f.take("notes") {
        Some(n) => as_str_array(n, "'notes'")?,
        None => Vec::new(),
    };
    f.finish("[report]")?;
    Ok(ReportSpec {
        id,
        title,
        headers,
        notes,
    })
}

fn decode_sweep(
    t: &Table,
    index: usize,
    defaults: &[Entry],
    block_span: Span,
) -> Result<SweepSpec, SpecError> {
    let kind_node = t
        .get("kind")
        .or_else(|| defaults.iter().find(|e| e.key == "kind").map(|e| &e.node));
    let kind_node = kind_node.ok_or_else(|| {
        invalid(
            block_span,
            format!("[[sweep]] block {index} is missing required key 'kind'"),
        )
    })?;
    let kind = as_str(kind_node, "'kind'")?.to_string();

    let grid = match t.get("grid") {
        Some(n) => {
            let gt = as_table(n, "[sweep.grid]")?;
            let mut axes = Vec::new();
            for e in &gt.entries {
                let values = match &e.node.value {
                    Value::Array(items) => items.clone(),
                    v => {
                        return Err(invalid(
                            e.node.span,
                            format!(
                                "grid axis '{}' must be an array, found {}",
                                e.key,
                                v.type_name()
                            ),
                        ))
                    }
                };
                if values.is_empty() {
                    return Err(invalid(
                        e.node.span,
                        format!("grid axis '{}' must not be empty", e.key),
                    ));
                }
                axes.push(Axis {
                    name: e.key.clone(),
                    name_span: e.key_span,
                    values,
                });
            }
            axes
        }
        None => Vec::new(),
    };

    let derived = match t.get("derived") {
        Some(n) => {
            let dt = as_table(n, "[sweep.derived]")?;
            let mut out = Vec::new();
            for e in &dt.entries {
                let expr = as_str(&e.node, &format!("derived parameter '{}'", e.key))?;
                out.push(Derived {
                    name: e.key.clone(),
                    name_span: e.key_span,
                    expr: expr.to_string(),
                    expr_span: e.node.span,
                });
            }
            out
        }
        None => Vec::new(),
    };

    // Merge: defaults first (block value wins in place), then
    // block-only keys in block order.
    let mut params: Vec<Entry> = Vec::new();
    for d in defaults {
        if d.key == "kind" {
            continue;
        }
        match t.get(&d.key) {
            Some(_) => {} // block version added below, in block order
            None => params.push(d.clone()),
        }
    }
    for e in &t.entries {
        if e.key == "kind" || e.key == "grid" || e.key == "derived" {
            continue;
        }
        params.push(e.clone());
    }

    Ok(SweepSpec {
        kind,
        kind_span: kind_node.span,
        index,
        params,
        grid,
        derived,
    })
}

fn decode_collate(t: &Table, span: Span) -> Result<CollateSpec, SpecError> {
    let mut f = Fields::new(&t.entries);
    let mode_node = f
        .take("mode")
        .ok_or_else(|| invalid(span, "[collate] is missing required key 'mode'"))?;
    let mode = as_str(mode_node, "'mode'")?;
    if mode != "ratio-to-first" {
        return Err(invalid(
            mode_node.span,
            format!("unknown collate mode '{mode}' (available: ratio-to-first)"),
        ));
    }
    let column_node = f
        .take("column")
        .ok_or_else(|| invalid(span, "[collate] is missing required key 'column'"))?;
    let column = as_int(column_node, "'column'")?;
    if column < 0 {
        return Err(invalid(column_node.span, "'column' must be >= 0"));
    }
    let decimals = match f.take("decimals") {
        Some(n) => {
            let d = as_int(n, "'decimals'")?;
            if !(0..=12).contains(&d) {
                return Err(invalid(n.span, "'decimals' must be between 0 and 12"));
            }
            d as usize
        }
        None => 3,
    };
    let suffix = match f.take("suffix") {
        Some(n) => as_str(n, "'suffix'")?.to_string(),
        None => String::new(),
    };
    f.finish("[collate]")?;
    Ok(CollateSpec {
        column: column as usize,
        decimals,
        suffix,
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::toml::parse as parse_table;

    const MINI: &str = r#"
schema = "columbia-spec-v1"

[report]
id = "T"
title = "a tiny spec"
headers = ["benchmark", "node", "per-CPU result"]

[defaults]
stride = 1

[[sweep]]
kind = "dgemm"
row = ["DGEMM", "{node}", "{gflops} Gflop/s"]

[sweep.grid]
node = ["3700", "BX2a", "BX2b"]
"#;

    #[test]
    fn decodes_and_merges_defaults() {
        let spec = decode(&parse_table(MINI).unwrap()).unwrap();
        assert_eq!(spec.report.id, "T");
        assert_eq!(spec.sweeps.len(), 1);
        let s = &spec.sweeps[0];
        assert_eq!(s.kind, "dgemm");
        // Default `stride` merged in, block `row` present.
        assert!(s.params.iter().any(|e| e.key == "stride"));
        assert!(s.params.iter().any(|e| e.key == "row"));
        assert_eq!(s.grid.len(), 1);
        assert_eq!(s.grid[0].name, "node");
        assert_eq!(s.grid[0].values.len(), 3);
    }

    #[test]
    fn unknown_top_level_key_suggests() {
        let text = MINI.replace("[defaults]", "[default]");
        let err = decode(&parse_table(&text).unwrap()).unwrap_err();
        match err {
            SpecError::UnknownKey {
                key, suggestion, ..
            } => {
                assert_eq!(key, "default");
                assert_eq!(suggestion.as_deref(), Some("defaults"));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn schema_is_mandatory_and_checked() {
        let err = decode(&parse_table("x = 1\n").unwrap()).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
        let text = MINI.replace("columbia-spec-v1", "columbia-spec-v9");
        let err = decode(&parse_table(&text).unwrap()).unwrap_err();
        assert!(err.to_string().contains("unsupported schema"), "{err}");
    }
}
