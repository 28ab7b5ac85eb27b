//! A hand-rolled TOML-subset parser for sweep specs.
//!
//! The repo's no-external-deps discipline rules out a real TOML crate,
//! so this module implements exactly the slice of TOML the spec
//! language needs: comments, `key = value` pairs, `[table]` and
//! `[[array-of-tables]]` headers with dotted paths, basic strings with
//! escapes, integers (with `_` separators), floats, booleans,
//! (multi-line) arrays, and single-line inline tables. Every parsed
//! value carries its source [`Span`] so later validation stages
//! ([`crate::spec::model`], [`crate::spec::compile`]) can report
//! line/column diagnostics, and every malformed input returns a typed
//! [`SpecError`] — the parser never panics (a property the fuzz
//! proptest holds).

use super::SpecError;

/// A 1-based source position (line, column) of a key or value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Span {
    /// A span for values with no source position (synthesized
    /// defaults); renders as `0:0`.
    pub const NONE: Span = Span { line: 0, col: 0 };
}

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer (`42`, `8_192`, `-3`).
    Int(i64),
    /// Float (`0.05`, `5.0e-3`).
    Float(f64),
    /// Basic string (`"BX2b"`).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Array (`[1, 2, 3]`, possibly spanning lines).
    Array(Vec<Node>),
    /// Table (from a `[header]` or an inline `{ k = v }`).
    Table(Table),
}

impl Value {
    /// Human name of the value's type, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Str(_) => "a string",
            Value::Bool(_) => "a boolean",
            Value::Array(_) => "an array",
            Value::Table(_) => "a table",
        }
    }
}

/// A value plus where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The value.
    pub value: Value,
    /// Source position of the value's first character.
    pub span: Span,
}

/// One table entry: key name, key position, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Key name.
    pub key: String,
    /// Source position of the key.
    pub key_span: Span,
    /// The value.
    pub node: Node,
}

/// An insertion-ordered table. Order is load-bearing: sweep blocks and
/// grid axes expand in declaration order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Entries in declaration order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Node> {
        self.entries.iter().find(|e| e.key == key).map(|e| &e.node)
    }
}

/// Parse a spec document into its root [`Table`].
pub fn parse(src: &str) -> Result<Table, SpecError> {
    Parser::new(src).parse_document()
}

/// Marks how a table in the tree came to exist, for redefinition
/// diagnostics (`[a]` twice is an error; `[[sweep]]` twice appends).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Origin {
    Header,
    Implicit,
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Path of the table currently receiving `key = value` lines; each
    /// segment is (key, descend-into-last-array-element).
    current: Vec<String>,
    root: Tree,
}

/// Mutable parse tree mirroring [`Table`] but tagging each table with
/// its [`Origin`] and flattening arrays-of-tables.
#[derive(Default)]
struct Tree {
    entries: Vec<TreeEntry>,
}

struct TreeEntry {
    key: String,
    key_span: Span,
    node: TreeNode,
}

enum TreeNode {
    Leaf(Node),
    Table(Tree, Origin),
    /// `[[name]]` array of tables.
    ArrayOfTables(Vec<Tree>, Span),
}

impl Tree {
    fn into_table(self) -> Table {
        let mut t = Table::default();
        for e in self.entries {
            let node = match e.node {
                TreeNode::Leaf(n) => n,
                TreeNode::Table(tree, _) => Node {
                    value: Value::Table(tree.into_table()),
                    span: e.key_span,
                },
                TreeNode::ArrayOfTables(trees, span) => Node {
                    value: Value::Array(
                        trees
                            .into_iter()
                            .map(|tr| Node {
                                value: Value::Table(tr.into_table()),
                                span,
                            })
                            .collect(),
                    ),
                    span,
                },
            };
            t.entries.push(Entry {
                key: e.key,
                key_span: e.key_span,
                node,
            });
        }
        t
    }
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            current: Vec::new(),
            root: Tree::default(),
        }
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, span: Span, message: impl Into<String>) -> SpecError {
        SpecError::Parse {
            line: span.line,
            col: span.col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Skip spaces and tabs (not newlines).
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.bump();
        }
    }

    /// Skip a `# …` comment up to (not including) the newline.
    fn skip_comment(&mut self) {
        while !matches!(self.peek(), None | Some(b'\n')) {
            self.bump();
        }
    }

    /// Skip whitespace, comments, and newlines (inside arrays).
    fn skip_filler(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') => {
                    self.bump();
                }
                Some(b'#') => self.skip_comment(),
                _ => break,
            }
        }
    }

    /// Consume the rest of the line, which must hold only whitespace or
    /// a comment.
    fn expect_line_end(&mut self) -> Result<(), SpecError> {
        self.skip_ws();
        if self.peek() == Some(b'#') {
            self.skip_comment();
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            Some(b'\r') => {
                self.bump();
                if self.peek() == Some(b'\n') {
                    self.bump();
                    Ok(())
                } else {
                    Err(self.err(self.span(), "expected a newline after '\\r'"))
                }
            }
            Some(c) => Err(self.err(
                self.span(),
                format!("unexpected character '{}' after value", c as char),
            )),
        }
    }

    fn parse_document(mut self) -> Result<Table, SpecError> {
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some(b'\n') | Some(b'\r') => {
                    self.bump();
                }
                Some(b'#') => self.skip_comment(),
                Some(b'[') => self.parse_header()?,
                Some(_) => self.parse_key_value()?,
            }
        }
        Ok(self.root.into_table())
    }

    fn parse_bare_key(&mut self) -> Result<(String, Span), SpecError> {
        let span = self.span();
        let mut key = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                key.push(c as char);
                self.bump();
            } else {
                break;
            }
        }
        if key.is_empty() {
            return Err(self.err(
                span,
                match self.peek() {
                    Some(c) => format!(
                        "expected a key, found '{}' (bare keys use A-Z a-z 0-9 _ -)",
                        c as char
                    ),
                    None => "expected a key, found end of input".to_string(),
                },
            ));
        }
        Ok((key, span))
    }

    fn parse_header(&mut self) -> Result<(), SpecError> {
        let open = self.span();
        self.bump(); // '['
        let array = self.peek() == Some(b'[');
        if array {
            self.bump();
        }
        let mut path = Vec::new();
        loop {
            self.skip_ws();
            let (key, span) = self.parse_bare_key()?;
            path.push((key, span));
            self.skip_ws();
            match self.peek() {
                Some(b'.') => {
                    self.bump();
                }
                Some(b']') => {
                    self.bump();
                    break;
                }
                Some(c) => {
                    return Err(self.err(
                        self.span(),
                        format!("expected '.' or ']' in table header, found '{}'", c as char),
                    ))
                }
                None => return Err(self.err(open, "unterminated table header")),
            }
        }
        if array {
            if self.peek() != Some(b']') {
                return Err(self.err(self.span(), "expected ']]' to close array-of-tables header"));
            }
            self.bump();
        }
        self.expect_line_end()?;

        // Navigate to the parent of the last segment, creating implicit
        // tables as needed, then define the final segment.
        let mut tree = &mut self.root;
        let (last, init) = path.split_last().expect("header path is non-empty");
        for (seg, seg_span) in init {
            tree = descend(tree, seg, *seg_span)?;
        }
        let (name, name_span) = last;
        let existing = tree.entries.iter_mut().find(|e| e.key == *name);
        match existing {
            None => {
                tree.entries.push(TreeEntry {
                    key: name.clone(),
                    key_span: *name_span,
                    node: if array {
                        TreeNode::ArrayOfTables(vec![Tree::default()], *name_span)
                    } else {
                        TreeNode::Table(Tree::default(), Origin::Header)
                    },
                });
            }
            Some(e) => match &mut e.node {
                TreeNode::ArrayOfTables(trees, _) if array => trees.push(Tree::default()),
                TreeNode::ArrayOfTables(_, _) => {
                    return Err(self.err(
                        *name_span,
                        format!("'{name}' is an array of tables; use [[{name}]] to append"),
                    ))
                }
                // A table first created implicitly (by a deeper header
                // like `[a.b]`) may be defined explicitly once.
                TreeNode::Table(_, origin @ Origin::Implicit) if !array => {
                    *origin = Origin::Header;
                }
                _ => return Err(self.err(*name_span, format!("table '{name}' is already defined"))),
            },
        }
        self.current = path.into_iter().map(|(k, _)| k).collect();
        Ok(())
    }

    fn parse_key_value(&mut self) -> Result<(), SpecError> {
        let (key, key_span) = self.parse_bare_key()?;
        self.skip_ws();
        match self.peek() {
            Some(b'=') => {
                self.bump();
            }
            Some(c) => {
                return Err(self.err(
                    self.span(),
                    format!("expected '=' after key '{key}', found '{}'", c as char),
                ))
            }
            None => return Err(self.err(self.span(), format!("expected '=' after key '{key}'"))),
        }
        self.skip_ws();
        let node = self.parse_value()?;
        self.expect_line_end()?;

        let mut tree = &mut self.root;
        let path = std::mem::take(&mut self.current);
        for seg in &path {
            tree = descend(tree, seg, key_span)?;
        }
        self.current = path;
        if tree.entries.iter().any(|e| e.key == key) {
            return Err(self.err(key_span, format!("duplicate key '{key}'")));
        }
        tree.entries.push(TreeEntry {
            key,
            key_span,
            node: TreeNode::Leaf(node),
        });
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Node, SpecError> {
        let span = self.span();
        match self.peek() {
            Some(b'"') => {
                let s = self.parse_string()?;
                Ok(Node {
                    value: Value::Str(s),
                    span,
                })
            }
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_inline_table(),
            Some(b't') | Some(b'f') => {
                let mut word = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphabetic() {
                        word.push(c as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
                match word.as_str() {
                    "true" => Ok(Node {
                        value: Value::Bool(true),
                        span,
                    }),
                    "false" => Ok(Node {
                        value: Value::Bool(false),
                        span,
                    }),
                    _ => Err(self.err(span, format!("expected a value, found '{word}'"))),
                }
            }
            Some(c) if c.is_ascii_digit() || c == b'-' || c == b'+' || c == b'.' => {
                self.parse_number(span)
            }
            Some(c) => Err(self.err(span, format!("expected a value, found '{}'", c as char))),
            None => Err(self.err(span, "expected a value, found end of input")),
        }
    }

    fn parse_string(&mut self) -> Result<String, SpecError> {
        let open = self.span();
        self.bump(); // '"'
        let mut s = String::new();
        loop {
            match self.bump() {
                None | Some(b'\n') => return Err(self.err(open, "unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => {
                    let esc_span = self.span();
                    match self.bump() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(c) => {
                            return Err(self.err(
                                esc_span,
                                format!("unknown escape '\\{}' in string", c as char),
                            ))
                        }
                        None => return Err(self.err(open, "unterminated string")),
                    }
                }
                Some(c) if c < 0x80 => s.push(c as char),
                Some(first) => {
                    // Re-assemble a UTF-8 sequence (the source is a
                    // &str, so the bytes are valid UTF-8).
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let mut buf = vec![first];
                    for _ in 1..len {
                        if let Some(b) = self.bump() {
                            buf.push(b);
                        }
                    }
                    match std::str::from_utf8(&buf) {
                        Ok(frag) => s.push_str(frag),
                        Err(_) => return Err(self.err(open, "invalid UTF-8 in string")),
                    }
                }
            }
        }
    }

    fn parse_number(&mut self, span: Span) -> Result<Node, SpecError> {
        let mut text = String::new();
        let mut prev: u8 = 0;
        while let Some(c) = self.peek() {
            let is_num_char = c.is_ascii_digit()
                || c == b'.'
                || c == b'_'
                || c == b'e'
                || c == b'E'
                || ((c == b'+' || c == b'-') && (text.is_empty() || prev == b'e' || prev == b'E'));
            if !is_num_char {
                break;
            }
            text.push(c as char);
            prev = c;
            self.bump();
        }
        let cleaned: String = text.chars().filter(|&c| c != '_').collect();
        let is_float = cleaned.contains('.') || cleaned.contains('e') || cleaned.contains('E');
        let value = if is_float {
            match cleaned.parse::<f64>() {
                Ok(f) if f.is_finite() => Value::Float(f),
                _ => return Err(self.err(span, format!("malformed number '{text}'"))),
            }
        } else {
            match cleaned.parse::<i64>() {
                Ok(i) => Value::Int(i),
                Err(_) => return Err(self.err(span, format!("malformed number '{text}'"))),
            }
        };
        Ok(Node { value, span })
    }

    fn parse_array(&mut self) -> Result<Node, SpecError> {
        let open = self.span();
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_filler();
            match self.peek() {
                Some(b']') => {
                    self.bump();
                    return Ok(Node {
                        value: Value::Array(items),
                        span: open,
                    });
                }
                None => return Err(self.err(open, "unterminated array")),
                _ => {}
            }
            items.push(self.parse_value()?);
            self.skip_filler();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {}
                Some(c) => {
                    return Err(self.err(
                        self.span(),
                        format!("expected ',' or ']' in array, found '{}'", c as char),
                    ))
                }
                None => return Err(self.err(open, "unterminated array")),
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Node, SpecError> {
        let open = self.span();
        self.bump(); // '{'
        let mut table = Table::default();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') => {
                    self.bump();
                    return Ok(Node {
                        value: Value::Table(table),
                        span: open,
                    });
                }
                Some(b'\n') | None => {
                    return Err(self.err(open, "unterminated inline table (must be one line)"))
                }
                _ => {}
            }
            let (key, key_span) = self.parse_bare_key()?;
            self.skip_ws();
            if self.peek() != Some(b'=') {
                return Err(self.err(
                    self.span(),
                    format!("expected '=' after key '{key}' in inline table"),
                ));
            }
            self.bump();
            self.skip_ws();
            let node = self.parse_value()?;
            if table.get(&key).is_some() {
                return Err(self.err(key_span, format!("duplicate key '{key}'")));
            }
            table.entries.push(Entry {
                key,
                key_span,
                node,
            });
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {}
                Some(c) => {
                    return Err(self.err(
                        self.span(),
                        format!(
                            "expected ',' or '}}' in inline table, found '{}'",
                            c as char
                        ),
                    ))
                }
                None => return Err(self.err(open, "unterminated inline table")),
            }
        }
    }
}

/// Descend one path segment, creating an implicit table if absent;
/// arrays of tables descend into their last element.
fn descend<'t>(tree: &'t mut Tree, seg: &str, span: Span) -> Result<&'t mut Tree, SpecError> {
    let idx = match tree.entries.iter().position(|e| e.key == seg) {
        Some(i) => i,
        None => {
            tree.entries.push(TreeEntry {
                key: seg.to_string(),
                key_span: span,
                node: TreeNode::Table(Tree::default(), Origin::Implicit),
            });
            tree.entries.len() - 1
        }
    };
    match &mut tree.entries[idx].node {
        TreeNode::Table(t, _) => Ok(t),
        TreeNode::ArrayOfTables(trees, _) => {
            Ok(trees.last_mut().expect("array of tables is never empty"))
        }
        TreeNode::Leaf(_) => Err(SpecError::Parse {
            line: span.line,
            col: span.col,
            message: format!("key '{seg}' is a value, not a table"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let t = parse(
            "schema = \"v1\" # trailing comment\n\
             count = 8_192\n\
             prob = 5.0e-3\n\
             on = true\n\
             [report]\n\
             id = \"Fig. 5\"\n\
             headers = [\n  \"a\", # comment\n  \"b\",\n]\n\
             [[sweep]]\n\
             kind = \"dgemm\"\n\
             [sweep.grid]\n\
             node = [\"3700\", \"BX2b\"]\n\
             [[sweep]]\n\
             combo = [{ procs = 64, threads = 1 }]\n",
        )
        .unwrap();
        assert_eq!(t.get("schema").unwrap().value, Value::Str("v1".into()));
        assert_eq!(t.get("count").unwrap().value, Value::Int(8192));
        assert_eq!(t.get("prob").unwrap().value, Value::Float(5.0e-3));
        assert_eq!(t.get("on").unwrap().value, Value::Bool(true));
        let report = match &t.get("report").unwrap().value {
            Value::Table(r) => r,
            v => panic!("report is {v:?}"),
        };
        assert_eq!(report.get("id").unwrap().value, Value::Str("Fig. 5".into()));
        let sweeps = match &t.get("sweep").unwrap().value {
            Value::Array(a) => a,
            v => panic!("sweep is {v:?}"),
        };
        assert_eq!(sweeps.len(), 2);
        let first = match &sweeps[0].value {
            Value::Table(s) => s,
            v => panic!("{v:?}"),
        };
        assert!(matches!(
            &first.get("grid").unwrap().value,
            Value::Table(g) if matches!(&g.get("node").unwrap().value, Value::Array(a) if a.len() == 2)
        ));
        let second = match &sweeps[1].value {
            Value::Table(s) => s,
            v => panic!("{v:?}"),
        };
        let combo = match &second.get("combo").unwrap().value {
            Value::Array(a) => a,
            v => panic!("{v:?}"),
        };
        assert!(matches!(
            &combo[0].value,
            Value::Table(c) if c.get("procs").unwrap().value == Value::Int(64)
        ));
    }

    #[test]
    fn spans_point_at_the_source() {
        let t = parse("a = 1\nlonger = \"x\"\n").unwrap();
        let e = &t.entries[1];
        assert_eq!(e.key_span, Span { line: 2, col: 1 });
        assert_eq!(e.node.span, Span { line: 2, col: 10 });
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("a = \"unterminated\n").unwrap_err();
        match err {
            SpecError::Parse { line, col, .. } => {
                assert_eq!((line, col), (1, 5));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("a = 1\na = 2\n").is_err(), "duplicate key");
        assert!(parse("[t]\n[t]\n").is_err(), "duplicate table");
        assert!(parse("x 1\n").is_err(), "missing equals");
        assert!(parse("x = 1e\n").is_err(), "malformed float");
    }
}
