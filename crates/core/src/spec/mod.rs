//! `core::spec` — the declarative sweep-spec frontend.
//!
//! Every experiment is data: a spec file (a TOML subset, the one input
//! form) declares a report shape plus a list of sweep blocks —
//! parameter grids over node kind, fabric, compiler, pinning, fault
//! plan, workload, class, and rank count, with cartesian products,
//! explicit point lists, and simple derived parameters — and
//! [`compile`] lowers it onto the existing [`crate::sweep::SweepPlan`]
//! machinery: one closure per point, and plain data for the rest (the
//! report skeleton, the notes, and the ratio column `[collate]` asks
//! for). Everything downstream (parallel execution, resilience,
//! checkpointing, manifests, analysis) is unchanged.
//!
//! The pipeline:
//!
//! ```text
//! text --toml::parse--> Table --model::decode--> Spec --compile--> SweepPlan
//! ```
//!
//! Each stage returns a typed [`SpecError`] carrying the 1-based
//! line/column of the offending token; unknown keys come with an
//! edit-distance suggestion ("did you mean 'class'?"). All validation
//! — types, enum values, template placeholders, derived expressions —
//! happens at compile time, so a compiled plan's points can only fail
//! with the simulator's own `SimError`. Specs are content-addressable
//! two ways: [`spec_hash`] is the FNV-128 of the spec bytes (recorded
//! in run manifests), and the compiled plan's
//! [`crate::sweep::SweepPlan::fingerprint`] identifies the plan shape.
//!
//! [`SpecJob`] is the one constructor both `repro` entry points use:
//! `--spec file.toml` reads the file once, `--exp name` takes the text
//! of `specs/<name>.toml` embedded in [`crate::experiments`], and
//! either way the plan and the content hash come from the same bytes.
//! DESIGN.md §14 is the language reference.

mod compile;
mod expr;
mod model;
mod toml;

use std::path::Path;

pub use compile::compile;
pub use model::{decode, Spec};
pub use toml::{Span, Table, Value};

use crate::store::Fnv128;
use crate::sweep::SweepPlan;

/// Schema tag every spec document must declare.
pub const SPEC_SCHEMA: &str = "columbia-spec-v1";

/// A typed spec failure: every way a spec file can be rejected, with
/// the 1-based source position of the offending token. `0:0` marks a
/// value with no source position (a default the compiler supplies).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The file could not be read.
    Io {
        /// Path as given.
        path: String,
        /// OS error text.
        message: String,
    },
    /// The text is not well-formed TOML-subset.
    Parse {
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
        /// What went wrong.
        message: String,
    },
    /// The document parsed but a value is invalid (wrong type, unknown
    /// enum name, bad template placeholder, failed derived
    /// expression, …).
    Invalid {
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
        /// What went wrong.
        message: String,
    },
    /// A key the schema does not know, with a best-effort suggestion.
    UnknownKey {
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
        /// The offending key.
        key: String,
        /// Where it appeared (e.g. `[report]`).
        context: String,
        /// Closest known key, if any is close enough.
        suggestion: Option<String>,
    },
}

impl SpecError {
    /// Source position of the error, when it has one.
    pub fn position(&self) -> Option<(u32, u32)> {
        match self {
            SpecError::Io { .. } => None,
            SpecError::Parse { line, col, .. }
            | SpecError::Invalid { line, col, .. }
            | SpecError::UnknownKey { line, col, .. } => Some((*line, *col)),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Io { path, message } => write!(f, "{path}: {message}"),
            SpecError::Parse { line, col, message } => {
                write!(f, "{line}:{col}: {message}")
            }
            SpecError::Invalid { line, col, message } => {
                write!(f, "{line}:{col}: {message}")
            }
            SpecError::UnknownKey {
                line,
                col,
                key,
                context,
                suggestion,
            } => {
                write!(f, "{line}:{col}: unknown key '{key}' in {context}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean '{s}'?)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Restricted Damerau-Levenshtein edit distance (substitution,
/// insertion, deletion, and adjacent transposition each cost 1), for
/// unknown-key suggestions — `rwo` is one typo away from `row`.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev2: Vec<usize> = vec![0; b.len() + 1];
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            let mut best = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            if i > 0 && j > 0 && ca == b[j - 1] && a[i - 1] == cb {
                best = best.min(prev2[j - 1] + 1);
            }
            cur[j + 1] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest candidate to `key`, if any is close enough to be a
/// plausible typo (edit distance ≤ 2 and under half the key's length,
/// or a pure case mismatch).
pub(crate) fn suggest(key: &str, candidates: &[&str]) -> Option<String> {
    let lower = key.to_ascii_lowercase();
    if let Some(c) = candidates.iter().find(|c| c.to_ascii_lowercase() == lower) {
        return Some((*c).to_string());
    }
    candidates
        .iter()
        .map(|c| (edit_distance(key, c), *c))
        .filter(|&(d, c)| d <= 2 && 2 * d <= key.len().max(c.len()))
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c.to_string())
}

/// FNV-128 content hash of a spec file's bytes, as 32 hex chars — what
/// the run manifest records so a result is pinned to the exact spec
/// text that produced it.
pub fn spec_hash(bytes: &[u8]) -> String {
    let mut h = Fnv128::new();
    h.update(b"columbia-spec\0");
    h.update(bytes);
    format!("{:032x}", h.finish())
}

/// Parse and validate spec text.
pub fn load_str(text: &str) -> Result<Spec, SpecError> {
    decode(&toml::parse(text)?)
}

/// One named, compiled spec: what `repro` runs for each `--spec` file
/// and each `--exp` name. The plan and [`SpecJob::content_hash`] are
/// derived from the same bytes, so a manifest can never pin spec text
/// that did not run.
#[derive(Debug)]
pub struct SpecJob {
    /// Experiment name: the `--exp` name, or a spec file's stem. Keys
    /// the checkpoint store's subdirectory and the manifest entry.
    pub name: String,
    /// The compiled sweep.
    pub plan: SweepPlan,
    /// [`spec_hash`] of the compiled text.
    pub content_hash: String,
}

impl SpecJob {
    /// Compile spec `text` as the experiment `name`, hashing exactly
    /// the bytes compiled.
    pub fn from_text(name: &str, text: &str) -> Result<SpecJob, SpecError> {
        Ok(SpecJob {
            name: name.to_string(),
            plan: compile(&load_str(text)?)?,
            content_hash: spec_hash(text.as_bytes()),
        })
    }

    /// Read a spec file once and compile it, named by its file stem —
    /// the `repro --spec` entry point. Any extension is read as the
    /// TOML subset.
    pub fn load(path: &Path) -> Result<SpecJob, SpecError> {
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let name = path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        SpecJob::from_text(&name, &text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suggestions_catch_plausible_typos() {
        assert_eq!(
            suggest("clas", &["class", "kind", "procs"]),
            Some("class".into())
        );
        assert_eq!(
            suggest("Kind", &["class", "kind", "procs"]),
            Some("kind".into())
        );
        assert_eq!(suggest("zzz", &["class", "kind", "procs"]), None);
    }

    #[test]
    fn spec_hash_is_stable_and_content_sensitive() {
        let a = spec_hash(b"schema = \"columbia-spec-v1\"\n");
        assert_eq!(a.len(), 32);
        assert_eq!(a, spec_hash(b"schema = \"columbia-spec-v1\"\n"));
        assert_ne!(a, spec_hash(b"schema = \"columbia-spec-v2\"\n"));
    }

    #[test]
    fn display_formats_pin_the_diagnostic_shape() {
        let e = SpecError::UnknownKey {
            line: 12,
            col: 3,
            key: "clas".into(),
            context: "[sweep] block 2 (kind 'npb')".into(),
            suggestion: Some("class".into()),
        };
        assert_eq!(
            e.to_string(),
            "12:3: unknown key 'clas' in [sweep] block 2 (kind 'npb') (did you mean 'class'?)"
        );
        assert_eq!(e.position(), Some((12, 3)));
    }
}
