//! Spec-language conformance corpus.
//!
//! `tests/spec_corpus/valid/` holds small specs that must compile;
//! each pins its compiled plan's shape (`fingerprint`, `points`) in a
//! `.golden` sidecar. `tests/spec_corpus/invalid/` holds specs that
//! must be *rejected*; each pins the exact [`SpecError`] rendering —
//! line, column, message, and typo suggestion — in its sidecar. The
//! corpus is the executable definition of the language: a parser or
//! diagnostic change that moves any message shows up as a fixture
//! diff, reviewed like any golden change.
//!
//! To regenerate after a deliberate change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test spec_corpus
//! git diff tests/spec_corpus/   # review every changed line
//! ```
//!
//! As in `tests/golden_values.rs`, `UPDATE_GOLDEN` rewrites the
//! sidecars and then *fails* the run; re-run without it to confirm.
//!
//! [`SpecError`]: columbia::SpecError

use std::path::{Path, PathBuf};

use columbia::SpecJob;

fn corpus_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/spec_corpus")
        .join(sub)
}

/// Spec files in `dir`, sorted by name for stable iteration.
fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("missing corpus directory {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml" || x == "json"))
        .collect();
    files.sort();
    files
}

fn golden_sidecar(spec: &Path) -> PathBuf {
    spec.with_extension("golden")
}

/// Compare `actual` against the fixture's sidecar, honouring
/// `UPDATE_GOLDEN`. Returns whether the sidecar was rewritten.
fn check_sidecar(spec: &Path, actual: &str) -> bool {
    let path = golden_sidecar(spec);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return true;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing corpus sidecar {}: {e}\n\
             Generate it with `UPDATE_GOLDEN=1 cargo test --test spec_corpus`",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "corpus fixture {} diverged from its sidecar; if the change is \
         deliberate, regenerate with `UPDATE_GOLDEN=1 cargo test --test \
         spec_corpus` and review the diff",
        spec.display()
    );
    false
}

fn fail_if_updated(updated: bool) {
    if updated {
        panic!(
            "UPDATE_GOLDEN: rewrote corpus sidecars; review `git diff \
             tests/spec_corpus/`, then re-run without UPDATE_GOLDEN to confirm"
        );
    }
}

/// No sidecar without a spec: a renamed fixture must take its golden
/// along, or the orphan silently stops being checked.
fn assert_no_orphans(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|x| x == "golden") {
            let has_spec = p.with_extension("toml").exists() || p.with_extension("json").exists();
            assert!(has_spec, "orphaned corpus sidecar {}", p.display());
        }
    }
}

#[test]
fn valid_corpus_compiles_and_pins_plan_shapes() {
    let dir = corpus_dir("valid");
    let files = spec_files(&dir);
    assert!(
        files.len() >= 20,
        "valid corpus shrank to {} fixtures (floor is 20)",
        files.len()
    );
    assert_no_orphans(&dir);
    let mut updated = false;
    for spec in &files {
        let plan = SpecJob::load(spec)
            .unwrap_or_else(|e| panic!("valid fixture {} rejected: {e}", spec.display()))
            .plan;
        let actual = format!(
            "fingerprint = {:016x}\npoints = {}\n",
            plan.fingerprint(),
            plan.len()
        );
        updated |= check_sidecar(spec, &actual);
    }
    fail_if_updated(updated);
}

#[test]
fn invalid_corpus_is_rejected_with_pinned_diagnostics() {
    let dir = corpus_dir("invalid");
    let files = spec_files(&dir);
    assert!(
        files.len() >= 15,
        "invalid corpus shrank to {} fixtures (floor is 15)",
        files.len()
    );
    assert_no_orphans(&dir);
    let mut updated = false;
    for spec in &files {
        let err = match SpecJob::load(spec) {
            Err(e) => e,
            Ok(job) => panic!(
                "invalid fixture {} compiled to a {}-point plan",
                spec.display(),
                job.plan.len()
            ),
        };
        assert!(
            err.position().is_some(),
            "invalid fixture {} produced a positionless diagnostic: {err}",
            spec.display()
        );
        updated |= check_sidecar(spec, &format!("{err}\n"));
    }
    fail_if_updated(updated);
}
