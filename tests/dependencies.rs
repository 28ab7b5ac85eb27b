//! No dead dependency lines: every `[dependencies]` and
//! `[dev-dependencies]` entry of every workspace crate is named in that
//! crate's own code.
//!
//! A crate names a dependency `dep` when one of its sources contains
//! `dep::` (at an identifier boundary) or `use dep`, with `-` spelled
//! `_`. Its sources are every `.rs` file under the crate's directory
//! plus the files its `[[test]]` and `[[example]]` tables point at
//! (`crates/core` registers the files of `tests/` and `examples/` that
//! way). Comments do not count: a doc line that mentions `rand::` keeps
//! no dependency alive.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories whose subdirectories are workspace crates.
const CRATE_ROOTS: [&str; 2] = ["crates", "vendor"];

/// What one manifest declares: its dependency names and the paths of
/// its `[[test]]` and `[[example]]` targets, relative to the crate
/// directory.
struct Manifest {
    deps: Vec<String>,
    target_paths: Vec<String>,
}

/// Read the dependency and target tables of a `Cargo.toml`. The
/// workspace's manifests use one entry per line (`name.workspace =
/// true`, `name = { path = ... }`, `path = "..."`), so a line scan is
/// enough.
fn parse_manifest(text: &str) -> Manifest {
    let mut manifest = Manifest {
        deps: Vec::new(),
        target_paths: Vec::new(),
    };
    let mut table = "";
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match table {
            "[dependencies]" | "[dev-dependencies]" => {
                let name = key.split('.').next().unwrap_or(key);
                manifest.deps.push(name.to_string());
            }
            "[[test]]" | "[[example]]" if key == "path" => {
                manifest
                    .target_paths
                    .push(value.trim().trim_matches('"').to_string());
            }
            _ => {}
        }
    }
    manifest
}

/// Every `.rs` file under `dir`, recursively (build output excluded).
fn rust_files(dir: &Path, out: &mut BTreeSet<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.insert(path);
        }
    }
}

/// `source` with its `//` comments removed, line by line. A `//` inside
/// a string literal cuts the line short too; that only ever hides a
/// name, so it can fail this test but never let a dead line pass.
fn strip_comments(source: &str) -> String {
    source
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Whether `code` names the crate `ident`: `ident::` not preceded by an
/// identifier character, or `use ident`.
fn names(code: &str, ident: &str) -> bool {
    let is_ident_char = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let path = format!("{ident}::");
    let qualified = code.match_indices(&path).any(|(at, _)| {
        code[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c))
    });
    let used = code.match_indices(&format!("use {ident}")).any(|(at, m)| {
        code[at + m.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c))
    });
    qualified || used
}

/// The number of dependency lines of the crate in `dir`, and
/// `crate (dependency)` for each one that its sources never name.
fn dead_dependencies(dir: &Path) -> (usize, Vec<String>) {
    let manifest_path = dir.join("Cargo.toml");
    let text = fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| panic!("{}: {e}", manifest_path.display()));
    let manifest = parse_manifest(&text);
    let mut files = BTreeSet::new();
    rust_files(dir, &mut files);
    for target in &manifest.target_paths {
        files.insert(dir.join(target));
    }
    let code: String = files
        .iter()
        .map(|file| {
            let source =
                fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            strip_comments(&source)
        })
        .collect::<Vec<_>>()
        .join("\n");
    let crate_name = dir.file_name().unwrap_or_default().to_string_lossy();
    let dead = manifest
        .deps
        .iter()
        .filter(|dep| !names(&code, &dep.replace('-', "_")))
        .map(|dep| format!("{crate_name} ({dep})"))
        .collect();
    (manifest.deps.len(), dead)
}

#[test]
fn every_dependency_is_named_in_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut crates, mut lines) = (0, 0);
    let mut dead = Vec::new();
    for crate_root in CRATE_ROOTS {
        let mut dirs: Vec<PathBuf> = fs::read_dir(root.join(crate_root))
            .unwrap_or_else(|e| panic!("{crate_root}/: {e}"))
            .flatten()
            .map(|entry| entry.path())
            .filter(|path| path.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        for dir in dirs {
            let (declared, unnamed) = dead_dependencies(&dir);
            crates += 1;
            lines += declared;
            dead.extend(unnamed);
        }
    }
    // Guards against a scan that finds nothing to check.
    assert!(crates >= 15, "found only {crates} crates under {root:?}");
    assert!(lines >= 40, "found only {lines} dependency lines");
    assert!(
        dead.is_empty(),
        "{} dependency lines name a crate their own code never uses; \
         delete them:\n  {}",
        dead.len(),
        dead.join("\n  ")
    );
}

// The cases below name made-up crates: this file is one of
// `crates/core`'s sources, so a real crate named here would count.

#[test]
fn a_name_counts_only_at_an_identifier_boundary() {
    assert!(names("use dice::Roll;", "dice"));
    assert!(names("let r = dice::roll(6);", "dice"));
    assert!(names("use dice_tray;", "dice_tray"));
    assert!(!names("let x = paradice::roll();", "dice"));
    assert!(!names("use dicey::roll;", "dice"));
    assert!(!names("dice_tray::open()", "dice"));
    assert!(!names(&strip_comments("/// see `dice::roll`"), "dice"));
}
