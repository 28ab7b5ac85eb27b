//! Property suite for the spec frontend.
//!
//! Two holds, over cheap specs of the valid conformance corpus
//! (`tests/spec_corpus/valid/`):
//!
//! * **Schedule independence** — a spec-built plan renders the same
//!   report at `--jobs 1`, `2`, and `7`; the frontend inherits the
//!   sweep engine's determinism rather than re-proving it per spec.
//! * **No panics on garbage** — arbitrary byte mutations of valid
//!   spec text (corruption, truncation, insertion) always come back
//!   as `Ok` or a typed `SpecError`, never a panic. proptest treats a
//!   panic inside the closure as a failure and shrinks the mutation.

use std::path::PathBuf;

use columbia::spec::{compile, load_str};
use proptest::prelude::*;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Cheap corpus specs for the schedule-independence property — small
/// point counts, fast kinds, but covering grids, tuple axes, faults,
/// and collation.
const CHEAP: [&str; 6] = [
    "collate-ratio.toml",
    "dgemm-grid.toml",
    "grid-two-axes.toml",
    "md-weak-single.toml",
    "note-template.toml",
    "stream-stride.toml",
];

fn cheap_text(name: &str) -> String {
    std::fs::read_to_string(repo_path(&format!("tests/spec_corpus/valid/{name}"))).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_spec_means_same_report_across_job_counts(
        name in prop::sample::select(CHEAP.to_vec()),
    ) {
        let text = cheap_text(name);
        let serial = compile(&load_str(&text).unwrap())
            .unwrap()
            .run_with_jobs(1)
            .unwrap();
        for jobs in [2usize, 7] {
            let par = compile(&load_str(&text).unwrap())
                .unwrap()
                .run_with_jobs(jobs)
                .unwrap();
            prop_assert_eq!(serial.to_text(), par.to_text(), "{}: jobs={}", name, jobs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mutated_spec_bytes_never_panic(
        name in prop::sample::select(CHEAP.to_vec()),
        // Each word encodes one edit: low byte the replacement value,
        // next two bits the operation (overwrite / insert / delete),
        // the rest the position.
        edits in prop::collection::vec(0u64..u64::MAX, 1..8),
        truncate in 0u64..u64::MAX,
    ) {
        let mut bytes = cheap_text(name).into_bytes();
        for &word in &edits {
            if bytes.is_empty() {
                break;
            }
            let byte = word as u8;
            let pos = (word >> 10) as usize;
            let at = pos % bytes.len();
            match (word >> 8) % 3 {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        // Half the cases also truncate mid-document.
        if truncate % 2 == 0 {
            let t = (truncate >> 1) as usize;
            bytes.truncate(t % (bytes.len() + 1));
        }
        // Corruption may break UTF-8; the loader takes &str, so feed it
        // the lossy decoding (what any caller reading a file would do).
        let text = String::from_utf8_lossy(&bytes).into_owned();
        // The property is the absence of a panic; both outcomes are fine.
        let _ = load_str(&text).and_then(|s| compile(&s));
    }
}
