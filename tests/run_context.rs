//! Run configuration is one explicit value: each run's thread count,
//! trace list and host capture are the `RunContext` it is handed, so
//! two differently-configured sweeps can run at once in one process,
//! and no `static` holds any of it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

use columbia::experiments::plan;
use columbia::obs::{HostReport, RunContext, TraceBundle};

/// Runs per side while both sides run concurrently.
const ROUNDS: usize = 3;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The golden report text of experiment `name`, as `repro` prints it.
fn golden(name: &str) -> String {
    let path = repo_root().join("tests/golden").join(format!("{name}.txt"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Run experiment `name` in `ctx` at `--jobs 2` and render its report.
fn report(ctx: &RunContext, name: &str) -> String {
    let report = plan(name).run(ctx, 2).expect("the experiment runs");
    format!("{}\n", report.to_text())
}

/// What the comparison of two captures looks at: each bundle's label,
/// span count and edge count.
fn shape(bundles: &[TraceBundle]) -> Vec<(String, usize, usize)> {
    bundles
        .iter()
        .map(|b| (b.label.clone(), b.spans.len(), b.edges.len()))
        .collect()
}

#[test]
fn two_differently_configured_sweeps_run_at_once() {
    let (trace, table2) = (golden("trace"), golden("table2"));
    // A records at 3 simulation threads: two partitions on the `trace`
    // experiment's two nodes. B is idle at one thread.
    let a = RunContext::new(3).with_traces().with_host_capture();
    let b = RunContext::new(1);

    let alone = RunContext::new(3).with_traces();
    for _ in 0..ROUNDS {
        assert_eq!(report(&alone, "trace"), trace);
    }
    let expected = shape(&alone.take_traces());
    assert_eq!(expected.len(), ROUNDS, "one simulation per run");

    let start = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for _ in 0..ROUNDS {
                assert_eq!(report(&a, "trace"), trace);
            }
        });
        s.spawn(|| {
            start.wait();
            for _ in 0..ROUNDS {
                assert_eq!(report(&b, "table2"), table2);
            }
        });
    });

    assert_eq!(shape(&a.take_traces()), expected);
    assert!(b.take_traces().is_empty(), "B records nothing");
    assert!(b.take_host_report().is_none(), "B has no capture");

    // A's capture holds A's job spans and partition lanes, nothing of B.
    let host: HostReport = a.take_host_report().expect("A's capture");
    let points = plan("trace").len();
    assert_eq!(host.spans.len(), points * ROUNDS);
    assert!(
        host.spans
            .iter()
            .all(|s| s.cat == "host.job" && s.label == "job 0"),
        "only A's jobs: {:?}",
        host.spans.iter().map(|s| &s.label).collect::<Vec<_>>()
    );
    assert_eq!(host.metrics.counter("host.jobs") as usize, points * ROUNDS);
    assert_eq!(host.partition_lanes(), vec![0, 1]);
    assert!(host
        .partitions
        .iter()
        .all(|p| p.label.starts_with("round ") || p.label.starts_with("leader ")));
}

/// Every `static` that non-test code under `crates/*/src` may declare,
/// with the reason it does not hold run configuration.
const ALLOWED_STATICS: [(&str, &str, &str); 3] = [
    (
        "crates/obs/src/context.rs",
        "PROCESS_DEFAULT",
        "the process-default context: read and written only by the probe \
         shims, and deleted with them by ROADMAP item 3, step 3",
    ),
    (
        "crates/core/src/store.rs",
        "TMP_SEQ",
        "a sequence counter that keeps temp-file names apart",
    ),
    (
        "crates/overflowd/src/perf.rs",
        "ROTOR_WAKE",
        "a constant grid system built once per process",
    ),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(file, name)` of every `static` item and `thread_local!` in the
/// non-test code of `crates/*/src`: each file up to its first
/// `#[cfg(test)]`, comments aside.
fn declared_statics() -> Vec<(String, String)> {
    let root = repo_root();
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut found = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(&root)
            .expect("under the repository")
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(&file).expect("source is UTF-8");
        for line in text
            .lines()
            .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        {
            let code = line.split("//").next().unwrap_or("");
            if code.contains("thread_local!") {
                found.push((rel.clone(), "thread_local!".to_string()));
            }
            // Words keep their `'`, so a `'static` lifetime is not a
            // `static` item.
            let words: Vec<&str> = code
                .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '\''))
                .filter(|w| !w.is_empty() && *w != "mut")
                .collect();
            for pair in words.windows(2) {
                if pair[0] == "static" {
                    found.push((rel.clone(), pair[1].to_string()));
                }
            }
        }
    }
    found.sort();
    found
}

#[test]
fn no_static_holds_run_configuration() {
    let found = declared_statics();
    let mut allowed: Vec<(String, String)> = ALLOWED_STATICS
        .iter()
        .map(|(file, name, _)| (file.to_string(), name.to_string()))
        .collect();
    allowed.sort();
    let unexpected: Vec<&(String, String)> =
        found.iter().filter(|s| !allowed.contains(s)).collect();
    assert!(
        unexpected.is_empty(),
        "statics that are not on the allow-list (run configuration belongs in a RunContext): \
         {unexpected:?}"
    );
    assert_eq!(found, allowed, "an allow-list entry names no static");
}
