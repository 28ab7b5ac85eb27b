//! CLI-level regression tests for the `repro` binary: the experiment
//! list and `--exp` against the goldens, unknown and repeated arguments
//! and a closed stdout, an output file that cannot be written, an
//! out-of-range spec value, a spec file in JSON, `--exp` and `--spec`
//! recording the same
//! manifest, stderr record ordering under degraded runs, and
//! `--analyze` determinism (across `--jobs` and under
//! `--checkpoint-dir`) and schema.

use std::path::PathBuf;
use std::process::{Command, Output};

use serde_json::Value;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "columbia-cli-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// `repro` stdout, asserting a clean exit.
fn repro_stdout(args: &[&str]) -> String {
    let out = repro(args);
    assert!(
        out.status.success(),
        "repro {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(repo_path(&format!("tests/golden/{name}.txt")))
        .expect("golden fixture readable")
}

/// `--list` prints the 18 experiments, one per line, in paper order.
#[test]
fn list_prints_the_experiments_in_paper_order() {
    let listed = repro_stdout(&["--list"]);
    let names: Vec<&str> = listed.lines().collect();
    assert_eq!(
        names,
        [
            "table1",
            "fig5",
            "dgemm-stream",
            "fig6",
            "table2",
            "table3",
            "stride",
            "fig7",
            "fig8",
            "table4",
            "fig9",
            "fig10",
            "fig11",
            "table5",
            "table6",
            "degraded",
            "trace",
            "columbia",
        ]
    );
}

/// `--exp` renders the golden report, aliases included; an unknown
/// name is a bad command line.
#[test]
fn exp_prints_the_golden_and_rejects_unknown_names() {
    assert_eq!(repro_stdout(&["--exp", "table1"]), golden("table1"));
    assert_eq!(
        repro_stdout(&["--exp", "bt_mz", "--jobs", "2"]),
        golden("fig9")
    );
    assert_eq!(repro_stdout(&["--exp", "hpcc"]), golden("dgemm-stream"));
    let out = repro(&["--exp", "nope"]);
    assert_eq!(out.status.code(), Some(2), "unknown experiment exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment 'nope'"));
}

/// An argument `repro` does not know is a bad command line: it exits 2
/// and names the argument before anything runs, instead of running
/// with the misspelt flag or stray word ignored.
#[test]
fn unknown_arguments_exit_2_before_anything_runs() {
    for (args, unknown) in [
        (&["--exp", "table1", "--job", "2"][..], "--job"),
        (&["table1"][..], "table1"),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument '{unknown}'")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

/// `repro` reads its command line once, so a value flag given twice is
/// a bad command line: it exits 2 and names the flag, instead of
/// running with the first value and never reading the second.
#[test]
fn a_value_flag_given_twice_exits_2() {
    for (args, flag) in [
        (&["--exp", "table1", "--exp", "fig5"][..], "--exp"),
        (
            &["--exp", "table1", "--jobs", "1", "--jobs", "0"][..],
            "--jobs",
        ),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

/// A reader that closes early (`repro --list | head -3`) ends `repro`
/// quietly: exit 0 and nothing on stderr, so a `pipefail` shell does
/// not fail. The reader is closed before the child starts, so every
/// run writes into a closed pipe.
#[test]
fn closed_stdout_ends_repro_quietly() {
    for args in [&["--list"][..], &["--exp", "table1"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

/// An output file that cannot be written fails the run: exit 1, a
/// `failed to write <path>: <error>` line and no `wrote <path>`. The
/// `table1` trace (352 bytes) is smaller than the write buffer, so on
/// `/dev/full` only the final flush writes: the error a dropped
/// `BufWriter` would swallow must still surface.
#[test]
fn an_unwritable_output_file_exits_1() {
    let dir = temp_dir("unwritable");
    let missing = dir.join("missing/t.json");
    let mut paths = vec![missing.to_str().unwrap()];
    if cfg!(target_os = "linux") {
        paths.push("/dev/full");
    }
    for path in paths {
        let out = repro(&["--exp", "table1", "--jobs", "1", "--trace", path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path}: {stderr}");
        assert!(
            stderr.contains(&format!("failed to write {path}: ")),
            "{path}: {stderr}"
        );
        assert!(
            !stderr.contains(&format!("wrote {path}")),
            "{path}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--exp table1` and `--spec specs/table1.toml` are the same job, so
/// their manifests agree byte for byte outside the `volatile` key:
/// name, plan fingerprint, report hash and the `spec` object.
#[test]
fn exp_and_spec_record_the_same_manifest() {
    let dir = temp_dir("exp-spec-manifest");
    let stable = |source: &[&str], file: &str| -> String {
        let path = dir.join(file);
        let mut args = source.to_vec();
        args.extend(["--jobs", "1", "--manifest", path.to_str().unwrap()]);
        assert_eq!(repro_stdout(&args), golden("table1"));
        let mut doc = serde_json::from_str(&std::fs::read_to_string(&path).unwrap())
            .expect("manifest parses");
        if let Value::Object(entries) = &mut doc {
            entries.retain(|(k, _)| k != "volatile");
        }
        serde_json::to_string_pretty(&doc)
    };
    let spec_path = repo_path("specs/table1.toml");
    let from_exp = stable(&["--exp", "table1"], "exp.json");
    let from_spec = stable(&["--spec", spec_path.to_str().unwrap()], "spec.json");
    assert!(from_exp.contains("\"content_hash\""), "{from_exp}");
    assert_eq!(from_exp, from_spec);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The machine-readable `SWEEP JSON` record must be the *first* stderr
/// record for its experiment — emitted before the human stats lines,
/// before per-failure detail, and regardless of `--manifest` being
/// active while the run degrades (failed points, diagnostic-row
/// collation). A consumer that greps the prefix must never lose the
/// record to a degraded collation.
#[test]
fn sweep_json_leads_stderr_even_when_manifest_records_a_degraded_run() {
    let dir = temp_dir("sweep-json");
    let manifest = dir.join("manifest.json");
    // A 100µs per-point deadline against points that simulate for
    // milliseconds: every point degrades to a deadline failure — the
    // run is maximally degraded.
    let out = repro(&[
        "--exp",
        "table4",
        "--jobs",
        "1",
        "--point-deadline",
        "0.0001",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    // Failed points surface in the exit code...
    assert_eq!(out.status.code(), Some(3), "degraded run exits 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    let sweep_idx = lines
        .iter()
        .position(|l| l.starts_with("SWEEP JSON "))
        .unwrap_or_else(|| panic!("no SWEEP JSON line in stderr:\n{stderr}"));
    // ...but the machine-readable record still leads: the human stats
    // line, the failure details, and the manifest write all follow it.
    let human_idx = lines
        .iter()
        .position(|l| l.starts_with("table4:"))
        .expect("human stats line present");
    let wrote_idx = lines
        .iter()
        .position(|l| l.starts_with("wrote "))
        .expect("manifest written");
    assert!(sweep_idx < human_idx, "SWEEP JSON precedes human stats");
    assert!(sweep_idx < wrote_idx, "SWEEP JSON precedes the manifest");
    let rec: Value =
        serde_json::from_str(lines[sweep_idx].trim_start_matches("SWEEP JSON ").trim())
            .expect("SWEEP JSON parses");
    assert_eq!(
        rec.get("schema").and_then(Value::as_str),
        Some("columbia-sweep-stats-v1")
    );
    assert_eq!(
        rec.get("experiment").and_then(Value::as_str),
        Some("table4")
    );
    let failed = rec
        .get("stats")
        .and_then(|s| s.get("failed"))
        .and_then(Value::as_f64)
        .expect("stats.failed");
    assert!(failed >= 1.0, "the run really degraded: {rec}");
    // The degraded report still flowed into the manifest.
    let m: Value =
        serde_json::from_str(&std::fs::read_to_string(&manifest).unwrap()).expect("manifest");
    let exps = m
        .get("experiments")
        .and_then(Value::as_array)
        .expect("experiments");
    assert_eq!(exps.len(), 1);
    assert!(
        exps[0]
            .get("stats")
            .and_then(|s| s.get("failed"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A count an overset workload would assert on is a spec error: an
/// OVERFLOW-D point with more processes than the rotor-wake system has
/// blocks exits 2 with a positioned diagnostic before anything runs,
/// where it used to panic inside the point and exit 101.
#[test]
fn an_out_of_range_overset_count_exits_2_at_its_key() {
    let spec = repo_path("tests/spec_corpus/invalid/overflow-procs-range.toml");
    let spec = spec.to_str().expect("UTF-8 path");
    let out = repro(&["--spec", spec, "--jobs", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with(&format!("{spec}:13:15: 'procs' must be at most 1679")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// A fault-plan value outside the bound `simnet::fault` states for it
/// is a spec error: a degraded link that would speed the link up exits
/// 2 at its value before anything runs, where it used to panic inside
/// `FaultPlan::degrade_link` and exit 101.
#[test]
fn an_out_of_range_fault_value_exits_2_at_its_value() {
    let spec = repo_path("tests/spec_corpus/invalid/faults-degrade-link-range.toml");
    let spec = spec.to_str().expect("UTF-8 path");
    let out = repro(&["--spec", spec, "--jobs", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with(&format!(
            "{spec}:18:60: 'latency_factor' must be at least 1, got 0.5"
        )),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// A spec is TOML text whatever its file's extension: JSON text in a
/// `.json` file is a parse error at its first byte, exit 2.
#[test]
fn a_json_spec_file_exits_2_at_its_first_byte() {
    let dir = temp_dir("json-spec");
    let spec = dir.join("json-form.json");
    std::fs::write(
        &spec,
        r#"{
  "schema": "columbia-spec-v1",
  "report": {
    "id": "JSON",
    "title": "the JSON alternate form",
    "headers": ["node", "Gflop/s"]
  },
  "sweep": [
    {
      "kind": "dgemm",
      "row": ["{node}", "{gflops}"],
      "grid": { "node": ["3700", "BX2b"] }
    }
  ]
}
"#,
    )
    .unwrap();
    let spec = spec.to_str().expect("UTF-8 path");
    let out = repro(&["--spec", spec, "--jobs", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with(&format!("{spec}:1:1: ")), "{stderr}");
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A multi-zone point with more processes than its class has zones
/// exits 2 at its `procs` value before anything runs, where it used to
/// panic inside the zone bin-packing and exit 101.
#[test]
fn more_mz_processes_than_zones_exits_2_at_procs() {
    let spec = repo_path("tests/spec_corpus/invalid/mz-procs-zones.toml");
    let spec = spec.to_str().expect("UTF-8 path");
    let out = repro(&["--spec", spec, "--jobs", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with(&format!(
            "{spec}:16:14: 'procs' must be at most 16 (class A's zone count)"
        )),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// An OVERFLOW-D point whose processes do not fit its nodes under the
/// placement policy (at most 508 CPUs per node unless the count is a
/// multiple of 512) is a spec error: it exits 2 at its `procs` value,
/// where it used to panic inside `Placement::new` and exit 101.
#[test]
fn an_overflow_point_that_overfills_its_nodes_exits_2_at_procs() {
    let spec = repo_path("tests/spec_corpus/invalid/overflow-placement.toml");
    let spec = spec.to_str().expect("UTF-8 path");
    let out = repro(&["--spec", spec, "--jobs", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with(&format!(
            "{spec}:13:15: 'procs' × 'threads' must fit 1 node(s)"
        )),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// A sweep that fails without resilience flags prints its structured
/// diagnosis and still exits 3, as a resilient run of it does.
#[test]
fn strict_sweep_failure_exits_3() {
    let dir = temp_dir("strict-failure");
    let spec = dir.join("exhausted.toml");
    // `specs/degraded.toml`'s fail-fast connection budget, without
    // `expect_error`: the point fails and so does the sweep.
    std::fs::write(
        &spec,
        r#"schema = "columbia-spec-v1"

[report]
id = "Exhausted"
title = "BT-MZ class C, 256x4 over 2 BX2b nodes, half the connections"
headers = ["scenario", "s/step"]

[[sweep]]
kind = "mz"
bench = "BT-MZ"
class = "C"
procs = 256
threads = 4
nodes = 2
fabric = "InfiniBand"
value = "s_step"
row = ["fail-fast", "{s_step}"]
faults = { connection_limit = { cards = 1, per_card = 8192, policy = "fail" } }
"#,
    )
    .unwrap();
    let out = repro(&["--spec", spec.to_str().unwrap(), "--jobs", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{stdout}");
    assert!(stdout.contains("simulation failed — structured diagnosis"));
    assert!(stdout.contains("InfiniBand connections exhausted"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro --analyze` output — the stdout report and the JSON export —
/// is byte-identical across `--jobs` values, the document carries the
/// `columbia-analysis-v1` schema, and every sim's critical path is
/// nonempty and accounts for its makespan.
#[test]
fn analyze_is_deterministic_and_schema_complete() {
    let dir = temp_dir("analyze");
    let run = |jobs: &str, file: &str, extra: &[&str]| -> (Vec<u8>, Value) {
        let path = dir.join(file);
        let mut args = vec![
            "--exp",
            "table4",
            "--jobs",
            jobs,
            "--analyze",
            path.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let out = repro(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = serde_json::from_str(&std::fs::read_to_string(&path).unwrap())
            .expect("analysis JSON parses");
        (out.stdout, doc)
    };
    let (stdout1, doc1) = run("1", "a1.json", &[]);
    let (stdout4, doc4) = run("4", "a4.json", &[]);
    assert_eq!(stdout1, stdout4, "stdout is jobs-independent");
    assert_eq!(
        serde_json::to_string(&doc1),
        serde_json::to_string(&doc4),
        "analysis export is jobs-independent"
    );
    // A resilience flag analyzes the same simulations.
    let store = dir.join("store");
    let (stdout_ck, doc_ck) = run(
        "1",
        "ack.json",
        &["--checkpoint-dir", store.to_str().unwrap()],
    );
    assert_eq!(
        stdout1, stdout_ck,
        "stdout is the same under --checkpoint-dir"
    );
    assert_eq!(
        serde_json::to_string(&doc1),
        serde_json::to_string(&doc_ck),
        "analysis export is the same under --checkpoint-dir"
    );
    assert_eq!(
        doc1.get("schema").and_then(Value::as_str),
        Some("columbia-analysis-v1")
    );
    let sims = doc1.get("sims").and_then(Value::as_array).expect("sims");
    assert!(!sims.is_empty(), "the experiment recorded simulations");
    for sim in sims {
        let makespan = sim.get("makespan").and_then(Value::as_f64).unwrap();
        let cp = sim.get("critical_path").expect("critical_path");
        let total = cp.get("total").and_then(Value::as_f64).unwrap();
        assert!(matches!(cp.get("truncated"), Some(Value::Bool(false))));
        assert!(
            (total - makespan).abs() <= 1e-9 * makespan.max(1.0),
            "critical path covers the makespan: {total} vs {makespan}"
        );
        assert!(!cp
            .get("segments")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
        assert!(sim.get("imbalance").is_some());
        assert!(sim.get("comm_matrix").is_some());
    }
    // The stdout report names the analysis table.
    let text = String::from_utf8_lossy(&stdout1);
    assert!(text.contains("bottleneck"), "analysis table on stdout");
    let _ = std::fs::remove_dir_all(&dir);
}
