//! CLI-level regression tests for the `repro` and `bench-compare`
//! binaries: the experiment list and `--exp` against the goldens,
//! `--exp` and `--spec` recording the same manifest, stderr record
//! ordering under degraded runs, `--analyze` determinism and schema,
//! and the bench gate's improved section.

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
    let run = |jobs: &str, file: &str| -> (Vec<u8>, Value) {
        let path = dir.join(file);
        let out = repro(&[
            "--exp",
            "table4",
            "--jobs",
            jobs,
            "--analyze",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = serde_json::from_str(&std::fs::read_to_string(&path).unwrap())
            .expect("analysis JSON parses");
        (out.stdout, doc)
    };
    let (stdout1, doc1) = run("1", "a1.json");
    let (stdout4, doc4) = run("4", "a4.json");
    assert_eq!(stdout1, stdout4, "stdout is jobs-independent");
    assert_eq!(
        serde_json::to_string(&doc1),
        serde_json::to_string(&doc4),
        "analysis export is jobs-independent"
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

/// `bench-compare` prints a clearly labeled "improved" section for
/// benches past the threshold in the good direction — and still exits
/// 0: improvements inform, only regressions gate.
#[test]
fn bench_compare_reports_improvements_and_passes() {
    use columbia_bench::BenchRecord;
    let dir = temp_dir("improved");
    let baseline = dir.join("baseline");
    let current = dir.join("current");
    std::fs::create_dir_all(&baseline).unwrap();
    std::fs::create_dir_all(&current).unwrap();
    let write = |dir: &PathBuf, rec: BenchRecord| {
        std::fs::write(
            dir.join(rec.manifest_file_name()),
            serde_json::to_string_pretty(&rec.manifest_value()),
        )
        .unwrap();
    };
    // One bench improved 50%, one within threshold.
    write(
        &baseline,
        BenchRecord::new("mailbox", "speedup", true).metric("speedup", 1.5, 3),
    );
    write(
        &baseline,
        BenchRecord::new("engine", "speedup", true).metric("speedup", 2.0, 3),
    );
    write(
        &current,
        BenchRecord::new("mailbox", "speedup", true).metric("speedup", 2.25, 3),
    );
    write(
        &current,
        BenchRecord::new("engine", "speedup", true).metric("speedup", 2.1, 3),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_bench-compare"))
        .args([
            "--baseline",
            baseline.to_str().unwrap(),
            "--current",
            current.to_str().unwrap(),
            "--threshold",
            "0.2",
        ])
        .output()
        .expect("bench-compare runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "improvements pass: {stdout}");
    assert!(
        stdout.contains("improved (1 bench(es)"),
        "labeled improved section:\n{stdout}"
    );
    assert!(
        stdout.contains("improved  mailbox:") && stdout.contains("good direction"),
        "improvement detail:\n{stdout}"
    );
    assert!(
        !stdout.contains("improved  engine:"),
        "within-threshold moves are not improvements:\n{stdout}"
    );
    assert!(stdout.contains("bench-compare: OK"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
