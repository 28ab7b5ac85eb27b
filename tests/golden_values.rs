//! Golden-value regression suite: the harness every experiment runs
//! through.
//!
//! Two layers of pinning, both deliberate-update-only (see
//! `tests/README.md` for the workflow):
//!
//! 1. **Numeric goldens** — calibrated model outputs (§4.1 DGEMM and
//!    STREAM rates, the b_eff ping-pong latency/bandwidth tiers, the
//!    Table 1 peak-performance figures) asserted with
//!    [`columbia::assert_close!`] against hand-pinned constants and a
//!    tight relative tolerance. These catch accidental drift in
//!    `machine::calib` or the fabric cost models.
//! 2. **Experiment goldens** — one test per experiment. It compiles the
//!    experiment's embedded spec (the constructor `repro --spec` runs
//!    on a file), runs it at `--jobs 1` and at `--jobs 4`, and compares
//!    both reports byte-for-byte against `tests/golden/<name>.txt`, so
//!    the fixture pins the serial output and the parallel run proves
//!    scheduling never leaks into a report. Every simulation is seeded
//!    and collation is deterministic, so an exact match is the correct
//!    bar. `golden_fingerprints` pins each plan's identity (fingerprint
//!    and point count, `tests/golden/fingerprints.txt`), which
//!    checkpoint stores and run manifests key on. The paper-shape
//!    checks live in `core::experiments`, `integration_experiments.rs`
//!    and `parallel_determinism.rs`.
//!
//! `--sim-threads` stays out of this harness: `tests/pdes.rs`,
//! `tests/run_context.rs` and CI's PDES gate cover it.
//!
//! # Updating a golden fixture
//!
//! A mismatch means the model's output changed. If that is *intended*
//! (a calibration fix, a new report column):
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_values
//! git diff tests/golden/        # review every changed line
//! ```
//!
//! then describe the change in EXPERIMENTS.md. `UPDATE_GOLDEN` rewrites
//! the fixtures and then *fails* the run (so a stale env var can never
//! silently bless a regression in CI); re-run without it to confirm.

use std::path::PathBuf;

use columbia::assert_close;
use columbia::experiments::{plan, run_with_jobs, EXPERIMENTS};
use columbia::hpcc::beff::{self, Pattern};
use columbia::hpcc::{dgemm, stream};
use columbia::machine::calib;
use columbia::machine::cluster::InterNodeFabric;
use columbia::machine::memory::StreamOp;
use columbia::machine::node::{NodeKind, NodeModel};
use columbia::simnet::fabric::MptVersion;
use serde_json::Value;

// ---- numeric goldens ----

#[test]
fn golden_table1_peak_performance() {
    // Table 1's "Th. peak perf." row: 512 CPUs at 2 madds/cycle.
    assert_close!(
        NodeModel::new(NodeKind::Altix3700).peak_tflops(),
        3.07,
        0.005,
        "3700 peak Tflop/s"
    );
    assert_close!(
        NodeModel::new(NodeKind::Bx2a).peak_tflops(),
        3.07,
        0.005,
        "BX2a peak Tflop/s"
    );
    assert_close!(
        NodeModel::new(NodeKind::Bx2b).peak_tflops(),
        3.28,
        0.005,
        "BX2b peak Tflop/s"
    );
}

#[test]
fn golden_dgemm_gflops() {
    // §4.1.1: BX2b's faster clock buys ~6% over the 1.5 GHz parts.
    assert_close!(
        dgemm::simulate(NodeKind::Altix3700, 1).gflops_per_cpu,
        5.388,
        0.005,
        "DGEMM 3700"
    );
    assert_close!(
        dgemm::simulate(NodeKind::Bx2a, 1).gflops_per_cpu,
        5.388,
        0.005,
        "DGEMM BX2a"
    );
    assert_close!(
        dgemm::simulate(NodeKind::Bx2b, 1).gflops_per_cpu,
        5.747,
        0.005,
        "DGEMM BX2b"
    );
}

#[test]
fn golden_stream_triad_gbs() {
    // §4.1.1 dense (every CPU busy, bus shared) and §4.2 stride-2
    // (every second CPU idle, bus effectively private).
    assert_close!(
        stream::simulate(NodeKind::Altix3700, 512, 1).triad(),
        1.96e9,
        0.01,
        "STREAM triad 3700 dense"
    );
    assert_close!(
        stream::simulate(NodeKind::Bx2a, 512, 1).triad(),
        1.94e9,
        0.01,
        "STREAM triad BX2a dense"
    );
    assert_close!(
        stream::simulate(NodeKind::Bx2b, 512, 1).triad(),
        1.94e9,
        0.01,
        "STREAM triad BX2b dense"
    );
    assert_close!(
        stream::simulate(NodeKind::Altix3700, 128, 2).triad(),
        3.72e9,
        0.01,
        "STREAM triad 3700 stride 2"
    );
}

/// The body rows of `tests/golden/<file>`: each row's cells, which the
/// report pads with at least two spaces and which hold single spaces at
/// most.
fn golden_rows(file: &str) -> Vec<Vec<String>> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .skip_while(|line| !line.starts_with("---"))
        .skip(1)
        .take_while(|line| !line.is_empty() && !line.starts_with("note:"))
        .map(|line| {
            line.split("  ")
                .map(str::trim)
                .filter(|cell| !cell.is_empty())
                .map(String::from)
                .collect()
        })
        .collect()
}

/// An oracle that is not the simulator: every row of the `dgemm-stream`
/// and `stride` goldens against closed forms built from `machine`
/// parameters, compared at the report's printed precision. The goldens
/// are parsed; nothing is simulated.
///
/// * DGEMM per CPU: peak × `DGEMM_EFFICIENCY`, times the documented
///   1.003 ripple above stride 1.
/// * STREAM triad per CPU: `BUS_BANDWIDTH × STREAM_SINGLE_FRACTION` for
///   a CPU alone on its bus, `BUS_BANDWIDTH / sharers` when it shares
///   the bus, then × the triad's calibration factor and × the 3700's
///   edge on a 3700. Dense placement fills each bus (`cpus_per_bus`); a
///   stride of 2 or more leaves one CPU per bus.
#[test]
fn dgemm_and_stream_rows_match_their_closed_forms() {
    let dgemm = |kind: NodeKind, stride: u32| {
        let ripple = if stride > 1 { 1.003 } else { 1.0 };
        let peak = NodeModel::new(kind).processor.peak_gflops();
        format!("{:.3} Gflop/s", peak * calib::DGEMM_EFFICIENCY * ripple)
    };
    let triad = |kind: NodeKind, stride: u32| {
        let sharers = if stride >= 2 {
            1
        } else {
            NodeModel::new(kind).brick.cpus_per_bus
        };
        let bus = if sharers == 1 {
            calib::BUS_BANDWIDTH * calib::STREAM_SINGLE_FRACTION
        } else {
            calib::BUS_BANDWIDTH / f64::from(sharers)
        };
        let edge = if kind == NodeKind::Altix3700 {
            calib::STREAM_3700_EDGE
        } else {
            1.0
        };
        let bytes_per_s = bus * StreamOp::Triad.calib_factor() * edge;
        format!("{:.2} GB/s", bytes_per_s / 1e9)
    };
    let mut checked = 0;
    for row in golden_rows("dgemm-stream.txt") {
        let [bench, node, value] = &row[..] else {
            panic!("dgemm-stream row {row:?}");
        };
        let kind = NodeKind::ALL
            .into_iter()
            .find(|k| k.name() == node)
            .unwrap_or_else(|| panic!("node {node}"));
        let want = match bench.as_str() {
            "DGEMM" => dgemm(kind, 1),
            "STREAM triad (dense)" => triad(kind, 1),
            _ => panic!("dgemm-stream row {row:?}"),
        };
        assert_eq!(value, &want, "dgemm-stream: {bench} on {node}");
        checked += 1;
    }
    // `specs/stride.toml` runs every stride row on a 3700.
    for row in golden_rows("stride.txt") {
        let [bench, stride, value] = &row[..] else {
            panic!("stride row {row:?}");
        };
        let stride: u32 = stride.parse().expect("stride column");
        let want = match bench.as_str() {
            "DGEMM" => dgemm(NodeKind::Altix3700, stride),
            "STREAM triad" => triad(NodeKind::Altix3700, stride),
            _ => panic!("stride row {row:?}"),
        };
        assert_eq!(value, &want, "stride: {bench} at stride {stride}");
        checked += 1;
    }
    assert_eq!(checked, 12, "six rows in each golden");
}

#[test]
fn golden_pingpong_latency_bandwidth_tiers() {
    // The four fabric tiers the whole communication model hangs off,
    // measured as b_eff average ping-pong at small CPU counts.
    let nl3 = beff::in_node_sweep(NodeKind::Altix3700, &[4]);
    let p = nl3.get(Pattern::PingPong, 4).unwrap();
    assert_close!(p.latency, 1.15e-6, 0.01, "NUMAlink3 in-node latency");
    assert_close!(p.bandwidth, 1.76e9, 0.01, "NUMAlink3 in-node bandwidth");

    let nl4 = beff::in_node_sweep(NodeKind::Bx2b, &[4]);
    let p = nl4.get(Pattern::PingPong, 4).unwrap();
    assert_close!(p.latency, 1.15e-6, 0.01, "NUMAlink4 in-node latency");
    assert_close!(p.bandwidth, 3.01e9, 0.01, "NUMAlink4 in-node bandwidth");

    let nl4x = beff::multi_node_sweep(2, InterNodeFabric::NumaLink4, MptVersion::Beta, &[256]);
    let p = nl4x.get(Pattern::PingPong, 256).unwrap();
    assert_close!(p.latency, 2.40e-6, 0.01, "NUMAlink4 inter-node latency");
    assert_close!(p.bandwidth, 3.01e9, 0.01, "NUMAlink4 inter-node bandwidth");

    let ib = beff::multi_node_sweep(2, InterNodeFabric::InfiniBand, MptVersion::Beta, &[256]);
    let p = ib.get(Pattern::PingPong, 256).unwrap();
    assert_close!(p.latency, 6.70e-6, 0.01, "InfiniBand inter-node latency");
    assert_close!(p.bandwidth, 0.80e9, 0.01, "InfiniBand inter-node bandwidth");
}

// ---- experiment goldens ----

/// Compare `actual` against `tests/golden/<file>`; under
/// `UPDATE_GOLDEN=1` rewrite the fixture instead, then fail anyway,
/// forcing a clean confirmation run (see the module docs).
fn check_fixture(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        panic!(
            "UPDATE_GOLDEN: rewrote {}; review `git diff tests/golden/`, \
             note the change in EXPERIMENTS.md, then re-run without \
             UPDATE_GOLDEN to confirm",
            path.display()
        );
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             Generate it with `UPDATE_GOLDEN=1 cargo test --test golden_values`",
            path.display()
        )
    });
    if expected != actual {
        // A unified line diff would hide whitespace churn; show both
        // sides and let the developer diff the written file instead.
        panic!(
            "tests/golden/{file} no longer matches.\n\
             If the model change is intentional, run \
             `UPDATE_GOLDEN=1 cargo test --test golden_values`, review \
             `git diff tests/golden/`, and record why in EXPERIMENTS.md.\n\
             --- golden ---\n{expected}\n--- actual ---\n{actual}"
        );
    }
}

/// Run experiment `name` at `--jobs 1` and `--jobs 4` and hold both
/// reports to its fixture.
fn check_golden(name: &str) {
    let report = run_with_jobs(name, 1);
    let serial = format!("{}\n", report.to_text());
    let parallel = format!("{}\n", run_with_jobs(name, 4).to_text());
    assert_eq!(
        parallel, serial,
        "{name}: the --jobs 4 report differs from --jobs 1"
    );
    check_fixture(&format!("{name}.txt"), &serial);
    let json = serde_json::from_str(&report.to_json()).expect("report JSON parses");
    assert_eq!(
        json.get("id").and_then(Value::as_str),
        Some(report.id.as_str()),
        "{name}: the JSON form carries the report id"
    );
}

macro_rules! golden_report {
    ($($test:ident => $name:literal,)+) => {
        $(
            #[test]
            fn $test() {
                check_golden($name);
            }
        )+
    };
}

golden_report! {
    golden_report_table1 => "table1",
    golden_report_fig5 => "fig5",
    golden_report_dgemm_stream => "dgemm-stream",
    golden_report_fig6 => "fig6",
    golden_report_table2 => "table2",
    golden_report_table3 => "table3",
    golden_report_stride => "stride",
    golden_report_fig7 => "fig7",
    golden_report_fig8 => "fig8",
    golden_report_table4 => "table4",
    golden_report_fig9 => "fig9",
    golden_report_fig10 => "fig10",
    golden_report_fig11 => "fig11",
    golden_report_table5 => "table5",
    golden_report_table6 => "table6",
    golden_report_degraded => "degraded",
    golden_report_trace => "trace",
    golden_report_columbia => "columbia",
}

/// Every experiment's plan identity — `name fingerprint points`, one
/// line each in paper order — as the embedded specs compile it. The
/// checkpoint store and the run manifest both key on the fingerprint,
/// so a moved line orphans existing `--checkpoint-dir` stores.
#[test]
fn golden_fingerprints() {
    let actual: String = EXPERIMENTS
        .iter()
        .map(|(name, _)| {
            let p = plan(name);
            format!("{name} {:016x} {}\n", p.fingerprint(), p.len())
        })
        .collect();
    check_fixture("fingerprints.txt", &actual);
}
