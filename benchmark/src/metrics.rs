//! The metric catalogue and how metrics are printed.
//!
//! Every name here is listed in `BENCHMARK.json` with the same unit; a
//! unit test keeps the two in step. A run with `--trace 0` reports
//! exactly [`END_TO_END`], a run with `--trace 1` exactly [`PER_LAYER`].

use crate::json::quote;
use crate::stats;

/// End-to-end metrics, measured on `repro` itself with tracing off.
pub const END_TO_END: [(&str, &str); 3] = [
    // Median wall time of one `repro` invocation, in reference-host
    // seconds (see `calibrate`).
    ("wall_s", "s"),
    // Median of the workload's set-up repetitions, rescaled likewise.
    ("setup_s", "s"),
    // Median over the timed invocations of each child's peak resident
    // set. With two sweep threads it varies with which points overlap,
    // so the median is steadier than the largest.
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced pass, named `<layer>.<what>` after
/// the modules they time.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("host.stream_triad_gbs", "GB/s"),
    ("host.dgemm_gflops", "GFLOP/s"),
    ("spec.parse_us", "us"),
    ("spec.compile_us", "us"),
    ("spec.points", "count"),
    ("sweep.run_s", "s"),
    ("sweep.point_busy_s", "s"),
    ("sweep.point_p50_ms", "ms"),
    ("sweep.point_max_s", "s"),
    ("sweep.idle_frac", "fraction"),
    ("sweep.tail_ms", "ms"),
    ("sweep.resumed_points", "count"),
    ("sweep.failed_points", "count"),
    ("sweep.retries", "count"),
    ("store.save_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.load_us", "us"),
    ("store.hit_ratio", "fraction"),
    ("report.render_us", "us"),
    ("report.bytes", "bytes"),
    ("runtime.mz_e_512x2.execute_s", "s"),
    ("runtime.mz_e_512x2.costing_s", "s"),
    ("runtime.mz_e_512x2.ns_per_rank", "ns"),
    ("workload.mz_e_512x2.build_spec_ms", "ms"),
    ("workload.md_weak_1008.point_s", "s"),
    ("fabric.columbia.build_us", "us"),
    ("fabric.mz_e_512x2.build_us", "us"),
    ("fabric.lookup_ns", "ns"),
    ("engine.full_machine.sim_ms", "ms"),
    ("engine.subsystem.sim_ms", "ms"),
    ("engine.ns_per_op", "ns"),
    ("engine.multiplexed_msgs", "count"),
    ("engine.mz_e_512x2.twin_ms", "ms"),
    ("pdes.full_machine.sim_ms", "ms"),
    ("pdes.subsystem.sim_ms", "ms"),
    ("pdes.ns_per_op", "ns"),
    ("pdes.speedup2", "x"),
    ("obs.spans", "count"),
    ("obs.edges", "count"),
    ("obs.analyze_s", "s"),
    ("obs.analyze_ns_per_edge", "ns"),
    ("obs.export_s", "s"),
    ("obs.serialize_s", "s"),
    ("obs.trace_mb", "MB"),
    ("obs.serialize_mb_per_s", "MB/s"),
    ("obs.write_s", "s"),
    ("pass.wall_s", "s"),
    ("pass.accounted_frac", "fraction"),
    ("pass.obs_s", "s"),
    ("cli.overhead_s", "s"),
];

/// The unit of the metric `name`, if the catalogue has it.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One reported metric: its value and the samples it was reduced from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples behind `value` (just `value` for a single reading).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric reduced from `samples`, or an error if `name` is not in
    /// the catalogue or the value is not a finite number.
    pub fn new(name: &str, value: f64, samples: Vec<f64>) -> Result<Metric, String> {
        let unit = unit(name).ok_or(format!("metric {name} is not in the catalogue"))?;
        if !value.is_finite() || samples.is_empty() {
            return Err(format!("metric {name} has no finite value ({value})"));
        }
        Ok(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        })
    }

    /// A metric read once.
    pub fn single(name: &str, value: f64) -> Result<Metric, String> {
        Metric::new(name, value, vec![value])
    }

    /// The human-readable line: `workload metric value unit (n, q1–q3)`.
    pub fn line(&self, workload: &str) -> String {
        let (q1, q3) = stats::quartiles(&self.samples);
        format!(
            "{workload} {} {} {} (n={}, {}–{})",
            self.name,
            self.value,
            self.unit,
            self.samples.len(),
            q1,
            q3
        )
    }

    /// `"name": {"value": v, "unit": u}`, the entry of the result line.
    pub fn json_entry(&self, key: &str) -> String {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(key),
            self.value,
            quote(self.unit)
        )
    }
}

/// Check that `metrics` holds exactly the names of `catalogue`.
pub fn check_complete(metrics: &[Metric], catalogue: &[(&str, &str)]) -> Result<(), String> {
    let mut got: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let mut want: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
        return Err(format!(
            "metric set mismatch: missing {missing:?}, unexpected {extra:?}"
        ));
    }
    Ok(())
}

/// The result object the benchmark prints as its last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, entries: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let m = Metric::new("wall_s", 1.25, vec![1.0, 1.25, 2.0]).unwrap();
        let line = result_line(true, 3, 0, &[m.json_entry(&m.name)]);
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn metrics_refuse_unknown_names_and_non_finite_values() {
        assert!(Metric::single("wall_ms", 1.0).is_err());
        assert!(Metric::single("wall_s", f64::NAN).is_err());
        assert_eq!(
            Metric::new("wall_s", 2.0, vec![1.0, 2.0, 3.0])
                .unwrap()
                .line("paper"),
            "paper wall_s 2 s (n=3, 1–3)"
        );
    }

    #[test]
    fn completeness_names_what_is_missing() {
        let m = vec![Metric::single("wall_s", 1.0).unwrap()];
        let err = check_complete(&m, &END_TO_END).unwrap_err();
        assert!(err.contains("setup_s"), "{err}");
    }
}
