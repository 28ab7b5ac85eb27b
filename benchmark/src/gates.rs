//! Correctness gates: every timed run's output is checked, and a run
//! that fails a gate counts as failed, not as a sample.

use crate::json::Json;

/// Check `got` byte for byte against `want`. The error names the first
/// line that differs.
pub fn check_stdout(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let (got, want) = (String::from_utf8_lossy(got), String::from_utf8_lossy(want));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return Err(format!(
                "stdout differs at line {}: got {g:?}, expected {w:?}",
                i + 1
            ));
        }
    }
    Err(format!(
        "stdout has {} bytes, expected {} (one is a prefix of the other)",
        got.len(),
        want.len()
    ))
}

/// Check a `columbia-analysis-v1` document: every simulation's critical
/// path is complete (not truncated) and both its total and the sum of
/// its attribution breakdown equal the makespan within 1e-9 relative.
/// Returns the number of simulations checked.
pub fn check_analysis(doc: &str) -> Result<usize, String> {
    let v = Json::parse(doc)?;
    if v.get("schema").and_then(Json::as_str) != Some("columbia-analysis-v1") {
        return Err("analysis document lacks schema columbia-analysis-v1".into());
    }
    let sims = v
        .get("sims")
        .and_then(Json::as_array)
        .filter(|s| !s.is_empty())
        .ok_or("analysis document has no simulations")?;
    for (i, sim) in sims.iter().enumerate() {
        let num = |v: Option<&Json>, what: &str| {
            v.and_then(Json::as_f64)
                .ok_or(format!("simulation {i}: no {what}"))
        };
        let makespan = num(sim.get("makespan"), "makespan")?;
        let path = sim
            .get("critical_path")
            .ok_or(format!("simulation {i}: no critical path"))?;
        if path.get("truncated") != Some(&Json::Bool(false)) {
            return Err(format!("simulation {i}: critical path is truncated"));
        }
        let total = num(path.get("total"), "critical path total")?;
        let breakdown = path
            .get("breakdown")
            .and_then(Json::as_object)
            .ok_or(format!("simulation {i}: no breakdown"))?;
        let mut sum = 0.0;
        for (name, v) in breakdown {
            sum += num(Some(v), name)?;
        }
        for (what, value) in [("total", total), ("breakdown sum", sum)] {
            if (value - makespan).abs() > 1e-9 * makespan.abs() {
                return Err(format!(
                    "simulation {i}: critical path {what} {value} != makespan {makespan}"
                ));
            }
        }
    }
    Ok(sims.len())
}

/// Check the `SWEEP JSON` records a resilient `repro` run writes to
/// stderr: there is one per experiment, and each served every point from
/// the checkpoint store with none failed.
pub fn check_all_resumed(stderr: &str, experiments: usize) -> Result<(), String> {
    let mut seen = 0;
    for line in stderr.lines() {
        let Some(record) = line.strip_prefix("SWEEP JSON ") else {
            continue;
        };
        let v = Json::parse(record)?;
        let stat = |key: &str| {
            v.get("stats")
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
        };
        let name = v.get("experiment").and_then(Json::as_str).unwrap_or("?");
        match (stat("points"), stat("resumed"), stat("failed")) {
            (Some(p), Some(r), Some(f)) if p == r && f == 0.0 => seen += 1,
            _ => return Err(format!("{name}: not every point was resumed: {record}")),
        }
    }
    if seen != experiments {
        return Err(format!(
            "{seen} sweep record(s) on stderr, expected {experiments}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn golden_gate_accepts_the_golden_and_rejects_a_wrong_stdout() {
        let want = Workload::Paper.inputs(1).expected.unwrap();
        assert!(check_stdout(want.as_bytes(), want.as_bytes()).is_ok());
        let wrong = want.replacen("21.30 ms", "21.31 ms", 1);
        let err = check_stdout(wrong.as_bytes(), want.as_bytes()).unwrap_err();
        assert!(err.contains("21.31 ms"), "{err}");
        let truncated = &want.as_bytes()[..want.len() - 1];
        assert!(check_stdout(truncated, want.as_bytes()).is_err());
    }

    fn analysis(truncated: bool, compute: f64) -> String {
        format!(
            r#"{{"schema": "columbia-analysis-v1", "sims": [{{"makespan": 2.0,
            "critical_path": {{"total": 2.0, "truncated": {truncated},
            "breakdown": {{"compute": {compute}, "send": 0.5}}}}}}]}}"#
        )
    }

    #[test]
    fn analysis_gate_checks_critical_paths() {
        assert_eq!(check_analysis(&analysis(false, 1.5)), Ok(1));
        assert!(check_analysis(&analysis(true, 1.5)).is_err());
        assert!(check_analysis(&analysis(false, 1.4)).is_err());
        assert!(check_analysis(r#"{"schema": "columbia-analysis-v1", "sims": []}"#).is_err());
    }

    #[test]
    fn resume_gate_needs_every_point_resumed() {
        let rec = |resumed: u32| {
            format!(
                "SWEEP JSON {{\"schema\":\"columbia-sweep-stats-v1\",\"experiment\":\"fig6\",\
                 \"stats\":{{\"points\":24,\"resumed\":{resumed},\"failed\":0}}}}\n"
            )
        };
        assert!(check_all_resumed(&rec(24), 1).is_ok());
        assert!(check_all_resumed(&rec(23), 1).is_err());
        assert!(check_all_resumed(&rec(24), 2).is_err());
    }
}
