//! Host-telemetry capture through real pool runs: each run records
//! into the capture its options carry, and nothing else.

use std::sync::Arc;

use columbia_obs::host::HostCapture;
use columbia_par::{run_governed, JobStatus, RunOptions};

/// Options that record into `host`.
fn recording(host: &Arc<HostCapture>) -> RunOptions {
    RunOptions {
        host: Some(Arc::clone(host)),
        ..RunOptions::default()
    }
}

/// Run `jobs` under `opts`, returning how many settled.
fn run<F: Fn() -> u64 + Send + Sync + 'static>(
    threads: usize,
    jobs: Vec<F>,
    opts: &RunOptions,
) -> usize {
    run_governed(threads, jobs, opts, |_| false)
        .iter()
        .filter(|s| matches!(s, JobStatus::Done(_)))
        .count()
}

#[test]
fn pool_runs_record_one_span_per_job() {
    let host = Arc::new(HostCapture::default());
    let settled = run(
        4,
        (0..32u64).map(|i| move || i * 2).collect(),
        &recording(&host),
    );
    assert_eq!(settled, 32);
    let report = host.take().expect("capture live");
    let jobs = report.spans.iter().filter(|s| s.cat == "host.job").count();
    assert_eq!(jobs, 32, "one host span per job");
    assert_eq!(report.metrics.counter("host.jobs"), 32);
    assert!(!report.workers().is_empty(), "worker lanes attributed");
}

#[test]
fn governed_runs_attribute_attempts_retries_and_outcomes() {
    let host = Arc::new(HostCapture::default());
    let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> =
        vec![Box::new(|| 1), Box::new(|| panic!("always fails"))];
    let opts = RunOptions {
        max_retries: 1,
        ..recording(&host)
    };
    let statuses = run_governed(1, jobs, &opts, |_| false);
    assert_eq!(statuses.len(), 2);
    let report = host.take().expect("capture live");
    assert_eq!(report.metrics.counter("host.retries"), 1, "one retry");
    assert_eq!(report.metrics.counter("host.panics"), 1, "final failure");
    assert!(
        report.metrics.histogram("host.backoff_seconds").is_some(),
        "backoff sleeps are observed"
    );
    let outcome_of = |idx: usize| -> &str {
        report
            .spans
            .iter()
            .filter(|s| s.cat == "host.job")
            .filter_map(|s| {
                let is_idx = s
                    .args
                    .iter()
                    .any(|(k, v)| *k == "index" && v.as_f64() == Some(idx as f64));
                let outcome = s
                    .args
                    .iter()
                    .find(|(k, _)| *k == "outcome")
                    .and_then(|(_, v)| v.as_str());
                if is_idx {
                    outcome
                } else {
                    None
                }
            })
            .next()
            .expect("job span with outcome")
    };
    assert_eq!(outcome_of(0), "ok");
    assert_eq!(outcome_of(1), "panicked");
    let span1 = report
        .spans
        .iter()
        .find(|s| s.label == "job 1")
        .expect("job 1 span");
    assert!(
        span1
            .args
            .iter()
            .any(|(k, v)| *k == "attempts" && v.as_f64() == Some(2.0)),
        "span carries the attempt count: {:?}",
        span1.args
    );
}

#[test]
fn fail_fast_skips_render_as_instants() {
    let host = Arc::new(HostCapture::default());
    let jobs: Vec<Box<dyn Fn() -> Result<u32, u32> + Send + Sync>> = (0..6u32)
        .map(|i| {
            Box::new(move || if i == 1 { Err(i) } else { Ok(i) })
                as Box<dyn Fn() -> Result<u32, u32> + Send + Sync>
        })
        .collect();
    let opts = RunOptions {
        fail_fast: true,
        ..recording(&host)
    };
    let statuses = run_governed(1, jobs, &opts, |r| r.is_err());
    let skipped = statuses
        .iter()
        .filter(|s| matches!(s, JobStatus::Skipped))
        .count();
    assert_eq!(skipped, 4, "jobs above the failure were skipped");
    let report = host.take().expect("capture live");
    let skip_instants = report.spans.iter().filter(|s| s.cat == "host.skip").count();
    assert_eq!(skip_instants, 4, "one instant per skipped job");
    // The rejected-value job reads "failed", not "ok".
    let failed_span = report
        .spans
        .iter()
        .find(|s| {
            s.args
                .iter()
                .any(|(k, v)| *k == "outcome" && v.as_str() == Some("failed"))
        })
        .expect("failed outcome span");
    assert_eq!(failed_span.label, "job 1");
}

#[test]
fn disabled_telemetry_leaves_no_trace() {
    let opts = RunOptions::default();
    assert!(opts.host.is_none(), "telemetry is off by default");
    // A capture open during the run, but not handed to it.
    let host = Arc::new(HostCapture::default());
    let settled = run(4, (0..16u64).map(|i| move || i).collect(), &opts);
    assert_eq!(settled, 16);
    // It stays empty — no leakage from the run above.
    let report = host.take().expect("fresh window");
    assert_eq!(report.spans.len(), 0);
    assert_eq!(report.metrics.counter("host.jobs"), 0);
}
