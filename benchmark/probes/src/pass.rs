//! The traced in-process pass: what `repro` does with the same arguments,
//! stage by stage, with a span around each stage. The stages follow the
//! layers: `spec` (read, parse, compile), `sweep` (the executor),
//! `report` (render and write stdout) and, for traced runs, `obs`
//! (capture, analysis, export, serialization, files). Their self times
//! must add up to the pass's wall time; `pass.accounted_frac` says how
//! closely they do.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use columbia::obs::{
    analyze, chrome_trace_with_flows, chrome_trace_with_host, host, sink, Analysis, CriticalPath,
    HostReport, HostTrack, ANALYSIS_SCHEMA,
};
use columbia::spec::{compile, load_str};
use columbia::{analysis_report, simnet, PointStore, ResilienceOptions};
use columbia_benchmark::stats::median;
use serde_json::Value;

use crate::Results;

/// The `repro` arguments the pass mirrors.
#[derive(Debug, Default)]
pub struct PassArgs {
    /// `--jobs`.
    pub jobs: usize,
    /// `--sim-threads`.
    pub sim_threads: Option<usize>,
    /// `--checkpoint-dir`.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--resume`.
    pub resume: bool,
    /// `--trace` output file.
    pub trace: Option<PathBuf>,
    /// `--analyze` output file.
    pub analyze: Option<PathBuf>,
    /// `--spec` files, in order.
    pub specs: Vec<PathBuf>,
}

/// Stage spans, in seconds since the pass started.
struct Spans {
    epoch: Instant,
    spans: Vec<(&'static str, f64, f64)>,
}

impl Spans {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed().as_secs_f64();
        let r = f();
        self.spans
            .push((name, start, self.epoch.elapsed().as_secs_f64()));
        r
    }

    /// Total seconds of the spans whose name starts with `prefix`.
    fn total(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _, _)| n.starts_with(prefix))
            .map(|(_, s, e)| e - s)
            .sum()
    }

    fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|(n, _, _)| *n == name).count()
    }
}

fn stem(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Run the pass, write what `repro` would print to `out`, and record the
/// `spec`, `sweep`, `report` and `pass` metrics and the stage spans.
pub fn run(args: &PassArgs, out: &Path, results: &mut Results) -> Result<(), String> {
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let collecting = args.trace.is_some() || args.analyze.is_some();
    // Host telemetry times every sweep point; `repro` turns it on only
    // with --trace, so for other workloads it is the pass's own cost.
    spans.time("obs.host", || {
        if collecting {
            sink::install();
        }
        host::enable();
    });

    let mut plans = Vec::new();
    let mut points = 0;
    for path in &args.specs {
        let spec = spans
            .time("spec.parse", || {
                let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
                load_str(&text).map_err(|e| e.to_string())
            })
            .map_err(|e| format!("{}: {e}", path.display()))?;
        spans
            .time("spec.compile", || {
                let plan = compile(&spec)?;
                drop(spec);
                points += plan.len();
                plans.push((stem(path), plan));
                Ok(())
            })
            .map_err(|e: columbia::SpecError| format!("{}: {e}", path.display()))?;
    }

    let resilient = args.checkpoint_dir.is_some() || args.resume;
    let mut stdout = String::new();
    let mut windows = Vec::new();
    let (mut resumed, mut failed, mut retries) = (0usize, 0usize, 0u64);
    for (name, plan) in plans {
        let report = spans.time("sweep.run", || {
            simnet::set_sim_threads(args.sim_threads.or(plan.sim_threads).unwrap_or(1));
            let w0 = host::clock().expect("host telemetry is on");
            let report = if resilient {
                let store = match &args.checkpoint_dir {
                    Some(dir) => {
                        Some(PointStore::open(dir.join(&name)).map_err(|e| e.to_string())?)
                    }
                    None => None,
                };
                let opts = ResilienceOptions {
                    store,
                    resume: args.resume,
                    experiment: Some(name.clone()),
                    ..ResilienceOptions::default()
                };
                let outcome = plan.run_resilient_with_jobs(args.jobs, opts);
                resumed += outcome.stats.resumed;
                failed += outcome.stats.failed;
                retries += outcome.stats.retries;
                outcome.report
            } else {
                plan.run_with_jobs(args.jobs).map_err(|e| e.to_string())?
            };
            windows.push((w0, host::clock().expect("host telemetry is on")));
            Ok::<_, String>(report)
        });
        let report = report.map_err(|e| format!("{name}: {e}"))?;
        spans.time("report.render", || {
            stdout.push_str(&report.to_text());
            stdout.push('\n');
            drop(report);
        });
    }
    let host_report = spans.time("obs.host", || {
        simnet::set_sim_threads(1);
        host::take().expect("host telemetry is on")
    });

    if collecting {
        observe(args, &host_report, &mut spans, &mut stdout)?;
    }
    spans
        .time("report.write", || fs::write(out, &stdout))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let wall = spans.epoch.elapsed().as_secs_f64();

    let files = args.specs.len() as f64;
    results.single("spec.parse_us", spans.total("spec.parse") / files * 1e6);
    results.single("spec.compile_us", spans.total("spec.compile") / files * 1e6);
    results.single("spec.points", points as f64);
    sweep_metrics(&host_report, &windows, args.jobs, results)?;
    results.single("sweep.resumed_points", resumed as f64);
    results.single("sweep.failed_points", failed as f64);
    results.single("sweep.retries", retries as f64);
    let renders = spans.count("report.render") as f64;
    results.single(
        "report.render_us",
        spans.total("report.render") / renders * 1e6,
    );
    results.single("report.bytes", stdout.len() as f64);
    let staged: f64 = spans.spans.iter().map(|(_, s, e)| e - s).sum();
    results.single("pass.wall_s", wall);
    results.single("pass.accounted_frac", staged / wall);
    results.single("pass.obs_s", spans.total("obs."));
    results.span("pass", 0.0, wall);
    for (name, start, end) in &spans.spans {
        results.span(name, *start, *end);
    }
    Ok(())
}

/// The `obs` stage of a traced run, as `repro --trace/--analyze` does it.
fn observe(
    args: &PassArgs,
    host_report: &HostReport,
    spans: &mut Spans,
    stdout: &mut String,
) -> Result<(), String> {
    let bundles = spans.time("obs.take", sink::take);
    let analyses: Vec<(String, Analysis)> = match args.analyze {
        Some(_) => spans.time("obs.analyze", || {
            bundles
                .iter()
                .map(|b| (b.label.clone(), analyze(b)))
                .collect()
        }),
        None => Vec::new(),
    };
    if let Some(path) = &args.trace {
        let doc = spans.time("obs.export", || {
            if args.analyze.is_some() {
                let paths: Vec<CriticalPath> = analyses
                    .iter()
                    .map(|(_, a)| a.critical_path.clone())
                    .collect();
                chrome_trace_with_flows(&bundles, Some(host_report), &paths)
            } else {
                chrome_trace_with_host(&bundles, Some(host_report))
            }
        });
        let json = spans.time("obs.serialize", || serde_json::to_string(&doc));
        spans
            .time("obs.write", || fs::write(path, &json))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        // Freeing the export's value tree is work `repro` does too.
        spans.time("obs.free", || drop((doc, json)));
    }
    if let Some(path) = &args.analyze {
        let text = spans.time("obs.report", || {
            analysis_report(
                "Analyze",
                "critical-path bottleneck attribution per captured simulation",
                &analyses,
            )
            .to_text()
        });
        stdout.push_str(&text);
        stdout.push('\n');
        let json = spans.time("obs.serialize", || {
            let mut doc = Value::object();
            doc.set("schema", Value::String(ANALYSIS_SCHEMA.into()));
            let sims = analyses
                .iter()
                .map(|(label, a)| {
                    let mut o = a.to_value();
                    o.set("label", Value::String(label.clone()));
                    o
                })
                .collect();
            doc.set("sims", Value::Array(sims));
            serde_json::to_string_pretty(&doc)
        });
        spans
            .time("obs.write", || fs::write(path, json))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    spans.time("obs.free", || drop((bundles, analyses)));
    Ok(())
}

/// The `sweep` metrics, from the executor's `host.job` spans inside each
/// experiment's window `(start, end)` on the host clock.
fn sweep_metrics(
    host_report: &HostReport,
    windows: &[(f64, f64)],
    jobs: usize,
    results: &mut Results,
) -> Result<(), String> {
    let jobs_spans: Vec<(u32, f64, f64)> = host_report
        .spans
        .iter()
        .filter(|s| s.cat == "host.job")
        .filter_map(|s| match s.track {
            HostTrack::Worker(w) => Some((w, s.start, s.end)),
            HostTrack::Store => None,
        })
        .collect();
    let busy: Vec<f64> = jobs_spans.iter().map(|(_, s, e)| e - s).collect();
    if busy.is_empty() {
        return Err("the executor recorded no sweep points".into());
    }
    let run_s: f64 = windows.iter().map(|(s, e)| e - s).sum();
    // Tail: from the moment the first worker ran out of points until the
    // experiment's sweep returned, summed over experiments. A worker
    // that never got a point is idle for the whole window.
    let tail: f64 = windows
        .iter()
        .map(|&(start, end)| {
            let idle_from = (0..jobs as u32)
                .map(|w| {
                    jobs_spans
                        .iter()
                        .filter(|(id, s, _)| *id == w && *s >= start && *s <= end)
                        .map(|(_, _, e)| *e)
                        .fold(start, f64::max)
                })
                .fold(end, f64::min);
            end - idle_from
        })
        .sum();
    let busy_s: f64 = busy.iter().sum();
    results.single("sweep.run_s", run_s);
    results.single("sweep.point_busy_s", busy_s);
    results.single("sweep.point_p50_ms", median(&busy) * 1e3);
    results.single(
        "sweep.point_max_s",
        busy.iter().copied().fold(0.0, f64::max),
    );
    results.single("sweep.idle_frac", 1.0 - busy_s / (run_s * jobs as f64));
    results.single("sweep.tail_ms", tail * 1e3);
    Ok(())
}
