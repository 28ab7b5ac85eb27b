//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro                       # run everything
//! repro --exp table2          # one experiment
//! repro --spec specs/f.toml   # a declarative sweep spec (repeatable)
//! repro --jobs 4              # fan sweep points across 4 threads
//! repro --sim-threads 4       # parallelize each simulation (PDES)
//! repro --json                # machine-readable output
//! repro --list                # experiment ids
//! repro --trace out.json      # capture a Chrome/Perfetto timeline
//! repro --metrics out.json    # dump fabric counters + CommProfiles
//! repro --analyze [out.json]  # critical-path bottleneck analysis
//!                             # (table on stdout; optional JSON file)
//! repro --manifest out.json   # write the canonical run manifest
//! repro --checkpoint-dir d    # persist completed sweep points under d/
//! repro --resume              # skip points already checkpointed
//! repro --point-deadline 30   # abandon any point running >30s (wall clock)
//! repro --max-retries 2       # retry panicked/timed-out points twice
//! ```
//!
//! Every experiment is a declarative sweep spec (`core::spec`,
//! language reference in DESIGN.md §14). `--exp name` compiles the
//! copy of `specs/<name>.toml` embedded in the binary; `--spec
//! file.toml` reads a spec file once and compiles it through the same
//! constructor, so `--spec specs/fig11.toml` and `--exp fig11` are the
//! same job. `--spec` repeats; it is mutually exclusive with `--exp`.
//! Everything downstream composes unchanged: `--jobs`, the resilience
//! flags (checkpoints key on the experiment name or the spec's file
//! stem), `--trace`/`--metrics`/`--analyze`, and `--manifest` — whose
//! entry for every experiment carries a stable `spec` object with the
//! FNV-128 content hash of the spec bytes that ran and the resolved
//! point count. A spec that fails to parse or validate prints one
//! `path:line:col: message` diagnostic (with a "did you mean" hint for
//! unknown keys) and exits 2, before anything runs.
//!
//! `--jobs N` runs each experiment's sweep points on an N-thread
//! work-stealing pool (default: the machine's available parallelism;
//! `--jobs 1` is the plain serial path). Collation is deterministic,
//! so the output is byte-identical for every N — CI diffs `--jobs 2`
//! against `--jobs 1` as a gate.
//!
//! `--sim-threads N` parallelizes *within* each simulation: the
//! engine's conservative PDES loop (`columbia_simnet::pdes`) partitions
//! ranks by node and runs the partitions in rounds on up to N threads.
//! Orthogonal to `--jobs` (which fans *across* sweep points): `--jobs`
//! wins when a sweep has many points, `--sim-threads` when one
//! simulation dominates (the 10,240-rank full-Columbia run). Results
//! are bit-identical at any value — CI diffs `--sim-threads 4` against
//! the one-thread golden. Overrides a spec's `[defaults] sim_threads`
//! key; default 1 (one partition, on the calling thread).
//!
//! `--trace` and `--metrics` install the global trace sink
//! (`columbia_obs::sink`) before running the selected experiments:
//! every simulation they execute is recorded (per-rank spans, fabric
//! counters, compute/comm/wait attribution) and exported when the run
//! finishes. Load the trace file at <https://ui.perfetto.dev> — one
//! process per simulation, one CPU track and one net track per rank.
//! `--trace` additionally opens a host-telemetry capture
//! (`columbia_obs::host`), so the export carries one extra process of
//! **wall-clock** tracks: one lane per pool worker (job spans, steal
//! instants) plus a checkpoint-store lane (save/load activity) —
//! real executor occupancy next to the simulated timelines.
//!
//! `--analyze` records the selected experiments like `--trace` does,
//! then runs the simulated-time performance analyzer
//! (`columbia_obs::analysis`) over every captured simulation: the
//! causal event graph is walked backward from the makespan to extract
//! the critical path, its length attributed to compute / send /
//! recv-wait / collective / fault-retransmit per rank and per node,
//! alongside load-imbalance statistics and the rank-pair communication
//! matrix. The result prints as one more report on stdout (a table per
//! simulation naming its bottleneck) and — when a path is given —
//! exports as a `columbia-analysis-v1` JSON document. Combined with
//! `--trace`, the timeline gains Perfetto flow arrows threading the
//! critical path through the rank tracks. The analysis is a pure
//! function of the deterministic capture, so its output is
//! byte-identical for every `--jobs` value.
//!
//! `--manifest` writes the canonical machine-readable record of the
//! run (`columbia-run-manifest-v1`): experiments with plan
//! fingerprints and report content hashes, jobs, resilience options,
//! per-experiment sweep stats, and — under the declared-volatile key —
//! wall time, git revision, and host executor metrics. Identical runs
//! produce byte-identical manifests modulo that `volatile` key.
//!
//! Without resilience flags each experiment runs strictly
//! (`SweepPlan::run_with_jobs`): its lowest-indexed failing point
//! replaces the report with a structured diagnosis. Any of
//! `--checkpoint-dir`, `--resume`, `--point-deadline`, or
//! `--max-retries` switches to the **resilient** form
//! (`SweepPlan::run_resilient_with_jobs`): point panics and deadline
//! overruns degrade to diagnostic rows instead of aborting the run,
//! completed points are checkpointed per experiment under
//! `<checkpoint-dir>/<exp>/`, and `--resume` serves checkpointed
//! points without re-running them. Resume/retry statistics go to
//! stderr only — stdout stays byte-identical to an uninterrupted run,
//! which is what the CI resume smoke gate diffs against the golden.
//! Either way, `repro` exits 3 if any point ultimately failed.

use std::time::{Duration, Instant};

use columbia::experiments::{self, failure_report, EXPERIMENTS};
use columbia::manifest::{self, ManifestBuilder, ResilienceSummary, Volatile};
use columbia::obs::{
    analyze, chrome_trace_with_flows, chrome_trace_with_host, host, sink, Analysis, CriticalPath,
    ANALYSIS_SCHEMA,
};
use columbia::par;
use columbia::{analysis_report, PointStore, ResilienceOptions, SpecJob};
use serde_json::Value;

/// Parse `--flag <value>` out of the argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
    }
}

/// Parse every occurrence of `--flag <value>` (for repeatable flags).
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => out.push(v.clone()),
                _ => {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                }
            }
        }
    }
    out
}

/// Compile one `--spec` file into a job, or print the typed diagnostic
/// (`path:line:col: message`, with "did you mean" hints for unknown
/// keys) and exit 2 — same contract as any other bad command line,
/// before anything runs.
fn spec_job(path_str: &str) -> SpecJob {
    SpecJob::load(std::path::Path::new(path_str)).unwrap_or_else(|e| {
        if e.position().is_some() {
            // `SpecError` displays as `line:col: message`; prefix the
            // file so the diagnostic is jump-to-able.
            eprintln!("{path_str}:{e}");
        } else {
            eprintln!("{e}");
        }
        std::process::exit(2);
    })
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

fn main() {
    let run_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a == "--list") {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let trace_path = flag_value(&args, "--trace");
    let metrics_path = flag_value(&args, "--metrics");
    let manifest_path = flag_value(&args, "--manifest");
    // `--analyze` takes an *optional* value: alone it prints the
    // analysis report, with a path it also writes the JSON document.
    let analyze_to: Option<Option<String>> = args
        .iter()
        .position(|a| a == "--analyze")
        .map(|i| args.get(i + 1).filter(|v| !v.starts_with("--")).cloned());
    let analyzing = analyze_to.is_some();
    let jobs = match args.iter().position(|a| a == "--jobs") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(j) if j >= 1 => j,
            _ => {
                eprintln!("--jobs requires a thread count >= 1");
                std::process::exit(2);
            }
        },
        None => par::available_parallelism(),
    };
    let sim_threads_flag = match args.iter().position(|a| a == "--sim-threads") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(t) if t >= 1 => Some(t),
            _ => {
                eprintln!("--sim-threads requires a thread count >= 1");
                std::process::exit(2);
            }
        },
        None => None,
    };

    // Resilience flags: any of them selects the resilient executor.
    let checkpoint_dir = flag_value(&args, "--checkpoint-dir");
    let resume = args.iter().any(|a| a == "--resume");
    let point_deadline = flag_value(&args, "--point-deadline").map(|v| match v.parse::<f64>() {
        Ok(s) if s > 0.0 && s.is_finite() => Duration::from_secs_f64(s),
        _ => {
            eprintln!("--point-deadline requires a positive number of seconds");
            std::process::exit(2);
        }
    });
    let max_retries = flag_value(&args, "--max-retries").map(|v| match v.parse::<u32>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("--max-retries requires a non-negative integer");
            std::process::exit(2);
        }
    });
    if resume && checkpoint_dir.is_none() {
        eprintln!("--resume requires --checkpoint-dir (where would the checkpoints be?)");
        std::process::exit(2);
    }
    let resilient =
        checkpoint_dir.is_some() || resume || point_deadline.is_some() || max_retries.is_some();

    let spec_paths = flag_values(&args, "--spec");
    let exp_arg = args.iter().position(|a| a == "--exp");
    if exp_arg.is_some() && !spec_paths.is_empty() {
        eprintln!("--exp and --spec are mutually exclusive (a spec *is* the experiment)");
        std::process::exit(2);
    }
    // Compile every spec before running anything: a typo in the third
    // spec should not cost the first two's simulation time.
    let selected: Vec<SpecJob> = if !spec_paths.is_empty() {
        spec_paths.iter().map(|p| spec_job(p)).collect()
    } else {
        match exp_arg {
            Some(i) => {
                let name = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("--exp requires an experiment id (see --list)");
                    std::process::exit(2);
                });
                match experiments::job(name) {
                    Some(job) => vec![job],
                    None => {
                        eprintln!("unknown experiment '{name}' (see --list)");
                        std::process::exit(2);
                    }
                }
            }
            None => EXPERIMENTS
                .iter()
                .filter_map(|(name, _)| experiments::job(name))
                .collect(),
        }
    };
    let collecting = trace_path.is_some() || metrics_path.is_some() || analyzing;
    if collecting {
        sink::install();
    }
    // Host (wall-clock) telemetry rides along whenever the run's
    // execution is being recorded: the trace export gains per-worker
    // host tracks, the manifest gains executor metrics.
    if trace_path.is_some() || manifest_path.is_some() {
        host::enable();
    }
    let mut manifest_builder = manifest_path.as_ref().map(|_| {
        ManifestBuilder::new(
            "repro",
            jobs,
            &ResilienceSummary {
                enabled: resilient,
                resume,
                max_retries: max_retries.unwrap_or(0),
                deadline: point_deadline,
                checkpoint_dir: checkpoint_dir.clone(),
            },
        )
    });
    let mut failed_points = 0usize;
    let mut manifest_sim_threads = 1usize;
    for job in selected {
        let SpecJob {
            name,
            plan: sweep_plan,
            content_hash,
        } = job;
        // Per-simulation PDES threads: CLI beats the spec's
        // `[defaults] sim_threads`, which beats serial. Set before the
        // job runs; the engine consults the global at dispatch.
        let sim_threads = sim_threads_flag.or(sweep_plan.sim_threads).unwrap_or(1);
        columbia::simnet::set_sim_threads(sim_threads);
        manifest_sim_threads = manifest_sim_threads.max(sim_threads);
        let fingerprint = sweep_plan.fingerprint();
        let points = sweep_plan.len();
        let mut exp_stats = None;
        let report = if resilient {
            // One store subdirectory per experiment (or spec stem), so
            // different plans' entries never share a namespace on disk.
            let store = checkpoint_dir.as_ref().map(|dir| {
                let path = std::path::Path::new(dir).join(&name);
                PointStore::open(path).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                })
            });
            let opts = ResilienceOptions {
                deadline: point_deadline,
                max_retries: max_retries.unwrap_or(0),
                store,
                resume,
                experiment: Some(name.clone()),
                ..ResilienceOptions::default()
            };
            let outcome = sweep_plan.run_resilient_with_jobs(jobs, opts);
            // Stats are stderr-only: stdout must stay byte-identical
            // to a plain run so resume can be diffed against goldens.
            let s = outcome.stats;
            exp_stats = Some(s);
            // Machine-readable first (one stable line), human text
            // after — scripts grep the prefix, people read the rest.
            // Emitted from the stats alone, before anything touches
            // `outcome.report`: a degraded collation (failed points,
            // collator panic note) or manifest recording must never
            // suppress or reorder this record.
            let mut rec = Value::object();
            rec.set("schema", Value::String("columbia-sweep-stats-v1".into()));
            rec.set("experiment", Value::String(name.clone()));
            rec.set("stats", s.to_value());
            eprintln!("SWEEP JSON {}", serde_json::to_string(&rec));
            eprintln!(
                "{}: {} point(s), {} resumed, {} retried, {} failed",
                name, s.points, s.resumed, s.retries, s.failed
            );
            for failure in &outcome.failures {
                eprintln!("  {failure}");
            }
            if s.checkpoint_errors > 0 {
                eprintln!("  {} checkpoint write(s) failed", s.checkpoint_errors);
            }
            failed_points += s.failed;
            outcome.report
        } else {
            sweep_plan.run_with_jobs(jobs).unwrap_or_else(|err| {
                failed_points += 1;
                failure_report(&name, &err)
            })
        };
        if let Some(builder) = manifest_builder.as_mut() {
            builder.record_experiment(
                &name,
                fingerprint,
                points,
                &report,
                exp_stats.as_ref(),
                &content_hash,
            );
        }
        if json {
            println!("{}", report.to_json());
        } else {
            println!("{}", report.to_text());
        }
    }
    // Drain the host capture once; the trace export and the manifest
    // both read from it.
    let host_report = host::take();
    if collecting {
        let bundles = sink::take();
        eprintln!("captured {} simulation(s)", bundles.len());
        // The analyzer is a pure function of the canonically-ordered
        // bundles, so everything derived below is identical for every
        // `--jobs` value.
        let analyses: Vec<(String, Analysis)> = if analyzing {
            bundles
                .iter()
                .map(|b| (b.label.clone(), analyze(b)))
                .collect()
        } else {
            Vec::new()
        };
        if let Some(path) = trace_path {
            let doc = if analyzing {
                // Critical-path hops become Perfetto flow arrows
                // threading through the rank tracks.
                let paths: Vec<CriticalPath> = analyses
                    .iter()
                    .map(|(_, a)| a.critical_path.clone())
                    .collect();
                chrome_trace_with_flows(&bundles, host_report.as_ref(), &paths)
            } else {
                chrome_trace_with_host(&bundles, host_report.as_ref())
            };
            write_or_die(&path, &serde_json::to_string(&doc));
        }
        if let Some(json_path) = analyze_to {
            let report = analysis_report(
                "Analyze",
                "critical-path bottleneck attribution per captured simulation",
                &analyses,
            );
            if json {
                println!("{}", report.to_json());
            } else {
                println!("{}", report.to_text());
            }
            if let Some(path) = json_path {
                let mut doc = Value::object();
                doc.set("schema", Value::String(ANALYSIS_SCHEMA.into()));
                doc.set(
                    "sims",
                    Value::Array(
                        analyses
                            .iter()
                            .map(|(label, a)| {
                                let mut o = a.to_value();
                                o.set("label", Value::String(label.clone()));
                                o
                            })
                            .collect(),
                    ),
                );
                write_or_die(&path, &serde_json::to_string_pretty(&doc));
            }
        }
        if let Some(path) = metrics_path {
            let mut doc = Value::object();
            doc.set(
                "sims",
                Value::Array(
                    bundles
                        .iter()
                        .map(|b| {
                            let mut o = Value::object();
                            o.set("label", Value::String(b.label.clone()));
                            o.set("metrics", b.metrics.to_value());
                            o.set("profile", b.profile.to_value());
                            o
                        })
                        .collect(),
                ),
            );
            write_or_die(&path, &serde_json::to_string_pretty(&doc));
        }
    }
    if let (Some(path), Some(builder)) = (manifest_path, manifest_builder) {
        let m = builder.finish(&Volatile {
            wall_time_seconds: run_start.elapsed().as_secs_f64(),
            git_rev: manifest::git_rev(),
            host_metrics: host_report.as_ref().map(|r| r.metrics.to_value()),
            sim_threads: manifest_sim_threads,
        });
        write_or_die(&path, &m.to_string_pretty());
    }
    if failed_points > 0 {
        // Reports were still produced (diagnostic rows, or a failure
        // report), but the campaign is incomplete; say so in the exit
        // code.
        std::process::exit(3);
    }
}
