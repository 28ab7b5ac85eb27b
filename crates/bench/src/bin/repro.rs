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
//! `--jobs N` runs each experiment's sweep points on N threads, which
//! take the points lowest index first (default: the machine's
//! available parallelism; `--jobs 1` runs them in order on the calling
//! thread). Collation is deterministic, so the output is
//! byte-identical for every N — CI diffs `--jobs 2` against `--jobs 1`
//! as a gate.
//!
//! `--sim-threads N` parallelizes *within* each simulation: the
//! engine's conservative PDES loop (`columbia_simnet::pdes`) splits the
//! ranks into one partition per worker, in whole-node blocks
//! (`min(N, nodes)` partitions), and runs them in rounds; the calling
//! thread runs one partition and each other one gets a helper thread
//! for the whole simulation. Orthogonal to `--jobs` (which fans
//! *across* sweep points): `--jobs` wins when a sweep has many points,
//! `--sim-threads` when one simulation dominates (the 10,240-rank
//! full-Columbia run). On a 2-vCPU host two threads simulate that point
//! about 1.4x faster than one. Results are bit-identical at any value —
//! CI diffs `--sim-threads 3` and `4` against the one-thread golden.
//! Overrides a spec's `[defaults] sim_threads` key; default 1 (one
//! partition, on the calling thread).
//!
//! `repro` builds one run context (`columbia_obs::RunContext`) from its
//! command line and passes it to every experiment, each job getting a
//! copy at its own `--sim-threads`. `--trace` and `--metrics` give the
//! context a trace list: every simulation the selected experiments
//! execute is recorded (per-rank spans, fabric counters,
//! compute/comm/wait attribution) and exported when the run finishes.
//! Points of `kind = "columbia"` are the exception: they simulate
//! without a tracer, so they record nothing. Load the trace file at
//! <https://ui.perfetto.dev> — one process per simulation, one CPU
//! track and one net track per rank. `--trace` additionally gives the
//! context a host-telemetry capture (`columbia_obs::host`), so the
//! export carries one extra process of **wall-clock** tracks: one lane
//! per pool worker (job spans, fail-fast skip instants), a
//! checkpoint-store lane (save/load activity) and, at `--sim-threads`
//! 2 or more, one lane per PDES partition — real executor occupancy
//! next to the simulated timelines.
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
//! byte-identical for every `--jobs` value; the captured simulations
//! are analyzed on the `--jobs` workers, one job each.
//!
//! `--manifest` writes the canonical machine-readable record of the
//! run (`columbia-run-manifest-v1`): experiments with plan
//! fingerprints and report content hashes, jobs, resilience options,
//! per-experiment sweep stats, and — under the declared-volatile key —
//! wall time, git revision, and host executor metrics. Identical runs
//! produce byte-identical manifests modulo that `volatile` key.
//!
//! Without resilience flags each experiment runs strictly
//! (`SweepPlan::run`): its lowest-indexed failing point
//! replaces the report with a structured diagnosis. Any of
//! `--checkpoint-dir`, `--resume`, `--point-deadline`, or
//! `--max-retries` switches to the **resilient** form
//! (`SweepPlan::run_resilient`): point panics and deadline
//! overruns degrade to diagnostic rows instead of aborting the run,
//! completed points are checkpointed per experiment under
//! `<checkpoint-dir>/<exp>/`, and `--resume` serves checkpointed
//! points without re-running them. Resume/retry statistics go to
//! stderr only — stdout stays byte-identical to an uninterrupted run,
//! which is what the CI resume smoke gate diffs against the golden.
//! Either way, `repro` exits 3 if any point ultimately failed.
//!
//! An argument not listed above, a flag given twice (`--spec` may
//! repeat) and a missing or malformed flag value are a bad command
//! line: `repro` names it and exits 2 before anything runs. A reader that closes stdout
//! early (`repro --list | head -3`) ends the run with exit 0 and
//! nothing on stderr.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use columbia::experiments::{self, failure_report, EXPERIMENTS};
use columbia::manifest::{self, ManifestBuilder, ResilienceSummary, Volatile};
use columbia::obs::{
    analyze, write_chrome_trace, Analysis, CriticalPath, RunContext, TraceBundle, ANALYSIS_SCHEMA,
};
use columbia::par::{self, JobOutcome, JobStatus, RunOptions};
use columbia::{analysis_report, PointStore, Report, ResilienceOptions, SpecJob};
use serde_json::Value;

/// The command line, read once by [`Cli::parse`].
#[derive(Default)]
struct Cli {
    exp: Option<String>,
    /// `--spec` is the one value flag that may repeat.
    specs: Vec<String>,
    jobs: Option<usize>,
    sim_threads: Option<usize>,
    trace: Option<String>,
    metrics: Option<String>,
    manifest: Option<String>,
    /// `--analyze` takes an *optional* value: alone it prints the
    /// analysis report, with a path it also writes the JSON document.
    analyze: Option<Option<String>>,
    checkpoint_dir: Option<String>,
    point_deadline: Option<Duration>,
    max_retries: Option<u32>,
    json: bool,
    list: bool,
    resume: bool,
}

/// Print `message` and exit 2: the command line is bad.
fn bad_command_line(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// The message for a missing or malformed value of `flag`.
fn requirement(flag: &str) -> String {
    let what = match flag {
        "--exp" => "an experiment id (see --list)",
        "--jobs" | "--sim-threads" => "a thread count >= 1",
        "--point-deadline" => "a positive number of seconds",
        "--max-retries" => "a non-negative integer",
        _ => "a value",
    };
    format!("{flag} requires {what}")
}

impl Cli {
    /// Read `args` once, left to right. A flag's value is the next
    /// argument unless that starts with `--`: no flag accepts such a
    /// value. An unknown argument, or a value flag other than `--spec`
    /// given twice, exits 2 naming it. A missing or malformed value
    /// exits 2 once the whole line is read, unless `--list` is among
    /// the flags: it wins over all the others.
    fn parse(args: impl IntoIterator<Item = String>) -> Cli {
        let mut cli = Cli::default();
        let mut given: Vec<String> = Vec::new();
        let mut bad_value = None;
        let mut rest = args.into_iter().peekable();
        while let Some(flag) = rest.next() {
            let value = match flag.as_str() {
                "--json" => {
                    cli.json = true;
                    continue;
                }
                "--list" => {
                    cli.list = true;
                    continue;
                }
                "--resume" => {
                    cli.resume = true;
                    continue;
                }
                "--spec" => rest.next_if(|v| !v.starts_with("--")),
                _ if given.contains(&flag) => {
                    bad_command_line(&format!("{flag} given more than once"))
                }
                _ => {
                    given.push(flag.clone());
                    rest.next_if(|v| !v.starts_with("--"))
                }
            };
            let parsed = match flag.as_str() {
                "--analyze" => {
                    cli.analyze = Some(value);
                    true
                }
                "--spec" => value.map(|v| cli.specs.push(v)).is_some(),
                "--exp" => set(&mut cli.exp, value),
                "--trace" => set(&mut cli.trace, value),
                "--metrics" => set(&mut cli.metrics, value),
                "--manifest" => set(&mut cli.manifest, value),
                "--checkpoint-dir" => set(&mut cli.checkpoint_dir, value),
                "--jobs" => set(&mut cli.jobs, value.and_then(thread_count)),
                "--sim-threads" => set(&mut cli.sim_threads, value.and_then(thread_count)),
                "--point-deadline" => set(
                    &mut cli.point_deadline,
                    value.and_then(|v| v.parse::<f64>().ok()).and_then(|s| {
                        (s > 0.0 && s.is_finite()).then(|| Duration::from_secs_f64(s))
                    }),
                ),
                "--max-retries" => set(&mut cli.max_retries, value.and_then(|v| v.parse().ok())),
                _ => bad_command_line(&format!("unknown argument '{flag}'")),
            };
            if !parsed {
                bad_value.get_or_insert_with(|| requirement(&flag));
            }
        }
        match bad_value {
            Some(message) if !cli.list => bad_command_line(&message),
            _ => cli,
        }
    }
}

/// Store a parsed flag value; false when there is none.
fn set<T>(slot: &mut Option<T>, value: Option<T>) -> bool {
    *slot = value;
    slot.is_some()
}

/// A thread count: an integer of at least 1.
fn thread_count(v: String) -> Option<usize> {
    v.parse().ok().filter(|&n| n >= 1)
}

/// Write one line to stdout. A reader that closed early (`repro --list
/// | head -3`) ends the run quietly with exit 0, so a `pipefail` shell
/// does not fail; any other write error exits 1.
fn print_line(text: &str) {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("failed to write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Print `report` as JSON or as text.
fn print_report(report: &Report, json: bool) {
    print_line(&if json {
        report.to_json()
    } else {
        report.to_text()
    });
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

/// Write one output file: create `path`, run `render` into a buffer on
/// it, and flush explicitly, because a dropped `BufWriter` swallows the
/// error of its last write. Any error prints `failed to write <path>:
/// <error>` and exits 1; only a complete file prints `wrote <path>`.
///
/// The buffer is 64 KiB, not `BufWriter`'s 8 KiB, so a multi-megabyte
/// trace takes an eighth of the `write` calls; a larger one saved
/// little more and would add to peak memory.
fn write_or_die(path: &str, render: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
    let written = File::create(path).and_then(|file| {
        let mut out = BufWriter::with_capacity(64 << 10, file);
        render(&mut out)?;
        out.flush()
    });
    if let Err(e) = written {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

/// Analyze every captured simulation on `jobs` workers of the sweep
/// pool, one job per bundle, and return the analyses in bundle order.
/// `analyze` is a pure function of its bundle, so the result is the
/// same at every `jobs`. A panicked analysis is a bug, and re-raised.
fn analyze_all(bundles: &Arc<Vec<TraceBundle>>, jobs: usize) -> Vec<(String, Analysis)> {
    let work = (0..bundles.len())
        .map(|i| {
            let bundles = Arc::clone(bundles);
            move || analyze(&bundles[i])
        })
        .collect();
    par::run_governed(jobs, work, &RunOptions::default(), |_| false)
        .into_iter()
        .zip(bundles.iter())
        .map(|(status, bundle)| match status {
            JobStatus::Done(JobOutcome {
                result: Ok(analysis),
                ..
            }) => (bundle.label.clone(), analysis),
            JobStatus::Done(JobOutcome {
                result: Err(failure),
                ..
            }) => panic!("analysis of {} {failure}", bundle.label),
            JobStatus::Skipped | JobStatus::Lost => {
                panic!("analysis of {} never ran", bundle.label)
            }
        })
        .collect()
}

fn main() {
    let run_start = Instant::now();
    let cli = Cli::parse(std::env::args().skip(1));
    if cli.list {
        for (name, _) in EXPERIMENTS {
            print_line(name);
        }
        return;
    }
    let analyzing = cli.analyze.is_some();
    let jobs = cli.jobs.unwrap_or_else(par::available_parallelism);

    // Resilience flags: any of them selects the resilient executor.
    if cli.resume && cli.checkpoint_dir.is_none() {
        bad_command_line("--resume requires --checkpoint-dir (where would the checkpoints be?)");
    }
    let resilient = cli.checkpoint_dir.is_some()
        || cli.resume
        || cli.point_deadline.is_some()
        || cli.max_retries.is_some();

    if cli.exp.is_some() && !cli.specs.is_empty() {
        bad_command_line("--exp and --spec are mutually exclusive (a spec *is* the experiment)");
    }
    // Compile every spec before running anything: a typo in the third
    // spec should not cost the first two's simulation time.
    let selected: Vec<SpecJob> = if !cli.specs.is_empty() {
        cli.specs.iter().map(|p| spec_job(p)).collect()
    } else {
        match cli.exp {
            Some(name) => match experiments::job(&name) {
                Some(job) => vec![job],
                None => bad_command_line(&format!("unknown experiment '{name}' (see --list)")),
            },
            None => EXPERIMENTS
                .iter()
                .filter_map(|(name, _)| experiments::job(name))
                .collect(),
        }
    };
    let collecting = cli.trace.is_some() || cli.metrics.is_some() || analyzing;
    let mut ctx = RunContext::new(1);
    if collecting {
        ctx = ctx.with_traces();
    }
    // Host (wall-clock) telemetry rides along whenever the run's
    // execution is being recorded: the trace export gains per-worker
    // host tracks, the manifest gains executor metrics.
    if cli.trace.is_some() || cli.manifest.is_some() {
        ctx = ctx.with_host_capture();
    }
    let mut manifest_builder = cli.manifest.as_ref().map(|_| {
        ManifestBuilder::new(
            "repro",
            jobs,
            &ResilienceSummary {
                enabled: resilient,
                resume: cli.resume,
                max_retries: cli.max_retries.unwrap_or(0),
                deadline: cli.point_deadline,
                checkpoint_dir: cli.checkpoint_dir.clone(),
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
        // `[defaults] sim_threads`, which beats serial.
        let sim_threads = cli.sim_threads.or(sweep_plan.sim_threads).unwrap_or(1);
        let job_ctx = ctx.with_sim_threads(sim_threads);
        manifest_sim_threads = manifest_sim_threads.max(sim_threads);
        let fingerprint = sweep_plan.fingerprint();
        let points = sweep_plan.len();
        let mut exp_stats = None;
        let report = if resilient {
            // One store subdirectory per experiment (or spec stem), so
            // different plans' entries never share a namespace on disk.
            let store = cli.checkpoint_dir.as_ref().map(|dir| {
                let path = std::path::Path::new(dir).join(&name);
                PointStore::open(path).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                })
            });
            let opts = ResilienceOptions {
                deadline: cli.point_deadline,
                max_retries: cli.max_retries.unwrap_or(0),
                store,
                resume: cli.resume,
                experiment: Some(name.clone()),
            };
            let outcome = sweep_plan.run_resilient(&job_ctx, jobs, opts);
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
            sweep_plan.run(&job_ctx, jobs).unwrap_or_else(|err| {
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
        print_report(&report, cli.json);
    }
    // Drain the host capture once; the trace export and the manifest
    // both read from it.
    let host_report = ctx.take_host_report();
    if collecting {
        let bundles = Arc::new(ctx.take_traces());
        eprintln!("captured {} simulation(s)", bundles.len());
        // The analyzer is a pure function of the canonically-ordered
        // bundles, so everything derived below is identical for every
        // `--jobs` value. Its jobs run without a host capture, so they
        // record no spans.
        let analyses = if analyzing {
            analyze_all(&bundles, jobs)
        } else {
            Vec::new()
        };
        if let Some(path) = cli.trace {
            // Under `--analyze`, critical-path hops become Perfetto
            // flow arrows threading through the rank tracks.
            let paths: Vec<CriticalPath> = analyses
                .iter()
                .map(|(_, a)| a.critical_path.clone())
                .collect();
            write_or_die(&path, |out| {
                write_chrome_trace(out, &bundles, host_report.as_ref(), &paths)
            });
        }
        if let Some(json_path) = cli.analyze {
            let report = analysis_report(
                "Analyze",
                "critical-path bottleneck attribution per captured simulation",
                &analyses,
            );
            print_report(&report, cli.json);
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
                write_or_die(&path, |out| serde_json::to_writer_pretty(out, &doc));
            }
        }
        if let Some(path) = cli.metrics {
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
            write_or_die(&path, |out| serde_json::to_writer_pretty(out, &doc));
        }
    }
    if let (Some(path), Some(builder)) = (cli.manifest, manifest_builder) {
        let m = builder.finish(&Volatile {
            wall_time_seconds: run_start.elapsed().as_secs_f64(),
            git_rev: manifest::git_rev(),
            host_metrics: host_report.as_ref().map(|r| r.metrics.to_value()),
            sim_threads: manifest_sim_threads,
        });
        write_or_die(&path, |out| out.write_all(m.to_string_pretty().as_bytes()));
    }
    if failed_points > 0 {
        // Reports were still produced (diagnostic rows, or a failure
        // report), but the campaign is incomplete; say so in the exit
        // code.
        std::process::exit(3);
    }
}
