//! `columbia-benchmark`: absolute end-to-end and per-layer measurement of
//! the `repro` CLI.
//!
//! ```text
//! columbia-benchmark [--workload NAME] [--seed N] [--seconds S]
//!                    [--trace 0|1] [--json PATH]
//! ```
//!
//! Run it from the repository root. It builds `repro` with cargo (and,
//! for `--trace 1` or `--json`, the in-process probes), writes the
//! workload's spec files, generated from `--seed`, under `.bench_tmp/`,
//! and sets the workload up several times (see [`MIN_REPEATS`]). It then runs
//! `repro` back to back for `--seconds` seconds, one invocation after
//! the previous one exits (a closed loop with one client), and checks
//! every output. With `--trace 0` it reports the end-to-end metrics,
//! with the set-up and loop times rescaled to the reference host by a
//! kernel sampled while they run (see `calibrate`); with `--trace 1` it
//! then runs the traced in-process pass and the layer probes and reports
//! the per-layer metrics instead. Without `--workload` it measures all
//! five workloads in turn.
//!
//! Each metric prints as `workload metric value unit (n, q1–q3)`, and
//! the last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--json PATH` also writes a
//! document with every metric's samples, the pass's spans, `nproc`, the
//! git revision and the host calibration numbers.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use columbia_benchmark::calibrate::{self, Sampler};
use columbia_benchmark::gates::{check_all_resumed, check_analysis, check_stdout};
use columbia_benchmark::json::{quote, Json};
use columbia_benchmark::metrics::{self, Metric};
use columbia_benchmark::proc::{Exit, Runner};
use columbia_benchmark::stats;
use columbia_benchmark::workloads::{fixture, Inputs, Workload};

/// Set-ups and traced passes run at least [`MIN_REPEATS`] times and
/// until they have taken [`MIN_REPEAT_TIME`] together, and report
/// medians. A short step thus repeats more often, so its median rides
/// out a stall of the host as well as a long step's does.
const MIN_REPEATS: usize = 3;
const MIN_REPEAT_TIME: Duration = Duration::from_secs(3);

/// Call `f` as [`MIN_REPEATS`] and [`MIN_REPEAT_TIME`] ask and collect
/// its results.
fn repeat<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut results = Vec::new();
    while results.len() < MIN_REPEATS || start.elapsed() < MIN_REPEAT_TIME {
        results.push(f()?);
    }
    Ok(results)
}

/// Wall-clock budget for one workload once the builds are done. A run
/// must end within 180 s; the watchdog kills whatever is still running
/// when this passes.
const WORKLOAD_BUDGET: Duration = Duration::from_secs(165);

const USAGE: &str = "usage: columbia-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--json PATH]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        json: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name}; one of: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("columbia-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

/// Build with cargo from `root` and return the executable cargo reports
/// for the binary target `bin`.
fn cargo_build(root: &Path, args: &[&str], bin: &str) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--quiet"])
        .arg("--message-format=json-render-diagnostics")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build of {bin} failed"));
    }
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Ok(msg) = Json::parse(line) else { continue };
        let named = msg
            .get("target")
            .and_then(|t| t.get("name"))
            .and_then(Json::as_str)
            == Some(bin);
        if named && msg.get("reason").and_then(Json::as_str) == Some("compiler-artifact") {
            if let Some(exe) = msg.get("executable").and_then(Json::as_str) {
                return Ok(PathBuf::from(exe));
            }
        }
    }
    Err(format!("cargo reported no executable for {bin}"))
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// What the set-up leaves for the timed runs to be checked against.
struct Reference {
    stdout: Vec<u8>,
    analysis: Option<Vec<u8>>,
}

/// One workload's result.
struct Outcome {
    workload: Workload,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// The in-process pass's stage spans: name, start and end in seconds.
    spans: Vec<(String, f64, f64)>,
    /// Calibration samples taken during the set-ups and during the
    /// timed loop, CPU seconds per kernel run.
    calibration: [Vec<f64>; 2],
}

struct Bench {
    root: PathBuf,
    repro: PathBuf,
    probes: Option<PathBuf>,
    tmp: PathBuf,
    runner: Runner,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Bench {
    /// Run `program args` from the repository root with stderr to
    /// `stderr`.
    fn spawn(&self, program: &Path, args: &[String], stderr: &Path) -> Result<Exit, String> {
        let file = fs::File::create(stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
        self.runner.run(
            Command::new(program)
                .current_dir(&self.root)
                .args(args)
                .stdin(Stdio::null())
                .stderr(file),
        )
    }

    /// One set-up: fresh spec files, then the workload's preparatory
    /// `repro` run, checked. `paper` warms up on the 24-point Fig. 6 spec,
    /// `fullmachine` runs once untimed, `fullmachine_pdes` and `traced`
    /// take their serial `--jobs 1` references, and `resume` fills the
    /// checkpoint store.
    fn setup_once(&self, w: Workload, dir: &Path, inputs: &Inputs) -> Result<Reference, String> {
        if dir.exists() {
            fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        fs::create_dir_all(dir.join("specs")).map_err(|e| format!("{}: {e}", dir.display()))?;
        for s in &inputs.specs {
            let path = dir.join("specs").join(format!("{}.toml", s.stem));
            fs::write(&path, &s.text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let stems = || inputs.specs.iter().map(|s| s.stem.as_str());
        let jobs = |n: usize| vec!["--jobs".to_string(), n.to_string()];
        let (args, want) = match w {
            Workload::Paper => (
                [jobs(2), spec_args(dir, ["fig6"].into_iter())].concat(),
                Some(fixture("fig6").golden),
            ),
            Workload::FullMachine => (run_args(w, dir, inputs, ""), inputs.expected.as_deref()),
            Workload::FullMachinePdes => (
                [jobs(1), spec_args(dir, stems())].concat(),
                inputs.expected.as_deref(),
            ),
            Workload::Traced => (
                [
                    jobs(1),
                    vec![
                        "--trace".to_string(),
                        path_arg(&dir.join("ref_trace.json")),
                        "--analyze".to_string(),
                        path_arg(&dir.join("ref_analysis.json")),
                    ],
                    spec_args(dir, stems()),
                ]
                .concat(),
                None,
            ),
            Workload::Resume => (
                [
                    jobs(2),
                    vec!["--checkpoint-dir".to_string(), path_arg(&dir.join("ckpt"))],
                    spec_args(dir, stems()),
                ]
                .concat(),
                inputs.expected.as_deref(),
            ),
        };
        let stderr = dir.join("setup.stderr");
        let exit = self.spawn(&self.repro, &args, &stderr)?;
        if !exit.success() {
            return Err(format!(
                "set-up run failed with status {}: {}",
                exit.status,
                tail(&stderr)
            ));
        }
        if let Some(want) = want {
            check_stdout(&exit.stdout, want.as_bytes()).map_err(|e| format!("set-up run: {e}"))?;
        }
        let analysis = match w {
            Workload::Traced => {
                let path = dir.join("ref_analysis.json");
                let doc = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                check_analysis(&String::from_utf8_lossy(&doc))?;
                Some(doc)
            }
            _ => None,
        };
        Ok(Reference {
            stdout: exit.stdout,
            analysis,
        })
    }

    fn run_workload(&self, w: Workload) -> Result<Outcome, String> {
        self.runner.arm(Some(Instant::now() + WORKLOAD_BUDGET));
        let dir = self.tmp.join(w.name());
        let inputs = w.inputs(self.seed);

        let sampler = Sampler::start();
        let mut reference = None;
        let setups = repeat(|| {
            let start = Instant::now();
            reference = Some(self.setup_once(w, &dir, &inputs)?);
            Ok(start.elapsed().as_secs_f64())
        })?;
        let reference = reference.expect("at least one set-up ran");
        let setup_calibration = sampler.finish();

        let args = run_args(w, &dir, &inputs, "");
        let stderr = dir.join("run.stderr");
        let (mut walls, mut rss_mb) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0u64, 0u64);
        let sampler = Sampler::start();
        let start = Instant::now();
        loop {
            let exit = self.spawn(&self.repro, &args, &stderr)?;
            attempted += 1;
            rss_mb.push(exit.maxrss_kib as f64 * 1024.0 / 1e6);
            let checked = if exit.success() {
                check_output(w, &exit.stdout, &dir, "", &inputs, &reference).and_then(
                    |()| match w {
                        Workload::Resume => check_all_resumed(
                            &fs::read_to_string(&stderr).unwrap_or_default(),
                            inputs.specs.len(),
                        ),
                        _ => Ok(()),
                    },
                )
            } else {
                Err(format!("exit status {}: {}", exit.status, tail(&stderr)))
            };
            match checked {
                Ok(()) => walls.push(exit.wall_s),
                Err(e) => {
                    failed += 1;
                    eprintln!("{}: run {attempted} failed: {e}", w.name());
                }
            }
            // Stop when the next run would likely end past the window.
            if start.elapsed().as_secs_f64() + exit.wall_s > self.seconds {
                break;
            }
        }
        let run_calibration = sampler.finish();
        let factor = calibrate::factor(&run_calibration);
        if walls.is_empty() {
            return Err(format!("{}: every timed run failed", w.name()));
        }
        let raw_wall = stats::median(&walls);
        let (q1, q3) = stats::quartiles(&walls);
        println!(
            "{} wall_raw_s {raw_wall} s (n={}, {q1}–{q3}; calibration factor {factor})",
            w.name(),
            walls.len(),
        );
        if let Some(p90) = stats::tail_percentile(&walls, 90.0) {
            println!("{} wall_p90_s {p90} s (n={}, raw)", w.name(), walls.len());
        }

        let mut outcome = Outcome {
            workload: w,
            attempted,
            failed,
            metrics: Vec::new(),
            spans: Vec::new(),
            calibration: Default::default(),
        };
        if self.trace {
            self.traced_pass(w, &dir, &inputs, &reference, raw_wall, &mut outcome)?;
            metrics::check_complete(&outcome.metrics, &metrics::PER_LAYER)?;
        } else {
            // Times in reference-host seconds, each phase rescaled by the
            // samples taken during it; see `calibrate`.
            let scaled = |v: &[f64], f: f64| -> Vec<f64> { v.iter().map(|x| x * f).collect() };
            let walls = scaled(&walls, factor);
            let setups = scaled(&setups, calibrate::factor(&setup_calibration));
            outcome.metrics = vec![
                Metric::new("wall_s", stats::median(&walls), walls)?,
                Metric::new("setup_s", stats::median(&setups), setups)?,
                Metric::new("peak_rss_mb", stats::median(&rss_mb), rss_mb)?,
            ];
            metrics::check_complete(&outcome.metrics, &metrics::END_TO_END)?;
        }
        outcome.calibration = [setup_calibration, run_calibration];
        Ok(outcome)
    }

    /// The traced in-process pass and the layer probes. The probes binary
    /// repeats the timed run inside one process with spans around every
    /// stage, in a fresh process each time; each pass metric is the median
    /// over the passes, and the spans kept are those of the median pass.
    /// Then one more probes process times each layer on its
    /// representative inputs.
    fn traced_pass(
        &self,
        w: Workload,
        dir: &Path,
        inputs: &Inputs,
        reference: &Reference,
        cli_wall_s: f64,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        let probes = self
            .probes
            .as_ref()
            .expect("probes are built for --trace 1");
        let stderr = dir.join("pass.stderr");
        let run_probes = |args: &[String]| -> Result<Vec<u8>, String> {
            let exit = self.spawn(probes, args, &stderr)?;
            if !exit.success() {
                return Err(format!(
                    "probes failed with status {}: {}",
                    exit.status,
                    tail(&stderr)
                ));
            }
            Ok(exit.stdout)
        };
        let out = dir.join("pass.out");
        let args = [
            vec!["--out".to_string(), path_arg(&out)],
            run_args(w, dir, inputs, "pass_"),
        ]
        .concat();
        let passes = repeat(|| {
            let stdout = run_probes(&args)?;
            let pass_out = fs::read(&out).map_err(|e| format!("{}: {e}", out.display()))?;
            let gate = check_output(w, &pass_out, dir, "pass_", inputs, reference);
            Ok((gate, parse_probe_output(&stdout)?))
        })?;

        let mut walls = Vec::with_capacity(passes.len());
        for (gate, (metrics, _)) in &passes {
            outcome.attempted += 1;
            if let Err(e) = gate {
                outcome.failed += 1;
                eprintln!("{}: traced pass output failed its gate: {e}", w.name());
            }
            walls.push(metric_value(metrics, "pass.wall_s")?);
        }
        let mut by_wall: Vec<usize> = (0..passes.len()).collect();
        by_wall.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
        let (_, (_, median_spans)) = &passes[by_wall[by_wall.len() / 2]];
        outcome.spans = median_spans.clone();
        let (_, (first, _)) = &passes[0];
        for m in first {
            let values = passes
                .iter()
                .map(|(_, (metrics, _))| metric_value(metrics, &m.name))
                .collect::<Result<Vec<_>, _>>()?;
            outcome
                .metrics
                .push(Metric::new(&m.name, stats::median(&values), values)?);
        }
        outcome.metrics.push(Metric::single(
            "cli.overhead_s",
            cli_wall_s - stats::median(&walls),
        )?);

        let layers = run_probes(&[
            "--seed".to_string(),
            self.seed.to_string(),
            "--layers".to_string(),
            path_arg(dir),
        ])?;
        outcome.metrics.extend(parse_probe_output(&layers)?.0);
        Ok(())
    }
}

/// The value of the metric `name` among `metrics`.
fn metric_value(metrics: &[Metric], name: &str) -> Result<f64, String> {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .ok_or(format!("the probes reported no {name}"))
}

/// `repro` arguments of one timed run of `w`. The traced outputs go
/// to files named `<prefix>trace.json` and `<prefix>analysis.json`.
fn run_args(w: Workload, dir: &Path, inputs: &Inputs, prefix: &str) -> Vec<String> {
    let mut a = vec!["--jobs".to_string(), w.jobs().to_string()];
    if w.sim_threads() > 1 {
        a.extend(["--sim-threads".to_string(), w.sim_threads().to_string()]);
    }
    match w {
        Workload::Traced => a.extend([
            "--trace".to_string(),
            path_arg(&dir.join(format!("{prefix}trace.json"))),
            "--analyze".to_string(),
            path_arg(&dir.join(format!("{prefix}analysis.json"))),
        ]),
        Workload::Resume => a.extend([
            "--checkpoint-dir".to_string(),
            path_arg(&dir.join("ckpt")),
            "--resume".to_string(),
        ]),
        _ => {}
    }
    a.extend(spec_args(dir, inputs.specs.iter().map(|s| s.stem.as_str())));
    a
}

/// Gate one run's output: `stdout` and, for `traced`, the analysis
/// document under `dir` named with `prefix`.
fn check_output(
    w: Workload,
    stdout: &[u8],
    dir: &Path,
    prefix: &str,
    inputs: &Inputs,
    reference: &Reference,
) -> Result<(), String> {
    let want = match w {
        Workload::Traced | Workload::FullMachinePdes => reference.stdout.as_slice(),
        _ => inputs
            .expected
            .as_deref()
            .expect("every other workload knows its output in advance")
            .as_bytes(),
    };
    check_stdout(stdout, want)?;
    if w == Workload::Traced {
        let analysis = dir.join(format!("{prefix}analysis.json"));
        let trace = dir.join(format!("{prefix}trace.json"));
        if fs::read(&analysis).ok() != reference.analysis {
            return Err("analysis JSON differs from the --jobs 1 reference".into());
        }
        if fs::metadata(&trace).map_or(true, |m| m.len() == 0) {
            return Err(format!("{} is missing or empty", trace.display()));
        }
    }
    Ok(())
}

/// `--spec <dir>/specs/<stem>.toml` for each stem.
fn spec_args<'a>(dir: &Path, stems: impl Iterator<Item = &'a str>) -> Vec<String> {
    stems
        .flat_map(|stem| {
            [
                "--spec".to_string(),
                path_arg(&dir.join("specs").join(format!("{stem}.toml"))),
            ]
        })
        .collect()
}

/// The last few lines of a stderr file, for error messages.
fn tail(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

type Spans = Vec<(String, f64, f64)>;

/// Parse the probes' stdout: `metric <name> <value> [<sample>...]` and
/// `span <name> <start_s> <end_s>` lines.
fn parse_probe_output(stdout: &[u8]) -> Result<(Vec<Metric>, Spans), String> {
    let (mut metrics, mut spans) = (Vec::new(), Vec::new());
    for line in String::from_utf8_lossy(stdout).lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|e| format!("probe line {line:?}: {e}"))
        };
        match fields.as_slice() {
            ["metric", name, value, samples @ ..] => {
                let value = num(value)?;
                let mut samples = samples
                    .iter()
                    .map(|s| num(s))
                    .collect::<Result<Vec<_>, _>>()?;
                if samples.is_empty() {
                    samples.push(value);
                }
                metrics.push(Metric::new(name, value, samples)?);
            }
            ["span", name, start, end] => spans.push((name.to_string(), num(start)?, num(end)?)),
            _ => return Err(format!("unexpected probe output line {line:?}")),
        }
    }
    Ok((metrics, spans))
}

fn git_rev(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_doc(m: &Metric) -> String {
    let (q1, q3) = stats::quartiles(&m.samples);
    let samples: Vec<String> = m.samples.iter().map(f64::to_string).collect();
    format!(
        "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"q1\": {q1}, \"q3\": {q3}, \"samples\": [{}]}}",
        quote(&m.name),
        m.value,
        quote(m.unit),
        m.samples.len(),
        samples.join(", ")
    )
}

/// The `--json` document.
fn json_document(args: &Args, root: &Path, calibration: &[Metric], outcomes: &[Outcome]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let metrics: Vec<String> = o.metrics.iter().map(metric_doc).collect();
            let spans: Vec<String> = o
                .spans
                .iter()
                .map(|(name, start, end)| {
                    format!(
                        "{{\"name\": {}, \"start_s\": {start}, \"end_s\": {end}}}",
                        quote(name)
                    )
                })
                .collect();
            let samples = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
            format!(
                "{{\"name\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"metrics\": {{{}}}, \"setup_calibration_s\": [{}], \"run_calibration_s\": [{}], \
                 \"spans\": [{}]}}",
                quote(o.workload.name()),
                o.failed == 0,
                o.attempted,
                o.failed,
                metrics.join(", "),
                samples(&o.calibration[0]),
                samples(&o.calibration[1]),
                spans.join(", ")
            )
        })
        .collect();
    let calibration: Vec<String> = calibration.iter().map(metric_doc).collect();
    format!(
        "{{\"schema\": \"columbia-benchmark-v1\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_rev\": {}, \"calibration\": {{{}}}, \"workloads\": [{}]}}\n",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        quote(&git_rev(root)),
        calibration.join(", "),
        workloads.join(", ")
    )
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if !root.join("Cargo.toml").is_file() || !root.join("benchmark").is_dir() {
        return Err("run from the root of the repository".into());
    }
    let repro = cargo_build(&root, &["--bin", "repro"], "repro")?;
    let probes = if args.trace || args.json.is_some() {
        let manifest = ["--manifest-path", "benchmark/probes/Cargo.toml"];
        Some(cargo_build(&root, &manifest, "columbia-benchmark-probes")?)
    } else {
        None
    };
    let tmp = root.join(".bench_tmp").join(std::process::id().to_string());
    fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let _scratch = Scratch(tmp.clone());
    let bench = Bench {
        root: root.clone(),
        repro,
        probes,
        tmp,
        runner: Runner::new(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };

    let workloads = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut outcomes = Vec::new();
    for w in workloads {
        let outcome = bench.run_workload(w)?;
        for m in &outcome.metrics {
            println!("{}", m.line(w.name()));
        }
        outcomes.push(outcome);
    }

    if let Some(path) = &args.json {
        let calibration: Vec<Metric> = if args.trace {
            outcomes[0].metrics.clone()
        } else {
            let probes = bench.probes.as_ref().expect("probes are built for --json");
            bench.runner.arm(Some(Instant::now() + WORKLOAD_BUDGET));
            let stderr = bench.tmp.join("calibrate.stderr");
            let exit = bench.spawn(probes, &["--calibrate".to_string()], &stderr)?;
            if !exit.success() {
                return Err(format!("calibration failed: {}", tail(&stderr)));
            }
            parse_probe_output(&exit.stdout)?.0
        };
        let calibration: Vec<Metric> = calibration
            .into_iter()
            .filter(|m| m.name.starts_with("host."))
            .collect();
        fs::write(path, json_document(&args, &root, &calibration, &outcomes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let single = outcomes.len() == 1;
    let entries: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().map(move |m| {
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{}/{}", o.workload.name(), m.name)
                };
                m.json_entry(&key)
            })
        })
        .collect();
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    println!(
        "{}",
        metrics::result_line(failed == 0, attempted, failed, &entries)
    );
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists the key")
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_binary_emits() {
        let doc = benchmark_json();
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        for (key, catalogue) in [
            ("end_to_end", &metrics::END_TO_END[..]),
            ("per_layer", &metrics::PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let emitted: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, emitted, "{key}");
        }
    }

    #[test]
    fn probe_output_parses_into_catalogue_metrics() {
        let out = b"metric spec.points 42\nmetric sweep.run_s 1.5 1.0 1.5 2.0\nspan pass 0 2.5\n";
        let (m, spans) = parse_probe_output(out).unwrap();
        assert_eq!(m[0].samples, [42.0]);
        assert_eq!(m[1].samples.len(), 3);
        assert_eq!(spans, [("pass".to_string(), 0.0, 2.5)]);
        assert!(parse_probe_output(b"metric no.such 1\n").is_err());
        assert!(parse_probe_output(b"garbage\n").is_err());
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse_args(std::iter::empty()).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (1, 10.0, false));
        let given = [
            "--workload",
            "traced",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ];
        let a = parse_args(given.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.workload, Some(Workload::Traced));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        for bad in [
            &["--trace", "2"][..],
            &["--workload", "nope"],
            &["--seed"],
            &["-x"],
        ] {
            assert!(
                parse_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }
}
