//! `columbia-benchmark-probes`: the traced in-process pass and the layer
//! probes behind `columbia-benchmark --trace 1`.
//!
//! ```text
//! columbia-benchmark-probes --out PATH <repro arguments>
//! columbia-benchmark-probes --seed N --layers DIR
//! columbia-benchmark-probes --calibrate
//! ```
//!
//! The pass takes the arguments of the `repro` run it mirrors
//! (`--jobs`, `--sim-threads`, `--checkpoint-dir`, `--resume`,
//! `--trace`, `--analyze`, `--spec`) and does what `repro` does with
//! them inside this process, with a span around every stage. What
//! `repro` would print goes to `--out`, so `columbia-benchmark` can gate
//! it. `--layers` times each layer's public functions on fixed
//! representative inputs, with scratch files under `DIR`; `--calibrate`
//! runs only the host calibration kernels. Results stay in memory until
//! the end and then print as `metric <name> <value> [<sample>...]` and
//! `span <name> <start_s> <end_s>` lines.

mod layers;
mod pass;

use std::path::PathBuf;

use columbia_benchmark::metrics;

/// Everything this process measured, printed when it ends.
#[derive(Default)]
pub struct Results {
    lines: Vec<String>,
}

impl Results {
    /// Record metric `name` reduced to `value` from `samples`.
    ///
    /// # Panics
    /// If `name` is not in the catalogue: that is a bug in this program.
    pub fn metric(&mut self, name: &str, value: f64, samples: &[f64]) {
        assert!(
            metrics::unit(name).is_some(),
            "{name} is not in the catalogue"
        );
        let samples: Vec<String> = samples.iter().map(f64::to_string).collect();
        self.lines.push(
            format!("metric {name} {value} {}", samples.join(" "))
                .trim_end()
                .to_string(),
        );
    }

    /// Record a metric read once.
    pub fn single(&mut self, name: &str, value: f64) {
        self.metric(name, value, &[]);
    }

    /// Record a stage span.
    pub fn span(&mut self, name: &str, start: f64, end: f64) {
        self.lines.push(format!("span {name} {start} {end}"));
    }
}

fn run() -> Result<Results, String> {
    let mut args = std::env::args().skip(1);
    let mut results = Results::default();
    let mut seed = 1u64;
    let mut out = None;
    let mut layers_dir = None;
    let mut pass = pass::PassArgs::default();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--calibrate" => {
                layers::host(&mut results);
                return Ok(results);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--layers" => layers_dir = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--jobs" => pass.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--sim-threads" => {
                pass.sim_threads = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--sim-threads: {e}"))?,
                )
            }
            "--checkpoint-dir" => pass.checkpoint_dir = Some(PathBuf::from(value()?)),
            "--resume" => pass.resume = true,
            "--trace" => pass.trace = Some(PathBuf::from(value()?)),
            "--analyze" => pass.analyze = Some(PathBuf::from(value()?)),
            "--spec" => pass.specs.push(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(dir) = layers_dir {
        layers::host(&mut results);
        layers::store(&dir, &mut results)?;
        layers::runtime(&mut results)?;
        layers::engine(seed, &mut results)?;
        layers::obs(seed, &dir, &mut results)?;
        return Ok(results);
    }
    let out = out.ok_or("--out or --layers is required")?;
    if pass.jobs == 0 || pass.specs.is_empty() {
        return Err("the pass needs --jobs >= 1 and at least one --spec".into());
    }
    pass::run(&pass, &out, &mut results)?;
    Ok(results)
}

fn main() {
    match run() {
        Ok(results) => {
            for line in results.lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("columbia-benchmark-probes: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use columbia::spec::{compile, load_str};
    use columbia_benchmark::workloads::{Workload, FULLMACHINE_POINTS, PDES_POINTS, TRACED_POINTS};

    /// Sweep points of the 18 shipped experiments together.
    const PAPER_POINTS: usize = 122;

    #[test]
    fn generated_specs_compile_to_the_expected_points() {
        for (w, want) in [
            (Workload::Paper, PAPER_POINTS),
            (Workload::FullMachine, FULLMACHINE_POINTS),
            (Workload::FullMachinePdes, PDES_POINTS),
            (Workload::Traced, TRACED_POINTS),
            (Workload::Resume, PAPER_POINTS),
        ] {
            for seed in [1, 2] {
                let points: usize = w
                    .inputs(seed)
                    .specs
                    .iter()
                    .map(|s| {
                        let spec = load_str(&s.text)
                            .unwrap_or_else(|e| panic!("{} {}: {e}", w.name(), s.stem));
                        compile(&spec).expect("a parsed spec compiles").len()
                    })
                    .sum();
                assert_eq!(points, want, "{} seed {seed}", w.name());
            }
        }
    }
}
