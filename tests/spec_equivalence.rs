//! Spec-frontend equivalence suite: `repro --spec specs/<name>.toml`
//! and `repro --exp <name>` are the same job.
//!
//! Every experiment exists once, as `specs/<name>.toml`. `--exp` runs
//! the copy embedded in `core::experiments` through the constructor
//! `--spec` runs on the file ([`SpecJob`]). Per experiment, this suite
//! loads the file the way `--spec` does and holds it to the embedded
//! job: the same name (so both share one checkpoint namespace), the
//! same content hash (so both record the same manifest `spec` object)
//! and the same plan fingerprint. A mismatch means the two entry
//! points diverged.
//!
//! Nothing runs here: `tests/golden_values.rs` runs every experiment
//! once per job count and pins its report and plan identity.

use std::path::PathBuf;

use columbia::experiments::{self, EXPERIMENTS};
use columbia::SpecJob;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn check(name: &str) {
    let file = SpecJob::load(&repo_path(&format!("specs/{name}.toml")))
        .unwrap_or_else(|e| panic!("specs/{name}.toml failed to compile: {e}"));
    let embedded = experiments::job(name).expect("listed experiment");
    assert_eq!(
        file.name, embedded.name,
        "--spec names the job by file stem"
    );
    assert_eq!(
        file.content_hash, embedded.content_hash,
        "{name}: the embedded spec is not the text of specs/{name}.toml"
    );
    assert_eq!(
        file.plan.fingerprint(),
        embedded.plan.fingerprint(),
        "{name}: --spec and --exp build differently shaped plans"
    );
}

macro_rules! equivalence {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check($name);
            }
        )*
    };
}

equivalence! {
    spec_table1 => "table1",
    spec_fig5 => "fig5",
    spec_dgemm_stream => "dgemm-stream",
    spec_fig6 => "fig6",
    spec_table2 => "table2",
    spec_table3 => "table3",
    spec_stride => "stride",
    spec_fig7 => "fig7",
    spec_fig8 => "fig8",
    spec_table4 => "table4",
    spec_fig9 => "fig9",
    spec_fig10 => "fig10",
    spec_fig11 => "fig11",
    spec_table5 => "table5",
    spec_table6 => "table6",
    spec_degraded => "degraded",
    spec_trace => "trace",
    spec_columbia => "columbia",
}

/// The directory and the name table stay in lockstep: every experiment
/// has a spec, and every spec is an experiment's (no orphaned files
/// accumulating untested).
#[test]
fn specs_directory_is_exactly_the_experiment_set() {
    let dir = repo_path("specs");
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing specs/ directory: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    found.sort();
    let mut expected: Vec<String> = EXPERIMENTS
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    expected.sort();
    assert_eq!(found, expected);
}
