//! `columbia` — a full reproduction of *An Application-Based
//! Performance Characterization of the Columbia Supercluster*
//! (Biswas, Djomehri, Hood, Jin, Kiris, Saini — SC 2005).
//!
//! Columbia was NASA's 10,240-processor SGI Altix supercluster. The
//! paper characterizes it with the HPC Challenge microbenchmarks, a
//! subset of the NAS Parallel Benchmarks (including the multi-zone
//! versions), a Lennard-Jones molecular dynamics code, and two
//! production overset-grid CFD applications (INS3D, OVERFLOW-D). This
//! workspace rebuilds all of that in Rust: a calibrated machine model
//! and discrete-event cluster simulator stand in for the hardware we
//! do not have (see `DESIGN.md` for the substitution table), while
//! every benchmark algorithm is implemented for real and verified on
//! the host.
//!
//! Quick start:
//!
//! ```
//! use columbia::experiments::run;
//!
//! // Regenerate the paper's Table 1 (node characteristics) from its
//! // embedded spec, `specs/table1.toml`.
//! let report = run("table1");
//! assert!(report.to_text().contains("NUMAlink4"));
//! ```
//!
//! The sub-crates are re-exported under their domain names:
//! [`machine`], [`simnet`], [`runtime`], [`kernels`], [`hpcc`],
//! [`npb`], [`npbmz`], [`md`], [`overset`], [`ins3d`], [`overflowd`].

pub use columbia_hpcc as hpcc;
pub use columbia_ins3d as ins3d;
pub use columbia_kernels as kernels;
pub use columbia_machine as machine;
pub use columbia_md as md;
pub use columbia_npb as npb;
pub use columbia_npbmz as npbmz;
pub use columbia_obs as obs;
pub use columbia_overflowd as overflowd;
pub use columbia_overset as overset;
pub use columbia_par as par;
pub use columbia_runtime as runtime;
pub use columbia_simnet as simnet;

pub mod experiments;
pub mod manifest;
pub mod obs_report;
pub mod report;
pub mod spec;
pub mod store;
pub mod sweep;

pub use experiments::{run, run_with_jobs};
pub use manifest::{ManifestBuilder, ResilienceSummary, RunManifest, Volatile};
pub use obs_report::{analysis_report, hotspot_rows};
pub use report::Report;
pub use spec::{compile, spec_hash, Spec, SpecError, SpecJob, SPEC_SCHEMA};
pub use store::{PointKey, PointStore, StoreError};
pub use sweep::{PointError, PointOutput, ResilienceOptions, SweepOutcome, SweepPlan, SweepStats};

/// Assert a computed `f64` matches a golden value within a relative
/// tolerance: `assert_close!(actual, expected, rel)`, optionally with a
/// context label as the fourth argument.
///
/// This is the comparison the golden-value regression suite
/// (`tests/golden_values.rs`) is built on. On failure the message spells
/// out the update path: golden values are changed *deliberately* —
/// re-derive the constant, update it in the test alongside a note in
/// EXPERIMENTS.md explaining what moved, never loosen the tolerance to
/// make a drift pass.
#[macro_export]
macro_rules! assert_close {
    ($actual:expr, $expected:expr, $rel:expr $(,)?) => {
        $crate::assert_close!($actual, $expected, $rel, stringify!($actual))
    };
    ($actual:expr, $expected:expr, $rel:expr, $what:expr $(,)?) => {{
        let actual: f64 = $actual;
        let expected: f64 = $expected;
        let rel: f64 = $rel;
        let diff = (actual - expected).abs();
        let tol = rel * expected.abs();
        assert!(
            diff <= tol,
            "{}: got {actual:.6e}, golden value is {expected:.6e} \
             (off by {:.2}%, tolerance {:.2}%)\n\
             If this change is intentional, update the golden value and \
             record the model change in EXPERIMENTS.md; do not widen the \
             tolerance.",
            $what,
            100.0 * diff / expected.abs(),
            100.0 * rel,
        );
    }};
}
