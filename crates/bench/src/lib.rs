//! Benchmark harness crate: the `repro` binary regenerates every table
//! and figure of the paper; the Criterion benches (in `benches/`)
//! measure the real kernels and the simulator, including the ablation
//! studies DESIGN.md calls out.
//!
//! This library hosts [`record`], the one way a bench emits its
//! machine-readable result: a `BENCH JSON` stdout line that CI greps
//! into its bench artifact and checks against the absolute bounds in
//! `ci/check_bench.py`.

pub mod record;

pub use record::BenchRecord;
