//! Benchmark harness crate: the `repro` binary regenerates every table
//! and figure of the paper; the two benches in `benches/` measure the
//! simulator engine (`simnet`) and what observability costs (`obs`).
//!
//! This library hosts [`record`], the one way a bench emits its
//! machine-readable result: a `BENCH JSON` stdout line that CI greps
//! into its bench artifact and checks against the absolute bounds in
//! `ci/check_bench.py`.

pub mod record;

pub use record::BenchRecord;
