//! Determinism of the parallel sweep executor.
//!
//! The contract under test: `run_with_jobs(N)` is **bit-identical** to
//! the serial run for every plan and every `N` — points may execute on
//! any worker in any order, but collation is keyed by sweep index, so
//! scheduling can never leak into a report.
//!
//! Here that is property-tested over randomly generated synthetic sweep
//! plans (sizes, seeds, row shapes) across `N ∈ {1, 2, 7}`, plus an
//! oversubscribed `jobs = 7` pass over the cheap experiments. The
//! golden harness (`tests/golden_values.rs`) runs every experiment at
//! `--jobs 1` and `--jobs 4` against its fixture — the degraded sweep,
//! whose points finish out of order, included — and CI diffs the full
//! `repro --jobs 2` output against `--jobs 1`.

use std::path::PathBuf;

use columbia::experiments::run_with_jobs;
use columbia::{PointOutput, SweepPlan};
use proptest::prelude::*;

/// Build a synthetic plan from a seed: `n_points` points, each deriving
/// its rows and values from a splitmix64 stream so outputs are
/// data-dependent but reproducible.
fn synthetic_plan(seed: u64, n_points: usize, rows_per_point: usize) -> SweepPlan {
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let mut plan = SweepPlan::new("prop", "synthetic sweep", &["point", "row", "value"]);
    for i in 0..n_points {
        plan.point_ok(move |_| {
            let mut state = seed ^ (i as u64) << 17;
            let mut out = PointOutput::default();
            for row in 0..rows_per_point {
                let v = splitmix(&mut state);
                out.rows
                    .push(vec![i.to_string(), row.to_string(), format!("{v:016x}")]);
            }
            if i % 3 == 0 {
                out.notes.push(format!("note from point {i}"));
            }
            out.with_value(seed as f64)
        });
    }
    plan.note("plan-level note");
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn synthetic_sweeps_are_schedule_independent(
        seed in 0u64..u64::MAX,
        n_points in 0usize..40,
        rows_per_point in 1usize..4,
    ) {
        let serial = synthetic_plan(seed, n_points, rows_per_point)
            .run_with_jobs(1)
            .unwrap();
        for jobs in [2usize, 7] {
            let par = synthetic_plan(seed, n_points, rows_per_point)
                .run_with_jobs(jobs)
                .unwrap();
            prop_assert_eq!(serial.to_text(), par.to_text(), "jobs={}", jobs);
            prop_assert_eq!(serial.to_json(), par.to_json(), "jobs={}", jobs);
        }
    }
}

fn golden(name: &str) -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} (generate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_values`): {e}",
            path.display()
        )
    })
}

/// Oversubscribed pool (7 workers on this host's cores) for the cheap
/// experiments — more workers than points for several of them, which
/// exercises the pool's hand-off edge cases.
#[test]
fn cheap_experiments_are_identical_at_jobs_7() {
    for name in [
        "table1",
        "fig5",
        "dgemm-stream",
        "table2",
        "stride",
        "fig8",
        "fig10",
        "trace",
    ] {
        let par = format!("{}\n", run_with_jobs(name, 7).to_text());
        assert_eq!(
            par,
            golden(name),
            "{name} differs between --jobs 7 and the serial golden"
        );
    }
}
