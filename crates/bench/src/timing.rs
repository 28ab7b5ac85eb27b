//! Wall-clock timing for the benches in `benches/`.
//!
//! The benches are plain `harness = false` mains. Each times its
//! closures with these helpers and reports through
//! [`BenchRecord`](crate::BenchRecord) (the gated `BENCH JSON` lines)
//! or [`print_row`] (informational rows that no CI step reads).

use std::time::Instant;

/// Minimum wall nanoseconds of a single call of `f` over `iters` timed
/// runs (after `warmup` discarded ones). Scheduling noise only ever
/// slows a run, so the per-iteration minimum is a far more stable
/// estimator than the mean for a ratio of two timings.
pub fn time_ns(warmup: u32, iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Wall nanoseconds of one call of `a` and one of `b` in each of
/// `rounds` rounds, measured **interleaved** (a, b, a, b, …) after
/// `warmup` discarded rounds. Interleaving cancels the drift that
/// poisons back-to-back comparisons (frequency ramp-up, allocator and
/// cache warm-up land on whichever side runs second).
pub fn time_rounds_ns(
    warmup: u32,
    rounds: u32,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> Vec<(f64, f64)> {
    for _ in 0..warmup {
        a();
        b();
    }
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            a();
            let a_ns = start.elapsed().as_nanos() as f64;
            let start = Instant::now();
            b();
            (a_ns, start.elapsed().as_nanos() as f64)
        })
        .collect()
}

/// The median of `values`.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Time `f` with [`time_ns`] (one warm-up, `iters` timed runs) and
/// print one informational `bench <label>  <ms> ms/iter` row.
pub fn print_row(label: &str, iters: u32, f: impl FnMut()) {
    let ns = time_ns(1, iters, f);
    println!("bench {label:<40} {:.3} ms/iter (min of {iters})", ns / 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
