//! Host-speed calibration.
//!
//! The reference host this benchmark was tuned on (2 vCPUs of a shared
//! Xeon with one 105 MiB L3) drifts: the same `repro` run takes 10–20%
//! longer for minutes at a time while other tenants load the host.
//! While a workload runs, a background thread therefore times a fixed
//! kernel every [`INTERVAL`] by its own CPU clock, and the run rescales
//! its times by how fast that kernel ran. Sampled concurrently like
//! this, it halved the spread of single `fullmachine` and
//! `fullmachine_pdes` invocations there (14–15% to 7–8%), where samples
//! taken between invocations did not help `fullmachine_pdes` at all.
//! Each sample costs about 1.5 ms of CPU per interval, about 1.5% of one
//! core. The kernel lives here, in the benchmark, so no change to the
//! program under test can move it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Iterations of one calibration sample.
const ITERATIONS: u64 = 200_000;

/// The median calibration sample on the reference host while a workload
/// runs. Rescaled times read as seconds on that host.
pub const REFERENCE_S: f64 = 0.00136;

/// Time between two samples.
const INTERVAL: Duration = Duration::from_millis(100);

/// A compute-bound loop: xorshift steps, a data-dependent branch and a
/// floating-point accumulation. No allocation and no memory traffic.
fn kernel(n: u64) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0.0;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 0 {
            acc += (x % 1000) as f64 * 1e-3;
        } else {
            acc -= (i % 7) as f64 * 0.5;
        }
    }
    acc
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds the calling thread has run: time it waited for a core
/// does not count, so a sample measures how fast the core executes.
fn thread_cpu_s() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a writable timespec and the clock id is valid on
    // Linux, so the call only writes `t`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// One kernel run, in CPU seconds of the calling thread.
fn sample() -> f64 {
    let start = thread_cpu_s();
    black_box(kernel(black_box(ITERATIONS)));
    thread_cpu_s() - start
}

/// The factor that turns seconds measured alongside `samples` into
/// reference seconds.
///
/// # Panics
/// If `samples` is empty.
pub fn factor(samples: &[f64]) -> f64 {
    REFERENCE_S / crate::stats::median(samples)
}

/// The background sampling thread of one run.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<f64>>>,
}

impl Sampler {
    /// Start sampling: one sample now, then one every [`INTERVAL`].
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = vec![sample()];
            loop {
                std::thread::park_timeout(INTERVAL);
                if flag.load(Ordering::SeqCst) {
                    return samples;
                }
                samples.push(sample());
            }
        });
        Sampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop sampling and return every sample taken.
    pub fn finish(mut self) -> Vec<f64> {
        self.stop_and_join()
            .expect("the sampling thread does not panic")
    }

    fn stop_and_join(&mut self) -> std::thread::Result<Vec<f64>> {
        self.stop.store(true, Ordering::SeqCst);
        let thread = self.thread.take().expect("joined once");
        thread.thread().unpark();
        thread.join()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.stop_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(1000), kernel(1000));
    }

    #[test]
    fn sampler_samples_until_finished() {
        let sampler = Sampler::start();
        std::thread::sleep(INTERVAL * 3);
        let samples = sampler.finish();
        assert!(samples.len() >= 2, "{samples:?}");
        assert!(samples.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn the_factor_uses_the_median() {
        assert_eq!(factor(&[REFERENCE_S / 2.0, REFERENCE_S / 2.0, 1.0]), 2.0);
    }
}
