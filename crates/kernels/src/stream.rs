//! The STREAM kernels (copy, scale, add, triad).
//!
//! Real vector operations on one thread, with a small timing harness
//! returning achieved bytes/second — the host-side twin of the
//! simulated HPCC STREAM component. The rates it measures are
//! single-core rates.

use std::time::Instant;

use columbia_machine::memory::StreamOp;

/// Execute one STREAM operation once over the given vectors.
///
/// Vector roles follow the reference benchmark: `copy: c←a`,
/// `scale: b←s·c`, `add: c←a+b`, `triad: a←b+s·c`.
pub fn run_op(op: StreamOp, a: &mut [f64], b: &mut [f64], c: &mut [f64], s: f64) {
    let n = a.len();
    assert!(
        b.len() == n && c.len() == n,
        "vectors must have equal length"
    );
    match op {
        StreamOp::Copy => c.copy_from_slice(a),
        StreamOp::Scale => {
            for (bv, cv) in b.iter_mut().zip(c.iter()) {
                *bv = s * cv;
            }
        }
        StreamOp::Add => {
            for ((cv, av), bv) in c.iter_mut().zip(a.iter()).zip(b.iter()) {
                *cv = av + bv;
            }
        }
        StreamOp::Triad => {
            for ((av, bv), cv) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                *av = bv + s * cv;
            }
        }
    }
}

/// [`run_op`] as one zipped element-wise pass per operation, the form a
/// data-parallel split would take; it runs on the calling thread.
pub fn run_op_parallel(op: StreamOp, a: &mut [f64], b: &mut [f64], c: &mut [f64], s: f64) {
    let n = a.len();
    assert!(
        b.len() == n && c.len() == n,
        "vectors must have equal length"
    );
    match op {
        StreamOp::Copy => {
            c.iter_mut().zip(a.iter()).for_each(|(cv, av)| *cv = *av);
        }
        StreamOp::Scale => {
            b.iter_mut().zip(c.iter()).for_each(|(bv, cv)| *bv = s * cv);
        }
        StreamOp::Add => {
            c.iter_mut()
                .zip(a.iter().zip(b.iter()))
                .for_each(|(cv, (av, bv))| *cv = av + bv);
        }
        StreamOp::Triad => {
            a.iter_mut()
                .zip(b.iter().zip(c.iter()))
                .for_each(|(av, (bv, cv))| *av = bv + s * cv);
        }
    }
}

/// Measured result of one STREAM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamMeasurement {
    /// Which operation ran.
    pub op: StreamOp,
    /// Best-iteration achieved bandwidth, bytes/second.
    pub bytes_per_second: f64,
}

/// Time `op` over vectors of `n` doubles for `iters` iterations and
/// report the best achieved bandwidth (STREAM's methodology).
pub fn measure(op: StreamOp, n: usize, iters: u32) -> StreamMeasurement {
    assert!(iters >= 1);
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    let bytes = op.bytes_per_element() * n as u64;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        run_op(op, &mut a, &mut b, &mut c, 3.0);
        best = best.min(t.elapsed().as_secs_f64());
    }
    StreamMeasurement {
        op,
        bytes_per_second: bytes as f64 / best.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        let c: Vec<f64> = (0..n).map(|i| 3.0 * i as f64).collect();
        (a, b, c)
    }

    #[test]
    fn copy_copies() {
        let (mut a, mut b, mut c) = vectors(100);
        run_op(StreamOp::Copy, &mut a, &mut b, &mut c, 0.0);
        assert_eq!(c, a);
    }

    #[test]
    fn scale_scales() {
        let (mut a, mut b, mut c) = vectors(100);
        run_op(StreamOp::Scale, &mut a, &mut b, &mut c, 2.0);
        for i in 0..100 {
            assert_eq!(b[i], 2.0 * c[i]);
        }
    }

    #[test]
    fn add_adds() {
        let (mut a, mut b, mut c) = vectors(64);
        run_op(StreamOp::Add, &mut a, &mut b, &mut c, 0.0);
        for i in 0..64 {
            assert_eq!(c[i], a[i] + b[i]);
        }
    }

    #[test]
    fn triad_fuses_multiply_add() {
        let (mut a, mut b, mut c) = vectors(64);
        let b0 = b.clone();
        let c0 = c.clone();
        run_op(StreamOp::Triad, &mut a, &mut b, &mut c, 3.0);
        for i in 0..64 {
            assert_eq!(a[i], b0[i] + 3.0 * c0[i]);
        }
    }

    #[test]
    fn parallel_matches_serial_for_all_ops() {
        for op in StreamOp::ALL {
            let (mut a1, mut b1, mut c1) = vectors(1000);
            let (mut a2, mut b2, mut c2) = vectors(1000);
            run_op(op, &mut a1, &mut b1, &mut c1, 1.5);
            run_op_parallel(op, &mut a2, &mut b2, &mut c2, 1.5);
            assert_eq!(a1, a2);
            assert_eq!(b1, b2);
            assert_eq!(c1, c2);
        }
    }

    #[test]
    fn measure_reports_positive_bandwidth() {
        let m = measure(StreamOp::Triad, 10_000, 3);
        assert!(m.bytes_per_second > 0.0);
        assert_eq!(m.op, StreamOp::Triad);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 3];
        let mut c = vec![0.0; 4];
        run_op(StreamOp::Copy, &mut a, &mut b, &mut c, 0.0);
    }
}
