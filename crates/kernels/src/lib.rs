// Index-style loops and BLAS-style argument lists are the natural
// idiom for these numerical kernels; iterator rewrites obscure the
// stencil structure the comments and the paper describe.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

//! Real computational kernels underlying every benchmark in the paper.
//!
//! These are genuine implementations — they compute, are verified by
//! the test suite, and run on one thread: the host DGEMM and STREAM
//! rates they measure are single-core rates. The workload crates use
//! them two ways: directly, for host-scale "real runs"
//! (examples and correctness tests), and analytically, as the source
//! of the flop/byte counts their simulator workload specs carry.
//!
//! * [`dgemm`] — dense matrix multiply: naive, cache-blocked, and
//!   blocked over independent row bands (the HPCC DGEMM component);
//! * [`stream`] — the four STREAM vector operations;
//! * [`complex`] — a minimal complex type for the FFT;
//! * [`fft`] — iterative radix-2 complex FFT and a pencil-decomposed
//!   3-D transform (NPB FT);
//! * [`grid`] — a dense 3-D array with halo-friendly indexing, shared
//!   by the stencil kernels;
//! * [`mg`] — multigrid V-cycle for the 3-D Poisson equation (NPB MG);
//! * [`cg`] — CSR sparse matrix-vector products and the conjugate
//!   gradient solver, with the NPB-style random matrix generator;
//! * [`btsolve`] — 5×5 block-tridiagonal line solver (NPB BT and the
//!   multi-zone BT-MZ/SP-MZ);
//! * [`lusgs`] — hyperplane-pipelined LU-SGS sweep (the OVERFLOW-D
//!   linear solver, reimplemented as a pipeline per §3.5);
//! * [`linegs`] — line Gauss-Seidel relaxation (the INS3D solver).

pub mod btsolve;
pub mod cg;
pub mod complex;
pub mod dgemm;
pub mod fft;
pub mod grid;
pub mod linegs;
pub mod lusgs;
pub mod mg;
pub mod stream;

pub use complex::Complex;
pub use grid::Grid3;
