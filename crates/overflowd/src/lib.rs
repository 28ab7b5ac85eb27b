//! OVERFLOW-D: compressible overset-grid rotor-wake simulations
//! (§3.5, §4.1.4, Table 3, Table 4, Table 6).
//!
//! OVERFLOW-D advances a time-loop over a grid-loop: each block solves
//! the flow equations, and overlapping boundary points update from the
//! previous step through overset interpolation. The hybrid version
//! bin-packs blocks into groups (one MPI process each, OpenMP inside)
//! and exchanges inter-group boundaries with asynchronous MPI — an
//! all-to-all pattern every step. The LU-SGS linear solver was
//! reimplemented as a pipeline for Columbia's cache-based processors.
//!
//! * [`solver`] — a real miniature two-block overset solver: LU-SGS
//!   relaxation per block + donor-interpolated boundary updates;
//! * [`perf`] — the Table 3/6 runner on the 1,679-block, 75-million-
//!   point rotor system, plus the Table 4 compiler comparison.

pub mod perf;
pub mod solver;

pub use perf::{placement_strategy, step_times, OverflowConfig, StepTimes};
pub use solver::OversetPair;
