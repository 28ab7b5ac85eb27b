//! The pieces of `columbia-benchmark`, shared with the in-process
//! probes in `probes/`: the seeded workload generators and
//! their fixtures, the correctness gates, the metric catalogue, order
//! statistics, host-speed calibration, a small JSON reader, and the
//! measured child-process runner.

pub mod calibrate;
pub mod gates;
pub mod json;
pub mod metrics;
pub mod proc;
pub mod stats;
pub mod workloads;
