//! The multi-zone NAS Parallel Benchmarks (§3.2, §4.3, §4.5, §4.6.2).
//!
//! NPB-MZ partitions the flow domain into many zones that are solved
//! independently each step and then exchange boundary values — the
//! same structure as the overset-grid production codes. BT-MZ sizes
//! its zones *unevenly* (stressing load balance), SP-MZ evenly. The
//! paper introduces two new classes to stress Columbia: E (4,096
//! zones, 1.3 billion aggregate points) and F (16,384 zones).
//!
//! * [`zones`] — zone grids and dimensions per class, even and uneven;
//! * [`balance`] — the greedy bin-packing balancer (and the round-robin
//!   baseline it is tested against) assigning zones to MPI ranks;
//! * [`mod@bench`] — hybrid MPI+OpenMP workload specs, the real class-S
//!   mini-run, and the figure runners (Fig. 7 pinning, Fig. 9
//!   process/thread trade, Fig. 11 multinode fabrics).

pub mod balance;
pub mod bench;
pub mod zones;

pub use bench::{MzBenchmark, MzRunConfig};
pub use zones::{MzClass, Zone};
