//! Molecular dynamics (§3.3, §4.6.3).
//!
//! The paper's MD study uses "a generic molecular dynamics code based
//! on the Velocity Verlet algorithm": Lennard-Jones interactions cut
//! off at 5.0, atoms initialized on an fcc lattice with randomized
//! velocities, spatial decomposition into per-processor boxes with
//! purely local communication, and a weak-scaling experiment assigning
//! 64,000 atoms per processor (Table 5: near-perfect scaling to 2,040
//! CPUs, 130.56 million atoms).
//!
//! * [`system`] — the real simulator: fcc init, cell lists, truncated
//!   LJ forces, velocity Verlet, energy/momentum accounting;
//! * [`scaling`] — the Table 5 weak-scaling runner on the machine
//!   model (spatial decomposition, six-face ghost exchange).

pub mod scaling;
pub mod system;

pub use scaling::{weak_scaling_point, weak_scaling_point_in, WeakScalingPoint, ATOMS_PER_CPU};
pub use system::MdSystem;
