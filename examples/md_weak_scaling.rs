//! The molecular-dynamics experiment (Table 5): a real Lennard-Jones
//! NVE simulation on this host, then the 64,000-atoms-per-CPU weak
//! scaling sweep to 2,040 simulated processors.
//!
//! Run with: `cargo run --release --example md_weak_scaling`

use columbia::experiments::run;
use columbia::md::MdSystem;

fn main() {
    // Real MD: fcc lattice, velocity Verlet, cutoff 5.0 — watch energy
    // conservation over 25 steps.
    let mut sys = MdSystem::fcc(6, 0.8, 0.5, 2026);
    let mut pot = sys.compute_forces_cells();
    let e0 = pot + sys.kinetic_energy();
    for _ in 0..25 {
        pot = sys.step(0.002);
    }
    let e = pot + sys.kinetic_energy();
    println!(
        "real MD: {} atoms, T = {:.3}, energy drift {:.2e} (relative)",
        sys.len(),
        sys.temperature(),
        ((e - e0) / e0).abs()
    );

    println!("\n{}", run("table5").to_text());
}
