//! The INS3D turbopump experiment (Table 2): a real miniature
//! artificial-compressibility solve, then the full-scale Table 2 sweep
//! on the simulated machine.
//!
//! Run with: `cargo run --release --example turbopump`

use columbia::experiments::run;
use columbia::ins3d::AcSolver;

fn main() {
    // Real physics first: drive a duct flow's divergence down through
    // pseudo-time sub-iterations, exactly the §3.4 loop.
    let mut solver = AcSolver::duct(16, 10.0);
    let d0 = solver.max_divergence();
    solver.tolerance = 0.05 * d0;
    let used = solver.physical_step(30);
    println!(
        "artificial compressibility: divergence {:.3e} -> {:.3e} in {} sub-iterations",
        d0,
        solver.max_divergence(),
        used
    );

    // Then the paper's Table 2 at Columbia scale.
    println!("\n{}", run("table2").to_text());
}
