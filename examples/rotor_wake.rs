//! The OVERFLOW-D rotor-wake experiment (Tables 3 and 6): a real
//! two-block overset solve with donor interpolation, then the paper's
//! scaling tables on the simulated machine.
//!
//! Run with: `cargo run --release --example rotor_wake`

use columbia::experiments::run;
use columbia::overflowd::OversetPair;
use columbia::overset::systems::rotor_wake;

fn main() {
    // Real overset mechanics: two overlapping blocks converge together.
    let mut pair = OversetPair::new(12);
    let r0 = pair.residual();
    for _ in 0..20 {
        pair.step();
    }
    println!(
        "overset pair: residual {:.3e} -> {:.3e}, boundary mismatch {:.1e}",
        r0,
        pair.residual(),
        pair.boundary_mismatch()
    );

    // The grid system the paper ran.
    let system = rotor_wake(1.0);
    println!(
        "rotor system: {} blocks, {:.1}M points",
        system.len(),
        system.total_points() as f64 / 1e6
    );

    println!("\n{}", run("table3").to_text());
    println!("{}", run("table6").to_text());
}
