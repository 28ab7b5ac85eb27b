//! Quickstart: reproduce the paper's headline hardware table and one
//! microbenchmark comparison in a few lines.
//!
//! Run with: `cargo run --release --example quickstart`

use columbia::experiments::run;
use columbia::hpcc::dgemm;
use columbia::machine::node::NodeKind;

fn main() {
    // The machine: Table 1, regenerated from the model.
    println!("{}", run("table1").to_text());

    // One number everyone quotes: sustained DGEMM per CPU.
    for kind in NodeKind::ALL {
        let d = dgemm::simulate(kind, 1);
        println!(
            "DGEMM on {:>5}: {:.2} Gflop/s per CPU (n = {})",
            kind.name(),
            d.gflops_per_cpu,
            d.n
        );
    }

    // And a real computation on this host for comparison.
    let real = dgemm::run_real(256);
    println!(
        "DGEMM on this host (256x256 blocked, one thread): {:.2} Gflop/s",
        real.gflops_per_cpu
    );
}
