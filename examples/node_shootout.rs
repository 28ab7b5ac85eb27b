//! 3700 vs BX2a vs BX2b: the paper's central comparison, condensed —
//! NPB per-CPU rates (Fig. 6) plus the compiler study (Fig. 8).
//!
//! Run with: `cargo run --release --example node_shootout`

use columbia::experiments::run;
use columbia::machine::node::NodeKind;
use columbia::npb::{gflops_per_cpu, NpbBenchmark, NpbClass, Paradigm};
use columbia::obs::RunContext;
use columbia::runtime::compiler::CompilerVersion;

fn main() {
    // A healthy machine: any simulation failure here is a bug.
    let sweep = |bench, kind, cpus| {
        gflops_per_cpu(
            &RunContext::new(1),
            bench,
            NpbClass::B,
            kind,
            Paradigm::Mpi,
            cpus,
            CompilerVersion::V7_1,
        )
        .expect("healthy machine")
    };
    // The headline anomalies, stated directly.
    let ft3700 = sweep(NpbBenchmark::Ft, NodeKind::Altix3700, 256);
    let ftbx2 = sweep(NpbBenchmark::Ft, NodeKind::Bx2a, 256);
    println!(
        "FT (MPI, 256 CPUs): BX2 is {:.2}x the 3700 (paper: 'about twice as fast')",
        ftbx2 / ft3700
    );

    let mg_a = sweep(NpbBenchmark::Mg, NodeKind::Bx2a, 64);
    let mg_b = sweep(NpbBenchmark::Mg, NodeKind::Bx2b, 64);
    println!(
        "MG (MPI, 64 CPUs): BX2b is {:.2}x the BX2a (paper: ~50% jump from the 9 MB L3)",
        mg_b / mg_a
    );

    println!("\n{}", run("fig6").to_text());
    println!("{}", run("fig8").to_text());
}
