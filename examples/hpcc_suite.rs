//! The HPC Challenge subset: DGEMM, STREAM (including the §4.2 stride
//! study), and the b_eff patterns in-node (Fig. 5) and across nodes
//! (Fig. 10).
//!
//! Run with: `cargo run --release --example hpcc_suite`

use columbia::experiments::run;
use columbia::kernels::stream::measure;
use columbia::machine::memory::StreamOp;

fn main() {
    // Real STREAM on this host, for grounding.
    for op in StreamOp::ALL {
        let m = measure(op, 2_000_000, 3);
        println!(
            "host STREAM {:>5}: {:6.2} GB/s",
            op.name(),
            m.bytes_per_second / 1e9
        );
    }
    println!();
    println!("{}", run("dgemm-stream").to_text());
    println!("{}", run("stride").to_text());
    println!("{}", run("fig5").to_text());
    println!("{}", run("fig10").to_text());
}
