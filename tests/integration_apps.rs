//! Cross-crate integration: the CFD applications over the overset
//! substrate and the machine model.

use columbia::ins3d::{iteration_seconds, AcSolver, Ins3dConfig};
use columbia::machine::node::NodeKind;
use columbia::obs::RunContext;
use columbia::overflowd::{step_times, OverflowConfig, OversetPair};
use columbia::overset::group_blocks;
use columbia::overset::systems::{rotor_wake, turbopump};

#[test]
fn turbopump_grouping_feeds_ins3d_timings() {
    let sys = turbopump(1.0);
    let grouping = group_blocks(&sys, 36);
    assert_eq!(grouping.groups.len(), 36);
    // The timing model sees the same grouping: more groups, less time.
    let t36 = iteration_seconds(&Ins3dConfig::table2(NodeKind::Bx2b, 1));
    let t1 = iteration_seconds(&Ins3dConfig {
        kind: NodeKind::Bx2b,
        groups: 1,
        threads: 1,
        compiler: columbia::runtime::compiler::CompilerVersion::V7_1,
    });
    assert!(t36 < t1 / 20.0);
}

#[test]
fn rotor_grouping_feeds_overflowd_timings() {
    let sys = rotor_wake(1.0);
    assert_eq!(sys.len(), 1679);
    let a = step_times(
        &RunContext::new(1),
        &OverflowConfig::table3(NodeKind::Bx2b, 64),
    )
    .unwrap();
    let b = step_times(
        &RunContext::new(1),
        &OverflowConfig::table3(NodeKind::Bx2b, 256),
    )
    .unwrap();
    assert!(b.exec < a.exec, "more CPUs must help at these counts");
}

#[test]
fn real_solvers_converge_together() {
    // INS3D-style pseudo-time loop.
    let mut ac = AcSolver::duct(12, 10.0);
    let d0 = ac.max_divergence();
    ac.tolerance = 0.05 * d0;
    let used = ac.physical_step(30);
    assert!(used >= 1 && ac.max_divergence() < d0);

    // OVERFLOW-D-style overset stepping.
    let mut pair = OversetPair::new(10);
    let r0 = pair.residual();
    for _ in 0..10 {
        pair.step();
    }
    assert!(pair.residual() < r0);
    assert!(pair.boundary_mismatch() < 1e-12);
}

#[test]
fn both_apps_prefer_the_bx2b() {
    let ins_ratio = iteration_seconds(&Ins3dConfig::table2(NodeKind::Altix3700, 4))
        / iteration_seconds(&Ins3dConfig::table2(NodeKind::Bx2b, 4));
    let ovf_ratio = step_times(
        &RunContext::new(1),
        &OverflowConfig::table3(NodeKind::Altix3700, 128),
    )
    .unwrap()
    .exec
        / step_times(
            &RunContext::new(1),
            &OverflowConfig::table3(NodeKind::Bx2b, 128),
        )
        .unwrap()
        .exec;
    assert!(ins_ratio > 1.2, "INS3D: {ins_ratio}");
    assert!(ovf_ratio > 1.3, "OVERFLOW-D: {ovf_ratio}");
}
