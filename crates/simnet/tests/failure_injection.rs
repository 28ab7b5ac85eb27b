//! Failure injection: malformed communication programs and hostile
//! fault plans must be diagnosed with structured [`SimError`]s, not
//! silently mis-simulated or panicked on.

use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric};
use columbia_machine::node::NodeKind;
use columbia_simnet::fabric::{ClusterFabric, MptVersion};
use columbia_simnet::{simulate_on, ConnectionLimit, ConnectionPolicy, FaultPlan, Op, SimError};

fn fabric() -> ClusterFabric {
    ClusterFabric::single_node(ClusterConfig::uniform(NodeKind::Bx2b, 1))
}

fn place(n: usize) -> Vec<CpuId> {
    (0..n as u32).map(|c| CpuId::new(0, c)).collect()
}

#[test]
fn mismatched_tag_deadlocks_with_diagnosis() {
    let progs = vec![
        vec![Op::Send {
            to: 1,
            bytes: 64,
            tag: 1,
        }],
        vec![Op::Recv { from: 0, tag: 2 }], // wrong tag
    ];
    let err = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap_err();
    assert_eq!(err.stuck_ranks(), vec![1]);
    // The diagnosis names the pending op and its peer.
    let SimError::Deadlock(report) = err else {
        panic!("expected deadlock, got {err:?}");
    };
    assert_eq!(report.stuck[0].pc, 0);
    assert_eq!(report.stuck[0].op, Op::Recv { from: 0, tag: 2 });
    assert_eq!(report.stuck[0].waiting_on, Some(0));
}

#[test]
fn wrong_source_deadlocks() {
    let progs = vec![
        vec![Op::Send {
            to: 2,
            bytes: 64,
            tag: 0,
        }],
        vec![],
        vec![Op::Recv { from: 1, tag: 0 }], // message came from 0, not 1
    ];
    let err = simulate_on(&progs, &place(3), &fabric(), &FaultPlan::none()).unwrap_err();
    assert_eq!(err.stuck_ranks(), vec![2]);
}

#[test]
fn missing_collective_participant_deadlocks_everyone_at_the_barrier() {
    let progs = vec![
        vec![Op::Barrier],
        vec![Op::Barrier],
        vec![Op::Recv { from: 0, tag: 9 }], // never reaches the barrier
    ];
    let err = simulate_on(&progs, &place(3), &fabric(), &FaultPlan::none()).unwrap_err();
    let stuck = err.stuck_ranks();
    assert!(stuck.contains(&2));
    assert!(stuck.len() == 3, "{stuck:?}");
    // Ranks 0/1 are blocked at the barrier (no peer); rank 2 waits on 0.
    let SimError::Deadlock(report) = err else {
        panic!("expected deadlock, got {err:?}");
    };
    assert_eq!(report.stuck[0].op, Op::Barrier);
    assert_eq!(report.stuck[0].waiting_on, None);
    assert_eq!(report.stuck[2].waiting_on, Some(0));
}

#[test]
fn three_cycle_of_receives_is_detected() {
    let progs = vec![
        vec![
            Op::Recv { from: 2, tag: 0 },
            Op::Send {
                to: 1,
                bytes: 8,
                tag: 0,
            },
        ],
        vec![
            Op::Recv { from: 0, tag: 0 },
            Op::Send {
                to: 2,
                bytes: 8,
                tag: 0,
            },
        ],
        vec![
            Op::Recv { from: 1, tag: 0 },
            Op::Send {
                to: 0,
                bytes: 8,
                tag: 0,
            },
        ],
    ];
    let err = simulate_on(&progs, &place(3), &fabric(), &FaultPlan::none()).unwrap_err();
    assert_eq!(err.stuck_ranks(), vec![0, 1, 2]);
    // Every rank is stuck at pc 0 waiting on its upstream neighbour —
    // the cycle is visible in the diagnosis.
    let SimError::Deadlock(report) = err else {
        panic!("expected deadlock, got {err:?}");
    };
    let peers: Vec<Option<usize>> = report.stuck.iter().map(|p| p.waiting_on).collect();
    assert_eq!(peers, vec![Some(2), Some(0), Some(1)]);
    assert!(report.stuck.iter().all(|p| p.pc == 0));
}

#[test]
fn extra_unconsumed_messages_are_harmless() {
    // Eager sends with no matching receive complete locally — the run
    // finishes and the receiver simply never reads them.
    let progs = vec![
        vec![
            Op::Send {
                to: 1,
                bytes: 1 << 20,
                tag: 5,
            },
            Op::Compute(0.1),
        ],
        vec![Op::Compute(0.2)],
    ];
    let out = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap();
    assert!((out.makespan - 0.2).abs() < 1e-6);
}

#[test]
fn self_messages_round_trip() {
    let progs = vec![vec![
        Op::Send {
            to: 0,
            bytes: 4096,
            tag: 3,
        },
        Op::Recv { from: 0, tag: 3 },
    ]];
    let out = simulate_on(&progs, &place(1), &fabric(), &FaultPlan::none()).unwrap();
    assert!(out.makespan > 0.0);
}

#[test]
fn placement_mismatch_is_typed_not_a_panic() {
    let progs = vec![vec![Op::Compute(1.0)]; 3];
    let err = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap_err();
    assert_eq!(
        err,
        SimError::PlacementMismatch {
            programs: 3,
            placements: 2
        }
    );
}

#[test]
fn deadlock_display_reads_like_a_diagnosis() {
    let progs = vec![
        vec![Op::Recv { from: 1, tag: 0 }],
        vec![Op::Recv { from: 0, tag: 0 }],
    ];
    let err = simulate_on(&progs, &place(2), &fabric(), &FaultPlan::none()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("stuck ranks: [0, 1]"), "{msg}");
    assert!(msg.contains("rank 0 at pc 0"), "{msg}");
    assert!(msg.contains("waiting on rank 1"), "{msg}");
}

#[test]
fn deadlock_diagnosis_survives_faults() {
    // A fault plan must not mask a genuine deadlock.
    let progs = vec![
        vec![Op::Recv { from: 1, tag: 0 }],
        vec![Op::Recv { from: 0, tag: 0 }],
    ];
    let plan = FaultPlan::with_drops(9, 0.4);
    let err = simulate_on(&progs, &place(2), &fabric(), &plan).unwrap_err();
    assert_eq!(err.stuck_ranks(), vec![0, 1]);
}

#[test]
fn watchdog_timeout_is_typed() {
    let progs = vec![vec![Op::Compute(1e-6); 100]; 4];
    let plan = FaultPlan::none().with_event_budget(10);
    let err = simulate_on(&progs, &place(4), &fabric(), &plan).unwrap_err();
    assert!(matches!(err, SimError::WatchdogTimeout { budget: 10, .. }));
    assert!(err.to_string().contains("watchdog"));
}

#[test]
fn connection_exhaustion_under_fail_policy_is_typed() {
    // 16 procs/node over 4 nodes need 16²·3 = 768 connections; allow
    // one card of 512.
    let cfg = ClusterConfig::uniform(NodeKind::Bx2b, 4);
    let f = ClusterFabric::new(cfg, InterNodeFabric::InfiniBand, MptVersion::Beta, 64);
    let cpus: Vec<CpuId> = (0..64u32).map(|i| CpuId::new(i / 16, i % 16)).collect();
    let progs: Vec<Vec<Op>> = (0..64)
        .map(|r| {
            vec![
                Op::Send {
                    to: (r + 1) % 64,
                    bytes: 64,
                    tag: 0,
                },
                Op::Recv {
                    from: (r + 63) % 64,
                    tag: 0,
                },
            ]
        })
        .collect();
    let plan = FaultPlan::none().with_connection_limit(ConnectionLimit {
        cards_per_node: 1,
        connections_per_card: 512,
        policy: ConnectionPolicy::Fail,
    });
    let err = simulate_on(&progs, &cpus, &f, &plan).unwrap_err();
    let SimError::ConnectionsExhausted {
        required,
        available,
        ..
    } = err
    else {
        panic!("expected exhaustion, got {err:?}");
    };
    assert_eq!(required, 768);
    assert_eq!(available, 512);
}
