//! An allocation budget for the engine at the machine's full size.
//!
//! The full-machine Columbia point simulates 10,240 ranks. A mailbox
//! that allocates per channel or per sender makes about a hundred
//! thousand heap allocations there, and freeing them costs a sizeable
//! share of the run. The flat mailbox grows three vectors instead, so
//! one simulation allocates a few dozen times. This test counts every
//! allocation and reallocation the calling thread makes inside
//! [`simulate`] and holds the count under a budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use columbia_machine::cluster::{ClusterConfig, CpuId, InterNodeFabric, NodeId};
use columbia_simnet::fault::DEFAULT_MULTIPLEX_QUEUE_PENALTY;
use columbia_simnet::obs::NullTracer;
use columbia_simnet::{
    simulate, ByteRule, CachedFabric, ClusterFabric, ConnectionLimit, ConnectionPolicy, FaultPlan,
    MptVersion, Peer, ProgramSet, SpmdOp,
};

/// The system allocator, counting the calls made on a thread while that
/// thread has [`COUNTING`] set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards unchanged to `System`; the counter only
// touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The Columbia experiment's template: three rounds of compute, a ring
/// send/recv, a node-pairing exchange and an allreduce, then a
/// broadcast and a barrier.
fn columbia_template() -> Vec<SpmdOp> {
    let mut t = Vec::new();
    for round in 0..3u64 {
        t.push(SpmdOp::Compute(2.0e-4));
        t.push(SpmdOp::Send {
            to: Peer::RingOffset(1),
            bytes: ByteRule::Uniform(8192),
            tag: round,
        });
        t.push(SpmdOp::Recv {
            from: Peer::RingOffset(-1),
            tag: round,
        });
        t.push(SpmdOp::Exchange {
            with: Peer::Xor(512),
            bytes: ByteRule::Uniform(32768),
            tag: 100 + round,
        });
        t.push(SpmdOp::AllReduce { bytes: 64 });
    }
    t.push(SpmdOp::Bcast {
        root: 0,
        bytes: 1 << 20,
    });
    t.push(SpmdOp::Barrier);
    t
}

#[test]
fn a_full_machine_simulation_allocates_under_a_thousand_times() {
    let cluster = ClusterConfig::columbia();
    let cpus: Vec<CpuId> = (0..cluster.nodes.len() as u32)
        .flat_map(|node| {
            let per = cluster.node_model(NodeId(node)).cpus;
            (0..per).map(move |c| CpuId::new(node, c))
        })
        .collect();
    assert_eq!(cpus.len(), 10_240);
    let plan = FaultPlan::none().with_connection_limit(ConnectionLimit {
        cards_per_node: cluster.ib_cards_per_node,
        connections_per_card: cluster.ib_connections_per_card,
        policy: ConnectionPolicy::Multiplex {
            queue_penalty: DEFAULT_MULTIPLEX_QUEUE_PENALTY,
        },
    });
    let fabric = CachedFabric::new(ClusterFabric::new(
        cluster,
        InterNodeFabric::InfiniBand,
        MptVersion::Beta,
        cpus.len() as u32,
    ));
    let programs = ProgramSet::spmd(cpus.len(), columbia_template());

    COUNTING.with(|on| on.set(true));
    let out = simulate(&programs, &cpus, &fabric, &plan, &mut NullTracer, 1);
    COUNTING.with(|on| on.set(false));
    let allocations = ALLOCATIONS.with(Cell::get);

    let out = out.expect("the full machine simulates");
    assert!(out.faults.multiplexed_messages > 0);
    assert!(
        allocations < 1_000,
        "one full-machine simulation made {allocations} heap allocations"
    );
}
