//! Typed simulation errors with structured diagnostics.
//!
//! Every way a simulated run can fail is a [`SimError`] variant rather
//! than a panic, so the experiment runners can report *what* broke —
//! which ranks are stuck on which pending operation, which rank issued
//! a different collective, which node ran out of InfiniBand
//! connections, or that the event-budget watchdog fired.

use crate::engine::Op;

/// One rank that can make no further progress.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingOp {
    /// The stuck rank.
    pub rank: usize,
    /// Its program counter (index of the op it is blocked on).
    pub pc: usize,
    /// The operation that can never complete.
    pub op: Op,
    /// The peer the rank is waiting on, when the op names one
    /// (`Recv`/`Exchange`); `None` for collectives.
    pub waiting_on: Option<usize>,
}

impl std::fmt::Display for PendingOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} at pc {} blocked on {:?}",
            self.rank, self.pc, self.op
        )?;
        if let Some(peer) = self.waiting_on {
            write!(f, " (waiting on rank {peer})")?;
        }
        Ok(())
    }
}

/// Full diagnosis of a communication deadlock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeadlockReport {
    /// Every stuck rank with its pending operation, in rank order.
    pub stuck: Vec<PendingOp>,
}

impl DeadlockReport {
    /// The stuck rank ids, in ascending order.
    pub fn stuck_ranks(&self) -> Vec<usize> {
        self.stuck.iter().map(|p| p.rank).collect()
    }
}

/// Why a simulation could not produce a timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A cycle of receives/collectives that can never complete.
    Deadlock(DeadlockReport),
    /// The ranks reached a collective with different ops. Like MPI,
    /// every rank must issue the same collective sequence; both engines
    /// report the same error at any thread count.
    CollectiveMismatch {
        /// Which collective (0 = each rank's first).
        seq: usize,
        /// The lowest rank whose op differs from rank 0's.
        rank: usize,
        /// Rank 0's op.
        expected: Op,
        /// Rank `rank`'s op.
        found: Op,
    },
    /// Program count and CPU placement disagree.
    PlacementMismatch {
        /// Number of rank programs supplied.
        programs: usize,
        /// Number of CPU placements supplied.
        placements: usize,
    },
    /// A node needs more InfiniBand connections than its cards provide
    /// and the fault plan forbids multiplexing (§2 connection limit).
    ConnectionsExhausted {
        /// The overcommitted node.
        node: u32,
        /// Processes placed on that node.
        procs_on_node: usize,
        /// Connections the placement requires of the node.
        required: u64,
        /// Connections the node's cards provide.
        available: u64,
    },
    /// The event-budget watchdog fired: the run consumed more scheduler
    /// events than the plan allows (livelock guard).
    WatchdogTimeout {
        /// Events consumed when the watchdog fired.
        events: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl SimError {
    /// Stuck rank ids for a [`SimError::Deadlock`]; empty otherwise.
    pub fn stuck_ranks(&self) -> Vec<usize> {
        match self {
            SimError::Deadlock(report) => report.stuck_ranks(),
            _ => Vec::new(),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock(report) => {
                write!(
                    f,
                    "simulated communication deadlock; stuck ranks: {:?}",
                    report.stuck_ranks()
                )?;
                for p in &report.stuck {
                    write!(f, "\n  {p}")?;
                }
                Ok(())
            }
            SimError::CollectiveMismatch {
                seq,
                rank,
                expected,
                found,
            } => write!(
                f,
                "collective mismatch at collective {seq}: rank {rank} issued {found:?} \
                 but rank 0 issued {expected:?}"
            ),
            SimError::PlacementMismatch {
                programs,
                placements,
            } => write!(
                f,
                "placement mismatch: {programs} rank programs but {placements} CPU placements \
                 (one CPU placement per rank program)"
            ),
            SimError::ConnectionsExhausted {
                node,
                procs_on_node,
                required,
                available,
            } => write!(
                f,
                "InfiniBand connections exhausted on node {node}: {procs_on_node} processes \
                 require {required} connections but the cards provide {available}"
            ),
            SimError::WatchdogTimeout { events, budget } => write!(
                f,
                "event-budget watchdog fired after {events} events (budget {budget}): \
                 likely livelock"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_names_ranks_and_ops() {
        let err = SimError::Deadlock(DeadlockReport {
            stuck: vec![PendingOp {
                rank: 3,
                pc: 7,
                op: Op::Recv { from: 1, tag: 9 },
                waiting_on: Some(1),
            }],
        });
        let s = err.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("rank 3 at pc 7"));
        assert!(s.contains("waiting on rank 1"));
        assert_eq!(err.stuck_ranks(), vec![3]);
    }

    #[test]
    fn placement_mismatch_display() {
        let err = SimError::PlacementMismatch {
            programs: 4,
            placements: 2,
        };
        assert!(err
            .to_string()
            .contains("one CPU placement per rank program"));
        assert!(err.stuck_ranks().is_empty());
    }

    #[test]
    fn collective_mismatch_display() {
        let err = SimError::CollectiveMismatch {
            seq: 2,
            rank: 5,
            expected: Op::Barrier,
            found: Op::AllReduce { bytes: 64 },
        };
        let want = "collective mismatch at collective 2: rank 5 issued \
                    AllReduce { bytes: 64 } but rank 0 issued Barrier";
        assert_eq!(err.to_string(), want);
    }

    #[test]
    fn connections_exhausted_display() {
        let err = SimError::ConnectionsExhausted {
            node: 2,
            procs_on_node: 512,
            required: 786_432,
            available: 524_288,
        };
        let s = err.to_string();
        assert!(s.contains("node 2"));
        assert!(s.contains("786432"));
    }

    #[test]
    fn watchdog_display() {
        let err = SimError::WatchdogTimeout {
            events: 11,
            budget: 10,
        };
        assert!(err.to_string().contains("watchdog"));
    }
}
