//! Compact program representations for SPMD workloads.
//!
//! A 10,240-rank run of a per-rank `Vec<Op>` program materializes
//! O(ranks × ops) instructions even when every rank executes the same
//! template with only its peers and payload sizes varying — which is
//! exactly what stencil, ring, and collective-dominated codes do. A
//! [`ProgramSet`] keeps one [`SpmdOp`] template and resolves each
//! rank's [`Op`] on demand from [`Peer`]/[`ByteRule`] parameterizations,
//! so program memory is O(ops) regardless of rank count; irregular
//! workloads pass per-rank vectors.
//!
//! The engine is generic over [`Programs`], so a `ProgramSet` and
//! plain `[Vec<Op>]` slices and `Vec<Vec<Op>>` run through the same
//! monomorphized hot loop. Array literals are not `Programs`: pass a
//! `Vec`.

use crate::engine::Op;

/// Read-only access to the per-rank instruction streams the engine
/// executes. Implementations must be pure: the same `(rank, pc)` must
/// always yield the same [`Op`].
pub trait Programs {
    /// Number of ranks (programs).
    fn n_ranks(&self) -> usize;

    /// The op at `pc` of `rank`'s program, or `None` past the end.
    fn op(&self, rank: usize, pc: usize) -> Option<Op>;

    /// Length of `rank`'s program.
    fn len_of(&self, rank: usize) -> usize;

    /// Total ops across all ranks (sizes the engine's event budget).
    fn total_ops(&self) -> usize {
        (0..self.n_ranks()).map(|r| self.len_of(r)).sum()
    }
}

impl Programs for [Vec<Op>] {
    fn n_ranks(&self) -> usize {
        self.len()
    }

    fn op(&self, rank: usize, pc: usize) -> Option<Op> {
        self[rank].get(pc).copied()
    }

    fn len_of(&self, rank: usize) -> usize {
        self[rank].len()
    }
}

impl Programs for Vec<Vec<Op>> {
    fn n_ranks(&self) -> usize {
        self.as_slice().n_ranks()
    }

    fn op(&self, rank: usize, pc: usize) -> Option<Op> {
        self.as_slice().op(rank, pc)
    }

    fn len_of(&self, rank: usize) -> usize {
        self.as_slice().len_of(rank)
    }
}

/// How an [`SpmdOp`] names its peer as a function of the rank.
///
/// The resolved peer must be a valid rank; for [`Peer::Xor`] that means
/// the mask must keep every rank inside the communicator (true whenever
/// the rank count is a multiple of `2 * mask`, the node-pairing case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// The same rank for everyone (e.g. a master).
    Fixed(usize),
    /// `(rank + offset) mod ranks` — ring neighbours. Asymmetric, so
    /// suitable for `Send`/`Recv` pairs, not `Exchange`.
    RingOffset(isize),
    /// `rank ^ mask` — symmetric pairing (butterfly stages, node
    /// pairing), the shape `Exchange` requires.
    Xor(usize),
}

impl Peer {
    /// The concrete peer for `rank` in a `ranks`-wide communicator.
    #[inline]
    pub fn resolve(self, rank: usize, ranks: usize) -> usize {
        match self {
            Peer::Fixed(p) => p,
            Peer::RingOffset(d) => {
                let n = ranks.max(1) as isize;
                let p = rank as isize + d;
                // Within one width of `[0, n)` one add or subtract wraps
                // the sum (every shipped template steps by ±1); only a
                // larger offset pays for the division.
                let near = if p < 0 {
                    p + n
                } else if p >= n {
                    p - n
                } else {
                    p
                };
                if (0..n).contains(&near) {
                    near as usize
                } else {
                    p.rem_euclid(n) as usize
                }
            }
            Peer::Xor(mask) => rank ^ mask,
        }
    }
}

/// How an [`SpmdOp`] sizes its payload as a function of the rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteRule {
    /// The same payload for every rank.
    Uniform(u64),
    /// `base + step * rank` — mildly imbalanced workloads.
    RankScaled { base: u64, step: u64 },
}

impl ByteRule {
    /// The concrete byte count for `rank`.
    pub fn resolve(self, rank: usize) -> u64 {
        match self {
            ByteRule::Uniform(b) => b,
            ByteRule::RankScaled { base, step } => base + step * rank as u64,
        }
    }
}

/// One instruction of an SPMD template: [`Op`] with the peer and
/// payload abstracted over the executing rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpmdOp {
    /// Busy compute, identical on every rank.
    Compute(f64),
    /// Eager send to the resolved peer.
    Send { to: Peer, bytes: ByteRule, tag: u64 },
    /// Blocking receive from the resolved peer.
    Recv { from: Peer, tag: u64 },
    /// Pairwise exchange with the resolved (symmetric) peer.
    Exchange {
        with: Peer,
        bytes: ByteRule,
        tag: u64,
    },
    /// Barrier over the whole communicator.
    Barrier,
    /// Allreduce contributing `bytes` per rank.
    AllReduce { bytes: u64 },
    /// All-to-all moving `bytes_per_pair` between every ordered pair.
    AllToAll { bytes_per_pair: u64 },
    /// Broadcast of `bytes` from rank `root`.
    Bcast { root: usize, bytes: u64 },
}

impl SpmdOp {
    /// The concrete [`Op`] this template instruction becomes on `rank`.
    /// Forced inline, like `ProgramSet`'s `op`: the event loop calls
    /// both once per op, and hinted they stayed out of line there.
    #[inline(always)]
    pub fn resolve(self, rank: usize, ranks: usize) -> Op {
        match self {
            SpmdOp::Compute(secs) => Op::Compute(secs),
            SpmdOp::Send { to, bytes, tag } => Op::Send {
                to: to.resolve(rank, ranks),
                bytes: bytes.resolve(rank),
                tag,
            },
            SpmdOp::Recv { from, tag } => Op::Recv {
                from: from.resolve(rank, ranks),
                tag,
            },
            SpmdOp::Exchange { with, bytes, tag } => Op::Exchange {
                with: with.resolve(rank, ranks),
                bytes: bytes.resolve(rank),
                tag,
            },
            SpmdOp::Barrier => Op::Barrier,
            SpmdOp::AllReduce { bytes } => Op::AllReduce { bytes },
            SpmdOp::AllToAll { bytes_per_pair } => Op::AllToAll { bytes_per_pair },
            SpmdOp::Bcast { root, bytes } => Op::Bcast { root, bytes },
        }
    }
}

/// A whole communicator running one SPMD template (O(ops) memory).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSet {
    /// Communicator width.
    pub ranks: usize,
    /// The shared instruction template.
    pub template: Vec<SpmdOp>,
}

impl ProgramSet {
    /// An SPMD set: `ranks` ranks all running `template`.
    pub fn spmd(ranks: usize, template: Vec<SpmdOp>) -> Self {
        ProgramSet { ranks, template }
    }

    /// Expand into explicit per-rank vectors (equivalence testing).
    pub fn materialize(&self) -> Vec<Vec<Op>> {
        (0..self.ranks)
            .map(|r| {
                self.template
                    .iter()
                    .map(|op| op.resolve(r, self.ranks))
                    .collect()
            })
            .collect()
    }
}

impl Programs for ProgramSet {
    fn n_ranks(&self) -> usize {
        self.ranks
    }

    #[inline(always)]
    fn op(&self, rank: usize, pc: usize) -> Option<Op> {
        self.template.get(pc).map(|op| op.resolve(rank, self.ranks))
    }

    fn len_of(&self, _rank: usize) -> usize {
        self.template.len()
    }

    fn total_ops(&self) -> usize {
        self.ranks * self.template.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The ring peer the wrap without division must reproduce.
    fn ring_by_division(rank: usize, d: isize, ranks: usize) -> usize {
        (rank as isize + d).rem_euclid(ranks as isize) as usize
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Widths 1 to 20,000, offsets within three widths either side,
        /// and at each width the edges ±1, ±ranks and ±(ranks + 1) from
        /// the first rank, the last and a random one.
        #[test]
        fn ring_offset_matches_rem_euclid(
            ranks in 1usize..20_001,
            rank_pick in 0usize..20_000,
            offset_pick in 0u64..u64::MAX,
        ) {
            let n = ranks as isize;
            let d = (offset_pick % (6 * n + 1) as u64) as isize - 3 * n;
            for rank in [0, rank_pick % ranks, ranks - 1] {
                for d in [d, 1, -1, n, -n, n + 1, -(n + 1)] {
                    prop_assert_eq!(
                        Peer::RingOffset(d).resolve(rank, ranks),
                        ring_by_division(rank, d, ranks),
                        "rank {rank}, offset {d}, width {ranks}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_offset_matches_rem_euclid_on_small_widths() {
        for ranks in 1..=8usize {
            let n = ranks as isize;
            for rank in 0..ranks {
                for d in -3 * n..=3 * n {
                    assert_eq!(
                        Peer::RingOffset(d).resolve(rank, ranks),
                        ring_by_division(rank, d, ranks),
                        "rank {rank}, offset {d}, width {ranks}"
                    );
                }
            }
        }
    }

    #[test]
    fn peer_resolution() {
        assert_eq!(Peer::Fixed(3).resolve(7, 16), 3);
        assert_eq!(Peer::RingOffset(1).resolve(15, 16), 0);
        assert_eq!(Peer::RingOffset(-1).resolve(0, 16), 15);
        assert_eq!(Peer::RingOffset(-17).resolve(0, 16), 15);
        assert_eq!(Peer::Xor(4).resolve(3, 16), 7);
        // Xor is symmetric: resolving the peer's peer returns home.
        for r in 0..16 {
            let p = Peer::Xor(4).resolve(r, 16);
            assert_eq!(Peer::Xor(4).resolve(p, 16), r);
        }
    }

    #[test]
    fn byte_rules_resolve() {
        assert_eq!(ByteRule::Uniform(4096).resolve(9), 4096);
        assert_eq!(ByteRule::RankScaled { base: 100, step: 8 }.resolve(3), 124);
    }

    fn ring_template(bytes: u64) -> Vec<SpmdOp> {
        vec![
            SpmdOp::Compute(1e-4),
            SpmdOp::Send {
                to: Peer::RingOffset(1),
                bytes: ByteRule::Uniform(bytes),
                tag: 1,
            },
            SpmdOp::Recv {
                from: Peer::RingOffset(-1),
                tag: 1,
            },
            SpmdOp::AllReduce { bytes: 64 },
        ]
    }

    #[test]
    fn spmd_materializes_to_the_expected_per_rank_programs() {
        let set = ProgramSet::spmd(4, ring_template(4096));
        let progs = set.materialize();
        assert_eq!(progs.len(), 4);
        assert_eq!(
            progs[3][1],
            Op::Send {
                to: 0,
                bytes: 4096,
                tag: 1
            }
        );
        assert_eq!(progs[0][2], Op::Recv { from: 3, tag: 1 });
        // Trait access agrees with materialization, op by op.
        for (r, prog) in progs.iter().enumerate() {
            assert_eq!(set.len_of(r), prog.len());
            for pc in 0..=set.len_of(r) {
                assert_eq!(set.op(r, pc), prog.get(pc).copied(), "rank {r} pc {pc}");
            }
        }
        assert_eq!(set.total_ops(), 16);
    }
}
