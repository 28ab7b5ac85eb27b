//! Connectivity-aware bin-packing of blocks into process groups.
//!
//! §3.5: "A bin-packing algorithm clusters individual grids into
//! groups, each of which is then assigned to an MPI process. The
//! grouping strategy uses a connectivity test that inspects for an
//! overlap between a pair of grids before assigning them to the same
//! group, regardless of the size of the boundary data." Putting
//! overlapping grids together converts inter-group messages into local
//! memory copies.

use crate::block::GridSystem;

/// Result of grouping a grid system.
#[derive(Debug, Clone)]
pub struct Grouping {
    /// `groups[g]` lists block indices owned by group `g`.
    pub groups: Vec<Vec<usize>>,
    /// Grid points per group.
    pub load: Vec<u64>,
    /// Fraction of overlapping block pairs kept inside one group.
    pub internalized_fraction: f64,
}

impl Grouping {
    /// Max-to-mean load imbalance.
    pub fn imbalance(&self) -> f64 {
        let max = *self.load.iter().max().unwrap_or(&0) as f64;
        let mean = self.load.iter().sum::<u64>() as f64 / self.load.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Group `system` into `ngroups` groups: blocks sorted largest first;
/// each goes to the lightest *connected* group (one already holding a
/// block that overlaps it) whose load plus the block stays within
/// 1.25 × the mean load `total / ngroups`, otherwise to the globally
/// lightest group. Ties go to the group found first, in the block's
/// neighbour order or in group order.
pub fn group_blocks(system: &GridSystem, ngroups: usize) -> Grouping {
    assert!(ngroups >= 1);
    assert!(
        system.len() >= ngroups,
        "cannot form {ngroups} groups from {} blocks",
        system.len()
    );
    let n = system.len();
    let total: u64 = system.total_points();
    let target = total as f64 / ngroups as f64;

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&b| std::cmp::Reverse(system.blocks()[b].points()));

    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); ngroups];
    let mut load = vec![0u64; ngroups];
    let mut owner = vec![usize::MAX; n];
    for &b in &order {
        let pts = system.blocks()[b].points();
        // Candidate groups already holding a neighbour of b.
        let mut best_connected: Option<usize> = None;
        for &nb in system.neighbours(b) {
            if owner[nb] != usize::MAX {
                let g = owner[nb];
                if load[g] as f64 + pts as f64 <= 1.25 * target
                    && best_connected.map(|c| load[g] < load[c]).unwrap_or(true)
                {
                    best_connected = Some(g);
                }
            }
        }
        let g = best_connected.unwrap_or_else(|| (0..ngroups).min_by_key(|&g| load[g]).unwrap());
        owner[b] = g;
        load[g] += pts;
        groups[g].push(b);
    }

    Grouping {
        groups,
        load,
        internalized_fraction: internalized_fraction(system, &owner),
    }
}

/// Plain load-only bin packing, ignoring connectivity (the baseline
/// the connectivity-aware grouping is tested against).
pub fn group_blocks_load_only(system: &GridSystem, ngroups: usize) -> Grouping {
    assert!(ngroups >= 1 && system.len() >= ngroups);
    let n = system.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&b| std::cmp::Reverse(system.blocks()[b].points()));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); ngroups];
    let mut load = vec![0u64; ngroups];
    let mut owner = vec![usize::MAX; n];
    for &b in &order {
        let g = (0..ngroups).min_by_key(|&g| load[g]).unwrap();
        owner[b] = g;
        load[g] += system.blocks()[b].points();
        groups[g].push(b);
    }
    Grouping {
        groups,
        load,
        internalized_fraction: internalized_fraction(system, &owner),
    }
}

/// Fraction of overlapping block pairs whose two blocks `owner` puts in
/// one group (1 when no blocks overlap), counted from the stored
/// neighbour lists in one pass.
fn internalized_fraction(system: &GridSystem, owner: &[usize]) -> f64 {
    let (mut pairs, mut internal) = (0usize, 0usize);
    for (b, &g) in owner.iter().enumerate() {
        for &nb in system.neighbours(b).iter().filter(|&&nb| nb > b) {
            pairs += 1;
            internal += usize::from(owner[nb] == g);
        }
    }
    if pairs == 0 {
        1.0
    } else {
        internal as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;

    #[test]
    fn all_blocks_grouped_once() {
        let sys = systems::rotor_wake(0.02);
        let g = group_blocks(&sys, 16);
        let mut seen = vec![false; sys.len()];
        for grp in &g.groups {
            for &b in grp {
                assert!(!seen[b]);
                seen[b] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn grouping_balances_load_reasonably() {
        let sys = systems::rotor_wake(0.05);
        let g = group_blocks(&sys, 32);
        assert!(g.imbalance() < 1.4, "imbalance={}", g.imbalance());
    }

    #[test]
    fn connectivity_grouping_internalizes_more_pairs() {
        let sys = systems::turbopump(0.05);
        let smart = group_blocks(&sys, 12);
        let naive = group_blocks_load_only(&sys, 12);
        assert!(
            smart.internalized_fraction >= naive.internalized_fraction,
            "smart {} vs naive {}",
            smart.internalized_fraction,
            naive.internalized_fraction
        );
    }

    #[test]
    fn few_blocks_per_group_cannot_balance() {
        // §4.1.4: "With 508 MPI processes and only 1679 blocks, it is
        // difficult for any grouping strategy to achieve a proper load
        // balance."
        let sys = systems::rotor_wake(0.02);
        let many = group_blocks(&sys, sys.len() / 2);
        let few = group_blocks(&sys, 8);
        assert!(many.imbalance() > few.imbalance());
    }

    #[test]
    #[should_panic(expected = "cannot form")]
    fn too_many_groups_rejected() {
        let sys = systems::turbopump(0.02);
        let _ = group_blocks(&sys, sys.len() + 1);
    }
}
