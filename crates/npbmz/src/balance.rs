//! Zone-to-rank load balancing.
//!
//! The hybrid NPB-MZ (like OVERFLOW-D's grouping, §3.5) assigns zones
//! to MPI processes with a bin-packing heuristic: zones sorted largest
//! first, each placed on the currently lightest rank. The quality of
//! the resulting balance is what decides BT-MZ scalability at high
//! rank counts (Fig. 9) and the SP-MZ dips at non-divisor counts
//! (Fig. 11).

use crate::zones::Zone;

/// Assignment of zones to ranks.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// `zone_ids[rank]` lists the zones owned by that rank.
    pub zone_ids: Vec<Vec<usize>>,
    /// Grid points per rank.
    pub load: Vec<u64>,
}

impl Assignment {
    /// Max-to-mean load imbalance (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let max = *self.load.iter().max().unwrap_or(&0) as f64;
        let mean = self.load.iter().sum::<u64>() as f64 / self.load.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// The heaviest rank's point count.
    pub fn max_load(&self) -> u64 {
        *self.load.iter().max().unwrap_or(&0)
    }
}

/// Greedy bin-packing: largest zone first onto the lightest rank.
pub fn bin_pack(zones: &[Zone], ranks: usize) -> Assignment {
    assert!(ranks >= 1);
    assert!(
        zones.len() >= ranks,
        "cannot give every rank work: {} zones < {ranks} ranks",
        zones.len()
    );
    let mut order: Vec<&Zone> = zones.iter().collect();
    order.sort_by_key(|z| std::cmp::Reverse(z.points()));
    let mut zone_ids = vec![Vec::new(); ranks];
    let mut load = vec![0u64; ranks];
    for z in order {
        let lightest = (0..ranks).min_by_key(|&r| load[r]).unwrap();
        zone_ids[lightest].push(z.id);
        load[lightest] += z.points();
    }
    Assignment { zone_ids, load }
}

/// Round-robin baseline (the bin-packing tests compare against it).
pub fn round_robin(zones: &[Zone], ranks: usize) -> Assignment {
    assert!(ranks >= 1);
    assert!(zones.len() >= ranks);
    let mut zone_ids = vec![Vec::new(); ranks];
    let mut load = vec![0u64; ranks];
    for (i, z) in zones.iter().enumerate() {
        zone_ids[i % ranks].push(z.id);
        load[i % ranks] += z.points();
    }
    Assignment { zone_ids, load }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zones::{even_zones, uneven_zones, MzClass};

    #[test]
    fn every_zone_assigned_exactly_once() {
        let zones = uneven_zones(MzClass::C);
        let a = bin_pack(&zones, 37);
        let mut seen = vec![false; zones.len()];
        for ids in &a.zone_ids {
            for &id in ids {
                assert!(!seen[id], "zone {id} assigned twice");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn even_zones_balance_perfectly_at_divisors() {
        let zones = even_zones(MzClass::E); // 4096 zones
        for ranks in [256, 512, 1024] {
            let a = bin_pack(&zones, ranks);
            assert!(a.imbalance() < 1.02, "ranks={ranks}: {}", a.imbalance());
        }
    }

    #[test]
    fn even_zones_dip_at_non_divisors() {
        // Fig. 11: "The performance drop for SP-MZ at 768 and 1536
        // processors can be explained by load imbalance."
        let zones = even_zones(MzClass::E);
        let a = bin_pack(&zones, 768);
        // 4096/768 = 5.33 zones per rank → some ranks carry 6.
        assert!(a.imbalance() > 1.08, "imbalance={}", a.imbalance());
    }

    #[test]
    fn bin_packing_beats_round_robin_on_uneven_zones() {
        let zones = uneven_zones(MzClass::C);
        let bp = bin_pack(&zones, 64);
        let rr = round_robin(&zones, 64);
        assert!(
            bp.imbalance() < rr.imbalance(),
            "bin-pack {} vs round-robin {}",
            bp.imbalance(),
            rr.imbalance()
        );
    }

    #[test]
    fn one_zone_per_rank_exposes_the_spread() {
        // With 256 ranks for 256 uneven zones nothing can balance —
        // the mechanism behind BT-MZ needing OpenMP threads at scale.
        let zones = uneven_zones(MzClass::C);
        let a = bin_pack(&zones, zones.len());
        assert!(a.imbalance() > 2.0, "imbalance={}", a.imbalance());
        // Fewer ranks balance much better.
        let b = bin_pack(&zones, 64);
        assert!(b.imbalance() < 1.2, "imbalance={}", b.imbalance());
    }

    #[test]
    #[should_panic(expected = "cannot give every rank work")]
    fn more_ranks_than_zones_rejected() {
        let zones = even_zones(MzClass::S);
        let _ = bin_pack(&zones, 5);
    }
}
