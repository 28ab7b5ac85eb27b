//! The Intel Itanium2 processor model.
//!
//! The predominant CPU on Columbia is a 64-bit Itanium2 (Madison) that
//! issues two multiply-add operations per cycle — four flops — for a peak
//! of 6.0 Gflop/s at 1.5 GHz (6.4 Gflop/s for the 1.6 GHz parts in the
//! BX2b nodes). Its memory hierarchy is unusual in one way the paper
//! calls out: the 32 KB L1 data cache *cannot hold floating-point data*,
//! so FP loads are serviced from the 256 KB L2 at best; the large
//! 128-entry FP register file mitigates the resulting load/spill
//! pressure.

use crate::GFLOP;

/// Sizes of the three on-chip data caches, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheHierarchy {
    /// L1 data cache (32 KB). Integer data only: the Itanium2 bypasses
    /// L1 for floating-point loads and stores.
    pub l1_bytes: u64,
    /// L2 unified cache (256 KB); the first level that holds FP data.
    pub l2_bytes: u64,
    /// L3 on-die cache: 6 MB on the 1.5 GHz parts, 9 MB on the 1.6 GHz
    /// parts used by the five fastest BX2 nodes.
    pub l3_bytes: u64,
}

impl CacheHierarchy {
    /// Hierarchy of the 1.5 GHz Madison used in the 3700 and BX2a nodes.
    pub const fn madison_6mb() -> Self {
        CacheHierarchy {
            l1_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
            l3_bytes: 6 * 1024 * 1024,
        }
    }

    /// Hierarchy of the 1.6 GHz Madison9M used in the BX2b nodes.
    pub const fn madison_9mb() -> Self {
        CacheHierarchy {
            l1_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
            l3_bytes: 9 * 1024 * 1024,
        }
    }

    /// Which cache level a floating-point working set of `bytes` resides
    /// in during steady state. Level 1 is never returned for FP data.
    pub fn fp_resident_level(&self, bytes: u64) -> CacheLevel {
        if bytes <= self.l2_bytes {
            CacheLevel::L2
        } else if bytes <= self.l3_bytes {
            CacheLevel::L3
        } else {
            CacheLevel::Memory
        }
    }
}

/// The cache level that services a working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheLevel {
    /// L1 data cache (integer data only on Itanium2).
    L1,
    /// L2 unified cache.
    L2,
    /// L3 on-die cache.
    L3,
    /// Local main memory behind the SHUB.
    Memory,
}

/// Performance model of one Itanium2 CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorModel {
    /// Core clock in GHz (1.5 or 1.6 on Columbia).
    pub clock_ghz: f64,
    /// Flops retired per cycle at peak: two multiply-adds = 4.
    pub flops_per_cycle: f64,
    /// Number of architectural floating-point registers (128).
    pub fp_registers: u32,
    /// On-chip cache sizes.
    pub caches: CacheHierarchy,
}

impl ProcessorModel {
    /// The 1.5 GHz / 6 MB part (Altix 3700 and BX2a nodes).
    pub const fn itanium2_1500() -> Self {
        ProcessorModel {
            clock_ghz: 1.5,
            flops_per_cycle: 4.0,
            fp_registers: 128,
            caches: CacheHierarchy::madison_6mb(),
        }
    }

    /// The 1.6 GHz / 9 MB part (BX2b nodes).
    pub const fn itanium2_1600() -> Self {
        ProcessorModel {
            clock_ghz: 1.6,
            flops_per_cycle: 4.0,
            fp_registers: 128,
            caches: CacheHierarchy::madison_9mb(),
        }
    }

    /// Theoretical peak floating-point rate in flop/s.
    pub fn peak_flops(&self) -> f64 {
        self.clock_ghz * GFLOP * self.flops_per_cycle
    }

    /// Theoretical peak in Gflop/s (the unit the paper reports).
    pub fn peak_gflops(&self) -> f64 {
        self.peak_flops() / GFLOP
    }

    /// Time in seconds to retire `flops` floating-point operations at a
    /// given fraction of peak (`efficiency` in (0, 1]).
    pub fn compute_seconds(&self, flops: f64, efficiency: f64) -> f64 {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0,1], got {efficiency}"
        );
        flops / (self.peak_flops() * efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_paper_table1() {
        // Table 1: 1.5 GHz part peaks at 6.0 Gflop/s, 1.6 GHz at 6.4.
        assert!((ProcessorModel::itanium2_1500().peak_gflops() - 6.0).abs() < 1e-12);
        assert!((ProcessorModel::itanium2_1600().peak_gflops() - 6.4).abs() < 1e-12);
    }

    #[test]
    fn node_peak_matches_paper_table1() {
        // Table 1: 512 CPUs at 6.0 Gflop/s = 3.07 Tflop/s; at 6.4 = 3.28.
        let tflops_1500 = 512.0 * ProcessorModel::itanium2_1500().peak_gflops() / 1000.0;
        let tflops_1600 = 512.0 * ProcessorModel::itanium2_1600().peak_gflops() / 1000.0;
        assert!((tflops_1500 - 3.072).abs() < 1e-9);
        assert!((tflops_1600 - 3.2768).abs() < 1e-9);
    }

    #[test]
    fn fp_data_never_lives_in_l1() {
        let c = CacheHierarchy::madison_6mb();
        assert_eq!(c.fp_resident_level(1), CacheLevel::L2);
        assert_eq!(c.fp_resident_level(256 * 1024), CacheLevel::L2);
        assert_eq!(c.fp_resident_level(256 * 1024 + 1), CacheLevel::L3);
        assert_eq!(c.fp_resident_level(6 * 1024 * 1024 + 1), CacheLevel::Memory);
    }

    #[test]
    fn bigger_l3_keeps_bigger_sets_on_chip() {
        let small = CacheHierarchy::madison_6mb();
        let big = CacheHierarchy::madison_9mb();
        let ws = 8 * 1024 * 1024; // 8 MB working set
        assert_eq!(small.fp_resident_level(ws), CacheLevel::Memory);
        assert_eq!(big.fp_resident_level(ws), CacheLevel::L3);
    }

    #[test]
    fn compute_seconds_scales_inversely_with_efficiency() {
        let p = ProcessorModel::itanium2_1500();
        let full = p.compute_seconds(6.0e9, 1.0);
        let half = p.compute_seconds(6.0e9, 0.5);
        assert!((full - 1.0).abs() < 1e-12);
        assert!((half - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn zero_efficiency_rejected() {
        ProcessorModel::itanium2_1500().compute_seconds(1.0, 0.0);
    }
}
