//! C-Brick packaging: the computational building block of the Altix.
//!
//! An Altix 3700 C-Brick holds four Itanium2 CPUs in two *nodes* (in
//! SGI's terminology, a node here is a CPU pair), 8 GB of local memory,
//! and a two-controller SHUB ASIC. Each SHUB interfaces two CPUs to
//! memory, I/O, and the NUMAlink fabric; the two CPUs of a pair share
//! one front-side bus to the SHUB. The BX2 C-Brick is the double-density
//! version: eight CPUs, 16 GB, four SHUBs per brick, which halves the
//! NUMAlink cabling distance per CPU and doubles inter-brick bandwidth
//! (NUMAlink4: 6.4 GB/s vs NUMAlink3: 3.2 GB/s).
//!
//! The bus sharing is what the paper's §4.2 "CPU stride" experiment
//! exposes: a single STREAM process sees ~3.8 GB/s, two processes on the
//! same bus see ~2 GB/s each, and running on every second CPU restores
//! the single-process figure (1.9x triad improvement).

/// Packaging parameters of one C-Brick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CBrick {
    /// CPUs packaged per brick: 4 on the 3700, 8 on the BX2.
    pub cpus_per_brick: u32,
    /// CPUs sharing one front-side bus / SHUB port (2 on both models).
    pub cpus_per_bus: u32,
    /// Local memory per brick in bytes (8 GB on 3700, 16 GB on BX2).
    pub memory_bytes: u64,
    /// SHUB ASICs per brick (2 on 3700, 4 on BX2).
    pub shubs: u32,
    /// CPUs per rack: 32 for the 3700, 64 for the double-density BX2.
    pub cpus_per_rack: u32,
}

impl CBrick {
    /// Altix 3700 C-Brick.
    pub const fn altix3700() -> Self {
        CBrick {
            cpus_per_brick: 4,
            cpus_per_bus: 2,
            memory_bytes: 8 * (1 << 30),
            shubs: 2,
            cpus_per_rack: 32,
        }
    }

    /// Altix 3700 BX2 C-Brick (double density).
    pub const fn bx2() -> Self {
        CBrick {
            cpus_per_brick: 8,
            cpus_per_bus: 2,
            memory_bytes: 16 * (1 << 30),
            shubs: 4,
            cpus_per_rack: 64,
        }
    }

    /// Index of the brick containing a CPU, for CPUs numbered densely
    /// from zero within a node.
    pub fn brick_of(&self, cpu: u32) -> u32 {
        cpu / self.cpus_per_brick
    }

    /// Index of the front-side bus (bus pairs are numbered densely
    /// across the node) that a CPU sits on.
    pub fn bus_of(&self, cpu: u32) -> u32 {
        cpu / self.cpus_per_bus
    }

    /// How many of the CPUs in `active` (dense CPU numbers within a
    /// node) share a bus with `cpu`, including `cpu` itself if present.
    ///
    /// This is the contention count the memory model uses to derate
    /// STREAM bandwidth.
    pub fn bus_sharers(&self, cpu: u32, active: &[u32]) -> u32 {
        let bus = self.bus_of(cpu);
        active.iter().filter(|&&c| self.bus_of(c) == bus).count() as u32
    }

    /// Memory available per CPU in bytes.
    pub fn memory_per_cpu(&self) -> u64 {
        self.memory_bytes / self.cpus_per_brick as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_models_pack_two_cpus_per_bus() {
        assert_eq!(CBrick::altix3700().cpus_per_bus, 2);
        assert_eq!(CBrick::bx2().cpus_per_bus, 2);
    }

    #[test]
    fn bx2_doubles_density_same_memory_per_cpu() {
        let a = CBrick::altix3700();
        let b = CBrick::bx2();
        assert_eq!(b.cpus_per_brick, 2 * a.cpus_per_brick);
        assert_eq!(b.cpus_per_rack, 2 * a.cpus_per_rack);
        assert_eq!(a.memory_per_cpu(), b.memory_per_cpu());
        assert_eq!(a.memory_per_cpu(), 2 * (1 << 30)); // 2 GB per CPU
    }

    #[test]
    fn dense_placement_shares_buses_strided_does_not() {
        let b = CBrick::bx2();
        // Dense: CPUs 0..4 — CPU 0 shares its bus with CPU 1.
        let dense: Vec<u32> = (0..4).collect();
        assert_eq!(b.bus_sharers(0, &dense), 2);
        // Stride 2: CPUs 0,2,4,6 — each bus has one active CPU.
        let strided: Vec<u32> = (0..8).step_by(2).map(|c| c as u32).collect();
        for &c in &strided {
            assert_eq!(b.bus_sharers(c, &strided), 1);
        }
    }

    #[test]
    fn brick_and_bus_indexing() {
        let b = CBrick::altix3700();
        assert_eq!(b.brick_of(0), 0);
        assert_eq!(b.brick_of(3), 0);
        assert_eq!(b.brick_of(4), 1);
        assert_eq!(b.bus_of(0), 0);
        assert_eq!(b.bus_of(1), 0);
        assert_eq!(b.bus_of(2), 1);
        let bx = CBrick::bx2();
        assert_eq!(bx.brick_of(7), 0);
        assert_eq!(bx.brick_of(8), 1);
    }
}
