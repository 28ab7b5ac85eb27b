//! The HPCC `b_eff` communication patterns.
//!
//! The effective-bandwidth benchmark measures latency and bandwidth in
//! three patterns the paper reports in Figs. 5 and 10:
//!
//! * **Ping-pong** between pairs of processes; the paper uses the
//!   *average* over tested pairs.
//! * **Natural ring**: every process exchanges with the neighbours
//!   adjacent in `MPI_COMM_WORLD` rank order; the benchmark reports the
//!   *worst-case* process-to-process latency for the whole ring (the
//!   paper leans on this distinction when explaining the smaller
//!   two-to-four-node penalty in §4.6.1).
//! * **Random ring**: the ring order is a random permutation, so most
//!   neighbours are topologically far apart; a geometric mean over
//!   several trials is reported. This is the pattern that exposes both
//!   the BX2's better router fabric at high CPU counts and
//!   InfiniBand's contention collapse.

use columbia_machine::cluster::CpuId;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::fabric::Fabric;

/// Message size b_eff uses for the latency measurement (8 bytes).
pub const LATENCY_MSG_BYTES: u64 = 8;

/// Message size used for the bandwidth measurement (2 MB, long enough
/// to amortize latency on every Columbia fabric).
pub const BANDWIDTH_MSG_BYTES: u64 = 2 * 1024 * 1024;

/// Fewest processes a ping-pong or ring pattern is defined on.
pub const MIN_PROCS: usize = 2;

/// Outcome of one pattern measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternResult {
    /// Reported latency, seconds.
    pub latency: f64,
    /// Reported per-process bandwidth, bytes/s.
    pub bandwidth_per_proc: f64,
}

/// Average ping-pong over sampled process pairs.
///
/// For `p` processes b_eff pairs rank `i` with rank `p-1-i`; we average
/// latency and bandwidth over those pairs, which mixes near and far
/// pairs exactly the way the paper's "average" row does.
pub fn ping_pong(fabric: &dyn Fabric, cpus: &[CpuId]) -> PatternResult {
    let p = cpus.len();
    assert!(p >= MIN_PROCS, "ping-pong needs at least two processes");
    let mut lat_sum = 0.0;
    let mut bw_sum = 0.0;
    let pairs = p / 2;
    for i in 0..pairs {
        let (a, b) = (cpus[i], cpus[p - 1 - i]);
        lat_sum += fabric.latency(a, b);
        bw_sum += BANDWIDTH_MSG_BYTES as f64 / fabric.pt2pt_time(a, b, BANDWIDTH_MSG_BYTES);
    }
    PatternResult {
        latency: lat_sum / pairs as f64,
        bandwidth_per_proc: bw_sum / pairs as f64,
    }
}

/// Ring measurement over an explicit neighbour ordering.
///
/// Latency: worst edge (the ring turns at the pace of its slowest
/// link). Bandwidth: the benchmark's iterations are synchronized, so
/// every process's effective rate is paced by the slowest edge of the
/// whole ring: `bytes / worst edge time`, with the inter-node
/// contention factor applied to edges that cross nodes.
fn ring(fabric: &dyn Fabric, order: &[CpuId]) -> PatternResult {
    let p = order.len();
    assert!(p >= MIN_PROCS, "a ring needs at least two processes");
    let mut worst_lat: f64 = 0.0;
    let mut worst_edge_time: f64 = 0.0;
    let crossings = order
        .iter()
        .zip(order.iter().cycle().skip(1))
        .take(p)
        .filter(|(a, b)| a.node != b.node)
        .count() as u32;
    let contention = fabric.internode_contention(crossings.max(1));
    for i in 0..p {
        let (a, b) = (order[i], order[(i + 1) % p]);
        worst_lat = worst_lat.max(fabric.latency(a, b));
        let slowdown = if a.node != b.node { contention } else { 1.0 };
        let edge_time =
            fabric.latency(a, b) + BANDWIDTH_MSG_BYTES as f64 * slowdown / fabric.bandwidth(a, b);
        worst_edge_time = worst_edge_time.max(edge_time);
    }
    PatternResult {
        latency: worst_lat,
        bandwidth_per_proc: BANDWIDTH_MSG_BYTES as f64 / worst_edge_time,
    }
}

/// Natural ring: ranks in `MPI_COMM_WORLD` order.
pub fn natural_ring(fabric: &dyn Fabric, cpus: &[CpuId]) -> PatternResult {
    ring(fabric, cpus)
}

/// Random ring: geometric mean over `trials` random permutations
/// seeded by `seed` (deterministic across runs).
pub fn random_ring(fabric: &dyn Fabric, cpus: &[CpuId], trials: u32, seed: u64) -> PatternResult {
    assert!(trials >= 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut log_lat = 0.0;
    let mut log_bw = 0.0;
    let mut order = cpus.to_vec();
    for _ in 0..trials {
        order.shuffle(&mut rng);
        let r = ring(fabric, &order);
        log_lat += r.latency.ln();
        log_bw += r.bandwidth_per_proc.ln();
    }
    PatternResult {
        latency: (log_lat / trials as f64).exp(),
        bandwidth_per_proc: (log_bw / trials as f64).exp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{ClusterFabric, MptVersion};
    use columbia_machine::cluster::{ClusterConfig, InterNodeFabric};
    use columbia_machine::node::NodeKind;

    fn one_node(kind: NodeKind) -> ClusterFabric {
        ClusterFabric::single_node(ClusterConfig::uniform(kind, 1))
    }

    fn dense(n: u32) -> Vec<CpuId> {
        (0..n).map(|c| CpuId::new(0, c)).collect()
    }

    fn spread(nodes: u32, per_node: u32) -> Vec<CpuId> {
        let mut v = Vec::new();
        for nd in 0..nodes {
            for c in 0..per_node {
                v.push(CpuId::new(nd, c));
            }
        }
        v
    }

    #[test]
    fn random_ring_latency_grows_with_cpu_count() {
        let f = one_node(NodeKind::Altix3700);
        let small = random_ring(&f, &dense(16), 4, 7).latency;
        let large = random_ring(&f, &dense(512), 4, 7).latency;
        assert!(large > small, "small={small:e} large={large:e}");
    }

    #[test]
    fn bx2_random_ring_beats_3700_at_high_counts() {
        // Fig. 5: "as average communication distances become further
        // apart ... the interconnect network improvements in the BX2
        // take effect."
        let f3 = one_node(NodeKind::Altix3700);
        let fb = one_node(NodeKind::Bx2b);
        let l3 = random_ring(&f3, &dense(512), 4, 7).latency;
        let lb = random_ring(&fb, &dense(512), 4, 7).latency;
        assert!(lb < l3, "bx2={lb:e} 3700={l3:e}");
        let b3 = random_ring(&f3, &dense(512), 4, 7).bandwidth_per_proc;
        let bb = random_ring(&fb, &dense(512), 4, 7).bandwidth_per_proc;
        assert!(bb > b3);
    }

    #[test]
    fn ping_pong_bandwidth_tracks_interconnect() {
        // Fig. 5: ping-pong pairs are mostly cross-brick, so NUMAlink4
        // (BX2) shows clearly higher bandwidth than NUMAlink3 (3700).
        let b3 = ping_pong(&one_node(NodeKind::Altix3700), &dense(128)).bandwidth_per_proc;
        let bb = ping_pong(&one_node(NodeKind::Bx2a), &dense(128)).bandwidth_per_proc;
        assert!(bb > 1.2 * b3, "bx2={bb:e} 3700={b3:e}");
    }

    #[test]
    fn natural_ring_bandwidth_tracks_processor_speed() {
        // Fig. 5: local communication dominates the natural ring, so
        // the 1.6 GHz BX2b edges out the 1.5 GHz BX2a by roughly the
        // clock ratio, not the (identical) link bandwidth.
        let ba = natural_ring(&one_node(NodeKind::Bx2a), &dense(128)).bandwidth_per_proc;
        let bb = natural_ring(&one_node(NodeKind::Bx2b), &dense(128)).bandwidth_per_proc;
        let ratio = bb / ba;
        assert!(ratio > 1.02 && ratio < 1.12, "ratio={ratio}");
    }

    #[test]
    fn natural_ring_latency_is_worst_case_not_mean() {
        let f = one_node(NodeKind::Bx2b);
        let cpus = dense(64);
        let worst = natural_ring(&f, &cpus).latency;
        // Every edge latency must be ≤ the reported (worst-case) value.
        for i in 0..cpus.len() {
            let l = f.latency(cpus[i], cpus[(i + 1) % cpus.len()]);
            assert!(l <= worst + 1e-15);
        }
    }

    #[test]
    fn infiniband_random_ring_collapses_vs_numalink() {
        // Fig. 10: "severe problems with scalability of InfiniBand" on
        // the random ring.
        let cfg = ClusterConfig::uniform(NodeKind::Bx2b, 4);
        let cpus = spread(4, 256);
        let nl = ClusterFabric::new(
            cfg.clone(),
            InterNodeFabric::NumaLink4,
            MptVersion::Beta,
            1024,
        );
        let ib = ClusterFabric::new(cfg, InterNodeFabric::InfiniBand, MptVersion::Beta, 1024);
        let bw_nl = random_ring(&nl, &cpus, 3, 11).bandwidth_per_proc;
        let bw_ib = random_ring(&ib, &cpus, 3, 11).bandwidth_per_proc;
        assert!(bw_nl > 5.0 * bw_ib, "nl={bw_nl:e} ib={bw_ib:e}");
    }

    #[test]
    fn four_node_ib_ping_pong_worse_than_two_node() {
        // Fig. 10: more off-node pairs on four nodes raise the average
        // ping-pong latency over InfiniBand.
        let mk = |n: u32| {
            let cfg = ClusterConfig::uniform(NodeKind::Bx2b, n);
            let f = ClusterFabric::new(cfg, InterNodeFabric::InfiniBand, MptVersion::Beta, n * 128);
            ping_pong(&f, &spread(n, 128)).latency
        };
        assert!(mk(4) > mk(2));
    }

    #[test]
    fn random_ring_is_deterministic_per_seed() {
        let f = one_node(NodeKind::Bx2b);
        let a = random_ring(&f, &dense(64), 5, 3);
        let b = random_ring(&f, &dense(64), 5, 3);
        assert_eq!(a, b);
        let c = random_ring(&f, &dense(64), 5, 4);
        assert!(a != c);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn ping_pong_needs_two() {
        let f = one_node(NodeKind::Bx2b);
        ping_pong(&f, &dense(1));
    }
}
