//! Fault injection and graceful degradation for the simulated fabric.
//!
//! A [`FaultPlan`] is a seeded, deterministic description of what is
//! wrong with the machine during a run:
//!
//! * **message drops** — each point-to-point message may be dropped
//!   with probability [`FaultPlan::drop_prob`] and retransmitted after
//!   an exponentially backed-off timeout ([`RetransmitPolicy`]);
//! * **link faults** — a node-pair link can be [`LinkState::Degraded`]
//!   (latency/bandwidth factors) or [`LinkState::Down`] (traffic takes
//!   a reroute penalty), applied by wrapping the fabric in a
//!   [`FaultyFabric`];
//! * **CPU/brick slowdowns** — individual CPUs or whole nodes compute
//!   slower by a factor ([`CpuSlowdown`]);
//! * **connection exhaustion** — the §2 InfiniBand connection-limit
//!   formula is enforced per node ([`ConnectionLimit`]); an
//!   over-committed placement either fails with
//!   [`crate::error::SimError::ConnectionsExhausted`] or gracefully
//!   falls back to connection multiplexing with a queuing penalty;
//! * **event budget** — a watchdog bound on scheduler events that turns
//!   a livelocked run into a structured
//!   [`crate::error::SimError::WatchdogTimeout`].
//!
//! Each real-valued setting of a plan (a probability, a factor, a
//! delay) has one [`Bound`] here: the builders assert it, and the spec
//! compiler rejects a value outside it where the spec sets it, before
//! anything runs.
//!
//! Everything is a pure function of the plan (including its `seed`):
//! the same plan over the same programs yields bit-identical timelines,
//! and the all-defaults plan ([`FaultPlan::none`]) is bit-identical to
//! a fault-free simulation. Drop decisions are keyed by message
//! identity `(from, to, tag, seq)` rather than by arrival order, so
//! they are independent of scheduling.

use columbia_machine::cluster::{CpuId, NodeId};

use crate::fabric::Fabric;

/// Reroute penalty on a [`LinkState::Down`] link: traffic detours
/// through the switch's longer alternate path.
pub const DOWN_LINK_LATENCY_FACTOR: f64 = 4.0;

/// Bandwidth fraction surviving a downed link's detour.
pub const DOWN_LINK_BANDWIDTH_FACTOR: f64 = 0.25;

/// A bound a fault-plan value must meet.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// What a value must be, as a diagnostic says it (`"at least 1"`).
    pub must: &'static str,
    test: fn(f64) -> bool,
}

impl Bound {
    /// Whether `v` meets the bound.
    pub fn holds(&self, v: f64) -> bool {
        (self.test)(v)
    }

    /// Panic unless `v`, the value of `what`, meets the bound.
    fn assert(&self, what: &str, v: f64) {
        assert!(self.holds(v), "{what} must be {}, got {v}", self.must);
    }
}

/// [`FaultPlan::drop_prob`]: every message must get through eventually.
pub const DROP_PROB: Bound = Bound {
    must: "in [0, 1)",
    test: |p| (0.0..1.0).contains(&p),
};

/// A degraded link's latency multiplier: a fault never speeds a link up.
pub const LATENCY_FACTOR: Bound = Bound {
    must: "at least 1",
    test: |f| f >= 1.0,
};

/// A degraded link's bandwidth multiplier: some bandwidth survives, and
/// none is gained.
pub const BANDWIDTH_FACTOR: Bound = Bound {
    must: "in (0, 1]",
    test: |f| f > 0.0 && f <= 1.0,
};

/// A CPU or node slowdown's compute multiplier.
pub const SLOWDOWN_FACTOR: Bound = Bound {
    must: "at least 1",
    test: |f| f >= 1.0,
};

/// A [`RetransmitPolicy`]'s timeout and backoff, and a multiplex
/// `queue_penalty`: no delay may be negative, or a message would arrive
/// before it was sent.
pub const NON_NEGATIVE: Bound = Bound {
    must: "at least 0",
    test: |v| v >= 0.0,
};

/// Health of one inter-node link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkState {
    /// The link works but slower: latency multiplied, bandwidth scaled.
    Degraded {
        /// Latency multiplier ([`LATENCY_FACTOR`]).
        latency_factor: f64,
        /// Bandwidth multiplier ([`BANDWIDTH_FACTOR`]).
        bandwidth_factor: f64,
    },
    /// The link is out; traffic reroutes with fixed penalty factors.
    Down,
}

impl LinkState {
    /// Latency multiplier this state applies.
    pub fn latency_factor(self) -> f64 {
        match self {
            LinkState::Degraded { latency_factor, .. } => latency_factor,
            LinkState::Down => DOWN_LINK_LATENCY_FACTOR,
        }
    }

    /// Bandwidth multiplier this state applies.
    pub fn bandwidth_factor(self) -> f64 {
        match self {
            LinkState::Degraded {
                bandwidth_factor, ..
            } => bandwidth_factor,
            LinkState::Down => DOWN_LINK_BANDWIDTH_FACTOR,
        }
    }
}

/// A fault on the link between two nodes (symmetric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// One endpoint node.
    pub a: NodeId,
    /// The other endpoint node.
    pub b: NodeId,
    /// What is wrong with the link.
    pub state: LinkState,
}

/// A slow CPU or brick: matching compute phases take `factor`× longer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSlowdown {
    /// Node the slowdown lives in.
    pub node: NodeId,
    /// Specific CPU, or `None` for the whole node (brick-level fault).
    pub cpu: Option<u32>,
    /// Compute-time multiplier ([`SLOWDOWN_FACTOR`]).
    pub factor: f64,
}

/// Timeout-and-retransmit behaviour for dropped messages. The timeout
/// and backoff are [`NON_NEGATIVE`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetransmitPolicy {
    /// Seconds before the first retransmission.
    pub timeout: f64,
    /// Multiplier applied to the timeout after each further drop.
    pub backoff: f64,
    /// Maximum retransmissions per message; the message always gets
    /// through on (at latest) the attempt after the last retry.
    pub max_retries: u32,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        // IB-scale: 100 µs base timeout, doubling, up to 6 retries.
        RetransmitPolicy {
            timeout: 100.0e-6,
            backoff: 2.0,
            max_retries: 6,
        }
    }
}

/// What to do when a node's placement exceeds its connection budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConnectionPolicy {
    /// Report [`crate::error::SimError::ConnectionsExhausted`].
    Fail,
    /// Multiplex connections: every inter-node message queues behind
    /// the shared contexts, paying `queue_penalty × (oversubscription
    /// − 1)` seconds (`queue_penalty` is [`NON_NEGATIVE`]).
    Multiplex {
        /// Seconds of queuing per unit of oversubscription.
        queue_penalty: f64,
    },
}

/// Per-node InfiniBand connection budget (the paper's §2 constraint:
/// a node running `p` pure-MPI processes across `n` nodes needs
/// `p²(n−1)` connections out of `cards × connections_per_card`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectionLimit {
    /// InfiniBand cards per node.
    pub cards_per_node: u32,
    /// Connections each card supports.
    pub connections_per_card: u64,
    /// Behaviour when the budget is exceeded.
    pub policy: ConnectionPolicy,
}

impl ConnectionLimit {
    /// Total connections a node's cards provide (saturating at
    /// `u64::MAX`, which no placement can exceed).
    pub fn budget(&self) -> u64 {
        u64::from(self.cards_per_node).saturating_mul(self.connections_per_card)
    }
}

/// Default queuing penalty per unit of connection oversubscription.
pub const DEFAULT_MULTIPLEX_QUEUE_PENALTY: f64 = 2.0e-6;

/// A complete, deterministic description of the faults active during
/// one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every sampled decision (message drops).
    pub seed: u64,
    /// Per-message drop probability ([`DROP_PROB`]).
    pub drop_prob: f64,
    /// Timeout/backoff behaviour for dropped messages.
    pub retransmit: RetransmitPolicy,
    /// Degraded or downed inter-node links.
    pub link_faults: Vec<LinkFault>,
    /// Slow CPUs or bricks.
    pub cpu_slowdowns: Vec<CpuSlowdown>,
    /// InfiniBand connection budget to enforce, if any.
    pub connection_limit: Option<ConnectionLimit>,
    /// Scheduler-event watchdog budget; `None` derives a generous bound
    /// from the program size.
    pub event_budget: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The fault-free plan: under it [`crate::engine::simulate`] injects
    /// nothing — no drops, delays or slowdowns.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            retransmit: RetransmitPolicy::default(),
            link_faults: Vec::new(),
            cpu_slowdowns: Vec::new(),
            connection_limit: None,
            event_budget: None,
        }
    }

    /// A plan that only drops messages, with the given seed.
    pub fn with_drops(seed: u64, drop_prob: f64) -> Self {
        DROP_PROB.assert("drop_prob", drop_prob);
        FaultPlan {
            seed,
            drop_prob,
            ..FaultPlan::none()
        }
    }

    /// Add a degraded link between `a` and `b`.
    pub fn degrade_link(
        mut self,
        a: NodeId,
        b: NodeId,
        latency_factor: f64,
        bandwidth_factor: f64,
    ) -> Self {
        LATENCY_FACTOR.assert("latency_factor", latency_factor);
        BANDWIDTH_FACTOR.assert("bandwidth_factor", bandwidth_factor);
        self.push_link(
            a,
            b,
            LinkState::Degraded {
                latency_factor,
                bandwidth_factor,
            },
        );
        self
    }

    /// Take the link between `a` and `b` down entirely.
    pub fn fail_link(mut self, a: NodeId, b: NodeId) -> Self {
        self.push_link(a, b, LinkState::Down);
        self
    }

    /// Add the link fault `a`–`b`. A link joins two different nodes:
    /// traffic inside a node never takes one, so `a == b` would fault
    /// nothing.
    fn push_link(&mut self, a: NodeId, b: NodeId, state: LinkState) {
        assert!(a != b, "a link joins two different nodes, got {a:?} twice");
        self.link_faults.push(LinkFault { a, b, state });
    }

    /// Slow one CPU by `factor`.
    pub fn slow_cpu(mut self, cpu: CpuId, factor: f64) -> Self {
        SLOWDOWN_FACTOR.assert("factor", factor);
        self.cpu_slowdowns.push(CpuSlowdown {
            node: cpu.node,
            cpu: Some(cpu.cpu),
            factor,
        });
        self
    }

    /// Slow every CPU of `node` by `factor` (a brick-level fault).
    pub fn slow_node(mut self, node: NodeId, factor: f64) -> Self {
        SLOWDOWN_FACTOR.assert("factor", factor);
        self.cpu_slowdowns.push(CpuSlowdown {
            node,
            cpu: None,
            factor,
        });
        self
    }

    /// Enforce a connection budget. Under
    /// [`ConnectionPolicy::Multiplex`] the budget must not be zero: the
    /// queuing penalty scales with required connections over it.
    pub fn with_connection_limit(mut self, limit: ConnectionLimit) -> Self {
        if let ConnectionPolicy::Multiplex { .. } = limit.policy {
            assert!(
                limit.budget() > 0,
                "a multiplexed connection budget must be at least 1, got 0"
            );
        }
        self.connection_limit = Some(limit);
        self
    }

    /// Set the watchdog event budget.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = Some(budget);
        self
    }

    /// Compute-time multiplier for a CPU (product of matching faults).
    pub fn compute_factor(&self, cpu: CpuId) -> f64 {
        let mut f = 1.0;
        for s in &self.cpu_slowdowns {
            if s.node == cpu.node && s.cpu.map(|c| c == cpu.cpu).unwrap_or(true) {
                f *= s.factor;
            }
        }
        f
    }

    /// The fault state of the link between two nodes, if any.
    pub fn link_state(&self, a: NodeId, b: NodeId) -> Option<LinkState> {
        self.link_faults
            .iter()
            .find(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
            .map(|l| l.state)
    }

    /// Whether any link in the plan is faulted.
    pub fn has_link_faults(&self) -> bool {
        !self.link_faults.is_empty()
    }

    /// Number of consecutive drops message `(from, to, tag, seq)`
    /// suffers before getting through — a pure function of the plan,
    /// independent of scheduling. Monotone in [`FaultPlan::drop_prob`]:
    /// raising the probability can only lengthen the drop prefix.
    #[inline]
    pub fn drops_for_message(&self, from: usize, to: usize, tag: u64, seq: u64) -> u32 {
        if self.drop_prob <= 0.0 {
            return 0;
        }
        let mut drops = 0;
        while drops < self.retransmit.max_retries {
            let u = unit_hash(self.seed, [from as u64, to as u64, tag, seq, drops as u64]);
            if u >= self.drop_prob {
                break;
            }
            drops += 1;
        }
        drops
    }

    /// Seconds of retransmission delay for a message dropped `drops`
    /// consecutive times: `Σ timeout × backoff^i`.
    pub fn retransmit_delay(&self, drops: u32) -> f64 {
        let mut delay = 0.0;
        let mut t = self.retransmit.timeout;
        for _ in 0..drops {
            delay += t;
            t *= self.retransmit.backoff;
        }
        delay
    }
}

/// Deterministic hash of `words` under `seed`, mapped to `[0, 1)`.
fn unit_hash(seed: u64, words: [u64; 5]) -> f64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for w in words {
        h ^= w.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = h.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Observability counters accumulated while simulating under a plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Messages dropped at least once (retransmissions, not copies).
    pub dropped_messages: u64,
    /// Total drop events (a message dropped twice counts twice).
    pub drop_events: u64,
    /// Seconds of arrival delay added by retransmissions, summed over
    /// messages.
    pub retransmit_delay: f64,
    /// Inter-node messages that queued behind multiplexed connections.
    pub multiplexed_messages: u64,
    /// Seconds of queuing delay added by connection multiplexing.
    pub multiplex_delay: f64,
    /// Worst per-node connection oversubscription ratio
    /// (`required / available`; 0 when no limit was enforced).
    pub oversubscription: f64,
    /// Scheduler events consumed (what the watchdog meters): ops
    /// executed plus re-examinations of blocked ops. Within a round each
    /// partition runs only on its own state, so the count depends only
    /// on the partition map, never on worker scheduling: it is the same
    /// at every thread count above one, and may differ at one thread,
    /// where every rank shares one partition.
    pub events: u64,
}

impl FaultStats {
    /// Whether the run saw any fault activity at all.
    pub fn any(&self) -> bool {
        self.dropped_messages > 0 || self.multiplexed_messages > 0 || self.oversubscription > 1.0
    }
}

/// A [`Fabric`] view with the plan's link faults applied.
///
/// Wraps an inner fabric; only node pairs named by a fault change, so
/// under a plan without link faults the wrapper is cost-transparent
/// (multiplications by 1.0 preserve bit-identity).
///
/// Generic over the inner fabric type so the engine monomorphizes the
/// per-message cost calls away.
pub struct FaultyFabric<'a, F: Fabric + ?Sized> {
    inner: &'a F,
    plan: &'a FaultPlan,
}

impl<'a, F: Fabric + ?Sized> FaultyFabric<'a, F> {
    /// View `inner` through `plan`'s link faults.
    pub fn new(inner: &'a F, plan: &'a FaultPlan) -> Self {
        FaultyFabric { inner, plan }
    }
}

impl<F: Fabric + ?Sized> Fabric for FaultyFabric<'_, F> {
    fn latency(&self, src: CpuId, dst: CpuId) -> f64 {
        let base = self.inner.latency(src, dst);
        if src.node == dst.node {
            return base;
        }
        match self.plan.link_state(src.node, dst.node) {
            Some(state) => base * state.latency_factor(),
            None => base,
        }
    }

    fn bandwidth(&self, src: CpuId, dst: CpuId) -> f64 {
        let base = self.inner.bandwidth(src, dst);
        if src.node == dst.node {
            return base;
        }
        match self.plan.link_state(src.node, dst.node) {
            Some(state) => base * state.bandwidth_factor(),
            None => base,
        }
    }

    // Forced: hinted, it stayed out of line in the event loop.
    #[inline(always)]
    fn pt2pt_time(&self, src: CpuId, dst: CpuId, bytes: u64) -> f64 {
        // Without link faults `latency` and `bandwidth` are the inner
        // fabric's: let it price the message with its own lookup.
        if !self.plan.has_link_faults() {
            return self.inner.pt2pt_time(src, dst, bytes);
        }
        self.latency(src, dst) + bytes as f64 / self.bandwidth(src, dst)
    }

    fn internode_contention(&self, flows: u32) -> f64 {
        self.inner.internode_contention(flows)
    }

    fn alltoall_bandwidth(&self, cpus: &[CpuId]) -> f64 {
        let base = self.inner.alltoall_bandwidth(cpus);
        // Without link faults the scan below folds to 1.0, and
        // `base * 1.0` is `base`: skip its p² pairs.
        if !self.plan.has_link_faults() {
            return base;
        }
        // A degraded link throttles the collective to its worst leg.
        let worst = cpus
            .iter()
            .flat_map(|a| cpus.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a.node != b.node)
            .filter_map(|(a, b)| self.plan.link_state(a.node, b.node))
            .map(LinkState::bandwidth_factor)
            .fold(1.0, f64::min);
        base * worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{CachedFabric, ClusterFabric, MptVersion};
    use columbia_machine::cluster::{ClusterConfig, InterNodeFabric};
    use columbia_machine::node::NodeKind;

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert_eq!(plan.drops_for_message(0, 1, 7, 0), 0);
        assert_eq!(plan.compute_factor(CpuId::new(0, 3)), 1.0);
        assert!(plan.link_state(NodeId(0), NodeId(1)).is_none());
        assert_eq!(plan.retransmit_delay(0), 0.0);
    }

    #[test]
    fn drops_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::with_drops(7, 0.3);
        let b = FaultPlan::with_drops(7, 0.3);
        let c = FaultPlan::with_drops(8, 0.3);
        let mut differs = false;
        for seq in 0..64 {
            assert_eq!(
                a.drops_for_message(0, 1, 5, seq),
                b.drops_for_message(0, 1, 5, seq)
            );
            if a.drops_for_message(0, 1, 5, seq) != c.drops_for_message(0, 1, 5, seq) {
                differs = true;
            }
        }
        assert!(differs, "different seeds should drop different messages");
    }

    #[test]
    fn drop_count_is_monotone_in_probability() {
        let lo = FaultPlan::with_drops(3, 0.05);
        let hi = FaultPlan::with_drops(3, 0.5);
        for seq in 0..256 {
            assert!(
                lo.drops_for_message(2, 5, 1, seq) <= hi.drops_for_message(2, 5, 1, seq),
                "seq {seq}"
            );
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::with_drops(42, 0.25);
        let dropped = (0..4000)
            .filter(|&seq| plan.drops_for_message(0, 1, 0, seq) > 0)
            .count();
        let rate = dropped as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate={rate}");
    }

    #[test]
    fn retransmit_delay_backs_off_exponentially() {
        let plan = FaultPlan::none();
        let t = plan.retransmit.timeout;
        assert!((plan.retransmit_delay(1) - t).abs() < 1e-18);
        assert!((plan.retransmit_delay(2) - 3.0 * t).abs() < 1e-18);
        assert!((plan.retransmit_delay(3) - 7.0 * t).abs() < 1e-18);
    }

    #[test]
    fn slowdowns_compose_and_scope() {
        let plan = FaultPlan::none()
            .slow_node(NodeId(1), 2.0)
            .slow_cpu(CpuId::new(1, 4), 1.5);
        assert_eq!(plan.compute_factor(CpuId::new(0, 4)), 1.0);
        assert_eq!(plan.compute_factor(CpuId::new(1, 0)), 2.0);
        assert_eq!(plan.compute_factor(CpuId::new(1, 4)), 3.0);
    }

    #[test]
    fn faulty_fabric_degrades_only_named_links() {
        let cfg = ClusterConfig::uniform(NodeKind::Bx2b, 3);
        let inner = ClusterFabric::new(cfg, InterNodeFabric::NumaLink4, MptVersion::Beta, 1536);
        let plan = FaultPlan::none().degrade_link(NodeId(0), NodeId(1), 3.0, 0.5);
        let faulty = FaultyFabric::new(&inner, &plan);
        let (a, b, c) = (CpuId::new(0, 0), CpuId::new(1, 0), CpuId::new(2, 0));
        assert!((faulty.latency(a, b) - 3.0 * inner.latency(a, b)).abs() < 1e-15);
        assert!((faulty.bandwidth(a, b) - 0.5 * inner.bandwidth(a, b)).abs() < 1e-3);
        // Symmetric, and other links untouched.
        assert_eq!(faulty.latency(b, a), faulty.latency(a, b));
        assert_eq!(faulty.latency(a, c), inner.latency(a, c));
        assert_eq!(faulty.bandwidth(a, a), inner.bandwidth(a, a));
    }

    /// `pt2pt_time` is `latency + bytes / bandwidth` of the faulty view
    /// to the bit, over a cached fabric, with and without a degraded
    /// link: in a node, on the degraded link and on a healthy one.
    #[test]
    fn faulty_pt2pt_time_composes_the_faulty_costs() {
        let cfg = ClusterConfig::uniform(NodeKind::Bx2b, 3);
        let inner = CachedFabric::new(ClusterFabric::new(
            cfg,
            InterNodeFabric::InfiniBand,
            MptVersion::Released,
            1536,
        ));
        let healthy = FaultPlan::none();
        let degraded = FaultPlan::none().degrade_link(NodeId(0), NodeId(1), 3.0, 0.5);
        let (a, b, c) = (CpuId::new(0, 5), CpuId::new(1, 300), CpuId::new(2, 0));
        for plan in [&healthy, &degraded] {
            let faulty = FaultyFabric::new(&inner, plan);
            for (x, y) in [(a, CpuId::new(0, 200)), (a, b), (b, a), (a, c)] {
                for bytes in [0u64, 8, 8192, 1 << 20] {
                    let composed = faulty.latency(x, y) + bytes as f64 / faulty.bandwidth(x, y);
                    assert_eq!(faulty.pt2pt_time(x, y, bytes).to_bits(), composed.to_bits());
                }
            }
        }
        let faulty = FaultyFabric::new(&inner, &degraded);
        assert!(faulty.pt2pt_time(a, b, 8192) > inner.pt2pt_time(a, b, 8192));
        assert_eq!(faulty.pt2pt_time(a, c, 8192), inner.pt2pt_time(a, c, 8192));
    }

    #[test]
    fn down_link_is_worse_than_degraded() {
        let cfg = ClusterConfig::uniform(NodeKind::Bx2b, 2);
        let inner = ClusterFabric::new(cfg, InterNodeFabric::NumaLink4, MptVersion::Beta, 1024);
        let degraded = FaultPlan::none().degrade_link(NodeId(0), NodeId(1), 1.5, 0.9);
        let down = FaultPlan::none().fail_link(NodeId(0), NodeId(1));
        let (a, b) = (CpuId::new(0, 0), CpuId::new(1, 0));
        let fd = FaultyFabric::new(&inner, &degraded);
        let fx = FaultyFabric::new(&inner, &down);
        assert!(fx.latency(a, b) > fd.latency(a, b));
        assert!(fx.bandwidth(a, b) < fd.bandwidth(a, b));
    }

    #[test]
    fn connection_budget_math() {
        let limit = ConnectionLimit {
            cards_per_node: 8,
            connections_per_card: 64 * 1024,
            policy: ConnectionPolicy::Fail,
        };
        assert_eq!(limit.budget(), 524_288);
        // 2^31 × 2^33 = 2^64 saturates instead of wrapping to zero.
        let limit = ConnectionLimit {
            cards_per_node: 1 << 31,
            connections_per_card: 1 << 33,
            ..limit
        };
        assert_eq!(limit.budget(), u64::MAX);
    }

    #[test]
    fn a_link_from_a_node_to_itself_is_refused() {
        let plans: [(fn() -> FaultPlan, bool); 3] = [
            (|| FaultPlan::none().fail_link(NodeId(1), NodeId(1)), true),
            (
                || FaultPlan::none().degrade_link(NodeId(0), NodeId(0), 4.0, 0.25),
                true,
            ),
            (|| FaultPlan::none().fail_link(NodeId(1), NodeId(0)), false),
        ];
        for (i, (plan, refused)) in plans.into_iter().enumerate() {
            assert_eq!(std::panic::catch_unwind(plan).is_err(), refused, "plan {i}");
        }
    }

    #[test]
    #[should_panic(expected = "multiplexed connection budget must be at least 1")]
    fn a_zero_multiplexed_budget_is_refused() {
        let _ = FaultPlan::none().with_connection_limit(ConnectionLimit {
            cards_per_node: 0,
            connections_per_card: 8192,
            policy: ConnectionPolicy::Multiplex {
                queue_penalty: DEFAULT_MULTIPLEX_QUEUE_PENALTY,
            },
        });
    }
}
