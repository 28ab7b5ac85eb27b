//! In-flight message storage for the engine's eager matching.
//!
//! The engine's hottest operations are `push`/`pop` of arrival times
//! keyed by `(from, to, tag)`, one pair per simulated message, and a
//! `next_seq` per send. [`IndexedMailbox`] serves them without hashing
//! and without a heap object per channel or per sender: it keeps
//! everything in three flat vectors, so a simulation allocates only
//! when one of them grows (O(log) times) and frees three buffers when
//! it drops.
//!
//! * **One channel table.** Every `(from, to, tag)` channel ever used is
//!   one fixed-size record: `to`, `tag`, the send counter, the head and
//!   tail of its queue, and the index of the same sender's previous
//!   channel. `first[from]` holds the sender's newest channel, so a
//!   lookup walks that sender's chain newest first. Channels are never
//!   removed: the `(to, tag)` pairs a rank uses are few and fixed in
//!   every workload here. Across the 18 experiments the longest walk is
//!   49 links, in `fig6`, whose lookups examine 8.5 links on average;
//!   every other experiment walks at most 11.
//! * **One slab of queued arrivals.** Each queued message is an
//!   `(arrival, next)` node; a channel's queue is the linked list from
//!   its head to its tail. A popped node goes onto a free list and the
//!   next push reuses it.
//!
//! The engine is generic over [`MailboxOps`]. A `HashMap` keyed by
//! `(from, to, tag)` survives only in this module's tests, as
//! `tests::ReferenceMailbox`: the oracle that the flat mailbox is
//! checked against, here and at the engine level.

/// The mailbox operations the engine needs. `push`/`pop` must be FIFO
/// per `(from, to, tag)` channel (MPI ordering); `next_seq` returns a
/// per-channel counter 0, 1, 2, … identifying each send for
/// schedule-independent fault sampling. `from` and `to` are ranks below
/// the `n` the mailbox was made for.
pub trait MailboxOps {
    /// An empty mailbox for `n` ranks.
    fn with_ranks(n: usize) -> Self;
    /// Deposit an arrival time on the channel.
    fn push(&mut self, from: usize, to: usize, tag: u64, arrival: f64);
    /// Take the oldest undelivered arrival on the channel, if any.
    fn pop(&mut self, from: usize, to: usize, tag: u64) -> Option<f64>;
    /// Claim the channel's next send sequence number.
    fn next_seq(&mut self, from: usize, to: usize, tag: u64) -> u64;
}

/// The end of a channel chain, of a queue, or of the free list.
const NIL: u32 = u32::MAX;

/// One `(from, to, tag)` channel; `from` is the chain it hangs on.
#[derive(Debug)]
struct Channel {
    tag: u64,
    /// Messages ever sent on this channel.
    next_seq: u64,
    to: u32,
    /// Oldest and newest queued node in the slab, or [`NIL`].
    head: u32,
    tail: u32,
    /// The same sender's previously opened channel, or [`NIL`].
    prev: u32,
}

/// One queued arrival, or a free slot (then `next` links the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    arrival: f64,
    next: u32,
}

/// Hash-free mailbox: one channel table chained per sender, and one
/// slab of queued arrivals with a free list.
#[derive(Debug)]
pub struct IndexedMailbox {
    /// Per sender: its newest channel, or [`NIL`].
    first: Vec<u32>,
    channels: Vec<Channel>,
    nodes: Vec<Node>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
}

/// `len` as the index of the next element pushed.
fn next_index(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(i) if i != NIL => i,
        _ => panic!("mailbox holds more than {NIL} entries"),
    }
}

// The event loop calls these once or twice per simulated message, so
// they are inlined by force: left to the inliner, `push` and
// `find_or_open` were at times compiled out of line, which made a
// one-thread full-machine simulation about 8% slower in an interleaved
// A/B of the two builds.
impl IndexedMailbox {
    /// The channel's index in the table, if it was ever opened.
    #[inline(always)]
    fn find(&self, from: usize, to: u32, tag: u64) -> Option<usize> {
        let mut c = self.first[from];
        while c != NIL {
            let chan = &self.channels[c as usize];
            if chan.to == to && chan.tag == tag {
                return Some(c as usize);
            }
            c = chan.prev;
        }
        None
    }

    /// The channel's index, opening it at the head of `from`'s chain if
    /// it is new.
    #[inline(always)]
    fn find_or_open(&mut self, from: usize, to: u32, tag: u64) -> usize {
        if let Some(c) = self.find(from, to, tag) {
            return c;
        }
        let c = self.channels.len();
        self.channels.push(Channel {
            tag,
            next_seq: 0,
            to,
            head: NIL,
            tail: NIL,
            prev: self.first[from],
        });
        self.first[from] = next_index(c);
        c
    }
}

impl MailboxOps for IndexedMailbox {
    fn with_ranks(n: usize) -> Self {
        assert!(n < NIL as usize, "receivers are stored as u32");
        IndexedMailbox {
            first: vec![NIL; n],
            channels: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
        }
    }

    #[inline(always)]
    fn push(&mut self, from: usize, to: usize, tag: u64, arrival: f64) {
        let c = self.find_or_open(from, to as u32, tag);
        let node = Node { arrival, next: NIL };
        let n = if self.free == NIL {
            let n = next_index(self.nodes.len());
            self.nodes.push(node);
            n
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let chan = &mut self.channels[c];
        match chan.tail {
            NIL => chan.head = n,
            tail => self.nodes[tail as usize].next = n,
        }
        chan.tail = n;
    }

    #[inline(always)]
    fn pop(&mut self, from: usize, to: usize, tag: u64) -> Option<f64> {
        let c = self.find(from, to as u32, tag)?;
        let chan = &mut self.channels[c];
        let n = chan.head;
        if n == NIL {
            return None;
        }
        let Node { arrival, next } = self.nodes[n as usize];
        chan.head = next;
        if next == NIL {
            chan.tail = NIL;
        }
        self.nodes[n as usize].next = self.free;
        self.free = n;
        Some(arrival)
    }

    #[inline(always)]
    fn next_seq(&mut self, from: usize, to: usize, tag: u64) -> u64 {
        let c = self.find_or_open(from, to as u32, tag);
        let chan = &mut self.channels[c];
        let seq = chan.next_seq;
        chan.next_seq += 1;
        seq
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::{HashMap, VecDeque};

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct MsgKey {
        from: usize,
        to: usize,
        tag: u64,
    }

    /// The original `HashMap`-keyed mailbox: the test oracle for
    /// [`IndexedMailbox`]. Semantically identical; only the storage
    /// differs.
    #[derive(Debug, Default)]
    pub(crate) struct ReferenceMailbox {
        queues: HashMap<MsgKey, VecDeque<f64>>,
        send_seq: HashMap<MsgKey, u64>,
    }

    impl MailboxOps for ReferenceMailbox {
        fn with_ranks(_n: usize) -> Self {
            ReferenceMailbox::default()
        }

        fn push(&mut self, from: usize, to: usize, tag: u64, arrival: f64) {
            self.queues
                .entry(MsgKey { from, to, tag })
                .or_default()
                .push_back(arrival);
        }

        fn pop(&mut self, from: usize, to: usize, tag: u64) -> Option<f64> {
            self.queues.get_mut(&MsgKey { from, to, tag })?.pop_front()
        }

        fn next_seq(&mut self, from: usize, to: usize, tag: u64) -> u64 {
            let seq = self.send_seq.entry(MsgKey { from, to, tag }).or_insert(0);
            let s = *seq;
            *seq += 1;
            s
        }
    }

    fn exercise<M: MailboxOps>() -> Vec<(Option<f64>, u64)> {
        let mut m = M::with_ranks(4);
        let mut log = Vec::new();
        // Interleave two channels of the same sender plus a self-channel
        // on a tag with bit 63 set, checking FIFO order and per-channel
        // sequence isolation.
        log.push((None, m.next_seq(0, 1, 7)));
        m.push(0, 1, 7, 1.0);
        m.push(0, 1, 7, 2.0);
        log.push((None, m.next_seq(0, 1, 7)));
        m.push(0, 2, 7, 3.0);
        log.push((m.pop(0, 1, 7), m.next_seq(0, 2, 7)));
        log.push((m.pop(0, 1, 7), m.next_seq(0, 1, 9)));
        log.push((m.pop(0, 1, 7), 0));
        log.push((m.pop(0, 2, 7), 0));
        log.push((m.pop(3, 3, 1 << 63), 0)); // never-sent channel
        m.push(3, 3, 1 << 63, 0.0);
        log.push((m.pop(3, 3, 1 << 63), 0));
        log
    }

    #[test]
    fn fifo_and_sequence_semantics() {
        let log = exercise::<IndexedMailbox>();
        assert_eq!(log[0], (None, 0));
        assert_eq!(log[1], (None, 1));
        assert_eq!(log[2], (Some(1.0), 0)); // seq spaces are per channel
        assert_eq!(log[3], (Some(2.0), 0));
        assert_eq!(log[4], (None, 0));
        assert_eq!(log[5], (Some(3.0), 0));
        assert_eq!(log[6], (None, 0));
        assert_eq!(log[7], (Some(0.0), 0));
    }

    #[test]
    fn indexed_matches_reference() {
        assert_eq!(exercise::<IndexedMailbox>(), exercise::<ReferenceMailbox>());
    }

    const SENDERS: usize = 4;
    const RECEIVERS: usize = 80;
    const TAGS: [u64; 3] = [0, 7 | 1 << 40, 5 | 1 << 63];

    /// A `(from, to, tag)` channel.
    type Chan = (usize, usize, u64);

    /// One mailbox call, or a run of them on one channel.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// `count` pushes of fresh arrivals.
        Push { chan: Chan, count: usize },
        /// `count` pops.
        Pop { chan: Chan, count: usize },
        /// One `next_seq`.
        NextSeq { chan: Chan },
    }

    /// Random traffic over at most [`SENDERS`] senders, [`RECEIVERS`]
    /// receivers and the three [`TAGS`]. Half the steps fall on sender
    /// 0, so it opens dozens of channels; bursts of up to 300 pushes
    /// build deep queues; drains aim at the last burst's channel, so
    /// later pushes reuse the slots they free; and many pops hit
    /// channels nobody sent on.
    #[derive(Debug, Clone)]
    struct Traffic;

    impl Strategy for Traffic {
        type Value = Vec<Step>;

        fn generate(&self, rng: &mut TestRng) -> Vec<Step> {
            let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
            let senders = 1 + below(SENDERS);
            let receivers = 1 + below(RECEIVERS);
            let len = 50 + below(350);
            let mut burst = (0, 0, TAGS[0]);
            (0..len)
                .map(|_| {
                    let from = if below(2) == 0 { 0 } else { below(senders) };
                    let chan = (from, below(receivers), TAGS[below(TAGS.len())]);
                    match below(16) {
                        0..=5 => Step::Push { chan, count: 1 },
                        6..=9 => Step::Pop { chan, count: 1 },
                        10 | 11 => Step::NextSeq { chan },
                        12 => {
                            burst = chan;
                            Step::Push {
                                chan,
                                count: 1 + below(300),
                            }
                        }
                        13 => Step::Pop {
                            chan: burst,
                            count: 1 + below(300),
                        },
                        _ => Step::Pop {
                            chan: burst,
                            count: 1,
                        },
                    }
                })
                .collect()
        }
    }

    /// What one run of a traffic script reached, to show the generator
    /// covers the cases the flat mailbox must get right.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Most channels any one sender opened.
        max_chain: usize,
        /// Deepest queue on any channel.
        max_depth: usize,
        /// Pushes made while some popped slot was free for reuse.
        reused_slots: usize,
        /// Pops on channels nobody had pushed to or sequenced.
        never_sent_pops: usize,
    }

    /// Every value `M` returns over `steps`, in call order. Each push
    /// deposits a distinct arrival, so any out-of-order pop shows.
    fn replay<M: MailboxOps>(steps: &[Step]) -> Vec<(Option<f64>, u64)> {
        let mut m = M::with_ranks(RECEIVERS);
        let mut next_arrival = 0.0;
        let mut log = Vec::new();
        for step in steps {
            match *step {
                Step::Push {
                    chan: (from, to, tag),
                    count,
                } => {
                    for _ in 0..count {
                        next_arrival += 1.0;
                        m.push(from, to, tag, next_arrival);
                    }
                }
                Step::Pop {
                    chan: (from, to, tag),
                    count,
                } => log.extend((0..count).map(|_| (m.pop(from, to, tag), 0))),
                Step::NextSeq {
                    chan: (from, to, tag),
                } => {
                    log.push((None, m.next_seq(from, to, tag)));
                }
            }
        }
        log
    }

    /// The reach of `steps`, counted on a plain model of the mailbox.
    fn coverage(steps: &[Step]) -> Coverage {
        let mut opened: HashMap<Chan, usize> = HashMap::new();
        let mut cov = Coverage::default();
        let (mut live, mut peak) = (0usize, 0usize);
        for step in steps {
            let (chan, pushes, pops) = match *step {
                Step::Push { chan, count } => (chan, count, 0),
                Step::Pop { chan, count } => (chan, 0, count),
                Step::NextSeq { chan } => (chan, 0, 0),
            };
            if pops > 0 && !opened.contains_key(&chan) {
                cov.never_sent_pops += 1;
                continue;
            }
            let depth = opened.entry(chan).or_default();
            let popped = pops.min(*depth);
            *depth = *depth + pushes - popped;
            cov.max_depth = cov.max_depth.max(*depth);
            live -= popped;
            cov.reused_slots += pushes.min(peak - live);
            live += pushes;
            peak = peak.max(live);
            let chain = opened.keys().filter(|c| c.0 == chan.0).count();
            cov.max_chain = cov.max_chain.max(chain);
        }
        cov
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under random traffic every `pop` and `next_seq` of the flat
        /// mailbox returns what the hashed oracle returns.
        #[test]
        fn indexed_matches_reference_under_random_traffic(steps in Traffic) {
            prop_assert_eq!(replay::<IndexedMailbox>(&steps), replay::<ReferenceMailbox>(&steps));
        }
    }

    /// The traffic generator reaches one sender with at least 64
    /// channels, queues hundreds deep, reused slab slots and pops on
    /// channels never sent on, and the flat mailbox matches the oracle
    /// on every script that gets there.
    #[test]
    fn traffic_reaches_long_chains_deep_queues_and_reused_slots() {
        let mut rng = TestRng::new(21);
        let mut total = Coverage::default();
        for _ in 0..64 {
            let steps = Traffic.generate(&mut rng);
            assert_eq!(
                replay::<IndexedMailbox>(&steps),
                replay::<ReferenceMailbox>(&steps)
            );
            let cov = coverage(&steps);
            total.max_chain = total.max_chain.max(cov.max_chain);
            total.max_depth = total.max_depth.max(cov.max_depth);
            total.reused_slots += cov.reused_slots;
            total.never_sent_pops += cov.never_sent_pops;
        }
        assert!(total.max_chain >= 64, "{total:?}");
        assert!(total.max_depth >= 200, "{total:?}");
        assert!(total.reused_slots > 0, "{total:?}");
        assert!(total.never_sent_pops > 0, "{total:?}");
    }
}
