//! In-flight message storage for the engine's eager matching.
//!
//! The engine's hottest operations are `push`/`pop` of arrival times
//! keyed by `(from, to, tag)` — one pair per simulated message. The
//! original implementation hashed that key into a
//! `HashMap<MsgKey, VecDeque<f64>>` (plus a second map for send
//! sequence numbers), paying two SipHash computations per message.
//!
//! [`IndexedMailbox`] replaces the hash with an index: channels are
//! bucketed per *sender*, and a sender's active `(to, tag)` channels
//! live in a small `Vec` scanned linearly. The workloads here are
//! stencil/ring/wavefront codes where a rank talks to a handful of
//! neighbours on a handful of tags, so the scan is a few cache-resident
//! comparisons — no hashing, no pointer chasing. Channels also fuse the
//! send-sequence counter with the queue, halving the bookkeeping.
//!
//! The engine is generic over [`MailboxOps`]. The original
//! implementation survives only in tests, as `ReferenceMailbox`: the
//! oracle that the index is checked against, here and at the engine
//! level.

#[cfg(test)]
use std::collections::HashMap;
use std::collections::VecDeque;

/// The mailbox operations the engine needs. `push`/`pop` must be FIFO
/// per `(from, to, tag)` channel (MPI ordering); `next_seq` returns a
/// per-channel counter 0, 1, 2, … identifying each send for
/// schedule-independent fault sampling.
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

/// One sender's active channel to a `(to, tag)` destination.
#[derive(Debug, Default)]
struct Channel {
    to: usize,
    tag: u64,
    /// FIFO of undelivered arrival times.
    queue: VecDeque<f64>,
    /// Messages ever sent on this channel.
    next_seq: u64,
}

/// Hash-free mailbox: per-sender channel lists, scanned linearly.
///
/// A channel, once created, is never removed — the set of `(to, tag)`
/// pairs a rank uses is small and static in every workload here, so
/// the list stays short and hot in cache for the whole simulation.
#[derive(Debug)]
pub struct IndexedMailbox {
    by_sender: Vec<Vec<Channel>>,
}

impl IndexedMailbox {
    #[inline]
    fn chan(&mut self, from: usize, to: usize, tag: u64) -> &mut Channel {
        let chans = &mut self.by_sender[from];
        match chans.iter().position(|c| c.to == to && c.tag == tag) {
            Some(i) => &mut chans[i],
            None => {
                chans.push(Channel {
                    to,
                    tag,
                    ..Channel::default()
                });
                chans.last_mut().expect("just pushed")
            }
        }
    }

    /// Look up without creating (the pop path must not allocate
    /// channels for messages never sent).
    #[inline]
    fn chan_mut(&mut self, from: usize, to: usize, tag: u64) -> Option<&mut Channel> {
        self.by_sender[from]
            .iter_mut()
            .find(|c| c.to == to && c.tag == tag)
    }
}

impl MailboxOps for IndexedMailbox {
    fn with_ranks(n: usize) -> Self {
        IndexedMailbox {
            by_sender: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    #[inline]
    fn push(&mut self, from: usize, to: usize, tag: u64, arrival: f64) {
        self.chan(from, to, tag).queue.push_back(arrival);
    }

    #[inline]
    fn pop(&mut self, from: usize, to: usize, tag: u64) -> Option<f64> {
        self.chan_mut(from, to, tag)?.queue.pop_front()
    }

    #[inline]
    fn next_seq(&mut self, from: usize, to: usize, tag: u64) -> u64 {
        let c = self.chan(from, to, tag);
        let seq = c.next_seq;
        c.next_seq += 1;
        seq
    }
}

#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MsgKey {
    from: usize,
    to: usize,
    tag: u64,
}

/// The original `HashMap`-keyed mailbox: the test oracle for
/// [`IndexedMailbox`]. Semantically identical; only the lookup
/// mechanism differs.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct ReferenceMailbox {
    queues: HashMap<MsgKey, VecDeque<f64>>,
    send_seq: HashMap<MsgKey, u64>,
}

#[cfg(test)]
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

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<M: MailboxOps>() -> Vec<(Option<f64>, u64)> {
        let mut m = M::with_ranks(4);
        let mut log = Vec::new();
        // Interleave two channels of the same sender plus a self-channel
        // (the engine's exchange marker pattern), checking FIFO order
        // and per-channel sequence isolation.
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
}
