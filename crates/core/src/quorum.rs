//! One quorum round — its request, its responders and its retransmission
//! timer — and the preference that makes the next round thrifty.

use rmem_types::{Message, ProcessId, RequestId, TimerToken};

/// One quorum round: the request it sends, the distinct processes that
/// answered it, and the timer that retransmits it.
///
/// Acks are deduplicated by sender (the fair-lossy network may duplicate
/// messages, and retransmitted rounds re-solicit every replica), so the
/// count is of *distinct* responders — the paper's
/// "until receive … from ⌈(n+1)/2⌉ processes". They are counted through
/// [`Preferred::record`], so a round that completes tells the node's
/// preference who they were.
#[derive(Debug, Clone)]
pub(crate) struct Round {
    /// The request, sent whole again by every retransmission.
    pub msg: Message,
    acked: Vec<ProcessId>,
    threshold: usize,
    reached: bool,
    /// The retransmission timer armed last for this round.
    pub timer: TimerToken,
}

impl Round {
    /// Starts tracking the round of `msg`, needing `threshold` distinct
    /// acks and retransmitted on `timer`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(msg: Message, threshold: usize, timer: TimerToken) -> Self {
        assert!(threshold > 0, "a quorum threshold must be positive");
        Round {
            msg,
            acked: Vec::with_capacity(threshold),
            threshold,
            reached: false,
            timer,
        }
    }

    /// Whether `req` belongs to this round.
    pub fn matches(&self, req: RequestId) -> bool {
        self.msg.request_id() == req
    }

    /// Records an ack from `from`. Returns `true` exactly once: when the
    /// threshold is first reached. Acks past it are still counted.
    fn record(&mut self, from: ProcessId) -> bool {
        if !self.acked.contains(&from) {
            self.acked.push(from);
        }
        if !self.reached && self.acked.len() >= self.threshold {
            self.reached = true;
            return true;
        }
        false
    }

    /// Whether `from` has answered.
    pub fn has_acked(&self, from: ProcessId) -> bool {
        self.acked.contains(&from)
    }

    /// Whether the threshold has been reached.
    pub fn is_reached(&self) -> bool {
        self.reached
    }
}

/// Where a **thrifty** round goes first: this process and the peers that
/// completed its most recent quorum — `majority − 1` of them when this
/// process was in that quorum, as it is whenever it answers itself
/// first.
///
/// The paper's rounds (Figs. 4–5) go to all `n` processes and wait for a
/// majority, so every write is logged on every replica although only a
/// majority's logs are causal. A thrifty round asks just a majority — the
/// one that answered last time — and widens to all `n` only when its
/// retransmission timer fires. Until a quorum has completed there is no
/// preference and the first send goes to everyone. (A quorum this process
/// was not in is kept whole: the first send then still holds a full
/// quorum that answered, one process more than a majority.)
#[derive(Debug, Clone)]
pub struct Preferred {
    me: ProcessId,
    /// The peers of the last completed quorum; empty until one completed.
    peers: Vec<ProcessId>,
}

impl Preferred {
    /// No preference yet, for process `me`.
    pub fn new(me: ProcessId) -> Self {
        Preferred {
            me,
            peers: Vec::new(),
        }
    }

    /// Records an ack from `from` in `round`; returns `true` exactly once,
    /// on the ack that reaches its threshold, and then remembers who
    /// completed it — its quorum, but this process.
    pub(crate) fn record(&mut self, round: &mut Round, from: ProcessId) -> bool {
        if !round.record(from) {
            return false;
        }
        let me = self.me;
        self.peers.clear();
        self.peers.extend(round.acked.iter().filter(|&&p| p != me));
        true
    }

    /// The destinations of a thrifty round's first send among `n`
    /// processes, in process order: this one and the preferred peers, or
    /// everyone while there is no preference.
    pub fn first_send(&self, n: usize) -> impl Iterator<Item = ProcessId> + '_ {
        let everyone = self.peers.is_empty();
        ProcessId::all(n).filter(move |p| everyone || *p == self.me || self.peers.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> RequestId {
        RequestId::new(ProcessId(0), 1)
    }

    fn round(threshold: usize) -> Round {
        Round::new(Message::Read { req: req() }, threshold, TimerToken(0))
    }

    #[test]
    fn reaches_threshold_exactly_once() {
        let mut q = round(3);
        assert!(!q.record(ProcessId(0)));
        assert!(!q.record(ProcessId(1)));
        assert!(
            q.record(ProcessId(2)),
            "third distinct ack reaches the threshold"
        );
        assert!(!q.record(ProcessId(3)), "later acks do not re-trigger");
        assert!(q.is_reached());
        // … but they are counted.
        assert!(q.has_acked(ProcessId(3)) && !q.has_acked(ProcessId(4)));
    }

    #[test]
    fn duplicate_acks_do_not_count() {
        let mut q = round(2);
        assert!(!q.record(ProcessId(1)));
        assert!(!q.record(ProcessId(1)));
        assert!(!q.record(ProcessId(1)));
        assert!(!q.is_reached());
        assert!(q.record(ProcessId(2)));
    }

    #[test]
    fn matches_filters_stale_rounds() {
        let q = round(1);
        assert!(q.matches(req()));
        assert!(!q.matches(RequestId::new(ProcessId(0), 2)));
        assert!(!q.matches(RequestId::new(ProcessId(1), 1)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_panics() {
        let _ = round(0);
    }

    fn first_send(pref: &Preferred, n: usize) -> Vec<u16> {
        pref.first_send(n).map(|p| p.0).collect()
    }

    #[test]
    fn a_preference_is_the_last_quorum_minus_this_process() {
        let me = ProcessId(2);
        let mut pref = Preferred::new(me);
        assert_eq!(first_send(&pref, 5), [0, 1, 2, 3, 4], "no history: all");
        // A quorum of three out of five, this process among them.
        let mut q = round(3);
        let completed: Vec<bool> = [4, 2, 0].map(|p| pref.record(&mut q, ProcessId(p))).into();
        assert_eq!(completed, [false, false, true]);
        assert_eq!(first_send(&pref, 5), [0, 2, 4]);
        // One that completed without this process: all of it, and this
        // process.
        let mut q = round(3);
        for p in [3, 1, 3, 4, 0] {
            pref.record(&mut q, ProcessId(p));
        }
        assert_eq!(first_send(&pref, 5), [1, 2, 3, 4]);
    }
}
