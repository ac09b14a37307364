//! The client/server halves of the `ss-broadcast` abstraction (§2.1).
//!
//! The paper's register algorithms are written against a built-in broadcast
//! primitive with six properties: *termination*, *eventual delivery*,
//! *synchronized delivery* (when `ss_broadcast(m)` returns, at least
//! `n − 2t` correct servers have already delivered `m`), *no duplication*,
//! *validity*, and *order delivery*. Over the reliable FIFO links of the
//! model, these are obtained with a thin session layer:
//!
//! - the client tags each broadcast and counts link-level acknowledgements;
//!   the broadcast *completes* once `n − t` distinct servers acked, which
//!   guarantees at least `n − 2t` correct servers delivered (synchronized
//!   delivery). Acks keep being recorded up to all `n`: a synchronous
//!   round ends early on that evidence instead of on its timeout;
//! - one broadcast is *active* — the current operation's round — and any
//!   number of *detached* ones, at most one per caller-chosen slot, finish
//!   beside it: a round an operation no longer waits for (a writer's
//!   helping round) keeps counting its acks while the next operation
//!   broadcasts. All draw tags from one counter;
//! - servers deliver payloads in arrival order (FIFO links preserve
//!   broadcast order) and suppress adjacent duplicates of the same tag
//!   (no duplication even if a transient fault re-injects the packet).
//!
//! This layer is deliberately *not* the bounded-capacity data-link protocol
//! of footnote 3 — that protocol lives in [`crate::datalink`] and is what
//! one would run beneath this layer on real, bounded, lossy channels: after
//! at most one initial message it delivers every send exactly once, in
//! order — the reliable FIFO link this layer assumes.
//!
//! Both halves are plain state machines ("sans I/O"): they decide *what* to
//! send and deliver, the caller does the sending. That keeps them usable
//! from any runtime.

use sbs_sim::{DetRng, ProcessId};
use std::collections::HashMap;

/// A session tag identifying one `ss_broadcast` invocation of one client.
pub type SsTag = u64;

/// Client half: tracks the in-flight broadcasts and their
/// acknowledgements.
///
/// One instance per (client, destination-set) pair. Clients in the paper
/// are sequential, so at most one broadcast is *active* at a time;
/// starting a new one while active simply abandons the old (its late acks
/// are ignored), which is what an operation restarted after a transient
/// fault does anyway.
///
/// Beside the active broadcast run *detached* ones
/// ([`SsBroadcaster::start_detached`]): rounds an operation leaves
/// behind when it completes — a writer's helping round — which finish on
/// their own while the client's next operations broadcast. Each is filed
/// under a caller-chosen slot (the register it writes), at most one per
/// slot, so the set is bounded by the slots in use. Active and detached
/// broadcasts draw their tags from one counter: every broadcast carries a
/// tag no other one of this client has used recently, so a server's
/// adjacent-duplicate rule never swallows a fresh one.
#[derive(Clone, Debug)]
pub struct SsBroadcaster {
    servers: Vec<ProcessId>,
    ack_quorum: usize,
    next_tag: SsTag,
    active: Option<Broadcast>,
    /// Detached broadcasts by slot, at most one per slot.
    detached: Vec<(u32, Broadcast)>,
}

#[derive(Clone, Debug)]
struct Broadcast {
    tag: SsTag,
    acked: Vec<ProcessId>,
    completed: bool,
}

/// What [`SsBroadcaster::on_ack`] observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckOutcome {
    /// The ack completed its broadcast (quorum reached just now).
    JustCompleted,
    /// The ack was recorded without completing the broadcast: the quorum
    /// is not reached yet, or was reached by an earlier ack.
    Counted,
    /// The ack was stale (no active or detached broadcast has its tag),
    /// duplicated, or from a process that is not a destination server; it
    /// was ignored.
    Ignored,
}

impl SsBroadcaster {
    /// Creates the client half for broadcasts to `servers`, tolerating `t`
    /// Byzantine servers: completion requires `n − t` acks.
    ///
    /// # Panics
    ///
    /// Panics if `servers.len() <= t`.
    pub fn new(servers: Vec<ProcessId>, t: usize) -> Self {
        assert!(
            servers.len() > t,
            "need more than t={t} servers, got {}",
            servers.len()
        );
        let ack_quorum = servers.len() - t;
        SsBroadcaster {
            servers,
            ack_quorum,
            next_tag: 0,
            active: None,
            detached: Vec::new(),
        }
    }

    /// The destination servers.
    pub fn servers(&self) -> &[ProcessId] {
        &self.servers
    }

    /// Number of acknowledgements required for completion (`n − t`).
    pub fn ack_quorum(&self) -> usize {
        self.ack_quorum
    }

    /// Starts a broadcast and returns its tag. The caller must send the
    /// payload, wrapped with this tag, to every server in
    /// [`SsBroadcaster::servers`]. Any previously active broadcast is
    /// abandoned; detached ones are not.
    pub fn start(&mut self) -> SsTag {
        let b = self.fresh();
        let tag = b.tag;
        self.active = Some(b);
        tag
    }

    /// Starts a detached broadcast filed under `slot` and returns its tag.
    /// It runs beside the active broadcast — [`SsBroadcaster::start`] does
    /// not abandon it — and completes by the same `n − t` rule. The
    /// slot's previous detached broadcast, if any, is abandoned (a
    /// retransmission replaces its round). It stays tracked until
    /// [`SsBroadcaster::release`] of its slot.
    pub fn start_detached(&mut self, slot: u32) -> SsTag {
        let b = self.fresh();
        let tag = b.tag;
        match self.detached.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, old)) => *old = b,
            None => self.detached.push((slot, b)),
        }
        tag
    }

    /// Stops tracking `slot`'s detached broadcast: its late acks are
    /// ignored from now on. A slot with none is left as it is.
    pub fn release(&mut self, slot: u32) {
        self.detached.retain(|(s, _)| *s != slot);
    }

    /// Detached broadcasts currently tracked — at most one per slot.
    pub fn detached(&self) -> usize {
        self.detached.len()
    }

    /// A new broadcast under the next tag of the shared counter.
    fn fresh(&mut self) -> Broadcast {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        Broadcast {
            tag,
            acked: Vec::with_capacity(self.servers.len()),
            completed: false,
        }
    }

    /// The tracked broadcast — active or detached — carrying `tag`.
    fn find(&self, tag: SsTag) -> Option<&Broadcast> {
        let detached = self.detached.iter().map(|(_, b)| b);
        self.active.iter().chain(detached).find(|b| b.tag == tag)
    }

    /// Processes a link-level acknowledgement of `tag` from `from`, for
    /// the active broadcast or a detached one. Every distinct destination
    /// server is recorded once, also past the quorum;
    /// [`AckOutcome::JustCompleted`] is returned exactly once per
    /// broadcast, by the ack that reaches `n − t`.
    pub fn on_ack(&mut self, from: ProcessId, tag: SsTag) -> AckOutcome {
        if !self.servers.contains(&from) {
            return AckOutcome::Ignored;
        }
        let detached = self.detached.iter_mut().map(|(_, b)| b);
        let Some(b) = self
            .active
            .iter_mut()
            .chain(detached)
            .find(|b| b.tag == tag)
        else {
            return AckOutcome::Ignored;
        };
        if b.acked.contains(&from) {
            return AckOutcome::Ignored;
        }
        b.acked.push(from);
        if !b.completed && b.acked.len() >= self.ack_quorum {
            b.completed = true;
            AckOutcome::JustCompleted
        } else {
            AckOutcome::Counted
        }
    }

    /// True while a broadcast is in flight and not yet completed.
    pub fn in_flight(&self) -> bool {
        matches!(self.active, Some(ref a) if !a.completed)
    }

    /// True if the most recent broadcast has completed (synchronized
    /// delivery postcondition holds: ≥ `n − 2t` correct servers delivered).
    pub fn last_completed(&self) -> bool {
        matches!(self.active, Some(ref a) if a.completed)
    }

    /// True if the broadcast identified by `tag` — the active one or a
    /// detached one — is tracked and has completed.
    pub fn is_completed_tag(&self, tag: SsTag) -> bool {
        self.find(tag).is_some_and(|b| b.completed)
    }

    /// True if the broadcast identified by `tag` — the active one or a
    /// detached one — is tracked and every one of the `n` destination
    /// servers has acknowledged it. A Byzantine server is a single
    /// identity, so this implies all `n − t` correct servers delivered
    /// `tag`.
    pub fn is_acked_by_all(&self, tag: SsTag) -> bool {
        self.find(tag)
            .is_some_and(|b| b.acked.len() == self.servers.len())
    }

    /// Transient-fault hook: scrambles the tag counter and in-flight state.
    /// A detached broadcast is forgotten or scrambled in place; none is
    /// added, so the set stays within the slots it held.
    pub fn corrupt(&mut self, rng: &mut DetRng) {
        self.next_tag = rng.next_u64();
        self.active = rng.chance(0.5).then(|| Broadcast {
            tag: rng.next_u64(),
            acked: Vec::new(),
            completed: rng.chance(0.5),
        });
        self.detached.retain_mut(|(_, b)| {
            if rng.chance(0.5) {
                return false;
            }
            *b = Broadcast {
                tag: rng.next_u64(),
                acked: Vec::new(),
                completed: rng.chance(0.5),
            };
            true
        });
    }
}

/// Server half: decides, for each incoming tagged payload, whether to
/// deliver it to the protocol and confirms receipt.
///
/// One instance per server, shared across all clients it talks to.
#[derive(Clone, Debug, Default)]
pub struct SsReceiver {
    /// Last tag delivered per sender (adjacent-duplicate suppression).
    last_tag: HashMap<ProcessId, SsTag>,
}

/// The action a server takes for an incoming tagged payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reception {
    /// Deliver the payload to the protocol handler *and* acknowledge.
    DeliverAndAck,
    /// Acknowledge only — the payload is an adjacent duplicate.
    AckOnly,
}

impl SsReceiver {
    /// Creates a fresh receiver.
    pub fn new() -> Self {
        SsReceiver::default()
    }

    /// Processes the arrival of a payload tagged `tag` from client `from`.
    pub fn on_payload(&mut self, from: ProcessId, tag: SsTag) -> Reception {
        match self.last_tag.get(&from) {
            Some(&last) if last == tag => Reception::AckOnly,
            _ => {
                self.last_tag.insert(from, tag);
                Reception::DeliverAndAck
            }
        }
    }

    /// Transient-fault hook: forgets / scrambles delivery history.
    pub fn corrupt(&mut self, rng: &mut DetRng) {
        for (_, v) in self.last_tag.iter_mut() {
            *v = rng.next_u64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: u32) -> Vec<ProcessId> {
        (0..n).map(ProcessId).collect()
    }

    #[test]
    fn completes_exactly_at_quorum() {
        let mut b = SsBroadcaster::new(servers(9), 1); // quorum 8
        let tag = b.start();
        assert!(b.in_flight());
        for i in 0..7 {
            assert_eq!(b.on_ack(ProcessId(i), tag), AckOutcome::Counted);
        }
        assert_eq!(b.on_ack(ProcessId(7), tag), AckOutcome::JustCompleted);
        assert!(b.last_completed());
        assert!(!b.in_flight());
        assert!(!b.is_acked_by_all(tag), "8 of 9 is the quorum, not all n");
        // The ack past the quorum is recorded, and completion fired once.
        assert_eq!(b.on_ack(ProcessId(8), tag), AckOutcome::Counted);
        assert!(b.is_acked_by_all(tag));
        assert!(!b.is_acked_by_all(tag.wrapping_add(1)));
        assert!(b.is_completed_tag(tag));
    }

    #[test]
    fn duplicate_acks_do_not_double_count() {
        let mut b = SsBroadcaster::new(servers(3), 1); // quorum 2
        let tag = b.start();
        assert_eq!(b.on_ack(ProcessId(0), tag), AckOutcome::Counted);
        assert_eq!(b.on_ack(ProcessId(0), tag), AckOutcome::Ignored);
        assert_eq!(b.on_ack(ProcessId(1), tag), AckOutcome::JustCompleted);
        // Past the quorum too: one server repeating itself is not all n.
        assert_eq!(b.on_ack(ProcessId(1), tag), AckOutcome::Ignored);
        assert!(!b.is_acked_by_all(tag));
    }

    #[test]
    fn acks_from_non_servers_are_ignored() {
        let mut b = SsBroadcaster::new(servers(3), 1); // quorum 2
        let tag = b.start();
        assert_eq!(b.on_ack(ProcessId(0), tag), AckOutcome::Counted);
        // ProcessId(7) is not a destination: it cannot complete the quorum…
        assert_eq!(b.on_ack(ProcessId(7), tag), AckOutcome::Ignored);
        assert!(b.in_flight());
        assert_eq!(b.on_ack(ProcessId(1), tag), AckOutcome::JustCompleted);
        // …nor stand in for the third server.
        assert_eq!(b.on_ack(ProcessId(8), tag), AckOutcome::Ignored);
        assert!(!b.is_acked_by_all(tag));
        assert_eq!(b.on_ack(ProcessId(2), tag), AckOutcome::Counted);
        assert!(b.is_acked_by_all(tag));
    }

    #[test]
    fn stale_tags_are_ignored() {
        let mut b = SsBroadcaster::new(servers(3), 1);
        let old = b.start();
        let new = b.start(); // abandons `old`
        assert_eq!(b.on_ack(ProcessId(0), old), AckOutcome::Ignored);
        assert_eq!(b.on_ack(ProcessId(0), new), AckOutcome::Counted);
    }

    #[test]
    fn tags_are_fresh_per_broadcast() {
        let mut b = SsBroadcaster::new(servers(3), 1);
        let t1 = b.start();
        let t2 = b.start();
        assert_ne!(t1, t2);
    }

    #[test]
    fn a_detached_broadcast_completes_after_newer_active_ones() {
        let mut b = SsBroadcaster::new(servers(5), 1); // quorum 4
        let help = b.start_detached(3);
        for i in 0..2 {
            assert_eq!(b.on_ack(ProcessId(i), help), AckOutcome::Counted);
        }
        // The next operation's round, then its retransmission: neither
        // abandons the detached broadcast.
        let read = b.start();
        let retry = b.start();
        assert_eq!(b.on_ack(ProcessId(0), read), AckOutcome::Ignored);
        assert_eq!(b.on_ack(ProcessId(0), retry), AckOutcome::Counted);
        assert_eq!(b.on_ack(ProcessId(2), help), AckOutcome::Counted);
        assert!(!b.is_completed_tag(help));
        assert_eq!(b.on_ack(ProcessId(3), help), AckOutcome::JustCompleted);
        assert!(b.is_completed_tag(help) && !b.is_acked_by_all(help));
        assert_eq!(b.on_ack(ProcessId(4), help), AckOutcome::Counted);
        assert!(b.is_acked_by_all(help));
        // The active round kept its own count throughout.
        assert!(b.in_flight() && !b.is_completed_tag(retry));
    }

    #[test]
    fn a_released_or_replaced_detached_broadcast_ignores_late_acks() {
        let mut b = SsBroadcaster::new(servers(3), 1);
        let first = b.start_detached(0);
        assert_eq!(b.on_ack(ProcessId(0), first), AckOutcome::Counted);
        // A retransmission under the same slot replaces the round.
        let second = b.start_detached(0);
        assert_eq!(b.detached(), 1);
        assert_eq!(b.on_ack(ProcessId(1), first), AckOutcome::Ignored);
        assert_eq!(b.on_ack(ProcessId(1), second), AckOutcome::Counted);
        b.release(0);
        assert_eq!(b.detached(), 0);
        assert_eq!(b.on_ack(ProcessId(2), second), AckOutcome::Ignored);
        assert!(!b.is_completed_tag(second) && !b.is_acked_by_all(second));
        b.release(0); // releasing an empty slot is a no-op
    }

    #[test]
    fn active_and_detached_tags_are_never_adjacent_duplicates() {
        let mut b = SsBroadcaster::new(servers(3), 1);
        let mut r = SsReceiver::new();
        let client = ProcessId(9);
        let tags = [
            b.start(),
            b.start_detached(0),
            b.start(),
            b.start_detached(1),
            b.start_detached(0),
            b.start(),
        ];
        for tag in tags {
            assert_eq!(
                r.on_payload(client, tag),
                Reception::DeliverAndAck,
                "tag {tag} is fresh"
            );
        }
    }

    #[test]
    fn the_detached_set_is_bounded_by_its_slots_also_after_corrupt() {
        let mut rng = DetRng::from_seed(11);
        let mut b = SsBroadcaster::new(servers(5), 1);
        for round in 0..20 {
            for slot in 0..3 {
                b.start_detached(slot);
            }
            b.start();
            assert_eq!(b.detached(), 3, "round {round}");
            b.corrupt(&mut rng);
            assert!(b.detached() <= 3, "a fault adds no detached broadcast");
        }
        // Whatever the fault left, restarting and releasing every slot
        // leaves nothing behind.
        for slot in 0..3 {
            let tag = b.start_detached(slot);
            for i in 0..4 {
                b.on_ack(ProcessId(i), tag);
            }
            assert!(b.is_completed_tag(tag));
            b.release(slot);
        }
        assert_eq!(b.detached(), 0);
    }

    #[test]
    #[should_panic(expected = "more than t")]
    fn rejects_degenerate_configs() {
        SsBroadcaster::new(servers(1), 1);
    }

    #[test]
    fn receiver_delivers_fresh_and_suppresses_adjacent_duplicates() {
        let mut r = SsReceiver::new();
        let c = ProcessId(42);
        assert_eq!(r.on_payload(c, 5), Reception::DeliverAndAck);
        assert_eq!(r.on_payload(c, 5), Reception::AckOnly);
        assert_eq!(r.on_payload(c, 6), Reception::DeliverAndAck);
        // A different client's tags are tracked independently.
        assert_eq!(r.on_payload(ProcessId(43), 5), Reception::DeliverAndAck);
    }

    #[test]
    fn corruption_recovers_on_next_broadcast() {
        let mut rng = DetRng::from_seed(7);
        let mut b = SsBroadcaster::new(servers(5), 1); // quorum 4
        b.corrupt(&mut rng);
        // Whatever the corrupted state, a fresh start() works normally.
        let tag = b.start();
        for i in 0..3 {
            assert_eq!(b.on_ack(ProcessId(i), tag), AckOutcome::Counted);
        }
        assert_eq!(b.on_ack(ProcessId(3), tag), AckOutcome::JustCompleted);
    }

    #[test]
    fn corrupted_receiver_may_redeliver_but_then_realigns() {
        let mut rng = DetRng::from_seed(8);
        let mut r = SsReceiver::new();
        let c = ProcessId(0);
        assert_eq!(r.on_payload(c, 1), Reception::DeliverAndAck);
        r.corrupt(&mut rng);
        // Post-fault behaviour is arbitrary for one payload…
        let _ = r.on_payload(c, 1);
        // …but tags advance and suppression works again.
        assert_eq!(r.on_payload(c, 2), Reception::DeliverAndAck);
        assert_eq!(r.on_payload(c, 2), Reception::AckOnly);
    }
}
