//! The client's view of the ss-broadcast layer, plus acknowledgement
//! anchoring.
//!
//! [`ClientLink`] wraps an [`SsBroadcaster`] (one per client). Clients are
//! sequential, so one broadcast is *active* at a time: the current
//! operation's round. A writer's helping round (`NEW_HELP_VAL`) may run
//! *detached* beside it ([`ClientLink::broadcast_detached`]), at most one
//! per register, finishing while the client's next operations broadcast.
//! The link also maintains the **anchor map** that makes protocol
//! acknowledgements safely attributable without wire sequence numbers:
//!
//! A correct server, upon ss-delivering a request, first sends `SS_ACK(tag)`
//! and then its protocol acknowledgement. Links are FIFO, so when an
//! `ACK_WRITE`/`ACK_READ` from server `s` arrives, the most recent
//! `SS_ACK` tag received from `s` identifies exactly which broadcast it
//! answers. A transient fault can scramble the anchor map, but the very
//! next `SS_ACK` from each server re-anchors it — the mechanism is
//! self-stabilizing and lives entirely inside the broadcast abstraction,
//! which is how the paper's protocols avoid sequence numbers on
//! acknowledgements (§3.1 remark).
//!
//! Detached helping rounds keep the anchors right: `NEW_HELP_VAL` has no
//! protocol acknowledgement, so a helping `SS_ACK` re-anchors its server
//! but no `ACK_READ`/`ACK_WRITE` is ever attributed through it — every
//! protocol acknowledgement still directly follows its own `SS_ACK`.

use crate::msg::RegMsg;
use sbs_link::{AckOutcome, SsBroadcaster, SsTag};
use sbs_sim::{Context, DetRng, ProcessId};
use std::collections::BTreeMap;

/// Client-side broadcast state: the active ss-broadcast, the detached
/// helping rounds, and the per-server acknowledgement anchors.
#[derive(Clone, Debug)]
pub struct ClientLink {
    bcaster: SsBroadcaster,
    anchor: BTreeMap<ProcessId, SsTag>,
}

impl ClientLink {
    /// Creates the link for broadcasts to `servers`, tolerating `t`
    /// Byzantine servers.
    pub fn new(servers: Vec<ProcessId>, t: usize) -> Self {
        ClientLink {
            bcaster: SsBroadcaster::new(servers, t),
            anchor: BTreeMap::new(),
        }
    }

    /// The destination servers.
    pub fn servers(&self) -> &[ProcessId] {
        self.bcaster.servers()
    }

    /// ss-broadcasts one message to every server: allocates the tag, builds
    /// the concrete message with `make`, sends to all. Returns the tag.
    pub fn broadcast<P, O>(
        &mut self,
        ctx: &mut Context<'_, RegMsg<P>, O>,
        make: impl Fn(SsTag) -> RegMsg<P>,
    ) -> SsTag
    where
        P: Clone + std::fmt::Debug,
    {
        let tag = self.bcaster.start();
        self.send_all(ctx, make(tag));
        tag
    }

    /// Like [`ClientLink::broadcast`], but the broadcast is *detached*,
    /// filed under `slot`: later active broadcasts do not abandon it, and
    /// it replaces `slot`'s previous detached broadcast. It is tracked
    /// until [`ClientLink::release`] of `slot`.
    pub fn broadcast_detached<P, O>(
        &mut self,
        slot: u32,
        ctx: &mut Context<'_, RegMsg<P>, O>,
        make: impl Fn(SsTag) -> RegMsg<P>,
    ) -> SsTag
    where
        P: Clone + std::fmt::Debug,
    {
        let tag = self.bcaster.start_detached(slot);
        self.send_all(ctx, make(tag));
        tag
    }

    /// Stops tracking `slot`'s detached broadcast; its late acks are
    /// ignored.
    pub fn release(&mut self, slot: u32) {
        self.bcaster.release(slot);
    }

    /// Detached broadcasts currently tracked — at most one per slot.
    pub fn detached(&self) -> usize {
        self.bcaster.detached()
    }

    fn send_all<P, O>(&self, ctx: &mut Context<'_, RegMsg<P>, O>, msg: RegMsg<P>)
    where
        P: Clone + std::fmt::Debug,
    {
        for &s in self.bcaster.servers() {
            ctx.send(s, msg.clone());
        }
    }

    /// Processes an `SS_ACK`: re-anchors this server and feeds the
    /// broadcast completion counter.
    pub fn on_ss_ack(&mut self, from: ProcessId, tag: SsTag) -> AckOutcome {
        self.anchor.insert(from, tag);
        self.bcaster.on_ack(from, tag)
    }

    /// The broadcast a protocol acknowledgement from `from` answers: the
    /// most recent `SS_ACK` tag seen from it.
    pub fn anchored_tag(&self, from: ProcessId) -> Option<SsTag> {
        self.anchor.get(&from).copied()
    }

    /// True once the broadcast identified by `tag` — active or detached —
    /// has completed (the synchronized-delivery postcondition holds).
    pub fn is_complete(&self, tag: SsTag) -> bool {
        self.bcaster.is_completed_tag(tag)
    }

    /// True once every one of the `n` servers has `SS_ACK`ed the broadcast
    /// identified by `tag` — the evidence that ends a synchronous round
    /// before its timeout.
    pub fn is_acked_by_all(&self, tag: SsTag) -> bool {
        self.bcaster.is_acked_by_all(tag)
    }

    /// Transient-fault hook: scrambles the anchors, which re-align on the
    /// next `SS_ACK` from each server. The broadcaster (tag counter, the
    /// active and the detached broadcasts' ack sets) is left as it is.
    pub fn corrupt(&mut self, rng: &mut DetRng) {
        for (_, tag) in self.anchor.iter_mut() {
            *tag = rng.next_u64();
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
    fn anchors_follow_ss_acks() {
        let mut link = ClientLink::new(servers(5), 1);
        assert_eq!(link.anchored_tag(ProcessId(0)), None);
        let tag = link.bcaster.start();
        link.on_ss_ack(ProcessId(0), tag);
        assert_eq!(link.anchored_tag(ProcessId(0)), Some(tag));
        assert_eq!(link.anchored_tag(ProcessId(1)), None);
    }

    #[test]
    fn completion_is_tag_specific() {
        let mut link = ClientLink::new(servers(5), 1); // quorum 4
        let tag = link.bcaster.start();
        for i in 0..4 {
            link.on_ss_ack(ProcessId(i), tag);
        }
        assert!(link.is_complete(tag));
        assert!(!link.is_complete(tag + 1));
    }

    #[test]
    fn corrupted_anchors_realign_on_next_ack() {
        let mut rng = DetRng::from_seed(5);
        let mut link = ClientLink::new(servers(5), 1);
        let t0 = link.bcaster.start();
        link.on_ss_ack(ProcessId(0), t0);
        link.corrupt(&mut rng);
        // The anchor is now garbage…
        assert_ne!(link.anchored_tag(ProcessId(0)), Some(t0));
        // …until the server acks the next broadcast.
        let t1 = link.bcaster.start();
        link.on_ss_ack(ProcessId(0), t1);
        assert_eq!(link.anchored_tag(ProcessId(0)), Some(t1));
    }
}
