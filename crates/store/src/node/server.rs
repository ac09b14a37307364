//! The server wrapper: a register server behind the batched envelope,
//! its slice of the bulk data plane, and the deployment-derived admission
//! guard every wire field passes before it is trusted.

use super::healer::{Healer, ANTI_ENTROPY_BATCH};
use super::{slot_in_range, Served};
use crate::batcher::DestBatcher;
use crate::msg::StoreMsg;
use sbs_bulk::{
    verify_fragment, BulkDigest, FragmentStore, Holder, ReplicaWindow, SharedBytes, StoredFragment,
};
use sbs_core::{Payload, RegId, RegMsg};
use sbs_sim::{Context, DetRng, Effects, Node, ProcessId, SimDuration, TimerId, TraceEvent};
use std::any::Any;
use std::marker::PhantomData;

/// A server slot of the store fleet: any [`RegMsg`]-speaking server node
/// (correct [`ServerNode`](sbs_core::ServerNode) or a
/// [`ByzServerNode`](sbs_core::ByzServerNode) adversary), unwrapping
/// incoming batches and re-batching its replies — plus this server's slice
/// of the bulk data plane (a verified [`FragmentStore`], retaining values
/// per `(shard, key slot)` holder).
pub struct StoreServerNode<P, Inner> {
    inner: Inner,
    pub(super) frags: FragmentStore,
    guard: BulkGuard,
    pub(super) healer: Option<Healer>,
    byz_bulk: bool,
    batcher: DestBatcher<P>,
    _p: PhantomData<fn() -> P>,
}

/// Deployment-derived admission control for a server's slice of the
/// bulk plane. Everything in a `FRAG_PUT` besides the payload — the
/// shard tag, the key slot, the fragment `total`, the fragment `index` —
/// arrives from the wire, where a Byzantine writer controls it freely;
/// this guard pins each field to what the *deployment* says it must be
/// for this server, so wire lies are refused instead of trusted:
///
/// - the shard must exist (`shard < shards`) and this server must be in
///   its replica window, and the key slot must lie in the deployment's
///   slot space (`slot < KEY_SLOTS`) — otherwise a forger could grow
///   per-holder retention state (holder sets, recency queues) without
///   bound;
/// - a fragment's `total` must be the deployment's `m` — readers verify
///   against `m`, so a fragment committed under any other shape (a
///   degenerate one-leaf "dispersal", say) could never help one, and
///   acknowledging it would certify nothing;
/// - a fragment's `index` must be this server's own window position for
///   the shard (the AVID rule: replica `i` stores fragment `i`) — so a
///   `FRAG_PUT_ACK` certifies the exact fragment the push quorum needs,
///   and pre-seeding a correct replica with some *other* replica's
///   fragment cannot fake `k` distinct verified fragments;
/// - the sender must not be a fleet server: only clients disperse values,
///   and a replica keeps just the last [`sbs_bulk::RETAINED_PER_KEY`]
///   values per key, so a Byzantine server pushing valid dispersals of its
///   own under a key's holder could otherwise evict that key's committed
///   value from every correct replica.
///
/// The shard count also bounds the metadata plane: a register message
/// naming a register id at or above `shards` is refused, since the
/// register server allocates state for every id it is sent.
///
/// [`KEY_SLOTS`]: crate::KEY_SLOTS
#[derive(Clone, Debug)]
pub(super) struct BulkGuard {
    /// This server's slot in the fleet (index into `servers`).
    pub(super) slot: usize,
    /// Fleet server process ids in slot order.
    pub(super) servers: Vec<ProcessId>,
    /// Shards deployed (the router's shard count).
    shards: u32,
    /// Data replicas per shard window (0 under full replication — every
    /// bulk-plane push is then a forgery by definition).
    pub(super) replicas: usize,
}

impl BulkGuard {
    /// The deployment's data-replica windows.
    fn window(&self) -> ReplicaWindow<'_, ProcessId> {
        ReplicaWindow::new(&self.servers, self.replicas)
    }

    /// This server's position inside `shard`'s replica window, if the
    /// shard exists and the window covers this server.
    pub(super) fn own_position(&self, shard: u32) -> Option<usize> {
        if shard >= self.shards {
            return None;
        }
        self.window().slot_position(shard, self.slot)
    }

    /// The *other* servers of `shard`'s replica window, in window order —
    /// the repair pull targets. Empty when this server is outside the
    /// window.
    pub(super) fn peers(&self, shard: u32) -> Vec<ProcessId> {
        if self.own_position(shard).is_none() {
            return Vec::new();
        }
        let mut peers = self.window().members(shard);
        peers.retain(|&p| p != self.servers[self.slot]);
        peers
    }
}

/// Counts and traces one admission refusal.
fn refuse<M, O>(ctx: &mut Context<'_, M, O>, shard: u32, what: &'static str) {
    ctx.note_guard_refusal();
    ctx.trace(TraceEvent::GuardRefusal { shard, what });
}

/// The one Byzantine serve-garbling: start from whatever the replica
/// holds (fabricating `0xAB` filler on a miss, so the adversary never
/// *looks* like a miss) and flip one byte to a guaranteed-different
/// value, copy-on-write — the stored entry stays intact. Draw order
/// (position, then xor mask) is pinned: the fetch, miss, and repair serve
/// paths all share this helper, so all three draw the same RNG stream.
fn garble_served(bytes: Option<&[u8]>, rng: &mut DetRng) -> SharedBytes {
    let mut g: Vec<u8> = bytes.map_or_else(|| vec![0xAB; 16], |b| b.to_vec());
    let i = (rng.next_u64() as usize) % g.len();
    g[i] ^= 1 + (rng.next_u64() % 255) as u8;
    g.into()
}

impl<P: Payload, Inner> StoreServerNode<P, Inner> {
    /// Wraps `inner` as fleet slot `slot` of `servers` (the whole fleet in
    /// slot order), in a store of `shards` shards with `replicas` data
    /// replicas per window (0 under full replication). Wire-supplied
    /// senders, shard tags, fragment totals and fragment indices are
    /// checked against this shape — a `FRAG_PUT` must come from outside
    /// the fleet and carry exactly this replica's window position and the
    /// deployment's fragment count — instead of trusted.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the fleet.
    pub fn new(
        inner: Inner,
        slot: usize,
        servers: Vec<ProcessId>,
        shards: u32,
        replicas: usize,
    ) -> Self {
        assert!(slot < servers.len(), "server slot {slot} outside the fleet");
        StoreServerNode {
            inner,
            frags: FragmentStore::new(),
            guard: BulkGuard {
                slot,
                servers,
                shards,
                replicas,
            },
            healer: None,
            byz_bulk: false,
            batcher: DestBatcher::new(),
            _p: PhantomData,
        }
    }

    /// Installs the **self-healing plane**: this replica pulls missing
    /// or corrupt entries from its window peers (`REPAIR_REQ`), answers
    /// peers' pulls, re-checks integrity of everything it serves, and
    /// gossips bounded digest summaries every `period` (anti-entropy).
    /// `k` is the plane's reconstruction threshold.
    /// Off by default — without this call the node emits no repair-plane
    /// messages, arms no timers, and draws no extra randomness, so
    /// fault-free runs stay bit-identical to builds that predate
    /// self-healing.
    pub fn self_healing(mut self, k: usize, period: SimDuration) -> Self {
        self.healer = Some(Healer::new(k, period));
        self
    }

    /// Wipes this server's fragment store — the data-wipe fault a
    /// self-healing deployment must recover from. Metadata (register)
    /// state is untouched; the store forgets its evictions too, so every
    /// value its peers still hold is a repair suspect again.
    pub fn wipe_data_stores(&mut self) {
        self.frags.wipe();
    }

    /// Makes this server's **data plane** Byzantine too: it stores
    /// fragments like a correct replica (so its storage footprint — and
    /// its put acknowledgements — are indistinguishable) but garbles
    /// every fragment it serves — exactly the attack the client-side
    /// commitment check must catch. Note the adversary stays
    /// *responsive*: it acks puts honestly, which is what keeps `k > 1`
    /// pushes (`k + t` acks on a `2t + 1` window) live in simulation;
    /// see [`DataPlane::Coded`](super::DataPlane::Coded) for the
    /// fail-silent caveat.
    pub fn byzantine_bulk(mut self) -> Self {
        self.byz_bulk = true;
        self
    }

    /// The wrapped node (for assertions in tests).
    pub fn inner(&self) -> &Inner {
        &self.inner
    }

    /// This server's fragment store (for placement and storage-footprint
    /// assertions).
    pub fn frag_store(&self) -> &FragmentStore {
        &self.frags
    }

    /// What this replica serves for `root` on `shard`'s behalf: the
    /// fragment stored for the shard's window position (overlapping
    /// windows can hold several indices of an aliased root; any verified
    /// one helps a reader), or `None` on a miss. A Byzantine replica
    /// garbles the bytes copy-on-write — the stored fragment stays
    /// intact — and answers a miss with fabricated filler instead.
    fn serve(&self, shard: u32, root: &BulkDigest, rng: &mut DetRng) -> Option<Served> {
        let held = self.frags.get_for(shard, root);
        if !self.byz_bulk {
            return held.map(|f| (f.index, f.bytes.clone(), f.proof.clone()));
        }
        Some(match held {
            Some(f) => (f.index, garble_served(Some(&f.bytes), rng), f.proof.clone()),
            None => (0, garble_served(None, rng), Vec::new()),
        })
    }
}

impl<P: Payload, Inner: Node<Msg = RegMsg<P>>> StoreServerNode<P, Inner> {
    /// Runs `f` on the inner register node in a sub-context, then
    /// re-emits its effects: sends batched per destination, timers
    /// forwarded, outputs passed through.
    fn run_inner(
        &mut self,
        ctx: &mut Context<'_, StoreMsg<P>, Inner::Out>,
        f: impl FnOnce(&mut Inner, &mut Context<'_, RegMsg<P>, Inner::Out>),
    ) {
        let mut eff: Effects<RegMsg<P>, Inner::Out> = Effects::new();
        let inner = &mut self.inner;
        ctx.with_effects(&mut eff, |sub| f(inner, sub));
        for o in self.batcher.forward_batched(eff, ctx) {
            ctx.output(o);
        }
    }
}

impl<P: Payload, Inner: std::fmt::Debug> std::fmt::Debug for StoreServerNode<P, Inner> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServerNode")
            .field("inner", &self.inner)
            .field("fragments", &self.frags.fragment_count())
            .field("byz_bulk", &self.byz_bulk)
            .finish()
    }
}

impl<P, Inner> Node for StoreServerNode<P, Inner>
where
    P: Payload,
    Inner: Node<Msg = RegMsg<P>>,
{
    type Msg = StoreMsg<P>;
    type Out = Inner::Out;

    fn on_start(&mut self, ctx: &mut Context<'_, StoreMsg<P>, Inner::Out>) {
        if let Some(h) = &mut self.healer {
            h.arm(ctx);
        }
        self.run_inner(ctx, |inner, sub| inner.on_start(sub));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: StoreMsg<P>,
        ctx: &mut Context<'_, StoreMsg<P>, Inner::Out>,
    ) {
        match msg {
            StoreMsg::Batch(batch) => {
                // Admission: the register id is wire data too. The
                // deployment's registers are exactly its shards, so any
                // other id is refused — the register server would
                // otherwise allocate a slot for every id a peer names.
                let shards = self.guard.shards;
                self.run_inner(ctx, |inner, sub| {
                    for m in batch {
                        if let Some(RegId(reg)) = m.reg() {
                            if reg >= shards {
                                refuse(sub, reg, "register-id");
                                continue;
                            }
                        }
                        inner.on_message(from, m, sub);
                    }
                });
            }
            StoreMsg::FragPut {
                shard,
                slot,
                root,
                index,
                total,
                bytes,
                proof,
            } => {
                // Admission: `shard`, `total`, `index` and `slot` are wire
                // data. Only clients disperse values — a server pushing
                // dispersals of its own could evict a key's committed
                // value. Only store under shards this server actually
                // serves (a full-replication server serves none), pin the
                // dispersal shape to the deployment's and the index to
                // *this replica's* window position (the AVID rule), so an
                // acknowledgement always certifies the one fragment the
                // push quorum counts on this replica holding; and keep the
                // slot inside the deployment's slot space, so a forger
                // cannot grow per-holder retention state without bound.
                let g = &self.guard;
                let refusal = if g.servers.contains(&from) {
                    Some("frag-put-from-server")
                } else if total as usize != g.replicas
                    || g.own_position(shard) != Some(index as usize)
                {
                    Some("frag-put-shape")
                } else if !slot_in_range(slot) {
                    Some("key-slot")
                } else {
                    None
                };
                if let Some(what) = refusal {
                    refuse(ctx, shard, what);
                    return;
                }
                // Verify-before-store: the Merkle path is replayed against
                // the announced root, so a fragment that does not belong
                // to the committed set (link garbage, a lying writer) is
                // refused silently and never acknowledged. Storing shares
                // the wire message's allocation — no copy on the receive
                // path.
                let frag = StoredFragment {
                    index,
                    total,
                    bytes,
                    proof,
                };
                if self.frags.put(Holder::new(shard, slot), root, frag).held() {
                    ctx.send(from, StoreMsg::FragPutAck { shard, root, index });
                }
            }
            StoreMsg::BulkGet {
                shard,
                slot,
                digest,
                tag,
            } => {
                // A Byzantine replica neither re-checks nor repairs.
                if let Some(h) = self.healer.as_mut().filter(|_| !self.byz_bulk) {
                    // Self-healing integrity re-check on serve: the Merkle
                    // path is replayed on the way out, and a fragment that
                    // stopped verifying is dropped and repaired instead of
                    // served (the check costs a re-hash per serve, so it
                    // is off without the healer).
                    let corrupt = self.frags.get_for(shard, &digest).is_some_and(|f| {
                        !verify_fragment(
                            digest,
                            f.total as usize,
                            f.index as usize,
                            &f.bytes,
                            &f.proof,
                        )
                    });
                    if corrupt {
                        self.frags.remove(&digest);
                        h.start_repair(&self.guard, (shard, slot, digest), ctx);
                    }
                    // Held nowhere: a replica that should serve this shard
                    // suspects the entry and pulls it from its window
                    // peers if it is still missing after the grace sweep —
                    // the reactive trigger that mends a wiped store once a
                    // reader notices. (A corrupt entry's repair is already
                    // pending, which the suspect rule skips; a reader
                    // chasing an evicted value plants nothing.)
                    h.suspect_missing(&self.guard, &self.frags, (shard, slot, digest));
                }
                let frag = self.serve(shard, &digest, ctx.rng());
                ctx.send(
                    from,
                    StoreMsg::FragGetAck {
                        shard,
                        root: digest,
                        tag,
                        frag,
                    },
                );
            }
            StoreMsg::RepairRequest {
                shard,
                slot,
                digest,
            } => {
                // Peer pull of the self-healing plane. Only a healing
                // deployment answers (fault-free builds never see the
                // message), and only for shards this server's window
                // actually covers and slots of the deployment's space.
                if self.healer.is_none() {
                    return;
                }
                if self.guard.own_position(shard).is_none() || !slot_in_range(slot) {
                    refuse(ctx, shard, "repair-unserved");
                    return;
                }
                let frag = self.serve(shard, &digest, ctx.rng());
                ctx.send(
                    from,
                    StoreMsg::RepairReply {
                        shard,
                        slot,
                        digest,
                        frag,
                    },
                );
            }
            StoreMsg::RepairReply {
                shard,
                slot,
                digest,
                frag,
            } => {
                if let Some(h) = &mut self.healer {
                    let entry = (shard, slot, digest);
                    h.on_repair_reply(&self.guard, &mut self.frags, from, entry, frag, ctx);
                }
            }
            StoreMsg::DigestSummary { entries } => {
                // Anti-entropy pull, deferred: whatever a peer retains
                // for a window this server covers but neither holds nor
                // evicted itself becomes a repair suspect — the sweep on
                // the next ticks pulls it only if it stays missing, so
                // gossip that merely outran a still-in-flight push
                // never opens a pull.
                let Some(h) = &mut self.healer else {
                    return;
                };
                // Admission: sender and length are wire data. Summaries
                // travel between fleet servers and carry one gossip
                // batch at most; anything else is refused before it can
                // plant suspects — each of which would ripen into a pull
                // re-fanned every tick, so an unbounded summary (a
                // 16 MiB frame names ≈ 466 000 digests) is an unbounded
                // amount of repair work for a correct replica.
                let refusal = if !self.guard.servers.contains(&from) {
                    Some("summary-foreign")
                } else if entries.len() > ANTI_ENTROPY_BATCH {
                    Some("summary-oversize")
                } else {
                    None
                };
                if let Some(what) = refusal {
                    let shard = entries.first().map_or(0, |&(shard, _, _)| shard);
                    refuse(ctx, shard, what);
                    return;
                }
                for entry in entries {
                    h.suspect_missing(&self.guard, &self.frags, entry);
                }
            }
            // Client-bound replies arriving at a server are garbage.
            StoreMsg::FragPutAck { .. } | StoreMsg::FragGetAck { .. } => {}
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, StoreMsg<P>, Inner::Out>) {
        // The anti-entropy timer belongs to the wrapper, not the inner
        // register machine — intercept it before forwarding.
        if let Some(h) = &mut self.healer {
            if h.timer == Some(timer) {
                h.on_anti_entropy_tick(&self.guard, &self.frags, ctx);
                return;
            }
        }
        self.run_inner(ctx, |inner, sub| inner.on_timer(timer, sub));
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        // Every field, so a new one is a compile error until it is
        // classed here (ROADMAP item 2(b)'s field table).
        let Self {
            inner,
            frags: _,    // not yet scrambled: item 2(b)
            guard: _,    // config: the deployment's shape
            healer: _,   // not yet scrambled: item 2(b)
            byz_bulk: _, // config: the adversary's choice
            batcher: _,  // derived: empty between handlers
            _p: _,
        } = self;
        inner.on_corrupt(rng);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
