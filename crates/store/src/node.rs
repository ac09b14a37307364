//! The multiplexing store nodes: existing register state machines wrapped
//! behind the batched [`StoreMsg`] envelope, plus the content-addressed
//! **bulk data plane**.
//!
//! Neither wrapper reimplements any register-protocol logic. The embedded
//! machines — [`ServerCore`]-based servers, the client-side
//! [`ReadEngine`] / [`WriteEngine`] — run unmodified inside a sub-context
//! ([`Context::with_effects`]) speaking their native [`RegMsg`] wire
//! type; the wrapper then re-emits their effects with all messages to one
//! destination coalesced into a single [`StoreMsg::Batch`] (via the
//! indexed, reusable [`DestBatcher`]). Timer ids are allocated from the
//! shared counter, so forwarding them preserves identity and the
//! engines' stale-timer filtering keeps working.
//!
//! # Coalescing
//!
//! A client launches an operation the moment it is idle — nothing is
//! ever held. Operations that arrive while a round is in flight queue
//! (only open-loop load queues: a closed-loop client has one operation
//! outstanding), and when the pump next launches from idle it gathers
//! every queued same-kind operation on the launching shard into **one**
//! register round: queued puts fold into a single map publish,
//! group-commit style (each still completes individually, and per-key
//! write order stays exactly invocation order; on the bulk plane each put
//! key's latest value is dispersed inside the one push phase), queued
//! gets on the shard share a single metadata read (each projects its own
//! key from the same snapshot; on the bulk plane each distinct value is
//! then fetched once, one after another). A gathered op may complete
//! ahead of queued neighbors on *other* shards or of the other kind; it
//! still overlaps them (all are invoked, none completed), so the
//! reordering stays within the latitude the register contract grants
//! concurrent operations — the differential tests pin this.
//!
//! # The bulk data plane (AVID-style dispersal)
//!
//! Snapshot-per-`put` of the *values* is the full plane only. Under
//! [`DataPlane::Coded`] the register machines never see a value: a
//! shard's register holds its [`RefMap`] — every key's [`ValueRef`]
//! (key slot + [`BulkRef`], 44 bytes) — and the writer's authoritative
//! state is that map. A `put(k, v)` encodes `v` alone into `m = 2t + 1`
//! `k`-of-`m` fragments (~`1/k` of the value each) and commits to them
//! with a Merkle tree whose root becomes the value's [`BulkRef`] digest.
//! Replica `i` of the shard's window gets fragment `i` with its Merkle
//! path (`FRAG_PUT`, retained under `k`'s slot) and verifies *its own
//! fragment* against the root before storing and acknowledging. The push
//! waits for `k + t` acknowledgements — so `k` **correct** replicas hold
//! verified fragments — before publishing the map with `k ↦ ref(v)`
//! through the unmodified metadata quorum. A `get(k)` runs the unchanged
//! metadata read and answers "absent" with no fetch when the map lacks
//! `k`; otherwise it fetches `k`'s fragments from the data replicas
//! (`BULK_GET`) and reconstructs from any `k` replies that **re-verify
//! against the root**. The fetch starts *before* the read decides: once
//! the read's sanity probe completes, the client prefetches the value
//! whose reference a `last_quorum()` of the probe's acks name, beside the
//! read loop, and keeps that fetch if the read decides the same reference
//! (see [`Phase::Reading`]) — so on the common path a get costs two
//! metadata rounds with the data round overlapped, not three rounds in
//! series. A Byzantine data replica garbling the fragment (or
//! proof) it serves simply counts as a bad reply, and the client keeps
//! waiting for honest ones (falling back to a retransmission round, and
//! ultimately to a metadata re-read, if a round's bad replies leave fewer
//! than `k` possible — the latter also recovers from fabricated
//! references that transient corruption may have planted in a register).
//! Per-key atomicity holds by projection exactly as under full
//! replication: the register value is still the whole shard, of
//! references, and a reference pins an immutable value. A put costs its
//! value, not its shard.
//!
//! Whole copies — [`StoreBuilder::bulk`](crate::StoreBuilder::bulk) — are
//! `k = 1`: every fragment is the value, `t + 1` acknowledgements
//! publish, one verified reply resolves a read.
//!
//! Adoption — writer-map recovery and reshard acquisition — takes the
//! reference map straight from the quorum read, then resolves each
//! reference once and drops a key whose reference is dead (see
//! [`Resolving`] for why that rule keeps gets live).
//!
//! # Live resharding (dual-commit shard handoff)
//!
//! A shard migrates between writers in two moves, both driven by the
//! harness, which owns the routing table as configuration (see the
//! `router` module docs for the epoch model):
//!
//! 1. **Old owner** — [`StoreClientNode::retire_shard`] marks the shard
//!    *retiring*: already-queued puts still publish (the dual-commit
//!    window — readers keep accepting its stamps, since stamps carry no
//!    writer identity), and once the last queued put on the shard has
//!    drained the owner drops the shard and emits
//!    [`StoreOut::ShardRetired`]. From then on a put routed here panics —
//!    the "refuses further puts" half of the contract.
//! 2. **New owner** — [`StoreClientNode::grant_shard`] starts *staging*
//!    puts routed here mid-handoff; [`StoreClientNode::acquire_shard`]
//!    (issued after every moved shard's retire) quorum-reads
//!    the shard, adopts the old owner's last committed map (on the bulk
//!    plane: its reference map, each reference resolved once), resyncs
//!    the stamper onto its stamp, republishes, emits
//!    [`StoreOut::ShardAcquired`], and flushes the staged puts. Because
//!    the adoption read starts only after the old owner's final publish
//!    completed, the new owner's first stamp is its clockwise successor —
//!    the register sequence continues as if the writer never changed,
//!    which is exactly why a resharded run's per-key write histories are
//!    equivalent to a static run's.
//!
//! [`ServerCore`]: sbs_core::ServerCore

use crate::batcher::DestBatcher;
use crate::map::ShardMap;
use crate::msg::{Holding, StoreMsg, StoreOut};
use crate::router::KeyRouter;
use crate::val::{RefMap, StoreVal, ValueRef, KEY_SLOTS};
use sbs_bulk::{
    coded_push_quorum, data_replica_slots, encode_fragments, fragment_leaves, fragment_len,
    reconstruct, verify_fragment, BulkCodec, BulkDigest, BulkRef, FragmentStore, Holder,
    MerkleTree, SharedBytes, StoredFragment,
};
use sbs_core::{
    AtomicPolicy, ClientLink, Payload, ReadEngine, ReadPolicy, ReadProgress, RegId, RegMsg,
    RegisterConfig, SeqVal, WriteEngine, WriteStamper, WsnStamp,
};
use sbs_sim::{Context, DetRng, Effects, Node, OpId, ProcessId, SimDuration, TimerId, TraceEvent};
use sbs_stamps::RingSeq;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

/// The wire payload of every store shard: a sequence-stamped
/// [`StoreVal`] (the practically-atomic SWMR register of Figure 3 /
/// §5.1, with the map of values — or of value references — as the
/// stored value).
pub type StorePayload<V> = SeqVal<StoreVal<V>>;

/// The store's simulation-wide message type.
pub type StoreWire<V> = StoreMsg<StorePayload<V>>;

type StoreCtx<'a, V> = Context<'a, StoreWire<V>, StoreOut<V>>;

/// Where shard payload bytes live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataPlane {
    /// Every write carries the whole map to all `n` servers through the
    /// register protocol (the paper's original scheme; compatibility
    /// default).
    Full,
    /// Erasure-coded dispersal (AVID-style): each of the `replicas`
    /// window servers holds **one** `k`-of-`replicas` fragment of each
    /// value (~`1/k` of it) verified against a Merkle commitment whose
    /// root is the value's register-visible digest; the metadata quorum
    /// carries each key's `(slot, root, len)` reference. Any `k` verified
    /// fragments reconstruct; pushes wait for `k + t` acknowledgements.
    /// `k = 1` is whole-copy replication.
    ///
    /// Liveness trade of `k > 1`: on the minimal `m = 2t + 1` window the
    /// push quorum `k + t` exceeds the `t + 1` honest replicas — writes
    /// then need acknowledgements from *responsive* Byzantine replicas
    /// too. The workspace's adversaries
    /// store-and-ack honestly (their lies are in what they *serve*), so
    /// puts stay live here; a deployment that must also ride out
    /// **fail-silent** data replicas should overprovision the window to
    /// `m ≥ k + 2t` (e.g. `data_replicas(3t + 1)` before
    /// `bulk_coded(t + 1)` — the classical AVID shape), at which point
    /// `k + t` acks arrive from honest replicas alone.
    Coded {
        /// Data replicas (= fragments) per shard — `2t + 1` for
        /// Byzantine tolerance.
        replicas: usize,
        /// Fragments needed to reconstruct; `k + t ≤ replicas` so
        /// reads stay live with `t` Byzantine replicas.
        k: usize,
    },
}

/// Consecutive fetch retransmission rounds before the client falls back
/// to re-reading the metadata register (which recovers from fabricated
/// references and from metadata that has since moved on).
const FETCH_ROUNDS_PER_READ: u32 = 2;

/// A server slot of the store fleet: any [`RegMsg`]-speaking server node
/// (correct [`ServerNode`](sbs_core::ServerNode) or a
/// [`ByzServerNode`](sbs_core::ByzServerNode) adversary), unwrapping
/// incoming batches and re-batching its replies — plus this server's slice
/// of the bulk data plane (a verified [`FragmentStore`], retaining values
/// per `(shard, key slot)` holder).
pub struct StoreServerNode<P, Inner> {
    inner: Inner,
    frags: FragmentStore,
    guard: Option<BulkGuard>,
    healer: Option<Healer>,
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
#[derive(Clone, Debug)]
struct BulkGuard {
    /// This server's slot in the fleet (index into `servers`).
    slot: usize,
    /// Fleet server process ids in slot order.
    servers: Vec<ProcessId>,
    /// Shards deployed (the router's shard count).
    shards: u32,
    /// Data replicas per shard window (0 under full replication — every
    /// bulk-plane push is then a forgery by definition).
    replicas: usize,
}

impl BulkGuard {
    /// Fleet size.
    fn n(&self) -> usize {
        self.servers.len()
    }

    /// This server's position inside `shard`'s replica window, if the
    /// shard exists and the window covers this server.
    fn window_position(&self, shard: u32) -> Option<usize> {
        let n = self.n();
        if shard >= self.shards || n == 0 {
            return None;
        }
        let pos = (self.slot + n - shard as usize % n) % n;
        (pos < self.replicas).then_some(pos)
    }
}

/// True iff `slot` lies in the deployment's key-slot space — the bound a
/// replica needs on holder slots named by the wire (see [`BulkGuard`]).
fn slot_in_range(slot: u32) -> bool {
    slot < KEY_SLOTS
}

/// Entries gossiped per anti-entropy round: a rotation cursor walks the
/// replica's own holdings, so every digest is eventually announced
/// without any single summary growing with store size.
const ANTI_ENTROPY_BATCH: usize = 32;

/// Self-healing state for one data replica, installed by
/// [`StoreServerNode::self_healing`]. Holds the in-flight pull jobs, the
/// repair suspects and the anti-entropy gossip cursors; the fleet map the
/// repair fan-out needs is the guard's. Absent by default: a node without
/// it sends no repair-plane messages and arms no timers, keeping
/// fault-free runs bit-identical.
struct Healer {
    /// Fragments needed to reconstruct a dispersal.
    k: usize,
    /// Anti-entropy gossip period.
    period: SimDuration,
    /// The armed anti-entropy timer, re-armed every tick.
    timer: Option<TimerId>,
    /// In-flight repair pulls by `(shard, slot, digest)` — the slot is
    /// the holder the repaired entry is retained under. Deduplicates
    /// triggers: a digest re-requested while its pull is outstanding
    /// joins the existing job instead of fanning again.
    pending: BTreeMap<Holding, RepairJob>,
    /// Entries observed missing (a reader's miss, a peer's summary)
    /// but not yet pulled, with an `armed` flag. The sweep in
    /// `on_anti_entropy_tick` arms fresh suspects and opens pulls only
    /// for armed ones still missing — at least one full period of
    /// grace, longer than every link-delay bound, so a copy that was
    /// merely in flight (a writer committing on a sub-window push
    /// quorum, gossip outrunning the push) lands and clears itself
    /// instead of billing repair rounds to a fault-free run.
    suspects: BTreeMap<Holding, bool>,
    /// Round-robin cursor over peers for digest summaries.
    peer_cursor: usize,
    /// Rotation cursor over own holdings for bounded summaries.
    holdings_cursor: usize,
}

/// One in-flight repair pull: the verified evidence collected so far.
#[derive(Default)]
struct RepairJob {
    /// Commitment-verified fragments by index.
    frags: BTreeMap<u32, SharedBytes>,
    /// Peers whose reply could not help (miss, bad fragment, bad proof).
    /// When every window peer is here the reference is fabricated or
    /// gone fleet-wide and the job is dropped — the bound that stops a
    /// forged `BULK_GET` digest from leaving a pull open forever.
    noes: BTreeSet<ProcessId>,
}

/// A fragment as served on the wire: `(index, bytes, Merkle path)`.
type Served = (u32, SharedBytes, Vec<BulkDigest>);

/// The one Byzantine serve-garbling: start from whatever the replica
/// holds (fabricating `0xAB` filler on a miss, so the adversary never
/// *looks* like a miss) and flip one byte to a guaranteed-different
/// value, copy-on-write — the stored entry stays intact. Draw order
/// (position, then xor mask) is pinned: the fetch, miss, and repair serve
/// paths all share this helper, so their RNG streams stay bit-identical
/// to the pre-refactor copies.
fn garble_served(bytes: Option<&[u8]>, rng: &mut DetRng) -> SharedBytes {
    let mut g: Vec<u8> = bytes.map_or_else(|| vec![0xAB; 16], |b| b.to_vec());
    let i = (rng.next_u64() as usize) % g.len();
    g[i] ^= 1 + (rng.next_u64() % 255) as u8;
    g.into()
}

impl<P: Payload, Inner> StoreServerNode<P, Inner> {
    /// Wraps `inner`. Without [`StoreServerNode::bulk_guard`] the bulk
    /// plane accepts any verified payload (the permissive raw-node
    /// behavior unit tests rely on); deployments built through
    /// [`StoreBuilder`](crate::StoreBuilder) always install the guard.
    pub fn new(inner: Inner) -> Self {
        StoreServerNode {
            inner,
            frags: FragmentStore::new(),
            guard: None,
            healer: None,
            byz_bulk: false,
            batcher: DestBatcher::new(),
            _p: PhantomData,
        }
    }

    /// Installs the deployment-derived bulk admission guard: this
    /// server is fleet slot `slot` of `servers` (the whole fleet in slot
    /// order), and the store deploys `shards` shards with `replicas` data
    /// replicas per window (0 under full replication). Wire-supplied shard
    /// tags, fragment totals, and fragment indices are then checked
    /// against the deployment — a `FRAG_PUT` must come from outside the
    /// fleet and carry exactly this replica's window position and the
    /// deployment's fragment count — instead of trusted.
    pub fn bulk_guard(
        mut self,
        slot: usize,
        servers: Vec<ProcessId>,
        shards: u32,
        replicas: usize,
    ) -> Self {
        self.guard = Some(BulkGuard {
            slot,
            servers,
            shards,
            replicas,
        });
        self
    }

    /// Installs the **self-healing plane**: this replica pulls missing
    /// or corrupt entries from its window peers (`REPAIR_REQ`), answers
    /// peers' pulls, re-checks integrity of everything it serves, and
    /// gossips bounded digest summaries every `period` (anti-entropy).
    /// The peers are the fleet of [`Self::bulk_guard`], without which the
    /// plane stays silent; `k` is the plane's reconstruction threshold.
    /// Off by default — without this call the node emits no repair-plane
    /// messages, arms no timers, and draws no extra randomness, so
    /// fault-free runs stay bit-identical to builds that predate
    /// self-healing.
    pub fn self_healing(mut self, k: usize, period: SimDuration) -> Self {
        self.healer = Some(Healer {
            k: k.max(1),
            period,
            timer: None,
            pending: BTreeMap::new(),
            suspects: BTreeMap::new(),
            peer_cursor: 0,
            holdings_cursor: 0,
        });
        self
    }

    /// Wipes this server's fragment store — the data-wipe fault a
    /// self-healing deployment must recover from. Metadata (register)
    /// state is untouched; the store forgets its evictions too, so every
    /// value its peers still hold is a repair suspect again.
    pub fn wipe_data_stores(&mut self) {
        self.frags.wipe();
    }

    /// The *other* servers of `shard`'s replica window, in slot order —
    /// the repair pull targets. Empty when self-healing is off, the
    /// guard is missing, or this server is outside the window.
    fn window_peers(&self, shard: u32) -> Vec<ProcessId> {
        let (Some(g), Some(_)) = (&self.guard, &self.healer) else {
            return Vec::new();
        };
        if g.window_position(shard).is_none() {
            return Vec::new();
        }
        let n = g.n();
        let base = shard as usize % n;
        (0..g.replicas.min(n))
            .map(|off| (base + off) % n)
            .filter(|&slot| slot != g.slot)
            .map(|slot| g.servers[slot])
            .collect()
    }

    /// Marks `(shard, slot, digest)` as a repair suspect. The pull opens
    /// at the second anti-entropy tick from now, and only if the entry is
    /// still missing then — a miss is not yet evidence of loss, because
    /// the observer may simply be ahead of this replica's copy: writers
    /// commit on a sub-window push quorum (a reader's `BULK_GET` can
    /// beat the last push), and gossip can outrun a push entirely.
    /// Corruption detected on serve skips this and repairs immediately
    /// ([`Self::start_repair`]): a failed commitment re-check is proof of
    /// damage, not a race.
    ///
    /// An entry this replica holds is no suspect, and neither is one its
    /// holder evicted: that is an old value of the key, which retention
    /// dropped on purpose (pulling it back would undo the bound, and a
    /// repair could not store it anyway — see [`FragmentStore::repair`]).
    fn suspect_missing(&mut self, entry: Holding) {
        let (shard, slot, digest) = entry;
        let in_window = |g: &BulkGuard| g.window_position(shard).is_some();
        if !slot_in_range(slot)
            || !self.guard.as_ref().is_some_and(in_window)
            || self.frags.holds(&digest)
            || self.frags.evicted(Holder::new(shard, slot), &digest)
            || self.window_peers(shard).is_empty()
        {
            return;
        }
        let Some(h) = &mut self.healer else { return };
        if h.pending.contains_key(&entry) {
            return;
        }
        h.suspects.entry(entry).or_insert(false);
    }

    /// Opens a repair pull for `(shard, slot, digest)`: notes the
    /// slow-path round, traces it, and fans a `REPAIR_REQ` to every
    /// window peer. A digest already being pulled joins the existing job
    /// instead.
    fn start_repair<O>(&mut self, entry: Holding, ctx: &mut Context<'_, StoreMsg<P>, O>) {
        let (shard, slot, digest) = entry;
        let peers = self.window_peers(shard);
        if !slot_in_range(slot) || peers.is_empty() {
            return;
        }
        let Some(h) = &mut self.healer else { return };
        if h.pending.contains_key(&entry) {
            return;
        }
        h.pending.insert(entry, RepairJob::default());
        ctx.note_repair_round();
        ctx.trace(TraceEvent::Phase {
            shard,
            phase: "RepairStart",
        });
        for p in peers {
            ctx.send(
                p,
                StoreMsg::RepairRequest {
                    shard,
                    slot,
                    digest,
                },
            );
        }
    }

    /// Folds one peer's `REPAIR_REPLY` into the matching pull job:
    /// commitment-verified fragments are collected until any `k` distinct
    /// indices are present, which finishes the repair — the repaired
    /// entry is retained under the job's key slot if that holder has a
    /// free retention slot, and dropped otherwise (a repair never evicts).
    /// Everything is re-verified against `digest` before storing — a
    /// Byzantine peer can garble any field of the reply.
    fn on_repair_reply<O>(
        &mut self,
        from: ProcessId,
        entry: Holding,
        frag: Option<Served>,
        ctx: &mut Context<'_, StoreMsg<P>, O>,
    ) {
        let (shard, slot, digest) = entry;
        let quorum = self.window_peers(shard).len();
        let Some(g) = &self.guard else { return };
        let Some(h) = &mut self.healer else { return };
        let Some(job) = h.pending.get_mut(&entry) else {
            return;
        };
        let m = g.replicas;
        match frag {
            Some((index, b, proof))
                if (index as usize) < m
                    && verify_fragment(digest, m, index as usize, &b, &proof) =>
            {
                job.frags.insert(index, b);
            }
            _ => {
                job.noes.insert(from);
                if job.noes.len() >= quorum {
                    h.pending.remove(&entry);
                }
                return;
            }
        }
        let k = h.k;
        if job.frags.len() < k {
            return;
        }
        let pairs: Vec<(u32, SharedBytes)> =
            job.frags.iter().map(|(i, b)| (*i, b.clone())).collect();
        h.pending.remove(&entry);
        // `k` verified fragments determine the codeword. The replica
        // does not know the payload's true length (that is metadata),
        // so it reconstructs the zero-padded `k·⌈len/k⌉` payload —
        // `fragment_len` of the padded length is the fragment length
        // again, so re-encoding reproduces the exact committed fragment
        // set. The re-derived root must equal `digest`: a mismatch
        // means the writer committed a non-codeword dispersal (or a
        // peer slipped an aliased fragment set past the index bound) —
        // refuse the repair rather than store an unservable fragment.
        let flen = pairs[0].1.len() as u64;
        let Some(padded) = reconstruct(k, flen * k as u64, &pairs) else {
            return;
        };
        let frags = encode_fragments(&padded, k, m);
        let tree = MerkleTree::build(&fragment_leaves(&frags));
        if tree.root() != digest {
            return;
        }
        // Re-derive *this replica's own* window-position fragment — the
        // AVID rule the put-path guard enforces holds for repaired
        // fragments too.
        let Some(pos) = g.window_position(shard) else {
            return;
        };
        let stored = StoredFragment {
            index: pos as u32,
            total: m as u32,
            bytes: frags[pos].clone(),
            proof: tree.proof(pos),
        };
        self.frags.repair(Holder::new(shard, slot), digest, stored);
        ctx.trace(TraceEvent::Phase {
            shard,
            phase: "RepairDone",
        });
    }

    /// One anti-entropy round: sweep the suspect set (arm fresh
    /// suspects, open pulls for armed ones still missing), gossip a
    /// bounded, rotating slice of this server's holdings to the next
    /// peer round-robin, re-fan any still-pending repair pulls
    /// (forgetting previous misses, so a peer that was itself mid-wipe
    /// gets asked again), and re-arm the period timer.
    ///
    /// The summary is read from the store's holdings index, so a tick
    /// costs the batch, not the store: holdings in `(shard, root)` order,
    /// each announced with the lowest key slot of the shard holding it,
    /// as one list the cursor rotates over.
    fn on_anti_entropy_tick<O>(&mut self, ctx: &mut Context<'_, StoreMsg<P>, O>) {
        let g = &self.guard;
        let frags = &self.frags;
        let Some(h) = &mut self.healer else { return };
        h.timer = Some(ctx.set_timer(h.period));
        // Two-phase suspect sweep. A suspect that resolved itself (the
        // in-flight copy landed — and perhaps was already overwritten and
        // evicted) is dropped; a fresh one is armed and gets one full
        // period of grace — longer than any link-delay bound; an armed
        // one still missing is genuinely lost and ripens into a pull
        // below.
        let mut ripe: Vec<Holding> = Vec::new();
        h.suspects.retain(|&(shard, slot, digest), armed| {
            if frags.holds(&digest) || frags.evicted(Holder::new(shard, slot), &digest) {
                return false;
            }
            if *armed {
                ripe.push((shard, slot, digest));
                false
            } else {
                *armed = true;
                true
            }
        });
        let len = frags.holdings_len();
        let entries: Vec<Holding> = if len == 0 {
            Vec::new()
        } else {
            let start = h.holdings_cursor % len;
            let take = ANTI_ENTROPY_BATCH.min(len);
            h.holdings_cursor = (start + take) % len;
            // Differential against the reference scan (debug builds):
            // whenever the window reaches the end of the list — once per
            // rotation, so the scan's amortised cost per tick is the
            // batch too — the whole index must equal what a walk of the
            // store derives.
            debug_assert!(
                start + take < len || frags.holdings_from(0).eq(frags.holdings()),
                "holdings index drifted from the store"
            );
            frags
                .holdings_from(start)
                .chain(frags.holdings_from(0))
                .take(take)
                .collect()
        };
        let peer = match g {
            Some(g) if g.n() > 1 => {
                // Round-robin over the *other* servers in slot order (a
                // guard slot outside the fleet has no own entry to skip).
                let others = g.n() - usize::from(g.slot < g.n());
                let i = h.peer_cursor % others;
                h.peer_cursor = h.peer_cursor.wrapping_add(1);
                Some(g.servers[i + usize::from(i >= g.slot)])
            }
            _ => None,
        };
        let refan: Vec<Holding> = h
            .pending
            .iter_mut()
            .map(|(key, job)| {
                job.noes.clear();
                *key
            })
            .collect();
        if let Some(p) = peer {
            if !entries.is_empty() {
                ctx.send(p, StoreMsg::DigestSummary { entries });
            }
        }
        for (shard, slot, digest) in refan {
            ctx.note_repair_round();
            for p in self.window_peers(shard) {
                ctx.send(
                    p,
                    StoreMsg::RepairRequest {
                        shard,
                        slot,
                        digest,
                    },
                );
            }
        }
        for entry in ripe {
            self.start_repair(entry, ctx);
        }
    }

    /// Makes this server's **data plane** Byzantine too: it stores
    /// fragments like a correct replica (so its storage footprint — and
    /// its put acknowledgements — are indistinguishable) but garbles
    /// every fragment it serves — exactly the attack the client-side
    /// commitment check must catch. Note the adversary stays
    /// *responsive*: it acks puts honestly, which is what keeps `k > 1`
    /// pushes (`k + t` acks on a `2t + 1` window) live in simulation;
    /// see [`DataPlane::Coded`] for the fail-silent caveat.
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
            h.timer = Some(ctx.set_timer(h.period));
        }
        let mut eff: Effects<RegMsg<P>, Inner::Out> = Effects::new();
        let inner = &mut self.inner;
        ctx.with_effects(&mut eff, |sub| inner.on_start(sub));
        for o in self.batcher.forward_batched(eff, ctx) {
            ctx.output(o);
        }
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
                let shards = self.guard.as_ref().map(|g| g.shards);
                let mut eff: Effects<RegMsg<P>, Inner::Out> = Effects::new();
                let inner = &mut self.inner;
                ctx.with_effects(&mut eff, |sub| {
                    for m in batch {
                        if let (Some(shards), Some(RegId(reg))) = (shards, m.reg()) {
                            if reg >= shards {
                                sub.note_guard_refusal();
                                sub.trace(TraceEvent::GuardRefusal {
                                    shard: reg,
                                    what: "register-id",
                                });
                                continue;
                            }
                        }
                        inner.on_message(from, m, sub);
                    }
                });
                for o in self.batcher.forward_batched(eff, ctx) {
                    ctx.output(o);
                }
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
                // serves (a guarded full-replication server serves none),
                // pin the dispersal shape to the deployment's and the
                // index to *this replica's* window position (the AVID
                // rule), so an acknowledgement always certifies the one
                // fragment the push quorum counts on this replica
                // holding; and keep the slot inside the deployment's slot
                // space, so a forger cannot grow per-holder retention
                // state without bound.
                if let Some(g) = &self.guard {
                    let refusal = if g.servers.contains(&from) {
                        Some("frag-put-from-server")
                    } else if total as usize != g.replicas
                        || g.window_position(shard) != Some(index as usize)
                    {
                        Some("frag-put-shape")
                    } else if !slot_in_range(slot) {
                        Some("key-slot")
                    } else {
                        None
                    };
                    if let Some(what) = refusal {
                        ctx.note_guard_refusal();
                        ctx.trace(TraceEvent::GuardRefusal { shard, what });
                        return;
                    }
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
                // Self-healing integrity re-check on serve: with the
                // healer installed the Merkle path is replayed on the way
                // out, and a fragment that stopped verifying is dropped
                // and repaired instead of served (the check costs a
                // re-hash per serve, so it is off without the healer).
                let corrupt = self.healer.is_some()
                    && !self.byz_bulk
                    && self.frags.get_for(shard, &digest).is_some_and(|f| {
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
                    self.start_repair((shard, slot, digest), ctx);
                }
                // Held nowhere: a healing replica that should serve this
                // shard suspects the entry and pulls it from its window
                // peers if it is still missing after the grace sweep —
                // the reactive trigger that mends a wiped store once a
                // reader notices. (A corrupt entry's repair is already
                // pending, which the suspect rule skips; a reader chasing
                // an evicted value plants nothing.)
                if !self.byz_bulk {
                    self.suspect_missing((shard, slot, digest));
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
                if let Some(g) = &self.guard {
                    if g.window_position(shard).is_none() || !slot_in_range(slot) {
                        ctx.note_guard_refusal();
                        ctx.trace(TraceEvent::GuardRefusal {
                            shard,
                            what: "repair-unserved",
                        });
                        return;
                    }
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
            } => self.on_repair_reply(from, (shard, slot, digest), frag, ctx),
            StoreMsg::DigestSummary { entries } => {
                // Anti-entropy pull, deferred: whatever a peer retains
                // for a window this server covers but neither holds nor
                // evicted itself becomes a repair suspect — the sweep on
                // the next ticks pulls it only if it stays missing, so
                // gossip that merely outran a still-in-flight push
                // never opens a pull.
                let (Some(_), Some(g)) = (&self.healer, &self.guard) else {
                    return;
                };
                // Admission: sender and length are wire data. Summaries
                // travel between fleet servers and carry one gossip
                // batch at most; anything else is refused before it can
                // plant suspects — each of which would ripen into a pull
                // re-fanned every tick, so an unbounded summary (a
                // 16 MiB frame names ≈ 466 000 digests) is an unbounded
                // amount of repair work for a correct replica.
                let refusal = if !g.servers.contains(&from) {
                    Some("summary-foreign")
                } else if entries.len() > ANTI_ENTROPY_BATCH {
                    Some("summary-oversize")
                } else {
                    None
                };
                if let Some(what) = refusal {
                    ctx.note_guard_refusal();
                    ctx.trace(TraceEvent::GuardRefusal {
                        shard: entries.first().map_or(0, |&(shard, _, _)| shard),
                        what,
                    });
                    return;
                }
                for entry in entries {
                    self.suspect_missing(entry);
                }
            }
            // Client-bound replies arriving at a server are garbage.
            StoreMsg::FragPutAck { .. } | StoreMsg::FragGetAck { .. } => {}
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, StoreMsg<P>, Inner::Out>) {
        // The anti-entropy timer belongs to the wrapper, not the inner
        // register machine — intercept it before forwarding.
        if self.healer.as_ref().is_some_and(|h| h.timer == Some(timer)) {
            self.on_anti_entropy_tick(ctx);
            return;
        }
        let mut eff: Effects<RegMsg<P>, Inner::Out> = Effects::new();
        let inner = &mut self.inner;
        ctx.with_effects(&mut eff, |sub| inner.on_timer(timer, sub));
        for o in self.batcher.forward_batched(eff, ctx) {
            ctx.output(o);
        }
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.inner.on_corrupt(rng);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One store operation, as queued at a client.
#[derive(Clone, Debug)]
enum StoreOp<V> {
    Put { key: String, val: V },
    Get { key: String },
}

/// Writer-side state for one owned shard: the bounded sequence stamper and
/// the authoritative local copy of the shard — the map of values under
/// full replication, the map of value references on the bulk plane (the
/// other map stays empty).
#[derive(Debug)]
struct OwnedShard<V> {
    stamper: WsnStamp,
    map: ShardMap<V>,
    refs: RefMap,
}

/// Why a metadata read (and possibly value fetches) is running.
#[derive(Debug)]
enum ReadGoal {
    /// One or more client `get`s on the same shard: project each key out
    /// of the one register snapshot (multiple entries when the pump
    /// coalesced a run of queued gets).
    Get { ops: Vec<(OpId, String)> },
    /// Writer-map recovery after transient corruption: adopt the read map
    /// as the authoritative copy, then republish it.
    Recover,
    /// Shard-handoff adoption (new owner): adopt the read map *and*
    /// become the shard's writer — resync the stamper onto the read
    /// stamp, republish, then flush the puts staged during the handoff.
    Acquire,
}

/// What a publish completes — carried by its `PushingBulk` and `Writing`
/// phases and consumed by the pump when the write engine reports done.
#[derive(Debug)]
enum WriteIntent {
    /// The client puts folded into this publish, in queue order.
    Ops(Vec<OpId>),
    /// Recovery republish after transient corruption.
    Recovery,
    /// The new owner's adopting republish of a migrating shard.
    Acquire { shard: u32 },
}

/// What a metadata read returned, as this client's data plane reads it.
enum Resolved<V> {
    /// The map of values (full replication).
    Values(Arc<ShardMap<V>>),
    /// The map of value references (bulk plane).
    Refs(Arc<RefMap>),
    /// Nothing a writer of this plane publishes: stabilizing garbage that
    /// won a quorum.
    Garbage,
}

/// A bulk-plane read's reference map, being resolved one value at a
/// time.
///
/// A `get` fetches only the values its keys name — each distinct
/// reference once, one after another when the pump gathered several
/// gets — and answers a key the map lacks at once, without any
/// fetch. An **adoption** (writer recovery, shard acquisition) takes the
/// map straight from the read, then resolves each reference once through
/// the same fetch path, in key order, and *drops* every key whose
/// reference fails the dead-round rule before it republishes.
///
/// That last rule is what keeps gets live: an adopted reference nothing
/// backs any more would otherwise be republished by its own writer on
/// every later put, so every get of the key would re-read the register
/// and fetch the same dead reference forever. A dropped key is lost the
/// way [`ShardMap`]'s scramble loses entries — inside the transient
/// window that planted the dead reference — and gets of it answer
/// "absent" until the key is written again. A correct writer's committed
/// references never fail it: each was published only after its push
/// quorum held, and retention keeps a key's latest value.
#[derive(Debug)]
struct Resolving {
    goal: ReadGoal,
    shard: u32,
    /// The metadata stamp the map arrived under (adoption resyncs the
    /// owner's stamper from it).
    wsn: RingSeq,
    /// The reference map the read returned; adoption drops the keys whose
    /// references turn out dead.
    refs: Arc<RefMap>,
    /// Adoption only: the entries of `refs` before this index resolved.
    checked: usize,
    /// The read returned this reader's inversion-prevention memory (the
    /// `pv` of Figure 3's lines 13M) instead of the quorum's value.
    remembered: bool,
}

/// One value fetch: the data-replica round(s) resolving one
/// [`ValueRef`]. Its retransmission timer belongs to the `Fetching` phase,
/// so a prefetch riding a `Reading` phase has none.
#[derive(Debug)]
struct Fetch<V> {
    vref: ValueRef,
    /// Current round tag (stale replies are dropped by tag).
    tag: u64,
    /// Window replicas that answered this round with garbage or a miss.
    /// A *set of senders* — never a reply count — so a Byzantine replica
    /// spamming bad replies contributes exactly one entry and cannot
    /// fabricate a dead round by itself; replies from outside the shard's
    /// window are ignored entirely.
    bad: BTreeSet<ProcessId>,
    /// Set when this reference can never resolve (k verified fragments
    /// reconstructing to garbage, or the round budget exhausted): the
    /// pump gives the reference up.
    dead: bool,
    /// Retransmission rounds run for this reference.
    rounds: u32,
    /// Commitment-verified fragments by index. Carried *across*
    /// retransmission rounds: a verified fragment stays verified whatever
    /// round it arrived in.
    frags: BTreeMap<u32, SharedBytes>,
    /// Set by a `k`-fragment reconstruction that decodes; consumed by the
    /// pump.
    resolved: Option<V>,
}

/// One value's dispersal inside a bulk-plane publish.
#[derive(Debug)]
struct Dispersal<V: Payload> {
    /// The value's commitment root — what the replicas' acknowledgements
    /// name.
    digest: BulkDigest,
    /// The per-replica push messages, index-aligned with the shard's
    /// replica window (replica `i` gets fragment `i`), kept for ack-wait
    /// retransmissions — payload bytes inside are shared, so a re-push
    /// clones reference counts.
    pushes: Vec<StoreWire<V>>,
    acks: BTreeSet<ProcessId>,
}

/// A store client: sequential `put`/`get` operations against any number of
/// shards, multiplexed over one [`ClientLink`] to the shared fleet.
///
/// Each shard this client **owns** (per the [`KeyRouter`] writer
/// assignment) gets a [`WsnStamp`] and the authoritative local map; each
/// shard it can read gets its own [`AtomicPolicy`] (`pwsn`/`pv`
/// inversion-prevention state is per register). Operations run one at a
/// time per client — exactly the paper's sequential-client model; store
/// concurrency comes from deploying many clients.
///
/// An operation launches as soon as the client is idle. Operations that
/// arrive while a round is in flight queue, and the next launch
/// **coalesces** every queued same-kind operation on its shard into one
/// register round: one map publish for the puts, one metadata read for
/// the gets. Each still completes individually, in invocation order per
/// key.
pub struct StoreClientNode<V: Payload + BulkCodec> {
    cfg: RegisterConfig,
    router: KeyRouter,
    plane: DataPlane,
    link: ClientLink,
    servers: Vec<ProcessId>,
    /// All store clients (the reader set every shard write must help).
    clients: Vec<ProcessId>,
    policies: Vec<AtomicPolicy<StoreVal<V>>>,
    owned: BTreeMap<u32, OwnedShard<V>>,
    read_engine: ReadEngine<StorePayload<V>>,
    write_engine: WriteEngine<StorePayload<V>>,
    phase: Phase<V>,
    pending: VecDeque<(OpId, StoreOp<V>)>,
    /// Owned shards whose authoritative map must be re-read and
    /// republished before the next put (queued by `on_corrupt`).
    need_recover: VecDeque<u32>,
    recoveries: u64,
    next_bulk_tag: u64,
    /// Owned shards in the retiring half of a dual-commit handoff:
    /// already-queued puts still publish; once drained the shard is
    /// dropped and `ShardRetired` emitted.
    retiring: BTreeSet<u32>,
    /// Shards granted to this client mid-handoff, with the puts staged
    /// until the acquisition republish completes. Presence of the key is
    /// the "acquiring" state itself.
    staged: BTreeMap<u32, VecDeque<(OpId, StoreOp<V>)>>,
    /// Granted shards queued for adoption (quorum-read, resync,
    /// republish), run by the pump ahead of client operations.
    acquires: VecDeque<u32>,
    /// Reusable per-destination staging for outgoing register messages.
    batcher: DestBatcher<StorePayload<V>>,
    /// **Soundness-mutation hook** (feature `mutation`, tests only). When
    /// set, gets are answered from the shard's *previous* metadata read
    /// (one version behind), deliberately breaking the reader recency
    /// rule, so the monitor test can prove the online checker fires.
    #[cfg(feature = "mutation")]
    pub weaken_recency: bool,
    /// The previous read per shard that `weaken_recency` serves from.
    #[cfg(feature = "mutation")]
    stale_reads: BTreeMap<u32, StoreVal<V>>,
}

/// The client's operation phase.
#[derive(Debug)]
enum Phase<V: Payload> {
    Idle,
    /// The metadata register read on `shard`: sanity probe (N2–N7), then
    /// the read loop.
    ///
    /// On the bulk plane a get's read also carries a **prefetch**: when
    /// the sanity probe completes, the client starts fetching the value
    /// whose reference at least `last_quorum()` of the probe's acks give
    /// the round's first key, in parallel with the read loop. The read
    /// still decides. If it decides that same reference, the prefetch
    /// becomes the `Fetching` phase's fetch with the fragments it already
    /// holds; otherwise it is dropped (counted as wasted) and its late
    /// replies, carrying its tag, are ignored. Speculating is safe
    /// because every fragment is verified against the decided
    /// reference's root: early bytes are exactly the bytes a later fetch
    /// would accept. The prefetch arms no timer; the fetch's
    /// retransmission timer starts when it becomes `Fetching`.
    Reading {
        goal: ReadGoal,
        shard: u32,
        prefetch: Option<Fetch<V>>,
    },
    /// Bulk plane: resolving the read's reference map against the
    /// shard's data replicas, one value at a time.
    Fetching {
        res: Resolving,
        fetch: Fetch<V>,
        /// The fetch round's retransmission timer.
        timer: TimerId,
    },
    /// Bulk plane: every newly written value pushed to the data replicas,
    /// one fragment per replica; waiting until each has its `k + t` push
    /// quorum of verified-store acknowledgements before the metadata
    /// write.
    PushingBulk {
        intent: WriteIntent,
        shard: u32,
        dispersals: Vec<Dispersal<V>>,
        payload: StorePayload<V>,
        /// The ack-wait's round timer: the derived timeout in synchronous
        /// mode, the retransmission period in asynchronous mode. On
        /// expiry every push is re-broadcast to the replicas still
        /// missing.
        timer: TimerId,
    },
    /// The metadata write (of the map of values or of references),
    /// completing `intent`.
    Writing {
        intent: WriteIntent,
    },
}

impl<V: Payload + BulkCodec> std::fmt::Debug for StoreClientNode<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClientNode")
            .field("owned", &self.owned.keys().collect::<Vec<_>>())
            .field("plane", &self.plane)
            .field("phase", &self.phase)
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// Emits one `get`'s completion.
fn complete_get<V>(
    sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
    outs: &mut Vec<StoreOut<V>>,
    op: OpId,
    value: Option<V>,
) where
    V: Payload,
{
    sub.trace(TraceEvent::OpComplete {
        op: op.0,
        kind: "get",
    });
    outs.push(StoreOut::GetDone { op, value });
}

/// The lowest key slot no key of `refs` holds, if the slot space has one
/// left.
fn free_slot(refs: &RefMap) -> Option<u32> {
    let used: BTreeSet<u32> = refs.entries().iter().map(|(_, r)| r.slot).collect();
    (0..KEY_SLOTS).find(|s| !used.contains(s))
}

/// `refs` without the keys an adopting writer cannot keep: a slot outside
/// the slot space (no correct replica retains values under it) or a slot
/// an earlier key already holds (two live keys must never share retention
/// state, or one key's overwrites evict the other's value). A correct
/// writer never publishes either; only corrupted state reaches here.
fn usable_slots(refs: Arc<RefMap>) -> Arc<RefMap> {
    let mut taken = BTreeSet::new();
    let doomed: Vec<String> = refs
        .entries()
        .iter()
        .filter(|(_, r)| !slot_in_range(r.slot) || !taken.insert(r.slot))
        .map(|(key, _)| key.clone())
        .collect();
    if doomed.is_empty() {
        return refs;
    }
    let mut refs = Arc::unwrap_or_clone(refs);
    for key in doomed {
        refs.remove(&key);
    }
    Arc::new(refs)
}

/// Disperses one value to `shard`'s data replicas, retained under key
/// slot `slot`, AVID-style (`k`-of-`m`, `m` = the window): its reference
/// and the `m` push messages, index-aligned with the window — replica `i`
/// gets fragment `i` plus the Merkle path proving it belongs to the root
/// the reference carries.
fn disperse<V: Payload>(
    shard: u32,
    slot: u32,
    bytes: Vec<u8>,
    k: usize,
    m: usize,
) -> (BulkRef, Vec<StoreWire<V>>) {
    let frags = encode_fragments(&bytes, k, m);
    // One tree per dispersal: per-fragment paths are then slice walks
    // instead of O(m) re-folds each.
    let tree = MerkleTree::build(&fragment_leaves(&frags));
    let root = tree.root();
    let pushes = frags
        .into_iter()
        .enumerate()
        .map(|(i, frag)| StoreMsg::FragPut {
            shard,
            slot,
            root,
            index: i as u32,
            total: m as u32,
            bytes: frag,
            proof: tree.proof(i),
        })
        .collect();
    let bref = BulkRef {
        digest: root,
        len: bytes.len() as u64,
    };
    (bref, pushes)
}

impl<V: Payload + BulkCodec> StoreClientNode<V> {
    /// Creates a client over `servers`, owning `owned_shards` (empty for a
    /// read-only client). `clients` is the full client set of the store —
    /// the helping mechanism of every owned shard serves all of them.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: RegisterConfig,
        router: KeyRouter,
        servers: Vec<ProcessId>,
        clients: Vec<ProcessId>,
        owned_shards: &[u32],
        wsn_modulus: u128,
        plane: DataPlane,
    ) -> Self {
        if let DataPlane::Coded { replicas, k } = plane {
            assert!(
                (1..=servers.len()).contains(&replicas),
                "bulk replication factor {replicas} out of range for {} servers",
                servers.len()
            );
            assert!(
                k >= 1 && k <= replicas,
                "coded reconstruction threshold k={k} out of range for m={replicas} fragments"
            );
        }
        let owned = owned_shards
            .iter()
            .map(|&s| {
                assert!(s < router.shards(), "shard {s} out of range");
                (
                    s,
                    OwnedShard {
                        stamper: WsnStamp::new(RingSeq::zero(wsn_modulus)),
                        map: ShardMap::new(),
                        refs: RefMap::new(),
                    },
                )
            })
            .collect();
        StoreClientNode {
            cfg,
            router,
            plane,
            link: ClientLink::new(servers.clone(), cfg.t),
            servers,
            clients,
            policies: (0..router.shards()).map(|_| AtomicPolicy::new()).collect(),
            owned,
            read_engine: ReadEngine::new(RegId(0), cfg),
            write_engine: WriteEngine::new(RegId(0), cfg, Vec::new()),
            phase: Phase::Idle,
            pending: VecDeque::new(),
            need_recover: VecDeque::new(),
            recoveries: 0,
            next_bulk_tag: 0,
            retiring: BTreeSet::new(),
            staged: BTreeMap::new(),
            acquires: VecDeque::new(),
            batcher: DestBatcher::new(),
            #[cfg(feature = "mutation")]
            weaken_recency: false,
            #[cfg(feature = "mutation")]
            stale_reads: BTreeMap::new(),
        }
    }

    /// Invokes `put(key, val)`; completion arrives as
    /// [`StoreOut::PutDone`].
    ///
    /// Mid-handoff, a put on a shard this client has been granted (but
    /// not yet acquired) is **staged** and launches after the acquisition
    /// republish, preserving issue order.
    ///
    /// # Panics
    ///
    /// Panics if this client neither owns nor is acquiring the key's
    /// shard (the router must direct every put to the shard's writer),
    /// and — on the bulk plane — when the put brings a shard already
    /// holding [`KEY_SLOTS`] keys a new one.
    pub fn invoke_put(&mut self, op: OpId, key: String, val: V, ctx: &mut StoreCtx<'_, V>) {
        let shard = self.router.shard_of(&key);
        if !self.owned.contains_key(&shard) {
            if let Some(q) = self.staged.get_mut(&shard) {
                ctx.trace(TraceEvent::OpStart {
                    op: op.0,
                    kind: "put",
                });
                q.push_back((op, StoreOp::Put { key, val }));
                return;
            }
            panic!("put({key}) routed to a client that does not own shard {shard}");
        }
        ctx.trace(TraceEvent::OpStart {
            op: op.0,
            kind: "put",
        });
        self.pending.push_back((op, StoreOp::Put { key, val }));
        self.step(ctx);
    }

    /// Old-owner half of a dual-commit handoff: marks `shard` retiring.
    /// Already-queued puts on it still publish; once the last has drained
    /// the shard is dropped, [`StoreOut::ShardRetired`] is emitted, and
    /// any further put routed here panics.
    ///
    /// # Panics
    ///
    /// Panics if this client does not own `shard`.
    pub fn retire_shard(&mut self, shard: u32, ctx: &mut StoreCtx<'_, V>) {
        assert!(
            self.owned.contains_key(&shard),
            "retire of shard {shard} this client does not own"
        );
        self.retiring.insert(shard);
        self.step(ctx);
    }

    /// New-owner half of a dual-commit handoff, phase 1: start staging
    /// puts routed here for `shard` until [`Self::acquire_shard`]
    /// completes the adoption.
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range or already owned here.
    pub fn grant_shard(&mut self, shard: u32) {
        assert!(shard < self.router.shards(), "shard {shard} out of range");
        assert!(
            !self.owned.contains_key(&shard),
            "grant of shard {shard} to a client that already owns it"
        );
        self.staged.entry(shard).or_default();
    }

    /// New-owner half of a dual-commit handoff, phase 2 (issued once the
    /// old owner retired): quorum-read `shard`, adopt the last committed
    /// map, resync the stamper onto its stamp, republish, emit
    /// [`StoreOut::ShardAcquired`], and flush the staged puts. Queued —
    /// it runs ahead of client operations at the next idle pump.
    ///
    /// # Panics
    ///
    /// Panics if the shard was never granted here.
    pub fn acquire_shard(&mut self, shard: u32, ctx: &mut StoreCtx<'_, V>) {
        assert!(
            self.staged.contains_key(&shard),
            "acquire of shard {shard} that was never granted"
        );
        self.acquires.push_back(shard);
        self.step(ctx);
    }

    /// True while `shard` is granted but not yet acquired (puts stage).
    pub fn is_acquiring(&self, shard: u32) -> bool {
        self.staged.contains_key(&shard)
    }

    /// Invokes `get(key)`; completion arrives as [`StoreOut::GetDone`].
    pub fn invoke_get(&mut self, op: OpId, key: String, ctx: &mut StoreCtx<'_, V>) {
        ctx.trace(TraceEvent::OpStart {
            op: op.0,
            kind: "get",
        });
        self.pending.push_back((op, StoreOp::Get { key }));
        self.step(ctx);
    }

    /// **Fault-injection hook** (feature `mutation`, tests only): plants
    /// `vref` under `key` in the authoritative reference map of the
    /// key's shard, which this client must own — a reference no
    /// dispersal backs, which the next publish on the shard makes part of
    /// its register value.
    ///
    /// # Panics
    ///
    /// Panics if this client does not own the key's shard.
    #[cfg(feature = "mutation")]
    pub fn plant_ref(&mut self, key: &str, vref: ValueRef) {
        let shard = self.router.shard_of(key);
        let owned = self.owned.get_mut(&shard).expect("plant on an owned shard");
        owned.refs.insert(key, vref);
    }

    /// The shards this client writes.
    pub fn owned_shards(&self) -> Vec<u32> {
        self.owned.keys().copied().collect()
    }

    /// The data plane this client writes/reads through.
    pub fn plane(&self) -> DataPlane {
        self.plane
    }

    /// Writer-map recoveries completed (re-read + republish after
    /// transient corruption).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Diagnostic snapshot of an in-flight bulk-plane value fetch — a
    /// fetch round or a get's prefetch beside its read round:
    /// `(shard, commitment root, current round tag, distinct window
    /// replicas that answered badly this round)`, or `None` when no
    /// fetch is running. Intended for tests pinning round-tag semantics
    /// (a stale-tagged reply must leave the tag and the bad tally
    /// untouched) and for debugging wedged fetches.
    pub fn fetch_probe(&self) -> Option<(u32, BulkDigest, u64, usize)> {
        let (shard, fetch) = match &self.phase {
            Phase::Fetching { res, fetch, .. } => (res.shard, fetch),
            Phase::Reading {
                shard,
                prefetch: Some(fetch),
                ..
            } => (*shard, fetch),
            _ => return None,
        };
        Some((shard, fetch.vref.bref.digest, fetch.tag, fetch.bad.len()))
    }

    /// The data replicas holding `shard`'s payload bytes (empty under
    /// full replication).
    fn data_replicas(&self, shard: u32) -> Vec<ProcessId> {
        Self::replicas_for(self.plane, &self.servers, shard)
    }

    /// [`StoreClientNode::data_replicas`] over explicit fields, callable
    /// while `self.phase` is mutably borrowed.
    fn replicas_for(plane: DataPlane, servers: &[ProcessId], shard: u32) -> Vec<ProcessId> {
        let DataPlane::Coded { replicas, .. } = plane else {
            return Vec::new();
        };
        data_replica_slots(shard, servers.len(), replicas)
            .into_iter()
            .map(|i| servers[i])
            .collect()
    }

    /// One bulk-plane round's timer span: the timeout derived from the
    /// link bound in synchronous mode (the same "wait … or time-out"
    /// discipline the register rounds follow, Fig. 5), the retransmission
    /// period in asynchronous mode.
    fn round_timer(&self) -> sbs_sim::SimDuration {
        self.cfg.timeout().unwrap_or(self.cfg.retry_after)
    }

    /// The coding shape `(k, m)` — `m` the data replicas per shard —
    /// or `None` under full replication.
    fn coding(&self) -> Option<(usize, usize)> {
        match self.plane {
            DataPlane::Coded { replicas, k } => Some((k, replicas)),
            DataPlane::Full => None,
        }
    }

    /// Verified-store acknowledgements a push must collect before the
    /// metadata write: `k + t`, capped by the window (the builder refuses
    /// windows below `k + t`; a client constructed with one waits for
    /// every replica instead of forever).
    fn push_needed(&self) -> usize {
        self.coding()
            .map_or(0, |(k, m)| coded_push_quorum(self.cfg.t, k).min(m))
    }

    /// True iff `pid` serves `shard`'s bulk window — membership by window
    /// arithmetic, allocation-free (runs on every bulk acknowledgement).
    fn is_data_replica(
        plane: DataPlane,
        servers: &[ProcessId],
        shard: u32,
        pid: ProcessId,
    ) -> bool {
        let DataPlane::Coded { replicas, .. } = plane else {
            return false;
        };
        let n = servers.len();
        let Some(idx) = servers.iter().position(|&s| s == pid) else {
            return false;
        };
        let start = shard as usize % n;
        (idx + n - start) % n < replicas
    }

    /// The server at `shard`'s window position `index` (= the replica a
    /// push assigns fragment `index`), if the index is within the window
    /// — the ack-attribution counterpart of [`Self::is_data_replica`],
    /// same arithmetic as [`data_replica_slots`], allocation-free (runs on
    /// every push acknowledgement).
    fn window_replica_at(
        plane: DataPlane,
        servers: &[ProcessId],
        shard: u32,
        index: u32,
    ) -> Option<ProcessId> {
        let DataPlane::Coded { replicas, .. } = plane else {
            return None;
        };
        let n = servers.len();
        ((index as usize) < replicas).then(|| servers[(shard as usize % n + index as usize) % n])
    }

    /// Runs the engine pump inside a sub-context, then re-emits batched
    /// sends, forwarded timers, bulk-plane sends, and operation
    /// completions.
    fn step(&mut self, ctx: &mut StoreCtx<'_, V>) {
        let mut eff: Effects<RegMsg<StorePayload<V>>, ()> = Effects::new();
        let mut outs: Vec<StoreOut<V>> = Vec::new();
        let mut bulk_sends: Vec<(ProcessId, StoreWire<V>)> = Vec::new();
        {
            let this = &mut *self;
            ctx.with_effects(&mut eff, |sub| this.pump(sub, &mut outs, &mut bulk_sends));
        }
        let _ = self.batcher.forward_batched(eff, ctx);
        for (to, m) in bulk_sends {
            ctx.send(to, m);
        }
        for o in outs {
            ctx.output(o);
        }
    }

    /// Starts the metadata read of `shard` for `goal`.
    fn start_read(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
    ) {
        if matches!(goal, ReadGoal::Recover | ReadGoal::Acquire) {
            // The recovery read must learn the *servers'* agreed state; the
            // owner's own inversion-prevention pair was just scrambled, and
            // trusting it could "prevent" the genuine quorum value in favor
            // of corrupted local memory. Start from a clean policy (the
            // sanity probe then re-anchors it on the servers). Adoption
            // reads start clean for the same reason: whatever the quorum
            // agrees on *is* the state to continue from, and stale local
            // prevention state must not outvote it.
            self.policies[shard as usize] = AtomicPolicy::new();
        }
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "MetadataRead",
        });
        self.read_engine = ReadEngine::new(RegId(shard), self.cfg);
        // Figure 3 read: sanity probe first (N2–N7), then the read loop.
        self.read_engine.start_sanity(&mut self.link, sub);
        self.phase = Phase::Reading {
            goal,
            shard,
            prefetch: None,
        };
    }

    /// The reference at least `last_quorum()` of the just-completed sanity
    /// probe's acks give `key` — the value a get's read loop will most
    /// likely decide — or `None` on the full plane or without such a
    /// quorum. Tallies the key's 44-byte [`ValueRef`] per ack; no map is
    /// compared and no randomness drawn. Of several references reaching
    /// the quorum (a write in flight), the most common.
    fn probed_ref(&self, key: &str) -> Option<ValueRef> {
        self.coding()?;
        let mut tally: Vec<(ValueRef, usize)> = Vec::new();
        for last in self.read_engine.sanity_lasts() {
            let StoreVal::Refs(refs) = &last.val else {
                continue;
            };
            let Some(&vref) = refs.get(key) else {
                continue;
            };
            match tally.iter_mut().find(|(r, _)| *r == vref) {
                Some((_, count)) => *count += 1,
                None => tally.push((vref, 1)),
            }
        }
        let quorum = self.cfg.last_quorum();
        tally
            .into_iter()
            .filter(|&(_, count)| count >= quorum)
            .max_by_key(|&(_, count)| count)
            .map(|(vref, _)| vref)
    }

    /// The metadata read's value as this client's plane reads it: the
    /// full plane publishes maps of values, the bulk plane maps of
    /// references — an empty inline map (every register's initial
    /// value) is the empty reference map there. Anything else is garbage.
    fn classify(&self, val: &StoreVal<V>) -> Resolved<V> {
        match (self.plane, val) {
            (DataPlane::Full, StoreVal::Inline(map)) => Resolved::Values(map.clone()),
            (DataPlane::Full, _) => Resolved::Garbage,
            (_, StoreVal::Refs(refs)) => Resolved::Refs(refs.clone()),
            (_, StoreVal::Inline(map)) if map.is_empty() => Resolved::Refs(Arc::new(RefMap::new())),
            _ => Resolved::Garbage,
        }
    }

    /// True when `memory` — the value the inversion-prevention policy
    /// returned in place of the quorum's older `quorum` — cannot be a
    /// later value of this shard's writer: it is nothing this plane's
    /// writers publish, or it lacks a key `quorum` has (writers only ever
    /// add keys). Only corrupted local state answers that way, and
    /// trusting it would keep handing garbage to every later read until
    /// the writer's stamps overtake it: on the bulk plane a key missing
    /// from it would read as absent, a dangling reference in it would
    /// re-read forever.
    fn corrupt_memory(&self, memory: &StoreVal<V>, quorum: &StoreVal<V>) -> bool {
        fn lacks_a_key<T: Payload, U: Payload>(memory: &ShardMap<T>, quorum: &ShardMap<U>) -> bool {
            quorum
                .entries()
                .iter()
                .any(|(k, _)| memory.get(k).is_none())
        }
        match (self.classify(memory), self.classify(quorum)) {
            (Resolved::Garbage, _) => true,
            (Resolved::Values(m), Resolved::Values(q)) => lacks_a_key(&m, &q),
            (Resolved::Refs(m), Resolved::Refs(q)) => lacks_a_key(&m, &q),
            _ => false,
        }
    }

    /// The `weaken_recency` mutation: a get is answered from the shard's
    /// previous read instead of this one.
    #[cfg(feature = "mutation")]
    fn serve_stale(&mut self, goal: &ReadGoal, shard: u32, val: StoreVal<V>) -> StoreVal<V> {
        if !self.weaken_recency || !matches!(goal, ReadGoal::Get { .. }) {
            return val;
        }
        self.stale_reads.insert(shard, val.clone()).unwrap_or(val)
    }

    /// Publishes the authoritative state of `shard` after folding `puts`
    /// into it, in queue order. Under full replication that is one
    /// metadata write of the map of values. On the bulk plane each put
    /// key's latest value is encoded alone and dispersed to the data
    /// replicas under the key's slot (a new key takes the lowest free
    /// slot), and the map of references — with every put key pointing at
    /// its new value — is written once every dispersal holds its push
    /// quorum. The publish completes `intent`; a recovery or adoption
    /// republish has no puts and disperses nothing.
    fn start_publish(
        &mut self,
        shard: u32,
        intent: WriteIntent,
        puts: Vec<(String, V)>,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        let replicas = self.data_replicas(shard);
        let coding = self.coding();
        let owned = self.owned.get_mut(&shard).expect("publish on owned shard");
        let mut dispersals: Vec<Dispersal<V>> = Vec::new();
        let val = if let Some((k, m)) = coding {
            // Within one publish the last put of a key wins, exactly as
            // the full plane's map inserts fold — so a value overwritten
            // inside the batch is never dispersed.
            let latest: BTreeMap<String, V> = puts.into_iter().collect();
            for (key, val) in latest {
                let slot = match owned.refs.get(&key) {
                    Some(r) => r.slot,
                    None => free_slot(&owned.refs).unwrap_or_else(|| {
                        panic!("shard {shard} already holds {KEY_SLOTS} keys, the key-slot space")
                    }),
                };
                let (bref, pushes) = disperse(shard, slot, val.encode_to_vec(), k, m);
                owned.refs.insert(&key, ValueRef { slot, bref });
                dispersals.push(Dispersal {
                    digest: bref.digest,
                    pushes,
                    acks: BTreeSet::new(),
                });
            }
            StoreVal::Refs(Arc::new(owned.refs.clone()))
        } else {
            for (key, val) in puts {
                owned.map.insert(&key, val);
            }
            // One deep snapshot per publish; every send, helping
            // refresh, and retransmission shares it through the Arc.
            StoreVal::Inline(Arc::new(owned.map.clone()))
        };
        let payload = WriteStamper::<StoreVal<V>, StorePayload<V>>::stamp(&mut owned.stamper, val);
        if dispersals.is_empty() {
            self.start_write(shard, intent, payload, sub);
            return;
        }
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "PushingBulk",
        });
        for d in &dispersals {
            for (&r, m) in replicas.iter().zip(&d.pushes) {
                bulk_sends.push((r, m.clone()));
            }
        }
        let timer = sub.set_timer(self.round_timer());
        self.phase = Phase::PushingBulk {
            intent,
            shard,
            dispersals,
            payload,
            timer,
        };
    }

    /// Starts the metadata write of `payload` on `shard`, completing
    /// `intent`.
    fn start_write(
        &mut self,
        shard: u32,
        intent: WriteIntent,
        payload: StorePayload<V>,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
    ) {
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "MetadataWrite",
        });
        self.write_engine = WriteEngine::new(RegId(shard), self.cfg, self.clients.clone());
        self.write_engine.start(payload, &mut self.link, sub);
        self.phase = Phase::Writing { intent };
    }

    /// Asks `shard`'s data replicas for `vref`'s fragments under a fresh
    /// round tag.
    fn request_fetch(
        &mut self,
        shard: u32,
        vref: ValueRef,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) -> Fetch<V> {
        let tag = self.next_bulk_tag;
        self.next_bulk_tag += 1;
        for r in self.data_replicas(shard) {
            bulk_sends.push((
                r,
                StoreMsg::BulkGet {
                    shard,
                    slot: vref.slot,
                    digest: vref.bref.digest,
                    tag,
                },
            ));
        }
        Fetch {
            vref,
            tag,
            bad: BTreeSet::new(),
            dead: false,
            rounds: 0,
            frags: BTreeMap::new(),
            resolved: None,
        }
    }

    /// Counts a prefetch the read round did not decide; dropping it makes
    /// its late replies stale.
    fn waste(prefetch: Option<Fetch<V>>, sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>) {
        if prefetch.is_some() {
            sub.note_wasted_prefetch();
        }
    }

    /// Starts the fetch of `vref`'s value from `res.shard`'s data
    /// replicas, taking over `prefetch` when it fetches that very
    /// reference.
    fn start_fetch(
        &mut self,
        res: Resolving,
        vref: ValueRef,
        prefetch: Option<Fetch<V>>,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        let shard = res.shard;
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "FetchRound",
        });
        let fetch = match prefetch {
            Some(fetch) if fetch.vref == vref => fetch,
            other => {
                Self::waste(other, sub);
                self.request_fetch(shard, vref, bulk_sends)
            }
        };
        let timer = sub.set_timer(self.round_timer());
        self.phase = Phase::Fetching { res, fetch, timer };
    }

    /// Completes `goal` with the map of values of `shard` (read under
    /// metadata stamp `wsn`) — the full plane. For `get`s this emits one
    /// completion per coalesced op, all projected from the same snapshot;
    /// for a recovery or acquisition it adopts the map and starts the
    /// republish (so the caller's pump loop continues).
    #[allow(clippy::too_many_arguments)]
    fn finish_resolve(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        wsn: RingSeq,
        map: Arc<ShardMap<V>>,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        outs: &mut Vec<StoreOut<V>>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        match goal {
            ReadGoal::Get { ops } => {
                for (op, key) in ops {
                    complete_get(sub, outs, op, map.get(&key).cloned());
                }
                // phase stays Idle; the pump keeps draining the queue.
            }
            goal => {
                let map = Arc::unwrap_or_clone(map);
                self.adopt(goal, shard, wsn, map, RefMap::new(), sub, bulk_sends);
            }
        }
    }

    /// Continues resolving a bulk-plane read (see [`Resolving`]): answers
    /// every get whose key the map lacks, then fetches the next value the
    /// goal still needs — the first remaining get's, or for an adoption
    /// the reference at `checked` — through `prefetch` when it fetches
    /// that reference. With nothing left to fetch the gets are all
    /// answered (phase stays Idle) or the adoption adopts the map and
    /// starts the republish.
    fn resolve_refs(
        &mut self,
        mut res: Resolving,
        prefetch: Option<Fetch<V>>,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        outs: &mut Vec<StoreOut<V>>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        let next = match &mut res.goal {
            ReadGoal::Get { ops } => {
                let refs = &res.refs;
                ops.retain(|(op, key)| {
                    let present = refs.get(key).is_some();
                    if !present {
                        complete_get(sub, outs, *op, None);
                    }
                    present
                });
                ops.first().and_then(|(_, key)| refs.get(key).copied())
            }
            ReadGoal::Recover | ReadGoal::Acquire => {
                res.refs.entries().get(res.checked).map(|&(_, vref)| vref)
            }
        };
        match next {
            Some(vref) => self.start_fetch(res, vref, prefetch, sub, bulk_sends),
            // Only a get prefetches.
            None if matches!(res.goal, ReadGoal::Get { .. }) => Self::waste(prefetch, sub),
            None => {
                let refs = Arc::unwrap_or_clone(res.refs);
                self.adopt(
                    res.goal,
                    res.shard,
                    res.wsn,
                    ShardMap::new(),
                    refs,
                    sub,
                    bulk_sends,
                );
            }
        }
    }

    /// Makes `map` / `refs` (read under stamp `wsn`) the authoritative
    /// state of `shard` for a recovery or an acquisition, and starts the
    /// republish.
    #[allow(clippy::too_many_arguments)]
    fn adopt(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        wsn: RingSeq,
        map: ShardMap<V>,
        refs: RefMap,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        let intent = match goal {
            ReadGoal::Recover => {
                // Adopt the register's (last published) map as the
                // authoritative copy — and **resync the sequence stamper**
                // onto the stamp the quorum agreed on, the MWMR
                // read-before-write refresh rule generalized to recovery.
                // Republishing under the scrambled counter instead would
                // stamp values clockwise-*behind* the helping pairs still
                // installed at the servers, and every reader's
                // inversion-prevention state would pin the pre-corruption
                // value essentially forever.
                let owned = self.owned.get_mut(&shard).expect("recovering owned shard");
                owned.map = map;
                owned.refs = refs;
                owned.stamper = WsnStamp::new(wsn);
                WriteIntent::Recovery
            }
            ReadGoal::Acquire => {
                // Dual-commit adoption: the quorum-read snapshot is the
                // old owner's last committed map (its final publish
                // completed before it emitted `ShardRetired`, and the
                // acquisition was gated on that), so adopting the map and
                // resyncing onto its stamp continues the register
                // sequence exactly where the old owner left it — the new
                // owner's first stamp is the clockwise successor, as if
                // the writer never changed.
                sub.trace(TraceEvent::Phase {
                    shard,
                    phase: "ShardAdopt",
                });
                self.owned.insert(
                    shard,
                    OwnedShard {
                        stamper: WsnStamp::new(wsn),
                        map,
                        refs,
                    },
                );
                WriteIntent::Acquire { shard }
            }
            ReadGoal::Get { .. } => unreachable!("only recoveries and acquisitions adopt"),
        };
        self.start_publish(shard, intent, Vec::new(), sub, bulk_sends);
    }

    /// Pulls **every** queued get on `shard` out of the queue into `ops`,
    /// in queue order; all other queued ops keep their relative order.
    /// The gathered gets share one read round and all project the same
    /// snapshot. Safe even past interleaved puts on the shard: a gathered
    /// get overlaps those puts (everything in the queue is invoked,
    /// nothing completed), so returning the pre-put value linearizes the
    /// get before them — timing-level latitude the register contract
    /// already grants concurrent readers.
    fn absorb_get_run(&mut self, shard: u32, ops: &mut Vec<(OpId, String)>) {
        // One rotation through the queue, in place: every launch runs
        // this, and the queue keeps its allocation.
        for _ in 0..self.pending.len() {
            match self.pending.pop_front().expect("counted") {
                (op, StoreOp::Get { key }) if self.router.shard_of(&key) == shard => {
                    ops.push((op, key));
                }
                other => self.pending.push_back(other),
            }
        }
    }

    /// Pulls every queued put on `shard` out of the queue (group commit)
    /// into `puts` **in queue order** — the publish folds them into the
    /// authoritative map in that order, so per-key write order, the
    /// invariant the differential checker pins, is exactly the invocation
    /// order — and collects its op for the one shared publish. A get left
    /// behind in the queue overlaps these puts, so whichever snapshot it
    /// later reads is a legal concurrent outcome.
    fn absorb_put_run(&mut self, shard: u32, ops: &mut Vec<OpId>, puts: &mut Vec<(String, V)>) {
        for _ in 0..self.pending.len() {
            match self.pending.pop_front().expect("counted") {
                (op, StoreOp::Put { key, val }) if self.router.shard_of(&key) == shard => {
                    puts.push((key, val));
                    ops.push(op);
                }
                other => self.pending.push_back(other),
            }
        }
    }

    fn pump(
        &mut self,
        sub: &mut Context<'_, RegMsg<StorePayload<V>>, ()>,
        outs: &mut Vec<StoreOut<V>>,
        bulk_sends: &mut Vec<(ProcessId, StoreWire<V>)>,
    ) {
        loop {
            match std::mem::replace(&mut self.phase, Phase::Idle) {
                Phase::Idle => {
                    // Writer-map recovery runs ahead of queued operations:
                    // a corrupted owner must not accept its next put on a
                    // scrambled authoritative map.
                    if let Some(shard) = self.need_recover.pop_front() {
                        self.start_read(ReadGoal::Recover, shard, sub);
                        continue;
                    }
                    // Retiring sweep: a retiring shard whose queued puts
                    // have all drained (and that owes no recovery) is
                    // dropped here — at Idle nothing is in flight, so its
                    // last publish has completed through the quorum.
                    if !self.retiring.is_empty() {
                        let done: Vec<u32> = self
                            .retiring
                            .iter()
                            .copied()
                            .filter(|&s| {
                                !self.need_recover.contains(&s)
                                    && !self.pending.iter().any(|(_, op)| match op {
                                        StoreOp::Put { key, .. } => self.router.shard_of(key) == s,
                                        StoreOp::Get { .. } => false,
                                    })
                            })
                            .collect();
                        for shard in done {
                            self.retiring.remove(&shard);
                            self.owned.remove(&shard);
                            sub.trace(TraceEvent::Phase {
                                shard,
                                phase: "ShardRetired",
                            });
                            outs.push(StoreOut::ShardRetired { shard });
                        }
                    }
                    // Shard acquisitions run ahead of client operations: a
                    // busy closed-loop client must not starve a handoff,
                    // and an acquisition must not wait behind puts staged
                    // on the very shard it unblocks.
                    if let Some(shard) = self.acquires.pop_front() {
                        self.start_read(ReadGoal::Acquire, shard, sub);
                        continue;
                    }
                    let Some((op, kind)) = self.pending.pop_front() else {
                        return;
                    };
                    match kind {
                        StoreOp::Get { key } => {
                            let shard = self.router.shard_of(&key);
                            let mut ops = vec![(op, key)];
                            self.absorb_get_run(shard, &mut ops);
                            self.start_read(ReadGoal::Get { ops }, shard, sub);
                        }
                        StoreOp::Put { key, val } => {
                            let shard = self.router.shard_of(&key);
                            let mut ops = vec![op];
                            let mut puts = vec![(key, val)];
                            self.absorb_put_run(shard, &mut ops, &mut puts);
                            self.start_publish(shard, WriteIntent::Ops(ops), puts, sub, bulk_sends);
                        }
                    }
                }
                Phase::Reading {
                    goal,
                    shard,
                    prefetch,
                } => {
                    match self.read_engine.poll(&mut self.link, sub) {
                        Some(ReadProgress::SanityDone(agreed)) => {
                            self.policies[shard as usize].on_sanity(agreed.as_ref());
                            // A get prefetches its first key's value.
                            let key = match &goal {
                                ReadGoal::Get { ops } => ops.first().map(|(_, key)| key.as_str()),
                                _ => None,
                            };
                            let prefetch = key.and_then(|key| self.probed_ref(key)).map(|vref| {
                                sub.trace(TraceEvent::Phase {
                                    shard,
                                    phase: "Prefetch",
                                });
                                self.request_fetch(shard, vref, bulk_sends)
                            });
                            self.read_engine.start_read(&mut self.link, sub);
                            self.phase = Phase::Reading {
                                goal,
                                shard,
                                prefetch,
                            };
                        }
                        Some(ReadProgress::Done(source, p)) => {
                            let read_wsn = p.wsn;
                            let mut stamped =
                                self.policies[shard as usize].transform(source, p.clone());
                            // The inversion-prevention memory answered in
                            // place of the quorum with a value no writer
                            // of this shard could have published after
                            // the quorum's: forget it and take the
                            // quorum's value, exactly as a clean policy
                            // would (see `corrupt_memory`).
                            if stamped.wsn != read_wsn && self.corrupt_memory(&stamped.val, &p.val)
                            {
                                let policy = &mut self.policies[shard as usize];
                                *policy = AtomicPolicy::new();
                                stamped = policy.transform(source, p);
                            }
                            let wsn = stamped.wsn;
                            let val = stamped.val;
                            #[cfg(feature = "mutation")]
                            let val = self.serve_stale(&goal, shard, val);
                            match self.classify(&val) {
                                // The full plane never prefetches.
                                Resolved::Values(map) => {
                                    self.finish_resolve(
                                        goal, shard, wsn, map, sub, outs, bulk_sends,
                                    );
                                }
                                Resolved::Refs(refs) => {
                                    let refs = match goal {
                                        ReadGoal::Get { .. } => refs,
                                        _ => usable_slots(refs),
                                    };
                                    let res = Resolving {
                                        goal,
                                        shard,
                                        wsn,
                                        refs,
                                        checked: 0,
                                        remembered: wsn != read_wsn,
                                    };
                                    self.resolve_refs(res, prefetch, sub, outs, bulk_sends);
                                }
                                Resolved::Garbage => {
                                    // A reference under full replication,
                                    // a bare reference or a non-empty
                                    // inline map on a bulk plane:
                                    // stabilizing garbage won a quorum —
                                    // re-read until real metadata does.
                                    Self::waste(prefetch, sub);
                                    sub.note_metadata_reread();
                                    self.start_read(goal, shard, sub);
                                }
                            }
                        }
                        None => {
                            self.phase = Phase::Reading {
                                goal,
                                shard,
                                prefetch,
                            };
                            return;
                        }
                    }
                }
                Phase::Fetching {
                    mut res,
                    fetch,
                    timer,
                } => {
                    if let Some(val) = fetch.resolved {
                        sub.cancel_timer(timer);
                        match &mut res.goal {
                            ReadGoal::Get { ops } => {
                                // Every gathered get whose key names this
                                // very value is answered by it.
                                let refs = &res.refs;
                                ops.retain(|(op, key)| {
                                    let hit = refs.get(key) == Some(&fetch.vref);
                                    if hit {
                                        complete_get(sub, outs, *op, Some(val.clone()));
                                    }
                                    !hit
                                });
                            }
                            _ => res.checked += 1,
                        }
                        self.resolve_refs(res, None, sub, outs, bulk_sends);
                        continue;
                    }
                    // Dead round: so many distinct window replicas
                    // answered garbage or a miss that the replies still
                    // outstanding cannot reach `k` verified fragments.
                    // Held fragments do not relax this: a replica whose
                    // fragment is held can only re-serve it, so with `f`
                    // in hand at most `m − bad − f` helpful replies are
                    // outstanding, short of the `k − f` still needed
                    // exactly when `bad > m − k`. A get's reference may
                    // be stale (overwritten metadata) or fabricated —
                    // fall back to the metadata register. An adoption
                    // drops the key (see `Resolving`).
                    //
                    // A get whose map came from the inversion-prevention
                    // memory rather than the quorum also forgets that
                    // memory first. A map this deployment's writer
                    // published resolves (its values were pushed first,
                    // and the memory pins it only while the writer has
                    // not moved on), so a dead one is corrupted local
                    // state — and kept, it would be returned to every
                    // re-read, the get would never end, and a writer
                    // stuck in it would never run its own recovery. The
                    // recovery reads start from a clean policy for the
                    // same reason.
                    let bad_bound = self.coding().map_or(0, |(k, m)| m + 1 - k);
                    if fetch.dead || fetch.bad.len() >= bad_bound {
                        sub.note_dead_fetch_round();
                        sub.cancel_timer(timer);
                        if matches!(res.goal, ReadGoal::Get { .. }) {
                            if res.remembered {
                                self.policies[res.shard as usize] = AtomicPolicy::new();
                            }
                            sub.note_metadata_reread();
                            self.start_read(res.goal, res.shard, sub);
                        } else {
                            sub.trace(TraceEvent::Phase {
                                shard: res.shard,
                                phase: "AdoptDropsKey",
                            });
                            let key = res.refs.entries()[res.checked].0.clone();
                            Arc::make_mut(&mut res.refs).remove(&key);
                            self.resolve_refs(res, None, sub, outs, bulk_sends);
                        }
                        continue;
                    }
                    self.phase = Phase::Fetching { res, fetch, timer };
                    return;
                }
                Phase::PushingBulk {
                    intent,
                    shard,
                    dispersals,
                    payload,
                    timer,
                } => {
                    let need = self.push_needed();
                    if dispersals.iter().all(|d| d.acks.len() >= need) {
                        // k+t verified stores of every value ⇒ ≥k correct
                        // replicas hold verified fragments of each (k = 1:
                        // ≥1 holds a whole copy): the references may
                        // become visible.
                        sub.cancel_timer(timer);
                        self.start_write(shard, intent, payload, sub);
                    } else {
                        self.phase = Phase::PushingBulk {
                            intent,
                            shard,
                            dispersals,
                            payload,
                            timer,
                        };
                        return;
                    }
                }
                Phase::Writing { intent } => {
                    if self.write_engine.poll(&mut self.link, sub) {
                        match intent {
                            WriteIntent::Ops(ops) => {
                                for op in ops {
                                    sub.trace(TraceEvent::OpComplete {
                                        op: op.0,
                                        kind: "put",
                                    });
                                    outs.push(StoreOut::PutDone { op });
                                }
                            }
                            WriteIntent::Recovery => self.recoveries += 1,
                            WriteIntent::Acquire { shard } => {
                                // Adoption republish committed: ownership
                                // is live. Flush the staged puts into the
                                // queue (in issue order — their per-key
                                // order continues the old owner's, since
                                // the adoption read saw its last commit).
                                sub.trace(TraceEvent::Phase {
                                    shard,
                                    phase: "ShardAcquired",
                                });
                                outs.push(StoreOut::ShardAcquired { shard });
                                if let Some(q) = self.staged.remove(&shard) {
                                    self.pending.extend(q);
                                }
                            }
                        }
                        // phase stays Idle; keep pumping the queue.
                    } else {
                        self.phase = Phase::Writing { intent };
                        return;
                    }
                }
            }
        }
    }

    /// Validates one fragment reply against the in-flight fetch: the
    /// fragment must be the right length, carry an in-range index, and
    /// re-verify against the commitment root. The `k`-th distinct
    /// verified fragment triggers reconstruction; a miss or a reply that
    /// fails any check marks the *sender* bad (the fallback-to-other-
    /// replicas path), and re-served fragments for an index already
    /// verified are simply redundant. Only replies from the shard's
    /// window replicas are processed at all — the bad tally is a set of
    /// senders, so no single Byzantine replica (or tag-guessing outsider)
    /// can fabricate a dead round by spamming replies.
    fn on_frag_get_ack(
        &mut self,
        from: ProcessId,
        shard: u32,
        root: BulkDigest,
        tag: u64,
        frag: Option<Served>,
        ctx: &mut StoreCtx<'_, V>,
    ) {
        let Some((k, m)) = self.coding() else {
            return; // full-replication clients never ask for fragments
        };
        if !Self::is_data_replica(self.plane, &self.servers, shard, from) {
            return;
        }
        let (fetching, fetch) = match &mut self.phase {
            Phase::Fetching { res, fetch, .. } => (res.shard, fetch),
            Phase::Reading {
                shard,
                prefetch: Some(fetch),
                ..
            } => (*shard, fetch),
            _ => return,
        };
        let bref = fetch.vref.bref;
        if tag != fetch.tag || shard != fetching || root != bref.digest || fetch.resolved.is_some()
        {
            return; // stale round, wrong dispersal, or already resolved
        }
        let verified = frag.filter(|(index, bytes, proof)| {
            (*index as usize) < m
                && bytes.len() as u64 == fragment_len(bref.len, k)
                && verify_fragment(bref.digest, m, *index as usize, bytes, proof)
        });
        let Some((index, bytes, _)) = verified else {
            fetch.bad.insert(from);
            return;
        };
        if fetch.frags.contains_key(&index) {
            return; // redundant re-serve of a fragment we already hold
        }
        fetch.frags.insert(index, bytes);
        if fetch.frags.len() < k {
            return;
        }
        let pairs: Vec<(u32, SharedBytes)> =
            fetch.frags.iter().map(|(i, b)| (*i, b.clone())).collect();
        match reconstruct(k, bref.len, &pairs).and_then(|b| V::decode_all(&b)) {
            Some(val) => fetch.resolved = Some(val),
            // k commitment-verified fragments that reconstruct into an
            // undecodable payload mean the *writer* committed to an
            // inconsistent or garbage dispersal (a corrupted client, or
            // a fabricated reference that somehow verified) — no further
            // fragments can fix that, so give this reference up.
            None => {
                ctx.note_reconstruction_fallback();
                fetch.dead = true;
            }
        }
    }

    /// Counts one acknowledgement of fragment `index` of `root` on
    /// `shard` from `from` toward every in-flight dispersal of that value.
    /// Only the replica this client assigned that exact index may count
    /// it — the index is the replica's position in the shard's window, so
    /// a Byzantine replica acknowledging a fragment it was never given is
    /// rejected here.
    fn on_push_ack(
        &mut self,
        from: ProcessId,
        shard: u32,
        root: BulkDigest,
        index: u32,
        ctx: &mut StoreCtx<'_, V>,
    ) {
        let eligible =
            Self::window_replica_at(self.plane, &self.servers, shard, index) == Some(from);
        let Phase::PushingBulk {
            shard: s,
            dispersals,
            ..
        } = &mut self.phase
        else {
            return;
        };
        if *s != shard || !eligible {
            return;
        }
        let mut have = None;
        for d in dispersals.iter_mut().filter(|d| d.digest == root) {
            if d.acks.insert(from) {
                have = Some(d.acks.len() as u32);
            }
        }
        if let Some(have) = have {
            if ctx.tracing() {
                ctx.trace(TraceEvent::QuorumAck {
                    shard,
                    have,
                    need: self.push_needed() as u32,
                });
            }
        }
    }
}

impl<V: Payload + BulkCodec> Node for StoreClientNode<V> {
    type Msg = StoreWire<V>;
    type Out = StoreOut<V>;

    fn on_message(&mut self, from: ProcessId, msg: StoreWire<V>, ctx: &mut StoreCtx<'_, V>) {
        match msg {
            StoreMsg::Batch(batch) => {
                for m in batch {
                    match m {
                        RegMsg::SsAck { tag } => {
                            self.link.on_ss_ack(from, tag);
                        }
                        RegMsg::AckRead { reg, last, helping } => {
                            let anchored = self.link.anchored_tag(from);
                            self.read_engine
                                .on_ack_read(from, reg, last, helping, anchored);
                        }
                        RegMsg::AckWrite { reg, helping } => {
                            let anchored = self.link.anchored_tag(from);
                            self.write_engine.on_ack_write(from, reg, helping, anchored);
                        }
                        // Requests are server-bound; receiving one is garbage.
                        RegMsg::Write { .. } | RegMsg::NewHelpVal { .. } | RegMsg::Read { .. } => {}
                    }
                }
            }
            StoreMsg::FragPutAck { shard, root, index } => {
                self.on_push_ack(from, shard, root, index, ctx)
            }
            StoreMsg::FragGetAck {
                shard,
                root,
                tag,
                frag,
            } => self.on_frag_get_ack(from, shard, root, tag, frag, ctx),
            // Server-bound bulk requests — and the server-to-server
            // repair plane — arriving at a client are garbage.
            StoreMsg::BulkGet { .. }
            | StoreMsg::FragPut { .. }
            | StoreMsg::RepairRequest { .. }
            | StoreMsg::RepairReply { .. }
            | StoreMsg::DigestSummary { .. } => {}
        }
        self.step(ctx);
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut StoreCtx<'_, V>) {
        let round_timer = self.round_timer();
        if let Phase::Fetching { res, fetch, timer } = &mut self.phase {
            if *timer == id && fetch.resolved.is_none() {
                if fetch.rounds + 1 >= FETCH_ROUNDS_PER_READ {
                    // Give up on this reference: force the dead-round
                    // path.
                    fetch.dead = true;
                } else {
                    // Retransmission round: fresh tag, reset tally.
                    fetch.rounds += 1;
                    fetch.bad.clear();
                    fetch.tag = self.next_bulk_tag;
                    self.next_bulk_tag += 1;
                    let (shard, round) = (res.shard, fetch.rounds);
                    let (slot, digest, tag) = (fetch.vref.slot, fetch.vref.bref.digest, fetch.tag);
                    ctx.note_retransmit();
                    ctx.trace(TraceEvent::Retransmit { shard, round });
                    for r in Self::replicas_for(self.plane, &self.servers, shard) {
                        ctx.send(
                            r,
                            StoreMsg::BulkGet {
                                shard,
                                slot,
                                digest,
                                tag,
                            },
                        );
                    }
                    *timer = ctx.set_timer(round_timer);
                }
                self.step(ctx);
                return;
            }
        }
        if let Phase::PushingBulk {
            shard,
            dispersals,
            timer,
            ..
        } = &mut self.phase
        {
            if *timer == id {
                // Ack-wait round expired short of the push quorum:
                // re-push to the replicas still missing — each gets its
                // own prepared message (its assigned fragment) again,
                // value by value. In synchronous
                // mode this is the Fig. 5 "wait … or time-out" rule
                // applied to the data plane; in asynchronous mode it is
                // the usual retransmission that keeps the push live
                // across transient loss of in-flight state.
                let shard = *shard;
                let window = Self::replicas_for(self.plane, &self.servers, shard);
                let resend: Vec<(ProcessId, StoreWire<V>)> = dispersals
                    .iter()
                    .flat_map(|d| {
                        window
                            .iter()
                            .zip(&d.pushes)
                            .filter(|(r, _)| !d.acks.contains(r))
                            .map(|(&r, m)| (r, m.clone()))
                    })
                    .collect();
                if !resend.is_empty() {
                    ctx.note_retransmit();
                    ctx.trace(TraceEvent::Phase {
                        shard,
                        phase: "BulkRepush",
                    });
                }
                for (r, m) in resend {
                    ctx.send(r, m);
                }
                *timer = ctx.set_timer(round_timer);
                self.step(ctx);
                return;
            }
        }
        self.read_engine.on_timer(id);
        self.write_engine.on_timer(id);
        self.step(ctx);
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        // Scramble the recoverable protocol state: broadcast anchors,
        // in-flight acknowledgements, sequence stampers, the
        // inversion-prevention pairs — and the owner's authoritative shard
        // maps. The maps are repaired by the recovery rule: before the
        // next put on an owned shard, the owner re-reads its own register
        // and republishes (queued here, executed by the pump).
        self.link.corrupt(rng);
        self.read_engine.corrupt(rng);
        self.write_engine.corrupt(rng);
        for o in self.owned.values_mut() {
            WriteStamper::<StoreVal<V>, StorePayload<V>>::corrupt(&mut o.stamper, rng);
            o.map.scramble(rng);
            o.refs.scramble(rng);
        }
        for p in &mut self.policies {
            ReadPolicy::<StorePayload<V>>::corrupt(p, rng);
        }
        self.need_recover = self.owned.keys().copied().collect();
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_bulk::digest_of;
    use sbs_sim::SimTime;

    type HealingServer = StoreServerNode<u64, sbs_core::ServerNode<u64, ()>>;

    /// The guarded tests' fleet: 9 servers whose process ids are their
    /// slots.
    fn fleet() -> Vec<ProcessId> {
        (0..9).map(ProcessId).collect()
    }

    /// A client of [`fleet`] — the only kind of process that pushes.
    const CLIENT: ProcessId = ProcessId(20);

    /// A `k`-of-3 dispersal of `bytes`: its fragments and their tree.
    fn dispersal(bytes: &[u8], k: usize) -> (Vec<SharedBytes>, MerkleTree) {
        let frags = encode_fragments(bytes, k, 3);
        let tree = MerkleTree::build(&fragment_leaves(&frags));
        (frags, tree)
    }

    /// The push of fragment `index` of `(frags, tree)` for key slot
    /// `slot` of `shard`.
    fn frag_put(
        (frags, tree): &(Vec<SharedBytes>, MerkleTree),
        shard: u32,
        slot: u32,
        index: usize,
    ) -> StoreMsg<u64> {
        StoreMsg::FragPut {
            shard,
            slot,
            root: tree.root(),
            index: index as u32,
            total: 3,
            bytes: frags[index].clone(),
            proof: tree.proof(index),
        }
    }

    /// A started healing data replica at fleet slot `slot` of 9 (process
    /// ids = slots), 4 shards with 3-replica windows, whole copies
    /// (`k = 1`) — plus the handler-driving state [`handle`] threads
    /// through.
    fn healing_server(slot: usize) -> (HealingServer, DetRng, u64) {
        let mut node = StoreServerNode::new(sbs_core::ServerNode::new(0))
            .bulk_guard(slot, fleet(), 4, 3)
            .self_healing(1, SimDuration::millis(2));
        let (mut rng, mut nt) = (DetRng::from_seed(19), 0u64);
        handle(&mut node, &mut rng, &mut nt, |node, ctx| node.on_start(ctx));
        (node, rng, nt)
    }

    /// Runs one handler of `node` under a fresh context; returns what
    /// it emitted.
    fn handle(
        node: &mut HealingServer,
        rng: &mut DetRng,
        nt: &mut u64,
        f: impl FnOnce(&mut HealingServer, &mut Context<'_, StoreMsg<u64>, ()>),
    ) -> Effects<StoreMsg<u64>, ()> {
        let mut eff = Effects::new();
        let mut ctx = Context::new(SimTime::ZERO, ProcessId(0), rng, nt, &mut eff);
        f(node, &mut ctx);
        eff
    }

    /// Fires the armed anti-entropy timer through `Node::on_timer`.
    fn tick(
        node: &mut HealingServer,
        rng: &mut DetRng,
        nt: &mut u64,
    ) -> Effects<StoreMsg<u64>, ()> {
        let timer = node.healer.as_ref().unwrap().timer.unwrap();
        handle(node, rng, nt, |node, ctx| node.on_timer(timer, ctx))
    }

    /// Regression (wire input must not exhaust a correct node): a
    /// `DIGEST_SUMMARY` longer than one gossip batch, or from a sender
    /// outside the fleet's servers, is refused whole — pre-fix every
    /// entry of a summary of any length from anyone became a suspect, and
    /// every suspect a repair pull re-fanned on each tick.
    #[test]
    fn digest_summaries_are_refused_when_oversize_or_foreign() {
        // Slot 1 serves shard 1 (window = slots 1, 2, 3).
        let (mut node, mut rng, mut nt) = healing_server(1);
        let summary = |entries: u64| StoreMsg::DigestSummary {
            entries: (0..entries)
                .map(|i| (1, 0, digest_of(&i.to_le_bytes())))
                .collect(),
        };
        let oversize = summary(ANTI_ENTROPY_BATCH as u64 + 1);
        for (from, msg, what) in [
            (ProcessId(2), oversize, "oversize"),
            (ProcessId(42), summary(1), "foreign"),
        ] {
            let eff = handle(&mut node, &mut rng, &mut nt, |node, ctx| {
                node.on_message(from, msg, ctx)
            });
            assert_eq!(eff.slow_paths().guard_refusals, 1, "{what}");
            assert!(
                node.healer.as_ref().unwrap().suspects.is_empty(),
                "{what}: a refused summary must plant no suspect"
            );
        }
        for _ in 0..3 {
            let eff = tick(&mut node, &mut rng, &mut nt);
            assert!(eff.sends().is_empty() && eff.slow_paths().repair_rounds == 0);
        }

        // A full honest batch from a window peer is still taken whole.
        let eff = handle(&mut node, &mut rng, &mut nt, |node, ctx| {
            node.on_message(ProcessId(2), summary(ANTI_ENTROPY_BATCH as u64), ctx)
        });
        assert_eq!(eff.slow_paths().guard_refusals, 0);
        assert_eq!(
            node.healer.as_ref().unwrap().suspects.len(),
            ANTI_ENTROPY_BATCH
        );
    }

    /// The repair pulls among `eff`'s sends, as `(to, digest)`.
    fn repair_pulls(eff: &Effects<StoreMsg<u64>, ()>) -> Vec<(ProcessId, BulkDigest)> {
        eff.sends()
            .iter()
            .filter_map(|(to, m)| match m {
                StoreMsg::RepairRequest { digest, .. } => Some((*to, *digest)),
                _ => None,
            })
            .collect()
    }

    /// A replica keeps each key's last two values, so an evicted root is
    /// an old value, not a loss: neither a peer's summary naming it nor a
    /// reader's fetch of it plants a repair suspect, and ticks bill no
    /// repair round. A root the replica never held still ripens into a
    /// pull after the grace sweep, and so does the evicted one once a
    /// wipe has made the replica forget its evictions.
    #[test]
    fn evicted_roots_plant_no_repair_suspect() {
        // Slot 1 is position 0 of shard 1's window {1, 2, 3}.
        let (mut node, mut rng, mut nt) = healing_server(1);
        let values: Vec<_> = (0..3u8).map(|i| dispersal(&[i; 24], 1)).collect();
        for d in &values {
            let eff = handle(&mut node, &mut rng, &mut nt, |node, ctx| {
                node.on_message(CLIENT, frag_put(d, 1, 0, 0), ctx)
            });
            assert!(matches!(eff.sends(), [(_, StoreMsg::FragPutAck { .. })]));
        }
        let old = values[0].1.root();
        assert!(!node.frags.holds(&old) && node.frags.evicted(Holder::new(1, 0), &old));
        let suspects = |node: &HealingServer| node.healer.as_ref().unwrap().suspects.len();

        let summary = |digest| StoreMsg::DigestSummary {
            entries: vec![(1, 0, digest)],
        };
        handle(&mut node, &mut rng, &mut nt, |node, ctx| {
            node.on_message(ProcessId(2), summary(old), ctx)
        });
        assert_eq!(suspects(&node), 0, "a summary naming an evicted root");
        let get = StoreMsg::BulkGet {
            shard: 1,
            slot: 0,
            digest: old,
            tag: 3,
        };
        let eff = handle(&mut node, &mut rng, &mut nt, |node, ctx| {
            node.on_message(CLIENT, get, ctx)
        });
        assert!(
            matches!(eff.sends(), [(_, StoreMsg::FragGetAck { frag: None, .. })]),
            "the reader is told it is a miss"
        );
        assert_eq!(suspects(&node), 0, "a fetch of an evicted root");
        for _ in 0..3 {
            let eff = tick(&mut node, &mut rng, &mut nt);
            assert_eq!(eff.slow_paths().repair_rounds, 0);
            assert!(repair_pulls(&eff).is_empty());
        }

        // A root this replica never held is still pulled from the window
        // peers once it stays missing for a period.
        let lost = dispersal(b"never held here", 1).1.root();
        let ripen = |node: &mut HealingServer, rng: &mut DetRng, nt: &mut u64, digest| {
            handle(node, rng, nt, |node, ctx| {
                node.on_message(ProcessId(2), summary(digest), ctx)
            });
            assert_eq!(suspects(node), 1);
            let pulls_of = |eff: &Effects<StoreMsg<u64>, ()>| {
                let mut pulls = repair_pulls(eff);
                pulls.retain(|&(_, d)| d == digest);
                pulls
            };
            assert!(pulls_of(&tick(node, rng, nt)).is_empty(), "grace");
            let eff = tick(node, rng, nt);
            assert_eq!(
                pulls_of(&eff),
                vec![(ProcessId(2), digest), (ProcessId(3), digest)]
            );
            eff
        };
        let eff = ripen(&mut node, &mut rng, &mut nt, lost);
        assert_eq!(eff.slow_paths().repair_rounds, 1);

        // A wiped replica forgets its evictions: the old root is pulled
        // back like any other.
        node.wipe_data_stores();
        ripen(&mut node, &mut rng, &mut nt, old);
    }

    /// Only clients disperse values. A fleet server pushing valid
    /// dispersals of its own under a key's holder — enough of them to
    /// evict the key's committed value — is refused unacked, one guard
    /// refusal per push, and the client-pushed value stays held.
    #[test]
    fn a_fleet_server_cannot_push() {
        use sbs_core::ServerNode;
        let mut node: HealingServer =
            StoreServerNode::new(ServerNode::new(0)).bulk_guard(1, fleet(), 4, 3);
        let (mut rng, mut nt) = (DetRng::from_seed(11), 0u64);
        let committed = dispersal(b"the committed value", 1);
        let eff = handle(&mut node, &mut rng, &mut nt, |node, ctx| {
            node.on_message(CLIENT, frag_put(&committed, 1, 0, 0), ctx)
        });
        assert!(matches!(eff.sends(), [(_, StoreMsg::FragPutAck { .. })]));
        for i in 0..2 * sbs_bulk::RETAINED_PER_KEY as u8 {
            let own = dispersal(&[i; 40], 1);
            let eff = handle(&mut node, &mut rng, &mut nt, |node, ctx| {
                node.on_message(ProcessId(3), frag_put(&own, 1, 0, 0), ctx)
            });
            assert!(eff.sends().is_empty(), "a server's push must not be acked");
            assert_eq!(eff.slow_paths().guard_refusals, 1);
            assert!(!node.frags.holds(&own.1.root()));
        }
        assert!(node.frags.holds(&committed.1.root()));
        assert_eq!(node.frags.fragment_count(), 1);
    }

    /// Growth guard: the anti-entropy tick reads its summary from the
    /// store's holdings index, so its cost does not grow with the store.
    /// A replica holding 20 000 fragments runs 2 000 ticks; every summary
    /// must be exactly the slice of the reference scan the rotation rule
    /// names, sent to the next other server in slot order.
    #[test]
    fn anti_entropy_tick_cost_is_independent_of_store_size() {
        use sbs_bulk::StoredFragment;
        // Slot 2 sits in the windows of shards 0, 1 and 2.
        let (mut node, mut rng, mut nt) = healing_server(2);
        for i in 0..20_000u32 {
            let (frags, tree) = dispersal(&i.to_le_bytes(), 1);
            let own = StoredFragment {
                index: 0,
                total: 3,
                bytes: frags[0].clone(),
                proof: tree.proof(0),
            };
            // Two values per key — the retention bound — so all 20 000
            // stay held.
            let holder = Holder::new(i % 3, i / 6);
            assert!(node.frags.put(holder, tree.root(), own).held());
        }
        let reference = node.frags.holdings();
        let len = reference.len();
        assert_eq!(len, 20_000);
        let others: Vec<ProcessId> = (0..9).filter(|&s| s != 2).map(ProcessId).collect();

        let started = std::time::Instant::now();
        let mut cursor = 0;
        for round in 0..2_000 {
            let eff = tick(&mut node, &mut rng, &mut nt);
            let [(to, StoreMsg::DigestSummary { entries })] = eff.sends() else {
                panic!("round {round}: expected one summary, got {:?}", eff.sends());
            };
            assert_eq!(*to, others[round % others.len()], "round {round}");
            let expected: Vec<Holding> = (0..ANTI_ENTROPY_BATCH)
                .map(|i| reference[(cursor + i) % len])
                .collect();
            assert_eq!(*entries, expected, "round {round}");
            cursor = (cursor + ANTI_ENTROPY_BATCH) % len;
        }
        // The wall bound is what makes this a *growth* guard. With a
        // per-tick full scan (walk 20 000 entries, sort them, every
        // tick) this loop took 46 s in a debug build on the reference
        // container; served from the index it takes a fraction of a
        // second, most of it the debug assertion's once-per-rotation
        // scan (three of them here). Five seconds is ample headroom for
        // a loaded CI host and a ninth of the regression.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "2 000 ticks over a 20 000-entry store took {:?}: the tick is \
             doing work proportional to the store again",
            started.elapsed()
        );
    }

    /// Self-healing regression: a repair pull re-derives the dispersal
    /// and refuses fragment sets whose re-encoded commitment root does
    /// not match the pulled digest — Byzantine peers can serve
    /// path-verified fragments of a *non-codeword* commitment (the
    /// writer-side lie AVID's verifiability exists to catch), and the
    /// repairer must not store an unservable fragment from them. An
    /// honest dispersal pulled the same way repairs into this replica's
    /// own window-position fragment.
    #[test]
    fn repair_refuses_commitment_mismatched_fragments() {
        use sbs_core::ServerNode;
        type P = u64;
        // Coded window: n = 9, shards = 4, replicas = 3, k = 2; this
        // server is slot 1 — window position 1 for shard 0.
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0))
                .bulk_guard(1, fleet(), 4, 3)
                .self_healing(2, SimDuration::millis(1));
        enum Ev {
            Start,
            Msg(u32, StoreMsg<u64>),
            /// Fire the armed anti-entropy timer — suspects need two
            /// ticks (arm, then pull) before the repair fans out.
            Tick,
        }
        let mut rng = DetRng::from_seed(3);
        let mut nt = 0u64;
        let mut drive = |node: &mut StoreServerNode<P, ServerNode<P, ()>>, ev: Ev| {
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(SimTime::ZERO, ProcessId(1), &mut rng, &mut nt, &mut eff);
            match ev {
                Ev::Start => node.on_start(&mut ctx),
                Ev::Msg(from, msg) => node.on_message(ProcessId(from), msg, &mut ctx),
                Ev::Tick => {
                    let t = node.healer.as_ref().unwrap().timer.unwrap();
                    node.on_timer(t, &mut ctx);
                }
            }
            eff
        };
        drive(&mut node, Ev::Start);

        let (k, m) = (2usize, 3usize);
        let payload = vec![7u8; 64];
        let frags = encode_fragments(&payload, k, m);

        // The poisoned dispersal: the parity fragment is garbled
        // *before* committing, so the Merkle root covers a fragment set
        // that is not a codeword — yet fragments 0 and 1 still verify
        // against it with honest paths.
        let mut garbled = frags[2].to_vec();
        garbled[0] ^= 0x5A;
        let poisoned = vec![frags[0].clone(), frags[1].clone(), garbled.into()];
        let bad_tree = MerkleTree::build(&fragment_leaves(&poisoned));
        let bad_root = bad_tree.root();

        // The summary marks the missing root as a suspect; the pull
        // opens only after the two-tick grace sweep, fanning requests
        // to both window peers.
        let eff = drive(
            &mut node,
            Ev::Msg(
                0,
                StoreMsg::DigestSummary {
                    entries: vec![(0, 4, bad_root)],
                },
            ),
        );
        assert!(
            eff.sends().is_empty(),
            "a summary alone must not open a pull (in-flight grace)"
        );
        let eff = drive(&mut node, Ev::Tick); // arms the suspect
        assert_eq!(eff.slow_paths().repair_rounds, 0);
        let eff = drive(&mut node, Ev::Tick); // still missing: pull
        assert_eq!(eff.sends().len(), 2, "repair fans to the window peers");
        assert_eq!(eff.slow_paths().repair_rounds, 1);
        for (i, from) in [(0u32, 0u32), (1, 2)] {
            drive(
                &mut node,
                Ev::Msg(
                    from,
                    StoreMsg::RepairReply {
                        shard: 0,
                        slot: 4,
                        digest: bad_root,
                        frag: Some((i, poisoned[i as usize].clone(), bad_tree.proof(i as usize))),
                    },
                ),
            );
        }
        assert!(
            !node.frag_store().holds(&bad_root),
            "a commitment-mismatched dispersal must be refused"
        );

        // The honest dispersal, pulled identically, repairs into this
        // replica's own window-position fragment (index 1 for shard 0).
        let tree = MerkleTree::build(&fragment_leaves(&frags));
        let root = tree.root();
        drive(
            &mut node,
            Ev::Msg(
                0,
                StoreMsg::DigestSummary {
                    entries: vec![(0, 4, root)],
                },
            ),
        );
        drive(&mut node, Ev::Tick);
        drive(&mut node, Ev::Tick);
        for (i, from) in [(0u32, 0u32), (1, 2)] {
            drive(
                &mut node,
                Ev::Msg(
                    from,
                    StoreMsg::RepairReply {
                        shard: 0,
                        slot: 4,
                        digest: root,
                        frag: Some((i, frags[i as usize].clone(), tree.proof(i as usize))),
                    },
                ),
            );
        }
        let stored = node
            .frag_store()
            .get_for(0, &root)
            .expect("the honest dispersal must repair");
        assert_eq!(stored.index, 1, "repair re-derives the *own-slot* fragment");
        assert_eq!(stored.bytes.as_ref(), frags[1].as_ref());
        assert!(verify_fragment(
            root,
            m,
            stored.index as usize,
            &stored.bytes,
            &stored.proof
        ));
    }

    #[test]
    #[should_panic(expected = "does not own shard")]
    fn put_on_non_owner_panics() {
        let cfg = RegisterConfig::asynchronous(9, 1);
        let router = KeyRouter::new(4, 2);
        let servers: Vec<ProcessId> = (2..11).map(ProcessId).collect();
        let clients = vec![ProcessId(0), ProcessId(1)];
        // Find a key owned by writer 1, then invoke its put on writer 0.
        let key = (0..64)
            .map(|i| format!("key{i}"))
            .find(|k| router.writer_of(k) == 1)
            .unwrap();
        let mut node: StoreClientNode<u64> = StoreClientNode::new(
            cfg,
            router,
            servers,
            clients,
            &router.shards_of_writer(0),
            257,
            DataPlane::Full,
        );
        let mut rng = DetRng::from_seed(1);
        let mut nt = 0u64;
        let mut eff: Effects<StoreWire<u64>, StoreOut<u64>> = Effects::new();
        let mut ctx = Context::new(SimTime::ZERO, ProcessId(0), &mut rng, &mut nt, &mut eff);
        node.invoke_put(OpId(0), key, 5, &mut ctx);
    }

    #[test]
    fn bulk_server_refuses_fabricated_blobs_and_serves_held_ones() {
        use sbs_core::ServerNode;
        type P = u64;
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0));
        let mut rng = DetRng::from_seed(2);
        let mut nt = 0u64;
        let client = ProcessId(0);
        let run = |node: &mut StoreServerNode<P, ServerNode<P, ()>>,
                   rng: &mut DetRng,
                   nt: &mut u64,
                   msg: StoreMsg<P>| {
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(SimTime::ZERO, ProcessId(9), rng, nt, &mut eff);
            node.on_message(client, msg, &mut ctx);
            eff
        };

        // A whole copy: fragment 0 of a one-stripe dispersal.
        let copy = dispersal(b"real value", 1);
        let root = copy.1.root();

        // A fabricated fragment (bytes not matching the commitment) is
        // refused: no ack, nothing stored.
        let mut forged = frag_put(&copy, 1, 0, 0);
        if let StoreMsg::FragPut { bytes, .. } = &mut forged {
            *bytes = b"forged".to_vec().into();
        }
        let eff = run(&mut node, &mut rng, &mut nt, forged);
        assert!(eff.sends().is_empty(), "forged fragment must not be acked");
        assert_eq!(node.frag_store().fragment_count(), 0);

        // The genuine fragment stores and acks.
        let eff = run(&mut node, &mut rng, &mut nt, frag_put(&copy, 1, 0, 0));
        assert!(matches!(
            eff.sends(),
            [(_, StoreMsg::FragPutAck { shard: 1, .. })]
        ));
        assert!(node.frag_store().holds(&root));

        // A get returns the held fragment verbatim.
        let eff = run(
            &mut node,
            &mut rng,
            &mut nt,
            StoreMsg::BulkGet {
                shard: 1,
                slot: 0,
                digest: root,
                tag: 7,
            },
        );
        let [(
            to,
            StoreMsg::FragGetAck {
                tag: 7,
                frag: Some((0, served, proof)),
                ..
            },
        )] = eff.sends()
        else {
            panic!("expected one FragGetAck, got {:?}", eff.sends());
        };
        assert_eq!(*to, client);
        assert_eq!(served.as_ref(), b"real value");
        assert!(verify_fragment(root, 3, 0, served, proof));
    }

    /// The deployment guard refuses every wire-controlled lie the bulk
    /// plane could otherwise be fed: fragments with a foreign index
    /// (pre-seeding a correct replica with another replica's fragment
    /// to poison push-quorum acks), dispersal shapes other than the
    /// deployment's (a degenerate one-leaf `total = 1`, a shapeless
    /// `total = 0`), fragments on a full-replication deployment, and
    /// puts for shards outside this replica's window (unbounded
    /// retention state).
    #[test]
    fn bulk_guard_refuses_foreign_indices_totals_and_shards() {
        use sbs_core::ServerNode;
        type P = u64;
        let run = |node: &mut StoreServerNode<P, ServerNode<P, ()>>,
                   rng: &mut DetRng,
                   nt: &mut u64,
                   msg: StoreMsg<P>| {
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(sbs_sim::SimTime::ZERO, ProcessId(9), rng, nt, &mut eff);
            node.on_message(CLIENT, msg, &mut ctx);
            eff
        };
        let mut rng = DetRng::from_seed(5);
        let mut nt = 0u64;

        // Fleet slot 1 of 9, 4 shards, 2-of-3: shard 1's window is slots
        // {1, 2, 3}, so this server's position (= fragment index) for
        // shard 1 is 0.
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0)).bulk_guard(1, fleet(), 4, 3);
        let coded = dispersal(&[3u8; 64], 2);

        // A *different replica's* fragment — commitment-valid, wrong
        // index for this slot — is refused unacked.
        let eff = run(&mut node, &mut rng, &mut nt, frag_put(&coded, 1, 0, 1));
        assert!(eff.sends().is_empty(), "foreign index must not be acked");
        assert_eq!(eff.slow_paths().guard_refusals, 1);
        assert_eq!(node.frag_store().fragment_count(), 0);

        // Shapes other than the deployment's are refused by the shape
        // pin: the degenerate one-leaf forgery (bytes hashing straight to
        // the root it names) and the shapeless one.
        let blob: SharedBytes = b"a whole value".to_vec().into();
        let d = digest_of(&blob);
        for total in [1, 0] {
            let eff = run(
                &mut node,
                &mut rng,
                &mut nt,
                StoreMsg::FragPut {
                    shard: 1,
                    slot: 0,
                    root: d,
                    index: 0,
                    total,
                    bytes: blob.clone(),
                    proof: Vec::new(),
                },
            );
            assert!(eff.sends().is_empty(), "total={total} must be refused");
            assert_eq!(eff.slow_paths().guard_refusals, 1);
        }

        // This replica's own fragment is stored and acked.
        let eff = run(&mut node, &mut rng, &mut nt, frag_put(&coded, 1, 0, 0));
        assert!(matches!(
            eff.sends(),
            [(_, StoreMsg::FragPutAck { index: 0, .. })]
        ));

        // Puts outside the deployment: nonexistent shard, and a shard
        // whose window skips this slot (shard 2's window is {2, 3, 4}).
        for bad_shard in [9u32, 2] {
            let eff = run(
                &mut node,
                &mut rng,
                &mut nt,
                frag_put(&coded, bad_shard, 0, 0),
            );
            assert!(eff.sends().is_empty(), "shard {bad_shard} must be refused");
            assert_eq!(eff.slow_paths().guard_refusals, 1);
        }
        assert_eq!(node.frag_store().fragment_count(), 1);

        // A full-replication deployment (no data window) refuses every
        // fragment, whatever its shape.
        let mut full: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0)).bulk_guard(1, fleet(), 4, 0);
        let shapeless = StoreMsg::FragPut {
            shard: 1,
            slot: 0,
            root: d,
            index: 0,
            total: 0,
            bytes: blob.clone(),
            proof: Vec::new(),
        };
        for msg in [frag_put(&coded, 1, 0, 0), shapeless] {
            let eff = run(&mut full, &mut rng, &mut nt, msg);
            assert!(eff.sends().is_empty(), "fragments on a full plane refused");
            assert_eq!(eff.slow_paths().guard_refusals, 1);
        }
        assert_eq!(full.frag_store().fragment_count(), 0);
    }

    /// Holder slots are wire data too: a push or a repair pull naming a
    /// key slot outside the deployment's slot space is refused — counted
    /// as a guard refusal, never stored, never acknowledged — so a forger
    /// cannot make a replica keep retention state for invented slots.
    #[test]
    fn bulk_guard_refuses_slots_outside_the_slot_space() {
        use sbs_core::ServerNode;
        type P = u64;
        let run = |node: &mut StoreServerNode<P, ServerNode<P, ()>>, msg: StoreMsg<P>| {
            let (mut rng, mut nt) = (DetRng::from_seed(7), 0u64);
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(SimTime::ZERO, ProcessId(9), &mut rng, &mut nt, &mut eff);
            // Pushes come from a client, repair pulls from a peer server.
            let from = match msg {
                StoreMsg::FragPut { .. } => CLIENT,
                _ => ProcessId(2),
            };
            node.on_message(from, msg, &mut ctx);
            eff
        };
        // Slot 1 of 9, 4 shards, 3-replica windows: shard 1's window is
        // slots {1, 2, 3}, position 0 here.
        let coded = dispersal(&[5u8; 64], 2);
        let root = coded.1.root();
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0))
                .bulk_guard(1, fleet(), 4, 3)
                .self_healing(2, SimDuration::millis(2));
        for slot in [KEY_SLOTS, u32::MAX] {
            let eff = run(&mut node, frag_put(&coded, 1, slot, 0));
            assert!(eff.sends().is_empty(), "slot {slot} must not be acked");
            assert_eq!(eff.slow_paths().guard_refusals, 1);
            let eff = run(
                &mut node,
                StoreMsg::RepairRequest {
                    shard: 1,
                    slot,
                    digest: root,
                },
            );
            assert!(
                eff.sends().is_empty(),
                "repair pull for slot {slot} refused"
            );
            assert_eq!(eff.slow_paths().guard_refusals, 1);
        }
        assert_eq!(node.frag_store().fragment_count(), 0);
        // The last slot of the space is a slot like any other.
        let eff = run(&mut node, frag_put(&coded, 1, KEY_SLOTS - 1, 0));
        assert!(matches!(eff.sends(), [(_, StoreMsg::FragPutAck { .. })]));
        assert_eq!(
            node.frag_store().holders(&root),
            BTreeSet::from([Holder::new(1, KEY_SLOTS - 1)])
        );
    }

    /// Register ids are wire data too: the deployment's registers are
    /// exactly its shards, so a write or read naming any other id is
    /// refused — one guard refusal per message, no acknowledgement, no
    /// register slot allocated — while an in-range id is served as
    /// before.
    #[test]
    fn guard_refuses_register_ids_outside_the_shard_space() {
        use sbs_core::ServerNode;
        type P = u64;
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0)).bulk_guard(1, fleet(), 4, 3);
        let (mut rng, mut nt) = (DetRng::from_seed(3), 0u64);
        let mut run = |node: &mut StoreServerNode<P, ServerNode<P, ()>>, batch| {
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(SimTime::ZERO, ProcessId(9), &mut rng, &mut nt, &mut eff);
            node.on_message(ProcessId(0), StoreMsg::Batch(batch), &mut ctx);
            eff
        };
        let write = |reg: u32, tag: u64| RegMsg::Write {
            reg: RegId(reg),
            tag,
            val: 7,
        };
        let read = |reg: u32, tag: u64| RegMsg::Read {
            reg: RegId(reg),
            tag,
            new_read: true,
        };
        for (i, reg) in [4u32, u32::MAX].into_iter().enumerate() {
            let tag = 10 * i as u64;
            for msg in [write(reg, tag + 1), read(reg, tag + 2)] {
                let eff = run(&mut node, vec![msg]);
                assert!(eff.sends().is_empty(), "register {reg} must not be acked");
                assert_eq!(eff.slow_paths().guard_refusals, 1);
            }
            let eff = run(&mut node, vec![write(reg, tag + 3), read(reg, tag + 4)]);
            assert!(eff.sends().is_empty());
            assert_eq!(eff.slow_paths().guard_refusals, 2, "one per message");
            assert!(node.inner().core().slot(RegId(reg)).is_none());
        }
        // The last shard's register is a register like any other, and a
        // refused message does not hold up the rest of its batch.
        let eff = run(&mut node, vec![write(4, 100), write(3, 101)]);
        assert_eq!(eff.slow_paths().guard_refusals, 1);
        let [(_, StoreMsg::Batch(acks))] = eff.sends() else {
            panic!("expected one batch of acks, got {:?}", eff.sends());
        };
        assert!(matches!(
            acks[..],
            [
                RegMsg::SsAck { tag: 101 },
                RegMsg::AckWrite { reg: RegId(3), .. }
            ]
        ));
        assert_eq!(node.inner().core().slot(RegId(3)).map(|s| s.last), Some(7));
    }

    /// Regression (REVIEW of ISSUE 5, write liveness): shard windows
    /// overlap — slot 1 of 9 sits at position 1 in shard 0's window
    /// {0, 1, 2} and position 0 in shard 1's window {1, 2, 3} — so when
    /// both shards disperse byte-identical payloads (one commitment
    /// root), this replica must store **both** shards' fragment indices
    /// and acknowledge both pushes. Pre-fix the fragment store held one
    /// index per root and silently refused the second shard's put, which
    /// could never then reach its `k + t` push quorum.
    #[test]
    fn overlapping_windows_store_each_shards_fragment_of_an_aliased_root() {
        use sbs_bulk::{encode_fragments, fragment_leaves, merkle_proof, merkle_root};
        use sbs_core::ServerNode;
        type P = u64;
        let run = |node: &mut StoreServerNode<P, ServerNode<P, ()>>,
                   rng: &mut DetRng,
                   nt: &mut u64,
                   msg: StoreMsg<P>| {
            let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
            let mut ctx = Context::new(sbs_sim::SimTime::ZERO, ProcessId(9), rng, nt, &mut eff);
            node.on_message(CLIENT, msg, &mut ctx);
            eff
        };
        let mut rng = DetRng::from_seed(13);
        let mut nt = 0u64;
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0)).bulk_guard(1, fleet(), 4, 3);

        let payload = vec![8u8; 64];
        let frags = encode_fragments(&payload, 2, 3);
        let leaves = fragment_leaves(&frags);
        let root = merkle_root(&leaves);
        let frag_put = |shard: u32, index: usize| StoreMsg::FragPut {
            shard,
            slot: 0,
            root,
            index: index as u32,
            total: 3,
            bytes: frags[index].clone(),
            proof: merkle_proof(&leaves, index),
        };

        // Shard 0's dispersal reaches this replica as fragment 1…
        let eff = run(&mut node, &mut rng, &mut nt, frag_put(0, 1));
        assert!(matches!(
            eff.sends(),
            [(
                _,
                StoreMsg::FragPutAck {
                    shard: 0,
                    index: 1,
                    ..
                }
            )]
        ));
        // …and shard 1's identical dispersal as fragment 0: it MUST be
        // stored and acked too, or shard 1's push wedges forever.
        let eff = run(&mut node, &mut rng, &mut nt, frag_put(1, 0));
        assert!(
            matches!(
                eff.sends(),
                [(
                    _,
                    StoreMsg::FragPutAck {
                        shard: 1,
                        index: 0,
                        ..
                    }
                )]
            ),
            "the second shard's index of the aliased root must be acked, got {:?}",
            eff.sends()
        );
        assert_eq!(node.frag_store().fragment_count(), 2);

        // Each shard's fetch is served its own window position's index.
        for (shard, index) in [(0u32, 1u32), (1, 0)] {
            let eff = run(
                &mut node,
                &mut rng,
                &mut nt,
                StoreMsg::BulkGet {
                    shard,
                    slot: 0,
                    digest: root,
                    tag: 5,
                },
            );
            assert!(
                matches!(
                    eff.sends(),
                    [(_, StoreMsg::FragGetAck { frag: Some((i, _, _)), .. })] if *i == index
                ),
                "shard {shard} must be served index {index}, got {:?}",
                eff.sends()
            );
        }
    }

    #[test]
    fn byzantine_bulk_server_serves_garbled_bytes() {
        use sbs_core::ServerNode;
        type P = u64;
        let mut node: StoreServerNode<P, ServerNode<P, ()>> =
            StoreServerNode::new(ServerNode::new(0)).byzantine_bulk();
        let mut rng = DetRng::from_seed(3);
        let mut nt = 0u64;
        let copy = dispersal(b"honest bytes", 1);
        let root = copy.1.root();
        let get = |digest| StoreMsg::BulkGet {
            shard: 0,
            slot: 0,
            digest,
            tag: 1,
        };

        let mut eff: Effects<StoreMsg<P>, ()> = Effects::new();
        let mut ctx = Context::new(SimTime::ZERO, ProcessId(9), &mut rng, &mut nt, &mut eff);
        node.on_message(ProcessId(0), frag_put(&copy, 0, 0, 0), &mut ctx);
        node.on_message(ProcessId(0), get(root), &mut ctx);
        // A miss is answered with fabricated filler, never as a miss.
        node.on_message(ProcessId(0), get(digest_of(b"unheld")), &mut ctx);
        let served: Vec<&Served> = eff
            .sends()
            .iter()
            .filter_map(|(_, m)| match m {
                StoreMsg::FragGetAck { frag, .. } => frag.as_ref(),
                _ => None,
            })
            .collect();
        let [(index, bytes, proof), (_, filler, _)] = served[..] else {
            panic!("byz replica must answer both gets, got {served:?}");
        };
        assert_ne!(
            bytes.as_ref(),
            b"honest bytes",
            "byz replica must serve wrong bytes"
        );
        assert!(
            !verify_fragment(root, 3, *index as usize, bytes, proof),
            "…which can never verify"
        );
        assert!(!filler.is_empty());
        assert_eq!(
            node.frag_store()
                .get(&root)
                .expect("stored honestly")
                .bytes
                .as_ref(),
            b"honest bytes",
            "garbling is copy-on-write"
        );
    }
}
