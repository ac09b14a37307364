//! The store client: sequential `put`/`get` operations on any number of
//! shards, run as one phase at a time by the pump (`phase.rs`), with the
//! bulk plane's push and fetch rounds beside it (`bulk.rs`).
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
//! # Background help rounds
//!
//! A publish — a put, or a recovery or adoption republish — completes
//! when its `WRITE` round does. When line 03 of Figure 2 then launches a
//! `NEW_HELP_VAL` round, that round runs in the background (at most one
//! per owned shard, broadcast detached on the one [`ClientLink`]) while
//! the client serves its next operations, and ends by the same rule as
//! before: `n − t` `SS_ACK`s asynchronously, all `n` or the round
//! timeout synchronously. The shard's next `WRITE` waits until it has
//! ended ([`Phase::AwaitHelp`]), and so does the shard's retirement, so
//! servers see a register's events in the order they always did. That
//! is all safety needs: a reader returning help value `v_k` had `t + 1`
//! correct servers apply it after its own `READ(true)`, and help round
//! `k` reached `n − t` servers before `WRITE(k + 1)` left, so no read
//! invoked after put `k + 1` completed can return `v_k`. A read invoked
//! while help round `k` still runs may return `v_k` — then the last
//! completed write. A bulk-plane put's push may overlap the previous
//! help round too; only its metadata write waits.
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

mod bulk;
mod phase;

use super::{DataPlane, StorePayload, StoreWire};
use crate::batcher::DestBatcher;
use crate::map::ShardMap;
use crate::msg::{StoreMsg, StoreOut};
use crate::router::KeyRouter;
#[cfg(feature = "mutation")]
use crate::val::ValueRef;
use crate::val::{RefMap, StoreVal};
use phase::Phase;
use sbs_bulk::{coded_push_quorum, BulkCodec, BulkDigest};
use sbs_core::{
    AtomicPolicy, ClientLink, Payload, ReadEngine, ReadPolicy, RegId, RegMsg, RegisterConfig,
    WriteEngine, WriteStamper, WsnStamp,
};
use sbs_sim::{Context, DetRng, Effects, Node, OpId, ProcessId, SimDuration, TimerId, TraceEvent};
use sbs_stamps::{RingSeq, PAPER_MODULUS};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

type StoreCtx<'a, V> = Context<'a, StoreWire<V>, StoreOut<V>>;

/// The pump's sub-context: the register engines' wire type, the store's
/// completions.
type PumpCtx<'a, V> = Context<'a, RegMsg<StorePayload<V>>, StoreOut<V>>;

/// Consecutive fetch retransmission rounds before the client falls back
/// to re-reading the metadata register (which recovers from fabricated
/// references and from metadata that has since moved on).
const FETCH_ROUNDS_PER_READ: u32 = 2;

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
    /// All store clients (the reader set every shard write must help).
    clients: Vec<ProcessId>,
    policies: Vec<AtomicPolicy<StoreVal<V>>>,
    owned: BTreeMap<u32, OwnedShard<V>>,
    read_engine: ReadEngine<StorePayload<V>>,
    write_engine: WriteEngine<StorePayload<V>>,
    /// Background help rounds, at most one per owned shard: the write
    /// engines whose write round completed (so did the publish) while
    /// their `NEW_HELP_VAL` round still runs. The shard's next `WRITE`
    /// waits in [`Phase::AwaitHelp`] until it ends.
    helping: BTreeMap<u32, WriteEngine<StorePayload<V>>>,
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
    /// Bulk-plane sends the pump queued, emitted after its batched
    /// register messages (empty between handlers).
    bulk_sends: Vec<(ProcessId, StoreWire<V>)>,
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

impl<V: Payload + BulkCodec> StoreClientNode<V> {
    /// Creates a client over `servers`, owning `owned_shards` (empty for a
    /// read-only client). `clients` is the full client set of the store —
    /// the helping mechanism of every owned shard serves all of them.
    /// Owned shards stamp on the paper's sequence-number ring
    /// ([`PAPER_MODULUS`]).
    pub fn new(
        cfg: RegisterConfig,
        router: KeyRouter,
        servers: Vec<ProcessId>,
        clients: Vec<ProcessId>,
        owned_shards: &[u32],
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
                        stamper: WsnStamp::new(RingSeq::zero(PAPER_MODULUS)),
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
            link: ClientLink::new(servers, cfg.t),
            clients,
            policies: (0..router.shards()).map(|_| AtomicPolicy::new()).collect(),
            owned,
            read_engine: ReadEngine::new(RegId(0), cfg),
            write_engine: WriteEngine::new(RegId(0), cfg, Vec::new()),
            helping: BTreeMap::new(),
            phase: Phase::Idle,
            pending: VecDeque::new(),
            need_recover: VecDeque::new(),
            recoveries: 0,
            next_bulk_tag: 0,
            retiring: BTreeSet::new(),
            staged: BTreeMap::new(),
            acquires: VecDeque::new(),
            batcher: DestBatcher::new(),
            bulk_sends: Vec::new(),
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
    /// holding [`KEY_SLOTS`](crate::KEY_SLOTS) keys a new one.
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

    /// The shards whose help round runs in the background — a subset of
    /// [`Self::owned_shards`], one round at most per shard.
    pub fn help_rounds(&self) -> Vec<u32> {
        self.helping.keys().copied().collect()
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
        let (shard, fetch) = phase::fetch_in_flight!(&self.phase)?;
        Some((shard, fetch.vref.bref.digest, fetch.tag, fetch.bad.len()))
    }

    /// One bulk-plane round's timer span: the timeout derived from the
    /// link bound in synchronous mode (the same "wait … or time-out"
    /// discipline the register rounds follow, Fig. 5), the retransmission
    /// period in asynchronous mode.
    fn round_timer(&self) -> SimDuration {
        self.cfg.timeout().unwrap_or(self.cfg.retry_after)
    }

    /// Verified-store acknowledgements a push must collect before the
    /// metadata write: `k + t`, capped by the window (the builder refuses
    /// windows below `k + t`; a client constructed with one waits for
    /// every replica instead of forever).
    fn push_needed(&self) -> usize {
        self.plane
            .coding()
            .map_or(0, |(k, m)| coded_push_quorum(self.cfg.t, k).min(m))
    }

    /// Runs the pump inside a sub-context, then re-emits batched sends,
    /// forwarded timers, bulk-plane sends, and operation completions.
    fn step(&mut self, ctx: &mut StoreCtx<'_, V>) {
        let mut eff: Effects<RegMsg<StorePayload<V>>, StoreOut<V>> = Effects::new();
        {
            let this = &mut *self;
            ctx.with_effects(&mut eff, |sub| this.pump(sub));
        }
        debug_assert!(
            self.helping.keys().all(|s| self.owned.contains_key(s))
                && self.link.detached() <= self.helping.len(),
            "background help rounds must stay within the owned shards"
        );
        let outs = self.batcher.forward_batched(eff, ctx);
        for (to, m) in self.bulk_sends.drain(..) {
            ctx.send(to, m);
        }
        for o in outs {
            ctx.output(o);
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
        if !self.on_bulk_timer(id, ctx) {
            self.read_engine.on_timer(id);
            self.write_engine.on_timer(id);
            for engine in self.helping.values_mut() {
                engine.on_timer(id);
            }
        }
        self.step(ctx);
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        // Scramble the recoverable protocol state: broadcast anchors,
        // in-flight acknowledgements, sequence stampers, the
        // inversion-prevention pairs — and the owner's authoritative shard
        // maps. The maps are repaired by the recovery rule: before the
        // next put on an owned shard, the owner re-reads its own register
        // and republishes (queued here, executed by the pump). Every
        // field is listed, so a new one is a compile error until it is
        // classed here (ROADMAP item 2(b)'s field table).
        let Self {
            cfg: _,    // config
            router: _, // config: the harness owns the routing view
            plane: _,  // config
            link,
            clients: _, // config
            policies,
            owned,
            read_engine,
            write_engine,
            helping,
            phase: _,   // not yet scrambled: item 2(b)
            pending: _, // not yet scrambled: item 2(b)
            need_recover,
            recoveries: _,    // not yet scrambled: item 2(b)
            next_bulk_tag: _, // not yet scrambled: item 2(b)
            retiring: _,      // not yet scrambled: item 2(b)
            staged: _,        // not yet scrambled: item 2(b)
            acquires: _,      // not yet scrambled: item 2(b)
            batcher: _,       // derived: empty between handlers
            bulk_sends: _,    // derived: empty between handlers
            // Test hooks, compiled only under the `mutation` feature.
            #[cfg(feature = "mutation")]
                weaken_recency: _,
            #[cfg(feature = "mutation")]
                stale_reads: _,
        } = self;
        link.corrupt(rng);
        read_engine.corrupt(rng);
        write_engine.corrupt(rng);
        for engine in helping.values_mut() {
            engine.corrupt(rng);
        }
        for o in owned.values_mut() {
            WriteStamper::<StoreVal<V>, StorePayload<V>>::corrupt(&mut o.stamper, rng);
            o.map.scramble(rng);
            o.refs.scramble(rng);
        }
        for p in policies.iter_mut() {
            ReadPolicy::<StorePayload<V>>::corrupt(p, rng);
        }
        *need_recover = owned.keys().copied().collect();
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
