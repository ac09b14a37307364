//! The client's bulk data plane (AVID-style dispersal): the push round of
//! a publish and the fetch rounds of a read.
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

use super::phase::{complete_get, fetch_in_flight, ReadGoal, WriteIntent};
use super::*;
use crate::node::{slot_in_range, Served};
use crate::val::{ValueRef, KEY_SLOTS};
use sbs_bulk::{
    encode_fragments, fragment_leaves, fragment_len, reconstruct, verify_fragment, BulkRef,
    MerkleTree, ReplicaWindow, SharedBytes,
};
use std::sync::Arc;

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
/// way [`ShardMap`]'s scramble loses entries — inside
/// the transient window that planted the dead reference — and gets of it
/// answer "absent" until the key is written again. A correct writer's
/// committed references never fail it: each was published only after its
/// push quorum held, and retention keeps a key's latest value.
#[derive(Debug)]
pub(super) struct Resolving {
    pub(super) goal: ReadGoal,
    pub(super) shard: u32,
    /// The metadata stamp the map arrived under (adoption resyncs the
    /// owner's stamper from it).
    pub(super) wsn: RingSeq,
    /// The reference map the read returned; adoption drops the keys whose
    /// references turn out dead.
    pub(super) refs: Arc<RefMap>,
    /// Adoption only: the entries of `refs` before this index resolved.
    pub(super) checked: usize,
    /// The read returned this reader's inversion-prevention memory (the
    /// `pv` of Figure 3's lines 13M) instead of the quorum's value.
    pub(super) remembered: bool,
}

/// One value fetch: the data-replica round(s) resolving one
/// [`ValueRef`]. Its retransmission timer belongs to the `Fetching` phase,
/// so a prefetch riding a `Reading` phase has none.
#[derive(Debug)]
pub(super) struct Fetch<V> {
    pub(super) vref: ValueRef,
    /// Current round tag (stale replies are dropped by tag).
    pub(super) tag: u64,
    /// Window replicas that answered this round with garbage or a miss.
    /// A *set of senders* — never a reply count — so a Byzantine replica
    /// spamming bad replies contributes exactly one entry and cannot
    /// fabricate a dead round by itself; replies from outside the shard's
    /// window are ignored entirely.
    pub(super) bad: BTreeSet<ProcessId>,
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

impl<V: Payload> Fetch<V> {
    /// This round's requests: the fragment of the fetched reference,
    /// asked of every replica of `shard`'s window under the round's tag.
    fn requests(
        &self,
        shard: u32,
        window: ReplicaWindow<'_, ProcessId>,
    ) -> impl Iterator<Item = (ProcessId, StoreWire<V>)> {
        let (slot, digest, tag) = (self.vref.slot, self.vref.bref.digest, self.tag);
        window.members(shard).into_iter().map(move |r| {
            let get = StoreMsg::BulkGet {
                shard,
                slot,
                digest,
                tag,
            };
            (r, get)
        })
    }
}

/// One value's dispersal inside a bulk-plane publish.
#[derive(Debug)]
pub(super) struct Dispersal<V: Payload> {
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

impl<V: Payload> Dispersal<V> {
    /// The pushes this dispersal still owes: its fragment to each of
    /// `replicas` (the shard's window, index-aligned with the pushes)
    /// that has not acknowledged it — every replica, before the first
    /// acknowledgement.
    fn owed<'a>(
        &'a self,
        replicas: &'a [ProcessId],
    ) -> impl Iterator<Item = (ProcessId, StoreWire<V>)> + 'a {
        replicas
            .iter()
            .zip(&self.pushes)
            .filter(|(r, _)| !self.acks.contains(r))
            .map(|(&r, m)| (r, m.clone()))
    }
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
pub(super) fn usable_slots(refs: Arc<RefMap>) -> Arc<RefMap> {
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
    /// Publishes the authoritative state of `shard` after folding `puts`
    /// into it, in queue order. Under full replication that is one
    /// metadata write of the map of values. On the bulk plane each put
    /// key's latest value is encoded alone and dispersed to the data
    /// replicas under the key's slot (a new key takes the lowest free
    /// slot), and the map of references — with every put key pointing at
    /// its new value — is written once every dispersal holds its push
    /// quorum. The publish completes `intent`; a recovery or adoption
    /// republish has no puts and disperses nothing.
    pub(super) fn start_publish(
        &mut self,
        shard: u32,
        intent: WriteIntent,
        puts: Vec<(String, V)>,
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        let replicas = self.plane.window(self.link.servers()).members(shard);
        let coding = self.plane.coding();
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
            return self.start_write(shard, intent, payload, sub);
        }
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "PushingBulk",
        });
        for d in &dispersals {
            self.bulk_sends.extend(d.owed(&replicas));
        }
        let timer = sub.set_timer(self.round_timer());
        Phase::PushingBulk {
            intent,
            shard,
            dispersals,
            payload,
            timer,
        }
    }

    /// True once every dispersal of a push holds its push quorum.
    pub(super) fn pushed(&self, dispersals: &[Dispersal<V>]) -> bool {
        let need = self.push_needed();
        dispersals.iter().all(|d| d.acks.len() >= need)
    }

    /// Asks `shard`'s data replicas for `vref`'s fragments under a fresh
    /// round tag.
    pub(super) fn request_fetch(&mut self, shard: u32, vref: ValueRef) -> Fetch<V> {
        let tag = self.next_bulk_tag;
        self.next_bulk_tag += 1;
        let fetch = Fetch {
            vref,
            tag,
            bad: BTreeSet::new(),
            dead: false,
            rounds: 0,
            frags: BTreeMap::new(),
            resolved: None,
        };
        let window = self.plane.window(self.link.servers());
        self.bulk_sends.extend(fetch.requests(shard, window));
        fetch
    }

    /// Counts a prefetch the read round did not decide; dropping it makes
    /// its late replies stale.
    pub(super) fn waste(prefetch: Option<Fetch<V>>, sub: &mut PumpCtx<'_, V>) {
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
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        let shard = res.shard;
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "FetchRound",
        });
        let fetch = match prefetch {
            Some(fetch) if fetch.vref == vref => fetch,
            other => {
                Self::waste(other, sub);
                self.request_fetch(shard, vref)
            }
        };
        let timer = sub.set_timer(self.round_timer());
        Phase::Fetching { res, fetch, timer }
    }

    /// Continues resolving a bulk-plane read (see [`Resolving`]): answers
    /// every get whose key the map lacks, then fetches the next value the
    /// goal still needs — the first remaining get's, or for an adoption
    /// the reference at `checked` — through `prefetch` when it fetches
    /// that reference. With nothing left to fetch the gets are all
    /// answered (the client is idle again) or the adoption adopts the map
    /// and starts the republish.
    pub(super) fn resolve_refs(
        &mut self,
        mut res: Resolving,
        prefetch: Option<Fetch<V>>,
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        let next = match &mut res.goal {
            ReadGoal::Get { ops } => {
                let refs = &res.refs;
                ops.retain(|(op, key)| {
                    let present = refs.get(key).is_some();
                    if !present {
                        complete_get(sub, *op, None);
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
            Some(vref) => self.start_fetch(res, vref, prefetch, sub),
            // Only a get prefetches.
            None if matches!(res.goal, ReadGoal::Get { .. }) => {
                Self::waste(prefetch, sub);
                Phase::Idle
            }
            None => {
                let refs = Arc::unwrap_or_clone(res.refs);
                let (goal, shard, wsn) = (res.goal, res.shard, res.wsn);
                self.adopt(goal, shard, wsn, ShardMap::new(), refs, sub)
            }
        }
    }

    /// True once a fetch round can move on: its value resolved, or the
    /// round is dead — so many distinct window replicas answered garbage
    /// or a miss that the replies still outstanding cannot reach `k`
    /// verified fragments. Held fragments do not relax this: a replica
    /// whose fragment is held can only re-serve it, so with `f` in hand
    /// at most `m − bad − f` helpful replies are outstanding, short of
    /// the `k − f` still needed exactly when `bad > m − k`.
    pub(super) fn fetch_settled(&self, fetch: &Fetch<V>) -> bool {
        let bad_bound = self.plane.coding().map_or(0, |(k, m)| m + 1 - k);
        fetch.resolved.is_some() || fetch.dead || fetch.bad.len() >= bad_bound
    }

    /// A settled fetch round (see [`Self::fetch_settled`]) moves the read
    /// on. A resolved value answers every gathered get naming it (or
    /// counts as checked for an adoption) and the next value is fetched.
    /// On a dead round a get's reference may be stale (overwritten
    /// metadata) or fabricated — it falls back to the metadata register;
    /// an adoption drops the key (see [`Resolving`]).
    ///
    /// A get whose map came from the inversion-prevention memory rather
    /// than the quorum also forgets that memory first. A map this
    /// deployment's writer published resolves (its values were pushed
    /// first, and the memory pins it only while the writer has not moved
    /// on), so a dead one is corrupted local state — and kept, it would
    /// be returned to every re-read, the get would never end, and a
    /// writer stuck in it would never run its own recovery. The recovery
    /// reads start from a clean policy for the same reason.
    pub(super) fn settle_fetch(
        &mut self,
        mut res: Resolving,
        fetch: Fetch<V>,
        timer: TimerId,
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        if let Some(val) = fetch.resolved {
            sub.cancel_timer(timer);
            match &mut res.goal {
                ReadGoal::Get { ops } => {
                    // Every gathered get whose key names this very value
                    // is answered by it.
                    let refs = &res.refs;
                    ops.retain(|(op, key)| {
                        let hit = refs.get(key) == Some(&fetch.vref);
                        if hit {
                            complete_get(sub, *op, Some(val.clone()));
                        }
                        !hit
                    });
                }
                _ => res.checked += 1,
            }
            return self.resolve_refs(res, None, sub);
        }
        sub.note_dead_fetch_round();
        sub.cancel_timer(timer);
        if matches!(res.goal, ReadGoal::Get { .. }) {
            if res.remembered {
                self.policies[res.shard as usize] = AtomicPolicy::new();
            }
            sub.note_metadata_reread();
            return self.start_read(res.goal, res.shard, sub);
        }
        sub.trace(TraceEvent::Phase {
            shard: res.shard,
            phase: "AdoptDropsKey",
        });
        let key = res.refs.entries()[res.checked].0.clone();
        Arc::make_mut(&mut res.refs).remove(&key);
        self.resolve_refs(res, None, sub)
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
    pub(super) fn on_frag_get_ack(
        &mut self,
        from: ProcessId,
        shard: u32,
        root: BulkDigest,
        tag: u64,
        frag: Option<Served>,
        ctx: &mut StoreCtx<'_, V>,
    ) {
        let Some((k, m)) = self.plane.coding() else {
            return; // full-replication clients never ask for fragments
        };
        let window = self.plane.window(self.link.servers());
        if window.position(shard, from).is_none() {
            return;
        }
        let Some((fetching, fetch)) = fetch_in_flight!(&mut self.phase) else {
            return;
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
    pub(super) fn on_push_ack(
        &mut self,
        from: ProcessId,
        shard: u32,
        root: BulkDigest,
        index: u32,
        ctx: &mut StoreCtx<'_, V>,
    ) {
        let window = self.plane.window(self.link.servers());
        let eligible = window.at(shard, index as usize) == Some(from);
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

    /// Handles `id` if it is the current bulk round's timer: a fetch
    /// round retransmits under a fresh tag (or, out of rounds, is given
    /// up), a push re-sends what each dispersal still owes. False when
    /// the timer belongs to someone else.
    pub(super) fn on_bulk_timer(&mut self, id: TimerId, ctx: &mut StoreCtx<'_, V>) -> bool {
        let round_timer = self.round_timer();
        let window = self.plane.window(self.link.servers());
        match &mut self.phase {
            Phase::Fetching { res, fetch, timer } if *timer == id && fetch.resolved.is_none() => {
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
                    ctx.note_retransmit();
                    ctx.trace(TraceEvent::Retransmit { shard, round });
                    for (r, m) in fetch.requests(shard, window) {
                        ctx.send(r, m);
                    }
                    *timer = ctx.set_timer(round_timer);
                }
                true
            }
            Phase::PushingBulk {
                shard,
                dispersals,
                timer,
                ..
            } if *timer == id => {
                // Ack-wait round expired short of the push quorum:
                // re-push to the replicas still missing — each gets its
                // own prepared message (its assigned fragment) again,
                // value by value. In synchronous mode this is the Fig. 5
                // "wait … or time-out" rule applied to the data plane; in
                // asynchronous mode it is the usual retransmission that
                // keeps the push live across transient loss of in-flight
                // state.
                let replicas = window.members(*shard);
                let resend: Vec<_> = dispersals.iter().flat_map(|d| d.owed(&replicas)).collect();
                if !resend.is_empty() {
                    ctx.note_retransmit();
                    ctx.trace(TraceEvent::Phase {
                        shard: *shard,
                        phase: "BulkRepush",
                    });
                }
                for (r, m) in resend {
                    ctx.send(r, m);
                }
                *timer = ctx.set_timer(round_timer);
                true
            }
            _ => false,
        }
    }
}
