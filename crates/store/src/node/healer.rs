//! A data replica's self-healing plane: repair pulls from window peers
//! and the anti-entropy gossip that finds what to pull.

use super::server::BulkGuard;
use super::{slot_in_range, Served};
use crate::msg::{Holding, StoreMsg};
use sbs_bulk::{
    encode_fragments, fragment_leaves, reconstruct, verify_fragment, FragmentStore, Holder,
    MerkleTree, SharedBytes, StoredFragment, RETAINED_PER_KEY,
};
use sbs_sim::{Context, ProcessId, SimDuration, TimerId, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};

/// Entries gossiped per anti-entropy round, and holders visited: a
/// rotation cursor walks the replica's own holders, so every digest is
/// eventually announced without any single summary growing with store
/// size.
pub(super) const ANTI_ENTROPY_BATCH: usize = 32;

// A replica's holder retains at most `RETAINED_PER_KEY` roots, so every
// holder fits in one summary and the rotation cannot stall on one.
const _: () = assert!(RETAINED_PER_KEY <= ANTI_ENTROPY_BATCH);

/// Self-healing state for one data replica, installed by
/// [`StoreServerNode::self_healing`](super::StoreServerNode::self_healing).
/// Holds the in-flight pull jobs, the repair suspects and the
/// anti-entropy gossip cursors; the fleet map the repair fan-out needs is
/// the guard's. Absent by default: a node without it sends no
/// repair-plane messages and arms no timers, keeping fault-free runs
/// bit-identical.
pub(super) struct Healer {
    /// Fragments needed to reconstruct a dispersal.
    k: usize,
    /// Anti-entropy gossip period.
    period: SimDuration,
    /// The armed anti-entropy timer, re-armed every tick.
    pub(super) timer: Option<TimerId>,
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
    pub(super) suspects: BTreeMap<Holding, bool>,
    /// Round-robin cursor over peers for digest summaries.
    peer_cursor: usize,
    /// The last holder a summary announced: the next one starts after
    /// it, in holder order.
    holdings_cursor: Option<Holder>,
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

/// One repair round for `entry`: a `REPAIR_REQ` to each of `peers`.
fn fan<P, O>(entry: Holding, peers: Vec<ProcessId>, ctx: &mut Context<'_, StoreMsg<P>, O>) {
    let (shard, slot, digest) = entry;
    ctx.note_repair_round();
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

impl Healer {
    /// A healer reconstructing from `k` fragments and gossiping every
    /// `period`, with nothing suspected or pending.
    pub(super) fn new(k: usize, period: SimDuration) -> Self {
        Healer {
            k: k.max(1),
            period,
            timer: None,
            pending: BTreeMap::new(),
            suspects: BTreeMap::new(),
            peer_cursor: 0,
            holdings_cursor: None,
        }
    }

    /// Arms the next anti-entropy tick.
    pub(super) fn arm<M, O>(&mut self, ctx: &mut Context<'_, M, O>) {
        self.timer = Some(ctx.set_timer(self.period));
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
    pub(super) fn suspect_missing(
        &mut self,
        guard: &BulkGuard,
        frags: &FragmentStore,
        entry: Holding,
    ) {
        let (shard, slot, digest) = entry;
        if !slot_in_range(slot)
            || guard.own_position(shard).is_none()
            || frags.holds(&digest)
            || frags.evicted(Holder::new(shard, slot), &digest)
            || guard.peers(shard).is_empty()
            || self.pending.contains_key(&entry)
        {
            return;
        }
        self.suspects.entry(entry).or_insert(false);
    }

    /// Opens a repair pull for `(shard, slot, digest)`: notes the
    /// slow-path round, traces it, and fans a `REPAIR_REQ` to every
    /// window peer. A digest already being pulled joins the existing job
    /// instead.
    pub(super) fn start_repair<P, O>(
        &mut self,
        guard: &BulkGuard,
        entry: Holding,
        ctx: &mut Context<'_, StoreMsg<P>, O>,
    ) {
        let (shard, slot, _) = entry;
        let peers = guard.peers(shard);
        if !slot_in_range(slot) || peers.is_empty() || self.pending.contains_key(&entry) {
            return;
        }
        self.pending.insert(entry, RepairJob::default());
        ctx.trace(TraceEvent::Phase {
            shard,
            phase: "RepairStart",
        });
        fan(entry, peers, ctx);
    }

    /// Folds one peer's `REPAIR_REPLY` into the matching pull job:
    /// commitment-verified fragments are collected until any `k` distinct
    /// indices are present, which finishes the repair — the repaired
    /// entry is retained under the job's key slot if that holder has a
    /// free retention slot, and dropped otherwise (a repair never evicts).
    /// Everything is re-verified against `digest` before storing — a
    /// Byzantine peer can garble any field of the reply.
    pub(super) fn on_repair_reply<P, O>(
        &mut self,
        guard: &BulkGuard,
        store: &mut FragmentStore,
        from: ProcessId,
        entry: Holding,
        frag: Option<Served>,
        ctx: &mut Context<'_, StoreMsg<P>, O>,
    ) {
        let (shard, slot, digest) = entry;
        let quorum = guard.peers(shard).len();
        let Some(job) = self.pending.get_mut(&entry) else {
            return;
        };
        let m = guard.replicas;
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
                    self.pending.remove(&entry);
                }
                return;
            }
        }
        let k = self.k;
        if job.frags.len() < k {
            return;
        }
        let pairs: Vec<(u32, SharedBytes)> =
            job.frags.iter().map(|(i, b)| (*i, b.clone())).collect();
        self.pending.remove(&entry);
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
        let Some(pos) = guard.own_position(shard) else {
            return;
        };
        let stored = StoredFragment {
            index: pos as u32,
            total: m as u32,
            bytes: frags[pos].clone(),
            proof: tree.proof(pos),
        };
        store.repair(Holder::new(shard, slot), digest, stored);
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
    /// The summary is read from the store's per-key retention map
    /// ([`FragmentStore::holders_after`]), so a tick costs the batch, not
    /// the store: it visits at most [`ANTI_ENTROPY_BATCH`] holders after
    /// the cursor, in holder order, and announces each one's retained
    /// roots as `(shard, slot, root)` under its own slot — at most
    /// [`ANTI_ENTROPY_BATCH`] entries.
    pub(super) fn on_anti_entropy_tick<P, O>(
        &mut self,
        guard: &BulkGuard,
        frags: &FragmentStore,
        ctx: &mut Context<'_, StoreMsg<P>, O>,
    ) {
        self.arm(ctx);
        // Two-phase suspect sweep. A suspect that resolved itself (the
        // in-flight copy landed — and perhaps was already overwritten and
        // evicted) is dropped; a fresh one is armed and gets one full
        // period of grace — longer than any link-delay bound; an armed
        // one still missing is genuinely lost and ripens into a pull
        // below.
        let mut ripe: Vec<Holding> = Vec::new();
        self.suspects.retain(|&(shard, slot, digest), armed| {
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
        // At most one batch of holders, each with all of its roots: a
        // holder that does not fit opens the next tick's summary.
        let mut entries: Vec<Holding> = Vec::with_capacity(ANTI_ENTROPY_BATCH);
        for (holder, roots) in frags
            .holders_after(self.holdings_cursor)
            .take(ANTI_ENTROPY_BATCH)
        {
            if entries.len() + roots.len() > ANTI_ENTROPY_BATCH {
                break;
            }
            entries.extend(roots.map(|root| (holder.shard, holder.slot, root)));
            self.holdings_cursor = Some(holder);
        }
        // Round-robin over the *other* servers in slot order.
        let n = guard.servers.len();
        let peer = (n > 1).then(|| {
            let i = self.peer_cursor % (n - 1);
            self.peer_cursor = self.peer_cursor.wrapping_add(1);
            guard.servers[i + usize::from(i >= guard.slot)]
        });
        let refan: Vec<Holding> = self
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
        for entry in refan {
            fan(entry, guard.peers(entry.0), ctx);
        }
        for entry in ripe {
            self.start_repair(guard, entry, ctx);
        }
    }
}
