//! The per-replica store: erasure-coded fragments, verified on the way in.
//!
//! A correct data replica replays a fragment's Merkle path against the
//! announced commitment root before storing, so fabricated fragments (link
//! garbage, Byzantine writers announcing a root their bytes do not belong
//! to) are *unstorable* — the store can only ever hold fragments that
//! provably belong to their root. Storage is idempotent: re-putting a held
//! fragment is a no-op acknowledgement, which also makes duplicate
//! `FRAG_PUT` deliveries and rewritten identical values harmless.
//!
//! Fragments are held as [`SharedBytes`] (`Arc<[u8]>`): storing and
//! serving one shares the sender's allocation instead of copying it, so a
//! fetch reply costs a reference-count bump regardless of payload size.
//!
//! # Retention (per-key GC)
//!
//! Entries are retained by **holders**: a [`Holder`] is a shard's *key
//! slot* — the slot the shard's writer assigned the key whose value the
//! entry is (`sbs-store` carries it in every value reference). By default
//! every verified fragment is kept forever: overwrites orphan a key's old
//! values, and [`FragmentStore::bytes_stored`] only grows.
//! [`FragmentStore::with_retention`] bounds that: only the last `K`
//! *distinct* roots per holder — the last `K` values of each key — are
//! retained, oldest-first eviction. Retention per key, not per shard, is
//! what keeps a cold key alive: a shard-wide "last `K`" would let a hot
//! neighbour's overwrites evict the only value a rarely written key still
//! references. `K ≥ 2` keeps a key's previous value alive, so a concurrent
//! reader that read the metadata register just before an overwrite still
//! resolves its reference; readers chasing older (or evicted) references
//! fall back to re-reading the metadata register, which names a live root
//! again. Re-putting a held fragment refreshes its recency instead of
//! double counting it.
//!
//! ## Aliasing
//!
//! Commitment roots are *global*: two keys — of one shard or of two —
//! whose values are byte-identical share one root, so one stored fragment
//! can be live for several holders at once. Retention therefore tracks
//! the holder *set* of every entry, and a holder's eviction only drops
//! that holder's hold; the bytes (and the `bytes_stored` accounting) go
//! away only when the *last* holder lets go. Recency refreshes on re-put
//! likewise apply to the holders that actually hold the entry, looked up
//! in the store — never to whatever holder the wire message claims, which
//! a Byzantine writer controls.
//!
//! Overlapping shard windows put a replica at a *different window
//! position* (= fragment index) per shard, so entries are keyed by
//! `(root, index)` — each shard holds its own index of an aliased root —
//! instead of sharing one entry per root (which would refuse the second
//! shard's fragment and wedge its push short of the `k + t` quorum).
//! Congruent shards with *identical* windows land on the same index and
//! dedup through the holder set, as do two keys of one shard with
//! identical values.
//!
//! The store itself admits any holder (it has no view of the
//! deployment); bounding *which* shards and slots may hold at all — so a
//! forger cannot grow retention state with invented shard ids or slots —
//! is the embedding server's job (`sbs-store`'s window guard refuses puts
//! for shards the replica does not serve and for slots outside the
//! deployment's slot space).
//!
//! # Index (anti-entropy holdings)
//!
//! Anti-entropy gossips a rotating window of the replica's **holdings**:
//! its `(holder shard, commitment root)` pairs — once per shard however
//! the root's fragment indices or the shard's key slots alias — in sorted
//! order, each announced with the lowest slot of the shard that holds it.
//! Deriving that list from the entries is a walk of the whole store
//! ([`FragmentStore::holdings`]), and the gossip tick runs every few
//! milliseconds on every replica, so the store keeps the pairs as an
//! always-maintained rank-addressable index instead
//! ([`FragmentStore::holdings_len`] / [`FragmentStore::holdings_from`]): a
//! tick costs `O(log n)` plus its ≤ 32 entries, whatever the store holds.
//!
//! The index changes at exactly the four places a holder set changes:
//! a verified put that stores a new entry or adds a new holder to a held
//! one, a retention eviction, [`FragmentStore::remove`] (corruption found
//! on serve), and [`FragmentStore::wipe`]. Each change re-lists the one
//! pair it touched from a range probe of the entries: the pair enters when
//! the shard's first slot holding the root appears, carries the lowest
//! slot still holding it — so a summary names a slot without a lookup —
//! and leaves only when *no* entry of that root is held by *any* slot of
//! that shard any more. The index is exact whatever aliases.
//!
//! It is **derived state**: a function of the entries' holder sets and
//! nothing else, never trusted from the wire, never consulted to decide
//! what is stored or served. A fault model that scrambles a replica's
//! memory classifies it as *rebuilt from the entries*, not as a field of
//! its own; the full scan stays as the reference that tests and the
//! tick's debug assertion compare it against.

use crate::digest::BulkDigest;
use crate::ranked::RankedSet;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Reference-counted immutable payload bytes, shared zero-copy between
/// wire messages, replica storage, and retransmission buffers.
pub type SharedBytes = Arc<[u8]>;

/// Who retains an entry: key slot `slot` of shard `shard` — the slot the
/// shard's writer assigned the key whose value the entry is. Retention
/// bounds, recency and eviction are per holder, i.e. per key (see the
/// module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Holder {
    /// The shard the value belongs to.
    pub shard: u32,
    /// The key's slot within the shard.
    pub slot: u32,
}

impl Holder {
    /// Key slot `slot` of `shard`.
    pub fn new(shard: u32, slot: u32) -> Self {
        Holder { shard, slot }
    }

    /// Every holder of `shard`, as a range of an ordered holder set.
    fn of_shard(shard: u32) -> RangeInclusive<Holder> {
        Holder::new(shard, u32::MIN)..=Holder::new(shard, u32::MAX)
    }
}

/// What [`FragmentStore::put`] did with an incoming fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// Verified and stored.
    Stored,
    /// Already held (re-putting a held fragment is equality, not
    /// overwrite).
    AlreadyHeld,
    /// The fragment does not verify against the announced commitment root
    /// (or conflicts with the index the shard already holds) — refused.
    DigestMismatch,
}

impl PutOutcome {
    /// True if the replica now holds the fragment (either outcome that
    /// warrants an acknowledgement).
    pub fn held(self) -> bool {
        !matches!(self, PutOutcome::DigestMismatch)
    }
}

/// One verified erasure-coded fragment as stored on a replica: the
/// fragment bytes plus everything needed to re-serve it verifiably — its
/// index in the `m`-fragment dispersal and the Merkle path binding it to
/// the commitment root (see [`crate::verify_fragment`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredFragment {
    /// This fragment's index in `0..total`.
    pub index: u32,
    /// Total number of fragments in the dispersal (`m`).
    pub total: u32,
    /// The fragment bytes.
    pub bytes: SharedBytes,
    /// The Merkle path from this fragment's leaf digest to the root.
    pub proof: Vec<BulkDigest>,
}

/// An entry's key: its commitment root and fragment index.
type FragKey = (BulkDigest, u32);

/// Every key of `root`, as a range of the entry map.
fn keys_of(root: BulkDigest) -> RangeInclusive<FragKey> {
    (root, u32::MIN)..=(root, u32::MAX)
}

/// One stored fragment with its holder set.
#[derive(Clone, Debug)]
struct Held {
    /// The key slots currently retaining this entry. Non-empty by
    /// invariant: the last eviction removes the entry.
    holders: BTreeSet<Holder>,
    frag: StoredFragment,
}

impl Held {
    /// The lowest slot of `shard` holding this entry, if any.
    fn slot_of(&self, shard: u32) -> Option<u32> {
        self.holders
            .range(Holder::of_shard(shard))
            .next()
            .map(|h| h.slot)
    }

    /// Payload bytes accounted for this entry.
    fn len(&self) -> u64 {
        self.frag.bytes.len() as u64
    }
}

/// One holder's recency order: keys indexed by a store-wide monotonic
/// sequence number, so a refresh (`touch`) is two `O(log n)` map moves
/// instead of a linear queue scan — republish-heavy workloads re-put held
/// fragments on the hot path.
#[derive(Clone, Debug, Default)]
struct Recency {
    /// Keys by insertion/refresh sequence, oldest first.
    by_seq: BTreeMap<u64, FragKey>,
    /// Each key's current sequence (exactly the inverse of `by_seq`).
    seq_of: BTreeMap<FragKey, u64>,
}

/// One holdings-index entry: a `(holder shard, root)` pair and the lowest
/// slot of that shard holding the root. Ordered — and equal — by the pair
/// alone, so the index lists each pair once and a change of its slot is an
/// in-place rewrite.
#[derive(Clone, Copy, Debug)]
struct Listing {
    shard: u32,
    root: BulkDigest,
    slot: u32,
}

impl Listing {
    fn pair(&self) -> (u32, BulkDigest) {
        (self.shard, self.root)
    }
}

impl PartialEq for Listing {
    fn eq(&self, other: &Self) -> bool {
        self.pair() == other.pair()
    }
}

impl Eq for Listing {}

impl PartialOrd for Listing {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Listing {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.pair().cmp(&other.pair())
    }
}

/// One replica's erasure-coded fragment storage, keyed by
/// `(commitment root, fragment index)` with per-entry **holder** sets and
/// per-holder recency orders. Verification happens on the way in —
/// [`FragmentStore::put`] replays the Merkle path — so the store only ever
/// holds fragments that provably belong to their announced root.
///
/// Per shard a root maps to exactly one index: a re-put of a held index is
/// acknowledged without storing (idempotence), while a **different** index
/// for a shard that already holds one (under any slot) is refused —
/// acknowledging it would certify holding a fragment this replica does
/// not have at that window position, which is exactly what the `k + t`
/// push quorum counts on (a Byzantine peer pre-seeding correct replicas
/// with *its* fragment must not be able to poison their acks). Different
/// shards may hold different indices of one root (see the module docs'
/// "Aliasing" section).
///
/// Invariants:
/// - key `x` appears in holder `h`'s recency order iff `h` is one of its
///   holders (recency and holder sets never drift);
/// - `bytes_stored` is the sum of the fragment lengths of live entries —
///   incremented once when an entry is first stored, decremented once
///   when its last holder evicts it (never per holder, so aliasing cannot
///   underflow it);
/// - `(s, r)` is listed in `index` iff some slot of shard `s` holds some
///   entry of root `r`, and listed with the lowest such slot (see the
///   module docs' "Index" section).
#[derive(Clone, Debug, Default)]
pub struct FragmentStore {
    entries: BTreeMap<FragKey, Held>,
    /// The `(holder shard, root)` pairs of `entries`, each with its
    /// shard's lowest holding slot, rank-addressable.
    index: RankedSet<Listing>,
    bytes_stored: u64,
    /// Distinct keys retained per holder (`None` = unbounded).
    retain: Option<usize>,
    /// Per-holder key recency. Only maintained when a retention bound is
    /// set.
    recency: BTreeMap<Holder, Recency>,
    /// Store-wide recency sequence (monotonic; gaps are fine).
    next_seq: u64,
}

impl FragmentStore {
    /// An empty store that retains every verified fragment forever.
    pub fn new() -> Self {
        FragmentStore::default()
    }

    /// An empty store that retains only the last `retain` distinct roots
    /// per holder (per key), evicting oldest-first.
    ///
    /// # Panics
    ///
    /// Panics on `retain == 0` (a replica that stores nothing could never
    /// acknowledge a push).
    pub fn with_retention(retain: usize) -> Self {
        assert!(retain >= 1, "retention bound must be at least 1");
        FragmentStore {
            retain: Some(retain),
            ..FragmentStore::default()
        }
    }

    /// Verifies `frag` against the commitment `root` (Merkle path replay)
    /// and stores it under `(root, frag.index)`, held by `holder` (the key
    /// slot whose value it is). Under a retention bound, storing a fresh
    /// root may evict the holder's oldest one; re-putting a held fragment
    /// refreshes its recency at every holder that holds it. See the type
    /// docs for the same-shard index-conflict refusal.
    pub fn put(&mut self, holder: Holder, root: BulkDigest, frag: StoredFragment) -> PutOutcome {
        // Empty fragments are refused outright: an honest dispersal's
        // fragments are never zero-length (the value encodes to at least
        // one byte), and a Byzantine writer *can* commit an empty leaf —
        // which would otherwise be stored verified and trip up serving
        // paths that index into the bytes.
        if frag.bytes.is_empty()
            || !crate::verify_fragment(
                root,
                frag.total as usize,
                frag.index as usize,
                &frag.bytes,
                &frag.proof,
            )
        {
            return PutOutcome::DigestMismatch;
        }
        // Same-shard index conflict: some slot of this shard already
        // holds a *different* index of the root (at most a handful of
        // indices per root exist, so the scan is tiny).
        if self
            .entries_of(&root)
            .any(|(&(_, idx), h)| idx != frag.index && h.slot_of(holder.shard).is_some())
        {
            return PutOutcome::DigestMismatch;
        }
        let key = (root, frag.index);
        let outcome = if self.entries.contains_key(&key) {
            PutOutcome::AlreadyHeld
        } else {
            self.bytes_stored += frag.bytes.len() as u64;
            self.entries.insert(
                key,
                Held {
                    holders: BTreeSet::new(),
                    frag,
                },
            );
            PutOutcome::Stored
        };
        if !self.entries[&key].holders.contains(&holder) {
            // A new holder — a fresh entry, or a second key (or shard)
            // aliasing onto the same fragment: it gets its own retention
            // slot (and its own recency entry), so another holder's later
            // eviction can no longer drop this holder's only copy.
            self.entries
                .get_mut(&key)
                .expect("inserted above")
                .holders
                .insert(holder);
            self.relist(holder.shard, root);
            self.enqueue(holder, key);
        }
        // Recency refresh goes to the holders that actually hold the
        // key — looked up here, never trusted from the wire: a Byzantine
        // writer re-putting a held fragment under a foreign holder must
        // not be able to starve the true holder's refresh (pre-fix, the
        // actively republished value became the next eviction victim).
        // Without a retention bound there is no recency to maintain, so
        // duplicate puts stay allocation-free on that (default) hot path.
        if self.retain.is_some() {
            if outcome == PutOutcome::AlreadyHeld {
                let holders: Vec<Holder> = self.entries[&key].holders.iter().copied().collect();
                for h in holders {
                    self.touch(h, key);
                }
            }
            self.evict_overflow(holder);
        }
        outcome
    }

    /// The entries holding fragments of `root`, across all indices.
    fn entries_of(&self, root: &BulkDigest) -> impl Iterator<Item = (&FragKey, &Held)> {
        self.entries.range(keys_of(*root))
    }

    /// Some fragment stored under `root`, if any index is held.
    pub fn get(&self, root: &BulkDigest) -> Option<&StoredFragment> {
        self.entries_of(root).next().map(|(_, h)| &h.frag)
    }

    /// The fragment stored under `root` for `shard` (the index that
    /// shard's window position dispersed here, held by any of its slots)
    /// — falling back to any held index of that root (still
    /// commitment-verified, so still useful to a reconstructing reader).
    pub fn get_for(&self, shard: u32, root: &BulkDigest) -> Option<&StoredFragment> {
        self.entries_of(root)
            .find(|(_, h)| h.slot_of(shard).is_some())
            .map(|(_, h)| &h.frag)
            .or_else(|| self.get(root))
    }

    /// True if a fragment of `root` is held for any shard.
    pub fn holds(&self, root: &BulkDigest) -> bool {
        self.entries_of(root).next().is_some()
    }

    /// The key slots holding some fragment of `root` (empty if none is
    /// held).
    pub fn holders(&self, root: &BulkDigest) -> BTreeSet<Holder> {
        self.entries_of(root)
            .flat_map(|(_, held)| held.holders.iter().copied())
            .collect()
    }

    /// Number of fragment entries held (one per `(root, index)`).
    pub fn fragment_count(&self) -> usize {
        self.entries.len()
    }

    /// Total fragment payload bytes currently held (each physical
    /// fragment counted once, however many holders alias onto it; proof
    /// bytes are commitment metadata, not payload). Without a retention
    /// bound this only grows under overwrite churn; with one it plateaus
    /// at ≤ `retain` fragments per key.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    /// The shards this replica holds at least one fragment for.
    pub fn shards_held(&self) -> BTreeSet<u32> {
        self.entries
            .values()
            .flat_map(|h| h.holders.iter().map(|h| h.shard))
            .collect()
    }

    /// Discards every fragment (transient data fault) while preserving
    /// the retention configuration — a fault, not a reconfiguration. The
    /// recency sequence keeps advancing so post-wipe inserts order
    /// strictly after pre-wipe history.
    pub fn wipe(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.recency.clear();
        self.bytes_stored = 0;
    }

    /// Drops every index of `root`, for every holder (recency included).
    /// Used by the self-healing serve path when a held fragment fails its
    /// integrity re-check: the corrupt bytes must go before a repaired
    /// copy can be re-inserted through the verifying `put`. Returns
    /// whether anything was held.
    pub fn remove(&mut self, root: &BulkDigest) -> bool {
        let keys: Vec<FragKey> = self.entries_of(root).map(|(k, _)| *k).collect();
        for key in &keys {
            let held = self.entries.remove(key).expect("listed above");
            self.bytes_stored -= held.len();
            for holder in &held.holders {
                if let Some(rec) = self.recency.get_mut(holder) {
                    if let Some(seq) = rec.seq_of.remove(key) {
                        rec.by_seq.remove(&seq);
                    }
                }
            }
            let shards: BTreeSet<u32> = held.holders.iter().map(|h| h.shard).collect();
            for shard in shards {
                self.relist(shard, *root);
            }
        }
        !keys.is_empty()
    }

    /// How many `(holder shard, commitment root)` pairs this replica
    /// retains — the length of the list anti-entropy digest summaries
    /// rotate over.
    pub fn holdings_len(&self) -> usize {
        self.index.len()
    }

    /// The retained `(holder shard, slot, commitment root)` holdings of
    /// rank `rank..` in `(shard, root)` order, served from the index:
    /// `O(log n)` to position, then one step per holding taken. `slot` is
    /// the lowest slot of the shard holding the root.
    pub fn holdings_from(&self, rank: usize) -> impl Iterator<Item = (u32, u32, BulkDigest)> + '_ {
        self.index
            .iter_from(rank)
            .map(|l| (l.shard, l.slot, l.root))
    }

    /// Every `(holder shard, slot, commitment root)` holding this replica
    /// retains — one per `(shard, root)` however many indices or slots
    /// alias onto it, with the shard's lowest slot — in `(shard, root)`
    /// order, derived by a **full scan** of the entries. This is the
    /// reference the index behind [`Self::holdings_from`] is checked
    /// against (by tests and by the anti-entropy tick's debug assertion);
    /// nothing on a serving path may call it.
    pub fn holdings(&self) -> Vec<(u32, u32, BulkDigest)> {
        let mut lowest: BTreeMap<(u32, BulkDigest), u32> = BTreeMap::new();
        for (&(root, _), held) in &self.entries {
            for h in &held.holders {
                let slot = lowest.entry((h.shard, root)).or_insert(h.slot);
                *slot = (*slot).min(h.slot);
            }
        }
        lowest
            .into_iter()
            .map(|((shard, root), slot)| (shard, slot, root))
            .collect()
    }

    /// Brings `shard`'s listing of `root` in line with `entries` after one
    /// of the shard's slots gained or lost a hold of it: listed under the
    /// lowest slot still holding, or — when no slot of the shard holds any
    /// index of the root any more — not at all.
    fn relist(&mut self, shard: u32, root: BulkDigest) {
        let mut listing = Listing {
            shard,
            root,
            slot: 0,
        };
        let lowest = self
            .entries_of(&root)
            .filter_map(|(_, held)| held.slot_of(shard))
            .min();
        match lowest {
            Some(slot) => match self.index.get_mut(&listing) {
                Some(listed) => listed.slot = slot,
                None => {
                    listing.slot = slot;
                    self.index.insert(listing);
                }
            },
            None => {
                let listed = self.index.remove(&listing);
                debug_assert!(listed, "a held pair was missing from the index");
            }
        }
    }

    /// Appends `key` as `holder`'s most recent (retention mode only).
    fn enqueue(&mut self, holder: Holder, key: FragKey) {
        if self.retain.is_none() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let rec = self.recency.entry(holder).or_default();
        debug_assert!(!rec.seq_of.contains_key(&key), "double enqueue");
        rec.by_seq.insert(seq, key);
        rec.seq_of.insert(key, seq);
    }

    /// Moves `key` to the most-recent end of `holder`'s order, if listed.
    fn touch(&mut self, holder: Holder, key: FragKey) {
        let seq = self.next_seq;
        let Some(rec) = self.recency.get_mut(&holder) else {
            return;
        };
        let Some(old) = rec.seq_of.get(&key).copied() else {
            return;
        };
        rec.by_seq.remove(&old);
        rec.by_seq.insert(seq, key);
        rec.seq_of.insert(key, seq);
        self.next_seq += 1;
    }

    /// Evicts `holder`'s oldest keys while it retains more than the
    /// bound. Eviction drops only *this holder's hold*; the entry (and
    /// its byte accounting) goes away with the last holder.
    fn evict_overflow(&mut self, holder: Holder) {
        let Some(k) = self.retain else {
            return;
        };
        loop {
            let Some(rec) = self.recency.get_mut(&holder) else {
                return;
            };
            if rec.by_seq.len() <= k {
                return;
            }
            let (_, evicted) = rec.by_seq.pop_first().expect("len > k >= 1");
            rec.seq_of.remove(&evicted);
            let Some(held) = self.entries.get_mut(&evicted) else {
                debug_assert!(false, "recency listed a key the store does not hold");
                continue;
            };
            held.holders.remove(&holder);
            if held.holders.is_empty() {
                let held = self.entries.remove(&evicted).expect("present above");
                self.bytes_stored -= held.len();
            }
            self.relist(holder.shard, evicted.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_fragments, fragment_leaves, MerkleTree};

    /// Slot 0 of `shard` — the holder of a shard's only key.
    fn h(shard: u32) -> Holder {
        Holder::new(shard, 0)
    }

    /// Fragment 0 of a one-stripe dispersal (k = 1 of m = 3) of `len`
    /// bytes of `label`, and its root: with one stripe every fragment is
    /// the whole value, so stored bytes equal the value's length.
    fn frag(label: u8, len: usize) -> (BulkDigest, StoredFragment) {
        let frags = encode_fragments(&vec![label; len], 1, 3);
        let tree = MerkleTree::build(&fragment_leaves(&frags));
        let stored = StoredFragment {
            index: 0,
            total: 3,
            bytes: frags[0].clone(),
            proof: tree.proof(0),
        };
        (tree.root(), stored)
    }

    #[test]
    fn put_verifies_and_is_idempotent() {
        let mut s = FragmentStore::new();
        let (r, f) = frag(1, 15);
        assert_eq!(s.put(h(3), r, f.clone()), PutOutcome::Stored);
        assert_eq!(s.put(h(3), r, f.clone()), PutOutcome::AlreadyHeld);
        assert!(PutOutcome::AlreadyHeld.held());
        assert_eq!(s.get_for(3, &r), Some(&f));
        assert!(s.holds(&r));
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.bytes_stored(), 15);
        assert_eq!(s.shards_held().into_iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn fabricated_blobs_are_unstorable() {
        let mut s = FragmentStore::new();
        let (r, mut f) = frag(1, 15);
        f.bytes = b"not those bytes".to_vec().into();
        let out = s.put(h(0), r, f.clone());
        assert_eq!(out, PutOutcome::DigestMismatch);
        assert!(!out.held());
        // Nor does an empty fragment store, whatever its proof.
        f.bytes = Vec::new().into();
        assert_eq!(s.put(h(0), r, f), PutOutcome::DigestMismatch);
        assert_eq!(s.fragment_count(), 0);
        assert_eq!(s.get(&r), None);
    }

    #[test]
    fn get_shared_shares_the_allocation() {
        let mut s = FragmentStore::new();
        let (r, f) = frag(7, 64);
        let bytes = f.bytes.clone();
        s.put(h(0), r, f);
        let served = &s.get_for(0, &r).expect("held").bytes;
        assert!(Arc::ptr_eq(served, &bytes), "serving must not copy");
    }

    #[test]
    fn retention_evicts_oldest_and_bytes_plateau() {
        let mut s = FragmentStore::with_retention(2);
        let (r1, f1) = frag(1, 100);
        let (r2, f2) = frag(2, 100);
        let (r3, f3) = frag(3, 100);
        s.put(h(0), r1, f1);
        s.put(h(0), r2, f2);
        assert_eq!(s.bytes_stored(), 200);
        // The previous value survives an overwrite (K = 2)…
        s.put(h(0), r3, f3);
        assert!(!s.holds(&r1), "oldest root must be evicted");
        assert!(s.holds(&r2), "the previous value stays resolvable");
        assert!(s.holds(&r3));
        // …and total bytes plateau at K fragments per key under churn.
        for i in 4..40u8 {
            let (r, f) = frag(i, 100);
            s.put(h(0), r, f);
            assert_eq!(s.bytes_stored(), 200, "bytes must plateau at K fragments");
            assert_eq!(s.fragment_count(), 2);
        }
    }

    #[test]
    fn retention_is_per_shard() {
        let mut s = FragmentStore::with_retention(1);
        let (r1, f1) = frag(1, 10);
        let (r2, f2) = frag(2, 10);
        s.put(h(0), r1, f1);
        s.put(h(1), r2, f2);
        assert!(s.holds(&r1) && s.holds(&r2), "bounds apply per shard");
        let (r3, f3) = frag(3, 10);
        s.put(h(0), r3, f3);
        assert!(!s.holds(&r1) && s.holds(&r2) && s.holds(&r3));
    }

    #[test]
    fn reput_refreshes_recency_instead_of_double_counting() {
        let mut s = FragmentStore::with_retention(2);
        let (r1, f1) = frag(1, 10);
        let (r2, f2) = frag(2, 10);
        s.put(h(0), r1, f1.clone());
        s.put(h(0), r2, f2);
        // Re-put of r1: now r2 is the oldest.
        assert_eq!(s.put(h(0), r1, f1), PutOutcome::AlreadyHeld);
        assert_eq!(s.bytes_stored(), 20, "re-put must not double count");
        let (r3, f3) = frag(3, 10);
        s.put(h(0), r3, f3);
        assert!(s.holds(&r1), "refreshed root must survive");
        assert!(!s.holds(&r2), "stale root is the eviction victim");
    }

    /// Regression (cross-shard aliasing): two congruent shards storing
    /// byte-identical values share one entry; one shard's eviction must
    /// drop only its own hold, never the fragment the other shard still
    /// references — and the byte accounting must move exactly once, on
    /// the last drop.
    #[test]
    fn aliased_digest_survives_one_shards_eviction() {
        let mut s = FragmentStore::with_retention(1);
        let (r, f) = frag(9, 100);
        assert_eq!(s.put(h(0), r, f.clone()), PutOutcome::Stored);
        assert_eq!(s.put(h(1), r, f.clone()), PutOutcome::AlreadyHeld);
        assert_eq!(s.bytes_stored(), 100, "one physical fragment, two holders");
        assert_eq!(s.shards_held(), BTreeSet::from([0, 1]));

        // Shard 0 churns past its K=1 bound: only shard 0's hold drops.
        let (r2, f2) = frag(10, 100);
        s.put(h(0), r2, f2);
        assert!(
            s.holds(&r),
            "shard 1 still references the aliased root — eviction by \
             shard 0 must not drop it"
        );
        assert_eq!(s.get_for(1, &r), Some(&f));
        assert_eq!(s.bytes_stored(), 200);
        assert_eq!(s.shards_held(), BTreeSet::from([0, 1]));

        // Shard 1 churns too: now the last holder is gone and the bytes
        // (and their accounting) go with it — exactly once.
        let (r3, f3) = frag(11, 100);
        s.put(h(1), r3, f3);
        assert!(!s.holds(&r), "last holder evicted: fragment must drop");
        assert_eq!(s.bytes_stored(), 200, "r2 + r3 remain, no underflow");
        assert_eq!(s.fragment_count(), 2);
    }

    /// Regression (wire-tag trust in `touch`): a re-put of a held
    /// fragment tagged with a *foreign* shard — which a Byzantine writer
    /// can send at will — must still refresh the recency of the shard(s)
    /// that actually hold it, so an actively republished value is never
    /// the next eviction victim.
    #[test]
    fn reput_with_foreign_shard_tag_still_refreshes_stored_shard() {
        let mut s = FragmentStore::with_retention(2);
        let (r1, f1) = frag(1, 10);
        let (r2, f2) = frag(2, 10);
        s.put(h(0), r1, f1.clone());
        s.put(h(0), r2, f2);
        // The republish arrives under a bogus shard tag (7). The stored
        // shard (0) must be looked up for the refresh regardless.
        assert_eq!(s.put(h(7), r1, f1), PutOutcome::AlreadyHeld);
        let (r3, f3) = frag(3, 10);
        s.put(h(0), r3, f3);
        assert!(
            s.holds(&r1),
            "the actively republished root must survive shard 0's eviction"
        );
        assert!(!s.holds(&r2), "r2 was shard 0's oldest after the refresh");
    }

    #[test]
    #[should_panic(expected = "retention bound must be at least 1")]
    fn zero_retention_is_refused() {
        let _ = FragmentStore::with_retention(0);
    }

    /// Wipe is a transient fault, not a reconfiguration: everything
    /// drops, the retention bound survives, and post-wipe puts behave
    /// exactly like puts into a fresh store with the same bound.
    #[test]
    fn wipe_clears_state_but_keeps_retention() {
        let mut s = FragmentStore::with_retention(2);
        let (r1, f1) = frag(1, 10);
        let (r2, f2) = frag(2, 10);
        s.put(h(0), r1, f1.clone());
        s.put(h(1), r2, f2);
        s.wipe();
        assert_eq!(s.fragment_count(), 0);
        assert_eq!(s.bytes_stored(), 0);
        assert!(!s.holds(&r1) && !s.holds(&r2));
        assert!(s.holdings().is_empty() && s.holdings_len() == 0);
        // Re-puts verify and evict against the preserved bound.
        assert_eq!(s.put(h(0), r1, f1), PutOutcome::Stored);
        for i in 10..14u8 {
            let (r, f) = frag(i, 10);
            s.put(h(0), r, f);
            assert!(s.fragment_count() <= 2);
        }
        assert_eq!(s.fragment_count(), 2, "the bound survived the wipe");
    }

    /// `remove` drops an entry for every holder — recency included, so a
    /// later eviction sweep cannot trip over a dangling recency key.
    #[test]
    fn remove_drops_all_holders_and_their_recency() {
        let mut s = FragmentStore::with_retention(1);
        let (r, f) = frag(5, 30);
        s.put(h(0), r, f.clone());
        s.put(h(1), r, f);
        assert_eq!(s.holdings(), vec![(0, 0, r), (1, 0, r)]);
        assert!(s.remove(&r));
        assert!(!s.remove(&r), "second remove finds nothing");
        assert_eq!(s.bytes_stored(), 0);
        assert!(s.holdings().is_empty() && s.holdings_len() == 0);
        // Both shards churn on fresh roots without tripping recency
        // debris from the removed key.
        for i in 20..24u8 {
            let (ri, fi) = frag(i, 10);
            s.put(h(u32::from(i % 2)), ri, fi);
        }
        assert_eq!(s.fragment_count(), 2);
    }

    /// Regression (REVIEW of ISSUE 5, write liveness): a replica shared
    /// by two overlapping shard windows sits at a different window
    /// position in each, so byte-identical cross-shard dispersals (one
    /// root) require it to hold a *different fragment index per shard*.
    /// Pre-fix the store held one fragment per root and refused — without
    /// ack — the second shard's index, wedging that shard's push short of
    /// its `k + t` quorum forever. Same-shard index conflicts must still
    /// be refused.
    #[test]
    fn aliased_root_stores_one_index_per_shard() {
        use crate::{merkle_proof, merkle_root};
        let bytes = vec![3u8; 90];
        let frags = encode_fragments(&bytes, 2, 3);
        let leaves = fragment_leaves(&frags);
        let root = merkle_root(&leaves);
        let frag = |i: usize| StoredFragment {
            index: i as u32,
            total: 3,
            bytes: frags[i].clone(),
            proof: merkle_proof(&leaves, i),
        };

        let mut s = FragmentStore::new();
        // Shard 0's window puts this replica at position 2, shard 1's at
        // position 0 — both must store and be acknowledgeable.
        assert_eq!(s.put(h(0), root, frag(2)), PutOutcome::Stored);
        assert_eq!(
            s.put(h(1), root, frag(0)),
            PutOutcome::Stored,
            "a different shard's index of the same root must store"
        );
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.bytes_stored(), 90, "two 45-byte fragments");

        // Per shard the index is pinned: idempotent same-index re-put,
        // refused different-index re-put.
        assert_eq!(s.put(h(0), root, frag(2)), PutOutcome::AlreadyHeld);
        assert_eq!(s.put(h(0), root, frag(1)), PutOutcome::DigestMismatch);

        // A congruent shard (identical window → same position, same
        // index) dedups through the holder set instead of
        // double-storing the identical bytes.
        assert_eq!(s.put(h(4), root, frag(2)), PutOutcome::AlreadyHeld);
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.bytes_stored(), 90, "identical fragment stored once");
        assert_eq!(s.get_for(4, &root).expect("held").index, 2);

        // Serving picks the shard's own fragment, falling back to any
        // held one for a shard that stored nothing.
        assert_eq!(s.get_for(0, &root).expect("held").index, 2);
        assert_eq!(s.get_for(1, &root).expect("held").index, 0);
        assert!(s.get_for(9, &root).is_some(), "fallback to any fragment");
        assert!(s.holds(&root));
        assert_eq!(s.shards_held(), BTreeSet::from([0, 1, 4]));
    }

    /// Retention is per key: a hot key overwritten far past the bound
    /// evicts only its own old values, never the single value a cold key
    /// of the same shard still references — the case "last K per shard"
    /// got wrong.
    #[test]
    fn retention_is_per_key_not_per_shard() {
        let mut s = FragmentStore::with_retention(2);
        let (cold, cf) = frag(200, 10);
        assert_eq!(s.put(Holder::new(0, 1), cold, cf), PutOutcome::Stored);
        let mut hot = Vec::new();
        for i in 0..50u8 {
            let (r, f) = frag(i, 10);
            s.put(Holder::new(0, 0), r, f);
            hot.push(r);
        }
        assert!(s.holds(&cold), "the cold key's only value must survive");
        assert_eq!(s.fragment_count(), 3, "two hot values + the cold one");
        assert!(s.holds(&hot[49]) && s.holds(&hot[48]) && !s.holds(&hot[47]));
        assert_eq!(s.holders(&cold), BTreeSet::from([Holder::new(0, 1)]));
        assert_eq!(s.shards_held(), BTreeSet::from([0]));
        // One index pair per (shard, root), announced with its slot.
        let mut expect = vec![(0, 1, cold), (0, 0, hot[48]), (0, 0, hot[49])];
        expect.sort_unstable_by_key(|&(shard, _, r)| (shard, r));
        assert_eq!(s.holdings(), expect);
        assert_eq!(s.holdings_from(0).collect::<Vec<_>>(), expect);
    }

    /// Two keys of one shard with byte-identical values share one entry
    /// with two holders and one index pair (announced under the lower
    /// slot); the pair outlives the first slot's eviction and leaves with
    /// the last.
    #[test]
    fn two_slots_of_one_shard_alias_one_entry() {
        let mut s = FragmentStore::with_retention(1);
        let (r, f) = frag(9, 30);
        assert_eq!(s.put(Holder::new(2, 5), r, f.clone()), PutOutcome::Stored);
        assert_eq!(s.put(Holder::new(2, 3), r, f), PutOutcome::AlreadyHeld);
        assert_eq!(s.bytes_stored(), 30, "one physical fragment");
        assert_eq!(s.holdings_len(), 1);
        assert_eq!(s.holdings(), vec![(2, 3, r)]);
        let (r2, f2) = frag(10, 30);
        s.put(Holder::new(2, 3), r2, f2);
        assert!(s.holds(&r), "slot 5 still holds it");
        let mut expect = vec![(2, 5, r), (2, 3, r2)];
        expect.sort_unstable_by_key(|&(shard, _, r)| (shard, r));
        assert_eq!(s.holdings(), expect);
        assert_eq!(s.holdings_from(0).collect::<Vec<_>>(), expect);
        let (r3, f3) = frag(11, 30);
        s.put(Holder::new(2, 5), r3, f3);
        assert!(!s.holds(&r), "last holder evicted: fragment must drop");
        assert_eq!(s.holdings_len(), 2);
        assert_eq!(s.holdings_from(0).collect::<Vec<_>>(), s.holdings());
    }
}
