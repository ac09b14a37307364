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
//! entry is (`sbs-store` carries it in every value reference). A replica
//! keeps only the last [`RETAINED_PER_KEY`] *distinct* roots per holder —
//! the last two values of each key — evicting oldest-first, so a replica's
//! storage is bounded by its keys, not by how often they are written.
//! Retention per key, not per shard, is what keeps a cold key alive: a
//! shard-wide "last `K`" would let a hot neighbour's overwrites evict the
//! only value a rarely written key still references. Keeping two keeps a
//! key's previous value alive, so a concurrent reader that read the
//! metadata register just before an overwrite still resolves its
//! reference; readers chasing older (evicted) references fall back to
//! re-reading the metadata register, which names a live root again.
//! Re-putting a held fragment refreshes its recency instead of double
//! counting it.
//!
//! ## Eviction and the self-healing plane
//!
//! Anti-entropy pulls whatever a peer's summary or a reader's miss names
//! that the replica does not hold, so two rules keep it from undoing the
//! bound:
//!
//! - **Evicted roots are not repair suspects.** Each holder remembers the
//!   last `K` roots it evicted ([`FragmentStore::evicted`]); a summary
//!   entry or a fetch miss naming one is an old value, not a loss. The
//!   memory never names a root its holder holds — storing the root again
//!   drops it from the memory — and [`FragmentStore::wipe`] clears it, so
//!   a wiped replica still pulls everything back.
//! - **A repair never evicts.** [`FragmentStore::repair`] fills a free
//!   retention slot or stores nothing: a slow peer naming an older root,
//!   or a Byzantine peer serving old but genuine fragments, must not be
//!   able to push a key's current value out of an honest replica.
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
//! # Anti-entropy walk
//!
//! Anti-entropy gossips what the retention map already holds: the
//! per-holder recency orders are keyed by [`Holder`], so
//! [`FragmentStore::holders_after`] walks them in holder order from a
//! cursor holder, each with the roots it retains, oldest first — a
//! summary entry is `(shard, slot, root)` straight from one holder, with
//! no derived index to keep in step at every put and eviction. Positioning
//! the walk is one `O(log n)` range probe, so a tick costs its batch,
//! whatever the store holds.

use crate::digest::BulkDigest;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Reference-counted immutable payload bytes, shared zero-copy between
/// wire messages, replica storage, and retransmission buffers.
pub type SharedBytes = Arc<[u8]>;

/// Distinct roots a replica retains per holder — per key: the key's
/// current value and its previous one, which a reader that read the
/// metadata register just before an overwrite may still be fetching.
pub const RETAINED_PER_KEY: usize = 2;

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
    /// A repair for a holder whose retention slots are all taken — refused
    /// (see [`FragmentStore::repair`]).
    NoFreeSlot,
}

impl PutOutcome {
    /// True if the replica now holds the fragment (either outcome that
    /// warrants an acknowledgement).
    pub fn held(self) -> bool {
        matches!(self, PutOutcome::Stored | PutOutcome::AlreadyHeld)
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
    /// True if some slot of `shard` holds this entry.
    fn held_by_shard(&self, shard: u32) -> bool {
        self.holders.range(Holder::of_shard(shard)).next().is_some()
    }

    /// Payload bytes accounted for this entry.
    fn len(&self) -> u64 {
        self.frag.bytes.len() as u64
    }
}

/// One holder's recency order and its eviction memory. Each is at most
/// `retain` long — a key's last values — so a refresh (`touch`) is a scan
/// of a few keys.
#[derive(Clone, Debug, Default)]
struct Recency {
    /// The keys this holder retains, oldest (by insertion or last
    /// refresh) first.
    keys: Vec<FragKey>,
    /// The last `retain` roots this holder evicted, oldest first — never
    /// one it holds.
    evicted: VecDeque<BulkDigest>,
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
///   holders (recency and holder sets never drift), and a holder holds at
///   most `retain` keys;
/// - a holder's eviction memory lists at most `retain` roots, none of
///   which it holds;
/// - `bytes_stored` is the sum of the fragment lengths of live entries —
///   incremented once when an entry is first stored, decremented once
///   when its last holder evicts it (never per holder, so aliasing cannot
///   underflow it).
#[derive(Clone, Debug)]
pub struct FragmentStore {
    entries: BTreeMap<FragKey, Held>,
    bytes_stored: u64,
    /// Distinct keys retained per holder.
    retain: usize,
    /// Per-holder key recency and eviction memory.
    recency: BTreeMap<Holder, Recency>,
}

impl Default for FragmentStore {
    fn default() -> Self {
        FragmentStore::new()
    }
}

impl FragmentStore {
    /// An empty store retaining the last [`RETAINED_PER_KEY`] distinct
    /// roots per holder (per key), evicting oldest-first.
    pub fn new() -> Self {
        FragmentStore::with_retention(RETAINED_PER_KEY)
    }

    /// An empty store retaining the last `retain` distinct roots per
    /// holder — the retention sweeps' constructor; replicas use
    /// [`FragmentStore::new`].
    ///
    /// # Panics
    ///
    /// Panics on `retain == 0` (a replica that stores nothing could never
    /// acknowledge a push).
    pub fn with_retention(retain: usize) -> Self {
        assert!(retain >= 1, "retention bound must be at least 1");
        FragmentStore {
            entries: BTreeMap::new(),
            bytes_stored: 0,
            retain,
            recency: BTreeMap::new(),
        }
    }

    /// Verifies `frag` against the commitment `root` (Merkle path replay)
    /// and stores it under `(root, frag.index)`, held by `holder` (the key
    /// slot whose value it is) — a writer's push. Storing a fresh root may
    /// evict the holder's oldest one; re-putting a held fragment refreshes
    /// its recency at every holder that holds it. See the type docs for
    /// the same-shard index-conflict refusal.
    pub fn put(&mut self, holder: Holder, root: BulkDigest, frag: StoredFragment) -> PutOutcome {
        self.admit(holder, root, frag, true)
    }

    /// Stores a fragment the self-healing plane rebuilt, like
    /// [`Self::put`] except that it **never evicts**: it fills a free
    /// retention slot of `holder` or stores nothing
    /// ([`PutOutcome::NoFreeSlot`]), and it refreshes no recency. A repair
    /// answers a summary or a miss that may name an older value than the
    /// holder's — a slow peer's, or an old but genuine one a Byzantine
    /// peer serves — and must not push the key's current value out.
    pub fn repair(&mut self, holder: Holder, root: BulkDigest, frag: StoredFragment) -> PutOutcome {
        self.admit(holder, root, frag, false)
    }

    /// True if `holder` evicted `root` among its last `K` evictions and has
    /// not stored it since — an old value of the key, which anti-entropy
    /// must not pull back (see the module docs).
    pub fn evicted(&self, holder: Holder, root: &BulkDigest) -> bool {
        self.recency
            .get(&holder)
            .is_some_and(|rec| rec.evicted.contains(root))
    }

    /// The one admission path of [`Self::put`] (`push`) and
    /// [`Self::repair`].
    fn admit(
        &mut self,
        holder: Holder,
        root: BulkDigest,
        frag: StoredFragment,
        push: bool,
    ) -> PutOutcome {
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
            .any(|(&(_, idx), h)| idx != frag.index && h.held_by_shard(holder.shard))
        {
            return PutOutcome::DigestMismatch;
        }
        let key = (root, frag.index);
        let new_hold = !self
            .entries
            .get(&key)
            .is_some_and(|held| held.holders.contains(&holder));
        if !push && new_hold && self.held_by(holder) >= self.retain {
            return PutOutcome::NoFreeSlot;
        }
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
        if new_hold {
            // A new holder — a fresh entry, or a second key (or shard)
            // aliasing onto the same fragment: it gets its own retention
            // slot (and its own recency entry), so another holder's later
            // eviction can no longer drop this holder's only copy.
            self.entries
                .get_mut(&key)
                .expect("inserted above")
                .holders
                .insert(holder);
            self.enqueue(holder, key);
        }
        if push {
            // Recency refresh goes to the holders that actually hold the
            // key — looked up here, never trusted from the wire: a
            // Byzantine writer re-putting a held fragment under a foreign
            // holder must not be able to starve the true holder's refresh
            // (pre-fix, the actively republished value became the next
            // eviction victim).
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

    /// How many keys `holder` holds.
    fn held_by(&self, holder: Holder) -> usize {
        self.recency.get(&holder).map_or(0, |rec| rec.keys.len())
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
            .find(|(_, h)| h.held_by_shard(shard))
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
    /// bytes are commitment metadata, not payload). Under overwrite churn
    /// it plateaus at ≤ `retain` fragments per key.
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

    /// Discards every fragment and the eviction memory (transient data
    /// fault) while preserving the retention bound — a fault, not a
    /// reconfiguration. Forgetting the evictions is what lets a wiped
    /// replica pull back a value it had once evicted and lost track of.
    pub fn wipe(&mut self) {
        self.entries.clear();
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
                    rec.keys.retain(|k| k != key);
                }
            }
        }
        !keys.is_empty()
    }

    /// Every holder with retention state, in holder order, starting after
    /// `after` (at the first holder when `None`) and wrapping once — a
    /// rotation that ends at `after` itself — each with the roots it
    /// retains, oldest first (a holder holds at most one index of a root,
    /// so no root repeats): anti-entropy's walk (see the module docs). A
    /// holder kept only for its eviction memory (or emptied by
    /// [`Self::remove`]) is listed with no roots, so a caller can bound the
    /// holders it visits. Positioning is one `O(log n)` range probe; each
    /// holder taken is one step more.
    pub fn holders_after(
        &self,
        after: Option<Holder>,
    ) -> impl Iterator<Item = (Holder, impl ExactSizeIterator<Item = BulkDigest> + '_)> + '_ {
        let from = after.map_or(Unbounded, Excluded);
        self.recency
            .range((from, Unbounded))
            .chain(after.into_iter().flat_map(|h| self.recency.range(..=h)))
            .map(|(&holder, rec)| (holder, rec.keys.iter().map(|&(root, _)| root)))
    }

    /// Appends `key` as `holder`'s most recent, and drops its root from
    /// the holder's eviction memory.
    fn enqueue(&mut self, holder: Holder, key: FragKey) {
        let rec = self.recency.entry(holder).or_default();
        debug_assert!(!rec.keys.contains(&key), "double enqueue");
        rec.keys.push(key);
        rec.evicted.retain(|root| *root != key.0);
    }

    /// Moves `key` to the most-recent end of `holder`'s order, if listed.
    fn touch(&mut self, holder: Holder, key: FragKey) {
        let Some(rec) = self.recency.get_mut(&holder) else {
            return;
        };
        if let Some(at) = rec.keys.iter().position(|k| *k == key) {
            rec.keys.remove(at);
            rec.keys.push(key);
        }
    }

    /// Evicts `holder`'s oldest keys while it retains more than the
    /// bound, remembering their roots. Eviction drops only *this holder's
    /// hold*; the entry (and its byte accounting) goes away with the last
    /// holder.
    fn evict_overflow(&mut self, holder: Holder) {
        let k = self.retain;
        loop {
            let Some(rec) = self.recency.get_mut(&holder) else {
                return;
            };
            if rec.keys.len() <= k {
                return;
            }
            let evicted = rec.keys.remove(0);
            rec.evicted.push_back(evicted.0);
            if rec.evicted.len() > k {
                rec.evicted.pop_front();
            }
            let Some(held) = self.entries.get_mut(&evicted) else {
                debug_assert!(false, "recency listed a key the store does not hold");
                continue;
            };
            held.holders.remove(&holder);
            if held.holders.is_empty() {
                let held = self.entries.remove(&evicted).expect("present above");
                self.bytes_stored -= held.len();
            }
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

    /// What one whole rotation of the anti-entropy walk announces, as
    /// `(shard, slot, root)` in walk order.
    fn walk(s: &FragmentStore) -> Vec<(u32, u32, BulkDigest)> {
        s.holders_after(None)
            .flat_map(|(h, roots)| roots.map(move |r| (h.shard, h.slot, r)))
            .collect()
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

    /// The default store — every replica's — keeps each key's last two
    /// values.
    #[test]
    fn retention_evicts_oldest_and_bytes_plateau() {
        let mut s = FragmentStore::new();
        assert_eq!(RETAINED_PER_KEY, 2);
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
        assert!(walk(&s).is_empty() && s.holders_after(None).next().is_none());
        // Re-puts verify and evict against the preserved bound.
        assert_eq!(s.put(h(0), r1, f1), PutOutcome::Stored);
        for i in 10..14u8 {
            let (r, f) = frag(i, 10);
            s.put(h(0), r, f);
            assert!(s.fragment_count() <= 2);
        }
        assert_eq!(s.fragment_count(), 2, "the bound survived the wipe");
    }

    /// The eviction memory: each holder remembers its last `K` evicted
    /// roots and no older ones, only its own, never one it holds again,
    /// and nothing across a wipe.
    #[test]
    fn eviction_memory_holds_the_last_k_roots_per_holder() {
        let mut s = FragmentStore::new();
        let roots: Vec<(BulkDigest, StoredFragment)> = (1..=5u8).map(|i| frag(i, 10)).collect();
        for (r, f) in &roots {
            s.put(h(0), *r, f.clone());
        }
        let r = |i: usize| roots[i - 1].0;
        // Five values, two held, the two evicted last remembered.
        assert!(s.holds(&r(4)) && s.holds(&r(5)));
        assert!(!s.evicted(h(0), &r(1)), "at most K roots are remembered");
        assert!(s.evicted(h(0), &r(2)) && s.evicted(h(0), &r(3)));
        assert!(!s.evicted(h(0), &r(4)), "a held root is not evicted");
        assert!(!s.evicted(h(1), &r(2)), "memory is per holder");
        assert_eq!(s.recency[&h(0)].evicted.len(), 2);

        // A root a push stores again leaves the memory (and the root it
        // evicts in turn enters it, still at most K).
        assert_eq!(s.put(h(0), r(2), roots[1].1.clone()), PutOutcome::Stored);
        assert!(!s.evicted(h(0), &r(2)), "stored again: no longer evicted");
        assert!(s.evicted(h(0), &r(3)) && s.evicted(h(0), &r(4)));
        assert_eq!(s.recency[&h(0)].evicted.len(), 2);

        s.wipe();
        assert!(
            (2..=5).all(|i| !s.evicted(h(0), &r(i))),
            "wipe forgets evictions"
        );
    }

    /// A repair into a holder whose slots are all taken stores nothing
    /// and evicts nothing — whatever root it names.
    #[test]
    fn a_repair_into_a_full_holder_stores_nothing_and_evicts_nothing() {
        let mut s = FragmentStore::new();
        let (old, fo) = frag(1, 10);
        let (r2, f2) = frag(2, 10);
        let (r3, f3) = frag(3, 10);
        s.put(h(0), r2, f2);
        s.put(h(0), r3, f3);
        let before = walk(&s);
        let out = s.repair(h(0), old, fo.clone());
        assert_eq!(out, PutOutcome::NoFreeSlot);
        assert!(!out.held());
        assert!(!s.holds(&old) && s.holds(&r2) && s.holds(&r3));
        assert_eq!(s.bytes_stored(), 20);
        assert_eq!(walk(&s), before);
        assert!(!s.evicted(h(0), &r2), "nothing was evicted");
        // Another key's free slot takes the same fragment.
        assert_eq!(s.repair(h(1), old, fo), PutOutcome::Stored);
        assert_eq!(s.holders(&old), BTreeSet::from([h(1)]));
    }

    /// A repair into a free slot is retained like a push, and leaves the
    /// eviction memory.
    #[test]
    fn a_repair_into_a_free_slot_is_retained() {
        let mut s = FragmentStore::new();
        let (r1, f1) = frag(1, 10);
        let (r2, f2) = frag(2, 10);
        let (r3, f3) = frag(3, 10);
        s.put(h(0), r1, f1.clone());
        s.put(h(0), r2, f2);
        s.put(h(0), r3, f3);
        assert!(s.evicted(h(0), &r1));
        // Corruption found on serve drops a held value: a slot is free.
        assert!(s.remove(&r3));
        assert_eq!(s.repair(h(0), r1, f1.clone()), PutOutcome::Stored);
        assert!(s.holds(&r1) && s.holds(&r2));
        assert!(!s.evicted(h(0), &r1));
        assert_eq!(s.repair(h(0), r1, f1), PutOutcome::AlreadyHeld);
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(walk(&s), vec![(0, 0, r2), (0, 0, r1)], "oldest first");
    }

    /// `remove` drops an entry for every holder — recency included, so a
    /// later eviction sweep cannot trip over a dangling recency key.
    #[test]
    fn remove_drops_all_holders_and_their_recency() {
        let mut s = FragmentStore::with_retention(1);
        let (r, f) = frag(5, 30);
        s.put(h(0), r, f.clone());
        s.put(h(1), r, f);
        assert_eq!(walk(&s), vec![(0, 0, r), (1, 0, r)]);
        assert!(s.remove(&r));
        assert!(!s.remove(&r), "second remove finds nothing");
        assert_eq!(s.bytes_stored(), 0);
        assert!(walk(&s).is_empty());
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
        // The walk announces each key's roots under its own slot, keys in
        // slot order, each key's values oldest first.
        assert_eq!(
            walk(&s),
            vec![(0, 0, hot[48]), (0, 0, hot[49]), (0, 1, cold)]
        );
    }

    /// Two keys of one shard with byte-identical values share one entry
    /// with two holders, and the walk announces the root under each
    /// slot; the entry outlives the first slot's eviction and leaves with
    /// the last.
    #[test]
    fn two_slots_of_one_shard_alias_one_entry() {
        let mut s = FragmentStore::with_retention(1);
        let (r, f) = frag(9, 30);
        assert_eq!(s.put(Holder::new(2, 5), r, f.clone()), PutOutcome::Stored);
        assert_eq!(s.put(Holder::new(2, 3), r, f), PutOutcome::AlreadyHeld);
        assert_eq!(s.bytes_stored(), 30, "one physical fragment");
        assert_eq!(walk(&s), vec![(2, 3, r), (2, 5, r)]);
        let (r2, f2) = frag(10, 30);
        s.put(Holder::new(2, 3), r2, f2);
        assert!(s.holds(&r), "slot 5 still holds it");
        assert_eq!(walk(&s), vec![(2, 3, r2), (2, 5, r)]);
        let (r3, f3) = frag(11, 30);
        s.put(Holder::new(2, 5), r3, f3);
        assert!(!s.holds(&r), "last holder evicted: fragment must drop");
        assert_eq!(walk(&s), vec![(2, 3, r2), (2, 5, r3)]);
    }
}
