//! The per-replica stores: digest-keyed payloads, verified on the way in.
//!
//! A correct data replica recomputes the content address (or replays the
//! fragment commitment) before storing, so fabricated blobs and fragments
//! (link garbage, Byzantine writers announcing a digest their bytes do
//! not match) are *unstorable* — the store can only ever hold
//! self-consistent `(digest, bytes)` pairs. Storage is content-addressed
//! and idempotent: re-putting a held digest is a no-op acknowledgement,
//! which also makes duplicate `BULK_PUT` deliveries and rewritten
//! identical values harmless.
//!
//! Blobs are held as [`SharedBytes`] (`Arc<[u8]>`): storing and serving a
//! blob shares the sender's allocation instead of copying it, so a fetch
//! reply costs a reference-count bump regardless of payload size.
//!
//! # Retention (per-key GC)
//!
//! Entries are retained by **holders**: a [`Holder`] is a shard's *key
//! slot* — the slot the shard's writer assigned the key whose value the
//! entry is (`sbs-store` carries it in every value reference). By default
//! every verified blob is kept forever: overwrites orphan a key's old
//! values, and [`BulkStore::bytes_stored`] only grows.
//! [`BulkStore::with_retention`] bounds that: only the last `K` *distinct*
//! digests per holder — the last `K` values of each key — are retained,
//! oldest-first eviction. Retention per key, not per shard, is what keeps
//! a cold key alive: a shard-wide "last `K`" would let a hot neighbour's
//! overwrites evict the only value a rarely written key still references.
//! `K ≥ 2` keeps a key's previous value alive, so a concurrent reader that
//! read the metadata register just before an overwrite still resolves its
//! reference; readers chasing older (or evicted) references fall back to
//! re-reading the metadata register, which names a live digest again.
//! Re-putting a held digest refreshes its recency instead of double
//! counting it.
//!
//! ## Aliasing
//!
//! Content addressing makes digests *global*: two keys — of one shard or
//! of two — whose values are byte-identical share one digest, so one
//! physical blob can be live for several holders at once. Retention
//! therefore tracks the holder *set* of every entry, and a holder's
//! eviction only drops that holder's hold; the bytes (and the
//! `bytes_stored` accounting) go away only when the *last* holder lets
//! go. Recency refreshes on re-put likewise apply to the holders that
//! actually hold the digest, looked up in the store — never to whatever
//! holder the wire message claims, which a Byzantine writer controls.
//!
//! Coded fragments alias differently: overlapping shard windows put a
//! replica at a *different window position* (= fragment index) per
//! shard, so [`FragmentStore`] keys entries by `(root, index)` — each
//! shard holds its own index of an aliased root — instead of sharing one
//! entry per root (which would refuse the second shard's fragment and
//! wedge its push short of the `k + t` quorum). Congruent shards with
//! *identical* windows land on the same index and dedup through the
//! holder set like aliased blobs.
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
//! its `(holder shard, digest)` pairs — `(holder shard, commitment root)`
//! on the coded plane, once per shard however the root's fragment indices
//! or the shard's key slots alias — in sorted order, each announced with
//! the lowest slot of the shard that holds it. Deriving that list from
//! the entries is a walk of the whole store ([`BulkStore::holdings`]),
//! and the gossip tick runs every few milliseconds on every replica, so
//! both stores keep the pairs as an always-maintained rank-addressable
//! index instead ([`BulkStore::holdings_len`] /
//! [`BulkStore::holdings_from`]): a tick costs `O(log n)` plus its ≤ 32
//! entries, whatever the store holds.
//!
//! The index changes at exactly the four places a holder set changes:
//! a verified put that stores a new entry or adds a new holder to a held
//! one, a retention eviction, [`BulkStore::remove`] (corruption found on
//! serve), and [`BulkStore::wipe`]. Each change re-lists the one pair it
//! touched from a range probe of the entries: the pair enters when the
//! shard's first slot holding the address appears, carries the lowest
//! slot still holding it — so a summary names a slot without a lookup —
//! and leaves only when *no* entry of that address is held by *any* slot
//! of that shard any more. The index is exact whatever aliases.
//!
//! It is **derived state**: a function of the entries' holder sets and
//! nothing else, never trusted from the wire, never consulted to decide
//! what is stored or served. A fault model that scrambles a replica's
//! memory classifies it as *rebuilt from the entries*, not as a field of
//! its own; the full scan stays as the reference that tests and the
//! tick's debug assertion compare it against.

use crate::digest::{digest_of, BulkDigest};
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

/// What [`BulkStore::put`] / [`FragmentStore::put`] did with an incoming
/// payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// Verified and stored.
    Stored,
    /// Already held (content addressing makes this equality, not
    /// overwrite).
    AlreadyHeld,
    /// The bytes do not hash to the announced digest (or the fragment
    /// does not verify against the announced commitment root) — refused.
    DigestMismatch,
}

impl PutOutcome {
    /// True if the replica now holds the digest (either outcome that
    /// warrants an acknowledgement).
    pub fn held(self) -> bool {
        !matches!(self, PutOutcome::DigestMismatch)
    }
}

/// One keyed entry with its holder set and byte accounting.
#[derive(Clone, Debug)]
struct Held<E> {
    /// The key slots currently retaining this entry. Non-empty by
    /// invariant: the last eviction removes the entry.
    holders: BTreeSet<Holder>,
    /// Payload bytes accounted for this entry.
    len: u64,
    entry: E,
}

impl<E> Held<E> {
    /// The lowest slot of `shard` holding this entry, if any.
    fn slot_of(&self, shard: u32) -> Option<u32> {
        self.holders
            .range(Holder::of_shard(shard))
            .next()
            .map(|h| h.slot)
    }
}

/// One holder's recency order: keys indexed by a store-wide monotonic
/// sequence number, so a refresh (`touch`) is two `O(log n)` map moves
/// instead of a linear queue scan — republish-heavy workloads re-put held
/// digests on the hot path.
#[derive(Clone, Debug)]
struct Recency<K: Ord + Copy> {
    /// Keys by insertion/refresh sequence, oldest first.
    by_seq: BTreeMap<u64, K>,
    /// Each key's current sequence (exactly the inverse of `by_seq`).
    seq_of: BTreeMap<K, u64>,
}

impl<K: Ord + Copy> Default for Recency<K> {
    fn default() -> Self {
        Recency {
            by_seq: BTreeMap::new(),
            seq_of: BTreeMap::new(),
        }
    }
}

/// One holdings-index entry: a `(holder shard, address)` pair and the
/// lowest slot of that shard holding the address. Ordered — and equal —
/// by the pair alone, so the index lists each pair once and a change of
/// its slot is an in-place rewrite.
#[derive(Clone, Copy, Debug)]
struct Listing {
    shard: u32,
    address: BulkDigest,
    slot: u32,
}

impl Listing {
    fn pair(&self) -> (u32, BulkDigest) {
        (self.shard, self.address)
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

/// A store key, which names the content address anti-entropy announces
/// it under: a blob's digest is its own address, a fragment's
/// `(root, index)` is announced as its root.
trait StoreKey: Ord + Copy {
    fn address(&self) -> BulkDigest;
    /// Every key announced under `address`, as a range of the entry map.
    fn keys_of(address: BulkDigest) -> RangeInclusive<Self>;
}

impl StoreKey for BulkDigest {
    fn address(&self) -> BulkDigest {
        *self
    }
    fn keys_of(address: BulkDigest) -> RangeInclusive<Self> {
        address..=address
    }
}

impl StoreKey for (BulkDigest, u32) {
    fn address(&self) -> BulkDigest {
        self.0
    }
    fn keys_of(root: BulkDigest) -> RangeInclusive<Self> {
        (root, u32::MIN)..=(root, u32::MAX)
    }
}

/// The retention core shared by [`BulkStore`] (whole blobs, keyed by
/// content digest) and [`FragmentStore`] (erasure-coded fragments, keyed
/// by `(root, fragment index)`): keyed entries with per-key **holder**
/// sets and per-holder recency orders.
///
/// Invariants:
/// - key `x` appears in holder `h`'s recency order iff `h` is one of its
///   holders (recency and holder sets never drift);
/// - `bytes_stored` is the sum of `len` over live entries — incremented
///   once when an entry is first stored, decremented once when its last
///   holder evicts it (never per holder, so aliasing cannot underflow it);
/// - `(s, a)` is listed in `index` iff some slot of shard `s` holds some
///   entry whose key's address is `a`, and listed with the lowest such
///   slot (see the module docs' "Index" section).
#[derive(Clone, Debug)]
struct RetainedStore<K: StoreKey, E> {
    entries: BTreeMap<K, Held<E>>,
    /// The `(holder shard, address)` pairs of `entries`, each with its
    /// shard's lowest holding slot, rank-addressable.
    index: RankedSet<Listing>,
    bytes_stored: u64,
    /// Distinct keys retained per holder (`None` = unbounded).
    retain: Option<usize>,
    /// Per-holder key recency. Only maintained when a retention bound is
    /// set.
    recency: BTreeMap<Holder, Recency<K>>,
    /// Store-wide recency sequence (monotonic; gaps are fine).
    next_seq: u64,
}

impl<K: StoreKey, E> Default for RetainedStore<K, E> {
    fn default() -> Self {
        RetainedStore::with_retention(None)
    }
}

impl<K: StoreKey, E> RetainedStore<K, E> {
    fn with_retention(retain: Option<usize>) -> Self {
        if let Some(k) = retain {
            assert!(k >= 1, "retention bound must be at least 1");
        }
        RetainedStore {
            entries: BTreeMap::new(),
            index: RankedSet::default(),
            bytes_stored: 0,
            retain,
            recency: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Records a verified put of `key` by `holder`. The caller has
    /// already verified the content; `make` builds the entry only when
    /// the key is new. Returns `Stored` or `AlreadyHeld`.
    fn insert_verified(
        &mut self,
        holder: Holder,
        key: K,
        len: u64,
        make: impl FnOnce() -> E,
    ) -> PutOutcome {
        let outcome = if self.entries.contains_key(&key) {
            PutOutcome::AlreadyHeld
        } else {
            self.bytes_stored += len;
            self.entries.insert(
                key,
                Held {
                    holders: BTreeSet::new(),
                    len,
                    entry: make(),
                },
            );
            PutOutcome::Stored
        };
        if !self.entries[&key].holders.contains(&holder) {
            // A new holder — a fresh entry, or a second key (or shard)
            // aliasing onto the same bytes: it gets its own retention
            // slot (and its own recency entry), so another holder's later
            // eviction can no longer drop this holder's only copy.
            self.entries
                .get_mut(&key)
                .expect("inserted above")
                .holders
                .insert(holder);
            self.relist(holder.shard, key.address());
            self.enqueue(holder, key);
        }
        // Recency refresh goes to the holders that actually hold the
        // key — looked up here, never trusted from the wire: a Byzantine
        // writer re-putting a held digest under a foreign holder must not
        // be able to starve the true holder's refresh (pre-fix, the
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

    /// The lowest slot of `shard` holding some key of `address` — the
    /// slot anti-entropy announces the pair under.
    fn slot_of(&self, shard: u32, address: BulkDigest) -> Option<u32> {
        self.entries
            .range(K::keys_of(address))
            .filter_map(|(_, held)| held.slot_of(shard))
            .min()
    }

    /// Brings `shard`'s listing of `address` in line with `entries` after
    /// one of the shard's slots gained or lost a hold of it: listed under
    /// the lowest slot still holding, or — when no slot of the shard
    /// holds any key of the address any more — not at all.
    fn relist(&mut self, shard: u32, address: BulkDigest) {
        let mut listing = Listing {
            shard,
            address,
            slot: 0,
        };
        match self.slot_of(shard, address) {
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
    fn enqueue(&mut self, holder: Holder, key: K) {
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
    fn touch(&mut self, holder: Holder, key: K) {
        if self.retain.is_none() {
            return;
        }
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
                self.bytes_stored -= held.len;
            }
            self.relist(holder.shard, evicted.address());
        }
    }

    fn get(&self, key: &K) -> Option<&E> {
        self.entries.get(key).map(|h| &h.entry)
    }

    /// Discards every entry (and its recency/byte accounting) while
    /// preserving the retention configuration — a transient data fault,
    /// not a reconfiguration. The recency sequence keeps advancing so
    /// post-wipe inserts order strictly after pre-wipe history.
    fn wipe(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.recency.clear();
        self.bytes_stored = 0;
    }

    /// Drops `key` for every holder (recency included). Used by the
    /// self-healing serve path when a held entry fails its integrity
    /// re-check: the corrupt bytes must go before a repaired copy can be
    /// re-inserted through the verifying `put`.
    fn remove_key(&mut self, key: &K) -> bool {
        let Some(held) = self.entries.remove(key) else {
            return false;
        };
        self.bytes_stored -= held.len;
        for holder in &held.holders {
            if let Some(rec) = self.recency.get_mut(holder) {
                if let Some(seq) = rec.seq_of.remove(key) {
                    rec.by_seq.remove(&seq);
                }
            }
        }
        let shards: BTreeSet<u32> = held.holders.iter().map(|h| h.shard).collect();
        for shard in shards {
            self.relist(shard, key.address());
        }
        true
    }

    /// Every holder of some key of `address`.
    fn holders(&self, address: BulkDigest) -> BTreeSet<Holder> {
        self.entries
            .range(K::keys_of(address))
            .flat_map(|(_, held)| held.holders.iter().copied())
            .collect()
    }

    fn shards_held(&self) -> BTreeSet<u32> {
        self.entries
            .values()
            .flat_map(|h| h.holders.iter().map(|h| h.shard))
            .collect()
    }

    /// The indexed `(shard, slot, address)` holdings of rank `rank..`:
    /// each index pair with the lowest slot of its shard that holds it.
    fn holdings_from(&self, rank: usize) -> impl Iterator<Item = (u32, u32, BulkDigest)> + '_ {
        self.index
            .iter_from(rank)
            .map(|l| (l.shard, l.slot, l.address))
    }

    /// [`Self::holdings_from`]'s list derived by a **full scan** of the
    /// entries — the reference the index is checked against.
    fn holdings(&self) -> Vec<(u32, u32, BulkDigest)> {
        let mut lowest: BTreeMap<(u32, BulkDigest), u32> = BTreeMap::new();
        for (key, held) in &self.entries {
            for h in &held.holders {
                let slot = lowest.entry((h.shard, key.address())).or_insert(h.slot);
                *slot = (*slot).min(h.slot);
            }
        }
        lowest
            .into_iter()
            .map(|((shard, a), slot)| (shard, slot, a))
            .collect()
    }
}

/// One replica's content-addressed blob storage (whole-copy mode).
#[derive(Clone, Debug, Default)]
pub struct BulkStore {
    inner: RetainedStore<BulkDigest, SharedBytes>,
}

impl BulkStore {
    /// An empty store that retains every verified blob forever.
    pub fn new() -> Self {
        BulkStore::default()
    }

    /// An empty store that retains only the last `retain` distinct
    /// digests per holder (per key), evicting oldest-first.
    ///
    /// # Panics
    ///
    /// Panics on `retain == 0` (a replica that stores nothing could never
    /// acknowledge a push).
    pub fn with_retention(retain: usize) -> Self {
        BulkStore {
            inner: RetainedStore::with_retention(Some(retain)),
        }
    }

    /// The per-holder retention bound, if one is set.
    pub fn retention(&self) -> Option<usize> {
        self.inner.retain
    }

    /// Verifies `bytes` against `digest` and stores them under it, held
    /// by `holder` (the key slot whose value they are). Under a retention
    /// bound, storing a fresh digest may evict the holder's oldest one;
    /// re-putting a held digest refreshes its recency at every holder
    /// that holds it.
    pub fn put(&mut self, holder: Holder, digest: BulkDigest, bytes: SharedBytes) -> PutOutcome {
        // Empty payloads are refused outright: no honest value serializes
        // to zero bytes (every in-repo codec writes at least a length or
        // an id), so an empty blob is only ever adversarial — and
        // downstream serving paths may index into the payload.
        if bytes.is_empty() || digest_of(&bytes) != digest {
            return PutOutcome::DigestMismatch;
        }
        let len = bytes.len() as u64;
        self.inner.insert_verified(holder, digest, len, || bytes)
    }

    /// The bytes stored under `digest`, if held.
    pub fn get(&self, digest: &BulkDigest) -> Option<&[u8]> {
        self.inner.get(digest).map(|b| b.as_ref())
    }

    /// The shared handle to the bytes stored under `digest`, if held —
    /// cloning it shares the allocation (a reply costs a refcount bump).
    pub fn get_shared(&self, digest: &BulkDigest) -> Option<SharedBytes> {
        self.inner.get(digest).cloned()
    }

    /// True if `digest` is held.
    pub fn holds(&self, digest: &BulkDigest) -> bool {
        self.inner.entries.contains_key(digest)
    }

    /// The key slots holding `digest` (empty if it is not held).
    pub fn holders(&self, digest: &BulkDigest) -> BTreeSet<Holder> {
        self.inner.holders(*digest)
    }

    /// Number of blobs held.
    pub fn blob_count(&self) -> usize {
        self.inner.entries.len()
    }

    /// Total payload bytes currently held (each physical blob counted
    /// once, however many holders alias onto it). Without a retention
    /// bound this only grows under overwrite churn (orphaned digests
    /// accumulate); with one it plateaus at ≤ `retain` blobs per key.
    pub fn bytes_stored(&self) -> u64 {
        self.inner.bytes_stored
    }

    /// The shards this replica holds at least one blob for.
    pub fn shards_held(&self) -> BTreeSet<u32> {
        self.inner.shards_held()
    }

    /// Discards every blob (transient data fault), preserving the
    /// retention configuration.
    pub fn wipe(&mut self) {
        self.inner.wipe();
    }

    /// Drops `digest` for every holder. Returns whether it was held.
    pub fn remove(&mut self, digest: &BulkDigest) -> bool {
        self.inner.remove_key(digest)
    }

    /// How many `(holder shard, digest)` pairs this replica retains —
    /// the length of the list anti-entropy digest summaries rotate over.
    pub fn holdings_len(&self) -> usize {
        self.inner.index.len()
    }

    /// The retained `(holder shard, slot, digest)` holdings of rank
    /// `rank..` in `(shard, digest)` order, served from the index:
    /// `O(log n)` to position, then one step per holding taken. `slot` is
    /// the lowest slot of the shard holding the digest.
    pub fn holdings_from(&self, rank: usize) -> impl Iterator<Item = (u32, u32, BulkDigest)> + '_ {
        self.inner.holdings_from(rank)
    }

    /// Every `(holder shard, slot, digest)` holding this replica retains,
    /// in `(shard, digest)` order — derived by a **full scan** of the entries. This is the
    /// reference the index behind [`Self::holdings_from`] is checked
    /// against (by tests and by the anti-entropy tick's debug assertion);
    /// nothing on a serving path may call it.
    pub fn holdings(&self) -> Vec<(u32, u32, BulkDigest)> {
        self.inner.holdings()
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

/// One replica's erasure-coded fragment storage, keyed by
/// `(commitment root, fragment index)` with [`BulkStore`]-style holder
/// sets. Verification happens on the way in — [`FragmentStore::put`]
/// replays the Merkle path — so the store only ever holds fragments that
/// provably belong to their announced root; retention (holders, recency,
/// eviction, byte accounting) is [`BulkStore`]'s, shared through one
/// core.
///
/// Keying by `(root, index)` — not by root alone — is what keeps writes
/// live across *shard windows that overlap*: a replica serving two shards
/// sits at a different window position in each, so when both shards
/// disperse byte-identical values (one root — the cross-shard aliasing
/// case), it legitimately holds a **different fragment index per shard**.
/// Congruent shards (`shard ≡ shard' mod n`, identical windows) land on
/// the *same* index instead and dedup through the holder set, exactly
/// like aliased blobs — as do two keys of one shard with identical
/// values. Per shard, though, a root still maps to exactly one index: a
/// re-put of a held index is acknowledged without storing (idempotence,
/// like blob re-puts), while a **different** index for a shard that
/// already holds one (under any slot) is refused — acknowledging it would
/// certify holding a fragment this replica does not have at that window
/// position, which is exactly what the `k + t` push quorum counts on (a
/// Byzantine peer pre-seeding correct replicas with *its* fragment must
/// not be able to poison their acks).
#[derive(Clone, Debug, Default)]
pub struct FragmentStore {
    inner: RetainedStore<(BulkDigest, u32), StoredFragment>,
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
    /// Panics on `retain == 0`.
    pub fn with_retention(retain: usize) -> Self {
        FragmentStore {
            inner: RetainedStore::with_retention(Some(retain)),
        }
    }

    /// Verifies `frag` against the commitment `root` (Merkle path replay)
    /// and stores it under `(root, frag.index)`, held by `holder`. See
    /// the type docs for the keying and the same-shard index-conflict
    /// refusal.
    pub fn put(&mut self, holder: Holder, root: BulkDigest, frag: StoredFragment) -> PutOutcome {
        // Empty fragments are refused like empty blobs: an honest
        // dispersal's fragments are never zero-length (the value encodes
        // to at least one byte), and a Byzantine writer *can* commit an
        // empty leaf — which would otherwise be stored verified and trip
        // up serving paths that index into the bytes.
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
            .any(|((_, idx), h)| *idx != frag.index && h.slot_of(holder.shard).is_some())
        {
            return PutOutcome::DigestMismatch;
        }
        let len = frag.bytes.len() as u64;
        self.inner
            .insert_verified(holder, (root, frag.index), len, || frag)
    }

    /// The entries holding fragments of `root`, across all indices.
    fn entries_of(
        &self,
        root: &BulkDigest,
    ) -> impl Iterator<Item = (&(BulkDigest, u32), &Held<StoredFragment>)> {
        self.inner
            .entries
            .range(<(BulkDigest, u32)>::keys_of(*root))
    }

    /// Some fragment stored under `root`, if any index is held.
    pub fn get(&self, root: &BulkDigest) -> Option<&StoredFragment> {
        self.entries_of(root).next().map(|(_, h)| &h.entry)
    }

    /// The fragment stored under `root` for `shard` (the index that
    /// shard's window position dispersed here, held by any of its slots)
    /// — falling back to any held index of that root (still
    /// commitment-verified, so still useful to a reconstructing reader).
    pub fn get_for(&self, shard: u32, root: &BulkDigest) -> Option<&StoredFragment> {
        self.entries_of(root)
            .find(|(_, h)| h.slot_of(shard).is_some())
            .map(|(_, h)| &h.entry)
            .or_else(|| self.get(root))
    }

    /// True if a fragment of `root` is held for any shard.
    pub fn holds(&self, root: &BulkDigest) -> bool {
        self.entries_of(root).next().is_some()
    }

    /// The key slots holding some fragment of `root` (empty if none is
    /// held).
    pub fn holders(&self, root: &BulkDigest) -> BTreeSet<Holder> {
        self.inner.holders(*root)
    }

    /// Number of fragment entries held (one per `(root, index)`).
    pub fn fragment_count(&self) -> usize {
        self.inner.entries.len()
    }

    /// Total fragment payload bytes currently held (proof bytes are not
    /// counted — they are commitment metadata, not payload).
    pub fn bytes_stored(&self) -> u64 {
        self.inner.bytes_stored
    }

    /// The shards this replica holds at least one fragment for.
    pub fn shards_held(&self) -> BTreeSet<u32> {
        self.inner.shards_held()
    }

    /// Discards every fragment (transient data fault), preserving the
    /// retention configuration.
    pub fn wipe(&mut self) {
        self.inner.wipe();
    }

    /// Drops every index of `root`, for every holder. Returns whether
    /// anything was held.
    pub fn remove(&mut self, root: &BulkDigest) -> bool {
        let keys: Vec<(BulkDigest, u32)> = self.entries_of(root).map(|(k, _)| *k).collect();
        let mut removed = false;
        for k in keys {
            removed |= self.inner.remove_key(&k);
        }
        removed
    }

    /// How many `(holder shard, commitment root)` pairs this replica
    /// retains (see [`BulkStore::holdings_len`]).
    pub fn holdings_len(&self) -> usize {
        self.inner.index.len()
    }

    /// The retained `(holder shard, slot, commitment root)` holdings of
    /// rank `rank..`, served from the index (see
    /// [`BulkStore::holdings_from`]).
    pub fn holdings_from(&self, rank: usize) -> impl Iterator<Item = (u32, u32, BulkDigest)> + '_ {
        self.inner.holdings_from(rank)
    }

    /// Every `(holder shard, slot, commitment root)` holding this replica
    /// retains — one per `(shard, root)` however many indices or slots
    /// alias onto it, with the shard's lowest slot — in `(shard, root)`
    /// order, derived by a
    /// **full scan**: the reference for the index, like
    /// [`BulkStore::holdings`].
    pub fn holdings(&self) -> Vec<(u32, u32, BulkDigest)> {
        self.inner.holdings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slot 0 of `shard` — the holder of a shard's only key.
    fn h(shard: u32) -> Holder {
        Holder::new(shard, 0)
    }

    fn blob(label: u8, len: usize) -> (BulkDigest, SharedBytes) {
        let bytes: SharedBytes = vec![label; len].into();
        (digest_of(&bytes), bytes)
    }

    #[test]
    fn put_verifies_and_is_idempotent() {
        let mut s = BulkStore::new();
        let bytes: SharedBytes = b"shard map bytes".to_vec().into();
        let d = digest_of(&bytes);
        assert_eq!(s.put(h(3), d, bytes.clone()), PutOutcome::Stored);
        assert_eq!(s.put(h(3), d, bytes.clone()), PutOutcome::AlreadyHeld);
        assert!(PutOutcome::AlreadyHeld.held());
        assert_eq!(s.get(&d), Some(bytes.as_ref()));
        assert!(s.holds(&d));
        assert_eq!(s.blob_count(), 1);
        assert_eq!(s.bytes_stored(), bytes.len() as u64);
        assert_eq!(s.shards_held().into_iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(s.retention(), None);
    }

    #[test]
    fn fabricated_blobs_are_unstorable() {
        let mut s = BulkStore::new();
        let d = digest_of(b"the real bytes");
        let out = s.put(h(0), d, b"not those bytes".to_vec().into());
        assert_eq!(out, PutOutcome::DigestMismatch);
        assert!(!out.held());
        assert_eq!(s.blob_count(), 0);
        assert_eq!(s.get(&d), None);
    }

    #[test]
    fn get_shared_shares_the_allocation() {
        let mut s = BulkStore::new();
        let (d, bytes) = blob(7, 64);
        s.put(h(0), d, bytes.clone());
        let served = s.get_shared(&d).expect("held");
        assert!(Arc::ptr_eq(&served, &bytes), "serving must not copy");
    }

    #[test]
    fn retention_evicts_oldest_and_bytes_plateau() {
        let mut s = BulkStore::with_retention(2);
        let (d1, b1) = blob(1, 100);
        let (d2, b2) = blob(2, 100);
        let (d3, b3) = blob(3, 100);
        s.put(h(0), d1, b1);
        s.put(h(0), d2, b2);
        assert_eq!(s.bytes_stored(), 200);
        // The previous digest survives an overwrite (K = 2)…
        s.put(h(0), d3, b3);
        assert!(!s.holds(&d1), "oldest digest must be evicted");
        assert!(s.holds(&d2), "the previous snapshot stays resolvable");
        assert!(s.holds(&d3));
        // …and total bytes plateau at K blobs per shard under churn.
        for i in 4..40u8 {
            let (d, b) = blob(i, 100);
            s.put(h(0), d, b);
            assert_eq!(s.bytes_stored(), 200, "bytes must plateau at K blobs");
            assert_eq!(s.blob_count(), 2);
        }
    }

    #[test]
    fn retention_is_per_shard() {
        let mut s = BulkStore::with_retention(1);
        let (d1, b1) = blob(1, 10);
        let (d2, b2) = blob(2, 10);
        s.put(h(0), d1, b1);
        s.put(h(1), d2, b2);
        assert!(s.holds(&d1) && s.holds(&d2), "bounds apply per shard");
        let (d3, b3) = blob(3, 10);
        s.put(h(0), d3, b3);
        assert!(!s.holds(&d1) && s.holds(&d2) && s.holds(&d3));
    }

    #[test]
    fn reput_refreshes_recency_instead_of_double_counting() {
        let mut s = BulkStore::with_retention(2);
        let (d1, b1) = blob(1, 10);
        let (d2, b2) = blob(2, 10);
        s.put(h(0), d1, b1.clone());
        s.put(h(0), d2, b2);
        // Re-put of d1: now d2 is the oldest.
        assert_eq!(s.put(h(0), d1, b1), PutOutcome::AlreadyHeld);
        assert_eq!(s.bytes_stored(), 20, "re-put must not double count");
        let (d3, b3) = blob(3, 10);
        s.put(h(0), d3, b3);
        assert!(s.holds(&d1), "refreshed digest must survive");
        assert!(!s.holds(&d2), "stale digest is the eviction victim");
    }

    /// Regression (cross-shard aliasing): two shards storing
    /// byte-identical maps share one digest; one shard's eviction must
    /// drop only its own hold, never the bytes the other shard still
    /// references — and the byte accounting must move exactly once, on
    /// the last drop.
    #[test]
    fn aliased_digest_survives_one_shards_eviction() {
        let mut s = BulkStore::with_retention(1);
        let (d, b) = blob(9, 100);
        assert_eq!(s.put(h(0), d, b.clone()), PutOutcome::Stored);
        assert_eq!(s.put(h(1), d, b.clone()), PutOutcome::AlreadyHeld);
        assert_eq!(s.bytes_stored(), 100, "one physical blob, two holders");
        assert_eq!(s.shards_held(), BTreeSet::from([0, 1]));

        // Shard 0 churns past its K=1 bound: only shard 0's hold drops.
        let (d2, b2) = blob(10, 100);
        s.put(h(0), d2, b2);
        assert!(
            s.holds(&d),
            "shard 1 still references the aliased digest — eviction by \
             shard 0 must not drop it"
        );
        assert_eq!(s.get(&d), Some(b.as_ref()));
        assert_eq!(s.bytes_stored(), 200);
        assert_eq!(s.shards_held(), BTreeSet::from([0, 1]));

        // Shard 1 churns too: now the last holder is gone and the bytes
        // (and their accounting) go with it — exactly once.
        let (d3, b3) = blob(11, 100);
        s.put(h(1), d3, b3);
        assert!(!s.holds(&d), "last holder evicted: blob must drop");
        assert_eq!(s.bytes_stored(), 200, "d2 + d3 remain, no underflow");
        assert_eq!(s.blob_count(), 2);
    }

    /// Regression (wire-tag trust in `touch`): a re-put of a held digest
    /// tagged with a *foreign* shard — which a Byzantine writer can send
    /// at will — must still refresh the recency of the shard(s) that
    /// actually hold the digest, so an actively republished snapshot is
    /// never the next eviction victim.
    #[test]
    fn reput_with_foreign_shard_tag_still_refreshes_stored_shard() {
        let mut s = BulkStore::with_retention(2);
        let (d1, b1) = blob(1, 10);
        let (d2, b2) = blob(2, 10);
        s.put(h(0), d1, b1.clone());
        s.put(h(0), d2, b2);
        // The republish arrives under a bogus shard tag (7). The stored
        // shard (0) must be looked up for the refresh regardless.
        assert_eq!(s.put(h(7), d1, b1), PutOutcome::AlreadyHeld);
        let (d3, b3) = blob(3, 10);
        s.put(h(0), d3, b3);
        assert!(
            s.holds(&d1),
            "the actively republished digest must survive shard 0's eviction"
        );
        assert!(!s.holds(&d2), "d2 was shard 0's oldest after the refresh");
    }

    #[test]
    #[should_panic(expected = "retention bound must be at least 1")]
    fn zero_retention_is_refused() {
        let _ = BulkStore::with_retention(0);
    }

    /// Wipe is a transient fault, not a reconfiguration: everything
    /// drops, the retention bound survives, and post-wipe puts behave
    /// exactly like puts into a fresh store with the same bound.
    #[test]
    fn wipe_clears_state_but_keeps_retention() {
        let mut s = BulkStore::with_retention(2);
        let (d1, b1) = blob(1, 10);
        let (d2, b2) = blob(2, 10);
        s.put(h(0), d1, b1.clone());
        s.put(h(1), d2, b2);
        s.wipe();
        assert_eq!(s.blob_count(), 0);
        assert_eq!(s.bytes_stored(), 0);
        assert!(!s.holds(&d1) && !s.holds(&d2));
        assert_eq!(s.retention(), Some(2));
        assert!(s.holdings().is_empty());
        // Re-puts verify and evict against the preserved bound.
        assert_eq!(s.put(h(0), d1, b1), PutOutcome::Stored);
        for i in 10..14u8 {
            let (d, b) = blob(i, 10);
            s.put(h(0), d, b);
            assert!(s.blob_count() <= 2);
        }
    }

    /// `remove` drops an entry for every holder — recency included, so a
    /// later eviction sweep cannot trip over a dangling recency key.
    #[test]
    fn remove_drops_all_holders_and_their_recency() {
        let mut s = BulkStore::with_retention(1);
        let (d, b) = blob(5, 30);
        s.put(h(0), d, b.clone());
        s.put(h(1), d, b);
        assert_eq!(s.holdings(), vec![(0, 0, d), (1, 0, d)]);
        assert!(s.remove(&d));
        assert!(!s.remove(&d), "second remove finds nothing");
        assert_eq!(s.bytes_stored(), 0);
        assert!(s.holdings().is_empty());
        // Both shards churn on fresh digests without tripping recency
        // debris from the removed key.
        for i in 20..24u8 {
            let (di, bi) = blob(i, 10);
            s.put(h(u32::from(i % 2)), di, bi);
        }
        assert_eq!(s.blob_count(), 2);
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
        use crate::{encode_fragments, fragment_leaves, merkle_proof, merkle_root};
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
        let mut s = BulkStore::with_retention(2);
        let (cold, cb) = blob(200, 10);
        assert_eq!(s.put(Holder::new(0, 1), cold, cb), PutOutcome::Stored);
        let mut hot = Vec::new();
        for i in 0..50u8 {
            let (d, b) = blob(i, 10);
            s.put(Holder::new(0, 0), d, b);
            hot.push(d);
        }
        assert!(s.holds(&cold), "the cold key's only value must survive");
        assert_eq!(s.blob_count(), 3, "two hot values + the cold one");
        assert!(s.holds(&hot[49]) && s.holds(&hot[48]) && !s.holds(&hot[47]));
        assert_eq!(s.holders(&cold), BTreeSet::from([Holder::new(0, 1)]));
        assert_eq!(s.shards_held(), BTreeSet::from([0]));
        // One index pair per (shard, digest), announced with its slot.
        let mut expect = vec![(0, 1, cold), (0, 0, hot[48]), (0, 0, hot[49])];
        expect.sort_unstable_by_key(|&(shard, _, d)| (shard, d));
        assert_eq!(s.holdings(), expect);
        assert_eq!(s.holdings_from(0).collect::<Vec<_>>(), expect);
    }

    /// Two keys of one shard with byte-identical values share one entry
    /// with two holders and one index pair (announced under the lower
    /// slot); the pair outlives the first slot's eviction and leaves with
    /// the last.
    #[test]
    fn two_slots_of_one_shard_alias_one_entry() {
        let mut s = BulkStore::with_retention(1);
        let (d, b) = blob(9, 30);
        assert_eq!(s.put(Holder::new(2, 5), d, b.clone()), PutOutcome::Stored);
        assert_eq!(s.put(Holder::new(2, 3), d, b), PutOutcome::AlreadyHeld);
        assert_eq!(s.bytes_stored(), 30, "one physical blob");
        assert_eq!(s.holdings_len(), 1);
        assert_eq!(s.holdings(), vec![(2, 3, d)]);
        let (d2, b2) = blob(10, 30);
        s.put(Holder::new(2, 3), d2, b2);
        assert!(s.holds(&d), "slot 5 still holds it");
        let mut expect = vec![(2, 5, d), (2, 3, d2)];
        expect.sort_unstable_by_key(|&(shard, _, d)| (shard, d));
        assert_eq!(s.holdings(), expect);
        assert_eq!(s.holdings_from(0).collect::<Vec<_>>(), expect);
        let (d3, b3) = blob(11, 30);
        s.put(Holder::new(2, 5), d3, b3);
        assert!(!s.holds(&d), "last holder evicted: blob must drop");
        assert_eq!(s.holdings_len(), 2);
        assert_eq!(s.holdings_from(0).collect::<Vec<_>>(), s.holdings());
    }
}
