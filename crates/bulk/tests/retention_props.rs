//! Property-style retention checks for the aliasing-prone corner of the
//! fragment store: identical payloads put by *different* holders — key
//! slots of different shards, or two keys of one shard — share one
//! commitment root, so retention bookkeeping (holders, recency, eviction,
//! byte accounting) must stay consistent under arbitrary interleavings of
//! puts and evictions.

use sbs_bulk::{
    encode_fragments, fragment_leaves, BulkDigest, FragmentStore, Holder, MerkleTree, PutOutcome,
    StoredFragment,
};
use sbs_sim::DetRng;
use std::collections::BTreeMap;

/// A small pool of distinct payloads, each dispersed whole (`k = 1` of
/// `m = 3`) and held as fragment 0 — the index every holder of these
/// tests stores, as congruent shards would; a tiny pool relative to the
/// churn guarantees both root aliasing across shards and plenty of
/// evictions at every retention bound.
fn pool() -> (Vec<StoredFragment>, Vec<BulkDigest>) {
    (0u8..8)
        .map(|i| {
            let frags = encode_fragments(&vec![i ^ 0x5A; 40 + 20 * i as usize], 1, 3);
            let tree = MerkleTree::build(&fragment_leaves(&frags));
            let frag = StoredFragment {
                index: 0,
                total: 3,
                bytes: frags[0].clone(),
                proof: tree.proof(0),
            };
            (frag, tree.root())
        })
        .unzip()
}

/// Seeded loop over retention bounds 1..=3 on 4 shards × 3 key slots:
/// whatever the interleaving, (1) every holder's most recently put
/// root stays resolvable — the aliasing bug dropped exactly this when
/// another holder evicted its hold on the shared root, and it is what
/// keeps a key's live value alive; (2) `bytes_stored` equals the sum over
/// *held* pool payloads, each counted once — so it can neither underflow
/// nor double-count an aliased fragment; (3) the distinct-root count
/// respects the global `holders × K` budget.
#[test]
fn aliased_puts_across_shards_never_underflow_or_drop_live_digests() {
    let (frags, roots) = pool();
    for retain in 1usize..=3 {
        for seed in 0..6u64 {
            let mut rng = DetRng::from_seed(0x000A_11A5 + ((retain as u64) << 8) + seed);
            let mut store = FragmentStore::with_retention(retain);
            let mut last_put: BTreeMap<Holder, usize> = BTreeMap::new();
            for step in 0..500 {
                let holder = Holder::new((rng.next_u64() % 4) as u32, (rng.next_u64() % 3) as u32);
                let idx = (rng.next_u64() % frags.len() as u64) as usize;
                let out = store.put(holder, roots[idx], frags[idx].clone());
                assert!(out.held(), "verified puts always hold");
                last_put.insert(holder, idx);

                // (1) Most recent root per holder is resolvable.
                for (h, &i) in &last_put {
                    assert_eq!(
                        store.get(&roots[i]),
                        Some(&frags[i]),
                        "retain={retain} seed={seed} step={step}: {h:?}'s most \
                         recent root must stay resolvable"
                    );
                    assert!(store.holders(&roots[i]).contains(h));
                }

                // (2) Exact byte accounting: each held pool payload once.
                let expect: u64 = frags
                    .iter()
                    .zip(&roots)
                    .filter(|(_, d)| store.holds(d))
                    .map(|(f, _)| f.bytes.len() as u64)
                    .sum();
                assert_eq!(
                    store.bytes_stored(),
                    expect,
                    "retain={retain} seed={seed} step={step}: bytes_stored must equal \
                     the held set exactly (no underflow, no double counting)"
                );

                // (3) The global budget: at most K distinct roots per
                // holder that ever put.
                assert!(store.fragment_count() <= 12 * retain);
            }
        }
    }
}

/// The aliasing surface on the fragment store: two shards dispersing
/// identical frags share a commitment root, but overlapping windows
/// put a replica at a different position (= index) per shard — so each
/// shard holds its *own* `(root, index)` entry, one shard's eviction
/// never drops another's fragment, and per shard a root still pins
/// exactly one index.
#[test]
fn fragment_store_retains_per_shard_entries_of_an_aliased_root() {
    use sbs_bulk::{encode_fragments, fragment_leaves, merkle_proof, merkle_root, StoredFragment};
    let bytes = vec![7u8; 100];
    let frags = encode_fragments(&bytes, 2, 3);
    let leaves = fragment_leaves(&frags);
    let root = merkle_root(&leaves);
    let frag = |i: usize| StoredFragment {
        index: i as u32,
        total: 3,
        bytes: frags[i].clone(),
        proof: merkle_proof(&leaves, i),
    };

    let h = |shard: u32| Holder::new(shard, 0);
    let mut store = FragmentStore::with_retention(1);
    // Shard 0 sits at window position 1 for this root, shard 2 at
    // position 0 — the cross-shard aliasing case. Both store.
    assert_eq!(store.put(h(0), root, frag(1)), PutOutcome::Stored);
    assert_eq!(store.put(h(2), root, frag(0)), PutOutcome::Stored);
    assert_eq!(store.bytes_stored(), 100, "one 50-byte fragment per shard");
    // Same-shard re-puts: idempotent on the held index, refused on a
    // conflicting one (the push quorum counts on index-faithful acks) —
    // whichever of the shard's key slots the put names.
    assert_eq!(store.put(h(0), root, frag(1)), PutOutcome::AlreadyHeld);
    assert_eq!(store.put(h(0), root, frag(0)), PutOutcome::DigestMismatch);
    assert_eq!(
        store.put(Holder::new(0, 4), root, frag(0)),
        PutOutcome::DigestMismatch
    );
    assert_eq!(store.get_for(0, &root).expect("held").index, 1);
    assert_eq!(store.get_for(2, &root).expect("held").index, 0);

    // A *fabricated* fragment (wrong bytes for the proof) is unstorable.
    let forged = StoredFragment {
        index: 0,
        total: 3,
        bytes: vec![0xFF; 50].into(),
        proof: merkle_proof(&leaves, 0),
    };
    assert_eq!(store.put(h(0), root, forged), PutOutcome::DigestMismatch);

    // Shard 0 churns past its K=1 bound with a different dispersal: only
    // shard 0's entry drops; shard 2 still resolves the root.
    let other = vec![9u8; 80];
    let ofrags = encode_fragments(&other, 2, 3);
    let oleaves = fragment_leaves(&ofrags);
    let oroot = merkle_root(&oleaves);
    let out = store.put(
        h(0),
        oroot,
        StoredFragment {
            index: 0,
            total: 3,
            bytes: ofrags[0].clone(),
            proof: merkle_proof(&oleaves, 0),
        },
    );
    assert_eq!(out, PutOutcome::Stored);
    assert!(
        store.holds(&root),
        "shard 2 still references the aliased root"
    );
    assert_eq!(store.get_for(2, &root).expect("held").bytes, frags[0]);
    assert_eq!(store.bytes_stored(), 50 + 40);
    assert_eq!(store.fragment_count(), 2);
}
