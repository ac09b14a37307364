//! Differential test of the holdings index: the fragment store serves
//! anti-entropy's `(holder shard, slot, root)` list from an index of
//! `(shard, root)` pairs it maintains at its mutation points
//! (`holdings_len` / `holdings_from`), and the full scan `holdings()` is
//! the reference. Seeded random sequences of puts by key-slot holders,
//! aliasing re-puts (across shards and across slots of one shard),
//! repairs, per-key retention evictions, removes and wipes must leave the two
//! equal after **every** step — and leave `holds(root)` agreeing with
//! `get_for(shard, root)` for every shard.

use sbs_bulk::{
    encode_fragments, fragment_leaves, BulkDigest, FragmentStore, Holder, MerkleTree, SharedBytes,
    StoredFragment,
};
use sbs_sim::DetRng;

/// The index must equal the reference scan as a whole, from a random
/// rank, and at both ends.
fn assert_index_matches(
    reference: Vec<(u32, u32, BulkDigest)>,
    len: usize,
    from: impl Fn(usize) -> Vec<(u32, u32, BulkDigest)>,
    rng: &mut DetRng,
    label: &str,
) {
    assert_eq!(len, reference.len(), "{label}: holdings_len");
    assert_eq!(from(0), reference, "{label}: holdings_from(0)");
    let rank = rng.next_u64() as usize % (len + 1);
    assert_eq!(from(rank), reference[rank..], "{label}: from rank {rank}");
    assert!(from(len).is_empty() && from(len + 7).is_empty(), "{label}");
}

/// Retention bounds swept: the eviction-heavy 1..=3 (replicas run 2).
const RETENTIONS: [usize; 3] = [1, 2, 3];

/// Anti-entropy asks `holds(root)` where it used to ask
/// `get_for(shard, root).is_some()`: the same predicate, because
/// `get_for` falls back to any held index of the root.
fn assert_holds_matches_get_for(store: &FragmentStore, roots: &[BulkDigest], label: &str) {
    for shard in 0..6 {
        for root in roots {
            assert_eq!(
                store.holds(root),
                store.get_for(shard, root).is_some(),
                "{label}: shard {shard}"
            );
        }
    }
}

#[test]
fn fragment_store_index_tracks_the_full_scan() {
    // 24 dispersals (2-of-3). A shard's fragment index is its window
    // position, modelled as `shard % 3`: shards 0 and 3 are congruent
    // (same index, one entry, two holders) while 0, 1, 2 alias a root
    // under three different indices — one `(shard, root)` pair each —
    // and the three key slots of a shard alias its one index.
    struct Dispersal {
        root: BulkDigest,
        frags: Vec<SharedBytes>,
        tree: MerkleTree,
    }
    let pool: Vec<Dispersal> = (0u8..24)
        .map(|i| {
            let frags = encode_fragments(&vec![i ^ 0x99; 20 + i as usize], 2, 3);
            let tree = MerkleTree::build(&fragment_leaves(&frags));
            Dispersal {
                root: tree.root(),
                frags,
                tree,
            }
        })
        .collect();
    let fragment = |d: &Dispersal, index: usize| StoredFragment {
        index: index as u32,
        total: 3,
        bytes: d.frags[index].clone(),
        proof: d.tree.proof(index),
    };
    let roots: Vec<BulkDigest> = pool.iter().map(|d| d.root).collect();
    for retain in RETENTIONS {
        for seed in 0..4u64 {
            let mut rng = DetRng::from_seed(0xF1DE0 + 16 * retain as u64 + seed);
            let mut store = FragmentStore::with_retention(retain);
            for step in 0..700 {
                let d = &pool[rng.next_u64() as usize % pool.len()];
                let shard = (rng.next_u64() % 6) as u32;
                let holder = Holder::new(shard, (rng.next_u64() % 3) as u32);
                match rng.next_u64() % 100 {
                    0 => store.wipe(),
                    1..=14 => {
                        store.remove(&d.root);
                    }
                    15..=24 => {
                        // A second index of a root for the same shard is
                        // refused unless the shard holds none yet — either
                        // way the shard ends up with at most one.
                        store.put(holder, d.root, fragment(d, (shard as usize + 1) % 3));
                    }
                    25..=39 => {
                        // A repair stores only into a free slot.
                        store.repair(holder, d.root, fragment(d, shard as usize % 3));
                    }
                    _ => {
                        store.put(holder, d.root, fragment(d, shard as usize % 3));
                    }
                }
                let label = format!("retain {retain} seed {seed} step {step}");
                assert_index_matches(
                    store.holdings(),
                    store.holdings_len(),
                    |rank| store.holdings_from(rank).collect(),
                    &mut rng,
                    &label,
                );
                assert_holds_matches_get_for(&store, &roots, &label);
            }
        }
    }
}
