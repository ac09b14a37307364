//! Differential test of the anti-entropy walk: the fragment store serves
//! anti-entropy's `(holder shard, slot, root)` holdings by walking its
//! per-holder retention map (`holders_after`), while `holders(root)`
//! reads the entries' holder sets — two records of one fact that every
//! mutation point must keep in step. Seeded random sequences of puts by
//! key-slot holders, aliasing re-puts (across shards and across slots of
//! one shard), repairs, per-key retention evictions, removes and wipes
//! must leave the walk equal to the holdings derived from `holders(root)`
//! over the whole pool after **every** step — from the start and, as a
//! rotation, from a random cursor holder — and leave `holds(root)`
//! agreeing with `get_for(shard, root)` for every shard.

use sbs_bulk::{
    encode_fragments, fragment_leaves, BulkDigest, FragmentStore, Holder, MerkleTree, SharedBytes,
    StoredFragment,
};
use sbs_sim::DetRng;
use std::collections::BTreeSet;

type Holding = (u32, u32, BulkDigest);

/// The holdings one rotation of the walk from `after` yields, in walk
/// order.
fn walk(store: &FragmentStore, after: Option<Holder>) -> Vec<Holding> {
    store
        .holders_after(after)
        .flat_map(|(h, roots)| roots.map(move |r| (h.shard, h.slot, r)))
        .collect()
}

/// The walk from the start must list exactly `reference` — each holding
/// once, holders in order — and the walk from a random cursor holder
/// must be the rotation of it that starts after that holder.
fn assert_walk_matches(
    store: &FragmentStore,
    reference: BTreeSet<Holding>,
    rng: &mut DetRng,
    label: &str,
) {
    let holder = |&(shard, slot, _): &Holding| Holder::new(shard, slot);
    let whole = walk(store, None);
    assert!(
        whole.windows(2).all(|w| holder(&w[0]) <= holder(&w[1])),
        "{label}: holders out of order"
    );
    let listed: BTreeSet<Holding> = whole.iter().copied().collect();
    assert_eq!(listed.len(), whole.len(), "{label}: a holding listed twice");
    assert_eq!(listed, reference, "{label}: walk from the start");
    let draw = rng.next_u64();
    let cursor = Holder::new((draw % 7) as u32, (draw / 7 % 4) as u32);
    let split = whole.partition_point(|h| holder(h) <= cursor);
    let rotated: Vec<Holding> = whole[split..]
        .iter()
        .chain(&whole[..split])
        .copied()
        .collect();
    assert_eq!(
        walk(store, Some(cursor)),
        rotated,
        "{label}: walk after {cursor:?}"
    );
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
fn fragment_store_walk_matches_the_holder_sets() {
    // 24 dispersals (2-of-3). A shard's fragment index is its window
    // position, modelled as `shard % 3`: shards 0 and 3 are congruent
    // (same index, one entry, two holders) while 0, 1, 2 alias a root
    // under three different indices, and the three key slots of a shard
    // alias its one index.
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
                let reference: BTreeSet<Holding> = roots
                    .iter()
                    .flat_map(|&root| {
                        store
                            .holders(&root)
                            .into_iter()
                            .map(move |h| (h.shard, h.slot, root))
                    })
                    .collect();
                assert_walk_matches(&store, reference, &mut rng, &label);
                assert_holds_matches_get_for(&store, &roots, &label);
            }
        }
    }
}
