//! A sorted set addressable by **rank**: the `i`-th smallest element in
//! `O(log n)`, with insert and remove in `O(log n)` plus a bounded shift.
//!
//! The per-replica fragment store keeps its anti-entropy holdings in one
//! of these (see the "Index" section of [`crate::blob`]'s module docs): the
//! gossip tick reads a rotating window of ≤ 32 consecutive ranks, so it
//! needs positional access a `BTreeSet` cannot give, while every verified
//! put inserts — so one flat sorted `Vec`, whose insert shifts half the
//! store, is not an option either.
//!
//! The layout is a *chunked sorted vector*: elements live in sorted
//! chunks of at most [`CHUNK`] entries, and a Fenwick tree over the chunk
//! lengths turns a rank into `(chunk, offset)` by one descent. An insert
//! or remove is a binary search over the chunks, a shift inside one chunk
//! (bounded by `CHUNK`), and a point update of the tree. Only when the
//! chunk list changes shape — a full chunk splits, two sparse neighbours
//! merge, an emptied chunk goes — is the tree rebuilt: one pass over the
//! chunk list, like the `Vec` insert or remove that reshaped it. A chunk
//! splits only after `CHUNK / 2` inserts into it and chunks cannot go
//! faster than they come, so that pass is shared by ≥ 16 mutations and
//! touches one word per ≥ 16 elements: about `len / 256` word writes per
//! mutation, 80 for a 20 000-element set — not logarithmic on paper, and
//! below the cost of the chunk shift until the set holds millions.

/// Most elements one chunk holds; a chunk that would exceed it splits in
/// half. 64 entries of the store's 40-byte holdings are 2.5 KiB — an
/// insert moves at most that much memory.
const CHUNK: usize = 64;

/// Two adjacent chunks holding at most this many elements together are
/// merged after a remove, so the chunk count stays within `4·len / CHUNK
/// + 1` however inserts and removes interleave.
const SPARSE: usize = CHUNK / 2;

/// A set of `T` in sorted order with rank lookup. See the module docs.
#[derive(Clone, Debug)]
pub(crate) struct RankedSet<T> {
    /// The elements: every chunk sorted and non-empty, chunks in order
    /// (the concatenation is strictly increasing).
    chunks: Vec<Vec<T>>,
    /// Fenwick tree over the chunk lengths, 1-based (`tree[0]` unused):
    /// `tree[i]` is the total length of the `i & -i` chunks ending at
    /// chunk `i - 1`.
    tree: Vec<usize>,
    len: usize,
}

impl<T> Default for RankedSet<T> {
    fn default() -> Self {
        RankedSet {
            chunks: Vec::new(),
            tree: vec![0],
            len: 0,
        }
    }
}

impl<T: Ord + Copy> RankedSet<T> {
    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Drops every element.
    pub(crate) fn clear(&mut self) {
        *self = RankedSet::default();
    }

    /// The chunk whose range covers `x`: the first whose last element is
    /// `≥ x`, or `chunks.len()` when `x` is above every element.
    fn chunk_of(&self, x: &T) -> usize {
        self.chunks
            .partition_point(|c| c.last().expect("chunks are non-empty") < x)
    }

    /// Adds `x`; returns whether it was absent.
    pub(crate) fn insert(&mut self, x: T) -> bool {
        if self.chunks.is_empty() {
            self.chunks.push(vec![x]);
            self.len = 1;
            self.rebuild();
            return true;
        }
        // An element above all others extends the last chunk.
        let ci = self.chunk_of(&x).min(self.chunks.len() - 1);
        let chunk = &mut self.chunks[ci];
        let Err(at) = chunk.binary_search(&x) else {
            return false;
        };
        chunk.insert(at, x);
        self.len += 1;
        if chunk.len() > CHUNK {
            let upper = chunk.split_off(CHUNK / 2);
            self.chunks.insert(ci + 1, upper);
            self.rebuild();
        } else {
            self.adjust(ci, true);
        }
        true
    }

    /// The element equal to `x`, for an in-place update that must leave
    /// its order unchanged (an element type whose order is a key).
    pub(crate) fn get_mut(&mut self, x: &T) -> Option<&mut T> {
        let ci = self.chunk_of(x);
        let chunk = self.chunks.get_mut(ci)?;
        let at = chunk.binary_search(x).ok()?;
        Some(&mut chunk[at])
    }

    /// Removes `x`; returns whether it was present.
    pub(crate) fn remove(&mut self, x: &T) -> bool {
        let ci = self.chunk_of(x);
        let Some(chunk) = self.chunks.get_mut(ci) else {
            return false;
        };
        let Ok(at) = chunk.binary_search(x) else {
            return false;
        };
        chunk.remove(at);
        self.len -= 1;
        // The lower of two neighbours sparse enough to merge, if this
        // remove left the chunk in such a pair.
        let chunks = &self.chunks;
        let sparse_with_next =
            |l: usize| l + 1 < chunks.len() && chunks[l].len() + chunks[l + 1].len() <= SPARSE;
        let merge_at = [Some(ci), ci.checked_sub(1)]
            .into_iter()
            .flatten()
            .find(|&l| sparse_with_next(l));
        if self.chunks[ci].is_empty() {
            self.chunks.remove(ci);
            self.rebuild();
        } else if let Some(l) = merge_at {
            let upper = self.chunks.remove(l + 1);
            self.chunks[l].extend(upper);
            self.rebuild();
        } else {
            self.adjust(ci, false);
        }
        true
    }

    /// The elements of rank `rank..` in order (empty when `rank ≥ len`).
    /// Positioning costs one tree descent, each step after it is a slice
    /// walk.
    pub(crate) fn iter_from(&self, rank: usize) -> impl Iterator<Item = T> + '_ {
        let (ci, offset) = if rank < self.len {
            self.locate(rank)
        } else {
            (self.chunks.len(), 0)
        };
        let (first, rest) = match self.chunks.get(ci) {
            Some(chunk) => (&chunk[offset..], &self.chunks[ci + 1..]),
            None => (&[][..], &[][..]),
        };
        first.iter().chain(rest.iter().flatten()).copied()
    }

    /// `(chunk, offset)` of the element of rank `rank < len`: the
    /// standard Fenwick descent to the last chunk boundary at or below
    /// `rank`.
    fn locate(&self, mut rank: usize) -> (usize, usize) {
        let chunks = self.chunks.len();
        let mut at = 0;
        let mut step = 1usize << chunks.ilog2();
        while step > 0 {
            let next = at + step;
            if next <= chunks && self.tree[next] <= rank {
                at = next;
                rank -= self.tree[next];
            }
            step >>= 1;
        }
        (at, rank)
    }

    /// Records that chunk `ci` grew or shrank by one element.
    fn adjust(&mut self, ci: usize, grew: bool) {
        let mut i = ci + 1;
        while i < self.tree.len() {
            if grew {
                self.tree[i] += 1;
            } else {
                self.tree[i] -= 1;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Recomputes the tree after the chunk list changed shape.
    fn rebuild(&mut self) {
        self.tree.clear();
        self.tree.push(0);
        self.tree.extend(self.chunks.iter().map(Vec::len));
        for i in 1..self.tree.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent < self.tree.len() {
                self.tree[parent] += self.tree[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_sim::DetRng;
    use std::collections::BTreeSet;

    /// Structural invariants plus full agreement with the model: order,
    /// length, and `iter_from` at every rank (which exercises the tree
    /// after every kind of update).
    fn check(set: &RankedSet<u32>, model: &BTreeSet<u32>) {
        assert_eq!(set.len(), model.len());
        let flat: Vec<u32> = model.iter().copied().collect();
        assert_eq!(set.iter_from(0).collect::<Vec<_>>(), flat);
        for rank in 0..=flat.len() + 1 {
            assert_eq!(
                set.iter_from(rank).next(),
                flat.get(rank).copied(),
                "rank {rank} of {}",
                flat.len()
            );
        }
        assert!(set.chunks.iter().all(|c| !c.is_empty() && c.len() <= CHUNK));
        assert!(
            set.chunks
                .windows(2)
                .all(|w| w[0].len() + w[1].len() > SPARSE),
            "adjacent sparse chunks must have merged: {:?}",
            set.chunks.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    /// Property test against `BTreeSet`: seeded random insert/remove
    /// sequences in a growing, a churning and a draining phase (splits,
    /// in-place updates, merges and chunk removals all occur), over a key
    /// domain small enough that duplicate inserts and missing removes are
    /// common.
    #[test]
    fn agrees_with_btreeset_under_random_insert_and_remove() {
        for seed in 0..6u64 {
            let mut rng = DetRng::from_seed(0x4A4E_4B00 + seed);
            let mut set = RankedSet::default();
            let mut model = BTreeSet::new();
            let domain = 400 + 100 * seed as u32;
            let mut peak = 0;
            for (steps, insert_per_8) in [(900, 7), (600, 4), (1500, 1)] {
                for step in 0..steps {
                    let x = rng.next_u32() % domain;
                    if rng.next_u64() % 8 < insert_per_8 {
                        assert_eq!(set.insert(x), model.insert(x), "insert {x}");
                    } else {
                        assert_eq!(set.remove(&x), model.remove(&x), "remove {x}");
                    }
                    peak = peak.max(set.len());
                    if step % 16 == 0 {
                        check(&set, &model);
                    }
                }
                check(&set, &model);
            }
            assert!(set.len() * 2 < peak, "the draining phase must drain");
            set.clear();
            model.clear();
            check(&set, &model);
            assert!(set.insert(7) && !set.insert(7));
        }
    }

    /// Monotone runs hit the edges the random walk rarely does: every
    /// insert lands at the very end (or the very start) of the chunk
    /// list, every remove empties it from one side.
    #[test]
    fn agrees_with_btreeset_on_monotone_runs() {
        let mut set = RankedSet::default();
        let mut model = BTreeSet::new();
        for x in (0..300u32).chain((300..600).rev()) {
            assert!(set.insert(x) && model.insert(x));
        }
        check(&set, &model);
        assert!(set.chunks.len() > 8, "600 elements must span many chunks");
        for x in (0..250u32).chain((350..600).rev()) {
            assert!(set.remove(&x) && model.remove(&x));
            if x % 25 == 0 {
                check(&set, &model);
            }
        }
        check(&set, &model);
        assert!(!set.remove(&9_999), "above every element");
        assert!(!set.remove(&0), "below every element");
    }
}
