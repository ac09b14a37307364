//! The keyspace router: deterministic hash-sharding of string keys onto
//! register shards, plus the per-shard writer assignment — static
//! ([`KeyRouter`]) and epoch-versioned ([`RoutingTable`]).
//!
//! Every key lives in exactly one **shard**; each shard is one logical
//! register ([`RegId`]) multiplexed over the shared server fleet. Because
//! each shard is an SWMR register (§5.1 of the paper), it has exactly one
//! writer — the router assigns shards to writer clients round-robin, which
//! is what "honoring the SWMR rule" means at the store layer: a `put` is
//! always executed by the owning writer, while any client may `get`.
//!
//! The hash is FNV-1a (64-bit), chosen because it is tiny, dependency-free,
//! and — critically for reproducible experiments — **stable across runs,
//! platforms, and process restarts** (unlike `std`'s randomized `SipHash`).
//!
//! # Live resharding
//!
//! [`RoutingTable`] versions the shard→writer assignment by **epoch**:
//! epoch 0 is bit-identical to the [`KeyRouter`]'s frozen round-robin
//! placement (the compat guarantee `store_checks.rs` pins), and every
//! later epoch is produced by applying a [`ReshardPlan`] — a validated
//! batch of migrate/split/merge ownership moves. The key→shard hash never
//! changes (only *ownership* moves, so no key is ever re-hashed across a
//! flip), and `apply` rejects any plan that would break the exact
//! partition: after every flip each shard still has exactly one owner.
//! The table is harness-owned configuration, outside the fault model:
//! `DeployCore` flips it and tells the old and new owners of each moved
//! shard directly (see `DeployCore::begin_reshard`); no register holds
//! it.

use sbs_core::RegId;

/// 64-bit FNV-1a over arbitrary bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic key → shard → (register, writer) routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyRouter {
    shards: u32,
    writers: u32,
}

impl KeyRouter {
    /// A router over `shards` register shards owned by `writers` writer
    /// clients (round-robin).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(shards: u32, writers: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(writers >= 1, "need at least one writer");
        KeyRouter { shards, writers }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of writer clients.
    pub fn writers(&self) -> u32 {
        self.writers
    }

    /// The shard a key lives in.
    pub fn shard_of(&self, key: &str) -> u32 {
        (fnv1a64(key.as_bytes()) % self.shards as u64) as u32
    }

    /// The logical register backing a shard.
    pub fn reg_of_shard(&self, shard: u32) -> RegId {
        debug_assert!(shard < self.shards);
        RegId(shard)
    }

    /// The logical register a key lives in.
    pub fn reg_of(&self, key: &str) -> RegId {
        self.reg_of_shard(self.shard_of(key))
    }

    /// The writer-client index owning a shard (round-robin assignment; the
    /// SWMR single-writer rule at the store layer).
    pub fn writer_of_shard(&self, shard: u32) -> usize {
        (shard % self.writers) as usize
    }

    /// The writer-client index that must execute a `put` of this key.
    pub fn writer_of(&self, key: &str) -> usize {
        self.writer_of_shard(self.shard_of(key))
    }

    /// All shards owned by writer `w`.
    pub fn shards_of_writer(&self, w: usize) -> Vec<u32> {
        (0..self.shards)
            .filter(|&s| self.writer_of_shard(s) == w)
            .collect()
    }
}

/// A validated batch of ownership moves producing the next routing epoch.
///
/// A plan is a list of `(shard, new_writer)` reassignments. The three
/// classic reshard shapes all lower to per-shard moves:
///
/// * [`ReshardPlan::migrate`] — move one shard to a new writer;
/// * [`ReshardPlan::split_writer`] — offload every other shard of an
///   overloaded writer onto a peer (a "split" of its key range);
/// * [`ReshardPlan::merge_writer`] — fold one writer's shards into
///   another's, draining the source writer entirely.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReshardPlan {
    moves: Vec<(u32, u32)>,
}

impl ReshardPlan {
    /// Plan moving a single shard to writer `to`.
    pub fn migrate(shard: u32, to: u32) -> Self {
        ReshardPlan {
            moves: vec![(shard, to)],
        }
    }

    /// Chain another single-shard move onto this plan.
    pub fn and_migrate(mut self, shard: u32, to: u32) -> Self {
        self.moves.push((shard, to));
        self
    }

    /// Plan splitting writer `w`'s load under `table`: every other shard
    /// currently owned by `w` (the odd-indexed half) moves to writer `to`.
    pub fn split_writer(table: &RoutingTable, w: u32, to: u32) -> Self {
        let moves = table
            .shards_of_writer(w as usize)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, s)| (s, to))
            .collect();
        ReshardPlan { moves }
    }

    /// Plan merging writer `from`'s entire shard set into writer `into`.
    pub fn merge_writer(table: &RoutingTable, from: u32, into: u32) -> Self {
        let moves = table
            .shards_of_writer(from as usize)
            .into_iter()
            .map(|s| (s, into))
            .collect();
        ReshardPlan { moves }
    }

    /// The raw `(shard, new_writer)` reassignments.
    pub fn moves(&self) -> &[(u32, u32)] {
        &self.moves
    }

    /// True if the plan contains no reassignments at all.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Epoch-versioned shard→writer routing.
///
/// Epoch 0 ([`RoutingTable::initial`]) reproduces the static [`KeyRouter`]
/// placement bit for bit: `owners[shard] = shard % writers`. Each call to
/// [`RoutingTable::apply`] validates a [`ReshardPlan`] and produces the
/// next epoch. The key→shard hash is delegated to the embedded
/// [`KeyRouter`] and never changes across epochs — resharding moves
/// *ownership*, never key placement, so no key is orphaned by a flip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingTable {
    base: KeyRouter,
    epoch: u64,
    owners: Vec<u32>,
}

impl RoutingTable {
    /// Epoch 0: bit-identical to `base`'s round-robin writer placement.
    pub fn initial(base: KeyRouter) -> Self {
        let owners = (0..base.shards()).map(|s| s % base.writers()).collect();
        RoutingTable {
            base,
            epoch: 0,
            owners,
        }
    }

    /// The epoch counter of this table.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The embedded static router (key→shard hash + register mapping).
    pub fn base(&self) -> &KeyRouter {
        &self.base
    }

    /// Number of shards (constant across epochs).
    pub fn shards(&self) -> u32 {
        self.base.shards()
    }

    /// Number of writer clients (constant across epochs).
    pub fn writers(&self) -> u32 {
        self.base.writers()
    }

    /// The shard a key lives in (epoch-independent).
    pub fn shard_of(&self, key: &str) -> u32 {
        self.base.shard_of(key)
    }

    /// The writer-client index owning a shard at this epoch.
    pub fn writer_of_shard(&self, shard: u32) -> usize {
        self.owners[shard as usize] as usize
    }

    /// The writer-client index that must execute a `put` of this key at
    /// this epoch.
    pub fn writer_of(&self, key: &str) -> usize {
        self.writer_of_shard(self.shard_of(key))
    }

    /// All shards owned by writer `w` at this epoch.
    pub fn shards_of_writer(&self, w: usize) -> Vec<u32> {
        (0..self.shards())
            .filter(|&s| self.writer_of_shard(s) == w)
            .collect()
    }

    /// Validate `plan` against this epoch and produce the next one.
    ///
    /// Rejects out-of-range shards or writers and duplicate moves of the
    /// same shard; silently drops moves that are no-ops at this epoch
    /// (shard already owned by the target). The result is always an exact
    /// partition — every shard keeps exactly one in-range owner — because
    /// the ownership vector is indexed by shard and only its *values*
    /// change.
    pub fn apply(&self, plan: &ReshardPlan) -> Result<RoutingTable, String> {
        let mut owners = self.owners.clone();
        let mut touched = vec![false; owners.len()];
        for &(shard, to) in plan.moves() {
            if shard >= self.shards() {
                return Err(format!(
                    "reshard plan moves shard {shard} but the table has only {} shards",
                    self.shards()
                ));
            }
            if to >= self.writers() {
                return Err(format!(
                    "reshard plan assigns shard {shard} to writer {to} but only {} writers exist",
                    self.writers()
                ));
            }
            if touched[shard as usize] {
                return Err(format!("reshard plan moves shard {shard} twice"));
            }
            touched[shard as usize] = true;
            owners[shard as usize] = to;
        }
        Ok(RoutingTable {
            base: self.base,
            epoch: self.epoch + 1,
            owners,
        })
    }

    /// The effective ownership moves from this epoch to `next`, as
    /// `(shard, old_writer, new_writer)` triples. No-op plan entries do
    /// not appear.
    pub fn moves_to(&self, next: &RoutingTable) -> Vec<(u32, u32, u32)> {
        assert_eq!(
            self.shards(),
            next.shards(),
            "tables must share a shard count"
        );
        (0..self.shards())
            .filter_map(|s| {
                let (a, b) = (self.owners[s as usize], next.owners[s as usize]);
                (a != b).then_some((s, a, b))
            })
            .collect()
    }

    /// True iff every shard has exactly one in-range owner (the exact
    /// partition invariant the property tests pin).
    pub fn is_exact_partition(&self) -> bool {
        self.owners.len() == self.shards() as usize
            && self.owners.iter().all(|&w| w < self.writers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_answers() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let r = KeyRouter::new(8, 4);
        for i in 0..256 {
            let key = format!("key{i}");
            let s = r.shard_of(&key);
            assert!(s < 8);
            assert_eq!(s, r.shard_of(&key), "same key, same shard");
            assert_eq!(r.reg_of(&key), RegId(s));
            assert_eq!(r.writer_of(&key), (s % 4) as usize);
        }
    }

    #[test]
    fn every_shard_has_exactly_one_writer() {
        let r = KeyRouter::new(8, 3);
        let mut owned = [0usize; 8];
        for w in 0..3 {
            for s in r.shards_of_writer(w) {
                owned[s as usize] += 1;
                assert_eq!(r.writer_of_shard(s), w);
            }
        }
        assert!(owned.iter().all(|&c| c == 1), "partition must be exact");
    }

    #[test]
    fn keys_spread_over_shards() {
        let r = KeyRouter::new(8, 2);
        let mut hit = [false; 8];
        for i in 0..64 {
            hit[r.shard_of(&format!("key{i}")) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 keys must touch all 8 shards");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        KeyRouter::new(0, 1);
    }

    #[test]
    fn epoch_zero_is_bit_identical_to_key_router() {
        for (shards, writers) in [(8, 4), (8, 3), (16, 5), (1, 1), (32, 32)] {
            let r = KeyRouter::new(shards, writers);
            let t = RoutingTable::initial(r);
            assert_eq!(t.epoch(), 0);
            for s in 0..shards {
                assert_eq!(t.writer_of_shard(s), r.writer_of_shard(s));
            }
            for i in 0..128 {
                let key = format!("key{i}");
                assert_eq!(t.shard_of(&key), r.shard_of(&key));
                assert_eq!(t.writer_of(&key), r.writer_of(&key));
            }
        }
    }

    #[test]
    fn apply_migrate_bumps_epoch_and_moves_ownership() {
        let t0 = RoutingTable::initial(KeyRouter::new(8, 4));
        let t1 = t0.apply(&ReshardPlan::migrate(5, 0)).unwrap();
        assert_eq!(t1.epoch(), 1);
        assert_eq!(t1.writer_of_shard(5), 0);
        // All other shards keep their epoch-0 owner.
        for s in (0..8).filter(|&s| s != 5) {
            assert_eq!(t1.writer_of_shard(s), t0.writer_of_shard(s));
        }
        assert_eq!(t0.moves_to(&t1), vec![(5, 1, 0)]);
    }

    #[test]
    fn apply_rejects_bad_plans() {
        let t0 = RoutingTable::initial(KeyRouter::new(8, 4));
        assert!(t0.apply(&ReshardPlan::migrate(8, 0)).is_err(), "shard oob");
        assert!(t0.apply(&ReshardPlan::migrate(0, 4)).is_err(), "writer oob");
        assert!(
            t0.apply(&ReshardPlan::migrate(3, 0).and_migrate(3, 1))
                .is_err(),
            "duplicate shard move"
        );
    }

    #[test]
    fn split_and_merge_lower_to_moves() {
        let t0 = RoutingTable::initial(KeyRouter::new(8, 4));
        // Writer 1 owns shards 1 and 5 at epoch 0; a split offloads the
        // odd-indexed half (shard 5) onto writer 2.
        let split = ReshardPlan::split_writer(&t0, 1, 2);
        assert_eq!(split.moves(), &[(5, 2)]);
        let t1 = t0.apply(&split).unwrap();
        assert_eq!(t1.shards_of_writer(1), vec![1]);
        assert_eq!(t1.shards_of_writer(2), vec![2, 5, 6]);
        // A merge drains writer 1 entirely into writer 0.
        let merge = ReshardPlan::merge_writer(&t1, 1, 0);
        let t2 = t1.apply(&merge).unwrap();
        assert!(t2.shards_of_writer(1).is_empty());
        assert_eq!(t2.shards_of_writer(0), vec![0, 1, 4]);
        assert_eq!(t2.epoch(), 2);
    }

    #[test]
    fn every_epoch_is_an_exact_partition() {
        // Property test: random chains of random (valid) plans never break
        // the exact-partition invariant, and no key is orphaned — its
        // shard always has exactly one in-range owner after every flip.
        let mut state: u64 = 0x5EED_2015;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..64 {
            let shards = 1 + (next() % 24) as u32;
            let writers = 1 + (next() % 8) as u32;
            let mut t = RoutingTable::initial(KeyRouter::new(shards, writers));
            for _ in 0..12 {
                let mut plan = ReshardPlan::default();
                let mut used = std::collections::BTreeSet::new();
                for _ in 0..(next() % 4) {
                    let s = (next() % shards as u64) as u32;
                    if used.insert(s) {
                        plan = plan.and_migrate(s, (next() % writers as u64) as u32);
                    }
                }
                let prev_epoch = t.epoch();
                t = t.apply(&plan).unwrap();
                assert_eq!(t.epoch(), prev_epoch + 1);
                assert!(t.is_exact_partition());
                // Cross-check via shards_of_writer: each shard appears in
                // exactly one writer's set.
                let mut seen = vec![0u32; shards as usize];
                for w in 0..writers as usize {
                    for s in t.shards_of_writer(w) {
                        seen[s as usize] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "each shard exactly one owner");
                // No key orphaned: every key routes to an in-range writer.
                for i in 0..32 {
                    assert!(t.writer_of(&format!("key{i}")) < writers as usize);
                }
            }
        }
    }
}
