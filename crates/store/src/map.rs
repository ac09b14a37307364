//! The per-shard register payload: a small ordered key→entry map.
//!
//! A shard's register stores the *whole* shard, not a single key. The
//! shard's unique writer (SWMR rule, see [`KeyRouter`]) keeps the
//! authoritative copy locally and publishes a full snapshot per `put`, so
//! a read of the register is simultaneously a read of every key in the
//! shard — per-key atomicity then falls out of register atomicity by
//! projection.
//!
//! What the snapshot holds depends on the data plane. Under full
//! replication it is the map of *values* itself, so every `put` ships
//! every value of the shard to all `n` servers. On the bulk plane it is
//! the map of *references* ([`RefMap`]: key → slot and
//! [`BulkRef`](sbs_bulk::BulkRef)): a `put` disperses its one value to
//! the data replicas and then publishes the reference map with the key
//! pointing at it, and a `get` projects its key's reference out of the
//! register snapshot and fetches that one value. Projection works the
//! same way — the register value is still the whole shard, only of
//! references — and values are immutable and content-addressed, so a
//! reference read atomically pins the value the read returns.
//!
//! "Unique writer" is an *epoch-scoped* claim: under a live reshard (see
//! [`RoutingTable`]) the map changes hands — the retiring owner drains
//! its queue and drops its copy, and the acquiring owner adopts the map
//! wholesale from a quorum read of the very register it is about to
//! write. The snapshot-per-`put` discipline is what makes that adoption
//! sound: the register value *is* the full map (of values, or of
//! references to values the data replicas hold), so the new owner needs
//! nothing from the old one beyond what the fleet already stores.
//!
//! [`KeyRouter`]: crate::KeyRouter
//! [`RoutingTable`]: crate::RoutingTable
//! [`RefMap`]: crate::RefMap

use sbs_bulk::{get_u32, put_u32, BulkCodec};
use sbs_core::Payload;
use sbs_sim::DetRng;
use std::fmt;

/// An ordered map of the keys living in one shard — to their values, or
/// to [`ValueRef`](crate::ValueRef)s on the bulk plane. Entries are kept
/// sorted by key so equality — which the quorum predicates count — is
/// canonical.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardMap<V> {
    entries: Vec<(String, V)>,
}

impl<V: Payload> ShardMap<V> {
    /// The empty map (every shard's initial register value).
    pub fn new() -> Self {
        ShardMap {
            entries: Vec::new(),
        }
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Inserts or overwrites `key`.
    pub fn insert(&mut self, key: &str, val: V) {
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.entries[i].1 = val,
            Err(i) => self.entries.insert(i, (key.to_string(), val)),
        }
    }

    /// Removes `key`, returning its entry if it was present.
    pub fn remove(&mut self, key: &str) -> Option<V> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.entries.remove(i).1)
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no key is present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, sorted by key.
    pub fn entries(&self) -> &[(String, V)] {
        &self.entries
    }
}

impl<V: fmt::Debug> fmt::Debug for ShardMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (k, v) in &self.entries {
            m.entry(k, v);
        }
        m.finish()
    }
}

impl<V: Payload> Payload for ShardMap<V> {
    /// Transient fault: entries may vanish and surviving values become
    /// arbitrary. Keys stay structurally valid (sorted, unique) — the
    /// corruption model scrambles variable *contents*, not the type.
    fn scramble(&mut self, rng: &mut DetRng) {
        self.entries.retain(|_| rng.chance(0.8));
        for (_, v) in &mut self.entries {
            v.scramble(rng);
        }
    }

    fn wire_size(&self) -> u64 {
        4 + self
            .entries
            .iter()
            .map(|(k, v)| 4 + k.len() as u64 + v.wire_size())
            .sum::<u64>()
    }
}

impl<V: Payload + BulkCodec> BulkCodec for ShardMap<V> {
    /// Canonical encoding: entry count, then `(key, value)` pairs in key
    /// order. Because [`ShardMap::insert`] keeps entries sorted, equal
    /// maps always encode to equal bytes — the property content
    /// addressing stands on.
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.entries.len() as u32);
        for (k, v) in &self.entries {
            k.encode_into(out);
            v.encode_into(out);
        }
    }

    fn decode_from(buf: &mut &[u8]) -> Option<Self> {
        let n = get_u32(buf)? as usize;
        let mut entries = Vec::new();
        for _ in 0..n {
            let k = String::decode_from(buf)?;
            let v = V::decode_from(buf)?;
            // Enforce the sorted-unique invariant: a blob that decodes but
            // violates it is malformed, not a valid map.
            if let Some((prev, _)) = entries.last() {
                if *prev >= k {
                    return None;
                }
            }
            entries.push((k, v));
        }
        Some(ShardMap { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut m: ShardMap<u64> = ShardMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get("a"), None);
        m.insert("b", 2);
        m.insert("a", 1);
        m.insert("c", 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get("a"), Some(&1));
        m.insert("a", 9);
        assert_eq!(m.get("a"), Some(&9));
        assert_eq!(m.len(), 3);
        assert_eq!(m.remove("b"), Some(2));
        assert_eq!(m.remove("b"), None);
        assert_eq!(m.get("b"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn entries_stay_sorted_so_equality_is_canonical() {
        let mut x: ShardMap<u64> = ShardMap::new();
        x.insert("b", 2);
        x.insert("a", 1);
        let mut y: ShardMap<u64> = ShardMap::new();
        y.insert("a", 1);
        y.insert("b", 2);
        assert_eq!(x, y);
        assert!(x.entries().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn codec_round_trips_and_is_canonical() {
        let mut m: ShardMap<u64> = ShardMap::new();
        m.insert("b", 2);
        m.insert("a", 1);
        let bytes = m.encode_to_vec();
        assert_eq!(ShardMap::<u64>::decode_all(&bytes), Some(m.clone()));
        // Insertion order must not matter: equal maps, equal bytes.
        let mut n: ShardMap<u64> = ShardMap::new();
        n.insert("a", 1);
        n.insert("b", 2);
        assert_eq!(bytes, n.encode_to_vec());
        // Estimated wire size tracks content.
        assert_eq!(Payload::wire_size(&m), 4 + (4 + 1 + 8) * 2);
    }

    #[test]
    fn unsorted_or_truncated_blobs_do_not_decode() {
        let mut m: ShardMap<u64> = ShardMap::new();
        m.insert("a", 1);
        m.insert("b", 2);
        let bytes = m.encode_to_vec();
        assert_eq!(ShardMap::<u64>::decode_all(&bytes[..bytes.len() - 1]), None);
        // Hand-craft an out-of-order encoding: count 2, entries "b" then
        // "a" — must be rejected as malformed.
        let mut bad = Vec::new();
        sbs_bulk::put_u32(&mut bad, 2);
        String::from("b").encode_into(&mut bad);
        2u64.encode_into(&mut bad);
        String::from("a").encode_into(&mut bad);
        1u64.encode_into(&mut bad);
        assert_eq!(ShardMap::<u64>::decode_all(&bad), None);
    }

    #[test]
    fn scramble_keeps_structure() {
        let mut rng = DetRng::from_seed(4);
        let mut m: ShardMap<u64> = ShardMap::new();
        for i in 0..10 {
            m.insert(&format!("k{i}"), i);
        }
        let before = m.clone();
        m.scramble(&mut rng);
        assert!(m.entries().windows(2).all(|w| w[0].0 < w[1].0));
        assert_ne!(m, before, "deterministic seed: contents must change");
    }
}
