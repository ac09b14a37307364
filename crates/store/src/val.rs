//! The register-visible shard value — the whole map of values inline
//! (full replication) or the map of references to values that live on
//! the data replicas (bulk plane) — plus a synthetic sized value for
//! payload-size sweeps.

use crate::map::ShardMap;
use sbs_bulk::{get_u32, get_u64, put_u32, put_u64, BulkCodec, BulkDigest, BulkRef};
use sbs_core::Payload;
use sbs_sim::DetRng;
use std::fmt;
use std::sync::Arc;

/// Key slots per shard on the bulk plane. A shard's writer gives each
/// key the lowest slot no other key of the shard holds, and data replicas
/// retain values per `(shard, slot)` — so two live keys of one shard
/// never share retention state. The server-side guard refuses slots at or
/// above this bound, which caps the retention state a forger can make a
/// replica keep; it is also the bulk plane's capacity in keys per shard.
pub const KEY_SLOTS: u32 = 1 << 16;

/// Where one key's current value lives on the bulk plane: the key's
/// slot in its shard and the value's [`BulkRef`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueRef {
    /// The key's writer-assigned slot in its shard (below
    /// [`KEY_SLOTS`]): the holder slot data replicas retain the value
    /// under.
    pub slot: u32,
    /// The Merkle commitment root of the encoded value's fragment set,
    /// with the value's length.
    pub bref: BulkRef,
}

impl fmt::Debug for ValueRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}:{:?}", self.slot, self.bref)
    }
}

impl Payload for ValueRef {
    /// Transient fault: the slot and the reference become arbitrary —
    /// almost surely pinning nothing, which the fetch path (and a writer
    /// adopting the map) must survive.
    fn scramble(&mut self, rng: &mut DetRng) {
        self.slot = rng.next_u64() as u32;
        self.bref.scramble(rng);
    }

    fn wire_size(&self) -> u64 {
        4 + BulkRef::WIRE_SIZE
    }
}

impl BulkCodec for ValueRef {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.slot);
        for lane in self.bref.digest.0 {
            put_u64(out, lane);
        }
        put_u64(out, self.bref.len);
    }

    fn decode_from(buf: &mut &[u8]) -> Option<Self> {
        let slot = get_u32(buf)?;
        let mut lanes = [0u64; 4];
        for lane in &mut lanes {
            *lane = get_u64(buf)?;
        }
        let len = get_u64(buf)?;
        Some(ValueRef {
            slot,
            bref: BulkRef {
                digest: BulkDigest(lanes),
                len,
            },
        })
    }
}

/// A bulk-plane shard's register value: every key's [`ValueRef`].
pub type RefMap = ShardMap<ValueRef>;

/// What a shard's metadata register stores.
///
/// Under **full replication** every write carries the whole
/// [`ShardMap`] of values inline, so payload traffic scales with the
/// fleet size `n`. Under the **bulk plane** every write carries the
/// shard's [`RefMap`] inline — one 44-byte [`ValueRef`] per key — and
/// each value's bytes live on the shard's `2t + 1` data replicas, so a
/// `put` disperses one value and a `get` fetches one value. Both flow
/// through the *unmodified* register state machines: to the protocol this
/// is just an opaque, comparable payload, and because the register value
/// is still the whole shard, per-key atomicity holds by projection on
/// every plane.
///
/// The inline maps are held behind an [`Arc`]: the writer snapshots its
/// authoritative map **once** per publish, and every hop that used to
/// deep-clone it — the per-server broadcast fan-out, retransmissions,
/// server `last_val`/helping copies, duplicate deliveries — now shares
/// that one allocation. Comparison, ordering, and hashing go through the
/// pointee, so quorum predicates count identical *values* exactly as
/// before; Byzantine/transient mutation paths copy-on-write via
/// [`Arc::make_mut`], so garbling one in-flight copy can never reach the
/// writer's (or another message's) snapshot.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StoreVal<V> {
    /// The shard map of values, replicated in full through the metadata
    /// quorum — one shared allocation per published snapshot.
    Inline(Arc<ShardMap<V>>),
    /// A bare content-addressed reference. No writer publishes one: it is
    /// the shape a transiently corrupted cell may take — a claim to pin
    /// bytes that exist nowhere — and every reader answers it with a
    /// metadata re-read.
    Ref(BulkRef),
    /// The bulk plane's shard value: every key's reference, inline — one
    /// shared allocation per published snapshot, like `Inline`.
    Refs(Arc<RefMap>),
}

impl<V: Payload> StoreVal<V> {
    /// The empty inline map — every shard's initial register value on
    /// *every* plane (a bulk-plane reader takes it for the empty
    /// reference map), so reading a never-written shard needs no bulk
    /// fetch.
    pub fn empty() -> Self {
        StoreVal::Inline(Arc::new(ShardMap::new()))
    }
}

impl<V: fmt::Debug> fmt::Debug for StoreVal<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreVal::Inline(m) => write!(f, "Inline({m:?})"),
            StoreVal::Ref(r) => write!(f, "Ref({r:?})"),
            StoreVal::Refs(m) => write!(f, "Refs({m:?})"),
        }
    }
}

impl<V: Payload> Payload for StoreVal<V> {
    /// Transient fault: contents scramble, and occasionally the *variant*
    /// flips — a corrupted or fabricated register cell may claim to be a
    /// reference to bytes that exist nowhere (every reader must survive
    /// that), or collapse to an empty inline map. Scrambling an inline
    /// map is copy-on-write: the corrupted copy detaches from the shared
    /// snapshot instead of mutating it under every other holder.
    fn scramble(&mut self, rng: &mut DetRng) {
        if rng.chance(0.25) {
            *self = match self {
                StoreVal::Inline(_) => {
                    let mut r = BulkRef::to_bytes(&[]);
                    r.scramble(rng);
                    StoreVal::Ref(r)
                }
                StoreVal::Ref(_) | StoreVal::Refs(_) => StoreVal::Inline(Arc::new(ShardMap::new())),
            };
            return;
        }
        match self {
            StoreVal::Inline(m) => Arc::make_mut(m).scramble(rng),
            StoreVal::Ref(r) => r.scramble(rng),
            StoreVal::Refs(m) => Arc::make_mut(m).scramble(rng),
        }
    }

    fn wire_size(&self) -> u64 {
        1 + match self {
            StoreVal::Inline(m) => m.wire_size(),
            StoreVal::Ref(r) => Payload::wire_size(r),
            StoreVal::Refs(m) => m.wire_size(),
        }
    }
}

/// A value of tunable serialized size: a unique id plus `len` bytes of
/// deterministic filler, **materialized only when encoded**. Workload
/// sweeps use it to measure byte traffic as a function of payload size
/// without cloning kilobytes through every map snapshot; the checkers
/// only need the id for uniqueness.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SizedVal {
    /// Globally unique id (the checkers' unique-write-value requirement).
    pub id: u64,
    /// Filler bytes appended by the codec.
    pub len: u32,
}

impl SizedVal {
    /// A value of `len` filler bytes identified by `id`.
    pub fn new(id: u64, len: u32) -> Self {
        SizedVal { id, len }
    }

    fn filler_byte(&self, i: u32) -> u8 {
        (self
            .id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64)) as u8
    }
}

impl fmt::Debug for SizedVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}+{}B", self.id, self.len)
    }
}

impl Payload for SizedVal {
    /// Corruption scrambles the identity; the size class is structural.
    fn scramble(&mut self, rng: &mut DetRng) {
        self.id = rng.next_u64();
    }

    fn wire_size(&self) -> u64 {
        12 + self.len as u64
    }
}

impl BulkCodec for SizedVal {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.id);
        put_u32(out, self.len);
        out.extend((0..self.len).map(|i| self.filler_byte(i)));
    }

    fn decode_from(buf: &mut &[u8]) -> Option<Self> {
        let id = get_u64(buf)?;
        let len = get_u32(buf)?;
        if buf.len() < len as usize {
            return None;
        }
        let v = SizedVal { id, len };
        let (filler, rest) = buf.split_at(len as usize);
        // The filler is derived from the id; mismatches mean garbling.
        if filler
            .iter()
            .enumerate()
            .any(|(i, &b)| b != v.filler_byte(i as u32))
        {
            return None;
        }
        *buf = rest;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_val_wire_sizes() {
        let mut m: ShardMap<u64> = ShardMap::new();
        m.insert("k", 5);
        let inline: StoreVal<u64> = StoreVal::Inline(Arc::new(m));
        let r: StoreVal<u64> = StoreVal::Ref(BulkRef::to_bytes(b"bytes"));
        assert!(inline.wire_size() > 1);
        assert_eq!(r.wire_size(), 41);
        assert_eq!(StoreVal::<u64>::empty().wire_size(), 5);
        let mut refs = RefMap::new();
        refs.insert(
            "k",
            ValueRef {
                slot: 3,
                bref: BulkRef::to_bytes(b"v"),
            },
        );
        let refs: StoreVal<u64> = StoreVal::Refs(Arc::new(refs));
        // tag(1) + count(4) + key(4 + 1) + slot(4) + ref(40).
        assert_eq!(refs.wire_size(), 1 + 4 + 5 + 44);
    }

    #[test]
    fn scramble_is_copy_on_write_for_shared_snapshots() {
        let mut m: ShardMap<u64> = ShardMap::new();
        m.insert("k", 1);
        let shared = Arc::new(m);
        let mut rng = DetRng::from_seed(5);
        // Garble many in-flight copies of the same snapshot; the shared
        // allocation (the writer's published value, every other message)
        // must never observe the mutation.
        for _ in 0..32 {
            let mut v: StoreVal<u64> = StoreVal::Inline(shared.clone());
            v.scramble(&mut rng);
        }
        assert_eq!(shared.get("k"), Some(&1), "shared snapshot mutated");
    }

    #[test]
    fn store_val_scramble_flips_variants_eventually() {
        let mut rng = DetRng::from_seed(11);
        let mut v: StoreVal<u64> = StoreVal::empty();
        let mut saw_ref = false;
        for _ in 0..64 {
            v.scramble(&mut rng);
            saw_ref |= matches!(v, StoreVal::Ref(_));
        }
        assert!(saw_ref, "scramble must eventually fabricate a Ref");
    }

    #[test]
    fn sized_val_round_trips_and_detects_garbling() {
        let v = SizedVal::new(7, 100);
        let bytes = v.encode_to_vec();
        assert_eq!(bytes.len() as u64, Payload::wire_size(&v));
        assert_eq!(SizedVal::decode_all(&bytes), Some(v));
        let mut garbled = bytes.clone();
        garbled[20] ^= 0x40;
        assert_eq!(SizedVal::decode_all(&garbled), None);
        assert_eq!(SizedVal::decode_all(&bytes[..50]), None);
        assert_eq!(format!("{v:?}"), "v7+100B");
    }

    #[test]
    fn sized_vals_are_unique_by_id() {
        let a = SizedVal::new(1, 64);
        let b = SizedVal::new(2, 64);
        assert_ne!(a, b);
        assert_ne!(a.encode_to_vec(), b.encode_to_vec());
    }

    #[test]
    fn value_ref_round_trips_and_sizes_exactly() {
        let r = ValueRef {
            slot: 0xABCD,
            bref: BulkRef::to_bytes(b"some value"),
        };
        let bytes = r.encode_to_vec();
        assert_eq!(bytes.len() as u64, Payload::wire_size(&r));
        assert_eq!(ValueRef::decode_all(&bytes), Some(r));
        assert_eq!(ValueRef::decode_all(&bytes[..bytes.len() - 1]), None);
        let mut m = RefMap::new();
        m.insert("b", r);
        m.insert("a", r);
        let bytes = m.encode_to_vec();
        assert_eq!(bytes.len() as u64, Payload::wire_size(&m));
        assert_eq!(RefMap::decode_all(&bytes), Some(m));
    }

    /// Scrambling a reference map is copy-on-write like an inline map,
    /// and its variant flip lands on the empty inline map a bulk reader
    /// takes for "no keys".
    #[test]
    fn refs_scramble_is_copy_on_write_and_flips_to_empty() {
        let mut m = RefMap::new();
        for (i, key) in ["a", "b", "c", "d"].into_iter().enumerate() {
            m.insert(
                key,
                ValueRef {
                    slot: i as u32,
                    bref: BulkRef::to_bytes(key.as_bytes()),
                },
            );
        }
        let shared = Arc::new(m);
        let mut rng = DetRng::from_seed(21);
        let mut flipped = false;
        for _ in 0..64 {
            let mut v: StoreVal<u64> = StoreVal::Refs(shared.clone());
            v.scramble(&mut rng);
            if let StoreVal::Inline(map) = &v {
                assert!(map.is_empty());
                flipped = true;
            }
        }
        assert!(flipped, "the variant flip must eventually fire");
        assert_eq!(shared.len(), 4, "shared snapshot mutated");
        assert_eq!(shared.get("a").map(|r| r.slot), Some(0));
    }
}
