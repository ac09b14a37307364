//! # sbs-bulk — the bulk-value plane's substrate
//!
//! The paper's registers replicate every write's *full* value to all
//! `n ≥ 8t + 1` servers, so payload traffic and server memory scale with
//! `n` even though only the timestamp/metadata quorum needs that width.
//! Following Cachin–Dobre–Vukolić ("Asynchronous BFT Storage with 2t+1
//! Data Replicas") and PoWerStore, the bulk payload only ever needs
//! **2t + 1 data replicas**, provided the metadata carried through the
//! full quorum pins the payload by content address.
//!
//! This crate is the protocol-independent substrate of that split:
//!
//! - [`BulkDigest`] / [`digest_of`] — a 256-bit wide FNV-1a content
//!   address (in-repo, offline-friendly; see the module docs for the
//!   adversary model it is sound against).
//! - [`BulkRef`] — the fixed-size `(digest, len)` pair the metadata
//!   quorum carries in place of the value.
//! - [`BulkCodec`] — deterministic byte serialization, so the same
//!   logical value always hashes to the same address.
//! - [`encode_fragments`] / [`reconstruct`] + [`merkle_root`] /
//!   [`merkle_proof`] / [`verify_fragment`] — systematic `k`-of-`m`
//!   erasure coding over GF(2⁸) and the Merkle-style fragment commitment
//!   (AVID / PoWerStore dispersal).
//! - [`FragmentStore`] — a per-replica fragment store that **replays the
//!   commitment before storing**, making fabricated fragments unstorable,
//!   retains each key's last [`RETAINED_PER_KEY`] values, and lets
//!   anti-entropy gossip walk that per-key retention map from a cursor
//!   holder ([`FragmentStore::holders_after`]) instead of the store.
//! - [`data_replica_slots`] / [`ReplicaWindow`] — the deterministic
//!   per-shard choice of data replicas out of the `n` servers.
//!
//! The store layer (`sbs-store`) composes these into a two-plane put/get
//! path: one coded fragment of each value to each of the `2t + 1` data
//! replicas, the [`BulkRef`] through the unmodified register metadata
//! quorum, and commitment verification on every fetch so a Byzantine data
//! replica serving garbage bytes is detected and routed around.
//!
//! Whole-copy replication — Cachin–Dobre–Vukolić's `2t + 1` replicas,
//! `t + 1` acknowledgements, any one verified reply resolves a read — is
//! the same dispersal with `k = 1`: a one-stripe Reed–Solomon code makes
//! every fragment a copy of the value, the push quorum `k + t` is `t + 1`,
//! and one verified fragment reconstructs. There is no second data path
//! for it; it pays only an `m`-leaf commitment and a `⌈log₂ m⌉`-digest
//! proof per copy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blob;
mod codec;
mod coding;
mod digest;
mod placement;

pub use blob::{FragmentStore, Holder, PutOutcome, SharedBytes, StoredFragment, RETAINED_PER_KEY};
pub use codec::{get_bytes, get_u32, get_u64, put_bytes, put_u32, put_u64, BulkCodec};
pub use coding::{
    encode_fragments, fragment_leaves, fragment_len, merkle_proof, merkle_root, reconstruct,
    verify_fragment, MerkleTree,
};
pub use digest::{digest_of, BulkDigest, BulkRef};
pub use placement::{coded_push_quorum, data_replica_count, data_replica_slots, ReplicaWindow};
