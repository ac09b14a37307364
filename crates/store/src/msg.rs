//! The store's wire envelope and client-visible completions.
//!
//! Store nodes speak [`StoreMsg`], which multiplexes **two planes** over
//! the same links:
//!
//! - **Metadata plane** ([`StoreMsg::Batch`]) — a batch of shard-tagged
//!   register messages bound for one destination. Every protocol message
//!   already carries its [`RegId`](sbs_core::RegId) (the shard tag), so
//!   the envelope adds only the batching dimension: all messages one
//!   handler execution emits toward the same peer travel as a single
//!   simulator delivery event. A server answering a read sends
//!   `SS_ACK` + `ACK_READ` as one event instead of two.
//! - **Bulk data plane** (`BulkPut` / `BulkPutAck` / `BulkGet` /
//!   `BulkGetAck`, plus the fragment-carrying `FragPut` / `FragPutAck` /
//!   `FragGetAck` of the erasure-coded mode) — content-addressed payload
//!   bytes between clients and the shard's `2t + 1` data replicas — one
//!   encoded *value* per transfer, never a whole shard. These never touch
//!   the register state machines; the register only ever sees each key's
//!   fixed-size [`ValueRef`](crate::ValueRef) inside its payload. Under
//!   the coded mode each replica receives **one** `k`-of-`m` fragment
//!   with its Merkle path against the commitment root, and `BulkGet` (by
//!   root) is answered with `FragGetAck`. Every transfer that makes a
//!   replica *retain* something names the key slot it is retained under
//!   (see [`Holder`](sbs_bulk::Holder)): pushes, fetches (whose misses
//!   trigger repairs), and the repair plane.
//!
//! The metrics layer splits byte counts by plane
//! ([`Message::is_bulk`]), which is how the bulk/full traffic comparison
//! in `bulk_vs_full` is measured.

use sbs_bulk::{BulkDigest, SharedBytes};
use sbs_core::{Payload, RegMsg};
use sbs_sim::{Message, OpId};

/// One anti-entropy summary entry: `(holder shard, key slot, digest or
/// commitment root)`.
pub type Holding = (u32, u32, BulkDigest);

/// One store-layer delivery: a metadata batch or a bulk-plane transfer.
#[derive(Clone, Debug)]
pub enum StoreMsg<P> {
    /// A batch of register-protocol messages for one destination,
    /// delivered as one event. Order within the batch is send order,
    /// preserving the FIFO reasoning of the underlying protocol (a
    /// server's `SS_ACK` still precedes the protocol acknowledgement it
    /// anchors).
    Batch(Vec<RegMsg<P>>),
    /// Client → data replica: store `bytes` under `digest`, retained by
    /// key slot `slot` of `shard`. A correct replica verifies the digest
    /// before storing and acknowledging.
    BulkPut {
        /// The shard of the key whose value these bytes encode.
        shard: u32,
        /// The key's slot in the shard.
        slot: u32,
        /// The announced content address.
        digest: BulkDigest,
        /// The encoded value, shared zero-copy: the fan-out to every data
        /// replica and any ack-wait retransmission clone a reference
        /// count, not the payload.
        bytes: SharedBytes,
    },
    /// Data replica → client: `digest` is held (verified).
    BulkPutAck {
        /// The shard of the acknowledged blob.
        shard: u32,
        /// The held content address.
        digest: BulkDigest,
    },
    /// Client → data replica: send the bytes stored under `digest`.
    BulkGet {
        /// The shard being resolved.
        shard: u32,
        /// The slot of the key being resolved — the slot a healing
        /// replica that misses the digest repairs it under.
        slot: u32,
        /// The content address from the metadata register.
        digest: BulkDigest,
        /// Round tag: replies carrying a stale tag are ignored.
        tag: u64,
    },
    /// Data replica → client: the requested bytes, or `None` if the
    /// replica does not hold the digest (yet). The **client** re-verifies
    /// the digest — a Byzantine replica can put anything here.
    BulkGetAck {
        /// The shard being resolved.
        shard: u32,
        /// The requested content address.
        digest: BulkDigest,
        /// The round tag of the request this answers.
        tag: u64,
        /// The replica's bytes for the digest, if held — shared with the
        /// replica's blob store (serving costs a refcount bump).
        bytes: Option<SharedBytes>,
    },
    /// Client → data replica (coded mode): store one `k`-of-`m` fragment
    /// of the dispersal committed to by `root`. A correct replica replays
    /// the Merkle path before storing and acknowledging, so fabricated
    /// fragments are unstorable — the coded analogue of the `BulkPut`
    /// digest check.
    FragPut {
        /// The shard of the key whose value this dispersal encodes.
        shard: u32,
        /// The key's slot in the shard.
        slot: u32,
        /// The fragment-set commitment root (the `BulkRef` digest).
        root: BulkDigest,
        /// This fragment's index in `0..total`.
        index: u32,
        /// Total fragments in the dispersal (`m` — the replica window).
        total: u32,
        /// The fragment bytes, shared zero-copy with the sender's
        /// dispersal buffer and any ack-wait retransmission.
        bytes: SharedBytes,
        /// The Merkle path binding `(index, bytes)` to `root`.
        proof: Vec<BulkDigest>,
    },
    /// Data replica → client: fragment `index` of `root` is held
    /// (verified against the commitment).
    FragPutAck {
        /// The shard of the acknowledged fragment.
        shard: u32,
        /// The held commitment root.
        root: BulkDigest,
        /// The acknowledged fragment index.
        index: u32,
    },
    /// Data replica → client (coded mode): the replica's fragment of the
    /// requested root, with the Merkle path the **client** re-verifies
    /// before counting it toward reconstruction — a Byzantine replica
    /// can garble any of these fields.
    FragGetAck {
        /// The shard being resolved.
        shard: u32,
        /// The requested commitment root.
        root: BulkDigest,
        /// The round tag of the request this answers.
        tag: u64,
        /// `(index, bytes, proof)` of the held fragment — shared with
        /// the replica's fragment store (serving costs a refcount bump).
        frag: Option<(u32, SharedBytes, Vec<BulkDigest>)>,
    },
    /// Data replica → data replica (self-healing): send whatever you
    /// hold under `digest` for `shard` — the whole blob (whole-copy
    /// bulk) or your own verified fragment (coded). Issued by a replica
    /// that detected a missing/corrupt entry for a digest it should
    /// serve; guarded like every other bulk-plane request, so replicas
    /// outside the shard's window refuse it.
    RepairRequest {
        /// The shard whose window the requester repairs.
        shard: u32,
        /// The key slot the repaired entry is retained under, echoed in
        /// the reply.
        slot: u32,
        /// The content address (blob digest or commitment root).
        digest: BulkDigest,
    },
    /// Data replica → data replica: a peer's holdings for a
    /// [`StoreMsg::RepairRequest`]. At most one of `bytes` / `frag` is
    /// set; both `None` is a miss. The **requester** re-verifies
    /// everything against `digest` before storing — a Byzantine peer can
    /// garble any of these fields.
    RepairReply {
        /// The shard being repaired.
        shard: u32,
        /// The key slot of the request this answers.
        slot: u32,
        /// The requested content address.
        digest: BulkDigest,
        /// The peer's whole blob for the digest, if held (whole-copy
        /// bulk) — shared with the peer's blob store.
        bytes: Option<SharedBytes>,
        /// `(index, bytes, proof)` of the peer's fragment of the root,
        /// if held (coded) — shared with the peer's fragment store.
        frag: Option<(u32, SharedBytes, Vec<BulkDigest>)>,
    },
    /// Data replica → data replica (anti-entropy): a bounded summary of
    /// `(shard, slot, digest)` holdings the sender retains. The receiver
    /// pulls — via [`StoreMsg::RepairRequest`] — whatever it should hold
    /// for its own window positions but does not, and retains it under
    /// the announced slot. The bound is enforced on receipt: a summary
    /// longer than one gossip batch (32 entries), or from a sender that
    /// is not a fleet server, is refused whole.
    DigestSummary {
        /// [`Holding`]s, bounded per round.
        entries: Vec<Holding>,
    },
}

impl<P: Payload> Message for StoreMsg<P> {
    fn label(&self) -> &'static str {
        match self {
            StoreMsg::Batch(_) => "BATCH",
            StoreMsg::BulkPut { .. } => "BULK_PUT",
            StoreMsg::BulkPutAck { .. } => "BULK_PUT_ACK",
            StoreMsg::BulkGet { .. } => "BULK_GET",
            StoreMsg::BulkGetAck { .. } => "BULK_GET_ACK",
            StoreMsg::FragPut { .. } => "FRAG_PUT",
            StoreMsg::FragPutAck { .. } => "FRAG_PUT_ACK",
            StoreMsg::FragGetAck { .. } => "FRAG_GET_ACK",
            StoreMsg::RepairRequest { .. } => "REPAIR_REQ",
            StoreMsg::RepairReply { .. } => "REPAIR_REPLY",
            StoreMsg::DigestSummary { .. } => "DIGEST_SUMMARY",
        }
    }

    fn wire_bytes(&self) -> u64 {
        // shard (4) [+ slot (4)] + digest (32) [+ len/tag (8)] headers
        // for the bulk plane; fragment messages add index/total (4 each)
        // and 32 bytes per Merkle path element; the metadata plane sums
        // its inner protocol messages.
        match self {
            StoreMsg::Batch(batch) => batch.iter().map(RegMsg::wire_size).sum(),
            StoreMsg::BulkPut { bytes, .. } => 48 + bytes.len() as u64,
            StoreMsg::BulkPutAck { .. } => 36,
            StoreMsg::BulkGet { .. } => 48,
            StoreMsg::BulkGetAck { bytes, .. } => 45 + bytes.as_ref().map_or(0, |b| b.len() as u64),
            StoreMsg::FragPut { bytes, proof, .. } => {
                56 + bytes.len() as u64 + 32 * proof.len() as u64
            }
            StoreMsg::FragPutAck { .. } => 40,
            StoreMsg::FragGetAck { frag, .. } => {
                45 + frag
                    .as_ref()
                    .map_or(0, |(_, b, p)| 4 + b.len() as u64 + 32 * p.len() as u64)
            }
            StoreMsg::RepairRequest { .. } => 40,
            // shard (4) + slot (4) + digest (32) + two presence flags; the blob arm
            // carries a length prefix (8) so the fragment arm can follow
            // it in one frame, the fragment arm mirrors `FragGetAck`'s
            // option plus its own length prefix.
            StoreMsg::RepairReply { bytes, frag, .. } => {
                42 + bytes.as_ref().map_or(0, |b| 8 + b.len() as u64)
                    + frag
                        .as_ref()
                        .map_or(0, |(_, b, p)| 12 + b.len() as u64 + 32 * p.len() as u64)
            }
            // entry count (4) + shard (4) + slot (4) + digest (32) per
            // entry.
            StoreMsg::DigestSummary { entries } => 4 + 40 * entries.len() as u64,
        }
    }

    fn is_bulk(&self) -> bool {
        !matches!(self, StoreMsg::Batch(_))
    }
}

/// Client-visible store operation completions, plus the control-plane
/// events a live reshard emits (none of which correspond to a workload
/// operation — harnesses route them to the reshard orchestrator, never to
/// the consistency monitor or the op log).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreOut<V> {
    /// A `put` finished.
    PutDone {
        /// The operation, as assigned at invocation.
        op: OpId,
    },
    /// A `get` finished. `None` means the key was absent (never written on
    /// this shard).
    GetDone {
        /// The operation, as assigned at invocation.
        op: OpId,
        /// The value found, if any.
        value: Option<V>,
    },
    /// A retiring owner drained its last queued `put` on this shard and
    /// dropped ownership — it now refuses further puts there. Ends the
    /// old-owner half of the dual-commit window.
    ShardRetired {
        /// The shard whose ownership was released.
        shard: u32,
    },
    /// The reshard coordinator's routing-register write committed through
    /// the metadata quorum: the epoch flip is now observable by readers.
    EpochCommitted {
        /// The committed epoch counter.
        epoch: u64,
    },
    /// The new owner adopted the shard — it read the old owner's last
    /// committed snapshot through the quorum, resynced its write stamper,
    /// republished, and flushed any puts staged during the handoff.
    ShardAcquired {
        /// The shard whose ownership was adopted.
        shard: u32,
    },
}

impl<V> StoreOut<V> {
    /// The completed operation's id, or `None` for reshard control events
    /// (which carry no workload operation).
    pub fn op(&self) -> Option<OpId> {
        match self {
            StoreOut::PutDone { op } | StoreOut::GetDone { op, .. } => Some(*op),
            StoreOut::ShardRetired { .. }
            | StoreOut::EpochCommitted { .. }
            | StoreOut::ShardAcquired { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_bulk::digest_of;
    use sbs_core::RegId;

    #[test]
    fn batch_label_and_out_op() {
        let m: StoreMsg<u64> = StoreMsg::Batch(vec![
            RegMsg::SsAck { tag: 1 },
            RegMsg::AckRead {
                reg: RegId(0),
                last: 5,
                helping: None,
            },
        ]);
        assert_eq!(m.label(), "BATCH");
        assert!(!m.is_bulk());
        assert_eq!(StoreOut::<u64>::PutDone { op: OpId(7) }.op(), Some(OpId(7)));
        assert_eq!(
            StoreOut::GetDone {
                op: OpId(8),
                value: Some(1u64)
            }
            .op(),
            Some(OpId(8))
        );
        assert_eq!(StoreOut::<u64>::ShardRetired { shard: 3 }.op(), None);
        assert_eq!(StoreOut::<u64>::EpochCommitted { epoch: 1 }.op(), None);
        assert_eq!(StoreOut::<u64>::ShardAcquired { shard: 3 }.op(), None);
    }

    #[test]
    fn bulk_variants_are_bulk_plane_and_sized() {
        let bytes = vec![0u8; 100];
        let digest = digest_of(&bytes);
        let put: StoreMsg<u64> = StoreMsg::BulkPut {
            shard: 0,
            slot: 2,
            digest,
            bytes: bytes.into(),
        };
        assert_eq!(put.label(), "BULK_PUT");
        assert!(put.is_bulk());
        // shard(4) + slot(4) + digest(32) + len prefix(8) + bytes.
        assert_eq!(put.wire_bytes(), 148);
        let get: StoreMsg<u64> = StoreMsg::BulkGet {
            shard: 0,
            slot: 2,
            digest,
            tag: 1,
        };
        assert_eq!(get.wire_bytes(), 48);
        let miss: StoreMsg<u64> = StoreMsg::BulkGetAck {
            shard: 0,
            digest,
            tag: 1,
            bytes: None,
        };
        assert_eq!(miss.wire_bytes(), 45);
        let batch: StoreMsg<u64> = StoreMsg::Batch(vec![RegMsg::SsAck { tag: 1 }]);
        assert_eq!(batch.wire_bytes(), 16);
    }

    #[test]
    fn fragment_variants_are_bulk_plane_and_sized() {
        let bytes: sbs_bulk::SharedBytes = vec![0u8; 50].into();
        let root = digest_of(&bytes);
        let put: StoreMsg<u64> = StoreMsg::FragPut {
            shard: 0,
            slot: 1,
            root,
            index: 1,
            total: 3,
            bytes: bytes.clone(),
            proof: vec![root, root],
        };
        assert_eq!(put.label(), "FRAG_PUT");
        assert!(put.is_bulk());
        // shard(4) + slot(4) + root(32) + index(4) + total(4) + len
        // prefix(8).
        assert_eq!(put.wire_bytes(), 56 + 50 + 64);
        let ack: StoreMsg<u64> = StoreMsg::FragPutAck {
            shard: 0,
            root,
            index: 1,
        };
        assert_eq!(ack.wire_bytes(), 40);
        assert!(ack.is_bulk());
        let served: StoreMsg<u64> = StoreMsg::FragGetAck {
            shard: 0,
            root,
            tag: 9,
            frag: Some((1, bytes, vec![root])),
        };
        assert_eq!(served.label(), "FRAG_GET_ACK");
        assert_eq!(served.wire_bytes(), 45 + 4 + 50 + 32);
        let miss: StoreMsg<u64> = StoreMsg::FragGetAck {
            shard: 0,
            root,
            tag: 9,
            frag: None,
        };
        assert_eq!(miss.wire_bytes(), 45);
    }

    #[test]
    fn repair_variants_are_bulk_plane_and_sized() {
        let bytes: sbs_bulk::SharedBytes = vec![0u8; 50].into();
        let digest = digest_of(&bytes);
        let req: StoreMsg<u64> = StoreMsg::RepairRequest {
            shard: 2,
            slot: 7,
            digest,
        };
        assert_eq!(req.label(), "REPAIR_REQ");
        assert!(req.is_bulk());
        assert_eq!(req.wire_bytes(), 40);
        let miss: StoreMsg<u64> = StoreMsg::RepairReply {
            shard: 2,
            slot: 7,
            digest,
            bytes: None,
            frag: None,
        };
        assert_eq!(miss.label(), "REPAIR_REPLY");
        assert!(miss.is_bulk());
        assert_eq!(miss.wire_bytes(), 42);
        let blob: StoreMsg<u64> = StoreMsg::RepairReply {
            shard: 2,
            slot: 7,
            digest,
            bytes: Some(bytes.clone()),
            frag: None,
        };
        assert_eq!(blob.wire_bytes(), 42 + 8 + 50);
        let frag: StoreMsg<u64> = StoreMsg::RepairReply {
            shard: 2,
            slot: 7,
            digest,
            bytes: None,
            frag: Some((1, bytes, vec![digest, digest])),
        };
        assert_eq!(frag.wire_bytes(), 42 + 12 + 50 + 64);
        let summary: StoreMsg<u64> = StoreMsg::DigestSummary {
            entries: vec![(0, 1, digest), (3, 0, digest)],
        };
        assert_eq!(summary.label(), "DIGEST_SUMMARY");
        assert!(summary.is_bulk());
        assert_eq!(summary.wire_bytes(), 4 + 80);
    }
}
