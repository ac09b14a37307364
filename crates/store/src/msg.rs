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
//! - **Bulk data plane** (`FragPut` / `FragPutAck` / `BulkGet` /
//!   `FragGetAck`) — one `k`-of-`m` fragment of an encoded *value* (never
//!   a whole shard) with its Merkle path against the commitment root,
//!   between clients and the shard's `2t + 1` data replicas; whole copies
//!   are the `k = 1` fragments. These never touch the register state
//!   machines; the register only ever sees each key's fixed-size
//!   [`ValueRef`](crate::ValueRef) inside its payload. Every transfer that
//!   makes a replica *retain* something names the key slot it is retained
//!   under (see [`Holder`](sbs_bulk::Holder)): pushes, fetches (whose
//!   misses trigger repairs), and the repair plane.
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
    /// Client → data replica: send the fragment stored under `digest`.
    BulkGet {
        /// The shard being resolved.
        shard: u32,
        /// The slot of the key being resolved — the slot a healing
        /// replica that misses the digest repairs it under.
        slot: u32,
        /// The commitment root from the metadata register.
        digest: BulkDigest,
        /// Round tag: replies carrying a stale tag are ignored.
        tag: u64,
    },
    /// Client → data replica: store one `k`-of-`m` fragment of the
    /// dispersal committed to by `root`, retained by key slot `slot` of
    /// `shard`. A correct replica replays the Merkle path before storing
    /// and acknowledging, so fabricated fragments are unstorable.
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
    /// Data replica → client: the replica's fragment of the requested
    /// root, with the Merkle path the **client** re-verifies before
    /// counting it toward reconstruction — a Byzantine replica can garble
    /// any of these fields — or `None` if the replica does not hold the
    /// root (yet).
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
    /// Data replica → data replica (self-healing): send your own verified
    /// fragment of `digest` for `shard`. Issued by a replica that detected
    /// a missing/corrupt entry for a root it should serve; guarded like
    /// every other bulk-plane request, so replicas outside the shard's
    /// window refuse it.
    RepairRequest {
        /// The shard whose window the requester repairs.
        shard: u32,
        /// The key slot the repaired entry is retained under, echoed in
        /// the reply.
        slot: u32,
        /// The commitment root.
        digest: BulkDigest,
    },
    /// Data replica → data replica: a peer's fragment for a
    /// [`StoreMsg::RepairRequest`], `None` on a miss. The **requester**
    /// re-verifies everything against `digest` before storing — a
    /// Byzantine peer can garble any of these fields.
    RepairReply {
        /// The shard being repaired.
        shard: u32,
        /// The key slot of the request this answers.
        slot: u32,
        /// The requested commitment root.
        digest: BulkDigest,
        /// `(index, bytes, proof)` of the peer's fragment of the root,
        /// if held — shared with the peer's fragment store.
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
            StoreMsg::BulkGet { .. } => "BULK_GET",
            StoreMsg::FragPut { .. } => "FRAG_PUT",
            StoreMsg::FragPutAck { .. } => "FRAG_PUT_ACK",
            StoreMsg::FragGetAck { .. } => "FRAG_GET_ACK",
            StoreMsg::RepairRequest { .. } => "REPAIR_REQ",
            StoreMsg::RepairReply { .. } => "REPAIR_REPLY",
            StoreMsg::DigestSummary { .. } => "DIGEST_SUMMARY",
        }
    }

    fn wire_bytes(&self) -> u64 {
        // shard (4) [+ slot (4)] + digest (32) [+ tag (8)] headers for
        // the bulk plane; fragment messages add index/total (4 each) and
        // 32 bytes per Merkle path element; the metadata plane sums its
        // inner protocol messages.
        match self {
            StoreMsg::Batch(batch) => batch.iter().map(RegMsg::wire_size).sum(),
            StoreMsg::BulkGet { .. } => 48,
            StoreMsg::FragPut { bytes, proof, .. } => {
                56 + bytes.len() as u64 + 32 * proof.len() as u64
            }
            StoreMsg::FragPutAck { .. } => 40,
            // shard (4) + digest (32) + tag (8) + the served fragment.
            StoreMsg::FragGetAck { frag, .. } => 44 + served_bytes(frag),
            StoreMsg::RepairRequest { .. } => 40,
            // shard (4) + slot (4) + digest (32) + the served fragment.
            StoreMsg::RepairReply { frag, .. } => 40 + served_bytes(frag),
            // entry count (4) + shard (4) + slot (4) + digest (32) per
            // entry.
            StoreMsg::DigestSummary { entries } => 4 + 40 * entries.len() as u64,
        }
    }

    fn is_bulk(&self) -> bool {
        !matches!(self, StoreMsg::Batch(_))
    }
}

/// Wire size of a served fragment option: a presence flag, and when
/// present its index (4), bytes, and 32 bytes per Merkle path element.
fn served_bytes(frag: &Option<(u32, SharedBytes, Vec<BulkDigest>)>) -> u64 {
    1 + frag
        .as_ref()
        .map_or(0, |(_, b, p)| 4 + b.len() as u64 + 32 * p.len() as u64)
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
    /// old-owner half of the dual-commit window and, once every moved
    /// shard's retire is in, opens the acquire step.
    ShardRetired {
        /// The shard whose ownership was released.
        shard: u32,
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
            StoreOut::ShardRetired { .. } | StoreOut::ShardAcquired { .. } => None,
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
        assert_eq!(StoreOut::<u64>::ShardAcquired { shard: 3 }.op(), None);
    }

    #[test]
    fn bulk_variants_are_bulk_plane_and_sized() {
        let digest = digest_of(&[0u8; 100]);
        let get: StoreMsg<u64> = StoreMsg::BulkGet {
            shard: 0,
            slot: 2,
            digest,
            tag: 1,
        };
        assert_eq!(get.label(), "BULK_GET");
        assert!(get.is_bulk());
        // shard(4) + slot(4) + digest(32) + tag(8).
        assert_eq!(get.wire_bytes(), 48);
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
            frag: None,
        };
        assert_eq!(miss.label(), "REPAIR_REPLY");
        assert!(miss.is_bulk());
        assert_eq!(miss.wire_bytes(), 41);
        let frag: StoreMsg<u64> = StoreMsg::RepairReply {
            shard: 2,
            slot: 7,
            digest,
            frag: Some((1, bytes, vec![digest, digest])),
        };
        assert_eq!(frag.wire_bytes(), 41 + 4 + 50 + 64);
        let summary: StoreMsg<u64> = StoreMsg::DigestSummary {
            entries: vec![(0, 1, digest), (3, 0, digest)],
        };
        assert_eq!(summary.label(), "DIGEST_SUMMARY");
        assert!(summary.is_bulk());
        assert_eq!(summary.wire_bytes(), 4 + 80);
    }
}
