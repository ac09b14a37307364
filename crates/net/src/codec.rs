//! The canonical [`StoreMsg`] wire codec: length-prefixed frames, a
//! versioned header, and exact byte accounting.
//!
//! Inside the simulator messages travel as Rust values and
//! [`Message::wire_bytes`](sbs_sim::Message::wire_bytes) is an
//! *estimate* used for byte metering. On a real socket the estimate
//! becomes a contract: every variant here encodes to **exactly**
//! `wire_bytes()` body bytes, so the byte traffic a socket deployment
//! puts on the wire is the byte traffic the sim benches have been
//! reporting all along (modulo the fixed 6-byte frame header, which is
//! transport overhead and deliberately not counted).
//!
//! The decoder treats the peer as Byzantine, because on a real wire it
//! may be:
//!
//! - the frame length is checked against [`MAX_FRAME`] **before** any
//!   allocation, so a malicious length prefix cannot force unbounded
//!   memory;
//! - every field with an illegal encoding (a wsn outside the ring, a
//!   non-boolean flag, an unsorted shard map, a non-zero reserved
//!   header field) is a [`DecodeError`], never a panic;
//! - counted substructures (batch entries, helping pairs, Merkle
//!   proofs) are decoded against the bytes actually present — counts
//!   never pre-size an allocation.
//!
//! ## Frame layout
//!
//! ```text
//! frame   := len:u32le payload            (len = payload length ≤ MAX_FRAME)
//! payload := version:u8 kind:u8 body      (body length == msg.wire_bytes())
//! ```
//!
//! All integers are little-endian, matching `sbs_bulk`'s [`BulkCodec`].
//! Variable-length tails (bulk bytes, Merkle proofs, batch contents)
//! are delimited by the frame end rather than redundant inner lengths —
//! which is exactly how `wire_bytes` accounts them.

use sbs_bulk::{get_u32, get_u64, put_u32, put_u64, BulkCodec, BulkDigest, BulkRef, SharedBytes};
use sbs_core::{Payload, RegId, RegMsg, SeqVal};
use sbs_stamps::RingSeq;
use sbs_store::{RefMap, ShardMap, StoreMsg, StorePayload, StoreVal, StoreWire};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// The codec version byte every payload starts with.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on a frame's payload length: 16 MiB. A peer announcing more
/// is rejected before any allocation happens. Generous relative to real
/// traffic — the largest legitimate frames carry one bulk-plane value (or
/// a full-replication shard map), which the benches keep in the
/// kilobytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a frame or payload failed to decode. Every malformed input maps
/// here — the decoder has no panicking paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the encoding did.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The announced payload length.
        len: u64,
    },
    /// Unknown codec version byte.
    BadVersion(u8),
    /// Unknown message kind byte.
    BadKind(u8),
    /// A field holds an illegal encoding (out-of-ring wsn, non-boolean
    /// flag, unsorted map, non-zero reserved field, …).
    Malformed(&'static str),
    /// The payload decoded but bytes were left over.
    Trailing,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::Oversized { len } => {
                write!(f, "announced payload of {len} bytes exceeds MAX_FRAME")
            }
            DecodeError::BadVersion(v) => write!(f, "unknown codec version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown message kind {k}"),
            DecodeError::Malformed(what) => write!(f, "malformed field: {what}"),
            DecodeError::Trailing => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

// Message kind bytes (payload byte 1).
const KIND_BATCH: u8 = 0;
const KIND_BULK_PUT: u8 = 1;
const KIND_BULK_PUT_ACK: u8 = 2;
const KIND_BULK_GET: u8 = 3;
const KIND_BULK_GET_ACK: u8 = 4;
const KIND_FRAG_PUT: u8 = 5;
const KIND_FRAG_PUT_ACK: u8 = 6;
const KIND_FRAG_GET_ACK: u8 = 7;
const KIND_REPAIR_REQ: u8 = 8;
const KIND_REPAIR_REPLY: u8 = 9;
const KIND_DIGEST_SUMMARY: u8 = 10;

// Register-message kind bytes (first byte of each batch entry header).
const REG_WRITE: u8 = 0;
const REG_NEW_HELP_VAL: u8 = 1;
const REG_READ: u8 = 2;
const REG_SS_ACK: u8 = 3;
const REG_ACK_WRITE: u8 = 4;
const REG_ACK_READ: u8 = 5;

/// The [`StoreWire`] codec for one deployment.
///
/// Carries the deployment's write-sequence-number ring modulus so
/// decoded sequence numbers can be validated against the ring **before**
/// a [`RingSeq`] is constructed (whose constructor asserts) — a peer
/// sending an out-of-ring wsn gets a [`DecodeError`], not a panic.
#[derive(Clone, Copy, Debug)]
pub struct WireCodec {
    wsn_modulus: u128,
}

impl WireCodec {
    /// A codec for a deployment using the given wsn ring modulus (the
    /// builder's `wsn_modulus`, [`sbs_stamps::PAPER_MODULUS`] by
    /// default).
    ///
    /// # Panics
    ///
    /// Panics if the modulus itself is not a valid ring modulus (at
    /// least 3, odd) — that is a local configuration error, not wire
    /// input.
    pub fn new(wsn_modulus: u128) -> Self {
        // Validate once here so decode can construct RingSeq values
        // without ever tripping its assertions on the modulus.
        let _ = RingSeq::zero(wsn_modulus);
        WireCodec { wsn_modulus }
    }

    /// Encodes `msg` as one complete frame (length prefix included).
    ///
    /// # Panics
    ///
    /// Panics if the message exceeds [`MAX_FRAME`] — a locally produced
    /// message that large is a deployment configuration error (the cap
    /// exists to bound what *peers* can make us allocate).
    pub fn encode<V: Payload + BulkCodec>(&self, msg: &StoreWire<V>) -> Vec<u8> {
        let mut frame = vec![0u8; 4];
        frame.push(WIRE_VERSION);
        frame.push(kind_of(msg));
        put_body(&mut frame, msg);
        let payload_len = frame.len() - 4;
        assert!(
            payload_len <= MAX_FRAME,
            "outbound frame of {payload_len} bytes exceeds MAX_FRAME"
        );
        frame[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        debug_assert_eq!(
            payload_len as u64 - 2,
            sbs_sim::Message::wire_bytes(msg),
            "codec body length must equal wire_bytes"
        );
        frame
    }

    /// Decodes one payload (version byte onward — no length prefix).
    pub fn decode_payload<V: Payload + BulkCodec>(
        &self,
        payload: &[u8],
    ) -> Result<StoreWire<V>, DecodeError> {
        let mut buf = payload;
        let version = take_u8(&mut buf)?;
        if version != WIRE_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let kind = take_u8(&mut buf)?;
        let msg = self.get_body(kind, &mut buf)?;
        if !buf.is_empty() {
            return Err(DecodeError::Trailing);
        }
        Ok(msg)
    }

    /// Decodes one complete frame from the front of `buf`, returning the
    /// message and the total bytes consumed (prefix included). For
    /// streaming sockets use [`read_frame`] + [`WireCodec::decode_payload`]
    /// instead.
    pub fn decode_frame<V: Payload + BulkCodec>(
        &self,
        buf: &[u8],
    ) -> Result<(StoreWire<V>, usize), DecodeError> {
        let Some((prefix, rest)) = buf.split_first_chunk::<4>() else {
            return Err(DecodeError::Truncated);
        };
        let len = frame_len(*prefix)?;
        if rest.len() < len {
            return Err(DecodeError::Truncated);
        }
        let msg = self.decode_payload(&rest[..len])?;
        Ok((msg, 4 + len))
    }

    fn get_body<V: Payload + BulkCodec>(
        &self,
        kind: u8,
        buf: &mut &[u8],
    ) -> Result<StoreWire<V>, DecodeError> {
        match kind {
            KIND_BATCH => {
                let mut batch = Vec::new();
                while !buf.is_empty() {
                    batch.push(self.get_reg(buf)?);
                }
                Ok(StoreMsg::Batch(batch))
            }
            KIND_BULK_PUT => {
                let shard = take_u32(buf)?;
                let slot = take_u32(buf)?;
                let digest = get_digest(buf)?;
                let len = take_u64(buf)?;
                if buf.len() as u64 != len {
                    return Err(DecodeError::Malformed("bulk byte length"));
                }
                let bytes: SharedBytes = Arc::from(*buf);
                *buf = &[];
                Ok(StoreMsg::BulkPut {
                    shard,
                    slot,
                    digest,
                    bytes,
                })
            }
            KIND_BULK_PUT_ACK => {
                let shard = take_u32(buf)?;
                let digest = get_digest(buf)?;
                Ok(StoreMsg::BulkPutAck { shard, digest })
            }
            KIND_BULK_GET => {
                let shard = take_u32(buf)?;
                let slot = take_u32(buf)?;
                let digest = get_digest(buf)?;
                let tag = take_u64(buf)?;
                Ok(StoreMsg::BulkGet {
                    shard,
                    slot,
                    digest,
                    tag,
                })
            }
            KIND_BULK_GET_ACK => {
                let shard = take_u32(buf)?;
                let digest = get_digest(buf)?;
                let tag = take_u64(buf)?;
                let bytes = match take_u8(buf)? {
                    0 => None,
                    1 => {
                        let bytes: SharedBytes = Arc::from(*buf);
                        *buf = &[];
                        Some(bytes)
                    }
                    _ => return Err(DecodeError::Malformed("option flag")),
                };
                Ok(StoreMsg::BulkGetAck {
                    shard,
                    digest,
                    tag,
                    bytes,
                })
            }
            KIND_FRAG_PUT => {
                let shard = take_u32(buf)?;
                let slot = take_u32(buf)?;
                let root = get_digest(buf)?;
                let index = take_u32(buf)?;
                let total = take_u32(buf)?;
                let len = take_u64(buf)?;
                if (buf.len() as u64) < len {
                    return Err(DecodeError::Truncated);
                }
                let (frag, proof_bytes) = buf.split_at(len as usize);
                let bytes: SharedBytes = Arc::from(frag);
                if !(proof_bytes.len() as u64).is_multiple_of(BulkDigest::WIRE_SIZE) {
                    return Err(DecodeError::Malformed("merkle proof length"));
                }
                *buf = proof_bytes;
                let mut proof = Vec::new();
                while !buf.is_empty() {
                    proof.push(get_digest(buf)?);
                }
                Ok(StoreMsg::FragPut {
                    shard,
                    slot,
                    root,
                    index,
                    total,
                    bytes,
                    proof,
                })
            }
            KIND_FRAG_PUT_ACK => {
                let shard = take_u32(buf)?;
                let root = get_digest(buf)?;
                let index = take_u32(buf)?;
                Ok(StoreMsg::FragPutAck { shard, root, index })
            }
            KIND_FRAG_GET_ACK => {
                let shard = take_u32(buf)?;
                let root = get_digest(buf)?;
                let tag = take_u64(buf)?;
                let frag = match take_u8(buf)? {
                    0 => None,
                    // flag = 1 + proof length: the fragment bytes run to
                    // the frame end minus the proof's fixed-size tail, so
                    // neither needs its own length field.
                    flag => {
                        let proof_len = (flag - 1) as usize;
                        let index = take_u32(buf)?;
                        let proof_bytes = proof_len as u64 * BulkDigest::WIRE_SIZE;
                        let Some(frag_len) = (buf.len() as u64).checked_sub(proof_bytes) else {
                            return Err(DecodeError::Truncated);
                        };
                        let (frag, tail) = buf.split_at(frag_len as usize);
                        let bytes: SharedBytes = Arc::from(frag);
                        *buf = tail;
                        let mut proof = Vec::new();
                        for _ in 0..proof_len {
                            proof.push(get_digest(buf)?);
                        }
                        Some((index, bytes, proof))
                    }
                };
                Ok(StoreMsg::FragGetAck {
                    shard,
                    root,
                    tag,
                    frag,
                })
            }
            KIND_REPAIR_REQ => {
                let shard = take_u32(buf)?;
                let slot = take_u32(buf)?;
                let digest = get_digest(buf)?;
                Ok(StoreMsg::RepairRequest {
                    shard,
                    slot,
                    digest,
                })
            }
            KIND_REPAIR_REPLY => {
                let shard = take_u32(buf)?;
                let slot = take_u32(buf)?;
                let digest = get_digest(buf)?;
                let bytes = match take_u8(buf)? {
                    0 => None,
                    1 => {
                        let len = take_u64(buf)?;
                        if (buf.len() as u64) < len {
                            return Err(DecodeError::Truncated);
                        }
                        let (blob, rest) = buf.split_at(len as usize);
                        let blob: SharedBytes = Arc::from(blob);
                        *buf = rest;
                        Some(blob)
                    }
                    _ => return Err(DecodeError::Malformed("option flag")),
                };
                let frag = match take_u8(buf)? {
                    0 => None,
                    1 => {
                        let index = take_u32(buf)?;
                        let frag_len = take_u32(buf)? as usize;
                        let proof_len = take_u32(buf)? as usize;
                        if buf.len() < frag_len {
                            return Err(DecodeError::Truncated);
                        }
                        let (frag, rest) = buf.split_at(frag_len);
                        let frag: SharedBytes = Arc::from(frag);
                        *buf = rest;
                        let mut proof = Vec::new();
                        for _ in 0..proof_len {
                            proof.push(get_digest(buf)?);
                        }
                        Some((index, frag, proof))
                    }
                    _ => return Err(DecodeError::Malformed("option flag")),
                };
                Ok(StoreMsg::RepairReply {
                    shard,
                    slot,
                    digest,
                    bytes,
                    frag,
                })
            }
            KIND_DIGEST_SUMMARY => {
                let count = take_u32(buf)?;
                let mut entries = Vec::new();
                for _ in 0..count {
                    let shard = take_u32(buf)?;
                    let slot = take_u32(buf)?;
                    let digest = get_digest(buf)?;
                    entries.push((shard, slot, digest));
                }
                Ok(StoreMsg::DigestSummary { entries })
            }
            other => Err(DecodeError::BadKind(other)),
        }
    }

    fn get_reg<V: Payload + BulkCodec>(
        &self,
        buf: &mut &[u8],
    ) -> Result<RegMsg<StorePayload<V>>, DecodeError> {
        let kind = take_u8(buf)?;
        let reg = take_u32(buf)?;
        let tag = take_u64(buf)?;
        let aux = take_u24(buf)?;
        // Reserved header fields must be zero — one canonical encoding
        // per message, so content addressing and byte accounting cannot
        // be gamed by redundant representations.
        let reserved_zero = |v: u64, what| {
            if v == 0 {
                Ok(())
            } else {
                Err(DecodeError::Malformed(what))
            }
        };
        match kind {
            REG_WRITE => {
                reserved_zero(aux as u64, "write aux")?;
                let val = self.get_payload(buf)?;
                Ok(RegMsg::Write {
                    reg: RegId(reg),
                    tag,
                    val,
                })
            }
            REG_NEW_HELP_VAL => {
                let val = self.get_payload(buf)?;
                let mut readers = Vec::new();
                for _ in 0..aux {
                    readers.push(sbs_sim::ProcessId(take_u32(buf)?));
                }
                Ok(RegMsg::NewHelpVal {
                    reg: RegId(reg),
                    tag,
                    val,
                    readers,
                })
            }
            REG_READ => {
                reserved_zero(aux as u64, "read aux")?;
                let new_read = match take_u8(buf)? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError::Malformed("bool flag")),
                };
                Ok(RegMsg::Read {
                    reg: RegId(reg),
                    tag,
                    new_read,
                })
            }
            REG_SS_ACK => {
                reserved_zero(reg as u64, "ss-ack reg")?;
                reserved_zero(aux as u64, "ss-ack aux")?;
                Ok(RegMsg::SsAck { tag })
            }
            REG_ACK_WRITE => {
                reserved_zero(tag, "ack-write tag")?;
                let mut helping = Vec::new();
                for _ in 0..aux {
                    let pid = sbs_sim::ProcessId(take_u32(buf)?);
                    let val = match take_u8(buf)? {
                        0 => None,
                        1 => Some(self.get_payload(buf)?),
                        _ => return Err(DecodeError::Malformed("option flag")),
                    };
                    helping.push((pid, val));
                }
                Ok(RegMsg::AckWrite {
                    reg: RegId(reg),
                    helping,
                })
            }
            REG_ACK_READ => {
                reserved_zero(tag, "ack-read tag")?;
                reserved_zero(aux as u64, "ack-read aux")?;
                let last = self.get_payload(buf)?;
                let helping = match take_u8(buf)? {
                    0 => None,
                    1 => Some(self.get_payload(buf)?),
                    _ => return Err(DecodeError::Malformed("option flag")),
                };
                Ok(RegMsg::AckRead {
                    reg: RegId(reg),
                    last,
                    helping,
                })
            }
            other => Err(DecodeError::BadKind(other)),
        }
    }

    fn get_payload<V: Payload + BulkCodec>(
        &self,
        buf: &mut &[u8],
    ) -> Result<StorePayload<V>, DecodeError> {
        let wsn = take_u128(buf)?;
        if wsn >= self.wsn_modulus {
            return Err(DecodeError::Malformed("wsn outside the ring"));
        }
        let val = match take_u8(buf)? {
            0 => {
                let map =
                    ShardMap::<V>::decode_from(buf).ok_or(DecodeError::Malformed("shard map"))?;
                StoreVal::Inline(Arc::new(map))
            }
            1 => {
                let digest = get_digest(buf)?;
                let len = take_u64(buf)?;
                StoreVal::Ref(BulkRef { digest, len })
            }
            3 => {
                let refs =
                    RefMap::decode_from(buf).ok_or(DecodeError::Malformed("reference map"))?;
                StoreVal::Refs(Arc::new(refs))
            }
            _ => return Err(DecodeError::Malformed("store-val variant")),
        };
        Ok(SeqVal::new(RingSeq::new(wsn, self.wsn_modulus), val))
    }
}

fn kind_of<P>(msg: &StoreMsg<P>) -> u8 {
    match msg {
        StoreMsg::Batch(_) => KIND_BATCH,
        StoreMsg::BulkPut { .. } => KIND_BULK_PUT,
        StoreMsg::BulkPutAck { .. } => KIND_BULK_PUT_ACK,
        StoreMsg::BulkGet { .. } => KIND_BULK_GET,
        StoreMsg::BulkGetAck { .. } => KIND_BULK_GET_ACK,
        StoreMsg::FragPut { .. } => KIND_FRAG_PUT,
        StoreMsg::FragPutAck { .. } => KIND_FRAG_PUT_ACK,
        StoreMsg::FragGetAck { .. } => KIND_FRAG_GET_ACK,
        StoreMsg::RepairRequest { .. } => KIND_REPAIR_REQ,
        StoreMsg::RepairReply { .. } => KIND_REPAIR_REPLY,
        StoreMsg::DigestSummary { .. } => KIND_DIGEST_SUMMARY,
    }
}

fn put_body<V: Payload + BulkCodec>(out: &mut Vec<u8>, msg: &StoreWire<V>) {
    match msg {
        StoreMsg::Batch(batch) => {
            for m in batch {
                put_reg(out, m);
            }
        }
        StoreMsg::BulkPut {
            shard,
            slot,
            digest,
            bytes,
        } => {
            put_u32(out, *shard);
            put_u32(out, *slot);
            put_digest(out, digest);
            put_u64(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        StoreMsg::BulkPutAck { shard, digest } => {
            put_u32(out, *shard);
            put_digest(out, digest);
        }
        StoreMsg::BulkGet {
            shard,
            slot,
            digest,
            tag,
        } => {
            put_u32(out, *shard);
            put_u32(out, *slot);
            put_digest(out, digest);
            put_u64(out, *tag);
        }
        StoreMsg::BulkGetAck {
            shard,
            digest,
            tag,
            bytes,
        } => {
            put_u32(out, *shard);
            put_digest(out, digest);
            put_u64(out, *tag);
            match bytes {
                None => out.push(0),
                Some(b) => {
                    out.push(1);
                    out.extend_from_slice(b);
                }
            }
        }
        StoreMsg::FragPut {
            shard,
            slot,
            root,
            index,
            total,
            bytes,
            proof,
        } => {
            put_u32(out, *shard);
            put_u32(out, *slot);
            put_digest(out, root);
            put_u32(out, *index);
            put_u32(out, *total);
            put_u64(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
            for d in proof {
                put_digest(out, d);
            }
        }
        StoreMsg::FragPutAck { shard, root, index } => {
            put_u32(out, *shard);
            put_digest(out, root);
            put_u32(out, *index);
        }
        StoreMsg::FragGetAck {
            shard,
            root,
            tag,
            frag,
        } => {
            put_u32(out, *shard);
            put_digest(out, root);
            put_u64(out, *tag);
            match frag {
                None => out.push(0),
                Some((index, bytes, proof)) => {
                    // Merkle paths are ≤ ⌈log2(replicas)⌉ long (≤ 8 for
                    // any real fleet), so the path length rides in the
                    // option flag and the fragment runs to the frame end.
                    assert!(proof.len() <= 254, "merkle proof too long for the wire");
                    out.push(1 + proof.len() as u8);
                    put_u32(out, *index);
                    out.extend_from_slice(bytes);
                    for d in proof {
                        put_digest(out, d);
                    }
                }
            }
        }
        StoreMsg::RepairRequest {
            shard,
            slot,
            digest,
        } => {
            put_u32(out, *shard);
            put_u32(out, *slot);
            put_digest(out, digest);
        }
        StoreMsg::RepairReply {
            shard,
            slot,
            digest,
            bytes,
            frag,
        } => {
            put_u32(out, *shard);
            put_u32(out, *slot);
            put_digest(out, digest);
            // Both planes can ride the same frame shape, so each option
            // carries explicit lengths instead of running to frame end.
            match bytes {
                None => out.push(0),
                Some(b) => {
                    out.push(1);
                    put_u64(out, b.len() as u64);
                    out.extend_from_slice(b);
                }
            }
            match frag {
                None => out.push(0),
                Some((index, b, proof)) => {
                    out.push(1);
                    put_u32(out, *index);
                    put_u32(out, b.len() as u32);
                    put_u32(out, proof.len() as u32);
                    out.extend_from_slice(b);
                    for d in proof {
                        put_digest(out, d);
                    }
                }
            }
        }
        StoreMsg::DigestSummary { entries } => {
            put_u32(out, entries.len() as u32);
            for (shard, slot, digest) in entries {
                put_u32(out, *shard);
                put_u32(out, *slot);
                put_digest(out, digest);
            }
        }
    }
}

fn put_reg<V: Payload + BulkCodec>(out: &mut Vec<u8>, msg: &RegMsg<StorePayload<V>>) {
    let (kind, reg, tag, aux) = match msg {
        RegMsg::Write { reg, tag, .. } => (REG_WRITE, reg.0, *tag, 0),
        RegMsg::NewHelpVal {
            reg, tag, readers, ..
        } => (REG_NEW_HELP_VAL, reg.0, *tag, readers.len()),
        RegMsg::Read { reg, tag, .. } => (REG_READ, reg.0, *tag, 0),
        RegMsg::SsAck { tag } => (REG_SS_ACK, 0, *tag, 0),
        RegMsg::AckWrite { reg, helping } => (REG_ACK_WRITE, reg.0, 0, helping.len()),
        RegMsg::AckRead { reg, .. } => (REG_ACK_READ, reg.0, 0, 0),
    };
    out.push(kind);
    put_u32(out, reg);
    put_u64(out, tag);
    put_u24(out, aux);
    match msg {
        RegMsg::Write { val, .. } => put_payload(out, val),
        RegMsg::NewHelpVal { val, readers, .. } => {
            put_payload(out, val);
            for r in readers {
                put_u32(out, r.0);
            }
        }
        RegMsg::Read { new_read, .. } => out.push(*new_read as u8),
        RegMsg::SsAck { .. } => {}
        RegMsg::AckWrite { helping, .. } => {
            for (pid, val) in helping {
                put_u32(out, pid.0);
                match val {
                    None => out.push(0),
                    Some(v) => {
                        out.push(1);
                        put_payload(out, v);
                    }
                }
            }
        }
        RegMsg::AckRead { last, helping, .. } => {
            put_payload(out, last);
            match helping {
                None => out.push(0),
                Some(v) => {
                    out.push(1);
                    put_payload(out, v);
                }
            }
        }
    }
}

fn put_payload<V: Payload + BulkCodec>(out: &mut Vec<u8>, p: &StorePayload<V>) {
    put_u128(out, p.wsn.value());
    match &p.val {
        StoreVal::Inline(map) => {
            out.push(0);
            map.encode_into(out);
        }
        StoreVal::Ref(r) => {
            out.push(1);
            put_digest(out, &r.digest);
            put_u64(out, r.len);
        }
        StoreVal::Refs(refs) => {
            // tag(1) + the map's canonical encoding: count(4), then per
            // key its length-prefixed bytes and its 44-byte reference —
            // exactly `Payload::wire_size`.
            out.push(3);
            refs.encode_into(out);
        }
    }
}

fn put_digest(out: &mut Vec<u8>, d: &BulkDigest) {
    for word in d.0 {
        put_u64(out, word);
    }
}

fn get_digest(buf: &mut &[u8]) -> Result<BulkDigest, DecodeError> {
    let mut words = [0u64; 4];
    for w in &mut words {
        *w = take_u64(buf)?;
    }
    Ok(BulkDigest(words))
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The 16-byte register-message header packs its count field (reader or
/// helping-pair count) into 3 bytes — 16 M entries, far beyond any
/// fleet.
fn put_u24(out: &mut Vec<u8>, v: usize) {
    assert!(
        v < (1 << 24),
        "count field overflows the 24-bit header slot"
    );
    out.extend_from_slice(&(v as u32).to_le_bytes()[..3]);
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&b, rest) = buf.split_first().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(b)
}

fn take_u24(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    let (head, rest) = buf.split_first_chunk::<3>().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(u32::from_le_bytes([head[0], head[1], head[2], 0]))
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    get_u32(buf).ok_or(DecodeError::Truncated)
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    get_u64(buf).ok_or(DecodeError::Truncated)
}

fn take_u128(buf: &mut &[u8]) -> Result<u128, DecodeError> {
    let (head, rest) = buf
        .split_first_chunk::<16>()
        .ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(u128::from_le_bytes(*head))
}

/// The length-prefix rule, in one place: the payload length a frame's
/// four prefix bytes announce, refused if it exceeds [`MAX_FRAME`] — so
/// every reader ([`WireCodec::decode_frame`], [`read_frame`], the socket
/// transport's incremental framer) learns of an oversized frame **before**
/// it allocates or reserves anything for it.
pub(crate) fn frame_len(prefix: [u8; 4]) -> Result<usize, DecodeError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(DecodeError::Oversized { len: len as u64 });
    }
    Ok(len)
}

/// Reads one frame's payload from a blocking stream.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary (the
/// peer closed). An oversized length prefix fails with
/// [`io::ErrorKind::InvalidData`] **before** any allocation; end-of-stream
/// mid-frame fails with [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    // A clean EOF before the first prefix byte is a normal close; EOF
    // anywhere later is a torn frame.
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid frame prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = frame_len(prefix).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one already-encoded frame (from [`WireCodec::encode`]) to a
/// blocking stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_sim::Message;

    fn codec() -> WireCodec {
        WireCodec::new(sbs_stamps::PAPER_MODULUS)
    }

    fn payload(wsn: u128, entries: &[(&str, u64)]) -> StorePayload<u64> {
        let mut map = ShardMap::new();
        for (k, v) in entries {
            map.insert(k, *v);
        }
        SeqVal::new(
            RingSeq::new(wsn, sbs_stamps::PAPER_MODULUS),
            StoreVal::Inline(Arc::new(map)),
        )
    }

    fn round_trip(msg: &StoreWire<u64>) -> StoreWire<u64> {
        let c = codec();
        let frame = c.encode(msg);
        assert_eq!(
            frame.len() as u64 - 6,
            msg.wire_bytes(),
            "body bytes must equal wire_bytes for {msg:?}"
        );
        let (decoded, consumed) = c.decode_frame::<u64>(&frame).expect("round trip");
        assert_eq!(consumed, frame.len());
        decoded
    }

    #[test]
    fn batch_round_trips_and_matches_wire_bytes() {
        let msg: StoreWire<u64> = StoreMsg::Batch(vec![
            RegMsg::Write {
                reg: RegId(3),
                tag: 77,
                val: payload(5, &[("key1", 10), ("key2", 20)]),
            },
            RegMsg::SsAck { tag: 78 },
        ]);
        let back = round_trip(&msg);
        // StoreMsg lacks PartialEq; re-encoding must reproduce the bytes.
        assert_eq!(codec().encode(&msg), codec().encode(&back));
    }

    #[test]
    fn empty_batch_is_the_empty_body() {
        let msg: StoreWire<u64> = StoreMsg::Batch(Vec::new());
        assert_eq!(msg.wire_bytes(), 0);
        let back = round_trip(&msg);
        assert!(matches!(back, StoreMsg::Batch(b) if b.is_empty()));
    }

    #[test]
    fn out_of_ring_wsn_is_refused() {
        let c = WireCodec::new(257);
        let msg: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::SsAck { tag: 1 }]);
        let frame = c.encode(&msg);
        // Same frame decoded fine under the matching modulus…
        assert!(c.decode_frame::<u64>(&frame).is_ok());
        // …but a write stamped inside a larger ring is out of range here.
        let big = WireCodec::new(sbs_stamps::PAPER_MODULUS);
        let stamped: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::Write {
            reg: RegId(0),
            tag: 1,
            val: payload(1_000_000, &[]),
        }]);
        let frame = big.encode(&stamped);
        assert!(matches!(
            c.decode_frame::<u64>(&frame),
            Err(DecodeError::Malformed("wsn outside the ring"))
        ));
    }

    fn refs_payload(wsn: u128, keys: &[&str]) -> StorePayload<u64> {
        let mut refs = RefMap::new();
        for (slot, key) in keys.iter().enumerate() {
            refs.insert(
                key,
                sbs_store::ValueRef {
                    slot: slot as u32,
                    bref: BulkRef::to_bytes(key.as_bytes()),
                },
            );
        }
        SeqVal::new(
            RingSeq::new(wsn, sbs_stamps::PAPER_MODULUS),
            StoreVal::Refs(Arc::new(refs)),
        )
    }

    /// The bulk planes' register value: tag 3, the map's canonical
    /// encoding, exactly `wire_bytes` long.
    #[test]
    fn reference_maps_round_trip_with_exact_wire_bytes() {
        let val = refs_payload(7, &["key1", "key2", "key10"]);
        let msg: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::Write {
            reg: RegId(1),
            tag: 3,
            val: val.clone(),
        }]);
        // Register header (16) + wsn (16) + tag (1) + count (4) + per key
        // (4 + key + 44).
        let keys = 3 * (4 + 44) + 4 + 4 + 5;
        assert_eq!(msg.wire_bytes(), 16 + 16 + 1 + 4 + keys);
        let back = round_trip(&msg);
        let StoreMsg::Batch(batch) = &back else {
            panic!("kind preserved")
        };
        let RegMsg::Write { val: got, .. } = &batch[0] else {
            panic!("write preserved")
        };
        assert_eq!(*got, val);
        assert_eq!(codec().encode(&msg), codec().encode(&back));
    }

    /// A reference map whose keys are out of order is not canonical and
    /// must not decode (the quorum counts values by equality).
    #[test]
    fn unsorted_reference_maps_are_refused() {
        let mut frame = vec![0u8; 4];
        frame.push(WIRE_VERSION);
        frame.push(KIND_BATCH);
        frame.push(REG_WRITE);
        put_u32(&mut frame, 1); // reg
        put_u64(&mut frame, 1); // tag
        put_u24(&mut frame, 0); // aux
        put_u128(&mut frame, 3); // wsn
        frame.push(3); // StoreVal::Refs
        put_u32(&mut frame, 2);
        for key in ["b", "a"] {
            String::from(key).encode_into(&mut frame);
            sbs_store::ValueRef {
                slot: 0,
                bref: BulkRef::to_bytes(b"v"),
            }
            .encode_into(&mut frame);
        }
        let len = (frame.len() - 4) as u32;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            codec().decode_frame::<u64>(&frame),
            Err(DecodeError::Malformed("reference map"))
        ));
    }

    #[test]
    fn routing_owner_count_is_validated_before_allocation() {
        let c = codec();
        // A hand-built write carrying the retired routing-epoch value
        // (tag 2) and announcing far more owners than the frame carries:
        // tag 2 is no store value any more, so the decoder refuses it at
        // the tag, before reading any count.
        let mut frame = vec![0u8; 4];
        frame.push(WIRE_VERSION);
        frame.push(KIND_BATCH);
        frame.push(REG_WRITE);
        put_u32(&mut frame, 8); // reg
        put_u64(&mut frame, 1); // tag
        put_u24(&mut frame, 0); // aux
        put_u128(&mut frame, 3); // wsn
        frame.push(2); // the retired routing-epoch tag
        put_u64(&mut frame, 1); // epoch
        put_u32(&mut frame, u32::MAX); // owner count >> frame length
        put_u32(&mut frame, 0); // a single actual owner
        let len = (frame.len() - 4) as u32;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            c.decode_frame::<u64>(&frame),
            Err(DecodeError::Malformed("store-val variant"))
        ));
    }

    #[test]
    fn noncanonical_reserved_fields_are_refused() {
        let c = codec();
        // An SsAck with a non-zero reg field: build the body by hand.
        let mut frame = vec![0u8; 4];
        frame.push(WIRE_VERSION);
        frame.push(KIND_BATCH);
        frame.push(REG_SS_ACK);
        put_u32(&mut frame, 9); // reserved reg — must be zero
        put_u64(&mut frame, 1);
        put_u24(&mut frame, 0);
        let len = (frame.len() - 4) as u32;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            c.decode_frame::<u64>(&frame),
            Err(DecodeError::Malformed("ss-ack reg"))
        ));
    }

    #[test]
    fn read_frame_rejects_oversized_before_allocating() {
        let mut stream: &[u8] = &[(u32::MAX).to_le_bytes(), [0u8; 4]].concat();
        let err = read_frame(&mut stream).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_frame_clean_eof_is_none() {
        let mut stream: &[u8] = &[];
        assert!(read_frame(&mut stream).expect("clean eof").is_none());
        let mut torn: &[u8] = &[3, 0];
        assert_eq!(
            read_frame(&mut torn).expect_err("torn").kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
