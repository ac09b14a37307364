//! Seeded round-trip property tests for the canonical wire codec: every
//! [`StoreMsg`] variant, with `Inline`, `Ref` and `Refs` payloads, across
//! hundreds of deterministically random shapes. Each case asserts the
//! two codec invariants: the encoded body is exactly
//! [`Message::wire_bytes`] long, and decode-then-re-encode reproduces
//! the bytes (the substitute for `PartialEq`, which the message types
//! deliberately do not implement).

use sbs_bulk::{BulkDigest, BulkRef, SharedBytes};
use sbs_core::{RegId, RegMsg, SeqVal};
use sbs_net::WireCodec;
use sbs_sim::{DetRng, Message, ProcessId};
use sbs_stamps::{RingSeq, PAPER_MODULUS};
use sbs_store::{RefMap, ShardMap, StoreMsg, StorePayload, StoreVal, StoreWire, ValueRef};
use std::sync::Arc;

const CASES: u64 = 200;

fn codec() -> WireCodec {
    WireCodec::new(PAPER_MODULUS)
}

fn digest(rng: &mut DetRng) -> BulkDigest {
    BulkDigest([
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
    ])
}

fn bytes(rng: &mut DetRng, max: u64) -> SharedBytes {
    let len = rng.range_inclusive(0, max) as usize;
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

fn payload(rng: &mut DetRng) -> StorePayload<u64> {
    let wsn = rng.next_u64() as u128 % PAPER_MODULUS;
    let val = match rng.range_inclusive(0, 2) {
        0 => {
            let mut map = ShardMap::new();
            for i in 0..rng.range_inclusive(0, 5) {
                map.insert(&format!("key{i}"), rng.next_u64());
            }
            StoreVal::Inline(Arc::new(map))
        }
        1 => StoreVal::Ref(BulkRef {
            digest: digest(rng),
            len: rng.next_u64() >> 20,
        }),
        _ => {
            let mut refs = RefMap::new();
            for i in 0..rng.range_inclusive(0, 5) {
                let vref = ValueRef {
                    slot: rng.next_u32(),
                    bref: BulkRef {
                        digest: digest(rng),
                        len: rng.next_u64() >> 20,
                    },
                };
                refs.insert(&format!("key{i}"), vref);
            }
            StoreVal::Refs(Arc::new(refs))
        }
    };
    SeqVal::new(RingSeq::new(wsn, PAPER_MODULUS), val)
}

fn reg_msg(rng: &mut DetRng) -> RegMsg<StorePayload<u64>> {
    match rng.range_inclusive(0, 5) {
        0 => RegMsg::Write {
            reg: RegId(rng.next_u32() % 64),
            tag: rng.next_u64(),
            val: payload(rng),
        },
        1 => RegMsg::NewHelpVal {
            reg: RegId(rng.next_u32() % 64),
            tag: rng.next_u64(),
            val: payload(rng),
            readers: (0..rng.range_inclusive(0, 6))
                .map(|_| ProcessId(rng.next_u32() % 32))
                .collect(),
        },
        2 => RegMsg::Read {
            reg: RegId(rng.next_u32() % 64),
            tag: rng.next_u64(),
            new_read: rng.chance(0.5),
        },
        3 => RegMsg::SsAck {
            tag: rng.next_u64(),
        },
        4 => RegMsg::AckWrite {
            reg: RegId(rng.next_u32() % 64),
            helping: (0..rng.range_inclusive(0, 4))
                .map(|_| {
                    let val = rng.chance(0.5).then(|| payload(rng));
                    (ProcessId(rng.next_u32() % 32), val)
                })
                .collect(),
        },
        _ => RegMsg::AckRead {
            reg: RegId(rng.next_u32() % 64),
            last: payload(rng),
            helping: rng.chance(0.5).then(|| payload(rng)),
        },
    }
}

/// Encode/decode/re-encode `msg`, asserting both codec invariants.
fn round_trip(msg: &StoreWire<u64>) {
    let c = codec();
    let frame = c.encode(msg);
    assert_eq!(
        frame.len() as u64,
        6 + msg.wire_bytes(),
        "encoded body must be exactly wire_bytes for {}",
        msg.label()
    );
    let (decoded, consumed) = c
        .decode_frame::<u64>(&frame)
        .unwrap_or_else(|e| panic!("{} failed to decode: {e}", msg.label()));
    assert_eq!(consumed, frame.len(), "decode must consume the full frame");
    assert_eq!(
        c.encode(&decoded),
        frame,
        "re-encode must reproduce the bytes for {}",
        msg.label()
    );
}

#[test]
fn register_batches_round_trip() {
    let mut rng = DetRng::derive(0xC0DEC, 1);
    for _ in 0..CASES {
        let batch: Vec<_> = (0..rng.range_inclusive(1, 8))
            .map(|_| reg_msg(&mut rng))
            .collect();
        round_trip(&StoreMsg::Batch(batch));
    }
}

#[test]
fn bulk_plane_round_trips() {
    let mut rng = DetRng::derive(0xC0DEC, 2);
    for _ in 0..CASES {
        round_trip(&StoreMsg::BulkGet {
            shard: rng.next_u32() % 16,
            slot: rng.next_u32(),
            digest: digest(&mut rng),
            tag: rng.next_u64(),
        });
    }
}

#[test]
fn fragment_plane_round_trips() {
    let mut rng = DetRng::derive(0xC0DEC, 3);
    for _ in 0..CASES {
        let proof_len = rng.range_inclusive(0, 5);
        round_trip(&StoreMsg::FragPut {
            shard: rng.next_u32() % 16,
            slot: rng.next_u32(),
            root: digest(&mut rng),
            index: rng.next_u32() % 9,
            total: 9,
            bytes: bytes(&mut rng, 256),
            proof: (0..proof_len).map(|_| digest(&mut rng)).collect(),
        });
        round_trip(&StoreMsg::FragPutAck {
            shard: rng.next_u32() % 16,
            root: digest(&mut rng),
            index: rng.next_u32() % 9,
        });
        let answered = rng.chance(0.5);
        round_trip(&StoreMsg::FragGetAck {
            shard: rng.next_u32() % 16,
            root: digest(&mut rng),
            tag: rng.next_u64(),
            frag: answered.then(|| {
                (
                    rng.next_u32() % 9,
                    bytes(&mut rng, 256),
                    (0..rng.range_inclusive(0, 5))
                        .map(|_| digest(&mut rng))
                        .collect(),
                )
            }),
        });
    }
}

#[test]
fn repair_plane_round_trips() {
    let mut rng = DetRng::derive(0xC0DEC, 4);
    for _ in 0..CASES {
        round_trip(&StoreMsg::RepairRequest {
            shard: rng.next_u32() % 16,
            slot: rng.next_u32(),
            digest: digest(&mut rng),
        });
        let held = rng.chance(0.5);
        round_trip(&StoreMsg::RepairReply {
            shard: rng.next_u32() % 16,
            slot: rng.next_u32(),
            digest: digest(&mut rng),
            frag: held.then(|| {
                (
                    rng.next_u32() % 9,
                    bytes(&mut rng, 256),
                    (0..rng.range_inclusive(0, 5))
                        .map(|_| digest(&mut rng))
                        .collect(),
                )
            }),
        });
        round_trip(&StoreMsg::DigestSummary {
            entries: (0..rng.range_inclusive(0, 40))
                .map(|_| (rng.next_u32() % 16, rng.next_u32(), digest(&mut rng)))
                .collect(),
        });
    }
}

#[test]
fn zero_length_bodies_round_trip() {
    // The degenerate shapes: empty batch, empty fragment with an empty
    // proof, unanswered gets and pulls.
    round_trip(&StoreMsg::Batch(Vec::new()));
    round_trip(&StoreMsg::FragPut {
        shard: 0,
        slot: 0,
        root: BulkDigest([0; 4]),
        index: 0,
        total: 1,
        bytes: SharedBytes::from(&[][..]),
        proof: Vec::new(),
    });
    round_trip(&StoreMsg::FragGetAck {
        shard: 0,
        root: BulkDigest([0; 4]),
        tag: 0,
        frag: None,
    });
    round_trip(&StoreMsg::RepairReply {
        shard: 0,
        slot: 0,
        digest: BulkDigest([0; 4]),
        frag: None,
    });
    round_trip(&StoreMsg::DigestSummary {
        entries: Vec::new(),
    });
}

/// Exact body sizes of every message that carries a key slot, and of the
/// reference-map register value, pinned by hand — the slot is one `u32`
/// after the shard tag everywhere it travels.
#[test]
fn slot_fields_and_reference_maps_have_exact_wire_sizes() {
    let d = BulkDigest([1, 2, 3, 4]);
    let bytes = SharedBytes::from(&[7u8; 10][..]);
    let sized: Vec<(StoreWire<u64>, u64)> = vec![
        (
            StoreMsg::BulkGet {
                shard: 1,
                slot: 2,
                digest: d,
                tag: 3,
            },
            4 + 4 + 32 + 8,
        ),
        (
            StoreMsg::FragPut {
                shard: 1,
                slot: 2,
                root: d,
                index: 0,
                total: 3,
                bytes: bytes.clone(),
                proof: vec![d, d],
            },
            4 + 4 + 32 + 4 + 4 + 8 + 10 + 64,
        ),
        (
            StoreMsg::RepairRequest {
                shard: 1,
                slot: 2,
                digest: d,
            },
            4 + 4 + 32,
        ),
        (
            StoreMsg::RepairReply {
                shard: 1,
                slot: 2,
                digest: d,
                frag: Some((0, bytes, vec![d])),
            },
            4 + 4 + 32 + 1 + 4 + 10 + 32,
        ),
        (
            StoreMsg::DigestSummary {
                entries: vec![(1, 2, d), (3, 4, d)],
            },
            4 + 2 * (4 + 4 + 32),
        ),
    ];
    let mut refs = RefMap::new();
    refs.insert(
        "k1",
        ValueRef {
            slot: 0,
            bref: BulkRef { digest: d, len: 9 },
        },
    );
    let write: StoreWire<u64> = StoreMsg::Batch(vec![RegMsg::Write {
        reg: RegId(0),
        tag: 1,
        val: SeqVal::new(
            RingSeq::new(1, PAPER_MODULUS),
            StoreVal::Refs(Arc::new(refs)),
        ),
    }]);
    // Register header (16) + wsn (16) + tag (1) + count (4) + key (4 + 2)
    // + slot (4) + reference (40).
    let sized = sized
        .into_iter()
        .chain([(write, 16 + 16 + 1 + 4 + 6 + 4 + 40)]);
    for (msg, body) in sized {
        assert_eq!(msg.wire_bytes(), body, "{}", msg.label());
        round_trip(&msg);
    }
}
