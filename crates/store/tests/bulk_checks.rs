//! Bulk-plane acceptance: the metadata/data separation must change the
//! economics of the store without changing its semantics.
//!
//! The headline scenario (ISSUE 2 acceptance): with `t = 1, n = 9`, a
//! 1000-op Zipfian YCSB-B run in bulk mode stores payloads on exactly the
//! 3 data replicas of each shard, passes the same per-key atomicity
//! checks as full replication on identical seeds (differentially
//! verified, write sequence by write sequence), survives one Byzantine
//! data replica serving corrupted bytes, and — for 1 KiB values — puts at
//! least 2× fewer payload bytes on the wire.

use sbs_bulk::data_replica_slots;
use sbs_check::{equivalent_write_histories, History};
use sbs_core::ByzStrategy;
use sbs_sim::{DelayModel, DetRng, Node, SimDuration};
use sbs_store::{
    DataPlane, FaultPlan, SizedVal, StoreBuilder, StoreClientNode, StoreMsg, StoreSystem, Workload,
};
use std::collections::{BTreeMap, BTreeSet};

fn keyed_histories<V: sbs_core::Payload + sbs_bulk::BulkCodec>(
    sys: &StoreSystem<V>,
) -> BTreeMap<String, History<Option<V>>> {
    sys.keys_touched()
        .into_iter()
        .map(|k| {
            let h = sys.history_for_key(&k);
            (k, h)
        })
        .collect()
}

/// The acceptance run, full vs bulk on identical seeds, with a Byzantine
/// server that is also a data replica (server 4 serves shards 2–4's
/// bulk windows) garbling every byte string it serves.
#[test]
fn acceptance_bulk_1000op_ycsb_b_with_byzantine_data_replica() {
    let full = StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2);
    let bulk = full.clone().bulk();
    let mut wl = Workload::ycsb_b(1000, 64);
    wl.seed = 99;
    wl.faults = FaultPlan::one_byzantine(4, ByzStrategy::RandomGarbage);

    let (report_full, sys_full) = wl.run(&full);
    let (report_bulk, mut sys_bulk) = wl.run(&bulk);

    assert_eq!(report_full.completed, 1000);
    assert_eq!(
        report_bulk.completed, 1000,
        "bulk mode must survive the Byzantine data replica"
    );
    assert_eq!(sys_bulk.plane(), DataPlane::Coded { replicas: 3, k: 1 });

    // Identical per-key atomicity verdicts on identical seeds.
    let checked_full = sys_full
        .check_per_key_atomicity()
        .expect("full-mode atomicity");
    let checked_bulk = sys_bulk
        .check_per_key_atomicity()
        .expect("bulk-mode atomicity");
    assert_eq!(checked_full, checked_bulk);
    assert!(checked_bulk > 30, "Zipfian mix must touch many keys");

    // Differential: same key sets, same per-key write sequences, same
    // per-key op counts — the two planes ran the same logical workload.
    let keys = equivalent_write_histories(&keyed_histories(&sys_full), &keyed_histories(&sys_bulk))
        .expect("full and bulk executions must be equivalent");
    assert_eq!(keys, checked_bulk);

    // Placement: every written shard's payload lives on exactly its
    // 2t+1 = 3 window replicas — no more (bulk traffic never reaches the
    // other 6 servers), no fewer (the Byzantine replica stores too; its
    // lie is in what it serves).
    let placement = sys_bulk.bulk_placement();
    assert!(!placement.is_empty(), "writes must have stored blobs");
    for (shard, holders) in &placement {
        let window: BTreeSet<usize> = data_replica_slots(*shard, 9, 3).into_iter().collect();
        assert_eq!(holders, &window, "shard {shard} placement");
    }

    // Full replication keeps the bulk plane silent; bulk mode moves the
    // payload there.
    assert_eq!(report_full.bulk_bytes, 0);
    assert!(report_bulk.bulk_bytes > 0);
}

/// The byte economics for 1 KiB values: total estimated bytes on the wire
/// must shrink by at least 2× (in practice far more — full replication
/// ships every snapshot to all 9 servers in two rounds, bulk ships it to
/// 3 replicas once).
#[test]
fn bulk_at_least_halves_bytes_on_wire_for_1kib_values() {
    let full = StoreBuilder::asynchronous(1)
        .seed(7)
        .shards(8)
        .writers(4)
        .extra_readers(2);
    let bulk = full.clone().bulk();
    let mut wl = Workload::ycsb_b(300, 64);
    wl.seed = 3;
    let mk = |id| SizedVal::new(id, 1024);

    let (report_full, sys_full) = wl.run_with(&full, mk);
    let (report_bulk, mut sys_bulk) = wl.run_with(&bulk, mk);
    assert_eq!(report_full.completed, 300);
    assert_eq!(report_bulk.completed, 300);
    sys_full.check_per_key_atomicity().expect("full");
    sys_bulk.check_per_key_atomicity().expect("bulk");

    let (f, b) = (report_full.total_bytes(), report_bulk.total_bytes());
    assert!(
        f >= 2 * b,
        "bulk must at least halve bytes on the wire for 1 KiB values: full {f}, bulk {b}"
    );
    // And the bulk plane carries the overwhelming share of what remains
    // of the payload traffic — the metadata register now moves 40-byte
    // references.
    assert!(report_bulk.bulk_bytes > report_bulk.metadata_bytes / 4);

    // Server-side storage: each written shard's bytes live on exactly its
    // 3-replica window (this run differs from the acceptance test's:
    // sized values, no Byzantine slot), and every window replica actually
    // accounts stored bytes.
    let placement = sys_bulk.bulk_placement();
    assert!(!placement.is_empty(), "writes must have stored blobs");
    for (shard, holders) in &placement {
        let window: BTreeSet<usize> = data_replica_slots(*shard, 9, 3).into_iter().collect();
        assert_eq!(holders, &window, "shard {shard} placement");
    }
    let holders: BTreeSet<usize> = placement.values().flatten().copied().collect();
    for i in 0..9 {
        let stored = sys_bulk.bulk_bytes_stored(i);
        if holders.contains(&i) {
            assert!(stored > 0, "window replica {i} must account bytes");
        } else {
            assert_eq!(stored, 0, "server {i} is outside every written window");
        }
    }
}

/// Property-style seeded loop: for random payloads, a Byzantine data
/// replica serving wrong bytes never produces a digest-passing get — the
/// client always falls back to an honest replica and returns exactly the
/// committed value.
#[test]
fn byzantine_data_replica_never_corrupts_a_get() {
    for seed in 0..6u64 {
        let mut rng = DetRng::from_seed(0x000F_E7C4 + seed);
        // Server 2 is a data replica for shards 0, 1, 2 (windows {s..s+2});
        // with 4 shards, most keys resolve through it.
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
            .seed(seed)
            .shards(4)
            .writers(2)
            .extra_readers(1)
            .bulk()
            .byzantine(2, ByzStrategy::Silent)
            .build();

        let mut expected: BTreeMap<String, u64> = BTreeMap::new();
        for round in 0..12u64 {
            let key = format!("key{}", rng.next_u64() % 10);
            // Unique-by-round values (random low bits for payload variety).
            let val = (round + 1) << 32 | (rng.next_u64() & 0xFFFF_FFFF);
            sys.put(&key, val);
            expected.insert(key, val);
            assert!(sys.settle(), "put round {round} must quiesce (seed {seed})");
        }
        for (i, key) in expected.keys().enumerate() {
            sys.get(i % 3, key);
        }
        assert!(sys.settle(), "gets must quiesce (seed {seed})");

        for (key, val) in &expected {
            let h = sys.history_for_key(key);
            let read = h.reads().last().expect("one get per key");
            assert_eq!(
                read.kind.value(),
                &Some(*val),
                "seed {seed}: get({key}) must return the committed value \
                 despite the Byzantine data replica"
            );
        }
        sys.check_per_key_atomicity().expect("per-key atomicity");
    }
}

/// A window below `k + t` is refused for every `k`, whole copies
/// included: a single data replica cannot keep reads live past `t = 1`
/// Byzantine replicas, so the builder does not deploy one.
#[test]
#[should_panic(expected = "coded reconstruction threshold k=1 too high")]
fn single_data_replica_works_without_byzantine_faults() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(5)
        .shards(2)
        .data_replicas(1)
        .build();
    sys.put("alpha", 11);
    assert!(sys.settle());
    sys.get(0, "alpha");
    assert!(sys.settle());
    let h = sys.history_for_key("alpha");
    assert_eq!(h.reads().next().unwrap().kind.value(), &Some(11));
    let placement = sys.bulk_placement();
    for holders in placement.values() {
        assert_eq!(holders.len(), 1);
    }
}

/// The erasure-coded acceptance run (ISSUE 5): full replication vs whole
/// copies (`k = 1`) vs 2-of-3 dispersal on identical seeds, 1 KiB values,
/// with a Byzantine server that is also a data replica garbling every
/// fragment it serves. The `k = 2` run must (a) be differentially
/// equivalent to full replication, write sequence by write sequence; (b)
/// keep the exact `2t + 1` window placement; and (c) store **≥ 2× fewer
/// payload bytes per replica** than whole copies (`k = 2` fragments are
/// half a value each).
#[test]
fn coded_acceptance_equivalent_to_full_and_cuts_per_replica_bytes() {
    let full = StoreBuilder::asynchronous(1)
        .seed(2026)
        .shards(8)
        .writers(4)
        .extra_readers(2);
    let bulk = full.clone().bulk();
    let coded = full.clone().bulk_coded(2);
    assert_eq!(
        coded.config().plane,
        DataPlane::Coded { replicas: 3, k: 2 },
        "bulk_coded keeps the 2t+1 window and carries k"
    );
    let mut wl = Workload::ycsb_b(400, 64);
    wl.seed = 77;
    wl.faults = FaultPlan::one_byzantine(4, ByzStrategy::RandomGarbage);
    let mk = |id| SizedVal::new(id, 1024);

    let (report_full, sys_full) = wl.run_with(&full, mk);
    let (report_bulk, mut sys_bulk) = wl.run_with(&bulk, mk);
    let (report_coded, mut sys_coded) = wl.run_with(&coded, mk);
    assert_eq!(report_full.completed, 400);
    assert_eq!(report_bulk.completed, 400);
    assert_eq!(
        report_coded.completed, 400,
        "coded mode must survive the Byzantine data replica garbling fragments"
    );

    // Same logical execution as full replication: identical key sets and
    // per-key write sequences, and independently atomic per key.
    sys_full.check_per_key_atomicity().expect("full atomicity");
    sys_coded
        .check_per_key_atomicity()
        .expect("coded atomicity");
    let keys =
        equivalent_write_histories(&keyed_histories(&sys_full), &keyed_histories(&sys_coded))
            .expect("full and coded executions must be equivalent");
    assert!(keys > 30, "Zipfian mix must touch many keys");

    // Placement: fragments land on exactly the same 2t+1 windows whole
    // copies would.
    let placement = sys_coded.bulk_placement();
    assert!(!placement.is_empty());
    for (shard, holders) in &placement {
        let window: BTreeSet<usize> = data_replica_slots(*shard, 9, 3).into_iter().collect();
        assert_eq!(holders, &window, "shard {shard} coded placement");
    }

    // The headline economics: per-replica stored payload bytes drop by
    // ~k× (k = 2 here; the only overhead is ≤ 1 padding byte per
    // dispersal). Compared replica by replica on identical workloads.
    for i in 0..9 {
        let b = sys_bulk.bulk_bytes_stored(i);
        let c = sys_coded.bulk_bytes_stored(i);
        assert_eq!(b == 0, c == 0, "server {i}: same windows, same holders");
        if b > 0 {
            let ratio = b as f64 / c as f64;
            assert!(
                ratio >= 1.9,
                "server {i}: coded mode must store ~2x fewer bytes than whole \
                 copies, got {b} vs {c} ({ratio:.2}x)"
            );
        }
    }
    // And the coded wire traffic is cheaper too: a `k = 1` push ships the
    // whole value to each of 3 replicas, a `k = 2` push half of it.
    assert!(
        report_bulk.bulk_bytes as f64 / report_coded.bulk_bytes as f64 > 1.3,
        "fragment dispersal must cut bulk-plane wire bytes: {} vs {}",
        report_bulk.bulk_bytes,
        report_coded.bulk_bytes
    );
}

/// Coded-mode cross-check without faults: values written through the
/// fragment plane read back exactly, across enough overwrites that
/// every fetch path (systematic stripes, parity reconstruction after a
/// miss) gets exercised.
#[test]
fn coded_round_trips_values_exactly() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(31)
        .shards(4)
        .writers(2)
        .extra_readers(1)
        .bulk_coded(2)
        .build();
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for round in 0..10u64 {
        for key in ["a", "b", "c"] {
            let val = round * 100 + key.as_bytes()[0] as u64;
            sys.put(key, val);
            expected.insert(key.to_string(), val);
        }
        assert!(sys.settle(), "round {round} must quiesce");
    }
    for (i, key) in expected.keys().enumerate() {
        sys.get(i % 3, key);
    }
    assert!(sys.settle());
    for (key, val) in &expected {
        let h = sys.history_for_key(key);
        assert_eq!(h.reads().last().expect("one get").kind.value(), &Some(*val));
    }
    sys.check_per_key_atomicity().expect("atomicity");
}

/// The builder refuses a reconstruction threshold the Byzantine bound
/// cannot support: with t = 1 on a 3-replica window, k = 3 would let a
/// single garbling replica starve every read.
#[test]
#[should_panic(expected = "coded reconstruction threshold")]
fn oversized_coded_threshold_is_refused_at_build() {
    let _: StoreSystem<u64> = StoreBuilder::asynchronous(1).bulk_coded(3).build();
}

/// Regression (REVIEW of ISSUE 5): the coded-plane knobs commute —
/// `.bulk_coded(k).data_replicas(m)` must configure the same deployment
/// as the documented `.data_replicas(m).bulk_coded(k)` AVID recipe.
/// Pre-fix, `data_replicas` unconditionally reset the plane to whole
/// copies, silently discarding `k`: the reversed call order built a
/// full-copy store with a `t + 1` push quorum and none of the
/// configured storage cut.
#[test]
fn coded_knobs_commute_with_data_replicas() {
    let a = StoreBuilder::asynchronous(1).data_replicas(4).bulk_coded(2);
    let b = StoreBuilder::asynchronous(1).bulk_coded(2).data_replicas(4);
    assert_eq!(a.config().plane, DataPlane::Coded { replicas: 4, k: 2 });
    assert_eq!(b.config().plane, a.config().plane);
    // `.bulk()` is `.bulk_coded(1)`: whole copies on the same window.
    let c = StoreBuilder::asynchronous(1).bulk_coded(2).bulk();
    assert_eq!(c.config().plane, DataPlane::Coded { replicas: 3, k: 1 });
    assert_eq!(
        StoreBuilder::asynchronous(1).bulk().config().plane,
        DataPlane::Coded { replicas: 3, k: 1 }
    );
}

/// `data_replicas` is checked against the fleet the builder ends up
/// with, not the one at call time: a window wider than the minimal
/// `8t + 1` fleet is fine once `n` grows to hold it, in either call
/// order.
#[test]
fn data_replicas_may_precede_the_fleet_size() {
    let early = StoreBuilder::asynchronous(1).data_replicas(12).n(13);
    let late = StoreBuilder::asynchronous(1).n(13).data_replicas(12);
    assert_eq!(
        early.config().plane,
        DataPlane::Coded { replicas: 12, k: 1 }
    );
    assert_eq!(late.config().plane, early.config().plane);
    let mut sys: StoreSystem<u64> = early.seed(3).build();
    sys.put("alpha", 11);
    assert!(sys.settle());
    sys.get(0, "alpha");
    assert!(sys.settle());
    let h = sys.history_for_key("alpha");
    assert_eq!(h.reads().next().unwrap().kind.value(), &Some(11));
    assert_eq!(sys.bulk_placement()[&0].len(), 12);
}

/// Regression (ISSUE 5): a fetch reply carrying a *superseded* fetch
/// tag — a late reply from an earlier retransmission round — must be
/// ignored entirely, not counted toward the current round's `bad`
/// threshold. Counting it would make harmless stragglers trigger the
/// all-bad fallback (a spurious metadata re-read) and, with enough of
/// them, could starve a fetch that honest replicas are answering.
#[test]
fn stale_fetch_tag_replies_are_ignored() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(11)
        .shards(1)
        .delay(DelayModel::Uniform {
            lo: SimDuration::millis(2),
            hi: SimDuration::millis(4),
        })
        .bulk()
        .build();
    sys.put("k", 5);
    assert!(sys.settle());
    sys.get(0, "k");
    let client = sys.clients[0];

    // Step the simulation in sub-link-delay slices until the bulk fetch
    // round is in flight (request sent, no reply arrived yet).
    let mut probe = None;
    for _ in 0..20_000 {
        sys.run_for(SimDuration::micros(200));
        probe = sys
            .sim
            .node_ref::<StoreClientNode<u64>, _>(client, |n| n.fetch_probe());
        if probe.is_some() {
            break;
        }
    }
    let (shard, digest, tag, bad) = probe.expect("the get must reach its bulk fetch");
    assert_eq!(bad, 0, "fresh round starts with a clean tally");

    // Deliver late replies tagged with the *previous* round from every
    // window replica (shard 0's window is servers 0..3). They carry
    // garbage bytes, so a tag check that leaked them into the tally
    // would count replica_count bad replies — exactly the spurious
    // fallback threshold.
    let replicas: Vec<_> = sys.servers[..3].to_vec();
    for (j, &replica) in replicas.iter().enumerate() {
        sys.sim
            .with_node::<StoreClientNode<u64>, _>(client, |n, ctx| {
                n.on_message(
                    replica,
                    StoreMsg::FragGetAck {
                        shard,
                        root: digest,
                        tag: tag.wrapping_sub(1),
                        frag: Some((j as u32, vec![j as u8; 8].into(), Vec::new())),
                    },
                    ctx,
                );
            });
    }
    assert_eq!(
        sys.sim
            .node_ref::<StoreClientNode<u64>, _>(client, |n| n.fetch_probe()),
        Some((shard, digest, tag, 0)),
        "stale-tagged replies must leave the current round untouched"
    );

    // Sanity that the tally itself works: one *current*-tag garbage
    // reply does count (so the stale replies above were dropped by the
    // tag check, not by some unrelated rejection).
    sys.sim
        .with_node::<StoreClientNode<u64>, _>(client, |n, ctx| {
            n.on_message(
                replicas[0],
                StoreMsg::FragGetAck {
                    shard,
                    root: digest,
                    tag,
                    frag: Some((0, vec![0xEE; 8].into(), Vec::new())),
                },
                ctx,
            );
        });
    assert_eq!(
        sys.sim
            .node_ref::<StoreClientNode<u64>, _>(client, |n| n.fetch_probe()),
        Some((shard, digest, tag, 1)),
        "a current-tag garbage reply is counted, so the fetch is still live"
    );

    // The honest replies then resolve the fetch normally.
    assert!(sys.settle());
    let h = sys.history_for_key("k");
    assert_eq!(h.reads().last().expect("the get").kind.value(), &Some(5));
    sys.check_per_key_atomicity().expect("atomicity");
}

/// Regression (REVIEW of ISSUE 5): the fetch round's bad tally counts
/// *distinct window replicas*, not replies. A Byzantine data replica —
/// or any process guessing the small monotonic fetch tag — spamming
/// garbage replies must contribute at most one bad entry (the dead-round
/// rule `bad ≥ m − k + 1` is sized for one vote per replica), and
/// replies from senders outside the shard's window must be ignored
/// entirely. Pre-fix, `bad` was a reply counter: one spammer could
/// fabricate a dead round every round and starve the read through
/// endless metadata re-read loops.
#[test]
fn fetch_bad_tally_counts_replicas_not_replies() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(23)
        .shards(1)
        .delay(DelayModel::Uniform {
            lo: SimDuration::millis(2),
            hi: SimDuration::millis(4),
        })
        .bulk()
        .build();
    sys.put("k", 9);
    assert!(sys.settle());
    sys.get(0, "k");
    let client = sys.clients[0];

    // Step until the bulk fetch round is in flight.
    let mut probe = None;
    for _ in 0..20_000 {
        sys.run_for(SimDuration::micros(200));
        probe = sys
            .sim
            .node_ref::<StoreClientNode<u64>, _>(client, |n| n.fetch_probe());
        if probe.is_some() {
            break;
        }
    }
    let (shard, digest, tag, bad) = probe.expect("the get must reach its bulk fetch");
    assert_eq!(bad, 0);

    // One Byzantine window replica spams garbage replies with the
    // *current* tag. With m = 3 replicas and whole copies (k = 1),
    // three counted replies would cross the dead-round bound
    // (bad ≥ m − k + 1 = 3) — but one sender must count once.
    let spammer = sys.servers[0];
    for burst in 0..3u8 {
        sys.sim
            .with_node::<StoreClientNode<u64>, _>(client, |n, ctx| {
                n.on_message(
                    spammer,
                    StoreMsg::FragGetAck {
                        shard,
                        root: digest,
                        tag,
                        frag: Some((0, vec![burst; 8].into(), Vec::new())),
                    },
                    ctx,
                );
            });
    }
    // And a non-window sender's garbage (server 5 is outside shard 0's
    // window {0, 1, 2}) is ignored outright.
    let outsider = sys.servers[5];
    sys.sim
        .with_node::<StoreClientNode<u64>, _>(client, |n, ctx| {
            n.on_message(
                outsider,
                StoreMsg::FragGetAck {
                    shard,
                    root: digest,
                    tag,
                    frag: Some((0, vec![0xEE; 8].into(), Vec::new())),
                },
                ctx,
            );
        });
    assert_eq!(
        sys.sim
            .node_ref::<StoreClientNode<u64>, _>(client, |n| n.fetch_probe()),
        Some((shard, digest, tag, 1)),
        "three spammed replies from one replica + one outsider reply \
         must tally exactly one bad replica"
    );

    // The honest replicas then resolve the fetch normally.
    assert!(sys.settle());
    let h = sys.history_for_key("k");
    assert_eq!(h.reads().last().expect("the get").kind.value(), &Some(9));
    sys.check_per_key_atomicity().expect("atomicity");
}

/// Retain-last-K GC: with `bulk_retain(2)`, overwrite churn stops
/// accumulating orphaned values — `bytes_stored` plateaus at K values per
/// key — while readers racing the overwrites keep succeeding (K = 2 keeps
/// a key's previous value resolvable; anything older falls back to a
/// metadata re-read, which names a live digest again).
#[test]
fn retain_last_k_gc_plateaus_under_overwrite_churn() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(17)
        .shards(2)
        .extra_readers(2)
        .bulk()
        .bulk_retain(2)
        .build();

    let keys: Vec<String> = (0..4).map(|k| format!("key{k}")).collect();
    let mut val = 0u64;
    let mut churn = |sys: &mut StoreSystem<u64>, rounds: u64| {
        for _ in 0..rounds {
            // Overwrite every key and race reads against the overwrites
            // (the gets are concurrent with the puts until `settle`).
            for key in &keys {
                val += 1;
                sys.put(key, val);
            }
            sys.get(1, "key0");
            sys.get(2, "key1");
            assert!(sys.settle(), "churn must quiesce");
        }
    };
    churn(&mut sys, 15);

    // Plateau shape: no replica holds more than K values per key (each
    // of the 9 servers holds at most the 4 keys of the two shards).
    for i in 0..9 {
        assert!(
            sys.bulk_blob_count(i) <= 2 * keys.len(),
            "server {i} exceeded the K=2 retention: {} blobs",
            sys.bulk_blob_count(i)
        );
    }

    // Exact plateau: every value encodes to the same size, so once every
    // key holds K values further churn must not grow stored bytes at all.
    let before: Vec<u64> = (0..9).map(|i| sys.bulk_bytes_stored(i)).collect();
    churn(&mut sys, 10);
    let after: Vec<u64> = (0..9).map(|i| sys.bulk_bytes_stored(i)).collect();
    assert_eq!(before, after, "bytes_stored must plateau under churn");

    // Semantics survive the GC: reads raced the overwrites all along.
    sys.check_per_key_atomicity()
        .expect("per-key atomicity under retention GC");
}

/// Per-key byte economics of one plane, `keys` keys on a single shard:
/// bulk-plane bytes per put over 48 measured puts (after a 16-put warm-up
/// that writes every key, so both shapes store 64 values), the largest
/// per-replica stored footprint, and bulk-plane bytes per get over 16
/// gets — all with 1 KiB values.
fn value_costs(builder: &StoreBuilder, keys: usize) -> (f64, u64, f64) {
    let mut sys: StoreSystem<SizedVal> = builder.build();
    let mut next_id = 0u64;
    let mut put = |sys: &mut StoreSystem<SizedVal>, i: usize| {
        next_id += 1;
        sys.put(&format!("key{}", i % keys), SizedVal::new(next_id, 1024));
        assert!(sys.settle());
    };
    for i in 0..16 {
        put(&mut sys, i);
    }
    let before = sys.sim.metrics().bulk_bytes_sent;
    for i in 0..48 {
        put(&mut sys, i);
    }
    let per_put = (sys.sim.metrics().bulk_bytes_sent - before) as f64 / 48.0;
    let stored = (0..sys.servers.len())
        .map(|i| sys.bulk_bytes_stored(i))
        .max()
        .unwrap();
    let before = sys.sim.metrics().bulk_bytes_sent;
    for i in 0..16 {
        sys.get(1, &format!("key{}", i % keys));
        assert!(sys.settle());
    }
    let per_get = (sys.sim.metrics().bulk_bytes_sent - before) as f64 / 16.0;
    sys.check_per_key_atomicity().expect("atomicity");
    (per_put, stored, per_get)
}

/// A put costs its value, not its shard — for every `k`. The same
/// 1 KiB workload on a shard of 1 key and on a shard of 16 keys must cost
/// the same bulk bytes per put and the same stored bytes per replica
/// (within 10 %), and a get must fetch one value's bytes, whatever the
/// shard holds. Dispersing the whole shard snapshot on every put — the
/// design this replaced — fails every one of these by ≈ 14–16×.
#[test]
fn a_put_costs_its_value_not_its_shard() {
    let base = StoreBuilder::asynchronous(1).seed(5).extra_readers(1);
    for k in [1, 2] {
        let builder = base.clone().bulk_coded(k);
        let (put_1, stored_1, get_1) = value_costs(&builder, 1);
        let (put_16, stored_16, get_16) = value_costs(&builder, 16);
        let within = |a: f64, b: f64| (a / b - 1.0).abs() <= 0.10;
        assert!(
            within(put_16, put_1),
            "k={k}: bulk bytes per put grew with the shard: {put_1:.0} at 1 key, \
             {put_16:.0} at 16 keys"
        );
        assert!(
            within(stored_16 as f64, stored_1 as f64),
            "k={k}: stored bytes per replica grew with the shard: {stored_1} at 1 key, \
             {stored_16} at 16 keys"
        );
        assert!(
            within(get_16, get_1),
            "k={k}: bulk bytes per get grew with the shard: {get_1:.0} at 1 key, \
             {get_16:.0} at 16 keys"
        );
        // One value per get: every one of the 3 window replicas is asked
        // once and answers with at most one encoded 1 KiB value (12
        // bytes of id and length) plus the request, its frame and its
        // proof (48 + 113 bytes at m = 3).
        assert!(
            get_16 <= 3.0 * (1036.0 + 200.0),
            "k={k}: a get fetched more than one value's bytes: {get_16:.0}"
        );
    }
}

/// Retention follows the value: with `bulk_retain(2)` a hot key written
/// 50 times evicts only its own old values — never the single value a
/// cold key of the same shard still references — and a wiped replica gets
/// the cold value back from anti-entropy under the cold key's own slot.
#[test]
fn retention_is_per_key_and_repairs_keep_the_slot() {
    use sbs_bulk::{encode_fragments, fragment_leaves, BulkCodec, MerkleTree};
    use sbs_store::CorrectServer;
    // Anti-entropy never quiesces (its gossip timer re-arms), so the
    // drill steps in slices of virtual time instead of settling.
    const STEP: SimDuration = SimDuration::millis(30);
    let base = StoreBuilder::asynchronous(1)
        .seed(13)
        .extra_readers(1)
        .bulk_retain(2)
        .anti_entropy(SimDuration::millis(2));
    for k in [1, 2] {
        let mut sys: StoreSystem<SizedVal> = base.clone().bulk_coded(k).build();
        // The hot key is written first, so the cold key's slot is not the
        // shard's first one.
        let cold = SizedVal::new(0, 1024);
        for id in 1..51 {
            sys.put("hot", SizedVal::new(id, 1024));
            sys.run_for(STEP);
            if id == 1 {
                sys.put("cold", cold);
                sys.run_for(STEP);
            }
        }
        sys.get(1, "cold");
        sys.run_for(STEP);
        let read = sys.history_for_key("cold");
        assert_eq!(
            read.reads().last().expect("the get").kind.value(),
            &Some(cold),
            "k={k}: the cold key must stay readable"
        );

        // The address the cold value is stored under, and who holds it.
        let bytes = cold.encode_to_vec();
        let address = MerkleTree::build(&fragment_leaves(&encode_fragments(&bytes, k, 3))).root();
        let holders = |sys: &mut StoreSystem<SizedVal>, i: usize| {
            let pid = sys.servers[i];
            sys.sim
                .node_ref::<CorrectServer<SizedVal>, _>(pid, |n| n.frag_store().holders(&address))
        };
        let window: Vec<usize> = data_replica_slots(0, 9, 3);
        let slots = holders(&mut sys, window[0]);
        assert_eq!(slots.len(), 1, "k={k}: one holder, the cold key's slot");
        for &i in &window {
            assert_eq!(holders(&mut sys, i), slots, "k={k}: replica {i}");
            // Per key, not per shard: the cold value and the hot key's
            // last two values.
            assert_eq!(sys.bulk_blob_count(i), 3, "k={k}: replica {i}");
        }

        let victim = window[1];
        sys.wipe_server_data(victim);
        assert!(holders(&mut sys, victim).is_empty());
        sys.run_for(SimDuration::millis(200));
        assert_eq!(
            holders(&mut sys, victim),
            slots,
            "k={k}: the repair must restore the cold value under its own slot"
        );
        assert!(sys.sim.metrics().slow_paths.repair_rounds > 0);
        sys.get(1, "cold");
        sys.run_for(STEP);
        sys.check_per_key_atomicity().expect("atomicity");
    }
}
