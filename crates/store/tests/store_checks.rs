//! Store-level integration: the acceptance scenario of the sharded store
//! (64 keys / 8 shards / one shared 9-server fleet / t = 1 / Byzantine
//! server / 1000-op Zipfian YCSB-B), plus property tests for the keyspace
//! router — determinism across runs, and per-key linearizability under a
//! Byzantine server within the `n ≥ 8t + 1` bound.

use sbs_check::{check_linearizable, InitialState};
use sbs_core::ByzStrategy;
use sbs_sim::{DelayModel, DetRng, SimDuration};
use sbs_store::{
    DataPlane, FaultPlan, KeyDist, KeyRouter, LoopMode, OpMix, RoutingTable, StoreBuilder,
    StoreSystem, SyncMode, Workload,
};

/// The acceptance run: a 64-key store sharded over 8 registers on one
/// shared 9-server fleet (t = 1) sustains a 1000-op Zipfian YCSB-B mix
/// with one Byzantine server, and every per-key history independently
/// passes the atomicity checker.
#[test]
fn acceptance_64key_8shard_ycsb_b_with_byzantine_server() {
    let builder = StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2);
    let mut wl = Workload::ycsb_b(1000, 64);
    wl.seed = 99;
    wl.faults = FaultPlan::one_byzantine(4, ByzStrategy::RandomGarbage);
    let (report, sys) = wl.run(&builder);

    assert_eq!(report.issued, 1000);
    assert_eq!(report.completed, 1000);
    assert!(report.reads > 900, "YCSB-B is 95% reads: {report:?}");
    assert!(report.writes > 10, "YCSB-B still writes: {report:?}");
    assert!(report.ops_per_sim_sec > 0.0);

    let checked = sys.check_per_key_atomicity().expect("per-key atomicity");
    assert!(checked > 30, "Zipfian mix must touch many keys: {checked}");
}

/// Router property (a): key→shard assignment is deterministic across
/// independently constructed routers and runs, and pins a frozen snapshot
/// (FNV-1a is platform- and process-independent, unlike SipHash).
#[test]
fn router_assignment_is_deterministic_across_runs() {
    let mut rng = DetRng::from_seed(0x5EED);
    for _ in 0..200 {
        let shards = rng.range_inclusive(1, 32) as u32;
        let writers = rng.range_inclusive(1, 8) as u32;
        let a = KeyRouter::new(shards, writers);
        let b = KeyRouter::new(shards, writers);
        let key = format!("key{}", rng.next_u64() % 10_000);
        assert_eq!(a.shard_of(&key), b.shard_of(&key));
        assert_eq!(a.writer_of(&key), b.writer_of(&key));
        assert!(a.shard_of(&key) < shards);
        assert!(a.writer_of(&key) < writers as usize);
    }
    // Frozen snapshot: any change to the hash or the sharding arithmetic
    // is a data-placement migration and must show up here.
    let r = KeyRouter::new(8, 4);
    let snapshot: Vec<u32> = (0..16).map(|i| r.shard_of(&format!("key{i}"))).collect();
    assert_eq!(
        snapshot,
        vec![4, 7, 2, 5, 0, 3, 6, 1, 4, 7, 5, 2, 7, 4, 1, 6],
        "key→shard placement changed — this breaks existing deployments"
    );
    // Epoch 0 of the versioned routing table is bit-identical to the
    // legacy static router over the same frozen keys: same shard, same
    // writer, for every key, shard count, and writer count — a fresh
    // deployment that never reshards places exactly as before.
    let t = RoutingTable::initial(r);
    assert_eq!(t.epoch(), 0);
    for i in 0..16 {
        let key = format!("key{i}");
        assert_eq!(t.shard_of(&key), r.shard_of(&key));
        assert_eq!(t.writer_of(&key), r.writer_of(&key), "key {key}");
    }
    let mut rng = DetRng::from_seed(0xE0);
    for _ in 0..100 {
        let shards = rng.range_inclusive(1, 32) as u32;
        let writers = rng.range_inclusive(1, 8) as u32;
        let r = KeyRouter::new(shards, writers);
        let t = RoutingTable::initial(r);
        let key = format!("key{}", rng.next_u64() % 10_000);
        assert_eq!(t.writer_of(&key), r.writer_of(&key));
        for s in 0..shards {
            assert_eq!(t.writer_of_shard(s), r.writer_of_shard(s));
        }
    }
}

/// Router property (b): under each Byzantine strategy, within the
/// asynchronous bound `n ≥ 8t + 1`, every shard's extracted per-key
/// history passes `check_linearizable`.
#[test]
fn per_key_histories_linearizable_under_byzantine_strategies() {
    let strategies = [
        ByzStrategy::Silent,
        ByzStrategy::StaleReplay,
        ByzStrategy::InversionHelper,
        ByzStrategy::AckFlood { copies: 3 },
    ];
    for (i, strat) in strategies.into_iter().enumerate() {
        let builder = StoreBuilder::asynchronous(1)
            .seed(77 + i as u64)
            .shards(4)
            .writers(2)
            .extra_readers(1);
        let mut wl = Workload {
            ops: 200,
            keys: 16,
            mix: OpMix::ycsb_a(),
            dist: KeyDist::Uniform,
            loop_mode: LoopMode::Closed,
            seed: 5 + i as u64,
            faults: FaultPlan::one_byzantine(i % 9, strat.clone()),
        };
        wl.seed += 1;
        let (report, sys) = wl.run(&builder);
        assert_eq!(report.completed, 200, "{strat:?}");
        // Judge each key directly with the checker (not just the harness
        // convenience wrapper).
        for key in sys.keys_touched() {
            let h = sys.history_for_key(&key);
            h.validate_unique_writes().expect("unique write values");
            let initial = InitialState::OneOf(std::iter::once(None).collect());
            let rep = check_linearizable(&h, &initial).expect("checkable");
            assert!(
                rep.linearizable,
                "{strat:?}: key {key} failed at segment {:?}",
                rep.failed_segment
            );
        }
    }
}

/// The open-loop mode drives the same store to completion: arrivals are
/// scheduled by time, late clients queue, and the drain loop finishes
/// every in-flight operation.
#[test]
fn open_loop_workload_completes() {
    let builder = StoreBuilder::asynchronous(1)
        .seed(31)
        .shards(4)
        .writers(2)
        .extra_readers(1);
    let wl = Workload {
        ops: 150,
        keys: 16,
        mix: OpMix::ycsb_b(),
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode: LoopMode::Open {
            mean_interarrival: SimDuration::millis(2),
        },
        seed: 8,
        faults: FaultPlan::none(),
    };
    let (report, sys) = wl.run(&builder);
    assert_eq!(report.completed, 150);
    // Open-loop histories queue operations at the clients, so a
    // backlogged client's ops overlap their successors; the monitor
    // retires what every linearization agrees on, so they are still
    // judged for atomicity.
    let keys = sys
        .check_per_key_atomicity()
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(keys, sys.keys_touched().len());
}

/// Transient faults from the fault plan (server corruption + link
/// garbage) do not wedge the store: the workload still completes.
#[test]
fn fault_plan_corruption_and_garbage_keep_liveness() {
    let builder = StoreBuilder::asynchronous(1).seed(13).shards(2).writers(2);
    let wl = Workload {
        ops: 120,
        keys: 8,
        mix: OpMix::ycsb_a(),
        dist: KeyDist::Uniform,
        loop_mode: LoopMode::Closed,
        seed: 21,
        faults: FaultPlan {
            byzantine: vec![],
            corruptions: vec![(SimDuration::millis(20), 0), (SimDuration::millis(40), 5)],
            client_corruptions: vec![],
            link_garbage: vec![(SimDuration::millis(30), 2)],
            data_wipes: vec![],
            reshards: vec![],
        },
    };
    let (report, _sys) = wl.run(&builder);
    assert_eq!(report.completed, 120);
    // Post-corruption reads may legitimately observe scrambled server
    // state before the next write repairs each shard, so per-key
    // atomicity is not asserted here — liveness is the claim. (The
    // stabilization suffix is exercised at the register layer by the
    // sbs-core gauntlet tests.)
}

/// Frozen snapshot of the store-layer quorum constants per mode (in the
/// style of the `KeyRouter` placement snapshot above): any change to the
/// derived quorum arithmetic alters what a deployed fleet accepts as
/// agreement and must show up here. Values per the Figure 2/5 table for
/// the two minimal t = 1 fleets.
#[test]
fn store_config_quorum_constants_frozen_snapshot() {
    // Asynchronous, n = 8t + 1 = 9.
    let a = StoreBuilder::asynchronous(1).shards(8).writers(4).config();
    assert_eq!((a.n, a.t), (9, 1));
    assert_eq!(a.mode, SyncMode::Async);
    assert_eq!((a.shards, a.writers), (8, 4));
    assert_eq!(a.plane, DataPlane::Full);
    assert_eq!(
        [
            a.ack_quorum,
            a.last_quorum,
            a.help_quorum,
            a.writer_help_quorum
        ],
        [8, 3, 3, 5],
        "async t=1 quorum constants changed — existing deployments break"
    );

    // Synchronous, n = 3t + 1 = 4, 1 ms link bound.
    let s = StoreBuilder::synchronous(1, SimDuration::millis(1)).config();
    assert_eq!((s.n, s.t), (4, 1));
    assert!(s.is_sync());
    assert_eq!(
        [
            s.ack_quorum,
            s.last_quorum,
            s.help_quorum,
            s.writer_help_quorum
        ],
        [4, 2, 2, 2],
        "sync t=1 quorum constants changed — existing deployments break"
    );
    // The derived round-trip timeout is frozen too: 2·bound + bound/2 + 1µs.
    assert_eq!(
        s.timeout().unwrap(),
        SimDuration::micros(2500) + SimDuration::micros(1)
    );

    // The bulk plane shows up in the snapshot: whole copies are its
    // one-stripe code on the 2t + 1 window.
    let b = StoreBuilder::asynchronous(1).bulk().config();
    assert_eq!(b.plane, DataPlane::Coded { replicas: 3, k: 1 });
}

/// A Byzantine index naming no server must fail loudly at build time —
/// it used to be silently ignored, deploying an all-honest fleet while
/// the test believed it was running under attack.
#[test]
#[should_panic(expected = "byzantine index 9 out of range")]
fn byzantine_index_out_of_range_panics() {
    let _: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .byzantine(9, ByzStrategy::Silent)
        .build();
}

/// Assigning two strategies to one server is a misconfiguration, not a
/// stronger adversary.
#[test]
#[should_panic(expected = "byzantine index 4 assigned twice")]
fn duplicate_byzantine_index_panics() {
    let _: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .byzantine(4, ByzStrategy::Silent)
        .byzantine(4, ByzStrategy::StaleReplay)
        .build();
}

/// More Byzantine slots than the tolerated `t` voids the resilience
/// claim; the builder refuses.
#[test]
#[should_panic(expected = "exceed the tolerated t=1")]
fn more_byzantine_slots_than_t_panics() {
    let _: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .byzantine(0, ByzStrategy::Silent)
        .byzantine(1, ByzStrategy::Silent)
        .build();
}

/// A synchronous deployment whose delay model can exceed the declared
/// link bound would wrongly suspect correct-but-slow servers; the builder
/// refuses at build time.
#[test]
#[should_panic(expected = "must dominate the delay model")]
fn sync_link_bound_below_delay_model_panics() {
    let _: StoreSystem<u64> = StoreBuilder::synchronous(1, SimDuration::millis(1))
        .delay(DelayModel::Uniform {
            lo: SimDuration::micros(50),
            hi: SimDuration::millis(2),
        })
        .build();
}

/// Shrinking the fleet below the mode's resilience bound via the `n`
/// override is caught by the same validation.
#[test]
#[should_panic(expected = "n >= 8t+1")]
fn n_override_below_resilience_bound_panics() {
    let _: StoreSystem<u64> = StoreBuilder::asynchronous(1).n(8).build();
}

/// Scaling sanity: more shards must not reduce the sustained
/// ops/simulated-second of a fixed workload (they relieve the per-shard
/// writer bottleneck).
#[test]
fn sharding_does_not_hurt_throughput() {
    let rate = |shards: u32, writers: usize| {
        let builder = StoreBuilder::asynchronous(1)
            .seed(55)
            .shards(shards)
            .writers(writers)
            .extra_readers(2);
        let mut wl = Workload::ycsb_b(300, 32);
        wl.seed = 17;
        let (report, _) = wl.run(&builder);
        assert_eq!(report.completed, 300);
        report.ops_per_sim_sec
    };
    let one = rate(1, 1);
    let eight = rate(8, 4);
    assert!(
        eight > one,
        "8 shards / 4 writers ({eight:.0} ops/s) should beat 1 shard / 1 writer ({one:.0} ops/s)"
    );
}
