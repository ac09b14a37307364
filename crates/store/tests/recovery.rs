//! Writer-map recovery (ROADMAP): a transiently corrupted shard owner
//! must re-read its own register and republish the authoritative map
//! *before* accepting its next put — otherwise the next put would publish
//! the scrambled map and silently lose every committed key of the shard.

use sbs_sim::SimDuration;
use sbs_store::{FaultPlan, KeyDist, LoopMode, OpMix, StoreBuilder, StoreSystem, Workload};

/// Two keys of one shard, committed one before and one after owner
/// corruption: the earlier key must survive, in both data planes.
#[test]
fn owner_corruption_republishes_before_next_put() {
    for bulk in [false, true] {
        let mut builder = StoreBuilder::asynchronous(1)
            .seed(41)
            .shards(2)
            .writers(1)
            .extra_readers(1);
        if bulk {
            builder = builder.bulk();
        }
        let mut sys: StoreSystem<u64> = builder.build();
        let router = *sys.routing_table().base();
        let mut shard0 = (0..64)
            .map(|i| format!("key{i}"))
            .filter(|k| router.shard_of(k) == 0);
        let first = shard0.next().unwrap();
        let second = shard0.next().unwrap();

        sys.put(&first, 11);
        assert!(sys.settle());

        // Corrupt the owner and let the fault fire while it is idle: the
        // authoritative map is now scrambled and recovery is queued.
        sys.corrupt_client(0);
        assert!(sys.settle());
        assert_eq!(
            sys.client_recoveries(0),
            0,
            "recovery waits for the next step"
        );

        // The next put must be preceded by re-read + republish of both
        // owned shards.
        sys.put(&second, 22);
        assert!(sys.settle());
        assert!(
            sys.client_recoveries(0) >= 1,
            "owner must recover before accepting the put (bulk={bulk})"
        );

        // Read through the *uncorrupted* client: the pre-corruption key
        // must still be there, exactly as written.
        sys.get(1, &first);
        sys.get(1, &second);
        assert!(sys.settle());
        let read_of = |sys: &StoreSystem<u64>, key: &str| {
            *sys.history_for_key(key)
                .reads()
                .last()
                .expect("one get per key")
                .kind
                .value()
        };
        assert_eq!(
            read_of(&sys, &first),
            Some(11),
            "committed key lost to owner corruption (bulk={bulk})"
        );
        assert_eq!(read_of(&sys, &second), Some(22));
    }
}

/// Mid-workload regression: owners corrupted while a closed-loop YCSB-A
/// mix is running. The workload must still complete (liveness through
/// recovery) and every corrupted owner must have recovered.
#[test]
fn mid_workload_owner_corruption_recovers_and_stays_live() {
    let builder = StoreBuilder::asynchronous(1)
        .seed(13)
        .shards(4)
        .writers(2)
        .extra_readers(1);
    let wl = Workload {
        ops: 200,
        keys: 16,
        mix: OpMix::ycsb_a(),
        dist: KeyDist::Uniform,
        loop_mode: LoopMode::Closed,
        seed: 21,
        faults: FaultPlan {
            client_corruptions: vec![(SimDuration::millis(20), 0), (SimDuration::millis(45), 1)],
            ..FaultPlan::default()
        },
    };
    let (report, mut sys) = wl.run(&builder);
    assert_eq!(report.completed, 200);
    assert!(
        sys.client_recoveries(0) >= 1,
        "writer 0 must have recovered"
    );
    assert!(
        sys.client_recoveries(1) >= 1,
        "writer 1 must have recovered"
    );
    // Post-corruption reads may transiently observe pre-repair state, so
    // full-history atomicity is not asserted here (same policy as the
    // server-corruption liveness test); the committed-key survival claim
    // is covered deterministically above.
}

/// The same mid-workload drill on the bulk plane: recovery's re-read
/// resolves the owner's own content-addressed reference (a bulk fetch)
/// before republishing.
#[test]
fn mid_workload_owner_corruption_recovers_in_bulk_mode() {
    let builder = StoreBuilder::asynchronous(1)
        .seed(17)
        .shards(4)
        .writers(2)
        .extra_readers(1)
        .bulk();
    let wl = Workload {
        ops: 150,
        keys: 16,
        mix: OpMix::ycsb_a(),
        dist: KeyDist::Uniform,
        loop_mode: LoopMode::Closed,
        seed: 23,
        faults: FaultPlan {
            client_corruptions: vec![(SimDuration::millis(25), 0)],
            ..FaultPlan::default()
        },
    };
    let (report, mut sys) = wl.run(&builder);
    assert_eq!(report.completed, 150);
    assert!(sys.client_recoveries(0) >= 1);
}

/// The adoption rule for dangling references. A writer that adopts a
/// shard's reference map — recovering from its own corruption, or
/// acquiring the shard in a reshard — resolves every adopted reference
/// once and drops a key whose reference is dead. Without the rule a
/// dangling reference would be republished on every later put, and a get
/// of its key would re-read the register and fetch the same dead
/// reference forever. Here a reference no dispersal backs is planted in
/// the owner's map under a key nobody writes, and published; a get of
/// that key spins until the owner adopts, then completes as absent — the
/// right answer for a key never written, so the monitor stays quiet —
/// while the shard's live key keeps its value.
#[test]
fn adoption_drops_dangling_references_so_gets_complete() {
    use sbs_bulk::BulkRef;
    use sbs_store::{ReshardPlan, StoreClientNode, ValueRef};
    for (k, acquire) in [(1, false), (2, false), (1, true), (2, true)] {
        let label = format!("k={k} acquire={acquire}");
        let builder = StoreBuilder::asynchronous(1)
            .seed(29)
            .shards(2)
            .writers(2)
            .extra_readers(1)
            .monitor()
            .bulk_coded(k);
        let mut sys: StoreSystem<u64> = builder.build();
        let router = *sys.routing_table().base();
        let owner = router.writer_of("ghost");
        let live = (0..64)
            .map(|i| format!("key{i}"))
            .find(|k| router.shard_of(k) == router.shard_of("ghost"))
            .unwrap();
        sys.put(&live, 1);
        assert!(sys.settle());

        let ghost = ValueRef {
            slot: 7,
            bref: BulkRef::to_bytes(b"never dispersed"),
        };
        let pid = sys.clients[owner];
        sys.sim
            .with_node::<StoreClientNode<u64>, _>(pid, |n, _| n.plant_ref("ghost", ghost));
        sys.put(&live, 2);
        assert!(sys.settle());

        // The planted reference is the register's now: a get of its key
        // finds every replica missing the value and re-reads, again and
        // again.
        sys.get(2, "ghost");
        sys.run_for(SimDuration::millis(20));
        assert_eq!(
            sys.pending_ops(),
            1,
            "{label}: the get spins on the dead reference"
        );
        assert!(
            sys.sim.metrics().slow_paths.dead_fetch_rounds > 0,
            "{label}"
        );

        if acquire {
            let other = 1 - owner as u32;
            let plan = ReshardPlan::merge_writer(sys.routing_table(), owner as u32, other);
            sys.begin_reshard(&plan);
            // The harness advances a handoff between drive slices; the
            // spinning get keeps the simulation from ever quiescing.
            while sys.reshard_active() {
                sys.run_for(SimDuration::millis(5));
            }
        } else {
            sys.corrupt_client(owner);
            sys.run_for(SimDuration::millis(1));
        }
        sys.put(&live, 3);
        assert!(sys.settle(), "{label}: the adoption must unblock the get");
        if !acquire {
            assert!(sys.client_recoveries(owner) >= 1, "{label}");
        }

        let read = |sys: &StoreSystem<u64>, key: &str| {
            *sys.history_for_key(key)
                .reads()
                .last()
                .expect("a get")
                .kind
                .value()
        };
        assert_eq!(
            read(&sys, "ghost"),
            None,
            "{label}: the dropped key reads absent"
        );
        sys.get(2, &live);
        sys.get(2, "ghost");
        assert!(sys.settle());
        assert_eq!(read(&sys, &live), Some(3), "{label}");
        assert_eq!(read(&sys, "ghost"), None, "{label}");
        assert!(
            sys.monitor().expect("monitor enabled").is_clean(),
            "{label}: {:?}",
            sys.monitor_violations()
        );
        sys.check_per_key_atomicity().expect("atomicity");
    }
}

/// A corrupted client's inversion-prevention memory (`pv` of Figure 3)
/// holds a scrambled reference map, and the policy keeps answering with
/// it while the quorum's stamps look older. Served, it either lacks a key
/// the quorum's map has, so the get answers "absent" for a written key
/// (seed 7's non-atomic read), or names a reference nothing backs — the
/// get re-reads and re-fetches it forever, and when the client is the
/// shard's own writer its queued recovery never runs (seeds 6 and 57
/// stalled; 57 is caught only by the dead-round half of the rule). A get
/// forgets such memory instead. The drill is the benchmark's faulted
/// coded plan: a Byzantine server, a server and a client corruption, link
/// garbage and a data wipe, with anti-entropy on.
#[test]
fn corrupted_reader_memory_is_forgotten_not_served() {
    use sbs_core::ByzStrategy;
    use sbs_store::SizedVal;
    for seed in [6u64, 7, 57] {
        let builder = StoreBuilder::asynchronous(1)
            .bulk_coded(2)
            .seed(seed)
            .shards(8)
            .writers(4)
            .extra_readers(2)
            .anti_entropy(SimDuration::millis(2))
            .monitor()
            .byzantine(3, ByzStrategy::StaleReplay);
        let wl = Workload {
            ops: 1200,
            keys: 64,
            mix: OpMix::ycsb_a(),
            dist: KeyDist::Zipfian { theta: 0.99 },
            loop_mode: LoopMode::Closed,
            seed,
            faults: FaultPlan {
                corruptions: vec![(SimDuration::millis(300), 1)],
                client_corruptions: vec![(SimDuration::millis(400), 0)],
                link_garbage: vec![(SimDuration::millis(500), 2)],
                data_wipes: vec![(SimDuration::millis(600), 7)],
                ..FaultPlan::default()
            },
        };
        let (report, sys) = wl.run_with(&builder, |id| SizedVal::new(id, 1024));
        assert_eq!(report.completed, 1200, "seed {seed}");
        assert!(
            sys.monitor().expect("monitor enabled").is_clean(),
            "seed {seed}: {:?}",
            sys.monitor_violations()
        );
        sys.check_per_key_atomicity()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(sys.stabilization_time().is_some(), "seed {seed}");
    }
}
