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
