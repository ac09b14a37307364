//! Synchronous-mode store acceptance (ISSUE 3): the Figure-5 / Appendix-A
//! variant reaches the whole kv-store/workload stack through
//! `StoreBuilder::synchronous` — a 4-server fleet for `t = 1` instead of
//! the asynchronous 9 — and behaves identically at the store contract
//! level: per-key atomicity under a Byzantine server, liveness under the
//! fault-plan corruption drills, composition with the bulk data plane,
//! and (differentially) the *same* per-key write histories as the
//! asynchronous deployment for the same derived op streams.

use sbs_check::{equivalent_write_histories, History, OpKind};
use sbs_core::ByzStrategy;
use sbs_sim::{DelayModel, SimDuration};
use sbs_store::{
    FaultPlan, KeyDist, LoopMode, OpMix, StoreBuilder, StoreSystem, SyncMode, Workload,
};
use std::collections::BTreeMap;

/// The declared per-link delay bound of every synchronous deployment in
/// this file (the builder's default delay model stays within it).
const LINK_BOUND: SimDuration = SimDuration::millis(1);

fn keyed_histories(sys: &StoreSystem<u64>) -> BTreeMap<String, History<Option<u64>>> {
    sys.keys_touched()
        .into_iter()
        .map(|k| {
            let h = sys.history_for_key(&k);
            (k, h)
        })
        .collect()
}

fn sync_builder() -> StoreBuilder {
    StoreBuilder::synchronous(1, LINK_BOUND)
        .seed(2015)
        .shards(4)
        .writers(2)
        .extra_readers(1)
}

/// 300 closed-loop operations over 16 Zipfian keys.
fn zipfian_300(mix: OpMix, faults: FaultPlan) -> Workload {
    Workload {
        ops: 300,
        keys: 16,
        mix,
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode: LoopMode::Closed,
        seed: 99,
        faults,
    }
}

/// The headline acceptance: `StoreBuilder::synchronous(1, …)` builds a
/// 4-server store that sustains YCSB-A and YCSB-B mixes with one
/// Byzantine server, and every per-key history passes the atomicity
/// checker — half the fleet the asynchronous acceptance run needs.
#[test]
fn sync_4server_store_passes_atomicity_under_byzantine_ycsb_a_and_b() {
    for (mix, label) in [(OpMix::ycsb_a(), "ycsb-a"), (OpMix::ycsb_b(), "ycsb-b")] {
        let builder = sync_builder();
        assert_eq!(builder.config().n, 4, "t=1 sync minimal fleet is 3t+1");
        let wl = zipfian_300(mix, FaultPlan::one_byzantine(2, ByzStrategy::RandomGarbage));
        let (report, sys) = wl.run(&builder);
        assert_eq!(report.completed, 300, "{label}");
        let checked = sys
            .check_per_key_atomicity()
            .unwrap_or_else(|e| panic!("{label}: sync-mode per-key atomicity: {e}"));
        assert!(
            checked > 4,
            "{label}: Zipfian mix must touch keys: {checked}"
        );
    }
}

/// The differential acceptance: a synchronous 4-server run and an
/// asynchronous 9-server run of the *same* declarative workload issue the
/// same schedule-independent per-client op streams (the PR-2 driver
/// rule), so their per-key write histories must be equivalent — key set,
/// write sequence, and op counts — even though every quorum size, round
/// rule, and fleet differ between the two.
#[test]
fn sync_n4_matches_async_n9_write_histories_differentially() {
    let wl = Workload {
        ops: 400,
        keys: 32,
        mix: OpMix::ycsb_a(),
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode: LoopMode::Closed,
        seed: 7,
        faults: FaultPlan::none(),
    };
    let async_builder = StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(4)
        .writers(2)
        .extra_readers(1);
    let sync_builder = sync_builder();

    let (report_async, sys_async) = wl.run(&async_builder);
    let (report_sync, sys_sync) = wl.run(&sync_builder);

    assert_eq!(sys_async.config().n, 9);
    assert_eq!(sys_sync.config().n, 4);
    assert_eq!(report_async.completed, 400);
    assert_eq!(report_sync.completed, 400);

    // Each execution is independently correct…
    let keys_async = sys_async
        .check_per_key_atomicity()
        .expect("async atomicity");
    let keys_sync = sys_sync.check_per_key_atomicity().expect("sync atomicity");
    assert_eq!(keys_async, keys_sync);

    // …and they are the same logical execution: equivalence of two wrong
    // runs would prove nothing, which is why atomicity is checked first.
    let compared =
        equivalent_write_histories(&keyed_histories(&sys_async), &keyed_histories(&sys_sync))
            .expect("sync(n=4) and async(n=9) must produce equivalent write histories");
    assert_eq!(compared, keys_sync);
}

/// Transient corruption drills (server corruption + link garbage +
/// owner corruption) on the synchronous fleet: the workload still
/// completes and corrupted owners recover. Mirrors the asynchronous
/// drills; per the same policy, post-corruption atomicity is not asserted
/// — liveness and recovery are the claims.
#[test]
fn sync_store_survives_fault_plan_corruption_drills() {
    let builder = StoreBuilder::synchronous(1, LINK_BOUND)
        .seed(13)
        .shards(2)
        .writers(2);
    let wl = Workload {
        ops: 120,
        keys: 8,
        mix: OpMix::ycsb_a(),
        dist: KeyDist::Uniform,
        loop_mode: LoopMode::Closed,
        seed: 21,
        faults: FaultPlan {
            byzantine: vec![],
            corruptions: vec![(SimDuration::millis(20), 0), (SimDuration::millis(40), 3)],
            client_corruptions: vec![(SimDuration::millis(30), 0)],
            link_garbage: vec![(SimDuration::millis(30), 2)],
            data_wipes: vec![],
            reshards: vec![],
        },
    };
    let (report, mut sys) = wl.run(&builder);
    assert_eq!(report.completed, 120);
    assert!(
        sys.client_recoveries(0) >= 1,
        "corrupted sync-mode owner must run writer-map recovery"
    );
}

/// Mode × plane composition: the synchronous store runs on the bulk data
/// plane too (2t+1 = 3 data replicas out of the 4-server fleet), with a
/// Byzantine server that garbles both register replies and served bulk
/// bytes. Bulk ack-waits and fetch rounds follow the sync timeout
/// discipline instead of the asynchronous retransmission period.
#[test]
fn sync_composes_with_bulk_plane_under_byzantine_replica() {
    let builder = sync_builder().bulk().seed(5);
    let wl = Workload {
        ops: 200,
        keys: 16,
        mix: OpMix::ycsb_a(),
        dist: KeyDist::Uniform,
        loop_mode: LoopMode::Closed,
        seed: 11,
        faults: FaultPlan::one_byzantine(1, ByzStrategy::RandomGarbage),
    };
    let (report, sys) = wl.run(&builder);
    assert_eq!(report.completed, 200);
    assert!(report.bulk_bytes > 0, "payload must travel the bulk plane");
    sys.check_per_key_atomicity()
        .expect("sync + bulk per-key atomicity");
}

/// The open-loop driver is mode-generic as well: timed arrivals against
/// the synchronous fleet drain to completion.
#[test]
fn sync_open_loop_workload_completes() {
    let builder = StoreBuilder::synchronous(1, LINK_BOUND)
        .seed(31)
        .shards(2)
        .writers(2);
    let wl = Workload {
        ops: 100,
        keys: 8,
        mix: OpMix::ycsb_b(),
        dist: KeyDist::Uniform,
        loop_mode: LoopMode::Open {
            mean_interarrival: SimDuration::millis(4),
        },
        seed: 8,
        faults: FaultPlan::none(),
    };
    let (report, _sys) = wl.run(&builder);
    assert_eq!(report.completed, 100);
}

/// The snapshot carries the derived timeout: request + acknowledgement
/// round trip plus queueing slack over the declared bound.
#[test]
fn sync_config_snapshot_carries_derived_timeout() {
    let cfg = sync_builder().config();
    assert!(cfg.is_sync());
    let timeout = cfg.timeout().expect("sync mode has a timeout");
    assert!(
        timeout > LINK_BOUND * 2,
        "round-trip timeout must cover two bounded transfers, got {timeout}"
    );
    // And it is exactly the surfaced derivation rule.
    assert_eq!(timeout, sbs_core::round_trip_timeout(LINK_BOUND));
    assert!(matches!(cfg.mode, SyncMode::Sync { .. }));
    // The asynchronous snapshot has none.
    assert_eq!(StoreBuilder::asynchronous(1).config().timeout(), None);
}

/// The virtual-time latency (`responded − invoked`) of every completed
/// put of the run, smallest first.
fn put_latencies(sys: &StoreSystem<u64>) -> Vec<SimDuration> {
    let mut lat: Vec<SimDuration> = keyed_histories(sys)
        .values()
        .flat_map(|h| h.ops())
        .filter(|r| matches!(r.kind, OpKind::Write(_)))
        .map(|r| r.responded - r.invoked)
        .collect();
    lat.sort();
    lat
}

/// Synchronous rounds end on acknowledgements, not on the clock: with
/// every server answering within a tenth of the bound, no put — most of
/// these run a `NEW_HELP_VAL` round, because a reader's `READ(true)` reset
/// its helping slot — takes even one round timeout, and no round timer
/// fires at all.
#[test]
fn sync_puts_never_wait_out_a_timeout_when_every_server_answers() {
    let builder = sync_builder().delay(DelayModel::Uniform {
        lo: SimDuration::micros(10),
        hi: SimDuration::nanos(LINK_BOUND.as_nanos() / 10),
    });
    let timeout = builder.config().timeout().expect("sync mode");
    let (report, sys) = zipfian_300(OpMix::ycsb_a(), FaultPlan::none()).run(&builder);
    assert_eq!(report.completed, 300);
    let lat = put_latencies(&sys);
    assert!(lat.len() > 50, "YCSB-A must issue puts: {}", lat.len());
    let slowest = *lat.last().expect("puts");
    assert!(
        slowest < timeout,
        "slowest put took {slowest}, a round timeout is {timeout}"
    );
    assert_eq!(sys.sim.metrics().timers_fired, 0);
    sys.check_per_key_atomicity().expect("per-key atomicity");
}

/// The timeout is still what ends a round a server withholds its
/// acknowledgement from. A silent server costs every put at least one
/// timeout (its write round never sees all `n`); a server that repeats its
/// acks and sprays random-tag `SS_ACK`s is one identity and cannot stand
/// in for a correct one. Either way the store stays atomic and the online
/// monitor quiet, and a round timer the engine cancels after it fired
/// leaves nothing behind in the simulator.
#[test]
fn sync_rounds_fall_back_to_the_timeout_under_a_withholding_server() {
    let builder = sync_builder().monitor();
    let timeout = builder.config().timeout().expect("sync mode");
    for strategy in [ByzStrategy::Silent, ByzStrategy::AckFlood { copies: 3 }] {
        let faults = FaultPlan::one_byzantine(2, strategy.clone());
        let (report, sys) = zipfian_300(OpMix::ycsb_a(), faults).run(&builder);
        assert_eq!(report.completed, 300, "{strategy:?}");
        sys.check_per_key_atomicity()
            .unwrap_or_else(|e| panic!("{strategy:?}: per-key atomicity: {e}"));
        assert!(sys.monitor_violations().is_empty(), "{strategy:?}");
        assert!(sys.sim.metrics().timers_fired > 0, "{strategy:?}");
        assert_eq!(sys.sim.armed_timers(), 0, "{strategy:?}");
        if matches!(strategy, ByzStrategy::Silent) {
            let fastest = put_latencies(&sys)[0];
            assert!(
                fastest >= timeout,
                "a put finished in {fastest} with a server silent"
            );
        }
    }
}
