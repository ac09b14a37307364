//! Online-monitor acceptance: the incremental checker flags a
//! deliberately injected recency violation **at event time** (with
//! culprit ops and a non-empty causal slice), stays silent on every
//! scenario shape the post-hoc checkers pass, and never perturbs the
//! simulation.

use sbs_core::ByzStrategy;
use sbs_sim::SimDuration;
use sbs_store::{FaultPlan, StoreBuilder, StoreClientNode, StoreSystem, Workload};

/// The observability suite's seeded differential workload: YCSB-B with a
/// server corruption and link garbage — tolerated faults, so the history
/// stays atomic and the monitor must stay quiet.
fn faulted_ycsb_b() -> Workload {
    let mut wl = Workload::ycsb_b(300, 64);
    wl.seed = 42;
    wl.faults = FaultPlan {
        byzantine: vec![],
        corruptions: vec![(SimDuration::millis(3), 1)],
        client_corruptions: vec![],
        link_garbage: vec![(SimDuration::millis(5), 2)],
        data_wipes: vec![],
        reshards: vec![],
    };
    wl
}

/// The mutation drill: a client whose resolved reads are served one
/// snapshot behind (the `weaken_recency` test hook). The second get
/// returns the value overwritten *before* it was invoked — a recency
/// violation the monitor must flag the moment that get completes.
#[test]
fn mutation_hook_trips_the_monitor_at_event_time() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(7)
        .trace(1 << 14)
        .monitor()
        .build();
    let client = sys.clients[0];
    sys.sim
        .with_node::<StoreClientNode<u64>, _>(client, |n, _| n.weaken_recency = true);

    sys.put("k", 1);
    assert!(sys.settle());
    let g1 = sys.get(0, "k");
    assert!(sys.settle());
    sys.put("k", 2);
    assert!(sys.settle());
    let g2 = sys.get(0, "k");
    assert!(sys.settle());

    // The first get predates the second put: serving the current
    // snapshot is fine. The second get is served the *previous*
    // snapshot — the stale read.
    let m = sys.monitor().expect("monitor enabled");
    assert_eq!(m.ops_observed(), 4);
    let violations = sys.monitor_violations();
    assert_eq!(
        violations.len(),
        1,
        "exactly the stale read is flagged: {violations:?}"
    );
    let v = &violations[0];
    assert_eq!(v.op, g2.0, "the flagged op is the stale get");
    assert_ne!(v.op, g1.0);
    assert_eq!(v.key, "k");
    assert!(v.at_ns > 0, "flagged with the completion's sim-time");
    assert!(
        v.culprits.contains(&g2.0),
        "culprit set names the stale read: {:?}",
        v.culprits
    );

    // The post-hoc checker agrees the mutated history is broken — the
    // monitor fired on a real violation, not noise.
    assert!(sys.check_per_key_atomicity().is_err());

    // The flight recorder cuts a non-empty causal slice around the
    // violating op and serializes it with the violation attached.
    let fr = sys.flight_recorder();
    assert!(!fr.is_empty(), "violation slice must not be empty");
    assert_eq!(fr.violations.len(), 1);
    assert!(fr.seed_ops.contains(&g2.0));
    let jsonl = fr.to_jsonl();
    assert!(jsonl.starts_with("{\"ev\":\"flight_meta\""));
    assert!(jsonl.contains("\"ev\":\"op_complete\""));
    let chrome = fr.to_chrome_trace();
    assert!(chrome.contains("\"name\":\"client-0\""));
    assert!(chrome.contains("\"name\":\"server-0\""));
}

/// Without the mutation hook, the identical script is clean: the hook —
/// not the script — is what the monitor catches.
#[test]
fn unmutated_script_is_clean() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(7)
        .trace(1 << 14)
        .monitor()
        .build();
    sys.put("k", 1);
    sys.settle();
    sys.get(0, "k");
    sys.settle();
    sys.put("k", 2);
    sys.settle();
    sys.get(0, "k");
    sys.settle();
    assert!(sys.monitor().unwrap().is_clean());
    sys.check_per_key_atomicity().unwrap();
    // Clean run, nothing pending: the flight recorder has nothing to
    // explain.
    assert!(sys.flight_recorder().is_empty());
}

/// Zero false positives: every scenario shape the post-hoc atomicity
/// checker passes must leave the monitor quiet — across modes, planes,
/// tolerated fault mixes, and a Byzantine server.
#[test]
fn monitor_is_quiet_on_every_passing_scenario() {
    let scenarios: Vec<(&str, Workload, StoreBuilder)> = vec![
        (
            "async-faulted",
            faulted_ycsb_b(),
            StoreBuilder::asynchronous(1)
                .seed(2015)
                .shards(8)
                .writers(4)
                .extra_readers(2),
        ),
        (
            "sync-faulted",
            faulted_ycsb_b(),
            StoreBuilder::synchronous(1, SimDuration::millis(1))
                .seed(2015)
                .shards(8)
                .writers(4)
                .extra_readers(2),
        ),
        (
            "bulk-byzantine",
            {
                let mut wl = Workload::ycsb_b(300, 32);
                wl.seed = 11;
                wl.faults = FaultPlan::one_byzantine(3, ByzStrategy::StaleReplay);
                wl
            },
            StoreBuilder::asynchronous(1)
                .seed(5)
                .shards(4)
                .writers(2)
                .extra_readers(1)
                .bulk(),
        ),
        (
            "coded",
            Workload::ycsb_b(200, 16),
            StoreBuilder::asynchronous(1)
                .seed(9)
                .shards(4)
                .writers(2)
                .bulk_coded(2),
        ),
        (
            "fault-free",
            Workload::ycsb_b(100, 16),
            StoreBuilder::asynchronous(1).seed(42).shards(2).writers(2),
        ),
    ];
    for (label, wl, builder) in scenarios {
        let ops = wl.ops;
        let (report, sys) = wl.run(&builder.trace(1 << 16).monitor());
        assert_eq!(report.completed, ops, "{label}: must complete");
        sys.check_per_key_atomicity()
            .unwrap_or_else(|e| panic!("{label}: post-hoc checker must pass: {e}"));
        let m = sys.monitor().expect("monitor enabled");
        assert_eq!(m.ops_observed(), ops, "{label}: every op monitored");
        if !m.is_clean() {
            // Leave a post-mortem for CI's flight-dump artifact step
            // before failing.
            let dump = format!("FLIGHT_store_test_{label}.jsonl");
            let _ = std::fs::write(&dump, sys.flight_recorder().to_jsonl());
            panic!(
                "{label}: false positive (slice dumped to {dump}): {:?}",
                sys.monitor_violations()
            );
        }
    }
}

/// The monitor is harness-side bookkeeping: enabling it must leave the
/// simulation's observable economics bit-identical.
#[test]
fn monitoring_is_behaviorally_inert() {
    let builder = StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2);
    let (_, plain) = faulted_ycsb_b().run(&builder);
    let (_, monitored) = faulted_ycsb_b().run(&builder.clone().monitor());
    assert_eq!(
        plain.sim.metrics(),
        monitored.sim.metrics(),
        "monitoring must not perturb the simulation"
    );
}

/// The health snapshot reflects the run: per-shard tallies sum to the
/// completed ops, every replica moved traffic, and the uniform workload
/// trips no hot-shard alarm.
#[test]
fn health_snapshot_tallies_the_run() {
    let (report, sys) = faulted_ycsb_b().run(
        &StoreBuilder::asynchronous(1)
            .seed(2015)
            .shards(8)
            .writers(4)
            .extra_readers(2),
    );
    let h = sys.health();
    assert_eq!(h.shards.len(), 8);
    let total: u64 = h.shards.iter().map(|s| s.ops()).sum();
    assert_eq!(total, report.completed);
    assert_eq!(h.pending_ops, 0);
    assert_eq!(h.replicas.len(), 9);
    for r in &h.replicas {
        assert!(r.msgs_in > 0, "replica {} saw no requests", r.server);
        assert!(r.msgs_out > 0, "replica {} sent no replies", r.server);
    }
    assert!(h.metadata_bytes_sent > 0);

    // A single hot key on many shards trips the detector.
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(3)
        .shards(4)
        .writers(2)
        .build();
    for i in 0..40u64 {
        sys.put("hot", i + 1);
        sys.settle();
    }
    let h = sys.health();
    let hot_shard = sys.routing_table().base().shard_of("hot");
    assert_eq!(h.hot_shards, vec![hot_shard]);
}
