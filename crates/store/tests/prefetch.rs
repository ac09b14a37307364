//! The get's prefetch on the bulk plane: when the sanity probe completes,
//! the client starts fetching the value whose reference a `last_quorum()`
//! of the probe's acks name, while the read round runs. The read round
//! still decides; the prefetch only saves the fetch's round trip when it
//! guessed the decided reference, and is dropped (counted as wasted)
//! otherwise.

use sbs_core::ByzStrategy;
use sbs_sim::{DelayModel, SimDuration, TraceEvent};
use sbs_store::{StoreBuilder, StoreClientNode, StoreSystem};

/// Trace events entering phase `name`.
fn phases(sys: &StoreSystem<u64>, name: &str) -> usize {
    sys.tracer()
        .records()
        .filter(|r| matches!(r.event, TraceEvent::Phase { phase, .. } if phase == name))
        .count()
}

fn bulk_gets(sys: &StoreSystem<u64>) -> u64 {
    sys.sim.metrics().sent_with_label("BULK_GET")
}

/// Steps the simulation until client `idx` has a fetch in flight (a
/// prefetch beside its read round, or a fetch round).
fn run_until_fetching(sys: &mut StoreSystem<u64>, idx: usize) {
    let client = sys.clients[idx];
    for _ in 0..20_000 {
        sys.run_for(SimDuration::micros(100));
        let probe = sys
            .sim
            .node_ref::<StoreClientNode<u64>, _>(client, |n| n.fetch_probe());
        if probe.is_some() {
            return;
        }
    }
    panic!("client {idx} never started a fetch");
}

/// Puts `vals` on the keys `key0 …`, one settled put at a time.
fn put_all(sys: &mut StoreSystem<u64>, vals: &[u64]) {
    for (i, &v) in vals.iter().enumerate() {
        sys.put(&format!("key{i}"), v);
        assert!(sys.settle(), "put key{i} must quiesce");
    }
}

/// Each key's last read returned `vals[i]`.
fn assert_reads(sys: &StoreSystem<u64>, vals: &[u64]) {
    for (i, &v) in vals.iter().enumerate() {
        let h = sys.history_for_key(&format!("key{i}"));
        let read = h.reads().last().expect("a get per key");
        assert_eq!(read.kind.value(), &Some(v), "get(key{i})");
    }
}

/// Hit: on a clean coded fleet every get's sanity probe names the value
/// the read round then decides, so every get resolves through its
/// prefetch — one fetch round per get, none wasted.
#[test]
fn every_get_on_a_clean_fleet_resolves_through_its_prefetch() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .bulk_coded(2)
        .seed(3)
        .shards(2)
        .extra_readers(1)
        .trace(1 << 16)
        .build();
    let vals: Vec<u64> = (0..8).map(|i| 100 + i).collect();
    put_all(&mut sys, &vals);
    assert_eq!(bulk_gets(&sys), 0, "puts fetch nothing");

    for i in 0..vals.len() {
        sys.get(1, &format!("key{i}"));
        assert!(sys.settle(), "get key{i} must quiesce");
    }
    assert_reads(&sys, &vals);
    let gets = vals.len();
    assert_eq!(phases(&sys, "Prefetch"), gets, "every get prefetches");
    assert_eq!(phases(&sys, "FetchRound"), gets, "and fetches once");
    assert_eq!(
        bulk_gets(&sys),
        3 * gets as u64,
        "one window-wide round per get"
    );
    let slow = sys.sim.metrics().slow_paths;
    assert_eq!(slow.wasted_prefetches, 0);
    assert_eq!(slow.retransmits, 0);
    assert_eq!(slow.metadata_rereads, 0);
}

/// Miss: a put on the key commits after the get's sanity probe and before
/// its read round reaches the servers. The prefetch fetches the old
/// value, the read decides the new one: the prefetch is wasted, the get
/// returns the read round's value, and the history stays atomic.
#[test]
fn a_put_between_probe_and_read_round_wastes_the_prefetch() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .bulk_coded(2)
        .seed(5)
        .delay(DelayModel::Constant(SimDuration::millis(1)))
        .extra_readers(1)
        .monitor()
        .build();
    sys.put("key0", 1);
    assert!(sys.settle());

    // The reader's links are twenty times slower than the writer's: a
    // put invoked when the reader's probe completes commits long before
    // the reader's read round reaches any server.
    let reader = sys.clients[1];
    let slow = DelayModel::Constant(SimDuration::millis(20));
    for s in sys.servers.clone() {
        sys.sim.set_link_delay(reader, s, slow.clone());
        sys.sim.set_link_delay(s, reader, slow.clone());
    }
    sys.get(1, "key0");
    run_until_fetching(&mut sys, 1);
    assert_eq!(bulk_gets(&sys), 3, "the prefetch is out");
    sys.put("key0", 2);
    assert!(sys.settle());

    assert_reads(&sys, &[2]);
    assert_eq!(sys.sim.metrics().slow_paths.wasted_prefetches, 1);
    assert_eq!(bulk_gets(&sys), 6, "the decided value is fetched afresh");
    sys.check_per_key_atomicity().expect("atomicity");
    assert!(sys.monitor().expect("monitor on").is_clean());
}

/// A Byzantine replica of the shard's window garbles every fragment it
/// serves, prefetches included: the garbled reply fails verification
/// against the root, and each get still resolves through its prefetch
/// from the honest replicas.
#[test]
fn a_garbling_window_replica_does_not_stop_a_prefetch() {
    for seed in 0..4u64 {
        // Shard 0's window is servers 0, 1, 2.
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
            .bulk_coded(2)
            .seed(seed)
            .extra_readers(1)
            .byzantine(1, ByzStrategy::RandomGarbage)
            .trace(1 << 16)
            .build();
        let vals: Vec<u64> = (0..6).map(|i| (seed + 1) << 32 | i).collect();
        put_all(&mut sys, &vals);
        for i in 0..vals.len() {
            sys.get(1, &format!("key{i}"));
            assert!(sys.settle(), "seed {seed}: get key{i} must quiesce");
        }
        assert_reads(&sys, &vals);
        let gets = vals.len();
        assert_eq!(phases(&sys, "Prefetch"), gets, "seed {seed}");
        assert_eq!(bulk_gets(&sys), 3 * gets as u64, "seed {seed}");
        let slow = sys.sim.metrics().slow_paths;
        assert_eq!(slow.wasted_prefetches, 0, "seed {seed}");
        assert_eq!(slow.dead_fetch_rounds, 0, "seed {seed}");
        sys.check_per_key_atomicity().expect("atomicity");
    }
}

/// A transient fault hits a client while its prefetch is in flight — the
/// reader, and the writer reading its own shard. The run completes and
/// the online monitor stays quiet.
#[test]
fn a_client_corruption_during_a_prefetch_stabilizes() {
    for idx in [0, 1] {
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
            .bulk_coded(2)
            .seed(9 + idx as u64)
            .shards(2)
            .extra_readers(1)
            .trace(1 << 16)
            .monitor()
            .build();
        let vals: Vec<u64> = (0..4).map(|i| 10 + i).collect();
        put_all(&mut sys, &vals);

        sys.get(idx, "key0");
        run_until_fetching(&mut sys, idx);
        assert_eq!(
            (phases(&sys, "Prefetch"), phases(&sys, "FetchRound")),
            (1, 0),
            "client {idx}: the fault lands while the read round runs"
        );
        sys.corrupt_client(idx);
        // More traffic after the fault, then every op must complete.
        for round in 0..3u64 {
            for i in 0..vals.len() {
                let key = format!("key{i}");
                sys.put(&key, 1_000 * (round + 1) + i as u64);
                sys.get(idx, &key);
                sys.get(1 - idx, &key);
            }
        }
        assert!(sys.settle(), "client {idx}: the run must quiesce");
        assert_eq!(sys.pending_ops(), 0, "client {idx}: every op completes");
        let monitor = sys.monitor().expect("monitor on");
        assert!(
            monitor.is_clean(),
            "client {idx}: monitor violations {:?}",
            sys.monitor_violations()
        );
    }
}
