//! Live resharding acceptance (ISSUE 10): a dual-commit shard handoff
//! driven mid-workload — any plan shape, any data plane, any mix, any
//! timing — must be **observably free**: the run completes, the online
//! monitor stays quiet, the stabilization clock (stamped at the handoff
//! start) reads finite, the final routing table is an exact partition at
//! the expected epoch, and per-key write histories are equivalent to the
//! same-seed run that never resharded.

use sbs_check::{equivalent_write_histories, History};
use sbs_core::ByzStrategy;
use sbs_sim::{DetRng, SimDuration, TraceEvent};
use sbs_store::{
    FaultPlan, KeyDist, KeyRouter, LoopMode, OpMix, ReshardPlan, RoutingTable, StoreBuilder,
    StoreClientNode, StoreSystem, Workload,
};
use std::collections::BTreeMap;

const SHARDS: u32 = 8;
const WRITERS: usize = 4;

fn keyed_histories(sys: &StoreSystem<u64>) -> BTreeMap<String, History<Option<u64>>> {
    sys.keys_touched()
        .into_iter()
        .map(|k| {
            let h = sys.history_for_key(&k);
            (k, h)
        })
        .collect()
}

fn workload(ops: u64, mix: OpMix, seed: u64) -> Workload {
    Workload {
        ops,
        keys: 32,
        mix,
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode: LoopMode::Closed,
        seed,
        faults: FaultPlan::none(),
    }
}

/// The sweep's fleet on full replication (`k = None`) or on the bulk
/// plane with reconstruction threshold `k` (`k = 1`: whole copies).
fn builder(k: Option<usize>) -> StoreBuilder {
    let b = StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(SHARDS)
        .writers(WRITERS)
        .extra_readers(2);
    match k {
        None => b,
        Some(k) => b.bulk_coded(k),
    }
}

/// The epoch-0 table every plan in the sweep is phrased against — the
/// same placement the builder deploys.
fn epoch0() -> RoutingTable {
    RoutingTable::initial(KeyRouter::new(SHARDS, WRITERS as u32))
}

/// One plan shape per residue: a single-shard migration, a whole-writer
/// merge, or a split that hands half of writer 0's shards to writer 3.
fn plan(shape: u64, rng: &mut DetRng) -> ReshardPlan {
    let t = epoch0();
    match shape % 3 {
        0 => {
            let shard = rng.next_u32() % SHARDS;
            let owner = t.writer_of_shard(shard) as u32;
            ReshardPlan::migrate(shard, (owner + 1) % WRITERS as u32)
        }
        1 => ReshardPlan::merge_writer(&t, 1 + rng.next_u32() % (WRITERS as u32 - 1), 0),
        _ => ReshardPlan::split_writer(&t, 0, WRITERS as u32 - 1),
    }
}

/// The seeded sweep (the tentpole's differential obligation): reshard
/// timing × mix (YCSB-A / YCSB-B) × data plane (full, `k = 1`, `k = 2`) ×
/// plan shape. Every case must complete, keep the monitor quiet, report
/// a finite bounded stabilization time, land on an exact-partition
/// table at epoch 1, and match the same-seed static run's write
/// histories key for key.
#[test]
fn any_reshard_at_any_point_is_observably_free() {
    let mut rng = DetRng::from_seed(0x2E5A);
    for case in 0u64..12 {
        let k = [None, Some(1), Some(2)][case as usize % 3];
        let mix = if (case / 3) % 2 == 0 {
            OpMix::ycsb_a()
        } else {
            OpMix::ycsb_b()
        };
        let at = SimDuration::millis(10 + rng.next_u64() % 120);
        let p = plan(case, &mut rng);
        let label = format!("case {case}: k {k:?}, reshard at {at}, plan {p:?}");

        let mut resharded = workload(240, mix, 4200 + case);
        resharded.faults.reshards = vec![(at, p)];
        let (report, sys) = resharded.run(&builder(k).monitor());
        assert_eq!(report.completed, 240, "{label}");
        assert!(!sys.reshard_active(), "{label}: the handoff must drain");
        assert_eq!(sys.routing_table().epoch(), 1, "{label}: epoch must flip");
        assert!(
            sys.routing_table().is_exact_partition(),
            "{label}: the committed table must partition the shard space"
        );
        sys.check_per_key_atomicity()
            .unwrap_or_else(|e| panic!("{label}: resharded histories must stay atomic: {e}"));
        assert!(
            sys.monitor().expect("monitor enabled").is_clean(),
            "{label}: monitor must stay quiet through the handoff: {:?}",
            sys.monitor_violations()
        );
        let st = sys
            .stabilization_time()
            .unwrap_or_else(|| panic!("{label}: resharded run must stabilize"));
        assert!(
            st < SimDuration::secs(10),
            "{label}: bounded handoff, got {st}"
        );

        let static_run = workload(240, mix, 4200 + case);
        let (plain_report, plain_sys) = static_run.run(&builder(k));
        assert_eq!(plain_report.completed, 240, "{label}");
        equivalent_write_histories(&keyed_histories(&sys), &keyed_histories(&plain_sys))
            .unwrap_or_else(|e| {
                panic!("{label}: resharded histories must match the static run: {e}")
            });
    }
}

/// Two plans in one schedule serialize: the second waits for the first
/// handoff to drain, both commit, and the run is still equivalent to
/// the static same-seed execution at epoch 2.
#[test]
fn sequential_reshards_serialize_and_compose() {
    let t0 = epoch0();
    let mut wl = workload(300, OpMix::ycsb_a(), 99);
    wl.faults.reshards = vec![
        (
            SimDuration::millis(20),
            ReshardPlan::merge_writer(&t0, 3, 1),
        ),
        (SimDuration::millis(25), ReshardPlan::migrate(0, 2)),
    ];
    let (report, sys) = wl.run(&builder(None).monitor());
    assert_eq!(report.completed, 300);
    assert!(!sys.reshard_active());
    assert_eq!(sys.routing_table().epoch(), 2, "both plans must commit");
    assert!(sys.routing_table().is_exact_partition());
    assert!(sys.routing_table().shards_of_writer(3).is_empty());
    assert_eq!(sys.routing_table().writer_of_shard(0), 2);
    sys.check_per_key_atomicity().expect("atomic");
    assert!(sys.monitor().expect("monitor").is_clean());

    let (_, plain_sys) = workload(300, OpMix::ycsb_a(), 99).run(&builder(None));
    equivalent_write_histories(&keyed_histories(&sys), &keyed_histories(&plain_sys))
        .expect("two serialized handoffs must still be observably free");
}

/// The stretch hook end to end: drive a hot-skewed workload, ask the
/// health surface for a rebalance plan, apply it live, and confirm the
/// dedicated owner and an exact partition at the next epoch — with
/// histories still atomic.
#[test]
fn health_proposed_rebalance_applies_live() {
    let mut sys: StoreSystem<u64> = builder(None).build();
    // Hammer one key so its shard dominates the completed-op counts.
    for i in 0..40u64 {
        sys.put("hot", 1000 + i);
        if i % 4 == 0 {
            sys.put(&format!("cold{i}"), 2000 + i);
        }
        assert!(sys.settle());
    }
    let plan = sys
        .propose_rebalance()
        .expect("a hot shard must yield a rebalance plan");
    let hot_shard = sys.routing_table().base().shard_of("hot");
    let hot_writer = sys.routing_table().writer_of_shard(hot_shard);
    sys.begin_reshard(&plan);
    assert!(sys.settle(), "the proposed handoff must drain");
    assert_eq!(sys.routing_table().epoch(), 1);
    assert!(sys.routing_table().is_exact_partition());
    assert_eq!(
        sys.routing_table().shards_of_writer(hot_writer),
        vec![hot_shard],
        "the hot shard's owner must end up dedicated to it"
    );
    // The store still works across the moved boundary.
    sys.put("hot", 9999);
    sys.put("cold0", 8888);
    assert!(sys.settle());
    sys.check_per_key_atomicity()
        .expect("atomic after rebalance");
}

/// A handoff that starts while the retiring owner's last put still has
/// its help round in flight: `ShardRetired` waits until that round has
/// ended, the acquiring owner's adoption read follows the retirement, and
/// the history stays atomic. A silent server on a synchronous fleet makes
/// the help round last a whole round timeout.
#[test]
fn retirement_waits_for_the_last_puts_help_round() {
    let mut sys: StoreSystem<u64> = StoreBuilder::synchronous(1, SimDuration::millis(5))
        .seed(21)
        .shards(2)
        .writers(2)
        .extra_readers(1)
        .byzantine(3, ByzStrategy::Silent)
        .trace(1 << 16)
        .build();
    let shard = sys.routing_table().shard_of("k");
    let old = sys.routing_table().writer_of_shard(shard);
    let new = 1 - old;
    let (old_pid, new_pid) = (sys.clients[old], sys.clients[new]);

    sys.put("k", 1);
    while sys.pending_ops() > 0 {
        sys.run_for(SimDuration::micros(50));
    }
    let help = sys
        .sim
        .node_ref::<StoreClientNode<u64>, _>(old_pid, |n| n.help_rounds());
    assert_eq!(help, vec![shard], "the last put's help round is in flight");
    sys.begin_reshard(&ReshardPlan::migrate(shard, new as u32));
    assert!(sys.settle(), "the handoff must drain");
    assert!(!sys.reshard_active());
    assert_eq!(sys.routing_table().writer_of_shard(shard), new);

    let first = |pid: sbs_sim::ProcessId, name: &str| {
        sys.tracer()
            .records()
            .find(|r| {
                r.pid == pid.0
                    && matches!(r.event, TraceEvent::Phase { shard: s, phase } if s == shard && phase == name)
            })
            .map(|r| r.at_ns)
            .unwrap_or_else(|| panic!("{pid} never entered {name}"))
    };
    let help_done = first(old_pid, "HelpDone");
    let retired = first(old_pid, "ShardRetired");
    let adoption_read = first(new_pid, "MetadataRead");
    assert!(
        retired >= help_done,
        "retired at {retired} before help ended at {help_done}"
    );
    assert!(
        adoption_read >= retired,
        "adoption read at {adoption_read} before the retirement"
    );
    assert!(first(new_pid, "ShardAcquired") > adoption_read);

    sys.put("k", 2);
    assert!(sys.settle());
    sys.get(2, "k");
    assert!(sys.settle());
    let h = sys.history_for_key("k");
    assert_eq!(h.reads().last().expect("a get").kind.value(), &Some(2));
    sys.check_per_key_atomicity()
        .expect("atomic across the handoff");
}
