//! Coalescing acceptance: a client folds its queued same-shard ops into
//! shared register rounds, which must change the store's *economics*
//! under open-loop bursts (fewer metadata messages per op) without
//! changing anything the workload determines — verified differentially
//! against a sparse run of the identical declarative workload, where
//! almost nothing queues, plus a direct check of the ordering guarantee.

use sbs_check::{equivalent_write_histories, History};
use sbs_sim::SimDuration;
use sbs_store::{
    FaultPlan, KeyDist, LoopMode, OpMix, StoreBuilder, StoreSystem, Workload, WorkloadReport,
};
use std::collections::BTreeMap;

fn keyed_histories(sys: &StoreSystem<u64>) -> BTreeMap<String, History<Option<u64>>> {
    sys.keys_touched()
        .into_iter()
        .map(|k| {
            let h = sys.history_for_key(&k);
            (k, h)
        })
        .collect()
}

/// YCSB-A (50% writes) over 64 Zipfian keys, driven by `loop_mode`.
fn ycsb_a(ops: u64, loop_mode: LoopMode) -> Workload {
    Workload {
        ops,
        keys: 64,
        mix: OpMix::ycsb_a(),
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode,
        seed: 42,
        faults: FaultPlan::none(),
    }
}

/// Open-loop arrivals far faster than the per-op service time, so
/// client queues build.
fn bursty_ycsb_a(ops: u64) -> Workload {
    ycsb_a(
        ops,
        LoopMode::Open {
            mean_interarrival: SimDuration::micros(300),
        },
    )
}

/// Open-loop arrivals far sparser than one register round, so nearly
/// every op finds its client idle and runs alone.
fn sparse_ycsb_a(ops: u64) -> Workload {
    ycsb_a(
        ops,
        LoopMode::Open {
            mean_interarrival: SimDuration::millis(30),
        },
    )
}

/// The fleet every test here runs: 8 shards over 4 writers plus two
/// read-only clients.
fn fleet(builder: StoreBuilder) -> StoreBuilder {
    builder.seed(2015).shards(8).writers(4).extra_readers(2)
}

fn run(workload: Workload, builder: &StoreBuilder) -> (WorkloadReport, StoreSystem<u64>) {
    let ops = workload.ops;
    let (report, sys) = workload.run(builder);
    assert_eq!(report.completed, ops, "workload must complete");
    (report, sys)
}

/// Under open-loop bursts the default builder coalesces: its metadata
/// messages per op fall at least 20% below the closed-loop run of the
/// same fleet, where every op is a round of its own — on the full plane,
/// the coded bulk plane and in synchronous mode.
#[test]
fn bursts_coalesce_below_the_closed_loop_message_cost() {
    let ops = 300;
    for (label, builder) in [
        ("full", fleet(StoreBuilder::asynchronous(1))),
        ("coded", fleet(StoreBuilder::asynchronous(1).bulk_coded(2))),
        (
            "sync",
            fleet(StoreBuilder::synchronous(1, SimDuration::millis(5))),
        ),
    ] {
        let (closed, _) = run(ycsb_a(ops, LoopMode::Closed), &builder);
        let (bursty, _) = run(bursty_ycsb_a(ops), &builder);
        assert!(
            bursty.metadata_messages_per_op() <= 0.8 * closed.metadata_messages_per_op(),
            "{label}: bursts must coalesce: {:.2} msgs/op open vs {:.2} closed",
            bursty.metadata_messages_per_op(),
            closed.metadata_messages_per_op(),
        );
    }
}

/// Differential check of one plane: a sparse run of the open-loop
/// workload, where nearly every op runs alone (unbatched), against a
/// bursty run of it, where queued ops fold into shared rounds
/// (windowed). Each client gets the same op quota at both rates, so the
/// runs must agree on the key set, every per-key write sequence and
/// every per-key op count, however differently the bursts fold; the
/// bursty run's per-key histories must stay atomic. Returns the
/// (unbatched, windowed) reports.
fn assert_folding_is_differentially_equivalent(
    label: &str,
    builder: &StoreBuilder,
    ops: u64,
) -> (WorkloadReport, WorkloadReport) {
    let (sparse, sparse_sys) = run(sparse_ycsb_a(ops), builder);
    let (bursty, bursty_sys) = run(bursty_ycsb_a(ops), builder);
    let keys =
        equivalent_write_histories(&keyed_histories(&sparse_sys), &keyed_histories(&bursty_sys))
            .unwrap_or_else(|e| {
                panic!("{label}: coalescing must not change write histories: {e:?}")
            });
    assert!(
        keys > 20,
        "{label}: Zipfian mix must touch many keys: {keys}"
    );

    bursty_sys
        .check_per_key_atomicity()
        .unwrap_or_else(|e| panic!("{label}: bursty run must stay atomic: {e}"));
    (sparse, bursty)
}

/// On the full plane, folded (bursty) and unbatched (sparse) runs of the
/// same workload leave identical write histories, and folding cuts the
/// metadata messages the workload costs.
#[test]
fn windowed_and_unbatched_runs_are_differentially_equivalent() {
    let (unbatched, windowed) = assert_folding_is_differentially_equivalent(
        "full",
        &fleet(StoreBuilder::asynchronous(1)),
        400,
    );
    assert!(
        windowed.metadata_messages < unbatched.metadata_messages,
        "folding must cut metadata messages: {} vs {}",
        windowed.metadata_messages,
        unbatched.metadata_messages,
    );
}

/// The same differential claim on the bulk data plane, whole copies and
/// coded fragments: folding queued puts into one push+publish and queued
/// gets into one read+fetch must leave write histories untouched there
/// too.
#[test]
fn windowed_bulk_runs_are_differentially_equivalent() {
    for (label, builder) in [
        ("bulk", fleet(StoreBuilder::asynchronous(1).bulk())),
        ("coded", fleet(StoreBuilder::asynchronous(1).bulk_coded(2))),
    ] {
        assert_folding_is_differentially_equivalent(label, &builder, 400);
    }
}

/// Queue order is preserved through folding: a run of puts and the gets
/// behind them complete in invocation order, and a folded overwrite is
/// observed by the following get.
#[test]
fn batch_order_is_preserved_across_folded_runs() {
    // One shard, so every op is fold-eligible with its neighbors.
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1).seed(11).build();
    let ops = [
        sys.put("a", 1),
        sys.put("a", 2), // overwrites the first put within the fold
        sys.put("b", 3),
        sys.get(0, "a"),
        sys.get(0, "b"),
    ];
    assert!(sys.settle());
    assert_eq!(
        sys.completion_order(),
        ops.to_vec(),
        "completions must keep invocation order"
    );
    let ha = sys.history_for_key("a");
    assert_eq!(ha.reads().next().unwrap().kind.value(), &Some(2));
    let hb = sys.history_for_key("b");
    assert_eq!(hb.reads().next().unwrap().kind.value(), &Some(3));
    sys.check_per_key_atomicity()
        .expect("folded runs stay atomic");
}
