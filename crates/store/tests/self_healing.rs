//! Self-healing data plane acceptance (ISSUE 9): a data replica that
//! loses fragments (mid-run wipe, corruption detected on
//! serve) pulls the committed state back from its window peers — no
//! writer republish — and the store re-converges: finite
//! [`StoreSystem::stabilization_time`], write histories equivalent to
//! an unfaulted same-seed run, online monitor quiet, stores
//! repopulated, repair traffic accounted as bulk bytes and slow-path
//! repair rounds.

use sbs_check::{equivalent_write_histories, History};
use sbs_sim::{DetRng, SimDuration};
use sbs_store::{FaultPlan, KeyDist, LoopMode, OpMix, StoreBuilder, StoreSystem, Workload};
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

/// `b` on full replication (`k = None`) or on the bulk plane with
/// reconstruction threshold `k` (`k = 1`: whole copies).
fn on_plane(b: StoreBuilder, k: Option<usize>) -> StoreBuilder {
    match k {
        None => b,
        Some(k) => b.bulk_coded(k),
    }
}

/// The planes every sweep below covers: full replication, whole copies,
/// 2-of-3 dispersal.
const PLANES: [Option<usize>; 3] = [None, Some(1), Some(2)];

/// A write-heavy workload so data stores populate early and keep
/// churning — the shape under which a wipe actually strands state.
fn ycsb_a(ops: u64, keys: usize, seed: u64) -> Workload {
    Workload {
        ops,
        keys,
        mix: OpMix::ycsb_a(),
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode: LoopMode::Closed,
        seed,
        faults: FaultPlan::none(),
    }
}

/// A direct wipe-then-repair drill on whole copies (`k = 1`): wipe a data
/// replica's store after committed puts; anti-entropy must pull every
/// value back from window peers with no further client activity —
/// counted as slow-path repair rounds and bulk-plane bytes.
#[test]
fn wiped_bulk_replica_repopulates_from_peers() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(7)
        .shards(4)
        .bulk()
        .anti_entropy(SimDuration::millis(2))
        .build();
    for i in 0..8u64 {
        sys.put(&format!("key{i}"), 100 + i);
    }
    sys.run_for(SimDuration::millis(50));
    let placement = sys.bulk_placement();
    let victim = *placement
        .values()
        .flatten()
        .next()
        .expect("puts must place copies on data replicas");
    let before = sys.bulk_blob_count(victim);
    assert!(before > 0, "victim must hold copies before the wipe");
    let bulk_bytes_before = sys.sim.metrics().bulk_bytes_sent;

    sys.wipe_server_data(victim);
    assert_eq!(sys.bulk_blob_count(victim), 0, "wipe must empty the store");
    sys.run_for(SimDuration::millis(100));

    assert_eq!(
        sys.bulk_blob_count(victim),
        before,
        "anti-entropy must pull every wiped copy back"
    );
    assert!(
        sys.sim.metrics().slow_paths.repair_rounds > 0,
        "repairs must be accounted as slow-path rounds"
    );
    assert!(
        sys.sim.metrics().bulk_bytes_sent > bulk_bytes_before,
        "repair traffic rides the bulk plane"
    );
}

/// The same drill with `k = 2`: the wiped replica
/// re-derives its **own window-position fragment** from `k` peer
/// fragments — it never sees the whole committed fragment set, and no
/// writer republishes anything.
#[test]
fn wiped_coded_replica_rederives_its_fragments() {
    let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
        .seed(7)
        .shards(4)
        .bulk_coded(2)
        .anti_entropy(SimDuration::millis(2))
        .build();
    for i in 0..8u64 {
        sys.put(&format!("key{i}"), 100 + i);
    }
    sys.run_for(SimDuration::millis(50));
    let victim = *sys
        .bulk_placement()
        .values()
        .flatten()
        .next()
        .expect("puts must place fragments on data replicas");
    let before = sys.bulk_blob_count(victim);
    assert!(before > 0, "victim must hold fragments before the wipe");

    sys.wipe_server_data(victim);
    assert_eq!(sys.bulk_blob_count(victim), 0);
    sys.run_for(SimDuration::millis(100));

    assert_eq!(
        sys.bulk_blob_count(victim),
        before,
        "anti-entropy must re-derive every wiped fragment"
    );
    assert!(sys.sim.metrics().slow_paths.repair_rounds > 0);
}

/// The seeded property loop (the tentpole differential obligation):
/// wiping **any single replica at any point** of a write-heavy run, on
/// any data plane, leaves a store that (a) completes the workload, (b)
/// reports a finite stabilization time stamped from the wipe, (c) keeps
/// the online consistency monitor quiet through wipe and repair, and
/// (d) produces write histories equivalent to an **unfaulted same-seed
/// run without self-healing** — the wipe-plus-repair cycle is
/// observably free.
#[test]
fn any_replica_wiped_at_any_point_reconverges() {
    let mut rng = DetRng::from_seed(0x5EA1);
    for case in 0u64..9 {
        let k = PLANES[case as usize % 3];
        let victim = rng.next_u32() as usize % 9;
        let at = SimDuration::millis(20 + rng.next_u64() % 140);
        let mk = || {
            let b = StoreBuilder::asynchronous(1)
                .seed(2015)
                .shards(8)
                .writers(4)
                .extra_readers(2);
            on_plane(b, k)
        };
        let label = format!("case {case}: k {k:?}, victim {victim}, wipe at {at}");

        let mut faulted = ycsb_a(240, 32, 900 + case);
        faulted.faults = FaultPlan {
            byzantine: vec![],
            corruptions: vec![],
            client_corruptions: vec![],
            link_garbage: vec![],
            data_wipes: vec![(at, victim)],
            reshards: vec![],
        };
        let healing = mk().anti_entropy(SimDuration::millis(2)).monitor();
        let (report, sys) = faulted.run(&healing);
        assert_eq!(report.completed, 240, "{label}");
        assert!(
            sys.sim.last_fault_at().is_some(),
            "{label}: the wipe must be stamped as a fault"
        );
        let st = sys
            .stabilization_time()
            .unwrap_or_else(|| panic!("{label}: wiped run must stabilize"));
        assert!(
            st < SimDuration::secs(10),
            "{label}: bounded recovery, got {st}"
        );
        assert!(
            sys.monitor().expect("monitor enabled").is_clean(),
            "{label}: monitor must stay quiet through wipe + repair: {:?}",
            sys.monitor_violations()
        );

        let unfaulted = ycsb_a(240, 32, 900 + case);
        let (plain_report, plain_sys) = unfaulted.run(&mk());
        assert_eq!(plain_report.completed, 240, "{label}");
        equivalent_write_histories(&keyed_histories(&sys), &keyed_histories(&plain_sys))
            .unwrap_or_else(|e| {
                panic!("{label}: wiped-then-repaired histories must match unfaulted: {e}")
            });
    }
}

/// Coded plane × retention: a replica keeps each key's last two values,
/// so a write-heavy workload over 8 keys evicts old dispersals all run
/// long, and gossip keeps naming them. Self-healing does not pull those
/// back (an evicted root is no repair suspect); a reader that does chase
/// one — it would have to be two overwrites behind — falls back to a
/// metadata re-read, which names a live value again. Under that churn
/// plus a mid-run wipe the run stays live, completes, passes per-key
/// atomicity and stabilizes.
#[test]
fn coded_eviction_churn_and_a_wipe_stay_atomic() {
    let builder = StoreBuilder::asynchronous(1)
        .seed(11)
        .shards(4)
        .writers(2)
        .bulk_coded(2)
        .anti_entropy(SimDuration::millis(2));
    let mut wl = ycsb_a(200, 8, 77);
    wl.faults = FaultPlan {
        byzantine: vec![],
        corruptions: vec![],
        client_corruptions: vec![],
        link_garbage: vec![],
        data_wipes: vec![(SimDuration::millis(40), 2)],
        reshards: vec![],
    };
    let (report, sys) = wl.run(&builder);
    assert_eq!(report.completed, 200);
    sys.check_per_key_atomicity()
        .expect("eviction churn + wipe must stay atomic per key");
    assert!(
        sys.stabilization_time().is_some(),
        "the wiped retention-bounded run must stabilize"
    );
}

/// Differential: with **no faults injected**, enabling anti-entropy is
/// behaviorally inert — same completions, equivalent write histories,
/// zero repair rounds. The last is the sharp edge: writers commit on a
/// sub-window push quorum and gossip can outrun a push, so a reader's
/// miss (or a peer's summary) routinely races data that is merely in
/// flight — the healer's suspect grace period must absorb those races
/// instead of billing repair rounds to a healthy fleet.
#[test]
fn anti_entropy_is_inert_without_faults() {
    for k in PLANES {
        let mk = || {
            let b = StoreBuilder::asynchronous(1)
                .seed(2015)
                .shards(8)
                .writers(4);
            on_plane(b, k)
        };
        let wl = ycsb_a(200, 32, 5);
        let (r_plain, sys_plain) = wl.run(&mk());
        let (r_heal, sys_heal) = wl.run(&mk().anti_entropy(SimDuration::millis(2)));
        assert_eq!(r_plain.completed, r_heal.completed);
        assert_eq!(r_heal.repair_rounds, 0, "k {k:?}: no fault, no repair work");
        equivalent_write_histories(&keyed_histories(&sys_plain), &keyed_histories(&sys_heal))
            .expect("anti-entropy must not change observable write histories");
    }
}

/// Build-time fleet validation (satellite 1): fragment indices are
/// GF(2⁸) field points, so a coded window beyond 256 replicas cannot be
/// encoded — the builder must refuse it loudly instead of letting
/// `encode_fragments` panic mid-run.
#[test]
#[should_panic(expected = "exceeds 256")]
fn coded_window_beyond_256_replicas_is_refused_at_build_time() {
    let _ = StoreBuilder::asynchronous(1)
        .n(300)
        .data_replicas(257)
        .bulk_coded(2)
        .config();
}
