//! The deployment core against a **fake host**: the orchestration the
//! simulator can never reach by scheduling — control events in every
//! arrival order, strays and duplicates, a wipe aimed at a Byzantine
//! slot, a completion delivered twice — driven directly through the
//! `DeployHost` seam, with every call the core makes on the backend
//! recorded instead of executed.

use sbs_core::ByzStrategy;
use sbs_sim::{ProcessId, SimTime};
use sbs_store::{
    ClientCall, DeployCore, DeployHost, KeyRouter, ReshardPlan, StoreBuilder, StoreOut,
};
use std::collections::BTreeSet;

/// Records what the core asks of its backend; time moves only when a
/// test moves it.
#[derive(Default)]
struct FakeHost {
    now_ns: u64,
    calls: Vec<(ProcessId, ClientCall<u64>)>,
    wipes: Vec<(ProcessId, bool)>,
    faults: Vec<(ProcessId, &'static str)>,
}

impl DeployHost<u64> for FakeHost {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns)
    }
    fn call_client(&mut self, client: ProcessId, call: ClientCall<u64>) {
        self.calls.push((client, call));
    }
    fn wipe_server(&mut self, server: ProcessId, byzantine: bool) {
        self.wipes.push((server, byzantine));
    }
    fn stamp_fault(&mut self, pid: ProcessId, what: &'static str) {
        self.faults.push((pid, what));
    }
}

impl FakeHost {
    fn acquires(&self) -> Vec<(ProcessId, u32)> {
        self.calls
            .iter()
            .filter_map(|(pid, call)| match call {
                ClientCall::AcquireShard { shard } => Some((*pid, *shard)),
                _ => None,
            })
            .collect()
    }
}

/// 4 shards over 2 writers on the 9-server asynchronous fleet (clients
/// are processes 0–1, servers 2–10), server slot 3 Byzantine, monitor on.
fn core() -> DeployCore<u64> {
    let builder = StoreBuilder::asynchronous(1).shards(4).writers(2);
    DeployCore::new(
        (0..2).map(ProcessId).collect(),
        (2..11).map(ProcessId).collect(),
        KeyRouter::new(4, 2),
        builder.config(),
        BTreeSet::from([3]),
        true,
    )
}

/// Retires writer 1: its shards 1 and 3 both move to writer 0.
fn begin_two_move_reshard(core: &mut DeployCore<u64>, host: &mut FakeHost) {
    let plan = ReshardPlan::merge_writer(core.routing_table(), 1, 0);
    core.begin_reshard(host, &plan);
}

fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut all = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            all.push(tail);
        }
    }
    all
}

#[test]
fn begin_reshard_stamps_then_retires_grants_and_commits() {
    let (mut core, mut host) = (core(), FakeHost::default());
    begin_two_move_reshard(&mut core, &mut host);
    let (old, new) = (ProcessId(1), ProcessId(0));
    assert_eq!(host.faults, vec![(new, "reshard")]);
    assert_eq!(
        host.calls,
        vec![
            (old, ClientCall::RetireShard { shard: 1 }),
            (new, ClientCall::GrantShard { shard: 1 }),
            (old, ClientCall::RetireShard { shard: 3 }),
            (new, ClientCall::GrantShard { shard: 3 }),
            (
                new,
                ClientCall::CommitEpoch {
                    epoch: 1,
                    owners: vec![0, 0, 0, 0]
                }
            ),
        ]
    );
    // New puts route by the next epoch immediately.
    assert!(core.reshard_active());
    assert_eq!(core.routing_table().epoch(), 1);
}

#[test]
fn acquires_wait_for_every_retire_and_the_commit_in_every_arrival_order() {
    let events = [
        StoreOut::ShardRetired { shard: 1 },
        StoreOut::ShardRetired { shard: 3 },
        StoreOut::EpochCommitted { epoch: 1 },
        StoreOut::ShardAcquired { shard: 1 },
        StoreOut::ShardAcquired { shard: 3 },
    ];
    for order in permutations(&[0usize, 1, 2, 3, 4]) {
        let (mut core, mut host) = (core(), FakeHost::default());
        begin_two_move_reshard(&mut core, &mut host);
        let mut seen = BTreeSet::new();
        for &e in &order {
            // Every event arrives twice: the duplicate must be inert.
            for _ in 0..2 {
                assert_eq!(
                    core.record(SimTime::ZERO, ProcessId(0), events[e].clone()),
                    None
                );
                core.advance_reshard(&mut host);
                seen.insert(e);
                let gated = [0, 1, 2].iter().all(|g| seen.contains(g));
                let expected = if gated {
                    vec![(ProcessId(0), 1), (ProcessId(0), 3)]
                } else {
                    Vec::new()
                };
                assert_eq!(host.acquires(), expected, "order {order:?} after {seen:?}");
                assert_eq!(core.reshard_active(), seen.len() < 5, "order {order:?}");
            }
        }
        assert_eq!(
            host.calls.len(),
            5 + 2,
            "nothing but the two acquires was added"
        );
    }
}

#[test]
fn stray_control_events_change_nothing() {
    let strays = [
        StoreOut::ShardRetired { shard: 0 },
        StoreOut::ShardAcquired { shard: 2 },
        StoreOut::ShardRetired { shard: 1 },
        StoreOut::ShardRetired { shard: 1 },
        StoreOut::ShardAcquired { shard: 3 },
    ];
    // With no reshard in flight, no control event does anything.
    let (mut core, mut host) = (core(), FakeHost::default());
    for e in strays
        .iter()
        .cloned()
        .chain([StoreOut::EpochCommitted { epoch: 7 }])
    {
        assert_eq!(core.record(SimTime::ZERO, ProcessId(0), e), None);
        core.advance_reshard(&mut host);
    }
    assert!(!core.reshard_active() && host.calls.is_empty() && host.faults.is_empty());
    assert_eq!((core.completed_ops(), core.pending_ops()), (0, 0));
    assert_eq!(core.routing_table().epoch(), 0);

    // In flight: shards outside the plan and a retire delivered twice
    // neither open the acquire gate (shard 3 has not retired) nor end
    // the handoff.
    begin_two_move_reshard(&mut core, &mut host);
    for e in strays
        .iter()
        .cloned()
        .chain([StoreOut::EpochCommitted { epoch: 1 }])
    {
        assert_eq!(core.record(SimTime::ZERO, ProcessId(0), e), None);
        core.advance_reshard(&mut host);
    }
    assert!(host.acquires().is_empty());
    assert!(core.reshard_active());
    core.record(
        SimTime::ZERO,
        ProcessId(1),
        StoreOut::ShardRetired { shard: 3 },
    );
    core.advance_reshard(&mut host);
    assert_eq!(host.acquires().len(), 2);
    assert!(core.reshard_active(), "shard 1 was never acquired");
}

#[test]
#[should_panic(expected = "a reshard is already in flight")]
fn begin_reshard_while_one_is_active_panics() {
    let (mut core, mut host) = (core(), FakeHost::default());
    begin_two_move_reshard(&mut core, &mut host);
    core.begin_reshard(&mut host, &ReshardPlan::migrate(0, 1));
}

#[test]
fn a_wipe_is_typed_by_the_slot_it_lands_on() {
    let (core, mut host) = (core(), FakeHost::default());
    core.wipe_server_data(&mut host, 3);
    core.wipe_server_data(&mut host, 2);
    assert_eq!(
        host.wipes,
        vec![(ProcessId(2 + 3), true), (ProcessId(2 + 2), false)]
    );
    assert_eq!(
        host.faults,
        vec![(ProcessId(5), "data-wipe"), (ProcessId(4), "data-wipe")]
    );
    // The slot set reaches a runtime-detached fleet too, so the socket
    // backend dispatches on the same facts as the simulator.
    let set = StoreBuilder::asynchronous(1)
        .byzantine(3, ByzStrategy::StaleReplay)
        .build_nodes::<u64>();
    assert_eq!(set.byz_servers, BTreeSet::from([3]));
}

#[test]
fn a_duplicate_completion_touches_no_book() {
    let (mut core, mut host) = (core(), FakeHost::default());
    let put = core.put(&mut host, "k", 7);
    let get = core.get(&mut host, 1, "k");
    let shard = core.routing_table().base().shard_of("k");
    let writer = host.calls[0].0;
    assert_eq!(
        host.calls,
        vec![
            (
                writer,
                ClientCall::Put {
                    op: put,
                    key: "k".into(),
                    val: 7
                }
            ),
            (
                ProcessId(1),
                ClientCall::Get {
                    op: get,
                    key: "k".into()
                }
            ),
        ]
    );
    assert_eq!(core.pending_ops(), 2);

    host.now_ns = 500;
    let put_done = StoreOut::PutDone { op: put };
    let get_done = StoreOut::GetDone {
        op: get,
        value: Some(7),
    };
    assert_eq!(
        core.record(host.now(), writer, put_done.clone()),
        Some((writer, put))
    );
    host.now_ns = 900;
    assert_eq!(
        core.record(host.now(), ProcessId(1), get_done.clone()),
        Some((ProcessId(1), get))
    );
    let books = |core: &DeployCore<u64>| {
        (
            core.pending_ops(),
            core.completion_order(),
            core.latency_histogram("put", shard)
                .map(|h| (h.count(), h.summary())),
            core.latency_histogram("get", shard)
                .map(|h| (h.count(), h.summary())),
            format!("{:?}", core.history_for_key("k")),
            core.monitor_violations().len(),
        )
    };
    let before = books(&core);
    assert_eq!((before.0, before.1.clone()), (0, vec![put, get]));
    assert_eq!(
        core.merged_latency("put").summary().map(|s| s.max_ns),
        Some(500)
    );
    assert_eq!(
        core.merged_latency("get").summary().map(|s| s.max_ns),
        Some(900)
    );

    // The same completions again, later: still handed back to a
    // closed-loop driver, but nothing is recorded twice.
    host.now_ns = 5_000;
    assert_eq!(
        core.record(host.now(), writer, put_done),
        Some((writer, put))
    );
    assert_eq!(
        core.record(host.now(), ProcessId(1), get_done),
        Some((ProcessId(1), get))
    );
    assert_eq!(books(&core), before);
    assert_eq!(core.check_per_key_atomicity(), Ok(1));
}
