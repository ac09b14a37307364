//! A put completes at its write round; the `NEW_HELP_VAL` round line 03
//! launches runs in the background, and only the shard's next `WRITE`
//! waits for it. These tests pin the ordering that carries safety — per
//! (client, shard), no metadata write starts while that shard's help
//! round runs — on both communication modes, and what a silent server
//! costs the put that follows.

use sbs_core::ByzStrategy;
use sbs_sim::{SimDuration, SimTime, TraceEvent};
use sbs_store::{StoreBuilder, StoreClientNode, StoreSystem};
use std::collections::BTreeSet;

fn async_builder() -> StoreBuilder {
    StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2)
}

fn sync_builder() -> StoreBuilder {
    StoreBuilder::synchronous(1, SimDuration::millis(1))
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2)
}

/// Puts on a few hot keys in turn, each issued the moment the previous
/// one completed — while its help round still runs — beside a get per put
/// from the clients in turn, so readers keep resetting their helping
/// slots and line 03 keeps launching help rounds. `corrupt_at` corrupts
/// writer 0 before that put: its recovery republish is a metadata write
/// too.
fn back_to_back_puts(
    builder: &StoreBuilder,
    puts: u64,
    corrupt_at: Option<u64>,
) -> StoreSystem<u64> {
    let mut sys: StoreSystem<u64> = builder.build();
    let clients = sys.clients.len();
    for i in 0..puts {
        if corrupt_at == Some(i) {
            sys.corrupt_client(0);
        }
        let key = format!("hot{}", i / 40);
        sys.get(i as usize % clients, &key);
        let op = sys.put(&key, i);
        let mut slices = 0;
        while !sys
            .run_for(SimDuration::micros(20))
            .iter()
            .any(|&(_, o)| o == op)
        {
            slices += 1;
            assert!(slices < 100_000, "put {i} never completed");
        }
    }
    assert!(sys.settle());
    sys
}

/// Walks the trace per (client, shard): a help round launches only when
/// none runs, ends once, and no `MetadataWrite` starts while it runs (a
/// write arriving then is held, traced `AwaitHelp`). Returns the help
/// rounds launched and the writes that waited.
fn check_help_order(sys: &StoreSystem<u64>) -> (usize, usize) {
    assert_eq!(sys.tracer().evicted(), 0, "the trace must be whole");
    let mut running: BTreeSet<(u32, u32)> = BTreeSet::new();
    let (mut launched, mut waited) = (0, 0);
    for r in sys.tracer().records() {
        let TraceEvent::Phase { shard, phase } = r.event else {
            continue;
        };
        let key = (r.pid, shard);
        let at = r.at_ns;
        match phase {
            "HelpRound" => {
                assert!(running.insert(key), "{key:?}: a second help round at {at}");
                launched += 1;
            }
            "HelpDone" => assert!(running.remove(&key), "{key:?}: no help round ended at {at}"),
            "AwaitHelp" => {
                assert!(running.contains(&key), "{key:?}: waited on nothing at {at}");
                waited += 1;
            }
            "MetadataWrite" | "ShardRetired" => assert!(
                !running.contains(&key),
                "{key:?}: {phase} at {at} while its help round ran"
            ),
            _ => {}
        }
    }
    (launched, waited)
}

/// Every owned shard's next write comes after its help round ended, on
/// both modes, with and without a writer corruption; the runs stay
/// atomic when unfaulted and stabilize when faulted.
#[test]
fn a_shards_write_never_overtakes_its_help_round() {
    for (label, builder) in [("async", async_builder()), ("sync", sync_builder())] {
        for corrupt_at in [None, Some(60)] {
            let label = format!("{label}, writer corrupted before put {corrupt_at:?}");
            let builder = builder.clone().trace(1 << 20).monitor();
            let sys = back_to_back_puts(&builder, 120, corrupt_at);
            let (launched, waited) = check_help_order(&sys);
            assert!(launched > 40, "{label}: help rounds launched: {launched}");
            assert!(waited > 20, "{label}: writes that waited: {waited}");
            if corrupt_at.is_some() {
                assert!(sys.stabilization_time().is_some(), "{label}");
            } else {
                sys.check_per_key_atomicity()
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(sys.monitor_violations().is_empty(), "{label}");
            }
        }
    }
}

/// Background help rounds stay within the owned shards, one per shard,
/// sampled all through a run with a writer corruption.
#[test]
fn help_rounds_are_bounded_by_the_owned_shards() {
    let mut sys: StoreSystem<u64> = async_builder().build();
    let mut seen = 0;
    for i in 0..200u64 {
        sys.put(&format!("key{}", i % 24), i);
        if i == 100 {
            sys.corrupt_client(0);
        }
        sys.run_for(SimDuration::micros(300));
        for &c in &sys.clients.clone() {
            let (help, owned) = sys
                .sim
                .node_ref::<StoreClientNode<u64>, _>(c, |n| (n.help_rounds(), n.owned_shards()));
            assert!(
                help.iter().all(|s| owned.contains(s)),
                "{help:?} ⊄ {owned:?}"
            );
            seen += help.len();
        }
    }
    assert!(seen > 0, "help rounds must have run in the background");
    assert!(sys.settle());
    for &c in &sys.clients.clone() {
        let help = sys
            .sim
            .node_ref::<StoreClientNode<u64>, _>(c, |n| n.help_rounds());
        assert!(help.is_empty(), "a quiescent client runs no help round");
    }
}

/// When `phase` was entered on `shard` by client `pid`, in trace order.
fn phase_times(sys: &StoreSystem<u64>, pid: u32, shard: u32, name: &str) -> Vec<SimTime> {
    sys.tracer()
        .records()
        .filter(|r| {
            r.pid == pid && matches!(r.event, TraceEvent::Phase { shard: s, phase } if s == shard && phase == name)
        })
        .map(|r| SimTime::from_nanos(r.at_ns))
        .collect()
}

/// Runs until every issued operation has completed.
fn run_until_idle(sys: &mut StoreSystem<u64>) {
    for _ in 0..10_000 {
        if sys.pending_ops() == 0 {
            return;
        }
        sys.run_for(SimDuration::micros(50));
    }
    panic!("operations never completed");
}

/// Synchronous fleet with a silent server: no round ever sees all `n`
/// acknowledgements, so each ends on the round timeout. The put completes
/// at its write round's timeout; its help round ends one timeout after
/// it launched; and the next put on the shard waits for that before its
/// own write round — whose timeout it then pays too.
#[test]
fn a_silent_server_makes_the_next_put_wait_out_the_help_rounds_timeout() {
    let builder = StoreBuilder::synchronous(1, SimDuration::millis(5))
        .seed(11)
        .shards(1)
        .extra_readers(1)
        .byzantine(3, ByzStrategy::Silent)
        .trace(1 << 16);
    let timeout = builder.config().timeout().expect("sync mode");
    let mut sys: StoreSystem<u64> = builder.build();
    let writer = sys.clients[0];

    sys.put("k", 1);
    run_until_idle(&mut sys);
    let help = sys
        .sim
        .node_ref::<StoreClientNode<u64>, _>(writer, |n| n.help_rounds());
    assert_eq!(help, vec![0], "the help round outlives its put");
    sys.put("k", 2);
    assert!(sys.settle());

    let h = sys.history_for_key("k");
    let puts: Vec<_> = h.ops().iter().collect();
    assert_eq!(puts.len(), 2);
    let first = puts[0].responded - puts[0].invoked;
    assert!(
        first >= timeout && first < timeout * 2,
        "the first put ends on its write round's timeout: {first}"
    );
    let pid = writer.0;
    let launched = phase_times(&sys, pid, 0, "HelpRound");
    let ended = phase_times(&sys, pid, 0, "HelpDone");
    let writes = phase_times(&sys, pid, 0, "MetadataWrite");
    assert_eq!(
        launched.len(),
        1,
        "the first help round left every reader agreed"
    );
    assert_eq!(
        launched[0], puts[0].responded,
        "launched as the put completed"
    );
    assert!(
        ended[0] - launched[0] >= timeout,
        "the help round ends on its timeout"
    );
    assert_eq!(phase_times(&sys, pid, 0, "AwaitHelp").len(), 1);
    assert_eq!(writes.len(), 2);
    assert!(
        writes[1] >= ended[0],
        "the second WRITE waits for the help round"
    );
    assert!(
        puts[1].responded - ended[0] >= timeout,
        "then pays its own write round's timeout"
    );
    sys.check_per_key_atomicity().expect("atomic");
}
