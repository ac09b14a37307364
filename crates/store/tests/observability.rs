//! Telemetry acceptance: tracing is deterministic (same seed ⇒
//! byte-identical JSONL), free when disabled (bit-identical `Metrics`
//! against the pinned pre-telemetry baseline), and behaviorally inert
//! (traced and untraced runs produce equivalent write histories).

use sbs_check::{equivalent_write_histories, History};
use sbs_sim::{Metrics, SimDuration};
use sbs_store::{FaultPlan, StoreBuilder, StoreSystem, Workload, WorkloadReport};
use std::collections::BTreeMap;

/// The seeded differential workload: YCSB-B over 64 keys with one server
/// corruption and one round of link garbage — every telemetry source
/// (retransmissions, dead rounds, guard refusals, fault stamps) can fire.
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

fn run(builder: &StoreBuilder) -> (WorkloadReport, StoreSystem<u64>) {
    let (report, sys) = faulted_ycsb_b().run(builder);
    assert_eq!(report.completed, 300, "workload must complete");
    (report, sys)
}

fn keyed_histories(sys: &StoreSystem<u64>) -> BTreeMap<String, History<Option<u64>>> {
    sys.keys_touched()
        .into_iter()
        .map(|k| (k.clone(), sys.history_for_key(&k)))
        .collect()
}

/// Same seed, same workload ⇒ the exported JSONL trace is byte-identical
/// across runs, and non-trivial (op lifecycles, phases, and fault stamps
/// all present).
#[test]
fn traces_are_deterministic_and_structured() {
    let (_, sys_a) = run(&async_builder().trace(1 << 16));
    let (_, sys_b) = run(&async_builder().trace(1 << 16));
    let jsonl_a = sys_a.tracer().to_jsonl();
    let jsonl_b = sys_b.tracer().to_jsonl();
    assert!(!jsonl_a.is_empty(), "trace must capture events");
    assert_eq!(jsonl_a, jsonl_b, "same seed must give identical traces");

    for needle in [
        "\"ev\":\"op_start\"",
        "\"ev\":\"op_complete\"",
        "\"ev\":\"phase\"",
        "\"ev\":\"fault\"",
    ] {
        assert!(jsonl_a.contains(needle), "trace must contain {needle}");
    }
    // The Chrome export covers the same records.
    let chrome = sys_a.tracer().to_chrome_trace();
    assert!(
        chrome.starts_with("{\"traceEvents\":["),
        "chrome trace is a trace-event JSON object"
    );
    assert!(chrome.contains("op_start"));
}

/// With tracing disabled, the simulation's observable economics on the
/// seeded differential workload are **bit-identical to the pre-telemetry
/// baseline** (captured at the seed commit before this instrumentation
/// existed): same messages, same bytes, same event count. A regression
/// here means telemetry leaked into protocol behavior.
#[test]
fn untraced_runs_match_pre_telemetry_baseline() {
    let (_, async_sys) = run(&async_builder());
    let m = async_sys.sim.metrics();
    assert_eq!(m.messages_sent, 11048);
    assert_eq!(m.messages_delivered, 11048);
    assert_eq!(m.messages_dropped, 0);
    // Re-pinned (448916 → 449724, events 11823 → 11821): a put completes
    // at its write round and its help round runs in the background, so
    // closed-loop clients issue sooner and coalescing groups shift. The
    // same messages are sent.
    assert_eq!(m.metadata_bytes_sent, 449724);
    // Re-pinned (6476 → 6676): the link garbage's forged pushes carry the
    // 4-byte key slot every push now names. Re-pinned (6676 → 6944): its
    // forged whole-copy pushes and replies became fragment pushes (index
    // and total, 8 bytes more) and fragment replies (an index, 4 bytes
    // more when present). The generator draws the same numbers, so
    // nothing else moves.
    assert_eq!(m.bulk_bytes_sent, 6944);
    assert_eq!(m.events_processed, 11821);
    assert_eq!(m.timers_fired, 0);
    assert_eq!(m.corruptions, 1);
    assert_eq!(m.garbage_injected, 216);

    // Re-pinned: sync help rounds end on all n SS_ACKs, so their 5 timeouts never fire.
    let (_, sync_sys) = run(&sync_builder());
    let m = sync_sys.sim.metrics();
    assert_eq!(m.messages_sent, 6102);
    assert_eq!(m.messages_delivered, 6102);
    assert_eq!(m.messages_dropped, 0);
    // Re-pinned (250935 → 251253) for the same background help rounds.
    assert_eq!(m.metadata_bytes_sent, 251253);
    // Re-pinned (2797 → 2873) for the same 4-byte slot on forged pushes,
    // and (2873 → 2973) for the same fragment-shaped forgeries.
    assert_eq!(m.bulk_bytes_sent, 2973);
    assert_eq!(m.events_processed, 6948);
    assert_eq!(m.timers_fired, 0);
    assert_eq!(m.corruptions, 1);
    assert_eq!(m.garbage_injected, 96);
}

/// Turning the tracer on must not change what the protocol does: traced
/// and untraced runs of the identical workload have equivalent write
/// histories and identical `Metrics` (the ring only *observes*).
#[test]
fn tracing_is_behaviorally_inert() {
    for builder in [async_builder(), sync_builder()] {
        let traced = builder.clone().trace(1 << 16);
        let (_, sys_plain) = run(&builder);
        let (_, sys_traced) = run(&traced);

        equivalent_write_histories(&keyed_histories(&sys_plain), &keyed_histories(&sys_traced))
            .expect("tracing must not change observable write histories");

        let plain: &Metrics = sys_plain.sim.metrics();
        let traced: &Metrics = sys_traced.sim.metrics();
        assert_eq!(plain, traced, "tracing must not perturb metrics");
        assert!(sys_traced.tracer().is_enabled());
        assert!(!sys_plain.tracer().is_enabled());
    }
}

/// Latency histograms populate per op kind and merge across shards; the
/// report's summaries agree with the system's merged histograms.
#[test]
fn latency_histograms_cover_every_completed_op() {
    let (report, sys) = run(&async_builder());
    let put = sys.merged_latency("put");
    let get = sys.merged_latency("get");
    assert_eq!(
        put.count() + get.count(),
        300,
        "every completed op is recorded exactly once"
    );
    assert_eq!(report.put_latency, put.summary());
    assert_eq!(report.get_latency, get.summary());
    let s = report.get_latency.expect("YCSB-B is read-heavy");
    assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
    assert!(s.min_ns > 0, "no op completes in zero sim-time");

    // Per-(kind, shard) histograms partition the merged population.
    let per_shard: u64 = sys
        .latency_summaries()
        .iter()
        .map(|(_, _, s)| s.count)
        .sum();
    assert_eq!(per_shard, 300);
}

/// The faulted run stabilizes: after the last injected fault, every
/// touched key's history reaches a suffix that is atomic again, and the
/// probe reports the (finite) sim-time that took — in both modes.
#[test]
fn stabilization_time_is_finite_in_both_modes() {
    for (label, builder) in [("async", async_builder()), ("sync", sync_builder())] {
        let (_, sys) = run(&builder);
        let st = sys
            .stabilization_time()
            .unwrap_or_else(|| panic!("{label}: faulted run must stabilize"));
        assert!(
            st < SimDuration::secs(10),
            "{label}: stabilization bounded, got {st}"
        );
    }
}

/// A fault-free run reports no stabilization time (nothing to stabilize
/// from) — the probe distinguishes "never faulted" from "never clean".
#[test]
fn stabilization_time_is_none_without_faults() {
    let mut wl = Workload::ycsb_b(100, 16);
    wl.seed = 42;
    let (_, sys) = wl.run(&async_builder());
    assert!(sys.sim.last_fault_at().is_none());
    assert!(sys.stabilization_time().is_none());
}
