//! Stabilization cost, micro and macro.
//!
//! Micro: the full corrupt-everything → first-write → verified-recovery
//! cycle at the single-register layer (the micro view of E2), plus the
//! checker itself.
//!
//! Macro: the **store-level stabilization probe** — the faulted YCSB-B
//! workload (one server corruption + one round of link garbage) in both
//! communication modes, reporting the *simulated* time from the last
//! fault injection until every touched key's history is atomic again
//! ([`StoreSystem::stabilization_time`]). The probe rows land in
//! `BENCH_stabilization.json` (gated by `trajcheck`: the metric is a
//! deterministic property of the schedule, so any growth is protocol
//! drift), and the async run exports its protocol trace as
//! `TRACE_stabilization.jsonl` / `.chrome.json` at the repo root — the
//! CI artifact for phase-level debugging.
//!
//! Healing steady state: the *host* cost of keeping anti-entropy on when
//! nothing is wrong — a long unfaulted write-heavy run on the coded plane
//! with a 2 ms gossip period, reported as wall µs per operation and gated
//! by `trajcheck` (`healing-steady-state`). Replicas keep each key's last
//! two values, so an unfaulted run also must not bill a single repair
//! round: gossip naming a value a replica evicted must not pull it back.
//!
//! ```sh
//! cargo bench -p sbs-bench --bench stabilization            # full
//! cargo bench -p sbs-bench --bench stabilization -- --smoke # CI
//! ```

use sbs_bench::micro::{bench, section};
use sbs_bench::trajectory::BenchTrajectory;
use sbs_check::{check_linearizable, History, InitialState, OpKind, OpRecord};
use sbs_core::harness::SwsrBuilder;
use sbs_sim::{OpId, ProcessId, SimDuration, SimTime};
use sbs_store::{FaultPlan, OpMix, StoreBuilder, Workload};
use std::path::Path;
use std::time::Instant;

/// The faulted differential workload shared with the observability
/// tests: YCSB-B, one server corruption at 3 ms, link garbage at 5 ms.
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

fn store_stabilization_probe(traj: &mut BenchTrajectory, repo_root: &Path) {
    section("store_stabilization");
    println!(
        "{:<22} {:<6} {:>10} {:>18} {:>12} {:>10}",
        "scenario", "mode", "completed", "stabilization", "retransmits", "wall ms"
    );
    for (mode, builder) in [
        ("async", StoreBuilder::asynchronous(1)),
        ("sync", StoreBuilder::synchronous(1, SimDuration::millis(1))),
    ] {
        let builder = builder
            .seed(2015)
            .shards(8)
            .writers(4)
            .extra_readers(2)
            .trace(1 << 16);
        let t0 = Instant::now();
        let (report, sys) = faulted_ycsb_b().run(&builder);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(report.completed, 300, "probe workload must complete");
        let st = sys
            .stabilization_time()
            .expect("the faulted probe must stabilize in both modes");
        println!(
            "{:<22} {:<6} {:>10} {:>18} {:>12} {:>10.1}",
            "faulted-ycsb-b",
            mode,
            report.completed,
            format!("{st}"),
            report.slow_retransmits,
            wall * 1e3,
        );
        traj.row(vec![
            ("scenario", "faulted-ycsb-b".into()),
            ("mode", mode.into()),
            ("ops", 300u64.into()),
            ("completed", report.completed.into()),
            ("stabilization_time_ns", st.as_nanos().into()),
            ("slow_retransmits", report.slow_retransmits.into()),
            ("slow_metadata_rereads", report.slow_metadata_rereads.into()),
            ("wall_ms", (wall * 1e3).into()),
        ]);
        // One trace artifact is enough for the CI upload; the async
        // fleet is the paper's headline configuration.
        if mode == "async" {
            let jsonl = sys.tracer().to_jsonl();
            let chrome = sys.tracer().to_chrome_trace_named(&sys.role_names());
            for (name, text) in [
                ("TRACE_stabilization.jsonl", &jsonl),
                ("TRACE_stabilization.chrome.json", &chrome),
            ] {
                let path = repo_root.join(name);
                match std::fs::write(&path, text) {
                    Ok(()) => println!("trace written to {}", path.display()),
                    Err(e) => println!("note: could not write {}: {e}", path.display()),
                }
            }
        }
    }
}

/// The self-healing probe: the same YCSB-B shape, but the injected
/// fault is a **mid-run wipe of one replica's data store** (its
/// fragments), with anti-entropy enabled so the wiped replica pulls its
/// committed state back from its window peers — no writer republish.
/// One row per data plane; `stabilization_time_ns` is the simulated
/// time from the wipe until every touched key's history is atomic
/// again, gated by trajcheck's `repair-stabilization` gate.
fn repair_stabilization_probe(traj: &mut BenchTrajectory) {
    section("repair_stabilization");
    println!(
        "{:<22} {:<6} {:>10} {:>18} {:>14} {:>10}",
        "scenario", "mode", "completed", "stabilization", "repair rounds", "wall ms"
    );
    for (mode, builder) in [
        ("full", StoreBuilder::asynchronous(1)),
        ("bulk", StoreBuilder::asynchronous(1).bulk()),
        ("coded", StoreBuilder::asynchronous(1).bulk_coded(2)),
    ] {
        let builder = builder
            .seed(2015)
            .shards(8)
            .writers(4)
            .extra_readers(2)
            .anti_entropy(SimDuration::millis(2));
        let mut wl = Workload::ycsb_b(300, 64);
        wl.seed = 42;
        wl.faults = FaultPlan {
            byzantine: vec![],
            corruptions: vec![],
            client_corruptions: vec![],
            link_garbage: vec![],
            // Mid-run, after the read-heavy mix has committed values to
            // the victim's shard windows — a wipe before the first put
            // to those shards would be an empty-store no-op.
            data_wipes: vec![(SimDuration::millis(150), 1)],
            reshards: vec![],
        };
        let t0 = Instant::now();
        let (report, sys) = wl.run(&builder);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(report.completed, 300, "probe workload must complete");
        let st = sys
            .stabilization_time()
            .expect("the wiped replica must re-converge on every plane");
        // Full replication keeps no data stores, so only the bulk and
        // coded planes must show actual peer-pull repair traffic.
        if mode != "full" {
            assert!(
                report.repair_rounds > 0,
                "{mode}: the wipe must trigger self-healing repair rounds"
            );
        }
        println!(
            "{:<22} {:<6} {:>10} {:>18} {:>14} {:>10.1}",
            "wiped-replica",
            mode,
            report.completed,
            format!("{st}"),
            report.repair_rounds,
            wall * 1e3,
        );
        traj.row(vec![
            ("scenario", "wiped-replica".into()),
            ("mode", mode.into()),
            ("ops", 300u64.into()),
            ("completed", report.completed.into()),
            ("stabilization_time_ns", st.as_nanos().into()),
            ("repair_rounds", report.repair_rounds.into()),
            ("slow_retransmits", report.slow_retransmits.into()),
            ("slow_metadata_rereads", report.slow_metadata_rereads.into()),
            ("wall_ms", (wall * 1e3).into()),
        ]);
    }
}

/// The healing steady-state probe: coded plane, anti-entropy every 2 ms
/// of virtual time, **no fault** — so every `DIGEST_SUMMARY` is pure
/// overhead and not one repair round may run. What it measures is wall
/// time per operation: the nine servers tick ≈ 7 times per operation
/// between them, so a tick whose cost grows with the store makes the run
/// cost grow faster than its length. The op counts are sized against a
/// per-tick store scan over stores that kept every value: with it, the
/// smoke run's 4 000 operations cost 219 and 304 µs each (two runs on
/// the reference container) against 49 µs for the committed full run
/// without it — 4.4× at best, which `trajcheck`'s 3× gate refuses.
fn healing_steady_state_probe(traj: &mut BenchTrajectory, smoke: bool) {
    section("healing_steady_state");
    let ops: u64 = if smoke { 4_000 } else { 10_000 };
    let builder = StoreBuilder::asynchronous(1)
        .bulk_coded(2)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2)
        .anti_entropy(SimDuration::millis(2));
    // The other probes' shape (Zipfian keys, closed loop, seed 42), but
    // write-heavy so every key is overwritten far past what a replica
    // retains.
    let wl = Workload {
        mix: OpMix::ycsb_a(),
        ..Workload::ycsb_b(ops, 64)
    };
    let t0 = Instant::now();
    let (report, sys) = wl.run(&builder);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed, ops, "probe workload must complete");
    // Also the guard against anti-entropy resurrecting evictions: a
    // summary naming a value a replica evicted must plant no repair.
    assert_eq!(
        report.repair_rounds, 0,
        "an unfaulted fleet must not bill a single repair round"
    );
    let summaries = sys.sim.metrics().sent_with_label("DIGEST_SUMMARY");
    assert!(summaries > ops, "anti-entropy must have been gossiping");
    let wall_us_per_op = wall * 1e6 / ops as f64;
    println!(
        "{:<22} {:<6} {:>8} {:>16} {:>14} {:>10} {:>14}",
        "scenario", "mode", "ops", "digest summaries", "repair rounds", "wall ms", "wall us/op"
    );
    println!(
        "{:<22} {:<6} {:>8} {:>16} {:>14} {:>10.1} {:>14.1}",
        "healing-steady-state",
        "coded",
        ops,
        summaries,
        report.repair_rounds,
        wall * 1e3,
        wall_us_per_op,
    );
    traj.row(vec![
        ("scenario", "healing-steady-state".into()),
        ("mode", "coded".into()),
        ("ops", ops.into()),
        ("digest_summaries", summaries.into()),
        ("repair_rounds", report.repair_rounds.into()),
        ("wall_ms", (wall * 1e3).into()),
        ("wall_us_per_op", wall_us_per_op.into()),
    ]);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut traj = BenchTrajectory::new("stabilization", smoke);
    // crates/bench -> crates -> repo root.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the repo root")
        .to_path_buf();

    // The macro probe is deterministic and cheap; it runs identically in
    // smoke and full mode so the gate compares like with like.
    store_stabilization_probe(&mut traj, &repo_root);
    repair_stabilization_probe(&mut traj);
    healing_steady_state_probe(&mut traj, smoke);
    if let Some(path) = traj.write_at_repo_root("stabilization") {
        println!("trajectory written to {}", path.display());
    }

    if !smoke {
        section("recovery_cycle");
        for n in [9usize, 17] {
            let t = (n - 1) / 8;
            bench(&format!("recovery_cycle/n={n}"), || {
                let mut sys = SwsrBuilder::new(n, t).seed(3).build_regular(0u64);
                sys.write(1);
                sys.settle();
                sys.corrupt_all_servers();
                sys.run_for(SimDuration::millis(1));
                sys.write(2);
                assert!(sys.settle());
                sys.read();
                assert!(sys.settle());
                sys.history().len()
            });
        }

        section("checker");
        // A history with a 12-op concurrent segment — representative of
        // the densest windows our workloads produce.
        let mk = |id: u64, a: u64, b: u64, kind: OpKind<u64>| OpRecord {
            client: ProcessId((id % 3) as u32),
            op: OpId(id),
            invoked: SimTime::from_nanos(a),
            responded: SimTime::from_nanos(b),
            kind,
        };
        let mut ops = vec![mk(0, 0, 2_000, OpKind::Write(1))];
        for i in 0..11u64 {
            ops.push(mk(1 + i, 100 + i, 1_900 - i, OpKind::Read(1)));
        }
        let h = History::new(ops);
        bench("linearizability/12op_segment", || {
            check_linearizable(&h, &InitialState::Any)
                .unwrap()
                .linearizable
        });
    }
}
