//! The store-scaling bench: sustained throughput (operations per
//! *simulated* second) of a fixed 64-key YCSB workload as the keyspace is
//! sharded over 1, 4, and 8 registers — run in **both communication
//! modes** at the same `t = 1`: the asynchronous fleet (9 servers,
//! `n ≥ 8t + 1`) and the synchronous one (4 servers, `n ≥ 3t + 1`,
//! timeout-bound rounds). Columns include wire bytes and metadata
//! messages per op, so the table shows what each mode/knob buys.
//!
//! The second section is the **time-window batching sweep** (the PR 4
//! acceptance metric): the same open-loop YCSB-A burst workload with the
//! Nagle window off and on. With a tuned window, queued same-shard ops
//! fold into shared register rounds — the sweep asserts ≥ 20% fewer
//! metadata messages per op and a higher ops/sim-second than unbatched.
//!
//! Every measured row is appended to `BENCH_store.json` at the repo root
//! (the persistent perf trajectory later PRs diff against).
//!
//! ```sh
//! cargo bench -p sbs-bench --bench store_throughput            # full
//! cargo bench -p sbs-bench --bench store_throughput -- --smoke # CI
//! ```

use sbs_bench::trajectory::BenchTrajectory;
use sbs_sim::{LatencySummary, SimDuration};
use sbs_store::{
    KeyDist, KeyRouter, LoopMode, OpMix, ReshardPlan, RoutingTable, StoreBuilder, Workload,
    WorkloadReport,
};
use std::time::Instant;

fn run_case(
    builder: StoreBuilder,
    shards: u32,
    writers: usize,
    mix: OpMix,
    ops: u64,
    loop_mode: LoopMode,
    label: &str,
) -> (WorkloadReport, LatencySummary, f64) {
    let builder = builder
        .seed(2015)
        .shards(shards)
        .writers(writers)
        .extra_readers(2);
    let wl = Workload {
        ops,
        keys: 64,
        mix,
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode,
        seed: 42,
        faults: sbs_store::FaultPlan::none(),
    };
    let t0 = Instant::now();
    let (report, sys) = wl.run(&builder);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed, ops, "{label}: workload must complete");
    let mut lat = sys.merged_latency("put");
    lat.merge(&sys.merged_latency("get"));
    let summary = lat.summary().expect("completed ops populate the histogram");
    (report, summary, wall)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ops: u64 = if smoke { 300 } else { 1000 };
    let mut traj = BenchTrajectory::new("store_throughput", smoke);

    println!("store_throughput: {ops}-op Zipfian workloads, 64 keys, t=1, closed loop, both modes");
    println!(
        "{:<10} {:<6} {:>7} {:>7} {:>9} {:>16} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "mix",
        "mode",
        "servers",
        "shards",
        "writers",
        "ops/sim-second",
        "meta msgs",
        "msgs/op",
        "wire KiB",
        "p50 us",
        "p99 us",
        "wall ms"
    );
    let shard_cases: &[(u32, usize)] = if smoke {
        &[(8, 4)]
    } else {
        &[(1, 1), (4, 2), (8, 4)]
    };
    for (mix, mix_name) in [(OpMix::ycsb_b(), "ycsb-b"), (OpMix::ycsb_a(), "ycsb-a")] {
        for &(shards, writers) in shard_cases {
            for (mode, builder) in [
                ("async", StoreBuilder::asynchronous(1)),
                ("sync", StoreBuilder::synchronous(1, SimDuration::millis(1))),
            ] {
                let servers = builder.config().n;
                let (report, lat, wall) = run_case(
                    builder,
                    shards,
                    writers,
                    mix,
                    ops,
                    LoopMode::Closed,
                    mix_name,
                );
                println!(
                    "{:<10} {:<6} {:>7} {:>7} {:>9} {:>16.0} {:>12} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                    mix_name,
                    mode,
                    servers,
                    shards,
                    writers,
                    report.ops_per_sim_sec,
                    report.metadata_messages,
                    report.metadata_messages_per_op(),
                    report.total_bytes() as f64 / 1024.0,
                    lat.p50_ns as f64 / 1e3,
                    lat.p99_ns as f64 / 1e3,
                    wall * 1e3,
                );
                traj.row(vec![
                    ("section", "closed-loop".into()),
                    ("mix", mix_name.into()),
                    ("mode", mode.into()),
                    ("plane", "full".into()),
                    ("servers", servers.into()),
                    ("shards", shards.into()),
                    ("writers", writers.into()),
                    ("ops", ops.into()),
                    ("window_us", 0u64.into()),
                    ("ops_per_sim_sec", report.ops_per_sim_sec.into()),
                    ("metadata_messages", report.metadata_messages.into()),
                    (
                        "metadata_messages_per_op",
                        report.metadata_messages_per_op().into(),
                    ),
                    ("deliveries", report.messages_delivered.into()),
                    ("wire_bytes", report.total_bytes().into()),
                    ("p50_latency_ns", lat.p50_ns.into()),
                    ("p99_latency_ns", lat.p99_ns.into()),
                    ("wall_ms", (wall * 1e3).into()),
                ]);
            }
        }
    }

    // ------------------------------------------------------------------
    // Time-window batching sweep: open-loop YCSB-A bursts, window off/on.
    // ------------------------------------------------------------------
    let open = LoopMode::Open {
        mean_interarrival: SimDuration::micros(300),
    };
    let sweep_ops: u64 = if smoke { 300 } else { 1000 };
    println!("\nbatch-window sweep: open-loop YCSB-A bursts (300us mean interarrival), async n=9");
    println!(
        "{:<10} {:>16} {:>12} {:>12} {:>12} {:>10}",
        "window", "ops/sim-second", "meta msgs", "msgs/op", "reduction", "wall ms"
    );
    let mut baseline: Option<WorkloadReport> = None;
    let mut best_reduction = 0.0f64;
    let mut best_speedup = 0.0f64;
    for window_us in [0u64, 200, 500, 1000] {
        let builder =
            StoreBuilder::asynchronous(1).batch_window(SimDuration::micros(window_us as u32 as _));
        let (report, lat, wall) = run_case(
            builder,
            8,
            4,
            OpMix::ycsb_a(),
            sweep_ops,
            open,
            "window sweep",
        );
        let (reduction, speedup) = match &baseline {
            None => (0.0, 1.0),
            Some(b) => (
                1.0 - report.metadata_messages_per_op() / b.metadata_messages_per_op(),
                report.ops_per_sim_sec / b.ops_per_sim_sec,
            ),
        };
        best_reduction = best_reduction.max(reduction);
        best_speedup = best_speedup.max(speedup);
        println!(
            "{:<10} {:>16.0} {:>12} {:>12.1} {:>11.0}% {:>10.1}",
            format!("{window_us}us"),
            report.ops_per_sim_sec,
            report.metadata_messages,
            report.metadata_messages_per_op(),
            reduction * 100.0,
            wall * 1e3,
        );
        traj.row(vec![
            ("section", "window-sweep".into()),
            ("mix", "ycsb-a".into()),
            ("mode", "async".into()),
            ("plane", "full".into()),
            ("servers", 9u64.into()),
            ("shards", 8u64.into()),
            ("writers", 4u64.into()),
            ("ops", sweep_ops.into()),
            ("window_us", window_us.into()),
            ("ops_per_sim_sec", report.ops_per_sim_sec.into()),
            ("metadata_messages", report.metadata_messages.into()),
            (
                "metadata_messages_per_op",
                report.metadata_messages_per_op().into(),
            ),
            ("deliveries", report.messages_delivered.into()),
            ("wire_bytes", report.total_bytes().into()),
            ("p50_latency_ns", lat.p50_ns.into()),
            ("p99_latency_ns", lat.p99_ns.into()),
            ("wall_ms", (wall * 1e3).into()),
        ]);
        if baseline.is_none() {
            baseline = Some(report);
        }
    }
    assert!(
        best_reduction >= 0.20,
        "acceptance: the tuned window must cut >=20% metadata messages/op, got {:.0}%",
        best_reduction * 100.0
    );
    assert!(
        best_speedup > 1.0,
        "acceptance: the tuned window must raise ops/sim-second, got {best_speedup:.2}x"
    );

    // ------------------------------------------------------------------
    // Live resharding: the same closed-loop YCSB-A run with a dual-commit
    // handoff (merge writer 3 into writer 1) landing mid-workload — what
    // a migration costs while it is in flight, and how fast the store
    // stabilizes after the handoff begins.
    // ------------------------------------------------------------------
    println!("\nreshard: closed-loop YCSB-A, async n=9, 8 shards / 4 writers, merge writer 3 -> 1 mid-run");
    println!(
        "{:<10} {:>16} {:>10} {:>10} {:>14} {:>10}",
        "variant", "ops/sim-second", "p50 us", "p99 us", "stabilize ms", "wall ms"
    );
    let reshard_case = |reshards: Vec<(SimDuration, ReshardPlan)>| {
        let builder = StoreBuilder::asynchronous(1)
            .seed(2015)
            .shards(8)
            .writers(4)
            .extra_readers(2);
        let mut wl = Workload {
            ops,
            keys: 64,
            mix: OpMix::ycsb_a(),
            dist: KeyDist::Zipfian { theta: 0.99 },
            loop_mode: LoopMode::Closed,
            seed: 42,
            faults: sbs_store::FaultPlan::none(),
        };
        wl.faults.reshards = reshards;
        let t0 = Instant::now();
        let (report, sys) = wl.run(&builder);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(
            report.completed, ops,
            "reshard case: workload must complete"
        );
        let mut lat = sys.merged_latency("put");
        lat.merge(&sys.merged_latency("get"));
        let summary = lat.summary().expect("completed ops populate the histogram");
        let stabilization = sys.stabilization_time();
        (report, summary, stabilization, wall)
    };
    let table = RoutingTable::initial(KeyRouter::new(8, 4));
    let plan = ReshardPlan::merge_writer(&table, 3, 1);
    let (static_report, static_lat, _, static_wall) = reshard_case(vec![]);
    let (report, lat, stabilization, wall) = reshard_case(vec![(SimDuration::millis(10), plan)]);
    let stabilization_ns = stabilization
        .expect("the mid-run handoff must stabilize")
        .as_nanos();
    for (variant, r, l, st_ns, w) in [
        ("static", &static_report, &static_lat, None, static_wall),
        ("mid-run", &report, &lat, Some(stabilization_ns), wall),
    ] {
        println!(
            "{:<10} {:>16.0} {:>10.1} {:>10.1} {:>14} {:>10.1}",
            variant,
            r.ops_per_sim_sec,
            l.p50_ns as f64 / 1e3,
            l.p99_ns as f64 / 1e3,
            st_ns.map_or("-".to_string(), |ns| format!("{:.1}", ns as f64 / 1e6)),
            w * 1e3,
        );
    }
    // Only the mid-run variant lands a trajectory row (the static shape
    // is already the closed-loop section's ycsb-a async 8/4 row); its
    // `section` keeps the identity distinct under the store-throughput
    // gate while the dedicated `reshard` gate bounds the handoff cost.
    traj.row(vec![
        ("section", "reshard".into()),
        ("mix", "ycsb-a".into()),
        ("mode", "async".into()),
        ("plane", "full".into()),
        ("servers", 9u64.into()),
        ("shards", 8u64.into()),
        ("writers", 4u64.into()),
        ("ops", ops.into()),
        ("window_us", 0u64.into()),
        ("ops_per_sim_sec", report.ops_per_sim_sec.into()),
        ("metadata_messages", report.metadata_messages.into()),
        (
            "metadata_messages_per_op",
            report.metadata_messages_per_op().into(),
        ),
        ("deliveries", report.messages_delivered.into()),
        ("wire_bytes", report.total_bytes().into()),
        ("p50_latency_ns", lat.p50_ns.into()),
        ("p99_latency_ns", lat.p99_ns.into()),
        ("stabilization_time_ns", stabilization_ns.into()),
        ("wall_ms", (wall * 1e3).into()),
    ]);

    if let Some(path) = traj.write_at_repo_root("store") {
        println!("\ntrajectory written to {}", path.display());
    }
    println!("\nexpected shape: closed-loop ops/sim-second grows with shards (writer");
    println!("parallelism); in the open-loop sweep the Nagle window folds queued");
    println!("same-shard ops into shared rounds, cutting metadata messages/op and");
    println!("raising throughput — the >=20% acceptance bar is asserted above.");
}
