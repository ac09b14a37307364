//! CI monitor smoke: run the faulted YCSB-B workload with tracing and
//! the online atomicity monitor enabled, print the health snapshot, and
//! fail — dumping the flight recorder — if the monitor flags anything.
//!
//! ```sh
//! cargo run --release --example monitor_smoke
//! ```
//!
//! On a violation the causal slice lands in `FLIGHT_monitor_smoke.jsonl`
//! and `FLIGHT_monitor_smoke.chrome.json` (drop the latter on
//! <https://ui.perfetto.dev>), and the process exits non-zero so CI can
//! surface the dump as an artifact.

use stabilizing_storage::sim::SimDuration;
use stabilizing_storage::store::{FaultPlan, StoreBuilder, Workload};

fn main() {
    // The observability suite's differential workload: YCSB-B over 8
    // shards on a 9-server asynchronous fleet (t = 1), with a server
    // corruption at 3 ms and link garbage at 5 ms — tolerated faults, so
    // the monitor must stay quiet.
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
    let builder = StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2)
        .trace(1 << 16)
        .monitor();
    let (report, sys) = wl.run(&builder);
    println!(
        "workload: {} ops completed in {} sim-ms",
        report.completed,
        report.sim_elapsed.as_nanos() / 1_000_000
    );

    let monitor = sys.monitor().expect("monitor enabled");
    println!(
        "monitor: {} ops observed, {} keys, {} violations",
        monitor.ops_observed(),
        monitor.keys_monitored(),
        monitor.violations().len()
    );

    let health = sys.health();
    for s in &health.shards {
        println!("  shard {}: {} puts, {} gets", s.shard, s.puts, s.gets);
    }
    for r in &health.replicas {
        println!(
            "  server {} (pid {}): {} msgs in, {} msgs out",
            r.server, r.pid, r.msgs_in, r.msgs_out
        );
    }
    println!(
        "  pending {}, hot shards {:?}, slow paths {:?}",
        health.pending_ops, health.hot_shards, health.slow
    );
    println!(
        "  metadata {} B, bulk {} B on the wire",
        health.metadata_bytes_sent, health.bulk_bytes_sent
    );

    if !monitor.is_clean() || health.pending_ops > 0 {
        let record = sys.flight_recorder();
        std::fs::write("FLIGHT_monitor_smoke.jsonl", record.to_jsonl())
            .expect("write flight JSONL");
        std::fs::write("FLIGHT_monitor_smoke.chrome.json", record.to_chrome_trace())
            .expect("write flight Chrome trace");
        eprintln!(
            "monitor smoke FAILED: {} violations, {} pending ops — flight record \
             written to FLIGHT_monitor_smoke.jsonl / .chrome.json ({} slice records)",
            monitor.violations().len(),
            health.pending_ops,
            record.records.len()
        );
        std::process::exit(1);
    }
    println!("monitor smoke passed: no violations, no pending ops");
}
