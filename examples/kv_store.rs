//! The sharded key-value store under a YCSB-B load with a Byzantine
//! server — run **twice**: once with full replication (every shard-map
//! snapshot to all 9 servers) and once on the content-addressed bulk
//! plane (payload bytes on 2t+1 = 3 data replicas, 40-byte references
//! through the metadata quorum), printing the bytes-on-wire delta.
//!
//! ```sh
//! cargo run --release --example kv_store
//! ```

use stabilizing_storage::core::ByzStrategy;
use stabilizing_storage::store::{FaultPlan, SizedVal, StoreBuilder, Workload, WorkloadReport};

fn print_report(mode: &str, report: &WorkloadReport, atomic_keys: usize) {
    println!("[{mode}]");
    println!(
        "  completed:   {} of {} ({} reads / {} writes)",
        report.completed, report.issued, report.reads, report.writes
    );
    println!(
        "  throughput:  {:.0} ops/simulated-second ({:?} elapsed)",
        report.ops_per_sim_sec, report.sim_elapsed
    );
    println!(
        "  bytes:       {:.1} KiB metadata + {:.1} KiB bulk = {:.1} KiB total",
        report.metadata_bytes as f64 / 1024.0,
        report.bulk_bytes as f64 / 1024.0,
        report.total_bytes() as f64 / 1024.0,
    );
    println!(
        "  transport:   {} delivery events ({} simulator events)",
        report.messages_delivered, report.events_processed
    );
    println!("  verified:    {atomic_keys} per-key histories all atomic ✓");
}

fn main() {
    // One shared fleet: 9 servers, 1 Byzantine (async bound n >= 8t+1) —
    // Byzantine at *both* planes: garbage register replies and garbled
    // bulk bytes. 8 shards over 4 writer clients, 2 read-only clients,
    // 1000-op YCSB-B (95% reads), Zipfian popularity, 1 KiB values.
    let full = StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2);
    let bulk = full.clone().bulk();
    let mut workload = Workload::ycsb_b(1000, 64);
    workload.faults = FaultPlan::one_byzantine(4, ByzStrategy::RandomGarbage);
    let mk = |id| SizedVal::new(id, 1024);

    println!("1000-op YCSB-B, 64 keys / 8 shards / 9 servers (1 Byzantine), 1 KiB values\n");

    let (report_full, sys_full) = workload.run_with(&full, mk);
    let atomic_full = sys_full
        .check_per_key_atomicity()
        .expect("per-key atomicity must hold within n >= 8t+1");
    print_report("full replication", &report_full, atomic_full);

    println!();
    let (report_bulk, mut sys_bulk) = workload.run_with(&bulk, mk);
    let atomic_bulk = sys_bulk
        .check_per_key_atomicity()
        .expect("per-key atomicity must hold in bulk mode too");
    print_report("bulk 2t+1 data replicas", &report_bulk, atomic_bulk);

    let ratio = report_full.total_bytes() as f64 / report_bulk.total_bytes().max(1) as f64;
    println!(
        "\nbytes-on-wire delta: {:.1} KiB -> {:.1} KiB ({ratio:.1}x less traffic)",
        report_full.total_bytes() as f64 / 1024.0,
        report_bulk.total_bytes() as f64 / 1024.0,
    );

    // Where did the payload bytes land? Exactly on each shard's 3-replica
    // window.
    let placement = sys_bulk.bulk_placement();
    let mut sample: Vec<String> = placement
        .iter()
        .take(3)
        .map(|(shard, servers)| format!("shard {shard} → servers {servers:?}"))
        .collect();
    sample.push(String::from("…"));
    println!("bulk placement:      {}", sample.join(", "));

    // A peek at key routing.
    let router = sys_bulk.routing_table().base();
    println!(
        "routing:             e.g. key0 → shard {} (writer {}), key1 → shard {} (writer {})",
        router.shard_of("key0"),
        router.writer_of("key0"),
        router.shard_of("key1"),
        router.writer_of("key1"),
    );
}
