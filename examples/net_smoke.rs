//! CI socket smoke: run a YCSB-B workload over **real loopback TCP** —
//! every protocol message through the canonical wire codec — with the
//! online atomicity monitor attached, check the per-key histories, and
//! fail loudly if anything is off.
//!
//! ```sh
//! cargo run --release --example net_smoke
//! ```
//!
//! On failure this dumps the deployment's flight record — the suspect
//! ops and the monitor's violations with their culprit ops, then one
//! counters line — to `FLIGHT_net_smoke.jsonl` (role names alongside in
//! `.chrome.json`) and exits non-zero so CI surfaces the dump as an
//! artifact. The causal trace slice is empty on this backend: node
//! threads keep no trace ring yet.
//!
//! A wall-clock budget guards the whole run: loopback YCSB-B at this
//! size finishes in well under a second, so a minute means a deadlock,
//! a reconnect storm, or a stuck reader — all bugs this smoke exists to
//! catch. So do the censuses after the run: the socket runtime is one OS
//! thread per node and one connection per client–server pair, and a
//! reader or accept thread, or a server dialling back, coming back would
//! show up here before it shows up in a profile.

use stabilizing_storage::net::NetStoreSystem;
use stabilizing_storage::sim::SimDuration;
use stabilizing_storage::store::{OpMix, StoreBuilder, Workload};
use std::time::{Duration, Instant};

const WALL_BUDGET: Duration = Duration::from_secs(60);

/// The socket wipe drill: a bulk-plane deployment with anti-entropy
/// loses one data replica's fragment store mid-run — over real TCP, not
/// the simulator — and the self-healing plane must pull the committed
/// values back from window peers, visible as slow-path repair rounds.
fn wipe_drill() {
    let mut wl = Workload::ycsb_b(400, 32);
    wl.mix = OpMix::ycsb_a(); // write-heavy, so stores populate early
    wl.faults.data_wipes = vec![(SimDuration::millis(30), 2)];
    let builder = StoreBuilder::asynchronous(1)
        .seed(77)
        .shards(4)
        .writers(2)
        .bulk()
        .anti_entropy(SimDuration::millis(5))
        .monitor();
    let mut sys: NetStoreSystem<u64> = NetStoreSystem::deploy(&builder).expect("deploy drill");
    let report = sys.run_workload(&wl, |id| id);
    assert_eq!(report.completed, wl.ops, "drill workload must complete");

    // The repair runs on the servers' own anti-entropy timers; give it
    // wall-clock room after the workload drains.
    let deadline = Instant::now() + Duration::from_secs(20);
    while sys.slow_paths().repair_rounds == 0 && Instant::now() < deadline {
        sys.await_completions(Duration::from_millis(50));
    }
    let repairs = sys.slow_paths().repair_rounds;
    assert!(
        repairs > 0,
        "the wiped replica must repair itself over TCP (0 repair rounds observed)"
    );
    sys.check_per_key_atomicity()
        .expect("drill histories must stay atomic through wipe and repair");
    assert!(
        sys.monitor_violations().is_empty(),
        "monitor must stay quiet through the drill: {:?}",
        sys.monitor_violations()
    );
    println!("wipe drill: {repairs} repair rounds over TCP, histories atomic, monitor quiet");
}

/// One thread per node plus this one, with one to spare: checked against
/// the kernel's list of this process's threads while the deployment is
/// still up. Linux-only evidence; elsewhere there is no `/proc` to ask.
fn assert_one_thread_per_node(nodes: usize) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    let names: Vec<String> = tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .collect();
    assert!(
        names.len() <= nodes + 2,
        "{nodes} nodes must not need {} threads: {names:?}",
        names.len()
    );
    assert!(
        !names.iter().any(|name| name.starts_with("sbs-net-")),
        "the socket layer spawned a thread of its own: {names:?}"
    );
    println!("threads: {} for {nodes} nodes", names.len());
}

/// One connection per client–server pair: a server answers on the
/// connection its client dialled instead of dialling back. The run has
/// no server↔server traffic (no anti-entropy), so a dial-back coming back
/// would double the count.
fn assert_one_connection_per_pair(connects: u64, clients: usize, servers: usize) {
    let pairs = (clients * servers) as u64;
    assert!(
        connects <= pairs,
        "{clients} clients × {servers} servers must not need {connects} connections"
    );
    println!("connections: {connects} for {pairs} client-server pairs");
}

fn main() {
    let wl = Workload::ycsb_b(300, 64);
    let builder = StoreBuilder::asynchronous(1)
        .seed(2015)
        .shards(8)
        .writers(4)
        .extra_readers(2)
        .monitor();

    let started = Instant::now();
    let mut sys: NetStoreSystem<u64> = NetStoreSystem::deploy(&builder).expect("deploy");
    let report = sys.run_workload(&wl, |id| id);
    println!(
        "workload: {} ops completed in {:.1} wall-ms over TCP ({:.0} ops/s, p50 get {} ns)",
        report.completed,
        report.wall_elapsed.as_secs_f64() * 1e3,
        report.ops_per_wall_sec,
        report.get_latency.as_ref().map_or(0, |l| l.p50_ns),
    );
    println!(
        "transport: {} drops, {} decode rejects, slow paths {:?}",
        report.transport_drops, report.decode_rejects, report.slow
    );
    let stats = sys.transport_stats();
    println!(
        "transport: {:.2} frames_per_wakeup, {:.1} wakeups_per_op ({stats:?})",
        stats.frames_per_wakeup(),
        stats.wakeups as f64 / report.completed.max(1) as f64,
    );
    assert_one_thread_per_node(sys.clients.len() + sys.servers.len());
    assert_one_connection_per_pair(stats.connects, sys.clients.len(), sys.servers.len());

    let monitor = sys.monitor().expect("monitor enabled");
    println!(
        "monitor: {} ops observed, {} keys, {} violations",
        monitor.ops_observed(),
        monitor.keys_monitored(),
        monitor.violations().len()
    );

    let atomicity = sys.check_per_key_atomicity();
    let overtime = started.elapsed() > WALL_BUDGET;
    let clean = monitor.is_clean()
        && atomicity.is_ok()
        && report.completed == wl.ops
        && report.decode_rejects == 0
        && !overtime;
    if !clean {
        // The same flight record the simulator dumps, minus the causal
        // trace slice this backend cannot cut yet, plus the counters.
        let record = sys.flight_recorder();
        let counters = format!(
            "{{\"ev\":\"counters\",\"completed\":{},\"issued\":{},\"transport_drops\":{},\
             \"decode_rejects\":{},\"wall_ms\":{:.1},\"overtime\":{overtime},\"atomicity_error\":{:?}}}\n",
            report.completed,
            report.issued,
            report.transport_drops,
            report.decode_rejects,
            started.elapsed().as_secs_f64() * 1e3,
            atomicity.as_ref().err().map_or("", String::as_str)
        );
        std::fs::write("FLIGHT_net_smoke.jsonl", record.to_jsonl() + &counters)
            .expect("write flight JSONL");
        std::fs::write("FLIGHT_net_smoke.chrome.json", record.to_chrome_trace())
            .expect("write flight role names");
        eprintln!(
            "net smoke FAILED: {} violations, atomicity {:?}, {} decode rejects, \
             overtime={overtime} — dump written to FLIGHT_net_smoke.jsonl",
            monitor.violations().len(),
            atomicity.as_ref().err(),
            report.decode_rejects
        );
        std::process::exit(1);
    }
    println!(
        "net smoke passed: {} keys atomic, no violations, {:.1} wall-ms total",
        atomicity.expect("checked above"),
        started.elapsed().as_secs_f64() * 1e3
    );

    wipe_drill();
}
