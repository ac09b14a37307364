//! The real-socket bench: sustained **wall-clock** throughput of the
//! store over loopback TCP — the number the simulator benches cannot
//! report, because their clock is virtual. Every protocol message
//! crosses a real socket through the canonical codec; latencies are
//! real nanoseconds, including syscalls, scheduling, and the codec
//! itself.
//!
//! Both communication modes run at `t = 1`: the asynchronous fleet
//! (9 servers) and the synchronous one (4 servers, 5 ms link bound —
//! orders of magnitude above loopback latency, so timeouts never fire
//! on the happy path). Each run's per-key histories are checked for
//! atomicity before its numbers are recorded: a fast wrong store is
//! not a result.
//!
//! Rows append to `BENCH_net.json` at the repo root. Unlike the
//! simulator trajectories, these numbers move with the host machine —
//! `trajcheck` gates them generously (see the `net-wall-clock` gate).
//! One run of a case moves by tens of percent between runs of one
//! build, so in full mode each row is the median of [`RUNS`] runs (the
//! run with the median throughput, recorded whole); `--smoke` runs once.
//!
//! ```sh
//! cargo bench -p sbs-bench --bench net_throughput            # full
//! cargo bench -p sbs-bench --bench net_throughput -- --smoke # CI
//! ```

use sbs_bench::trajectory::BenchTrajectory;
use sbs_bulk::BulkCodec;
use sbs_core::Payload;
use sbs_net::{NetReport, NetStoreSystem, TransportStats};
use sbs_sim::SimDuration;
use sbs_store::{FaultPlan, KeyDist, LoopMode, OpMix, SizedVal, StoreBuilder, Workload};

/// Value size of the big-frame drill: every put ships one such value
/// (a whole copy at `k = 1`, half of it at `k = 2`, per replica), so its
/// frames are hundreds
/// of KiB where the other rows' are a few hundred bytes.
const DRILL_VALUE_LEN: u32 = 512 * 1024;

/// Runs per row in full mode.
const RUNS: usize = 3;

fn run_case<V: Payload + BulkCodec + Send + Sync>(
    builder: StoreBuilder,
    mix: OpMix,
    (ops, keys): (u64, usize),
    mk: impl Fn(u64) -> V,
    label: &str,
) -> (NetReport, TransportStats) {
    let builder = builder.seed(2015).shards(4).writers(2).extra_readers(2);
    let w = Workload {
        ops,
        keys,
        mix,
        dist: KeyDist::Zipfian { theta: 0.99 },
        loop_mode: LoopMode::Closed,
        seed: 42,
        faults: FaultPlan::none(),
    };
    let mut net: NetStoreSystem<V> = NetStoreSystem::deploy(&builder).expect("deploy");
    let report = net.run_workload(&w, mk);
    assert_eq!(report.completed, ops, "{label}: workload must complete");
    net.check_per_key_atomicity()
        .unwrap_or_else(|e| panic!("{label}: socket histories must be atomic: {e}"));
    assert_eq!(
        report.decode_rejects, 0,
        "{label}: no honest frame may be rejected"
    );
    (report, net.transport_stats())
}

/// The run with the median throughput of `runs` runs of `case`.
fn median_run(
    runs: usize,
    mut case: impl FnMut() -> (NetReport, TransportStats),
) -> (NetReport, TransportStats) {
    let mut all: Vec<_> = (0..runs).map(|_| case()).collect();
    all.sort_by(|a, b| a.0.ops_per_wall_sec.total_cmp(&b.0.ops_per_wall_sec));
    all.swap_remove(runs / 2)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ops: u64 = if smoke { 200 } else { 1000 };
    let runs = if smoke { 1 } else { RUNS };
    let mut traj = BenchTrajectory::new("net_throughput", smoke);

    println!(
        "net_throughput: {ops}-op Zipfian workloads over loopback TCP, 64 keys, t=1, closed loop, median of {runs} runs"
    );
    println!(
        "{:<12} {:<6} {:<7} {:>7} {:>7} {:>9} {:>17} {:>10} {:>10} {:>10} {:>11} {:>9}",
        "mix",
        "mode",
        "plane",
        "servers",
        "shards",
        "writers",
        "ops/wall-second",
        "p50 us",
        "p99 us",
        "wall ms",
        "frames/wake",
        "wakes/op"
    );
    let mixes: &[(OpMix, &str)] = if smoke {
        &[(OpMix::ycsb_b(), "ycsb-b")]
    } else {
        &[(OpMix::ycsb_b(), "ycsb-b"), (OpMix::ycsb_a(), "ycsb-a")]
    };
    let mut record = |mix_name: &str, mode: &str, plane: &str, servers: usize, run| {
        let (report, stats): (NetReport, TransportStats) = run;
        // Merge put/get percentiles by the dominant kind for the
        // table; the trajectory records the full split.
        let lat = report
            .get_latency
            .as_ref()
            .or(report.put_latency.as_ref())
            .expect("completed ops populate the histograms");
        // Where the next transport win is: ≈ 1 frame per wake-up means
        // fewer messages, not fewer wake-ups, is what is left to save.
        let frames_per_wakeup = stats.frames_per_wakeup();
        let wakeups_per_op = stats.wakeups as f64 / report.completed.max(1) as f64;
        println!(
            "{:<12} {:<6} {:<7} {:>7} {:>7} {:>9} {:>17.0} {:>10.1} {:>10.1} {:>10.1} {:>11.2} {:>9.1}",
            mix_name,
            mode,
            plane,
            servers,
            4,
            2,
            report.ops_per_wall_sec,
            lat.p50_ns as f64 / 1e3,
            lat.p99_ns as f64 / 1e3,
            report.wall_elapsed.as_secs_f64() * 1e3,
            frames_per_wakeup,
            wakeups_per_op,
        );
        traj.row(vec![
            ("mix", mix_name.into()),
            ("mode", mode.into()),
            ("plane", plane.into()),
            ("servers", servers.into()),
            ("shards", 4u64.into()),
            ("writers", 2u64.into()),
            ("ops", report.completed.into()),
            ("ops_per_wall_sec", report.ops_per_wall_sec.into()),
            ("p50_latency_ns", lat.p50_ns.into()),
            ("p99_latency_ns", lat.p99_ns.into()),
            (
                "put_p99_ns",
                report.put_latency.as_ref().map_or(0, |l| l.p99_ns).into(),
            ),
            (
                "get_p99_ns",
                report.get_latency.as_ref().map_or(0, |l| l.p99_ns).into(),
            ),
            ("wall_ms", (report.wall_elapsed.as_secs_f64() * 1e3).into()),
            ("frames_per_wakeup", frames_per_wakeup.into()),
            ("wakeups_per_op", wakeups_per_op.into()),
            ("connects", stats.connects.into()),
            ("write_timeouts", stats.write_timeouts.into()),
            ("slow_retransmits", report.slow.retransmits.into()),
            ("transport_drops", report.transport_drops.into()),
        ]);
    };
    let async_fleet = || StoreBuilder::asynchronous(1);
    for &(mix, mix_name) in mixes {
        for (mode, builder) in [
            ("async", async_fleet()),
            ("sync", StoreBuilder::synchronous(1, SimDuration::millis(5))),
        ] {
            let servers = builder.config().n;
            let run = median_run(runs, || {
                run_case(builder.clone(), mix, (ops, 64), |id| id, mix_name)
            });
            record(mix_name, mode, "inline", servers, run);
        }
    }
    if !smoke {
        // The big-frame drill: the same fleet moving frames of hundreds
        // of KiB on the bulk plane at k = 1 and k = 2, so the
        // large-frame read path (a frame read straight into a buffer of
        // its own size) has a number too.
        for (plane, builder) in [
            ("bulk", async_fleet().bulk()),
            ("coded", async_fleet().bulk_coded(2)),
        ] {
            let servers = builder.config().n;
            let mk = |id| SizedVal::new(id, DRILL_VALUE_LEN);
            let run = median_run(runs, || {
                run_case(builder.clone(), OpMix::ycsb_a(), (600, 16), mk, plane)
            });
            assert_eq!(run.0.transport_drops, 0, "{plane}: no frame may be dropped");
            record("ycsb-a-512k", "async", plane, servers, run);
        }
    }

    if let Some(path) = traj.write_at_repo_root("net") {
        println!("\ntrajectory written to {}", path.display());
    }
    println!("\nexpected shape: loopback round trips are tens of microseconds, so");
    println!("wall-clock throughput is dominated by protocol round count — the");
    println!("synchronous mode's smaller fleet sends fewer messages per round but");
    println!("waits for all of them. These are host-machine numbers: compare runs");
    println!("on the same machine only (trajcheck's net gate is deliberately loose).");
}
