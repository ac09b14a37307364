//! The untraced socket run: `NetStoreSystem` exactly as a user deploys it,
//! measured from outside.

use crate::analysis::{failed_ops, judge};
use crate::report::Report;
use crate::stats::{cores, median, peak_rss_mib, process_cpu_us};
use crate::workloads::{chunk_value_id, warmup_value_id, Sizes, TcpCase, CHUNK_OPS};
use sbs_bulk::BulkCodec;
use sbs_core::Payload;
use sbs_net::NetStoreSystem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Measured operations after which `peak_rss_mib` is read. The data
/// replicas keep every snapshot they were sent, so memory grows with the
/// operations completed; reading it at a fixed count keeps a faster store
/// from looking like a hungrier one.
const RSS_OPS: u64 = 5 * CHUNK_OPS;

/// Deploys `case` and pays its lazy connects: a warm-up whose operations
/// are later excluded from every metric by `OpId`. Returns the deployment
/// and how many operations the warm-up issued.
fn set_up<V>(case: &TcpCase, mk: fn(u64) -> V, seed: u64, sizes: Sizes) -> (NetStoreSystem<V>, u64)
where
    V: Payload + BulkCodec + Send + Sync,
{
    let mut net = NetStoreSystem::deploy(&case.builder).expect("bind loopback listeners");
    let warmup = case.warmup(seed, sizes.warmup_ops);
    let report = net.run_workload(&warmup, |id| mk(warmup_value_id(id)));
    (net, report.issued)
}

/// One untraced run: [`Sizes::setups`] set-ups (the last one is measured
/// on), then `CHUNK_OPS`-operation closed-loop chunks until `seconds` have
/// passed, then the history check.
///
/// Throughput and CPU per operation are the **median chunk's**: a chunk is
/// two thirds of a second of work, and on a shared two-core machine a few
/// chunks of every run are slowed by something that is not this program.
pub fn run<V>(case: &TcpCase, mk: fn(u64) -> V, seed: u64, seconds: f64, sizes: Sizes) -> Report
where
    V: Payload + BulkCodec + Send + Sync,
{
    let mut attempted = 0u64;
    // `run_workload` panics when the deployment stalls; a stall fails
    // every operation of the run instead of taking the benchmark down.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut setups = Vec::new();
        let mut deployed = None;
        for _ in 0..sizes.setups {
            drop(deployed.take());
            let t = Instant::now();
            deployed = Some(set_up(case, mk, seed, sizes));
            setups.push(t.elapsed().as_secs_f64());
        }
        let (mut net, measured_from) = deployed.expect("at least one set-up");

        let window = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let cpu_before = process_cpu_us();
        let (mut chunk_ops_per_s, mut chunk_cpu_us_per_op) = (Vec::new(), Vec::new());
        let mut rss = None;
        while started.elapsed() < window {
            let chunk = chunk_ops_per_s.len() as u64;
            attempted += CHUNK_OPS;
            let w = case.chunk(seed, chunk);
            let (t, cpu) = (Instant::now(), process_cpu_us());
            let done = net.run_workload(&w, |id| mk(chunk_value_id(chunk, id)));
            let done = done.completed.max(1) as f64;
            chunk_ops_per_s.push(done / t.elapsed().as_secs_f64());
            chunk_cpu_us_per_op.push((process_cpu_us() - cpu) / done);
            if attempted == RSS_OPS {
                rss = Some(peak_rss_mib());
            }
        }
        let wall = started.elapsed().as_secs_f64();
        let cpu_us = process_cpu_us() - cpu_before;
        // A run shorter than the sample point reads it at its end.
        let rss = rss.unwrap_or_else(peak_rss_mib);

        let verdict = judge(net.histories(), measured_from);
        let completed = verdict.measured_ops;
        let (drops, rejects) = (net.transport_drops(), net.decode_rejects());
        let failed = failed_ops(attempted, completed, drops, rejects, verdict.bad_key_ops);
        let mut report = Report {
            attempted,
            failed,
            correct: failed == 0 && net.monitor_violations().is_empty(),
            ..Report::default()
        };
        report.set(
            "ops_per_s",
            median(&chunk_ops_per_s).expect("at least one chunk"),
        );
        for (name, us) in verdict.latency_metrics() {
            report.set(name, us);
        }
        report.set(
            "cpu_us_per_op",
            median(&chunk_cpu_us_per_op).expect("at least one chunk"),
        );
        report.set("peak_rss_mib", rss);
        report.set("setup_s", median(&setups).expect("at least one set-up"));
        let (puts, gets) = verdict.counts();
        report.notes.push(format!(
            "samples puts={puts} gets={gets} in {} chunks of {CHUNK_OPS} ops ({wall:.2} s, {:.0} ops/s overall)",
            chunk_ops_per_s.len(),
            completed as f64 / wall
        ));
        report.notes.push(format!(
            "cpu busy {:.1}% of {} cores; peak rss read after {} measured ops",
            100.0 * cpu_us / (wall * 1e6 * cores() as f64),
            cores(),
            attempted.min(RSS_OPS)
        ));
        if drops + rejects > 0 {
            report
                .notes
                .push(format!("transport drops={drops} decode rejects={rejects}"));
        }
        report.notes.extend(verdict.first_error);
        report
    }));
    outcome
        .unwrap_or_else(|_| Report::all_failed(attempted, "socket run panicked or stalled".into()))
}
