//! The simulator workloads: several consecutive simulator seeds of one
//! faulted run, pooled into one report with exact counts.

use crate::analysis::{failed_ops, judge, Verdict};
use crate::report::Report;
use crate::spec::{label_metric, DATA_LABELS, REPAIR_LABELS};
use crate::stats::{cores, median, peak_rss_mib, process_cpu_us};
use crate::workloads::{SimCase, Sizes};
use sbs_bulk::BulkCodec;
use sbs_core::Payload;
use sbs_store::WorkloadReport;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Simulator seeds one run covers: two per five seconds of `--seconds`
/// (≈ 1.5 s of wall time each on `sim_faulted_coded` and ≈ 2.4 s on
/// `sim_sync_update` on the reference machine, so most of the window is
/// spent simulating). The work — and with it every exact count
/// — is a function of the arguments alone, never of how fast it went.
pub fn seeds_per_run(seconds: f64) -> u64 {
    ((seconds / 2.5) as u64).max(1)
}

/// The simulator seeds run `seed` covers: consecutive entries of the pool
/// of usable seeds (`1..=120` without `excluded`), disjoint between
/// consecutive run seeds — on `sim_faulted_coded` at the default 25 s, run
/// 1 is seeds 1–10, run 2 is 11–17 and 19–21.
pub fn sim_seeds(seed: u64, seconds: f64, excluded: &[u64]) -> Vec<u64> {
    let pool: Vec<u64> = (1..=120).filter(|s| !excluded.contains(s)).collect();
    let len = pool.len() as u64;
    let n = seeds_per_run(seconds);
    let first = (seed.wrapping_sub(1) % len) * n;
    (0..n).map(|i| pool[((first + i) % len) as usize]).collect()
}

/// Wall time a full-size run spends building fleets; `setup_s` is the
/// median build. A build takes microseconds and a process's first few
/// thousand run slow (cold allocator, clock still ramping), so the median
/// of a thousand builds differed by half between processes while that of
/// half a second's worth stays within a few percent.
const SETUP_WINDOW: Duration = Duration::from_millis(500);

pub fn run<V>(case: &SimCase<V>, seed: u64, seconds: f64, sizes: Sizes) -> Report
where
    V: Payload + BulkCodec,
{
    let seed_ops = case.ops(sizes);
    let sim_seeds = sim_seeds(seed, seconds, case.excluded_seeds);
    let window = SETUP_WINDOW / sizes.sim_shrink as u32;
    let setting_up = Instant::now();
    let mut setups = Vec::new();
    while setups.is_empty() || setting_up.elapsed() < window {
        let (builder, _) = (case.plan)(seed, seed_ops);
        let t = Instant::now();
        let sys = builder.build::<V>();
        setups.push(t.elapsed().as_secs_f64());
        drop(sys);
    }

    let mut attempted = 0u64;
    let mut verdict = Verdict::default();
    let mut reports: Vec<WorkloadReport> = Vec::new();
    let mut by_label: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut violations = 0usize;
    let mut stabilization_ms: Option<f64> = Some(0.0);
    let mut notes = Vec::new();
    let cpu_before = process_cpu_us();
    let started = Instant::now();
    let (mut seed_ops_per_s, mut seed_cpu_us_per_op) = (Vec::new(), Vec::new());
    for &sim_seed in &sim_seeds {
        attempted += seed_ops;
        let (builder, workload) = (case.plan)(sim_seed, seed_ops);
        let (t, cpu) = (Instant::now(), process_cpu_us());
        // A livelocked run trips the driver's stall assertion; its
        // operations all count as failed.
        let Ok((rep, sys)) =
            catch_unwind(AssertUnwindSafe(|| workload.run_with(&builder, case.value)))
        else {
            notes.push(format!("sim seed {sim_seed} panicked or stalled"));
            stabilization_ms = None;
            continue;
        };
        // The simulation's own time: the checks below are not it.
        let done = rep.completed.max(1) as f64;
        seed_ops_per_s.push(done / t.elapsed().as_secs_f64());
        seed_cpu_us_per_op.push((process_cpu_us() - cpu) / done);
        let histories = sys
            .keys_touched()
            .into_iter()
            .map(|k| (k.clone(), sys.history_for_key(&k)));
        verdict.merge(judge(histories, 0));
        violations += sys.monitor_violations().len();
        stabilization_ms = match sys.stabilization_time() {
            Some(t) => stabilization_ms.map(|worst| worst.max(t.as_nanos() as f64 / 1e6)),
            None => {
                notes.push(format!("sim seed {sim_seed}: history never stabilized"));
                None
            }
        };
        for &label in DATA_LABELS.iter().chain(REPAIR_LABELS) {
            *by_label.entry(label).or_default() += sys.sim.metrics().sent_with_label(label);
        }
        reports.push(rep);
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu_us = process_cpu_us() - cpu_before;

    let completed = verdict.measured_ops;
    let failed = failed_ops(attempted, completed, 0, 0, verdict.bad_key_ops);
    let mut report = Report {
        attempted,
        failed,
        correct: failed == 0 && violations == 0 && stabilization_ms.is_some(),
        notes,
        ..Report::default()
    };
    let ops = completed.max(1) as f64;
    // Per simulator seed, then the median seed — as the socket runs
    // report their median chunk. A seed that never ran reports nothing.
    if let Some(v) = median(&seed_ops_per_s) {
        report.set("ops_per_s", v);
    }
    for (name, us) in verdict.latency_metrics() {
        report.set(name, us);
    }
    if let Some(v) = median(&seed_cpu_us_per_op) {
        report.set("cpu_us_per_op", v);
    }
    report.set("peak_rss_mib", peak_rss_mib());
    report.set("setup_s", median(&setups).expect("at least one set-up"));
    if let Some(ms) = stabilization_ms {
        report.set("stabilization_ms", ms);
    }
    // Exact counts: summed over the seeds, per completed operation.
    let per_op =
        |count: fn(&WorkloadReport) -> u64| reports.iter().map(count).sum::<u64>() as f64 / ops;
    report.set("msgs_per_op", per_op(|r| r.metadata_messages));
    report.set("wire_bytes_per_op", per_op(WorkloadReport::total_bytes));
    report.set("store.deliveries_per_op", per_op(|r| r.messages_delivered));
    report.set("sim.sim.events_per_op", per_op(|r| r.events_processed));
    report.set("store.meta_bytes_per_op", per_op(|r| r.metadata_bytes));
    report.set("store.bulk_bytes_per_op", per_op(|r| r.bulk_bytes));
    report.set("store.retransmits_per_op", per_op(|r| r.slow_retransmits));
    report.set(
        "store.metadata_rereads_per_op",
        per_op(|r| r.slow_metadata_rereads),
    );
    report.set("store.repair_rounds_per_op", per_op(|r| r.repair_rounds));
    for (label, n) in by_label {
        report.set(label_metric("store.msgs_per_op", label), n as f64 / ops);
    }
    report.notes.push(format!(
        "samples puts={} gets={} over sim seeds {sim_seeds:?} (virtual-time latencies, {wall:.2} s wall)",
        verdict.counts().0,
        verdict.counts().1,
    ));
    report.notes.push(format!(
        "cpu busy {:.1}% of {} cores; monitor violations {violations}",
        100.0 * cpu_us / (wall * 1e6 * cores() as f64),
        cores()
    ));
    report.notes.extend(verdict.first_error);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seeds_cover_disjoint_consecutive_sim_seeds() {
        const STALLS: [u64; 1] = [18];
        assert_eq!(seeds_per_run(25.0), 10);
        assert_eq!(seeds_per_run(20.0), 8);
        assert_eq!(seeds_per_run(1.0), 1);
        assert_eq!(sim_seeds(1, 20.0, &STALLS), (1..=8).collect::<Vec<_>>());
        assert_eq!(sim_seeds(2, 20.0, &STALLS), (9..=16).collect::<Vec<_>>());
        assert_eq!(
            sim_seeds(3, 20.0, &STALLS),
            vec![17, 19, 20, 21, 22, 23, 24, 25],
            "18 stalls"
        );
        assert_eq!(sim_seeds(3, 20.0, &[]), (17..=24).collect::<Vec<_>>());
        assert_eq!(sim_seeds(4, 1.0, &STALLS), vec![4]);
        // Any run seed lands in the pool, and the pool wraps.
        for seed in [0, 24, 117, 1 << 40, u64::MAX] {
            let seeds = sim_seeds(seed, 20.0, &STALLS);
            assert_eq!(seeds.len(), 8);
            assert!(seeds
                .iter()
                .all(|s| (1..=120).contains(s) && !STALLS.contains(s)));
        }
        assert_eq!(sim_seeds(120, 20.0, &STALLS), sim_seeds(1, 20.0, &STALLS));
    }
}
