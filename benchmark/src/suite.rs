//! The suite: every workload as several repetitions, each in a child
//! process of its own, reported as medians — and `--selfcheck`, which runs
//! the suite twice and holds the two sets to the benchmark's own bounds.
//!
//! A repetition is this same binary re-executed in single-run mode, so its
//! CPU time and peak memory belong to one run and no thread outlives it.

use crate::spec::{
    self, Better, MetricSpec, END_TO_END, EXACT_COUNT_BOUNDS, PER_LAYER, SIM_EXACT_COUNTS,
};
use crate::stats::{cores, median};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What the suite was asked to run.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workloads: Vec<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub reps: u64,
    /// Sizes ÷ 20, one repetition, no traced run; never compared with a
    /// full run.
    pub smoke: bool,
}

/// What one child process reported.
#[derive(Debug, Default)]
struct ChildRun {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl ChildRun {
    fn lost(why: String) -> Self {
        ChildRun {
            attempted: 1,
            failed: 1,
            correct: false,
            notes: vec![why],
            ..ChildRun::default()
        }
    }

    /// Reads back the lines `Report::print_lines` wrote.
    fn parse(stdout: &str) -> Option<Self> {
        let mut run = ChildRun::default();
        let mut saw_ops = false;
        for line in stdout.lines() {
            let mut words = line.split_whitespace();
            match words.next() {
                Some("note") => run.notes.push(line["note".len()..].trim().to_string()),
                Some("metric") => {
                    let name = words.next()?;
                    let value: f64 = words.next()?.parse().ok()?;
                    run.metrics.insert(name.to_string(), value);
                }
                Some("ops") => {
                    // ops attempted A failed F correct B
                    let fields: Vec<&str> = words.collect();
                    run.attempted = fields.get(1)?.parse().ok()?;
                    run.failed = fields.get(3)?.parse().ok()?;
                    run.correct = fields.get(5)?.parse().ok()?;
                    saw_ops = true;
                }
                _ => {}
            }
        }
        saw_ops.then_some(run)
    }
}

/// Runs one repetition in a child process, killing it at `timeout`.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    timeout: Duration,
) -> ChildRun {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return ChildRun::lost(format!("cannot find this executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => return ChildRun::lost(format!("spawn failed: {e}")),
    };
    // Read on a thread so a chatty child can never fill the pipe and
    // block while the parent waits for it to exit.
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        pipe.read_to_string(&mut out).map(|_| out)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("killed after {:.0} s", timeout.as_secs_f64()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => break Err(format!("wait failed: {e}")),
        }
    };
    let stdout = reader.join().expect("reader thread").unwrap_or_default();
    match status {
        Err(why) => ChildRun::lost(why),
        Ok(status) if !status.success() => ChildRun::lost(format!("child exited with {status}")),
        Ok(_) => ChildRun::parse(&stdout)
            .unwrap_or_else(|| ChildRun::lost("unreadable child output".into())),
    }
}

/// One workload's result over its repetitions.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Median over the repetitions, per metric any of them reported.
    pub medians: BTreeMap<String, f64>,
}

impl WorkloadResult {
    pub fn failed_ops_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn medians_of(runs: &[ChildRun]) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for run in runs {
        for (name, v) in &run.metrics {
            values.entry(name).or_default().push(*v);
        }
    }
    values
        .into_iter()
        .map(|(name, v)| (name.to_string(), median(&v).expect("non-empty")))
        .collect()
}

fn describe(m: &MetricSpec) -> String {
    let better = format!("{} is better", m.better.as_str());
    match m.bound {
        Some(b) => format!("{better}, bound {:.0}%", b * 100.0),
        None => better,
    }
}

/// The name of set `set` of `sets`: nothing for a lone set, else A, B, ….
fn set_label(set: usize, sets: usize) -> String {
    if sets == 1 {
        String::new()
    } else {
        format!("set {} ", (b'A' + set as u8) as char)
    }
}

/// Runs and prints one workload for `sets` sets of runs of the same code:
/// `reps` untraced repetitions per set (seeds `seed`, `seed + 1`, …) and,
/// unless smoke, one traced run per set.
///
/// The sets' repetitions alternate (A B, B A, A B, …), so a slow quarter
/// of an hour on the host — it has them — lands on every set alike and
/// not on one of them.
fn run_workload(plan: &Plan, workload: &'static str, sets: usize) -> Vec<WorkloadResult> {
    let why = spec::WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map_or("", |w| w.why);
    println!("\n== {workload} — {why}");
    // A run is `seconds` of measuring plus set-up, checks and (traced)
    // probes; four times that is the budget before the child is killed.
    let timeout = Duration::from_secs_f64(4.0 * (plan.seconds + 20.0));
    let mut runs: Vec<Vec<ChildRun>> = (0..sets).map(|_| Vec::new()).collect();
    for r in 0..plan.reps {
        let seed = plan.seed + r;
        let mut order: Vec<usize> = (0..sets).collect();
        if r % 2 == 1 {
            order.reverse();
        }
        for set in order {
            let run = run_child(workload, seed, plan.seconds, false, plan.smoke, timeout);
            println!(
                "  {}rep {r} seed {seed}: {} ({} ops attempted, {} failed)",
                set_label(set, sets),
                if run.correct { "ok" } else { "NOT CORRECT" },
                run.attempted,
                run.failed
            );
            for note in &run.notes {
                println!("    {note}");
            }
            runs[set].push(run);
        }
    }
    runs.iter()
        .enumerate()
        .map(|(set, runs)| {
            let label = set_label(set, sets);
            summarise(plan, workload, &label, runs, timeout)
        })
        .collect()
}

/// Prints one set's medians, makes its traced run, and returns the lot.
fn summarise(
    plan: &Plan,
    workload: &str,
    label: &str,
    runs: &[ChildRun],
    timeout: Duration,
) -> WorkloadResult {
    let mut result = WorkloadResult {
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        correct: runs.iter().all(|r| r.correct),
        medians: medians_of(runs),
    };

    println!("  {label}end-to-end, median of {}:", plan.reps);
    for m in END_TO_END {
        match result.medians.get(m.name) {
            Some(v) => println!("    {:<18} {v:>14.6} {:<5} {}", m.name, m.unit, describe(m)),
            None => println!(
                "    {:<18} {:>14} {:<5} no repetition reported it",
                m.name, "-", m.unit
            ),
        }
    }
    println!(
        "    {:<18} {:>14.6} {:<5} {} of {} ops; any increase is a regression",
        "failed_ops_frac",
        result.failed_ops_frac(),
        "ratio",
        result.failed,
        result.attempted
    );
    for (name, bound) in EXACT_COUNT_BOUNDS {
        if let Some(v) = result.medians.get(*name) {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            println!(
                "    {name:<18} {v:>14.4} {unit:<5} exact count, bound {:.1}%",
                bound * 100.0
            );
        }
    }

    if !plan.smoke {
        let run = run_child(workload, plan.seed, plan.seconds, true, false, timeout);
        println!(
            "  {label}per-layer, traced run with seed {}: {}",
            plan.seed,
            if run.correct { "ok" } else { "NOT CORRECT" }
        );
        for note in &run.notes {
            println!("    {note}");
        }
        for m in PER_LAYER {
            // The repetitions' medians win where both have the metric
            // (the simulator's exact counts).
            let v = result
                .medians
                .get(m.name)
                .or(run.metrics.get(m.name))
                .copied();
            if let Some(v) = v {
                println!("    {:<42} {v:>14.4} {}", m.name, m.unit);
                result.medians.entry(m.name.to_string()).or_insert(v);
            }
        }
        result.attempted += run.attempted;
        result.failed += run.failed;
        result.correct &= run.correct;
    }
    result
}

/// One set's results by workload.
pub type Results = BTreeMap<&'static str, WorkloadResult>;

/// Runs the suite for `sets` sets of runs. Returns each set's results.
fn run_sets(plan: &Plan, sets: usize) -> Vec<Results> {
    println!(
        "sbs-benchmark suite: seed {}, {} s per run, {} repetition(s) per workload, {} cores, smoke: {}",
        plan.seed,
        plan.seconds,
        plan.reps,
        cores(),
        plan.smoke
    );
    let mut results: Vec<Results> = (0..sets).map(|_| Results::new()).collect();
    for &w in &plan.workloads {
        for (set, result) in run_workload(plan, w, sets).into_iter().enumerate() {
            results[set].insert(w, result);
        }
    }
    results
}

/// Runs the suite once. Returns the results by workload.
pub fn run(plan: &Plan) -> Results {
    run_sets(plan, 1).pop().expect("one set")
}

/// True if every run of every workload was correct and nothing failed.
pub fn all_correct(results: &Results) -> bool {
    results.values().all(|r| r.correct && r.failed == 0)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    }
}

/// True if neither of two medians of the same code is worse than the other
/// by more than `bound`.
fn agree(better: Better, a: f64, b: f64, bound: f64) -> bool {
    if a == b {
        return true; // also covers exact counts that are both zero
    }
    // The slack keeps a ratio of exactly 1 + bound from failing on the
    // last bit of its floating-point quotient.
    let within = |w: f64| w <= bound + 1e-12;
    within(worsening(better, a, b)) && within(worsening(better, b, a))
}

/// Both sets' medians of `name`, if both have one.
fn both(a: &WorkloadResult, b: &WorkloadResult, name: &str) -> Option<(f64, f64)> {
    Some((*a.medians.get(name)?, *b.medians.get(name)?))
}

/// Runs the whole suite twice on the same code and seed — the two sets'
/// repetitions alternating — and prints, per workload × end-to-end metric,
/// both medians, their ratio and PASS or FAIL against the metric's own
/// bound. Returns true if everything passed.
pub fn selfcheck(plan: &Plan) -> bool {
    println!("selfcheck: sets A and B");
    let mut sets = run_sets(plan, 2);
    let b = sets.pop().expect("set B");
    let a = sets.pop().expect("set A");
    println!("\nselfcheck: two sets of runs of the same code and seed");
    println!(
        "{:<24} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "bound"
    );
    let mut pass = all_correct(&a) && all_correct(&b);
    for &w in &plan.workloads {
        let (ra, rb) = (&a[w], &b[w]);
        // The simulator's counts are a function of its seeds alone, so
        // only its workloads are held to them.
        let exact = w.starts_with("sim_");
        let mut rows: Vec<(&str, Better, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.better, m.bound.expect("bound")))
            .collect();
        if exact {
            rows.extend(
                EXACT_COUNT_BOUNDS
                    .iter()
                    .map(|&(name, bound)| (name, Better::Lower, bound)),
            );
        }
        for (name, better, bound) in rows {
            let Some((va, vb)) = both(ra, rb, name) else {
                pass = false;
                println!("{w:<24} {name:<20} missing from a set  FAIL");
                continue;
            };
            let ok = agree(better, va, vb, bound);
            pass &= ok;
            println!(
                "{w:<24} {name:<20} {va:>14.6} {vb:>14.6} {:>8.4} {:>6.1}%  {}",
                vb / va,
                bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
        let (fa, fb) = (ra.failed_ops_frac(), rb.failed_ops_frac());
        let ok = fb <= fa;
        pass &= ok;
        println!(
            "{w:<24} {:<20} {fa:>14.6} {fb:>14.6} {:>8} {:>7}  {}",
            "failed_ops_frac",
            "-",
            "none",
            if ok { "PASS" } else { "FAIL" }
        );
        if exact {
            let bits = |r: &WorkloadResult, name: &str| r.medians.get(name).map(|v| v.to_bits());
            let inexact: Vec<&str> = SIM_EXACT_COUNTS
                .iter()
                .copied()
                .filter(|n| bits(ra, n).is_none() || bits(ra, n) != bits(rb, n))
                .collect();
            pass &= inexact.is_empty();
            println!(
                "{w:<24} exact counts bit-identical across the sets: {}",
                if inexact.is_empty() {
                    "PASS".to_string()
                } else {
                    format!("FAIL {inexact:?}")
                }
            );
        }
    }
    println!("\nselfcheck: {}", if pass { "PASS" } else { "FAIL" });
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_lines_parse_back() {
        let out = "note samples puts=10 gets=90\nops attempted 100 failed 2 correct false\n\
                   metric ops_per_s 2900.5 1/s\nmetric store.msgs_per_op.BATCH 34.25 count\n{\"correct\": false}\n";
        let run = ChildRun::parse(out).expect("parses");
        assert_eq!((run.attempted, run.failed, run.correct), (100, 2, false));
        assert_eq!(run.metrics["ops_per_s"], 2900.5);
        assert_eq!(run.metrics["store.msgs_per_op.BATCH"], 34.25);
        assert_eq!(run.notes, vec!["samples puts=10 gets=90"]);
        assert!(
            ChildRun::parse("metric ops_per_s 1 1/s\n").is_none(),
            "no ops line"
        );
    }

    #[test]
    fn medians_are_per_metric_over_the_runs_that_have_it() {
        let run = |pairs: &[(&str, f64)]| ChildRun {
            metrics: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..ChildRun::default()
        };
        let runs = [
            run(&[("ops_per_s", 3.0), ("put_p99_us", 34_000.0)]),
            run(&[("ops_per_s", 1.0), ("put_p99_us", 13_000.0)]),
            run(&[("ops_per_s", 2.0)]),
        ];
        let m = medians_of(&runs);
        assert_eq!(m["ops_per_s"], 2.0);
        assert_eq!(m["put_p99_us"], 23_500.0);
    }

    #[test]
    fn agreement_is_symmetric_and_direction_aware() {
        // Lower is better: 110 is 10% worse than 100; 100 is 9.1% better.
        assert!(agree(Better::Lower, 100.0, 110.0, 0.10));
        assert!(!agree(Better::Lower, 100.0, 111.0, 0.10));
        assert!(
            !agree(Better::Lower, 111.0, 100.0, 0.10),
            "order must not matter"
        );
        // Higher is better: 90 is 10% worse than 100.
        assert!(agree(Better::Higher, 100.0, 90.0, 0.10));
        assert!(!agree(Better::Higher, 100.0, 89.0, 0.10));
        // Exact counts: a 0% bound passes only on equality, zeros included.
        assert!(agree(Better::Lower, 1265.0, 1265.0, 0.0));
        assert!(agree(Better::Lower, 0.0, 0.0, 0.0));
        assert!(!agree(Better::Lower, 1265.0, 1265.1, 0.0));
    }
}
