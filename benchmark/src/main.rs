//! The repository's benchmark. See `benchmark/README.md`.
//!
//! Two ways to run it:
//!
//! * **one run** — `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!   measures one workload once in this process and prints, as its last
//!   line, one JSON object with the end-to-end metrics (`--trace 0`) or
//!   the per-layer metrics (`--trace 1`);
//! * **the suite** — without `--trace`: every selected workload as several
//!   repetitions, each a child process doing one run, reported as medians;
//!   `--selfcheck` runs the suite twice and compares the two sets.

mod analysis;
mod probes;
mod report;
mod simrun;
mod spec;
mod stats;
mod suite;
mod tcp;
mod traced;
mod workloads;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{SimCase, Sizes, TcpCase};

const USAGE: &str = "usage: sbs-benchmark [--workload <name>]... [--seed <S>] [--seconds <s>]
                     [--reps <n>] [--smoke] [--selfcheck]      the suite (default)
       sbs-benchmark --workload <name> --seed <S> --seconds <s> --trace <0|1> [--smoke]
                                                               one run, JSON result on the last line
       sbs-benchmark --print-benchmark-json                    the text of BENCHMARK.json";

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<u64>,
    smoke: bool,
    selfcheck: bool,
    trace: Option<bool>,
    print_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        reps: None,
        smoke: false,
        selfcheck: false,
        trace: None,
        print_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = spec::WORKLOADS.iter().find(|w| w.name == name.as_str());
                args.workloads
                    .push(known.ok_or(format!("unknown workload {name}"))?.name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--reps" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err("--reps must be in 1..=100".into());
                }
                args.reps = Some(n);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--print-benchmark-json" => args.print_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() {
        if args.workloads.len() != 1 {
            return Err("one run (--trace) takes exactly one --workload".into());
        }
        if args.selfcheck || args.reps.is_some() {
            return Err("--reps and --selfcheck belong to the suite, not to one run".into());
        }
    }
    Ok(args)
}

/// Where the traced run of `workload` writes its spans: inside the
/// benchmark's own directory, wherever the program is started from.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{workload}.jsonl"))
}

/// One run of a socket workload: untraced for the end-to-end metrics; or,
/// traced, half the window untraced (the reference the tracing overhead
/// is measured against) and half traced, then the probes.
fn socket_run<V>(
    workload: &str,
    case: TcpCase,
    mk: fn(u64) -> V,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
) -> Report
where
    V: sbs_core::Payload + sbs_bulk::BulkCodec + Send + Sync,
{
    if !trace {
        return tcp::run(&case, mk, seed, seconds, sizes);
    }
    let once = Sizes { setups: 1, ..sizes };
    let reference = tcp::run(&case, mk, seed, seconds / 2.0, once);
    let Some(&untraced_ops_per_s) = reference.metrics.get("ops_per_s") else {
        return reference;
    };
    let mut report = traced::run(
        &case,
        mk,
        seed,
        seconds / 2.0,
        once,
        untraced_ops_per_s,
        &trace_path(workload),
    );
    report.attempted += reference.attempted;
    report.failed += reference.failed;
    report.correct &= reference.correct;
    probes::run(seed, &mut report);
    report
}

/// One run of a simulator workload; traced, the probes ride along.
fn sim_run<V>(case: &SimCase<V>, seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Report
where
    V: sbs_core::Payload + sbs_bulk::BulkCodec,
{
    let mut report = simrun::run(case, seed, seconds, sizes);
    if trace {
        probes::run(seed, &mut report);
    }
    report
}

fn one_run(workload: &str, seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Report {
    match workload {
        "tcp_async_read" => {
            let case = workloads::tcp_async_read(seed);
            socket_run::<u64>(workload, case, |id| id, seed, seconds, trace, sizes)
        }
        "tcp_async_update_coded" => {
            let case = workloads::tcp_async_update_coded(seed);
            socket_run(
                workload,
                case,
                workloads::coded_tcp_value,
                seed,
                seconds,
                trace,
                sizes,
            )
        }
        "sim_sync_update" => sim_run(&workloads::sim_sync_update(), seed, seconds, trace, sizes),
        "sim_faulted_coded" => {
            sim_run(&workloads::sim_faulted_coded(), seed, seconds, trace, sizes)
        }
        other => unreachable!("{other} passed parse_args"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sbs-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let default_seconds = if args.smoke {
        1.0
    } else {
        spec::RUN_SECONDS as f64
    };
    let seconds = args.seconds.unwrap_or(default_seconds);

    if let Some(trace) = args.trace {
        let report = one_run(args.workloads[0], args.seed, seconds, trace, sizes);
        report.print_lines();
        let wanted = if trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        println!("{}", report.result_json(wanted));
        return ExitCode::SUCCESS;
    }

    let workloads = if args.workloads.is_empty() {
        spec::WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        args.workloads
    };
    let plan = suite::Plan {
        workloads,
        seed: args.seed,
        seconds,
        reps: args.reps.unwrap_or(if args.smoke { 1 } else { 3 }),
        smoke: args.smoke,
    };
    let ok = if args.selfcheck {
        suite::selfcheck(&plan)
    } else {
        let results = suite::run(&plan);
        let ok = suite::all_correct(&results);
        println!(
            "\nsuite: {}",
            if ok {
                "every run correct, no operation failed"
            } else {
                "FAILED"
            }
        );
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_command_line_is_one_run() {
        let a =
            parse("--workload sim_sync_update --seed 7 --seconds 15 --trace 0").expect("parses");
        assert_eq!(a.workloads, vec!["sim_sync_update"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(15.0), Some(false)));
        assert_eq!(
            parse("--workload sim_faulted_coded --trace 1")
                .expect("parses")
                .trace,
            Some(true)
        );
    }

    #[test]
    fn the_suite_takes_selectors() {
        let a = parse("--workload tcp_async_read --workload sim_faulted_coded --reps 2 --smoke")
            .expect("parses");
        assert_eq!(a.workloads.len(), 2);
        assert_eq!((a.reps, a.smoke, a.trace, a.seed), (Some(2), true, None, 1));
        assert!(parse("--selfcheck").expect("parses").selfcheck);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--reps 0",
            "--trace 2",
            "--trace 0",
            "--workload tcp_async_read --workload sim_sync_update --trace 0",
            "--workload tcp_async_read --trace 0 --selfcheck",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
