//! Prints the experiment tables E1–E9, one per `sbs_bench::eN` function.
//!
//! ```sh
//! cargo run --release -p sbs-bench --bin experiments -- all
//! cargo run --release -p sbs-bench --bin experiments -- e1 e4
//! cargo run --release -p sbs-bench --bin experiments -- --seeds 50 e2
//! ```

use sbs_bench::{run_experiment, ALL_EXPERIMENTS};

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments [--seeds N] [all | e1 e2 ...]");
    eprintln!("valid experiments: {ALL_EXPERIMENTS:?}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds: u64 = 25;
    if let Some(pos) = args.iter().position(|a| a == "--seeds") {
        args.remove(pos);
        if pos >= args.len() {
            usage_error("--seeds requires a value");
        }
        let raw = args.remove(pos);
        seeds = match raw.parse() {
            Ok(n) if n > 0 => n,
            _ => usage_error(&format!("--seeds needs a positive integer, got '{raw}'")),
        };
    }
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for id in ids {
        match run_experiment(&id, seeds) {
            Some(table) => {
                println!("{}", table.render());
            }
            None => usage_error(&format!("unknown experiment '{id}'")),
        }
    }
}
