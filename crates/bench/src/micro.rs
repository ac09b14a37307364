//! A tiny self-contained micro-benchmark harness (the workspace builds
//! offline, so no Criterion): calibrated iteration counts, warm-up, and a
//! median-of-samples report.
//!
//! Each `[[bench]]` target is a plain `fn main()` (`harness = false`) that
//! calls [`bench()`](fn@bench) per case. Run with `cargo bench -p sbs-bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall time per measured sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(40);
/// Samples per benchmark (median reported).
const SAMPLES: usize = 7;

/// Times `f`, printing `name: <median> ns/iter (± spread)`. The closure's
/// result is passed through [`black_box`] so the work is not optimized
/// away. Returns the median nanoseconds per iteration.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    // Warm up and calibrate the per-sample iteration count.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let iters = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 10_000_000) as u64;

    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let median = samples[SAMPLES / 2];
    let spread = samples[SAMPLES - 1] - samples[0];
    println!(
        "{name:<44} {:>12} ns/iter (± {:.0})",
        format_ns(median),
        spread
    );
    median
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.1}M", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}k", ns / 1e3)
    } else {
        format!("{ns:.0}")
    }
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        let ns = bench("noop_loop", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert!(ns > 0.0 && ns < 1e8, "got {ns}");
    }
}
