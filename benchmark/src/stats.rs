//! Exact percentiles, medians, the probes' timing loop, and this process's
//! CPU time and peak memory as the kernel accounts them.

use sbs_obs::nearest_rank_index;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nearest-rank percentile `p` (in `[0, 1]`) of an ascending sample — the
/// workspace's shared rule, applied to the exact values instead of
/// histogram buckets. `None` for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "sample must be sorted"
    );
    sorted.get(nearest_rank_index(sorted.len(), p)).copied()
}

/// Median of `values` (mean of the two middle elements for an even
/// count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// CPU time (user + system) the live threads of this process have used so
/// far, in microseconds: the scheduler's own per-thread run time from
/// `/proc/self/task/*/schedstat`, exact to the nanosecond. A thread that
/// exits takes its time with it, so take differences only across phases
/// in which no thread ends — a deployment's threads all live from set-up
/// to drop.
pub fn process_cpu_us() -> f64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    let mut ns = 0u64;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += run_time_ns(&stat);
        }
    }
    ns as f64 / 1e3
}

/// The first field of a `schedstat` file: nanoseconds spent on a CPU.
fn run_time_ns(schedstat: &str) -> u64 {
    schedstat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the run time")
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and assumes the 64-bit Linux `timespec` layout");

/// `struct timespec` of 64-bit Linux: two 64-bit signed integers.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// The C library's `clock_gettime(2)`; std links it already.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used so far, in nanoseconds. Unlike
/// the wall clock it does not advance while the thread is blocked in a
/// full socket buffer or waits for a core, so the spans of the traced run
/// add up to CPU time. std has no call for it, hence the foreign one.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the 64-bit
    // Linux C library expects (checked by the `cfg` above), and
    // `clock_gettime` writes nothing else and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "the thread CPU clock exists on every Linux since 2.6.12"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The most resident memory this process ever held, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// Hardware threads available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Target wall time per probe sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);
/// Samples per probe (the median is reported).
const SAMPLES: usize = 7;

/// Median nanoseconds per call of `f`: one calibrating call, then
/// [`SAMPLES`] samples of as many calls as fit [`SAMPLE_TARGET`].
pub fn bench_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let iters = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 10_000_000) as u64;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples).expect("SAMPLES > 0")
}

/// Like [`bench_ns`], but `setup` builds each call's input outside the
/// timed region.
pub fn bench_batched_ns<T, R>(
    mut setup: impl FnMut() -> T,
    mut routine: impl FnMut(T) -> R,
) -> f64 {
    let input = setup();
    let t0 = Instant::now();
    black_box(routine(input));
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let iters = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let t = Instant::now();
                black_box(routine(input));
                elapsed += t.elapsed();
            }
            elapsed.as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples).expect("SAMPLES > 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook definition, written out independently of
    /// `nearest_rank_index`: the smallest element with at least `p` of
    /// the sample at or below it.
    fn reference(sorted: &[u64], p: f64) -> u64 {
        let n = sorted.len();
        *sorted
            .iter()
            .enumerate()
            .find(|(i, _)| (*i + 1) as f64 >= p * n as f64)
            .map(|(_, v)| v)
            .unwrap_or(&sorted[n - 1])
    }

    #[test]
    fn percentiles_are_nearest_rank_on_exact_values() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.99), Some(7));
        let five = [1, 2, 3, 4, 100];
        assert_eq!(percentile(&five, 0.5), Some(3));
        assert_eq!(percentile(&five, 0.95), Some(100));
        // A sample the 12.5%-wide histogram buckets could not tell apart.
        let mut sample: Vec<u64> = (0..1000)
            .map(|i| 1_310_000 + (i * 7919) % 130_000)
            .collect();
        sample.sort_unstable();
        for p in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(percentile(&sample, p), Some(reference(&sample, p)), "p={p}");
        }
        assert_eq!(percentile(&sample, 0.99), Some(sample[989]));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn process_accounting_reads_sane_values() {
        // This thread's own file: the other test threads come and go.
        let own = || {
            run_time_ns(
                &std::fs::read_to_string("/proc/thread-self/schedstat").expect("own schedstat"),
            )
        };
        let before = own();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(60) {
            x = black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            own() - before >= 30_000_000,
            "60 ms of spinning is CPU time"
        );
        // The thread clock agrees with the scheduler's account, and
        // stands still while the thread sleeps.
        let (cpu, sched) = (thread_cpu_ns(), own());
        assert!(
            cpu.abs_diff(sched) < 20_000_000,
            "thread clock {cpu} vs schedstat {sched}"
        );
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            thread_cpu_ns() - cpu < 10_000_000,
            "sleeping is not CPU time"
        );
        assert!(process_cpu_us() > 0.0);
        assert!(peak_rss_mib() > 0.5);
        assert!(cores() >= 1);
    }
}
