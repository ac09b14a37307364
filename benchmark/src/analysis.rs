//! Turns per-key histories into the benchmark's verdicts: which operations
//! count, which failed, and their exact latencies.

use crate::stats::{median, percentile};
use sbs_check::{check_linearizable, History, InitialState};
use std::fmt::Debug;
use std::hash::Hash;

/// One measured operation's latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Position in the measured phase: `OpId` minus the first measured id.
    pub index: u64,
    pub put: bool,
    /// Responded − invoked.
    pub ns: u64,
}

/// What the measured part of a run's histories says.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Completed operations of the measured phase (warm-up excluded).
    pub measured_ops: u64,
    /// Measured operations on keys whose history is not atomic: one bad
    /// read makes every answer on that key suspect, so all of them fail.
    pub bad_key_ops: u64,
    /// The first checker complaint, for the log.
    pub first_error: Option<String>,
    /// Every measured operation's exact latency.
    pub samples: Vec<Sample>,
}

/// Samples of one kind per p99 window: the fewest that leave a p99 ten
/// samples beyond it.
const P99_WINDOW: usize = 1_000;

impl Verdict {
    /// Folds a later run's verdict into this one (the simulator workload
    /// pools several seeds); its samples follow this one's.
    pub fn merge(&mut self, other: Verdict) {
        let offset = self.samples.iter().map(|s| s.index + 1).max().unwrap_or(0);
        self.measured_ops += other.measured_ops;
        self.bad_key_ops += other.bad_key_ops;
        self.first_error = self.first_error.take().or(other.first_error);
        self.samples
            .extend(other.samples.into_iter().map(|s| Sample {
                index: s.index + offset,
                ..s
            }));
    }

    /// The latencies of the measured puts (or gets), in the order the
    /// operations were invoked.
    fn in_order(&self, put: bool) -> Vec<u64> {
        let mut kind: Vec<&Sample> = self.samples.iter().filter(|s| s.put == put).collect();
        kind.sort_unstable_by_key(|s| s.index);
        kind.into_iter().map(|s| s.ns).collect()
    }

    /// Measured puts and gets.
    pub fn counts(&self) -> (usize, usize) {
        let puts = self.samples.iter().filter(|s| s.put).count();
        (puts, self.samples.len() - puts)
    }

    /// `(name, value in µs)` of the four latency metrics; a kind with no
    /// sample is left out. The p50 is the median of all samples of the
    /// kind. The p99 is taken per window of [`P99_WINDOW`] consecutive
    /// samples (one window when there are fewer than two) and the median
    /// window is reported, so a burst that lands in one window — a noisy
    /// neighbour, a page-cache flush — does not set the number.
    pub fn latency_metrics(&self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        for (put, p50_name, p99_name) in [
            (true, "put_p50_us", "put_p99_us"),
            (false, "get_p50_us", "get_p99_us"),
        ] {
            let in_order = self.in_order(put);
            if in_order.is_empty() {
                continue;
            }
            let mut sorted = in_order.clone();
            sorted.sort_unstable();
            let p50 = percentile(&sorted, 0.50).expect("non-empty");
            out.push((p50_name, p50 as f64 / 1e3));
            let windows = (in_order.len() / P99_WINDOW).max(1);
            let p99s: Vec<f64> = in_order
                .chunks(in_order.len() / windows)
                .take(windows)
                .map(|w| {
                    let mut w = w.to_vec();
                    w.sort_unstable();
                    percentile(&w, 0.99).expect("non-empty") as f64 / 1e3
                })
                .collect();
            out.push((p99_name, median(&p99s).expect("at least one window")));
        }
        out
    }
}

/// Judges every key's history. Operations with `OpId` below
/// `measured_from` (the warm-up) take part in the atomicity check — the
/// values they wrote are what measured reads may return — but not in any
/// count or latency.
pub fn judge<V>(
    histories: impl IntoIterator<Item = (String, History<Option<V>>)>,
    measured_from: u64,
) -> Verdict
where
    V: Clone + Eq + Hash + Ord + Debug,
{
    let mut verdict = Verdict::default();
    let initial = InitialState::OneOf(std::iter::once(None).collect());
    for (key, history) in histories {
        let before = verdict.samples.len();
        verdict.samples.extend(
            history
                .ops()
                .iter()
                .filter(|r| r.op.0 >= measured_from)
                .map(|r| Sample {
                    index: r.op.0 - measured_from,
                    put: r.kind.is_write(),
                    ns: r.responded.as_nanos().saturating_sub(r.invoked.as_nanos()),
                }),
        );
        let measured = (verdict.samples.len() - before) as u64;
        verdict.measured_ops += measured;
        let complaint = match check_linearizable(&history, &initial) {
            Ok(rep) if rep.linearizable => None,
            Ok(rep) => Some(format!(
                "key {key}: not linearizable (segment {:?})",
                rep.failed_segment
            )),
            Err(e) => Some(format!("key {key}: {e}")),
        };
        if let Some(c) = complaint {
            verdict.bad_key_ops += measured;
            verdict.first_error.get_or_insert(c);
        }
    }
    verdict
}

/// Operations that count as failed, out of `attempted`: those issued but
/// never completed, one per message a transport dropped, one per frame the
/// codec refused, and every operation on a key whose history failed the
/// checker. Never more than `attempted`.
pub fn failed_ops(
    attempted: u64,
    completed: u64,
    drops: u64,
    rejects: u64,
    bad_key_ops: u64,
) -> u64 {
    (attempted.saturating_sub(completed) + drops + rejects + bad_key_ops).min(attempted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_check::{OpKind, OpRecord};
    use sbs_sim::{OpId, ProcessId, SimTime};

    fn rec(
        op: u64,
        invoked: u64,
        responded: u64,
        kind: OpKind<Option<u64>>,
    ) -> OpRecord<Option<u64>> {
        OpRecord {
            client: ProcessId(0),
            op: OpId(op),
            invoked: SimTime::from_nanos(invoked),
            responded: SimTime::from_nanos(responded),
            kind,
        }
    }
    fn put(op: u64, invoked: u64, responded: u64, v: u64) -> OpRecord<Option<u64>> {
        rec(op, invoked, responded, OpKind::Write(Some(v)))
    }
    fn get(op: u64, invoked: u64, responded: u64, v: Option<u64>) -> OpRecord<Option<u64>> {
        rec(op, invoked, responded, OpKind::Read(v))
    }

    #[test]
    fn warm_up_ops_are_excluded_by_op_id_but_still_ground_the_check() {
        // Ops 0–1 are warm-up: the measured read of 7 is only legal
        // because the warm-up wrote 7.
        let h = History::new(vec![
            put(0, 0, 10, 7),
            get(1, 20, 1_000_020, Some(7)),
            get(2, 2_000_000, 2_000_300, Some(7)),
            put(3, 3_000_000, 3_000_900, 8),
        ]);
        let v = judge([("k".to_string(), h)], 2);
        assert_eq!(v.measured_ops, 2);
        assert_eq!(v.bad_key_ops, 0);
        assert_eq!(v.first_error, None);
        assert_eq!(
            v.in_order(false),
            vec![300],
            "the slow warm-up get must not appear"
        );
        assert_eq!(v.in_order(true), vec![900]);
        assert_eq!(v.counts(), (1, 1));
    }

    #[test]
    fn a_key_failing_the_checker_fails_all_its_measured_ops() {
        let good = History::new(vec![put(0, 0, 10, 1), get(1, 20, 30, Some(1))]);
        // Reads 2 before anyone wrote it, then the old value after.
        let bad = History::new(vec![
            put(2, 0, 10, 1),
            get(3, 20, 30, Some(2)),
            put(4, 40, 50, 2),
            get(5, 60, 70, Some(1)),
            get(6, 80, 90, Some(2)),
        ]);
        let v = judge([("good".to_string(), good), ("bad".to_string(), bad)], 3);
        assert_eq!(v.measured_ops, 4, "ops 3..=6");
        assert_eq!(v.bad_key_ops, 4, "every measured op of the bad key");
        assert!(v
            .first_error
            .as_deref()
            .is_some_and(|e| e.contains("key bad")));
        // 10 attempted, 9 completed, one drop, no reject, 4 on a bad key.
        assert_eq!(failed_ops(10, 9, 1, 0, v.bad_key_ops), 6);
    }

    #[test]
    fn failed_ops_arithmetic() {
        assert_eq!(failed_ops(1000, 1000, 0, 0, 0), 0);
        assert_eq!(failed_ops(1000, 990, 0, 0, 0), 10);
        assert_eq!(failed_ops(1000, 1000, 2, 3, 0), 5);
        assert_eq!(
            failed_ops(1000, 0, 50, 50, 500),
            1000,
            "capped at attempted"
        );
        // A run that panicked or stalled completed nothing the harness can
        // vouch for.
        assert_eq!(failed_ops(5000, 0, 0, 0, 0), 5000);
    }

    #[test]
    fn p99_is_the_median_window_and_p50_is_pooled() {
        // 3 000 gets of 100 ns; one burst puts 30 slow gets in the middle
        // window. Pooled, they are exactly the worst 1% and set the p99.
        let samples = (0..3_000u64)
            .map(|i| Sample {
                index: i,
                put: false,
                ns: if (1_500..1_530).contains(&i) {
                    9_000_000
                } else {
                    100_000
                },
            })
            .collect();
        let v = Verdict {
            samples,
            ..Verdict::default()
        };
        let m = v.latency_metrics();
        assert_eq!(m, vec![("get_p50_us", 100.0), ("get_p99_us", 100.0)]);
        // Fewer than two windows' worth: one window, the plain p99.
        let few = Verdict {
            samples: v.samples[1_000..2_999].to_vec(),
            ..Verdict::default()
        };
        assert!(few.latency_metrics().contains(&("get_p99_us", 9_000.0)));
    }

    #[test]
    fn merged_verdicts_keep_their_samples_in_run_order() {
        let sample = |index, ns| Sample {
            index,
            put: true,
            ns,
        };
        let mut a = Verdict {
            measured_ops: 2,
            samples: vec![sample(1, 20), sample(0, 10)],
            ..Verdict::default()
        };
        a.merge(Verdict {
            measured_ops: 1,
            samples: vec![sample(0, 30)],
            ..Verdict::default()
        });
        assert_eq!(a.measured_ops, 3);
        assert_eq!(a.in_order(true), vec![10, 20, 30]);
    }

    #[test]
    fn put_and_get_latencies_are_never_merged() {
        let h = History::new(vec![
            put(0, 0, 12_800_000, 1),
            get(1, 13_000_000, 13_000_400, Some(1)),
        ]);
        let v = judge([("k".to_string(), h)], 0);
        let m = v.latency_metrics();
        assert!(m.contains(&("put_p50_us", 12_800.0)));
        assert!(m.contains(&("get_p50_us", 0.4)));
    }
}
