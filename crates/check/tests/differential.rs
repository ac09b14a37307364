//! Differential validation of the atomicity checker. On small random
//! histories, from arbitrary and from known initial states, four paths
//! must agree with a brute-force reference that tries every order of the
//! operations:
//!
//! - `check_linearizable` (the replay of a finished history);
//! - `ConsistencyMonitor` fed the same events directly (the online path);
//! - `atomic_stabilization_point`, against a brute force of every
//!   quiescent suffix from the writes completed before it;
//! - an all-pairs cluster-and-zone reference, which then stands in for
//!   the brute force on histories of 50–300 operations, too large to
//!   search, where long writes and overlapping readers keep many
//!   clusters live at once and the monitor must retire them.

use sbs_check::{
    atomic_stabilization_point, check_linearizable, History, InitialState, OpKind, OpRecord,
};
use sbs_obs::ConsistencyMonitor;
use sbs_sim::{DetRng, OpId, ProcessId, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Brute force: is there an order of `ops` that extends the real-time
/// precedence order in which every read returns the latest preceding
/// write? Before the first write the register holds one of `initial`'s
/// values, or under `InitialState::Any` whatever the first read pins.
fn brute_force_linearizable(ops: &[OpRecord<u64>], initial: &InitialState<u64>) -> bool {
    let starts: Vec<Option<u64>> = match initial {
        InitialState::Any => vec![None],
        InitialState::OneOf(set) => set.iter().copied().map(Some).collect(),
    };
    let mut placed = vec![false; ops.len()];
    starts
        .into_iter()
        .any(|state| extend(&mut placed, state, ops))
}

/// Tries every unplaced op as the next in the order (a partial order is
/// abandoned as soon as it breaks real time or register semantics).
fn extend(placed: &mut Vec<bool>, state: Option<u64>, ops: &[OpRecord<u64>]) -> bool {
    if placed.iter().all(|&p| p) {
        return true;
    }
    for i in 0..ops.len() {
        // `i` may go next only if every op that precedes it in real time
        // is already placed.
        let ready =
            !placed[i] && (0..ops.len()).all(|j| placed[j] || ops[j].responded >= ops[i].invoked);
        if !ready {
            continue;
        }
        let next = match ops[i].kind {
            OpKind::Write(v) => Some(v),
            OpKind::Read(v) if state.is_none_or(|s| s == v) => Some(v),
            OpKind::Read(_) => continue,
        };
        placed[i] = true;
        let found = extend(placed, next, ops);
        placed[i] = false;
        if found {
            return true;
        }
    }
    false
}

/// The cluster-and-zone test, all pairs at once. A history is atomic iff
/// for some candidate initial value `v0` and threshold `T` (none, or the
/// invocation of a read of `v0`), with the reads of `v0` invoked at or
/// before `T` reading the initial value:
///
/// - every other read returns the value of a write invoked no later than
///   the read completed;
/// - no two clusters conflict. A cluster is a write with the other reads
///   of its value, the initial value's a virtual write completed before
///   time 0 with its reads; its zone runs from its earliest completion
///   `f` to its latest invocation `s`, and A, B conflict iff
///   `A.f < B.s && B.f < A.s`.
///
/// Under `InitialState::Any` the candidates are the values read, plus a
/// fresh value no read returns.
fn cluster_reference(ops: &[OpRecord<u64>], initial: &InitialState<u64>) -> bool {
    let t = |at: SimTime| at.as_nanos() as i64;
    let mut by_value: BTreeMap<u64, Vec<&OpRecord<u64>>> = BTreeMap::new();
    for op in ops {
        by_value.entry(*op.kind.value()).or_default().push(op);
    }
    let candidates: BTreeSet<Option<u64>> = match initial {
        InitialState::Any => std::iter::once(None)
            .chain(
                ops.iter()
                    .filter(|o| !o.kind.is_write())
                    .map(|o| Some(*o.kind.value())),
            )
            .collect(),
        InitialState::OneOf(set) => set.iter().copied().map(Some).collect(),
    };
    candidates.into_iter().any(|v0| {
        let reads_of_v0 = v0.and_then(|v| by_value.get(&v)).into_iter().flatten();
        let thresholds: Vec<Option<i64>> = std::iter::once(None)
            .chain(
                reads_of_v0
                    .filter(|o| !o.kind.is_write())
                    .map(|r| Some(t(r.invoked))),
            )
            .collect();
        thresholds.into_iter().any(|threshold| {
            let initial_read = |o: &OpRecord<u64>| {
                !o.kind.is_write()
                    && Some(*o.kind.value()) == v0
                    && threshold.is_some_and(|th| t(o.invoked) <= th)
            };
            let mut initial_zone = (-1, -1);
            let mut zones = Vec::new();
            for members in by_value.values() {
                let write = members.iter().find(|o| o.kind.is_write());
                let mut zone = (i64::MAX, -1);
                for o in members {
                    if initial_read(o) {
                        initial_zone.1 = initial_zone.1.max(t(o.invoked));
                    } else if write.is_none_or(|w| o.responded < w.invoked) {
                        return false; // a read no write or initial value explains
                    } else {
                        zone = (zone.0.min(t(o.responded)), zone.1.max(t(o.invoked)));
                    }
                }
                if write.is_some() {
                    zones.push(zone);
                }
            }
            zones.push(initial_zone);
            zones.iter().enumerate().all(|(a, za)| {
                zones[a + 1..]
                    .iter()
                    .all(|zb| !(za.0 < zb.1 && zb.0 < za.1))
            })
        })
    })
}

/// Brute force of the stabilization point: the invocation of the first op
/// of the earliest quiescent suffix that linearizes from the writes
/// completed before it (those no other such write follows in real time;
/// arbitrary when none completed).
fn brute_force_stabilization(ops: &[OpRecord<u64>]) -> Option<SimTime> {
    (0..ops.len())
        .filter(|&b| ops[..b].iter().all(|p| p.responded < ops[b].invoked))
        .find(|&b| {
            let cut = ops[b].invoked;
            let done: Vec<&OpRecord<u64>> = ops
                .iter()
                .filter(|w| w.kind.is_write() && w.responded < cut)
                .collect();
            let initial = if done.is_empty() {
                InitialState::Any
            } else {
                InitialState::OneOf(
                    done.iter()
                        .filter(|w| !done.iter().any(|w2| w.responded < w2.invoked))
                        .map(|w| *w.kind.value())
                        .collect(),
                )
            };
            brute_force_linearizable(&ops[b..], &initial)
        })
        .map(|b| ops[b].invoked)
}

/// The online path: the history's events fed straight into a monitor in
/// time order, invocations before completions at equal times, and later
/// ops first among ties (the replay breaks ties the other way).
fn monitor_linearizable(ops: &[OpRecord<u64>], initial: &InitialState<u64>) -> bool {
    let mut events: Vec<(SimTime, bool, std::cmp::Reverse<usize>)> = ops
        .iter()
        .enumerate()
        .flat_map(|(i, op)| {
            let i = std::cmp::Reverse(i);
            [(op.invoked, false, i), (op.responded, true, i)]
        })
        .collect();
    events.sort_unstable();
    let mut m = ConsistencyMonitor::starting_from(initial.clone());
    for (at, completes, std::cmp::Reverse(i)) in events {
        let (op, kind) = (i as u64, ops[i].kind.clone());
        if completes {
            let read = (!kind.is_write()).then_some(*kind.value());
            m.op_completed(op, at.as_nanos(), read);
        } else {
            let write = kind.is_write().then_some(*kind.value());
            m.op_invoked(op, "k", at.as_nanos(), write);
        }
    }
    m.is_clean()
}

/// Random small histories: up to 7 operations with random intervals over a
/// small time range, writes with unique values, reads returning values from
/// a small pool (so both linearizable and non-linearizable cases arise).
fn arb_history(rng: &mut DetRng) -> Vec<OpRecord<u64>> {
    let len = rng.range_inclusive(1, 7) as usize;
    let mut used_write_values: BTreeSet<u64> = BTreeSet::new();
    let mut ops = Vec::new();
    for i in 0..len {
        let start = rng.range_inclusive(0, 49);
        let dur = rng.range_inclusive(1, 29);
        let client = rng.range_inclusive(0, 2) as u32;
        let is_write = rng.chance(0.5);
        let val = rng.range_inclusive(0, 3);
        let kind = if is_write {
            // Make write values unique by offsetting duplicates.
            let mut v = val;
            while used_write_values.contains(&v) {
                v += 10;
            }
            used_write_values.insert(v);
            OpKind::Write(v)
        } else {
            OpKind::Read(val)
        };
        ops.push(OpRecord {
            client: ProcessId(client),
            op: OpId(i as u64),
            invoked: SimTime::from_nanos(start),
            responded: SimTime::from_nanos(start + dur),
            kind,
        });
    }
    ops
}

/// `Any`, or one or two values from the read pool.
fn arb_initial(rng: &mut DetRng) -> InitialState<u64> {
    match rng.range_inclusive(0, 2) {
        0 => InitialState::Any,
        n => InitialState::OneOf((0..n).map(|_| rng.range_inclusive(0, 3)).collect()),
    }
}

#[test]
fn checker_agrees_with_brute_force() {
    let mut rng = DetRng::from_seed(0xD1FF);
    let mut verdicts = [0usize; 2];
    for case in 0..10_000 {
        let ops = arb_history(&mut rng);
        let initial = arb_initial(&mut rng);
        let h = History::new(ops);
        let ops = h.ops();
        let expected = brute_force_linearizable(ops, &initial);
        verdicts[usize::from(expected)] += 1;
        assert_eq!(
            cluster_reference(ops, &initial),
            expected,
            "case {case}: cluster reference vs brute force on {initial:?} {h:?}"
        );
        let got = check_linearizable(&h, &initial)
            .expect("unique writes by construction")
            .linearizable;
        assert_eq!(
            got, expected,
            "case {case}: replay vs brute force on {initial:?} {h:?}"
        );
        assert_eq!(
            monitor_linearizable(ops, &initial),
            expected,
            "case {case}: online monitor vs brute force on {initial:?} {h:?}"
        );
        assert_eq!(
            atomic_stabilization_point(&h).expect("unique writes by construction"),
            brute_force_stabilization(ops),
            "case {case}: stabilization point on {h:?}"
        );
    }
    assert!(
        verdicts.iter().all(|&n| n > 1_000),
        "both verdicts must be well represented: {verdicts:?}"
    );
}

#[test]
fn known_disagreement_candidates() {
    // Hand-picked shapes that exercised bugs during development.
    let rec = |id: u64, a: u64, b: u64, kind: OpKind<u64>| OpRecord {
        client: ProcessId(0),
        op: OpId(id),
        invoked: SimTime::from_nanos(a),
        responded: SimTime::from_nanos(b),
        kind,
    };
    let cases: Vec<Vec<OpRecord<u64>>> = vec![
        // Write inside a long read.
        vec![
            rec(0, 0, 100, OpKind::Read(5)),
            rec(1, 10, 20, OpKind::Write(5)),
        ],
        // Chain of overlapping ops collapsing to one segment.
        vec![
            rec(0, 0, 30, OpKind::Write(1)),
            rec(1, 20, 60, OpKind::Read(1)),
            rec(2, 40, 80, OpKind::Write(2)),
            rec(3, 70, 90, OpKind::Read(1)),
        ],
        // Read pinning the initial value, then contradicting write order.
        vec![
            rec(0, 0, 10, OpKind::Read(9)),
            rec(1, 20, 30, OpKind::Write(1)),
            rec(2, 40, 50, OpKind::Read(9)),
        ],
    ];
    // An initial value that is also written: its reads split between the
    // initial value and the write. Two naive splits get these atomic
    // histories wrong: "the initial value takes the reads completing
    // before the write is invoked" (the first; the read completing at 2
    // as the write of 3 is invoked must read the initial 3, or its
    // cluster conflicts with the write of 13's), and "the initial value
    // takes every read not invoked after the write completes" (the other
    // two; the late read of 3 must read the write of 3, since a write
    // completed before it was invoked).
    let split = |init: Option<u64>| match init {
        None => InitialState::Any,
        Some(v) => InitialState::OneOf(BTreeSet::from([v])),
    };
    let split_cases = vec![
        (
            None,
            vec![
                rec(0, 0, 2, OpKind::Read(3)),
                rec(1, 2, 31, OpKind::Write(3)),
                rec(2, 15, 21, OpKind::Write(13)),
                rec(3, 45, 55, OpKind::Write(1)),
                rec(4, 49, 50, OpKind::Read(3)),
            ],
        ),
        (
            Some(3),
            vec![
                rec(0, 2, 14, OpKind::Write(1)),
                rec(1, 39, 63, OpKind::Read(3)),
                rec(2, 42, 64, OpKind::Write(3)),
            ],
        ),
        (
            None,
            vec![
                rec(0, 16, 31, OpKind::Write(0)),
                rec(1, 16, 34, OpKind::Read(1)),
                rec(2, 36, 47, OpKind::Read(1)),
                rec(3, 45, 66, OpKind::Write(1)),
            ],
        ),
    ];
    let any = cases.into_iter().map(|ops| (None, ops));
    for (init, ops) in any.chain(split_cases) {
        let initial = split(init);
        let expected = brute_force_linearizable(&ops, &initial);
        assert_eq!(
            cluster_reference(&ops, &initial),
            expected,
            "reference on {ops:?}"
        );
        let h = History::new(ops);
        let got = check_linearizable(&h, &initial).unwrap().linearizable;
        assert_eq!(got, expected, "disagreement on {initial:?} {h:?}");
        assert_eq!(
            monitor_linearizable(h.ops(), &initial),
            expected,
            "online on {h:?}"
        );
    }
}

/// A history of 50–300 operations on one register, with its initial
/// state. Every operation takes effect at a random instant inside its
/// interval, in that order, so the history is atomic — unless up to
/// three reads are made to return the value before the one they saw.
/// One write in five runs up to 200 times longer than a read, and reads
/// pile up ten deep. The initial value is 7; in a third of the
/// histories a write of 7 follows, so 7's reads split between the two.
fn arb_large_history(rng: &mut DetRng) -> (Vec<OpRecord<u64>>, InitialState<u64>) {
    let len = rng.range_inclusive(50, 300);
    let rewrite = rng.chance(1.0 / 3.0);
    let mut ops: Vec<(u64, OpRecord<u64>)> = (0..len)
        .map(|i| {
            let write = rng.chance(0.25);
            let start = rng.range_inclusive(0, 4 * len);
            let dur = match write && rng.chance(0.2) {
                true => rng.range_inclusive(200, 2_000),
                false => rng.range_inclusive(1, 80),
            };
            let point = rng.range_inclusive(start, start + dur);
            let kind = if write {
                OpKind::Write(100 + i)
            } else {
                OpKind::Read(0)
            };
            let rec = OpRecord {
                client: ProcessId(i as u32),
                op: OpId(i),
                invoked: SimTime::from_nanos(start),
                responded: SimTime::from_nanos(start + dur),
                kind,
            };
            (point, rec)
        })
        .collect();
    ops.sort_by_key(|(point, rec)| (*point, rec.op));
    if rewrite {
        if let Some((_, w)) = ops.iter_mut().find(|(_, o)| o.kind.is_write()) {
            w.kind = OpKind::Write(7);
        }
    }
    let mut values = vec![7];
    for (_, op) in &mut ops {
        match op.kind {
            OpKind::Write(v) => values.push(v),
            OpKind::Read(_) => op.kind = OpKind::Read(*values.last().unwrap()),
        }
    }
    for _ in 0..rng.range_inclusive(0, 3) {
        let (_, op) = &mut ops[rng.range_inclusive(0, len - 1) as usize];
        if let OpKind::Read(v) = op.kind {
            let at = values.iter().position(|&x| x == v).unwrap();
            op.kind = OpKind::Read(values[at.saturating_sub(1)]);
        }
    }
    let initial = match rng.range_inclusive(0, 2) {
        0 => InitialState::Any,
        1 => InitialState::OneOf(BTreeSet::from([7])),
        _ => InitialState::OneOf(BTreeSet::from([7, 100])),
    };
    (ops.into_iter().map(|(_, op)| op).collect(), initial)
}

#[test]
fn large_histories_agree_with_the_cluster_reference() {
    let mut rng = DetRng::from_seed(0x61C);
    let mut verdicts = [0usize; 2];
    for case in 0..1_000 {
        let (ops, initial) = arb_large_history(&mut rng);
        let h = History::new(ops);
        let expected = cluster_reference(h.ops(), &initial);
        verdicts[usize::from(expected)] += 1;
        let got = check_linearizable(&h, &initial).unwrap().linearizable;
        assert_eq!(got, expected, "case {case}: replay on {initial:?} {h:?}");
        assert_eq!(
            monitor_linearizable(h.ops(), &initial),
            expected,
            "case {case}: online monitor on {initial:?} {h:?}"
        );
    }
    assert!(
        verdicts.iter().all(|&n| n > 100),
        "both verdicts must be well represented: {verdicts:?}"
    );
}
