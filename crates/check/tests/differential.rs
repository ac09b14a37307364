//! Differential validation of the atomicity checker. On small random
//! histories, from arbitrary and from known initial states, three paths
//! must agree with a brute-force reference that tries every order of the
//! operations:
//!
//! - `check_linearizable` (the replay of a finished history);
//! - `ConsistencyMonitor` fed the same events directly (the online path);
//! - `atomic_stabilization_point`, against a brute force of every
//!   quiescent suffix from the writes completed before it.

use sbs_check::{
    atomic_stabilization_point, check_linearizable, History, InitialState, OpKind, OpRecord,
};
use sbs_obs::ConsistencyMonitor;
use sbs_sim::{DetRng, OpId, ProcessId, SimTime};
use std::collections::BTreeSet;

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
    assert_eq!(m.saturations(), 0, "small histories never saturate");
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
    for ops in cases {
        let expected = brute_force_linearizable(&ops, &InitialState::Any);
        let h = History::new(ops);
        let got = check_linearizable(&h, &InitialState::Any)
            .unwrap()
            .linearizable;
        assert_eq!(got, expected, "disagreement on {h:?}");
    }
}
