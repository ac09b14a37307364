//! The per-key atomicity checker: it judges a register's operations **as
//! they complete**. It is the workspace's only atomicity checker: the
//! store feeds it live (`StoreBuilder::monitor()`), and `sbs-check`'s
//! `check_linearizable` / `atomic_stabilization_point` replay a finished
//! history into it.
//!
//! It runs the cluster-and-zone test of Gibbons and Korach ("Testing
//! Shared Memories", SIAM J. Comput. 1997) online. A *cluster* is a write
//! plus the completed reads that returned its value. Its zone runs from
//! its earliest completion (`first`) to its latest invocation (`last`).
//! Two clusters A and B *conflict* when `A.first < B.last` and
//! `B.first < A.last`: each holds an operation that completed before an
//! operation of the other was invoked, so neither write can be ordered
//! first. A key's history is atomic iff every read returns the value of a
//! write invoked before the read completed (or the initial value, below)
//! and no two clusters conflict. A pending write completes at +∞ (its
//! cluster has no `first` until a member completes); a pending read is
//! ignored until it completes. Only a read's completion can expose a
//! violation. Judging one costs a pass over the key's live clusters per
//! surviving explanation (below; usually one), and retirement a pass over
//! their pairs — live clusters, not operations, whatever the overlap.
//!
//! # The initial value
//!
//! The initial value is a virtual write that completed before every
//! operation. Its cluster conflicts with a cluster B iff one of its reads
//! was invoked after B's first completion, so it can hold only the
//! *early* reads of its value: those invoked before the first completion
//! that is not a read of that value. The initial value may also be
//! written later (unique write values bind writes, not the initial
//! value); its reads then split between the virtual write and the real
//! one, and handing the virtual write *every* early read is the best
//! split, since a smaller cluster conflicts with less. So a key tracks
//! the explanations still consistent with its history, and it is atomic
//! while one survives:
//!
//! - **written**: no read returned the initial value;
//! - **initial `v`**, for a candidate `v` (any value under
//!   [`InitialState::Any`]): the early reads of `v` returned the initial
//!   value, and the cluster of a write of `v` starts at its first late
//!   completion (`first_late`). It is born at `v`'s first early read,
//!   alive iff *written* was alive just before.
//!
//! # Precedence is positional
//!
//! Each key numbers its invocations and completions in feed order, and
//! the zones are measured in those positions: an operation precedes
//! another iff its completion was fed before the other's invocation. At
//! equal timestamps the feed order decides — the store feeds a
//! completion before the invocation its closed-loop refill makes at the
//! same instant, so the completed operation precedes the new one; a
//! replay that wants operations touching at one instant to stay
//! concurrent feeds invocations first.
//!
//! # Bounded memory
//!
//! A cluster holds two positions and a few operation ids, never its
//! reads. A cluster A *retires* once another cluster B with
//! `A.first < B.last` has completed an operation and no pending read was
//! invoked before both first completions: every later read of A's value
//! was invoked after B's first completion, conflicts with B, and is
//! flagged on sight like any read no live cluster explains. Of the
//! retired clusters a key keeps only the latest `last`: all of them
//! completed before any read still to complete was invoked, so a cluster
//! conflicts with one of them iff its `first` precedes that `last`. Live
//! clusters therefore stay at the key's concurrency, however long the run
//! (a read that never completes holds back the retirement of clusters
//! completing after its invocation).
//!
//! # Soundness model
//!
//! The verdict is exact (no false alarms, no missed violations among
//! completed operations) under two assumptions about the history:
//! **unique write values** per key, so a read's value names the write it
//! observed; and **a read returns the value of an invoked write** or the
//! initial value, so pending writes, whose values are known from
//! invocation, are the only unfinished operations a cluster needs.
//!
//! # Violations
//!
//! A violation is flagged at the first completion after which the key's
//! completed operations (with its pending writes) have no linearization.
//! The key then restarts from [`InitialState::Any`], keeping its pending
//! operations, so monitoring continues.
//!
//! ```
//! use sbs_obs::ConsistencyMonitor;
//! let mut m: ConsistencyMonitor<Option<u64>> = ConsistencyMonitor::with_initial(None);
//! m.op_invoked(0, "k", 10, Some(Some(1))); // put k=1 invoked at t=10
//! m.op_completed(0, 20, None);             // ...completed at t=20
//! m.op_invoked(1, "k", 30, None);          // get k invoked at t=30
//! m.op_completed(1, 40, Some(Some(1)));    // read the written value: fine
//! assert!(m.is_clean());
//! m.op_invoked(2, "k", 50, None);
//! m.op_completed(2, 60, Some(None));       // reads "absent" after the put: violation
//! assert!(!m.is_clean());
//! assert_eq!(m.first_violation().unwrap().op, 2);
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What a register may hold before its first operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InitialState<V> {
    /// Completely unknown (arbitrary initial configuration): the first read
    /// may return anything, which then becomes the register's value.
    Any,
    /// One of these concrete values.
    OneOf(BTreeSet<V>),
}

impl<V: Ord> InitialState<V> {
    /// The same state over borrowed values, for a monitor that must not
    /// clone them.
    pub fn as_ref(&self) -> InitialState<&V> {
        match self {
            InitialState::Any => InitialState::Any,
            InitialState::OneOf(set) => InitialState::OneOf(set.iter().collect()),
        }
    }

    fn allows(&self, v: &V) -> bool {
        match self {
            InitialState::Any => true,
            InitialState::OneOf(set) => set.contains(v),
        }
    }
}

/// One detected atomicity violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The key whose history became non-linearizable.
    pub key: String,
    /// The operation whose completion exposed the violation.
    pub op: u64,
    /// Simulated time (nanoseconds) of the exposing completion — the
    /// "flag at event time" stamp.
    pub at_ns: u64,
    /// The culprit set, sorted: the exposing operation and, when two
    /// clusters conflict, the operations that pin both zones (each
    /// cluster's write, earliest completion and latest invocation; of a
    /// retired cluster, its write and latest invocation). A read of a
    /// value no live cluster or initial value explains is its own only
    /// culprit.
    pub culprits: Vec<u64>,
}

/// An operation at a position of its key's event counter:
/// `(position, op)`.
type Pin = (u64, u64);

/// A write and the completed reads that returned its value.
#[derive(Debug)]
struct Cluster<V> {
    value: V,
    write: u64,
    /// The earliest completion among the members; `None` (+∞) while none
    /// has completed.
    first: Option<Pin>,
    /// The same, leaving out early reads: where the cluster starts when
    /// the initial value is its value.
    first_late: Option<Pin>,
    /// The latest invocation among the members.
    last: Pin,
}

/// One key's checker state.
#[derive(Debug)]
struct KeyState<V> {
    name: String,
    /// The key's event counter.
    clock: u64,
    clusters: Vec<Cluster<V>>,
    /// Invocation positions of the pending reads.
    pending_reads: BTreeSet<u64>,
    /// The latest `last` among retired clusters, with that cluster's write.
    retired: Option<(Pin, u64)>,
    /// The first completion since the key (re)started, with the value if
    /// it was a read.
    first_done: Option<(u64, Option<V>)>,
    /// The first completion that is not a read of `first_done`'s value.
    second_done: Option<u64>,
    /// The *written* explanation survives.
    written: bool,
    /// The surviving *initial `v`* explanations.
    initials: Vec<V>,
    /// The key restarted after a violation: any initial value is a
    /// candidate.
    restarted: bool,
}

impl<V: Clone + Ord> KeyState<V> {
    fn new(name: &str) -> Self {
        KeyState {
            name: name.to_string(),
            clock: 0,
            clusters: Vec::new(),
            pending_reads: BTreeSet::new(),
            retired: None,
            first_done: None,
            second_done: None,
            written: true,
            initials: Vec::new(),
            restarted: false,
        }
    }

    /// The first completion that is not a read of `v` (`None` while there
    /// is none): reads of `v` invoked before it are early.
    fn early_end(&self, v: &V) -> Option<u64> {
        match &self.first_done {
            None => None,
            Some((_, Some(x))) if x == v => self.second_done,
            Some((at, _)) => Some(*at),
        }
    }

    fn note_completion(&mut self, now: u64, read: Option<&V>) {
        match &self.first_done {
            None => self.first_done = Some((now, read.cloned())),
            Some((_, Some(x))) if read != Some(x) => {
                self.second_done.get_or_insert(now);
            }
            Some(_) => {}
        }
    }

    /// Judges one explanation after the read `op` joined cluster `u`
    /// (`None`: no live cluster has its value), whose `last` it advanced
    /// iff `grew`. `late` is the cluster whose value the explanation takes
    /// as initial; its zone starts at `first_late`. Returns the culprits
    /// if the explanation dies.
    fn judge(
        &self,
        op: u64,
        u: Option<usize>,
        grew: bool,
        late: Option<usize>,
    ) -> Option<Vec<u64>> {
        let Some(u) = u else {
            return Some(vec![op]);
        };
        if !grew {
            // Only a later `last` can open a conflict: a `first` is set at
            // the newest position, after every `last`.
            return None;
        }
        let first = |i: usize| {
            let c = &self.clusters[i];
            if late == Some(i) {
                c.first_late
            } else {
                c.first
            }
        };
        let c = &self.clusters[u];
        let uf = first(u)?;
        let other = self
            .clusters
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != u)
            .find_map(|(j, b)| {
                let bf = first(j)?;
                (bf.0 < c.last.0 && uf.0 < b.last.0).then(|| vec![b.write, bf.1, b.last.1])
            })
            .or_else(|| {
                let (last, write) = self.retired?;
                (uf.0 < last.0).then(|| vec![write, last.1])
            })?;
        Some([c.write, uf.1, op].into_iter().chain(other).collect())
    }

    /// A read of `v`, invoked at position `at`, completed at `now`.
    /// `candidate`: `v` may be the initial value. Returns the culprits if
    /// no explanation survives.
    fn read_done(&mut self, op: u64, at: u64, now: u64, v: V, candidate: bool) -> Option<Vec<u64>> {
        self.pending_reads.remove(&at);
        let early = self.early_end(&v).is_none_or(|end| at < end);
        self.note_completion(now, Some(&v));
        let u = self.clusters.iter().position(|c| c.value == v);
        let grew = u.is_some_and(|u| {
            let c = &mut self.clusters[u];
            c.first.get_or_insert((now, op));
            if !early {
                c.first_late.get_or_insert((now, op));
            }
            let grew = at > c.last.0;
            if grew {
                c.last = (at, op);
            }
            grew
        });
        let written = self.written;
        let mut culprits = written.then(|| self.judge(op, u, grew, None)).flatten();
        self.written &= culprits.is_none();
        let mut initials = std::mem::take(&mut self.initials);
        initials.retain(|x| {
            let died = if *x != v {
                let late = self.clusters.iter().position(|c| c.value == *x);
                self.judge(op, u, grew, late)
            } else if early {
                None // the read returned the initial value
            } else {
                self.judge(op, u, grew, u)
            };
            match died {
                Some(c) => culprits = Some(c),
                None => return true,
            }
            false
        });
        self.initials = initials;
        if early && written && candidate && !self.initials.contains(&v) {
            self.initials.push(v);
        }
        // Some explanation survived every earlier event, so if none
        // survives this one, one died here and left its culprits.
        culprits.filter(|_| !self.written && self.initials.is_empty())
    }

    fn write_done(&mut self, op: u64, now: u64) {
        self.note_completion(now, None);
        if let Some(c) = self.clusters.iter_mut().find(|c| c.write == op) {
            c.first.get_or_insert((now, op));
            c.first_late.get_or_insert((now, op));
        }
    }

    /// Retires every cluster that no later read can join without a
    /// violation (module docs). Measured from `first_late`, never earlier
    /// than `first`, so the test holds under every explanation.
    fn retire(&mut self) {
        let oldest = self.pending_reads.first().copied().unwrap_or(u64::MAX);
        let mut i = 0;
        while i < self.clusters.len() {
            let dominated = self.clusters[i].first_late.is_some_and(|(fa, _)| {
                let live = self.clusters.iter().enumerate().filter_map(|(j, b)| {
                    let (fb, _) = b.first_late?;
                    (j != i && b.last.0 > fa).then_some(fb.max(fa))
                });
                let retired = self.retired.filter(|(last, _)| last.0 > fa).map(|_| fa);
                live.chain(retired)
                    .min()
                    .is_some_and(|bound| bound < oldest)
            });
            if !dominated {
                i += 1;
                continue;
            }
            let a = self.clusters.swap_remove(i);
            if self.retired.is_none_or(|(last, _)| a.last.0 > last.0) {
                self.retired = Some((a.last, a.write));
            }
        }
    }

    /// Restarts the key from an unknown value after a violation, keeping
    /// the pending writes (`invoked` gives a pending write's invocation
    /// position) and the pending reads.
    fn restart(&mut self, invoked: impl Fn(u64) -> Option<u64>) {
        self.clusters.retain_mut(|c| {
            let Some(at) = invoked(c.write) else {
                return false;
            };
            (c.first, c.first_late, c.last) = (None, None, (at, c.write));
            true
        });
        self.retired = None;
        self.first_done = None;
        self.second_done = None;
        self.written = true;
        self.initials.clear();
        self.restarted = true;
    }
}

/// A pending operation: its key, invocation position and kind.
#[derive(Clone, Copy, Debug)]
struct Pending {
    key: usize,
    at: u64,
    read: bool,
}

/// The online atomicity monitor. Generic over the value domain `V`
/// (the store instantiates it at `Option<V>`, with `None` = key
/// absent; a replay of a finished history at `&V`, so no value is
/// cloned). See the module docs for the algorithm and its assumptions.
pub struct ConsistencyMonitor<V> {
    /// Key name -> index into `states`.
    keys: BTreeMap<String, usize>,
    states: Vec<KeyState<V>>,
    pending: HashMap<u64, Pending>,
    violations: Vec<Violation>,
    ops_observed: u64,
    /// What every key's register holds before its first operation.
    initial: InitialState<V>,
}

impl<V> std::fmt::Debug for ConsistencyMonitor<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsistencyMonitor")
            .field("keys", &self.keys.len())
            .field("ops_observed", &self.ops_observed)
            .field("violations", &self.violations.len())
            .finish_non_exhaustive()
    }
}

impl<V: Clone + Ord> Default for ConsistencyMonitor<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Ord> ConsistencyMonitor<V> {
    /// A monitor whose registers start with an **unknown** value: the
    /// first read linearized on a fresh key pins it.
    pub fn new() -> Self {
        Self::starting_from(InitialState::Any)
    }

    /// A monitor whose registers all start holding `initial` (the store
    /// uses `None` — every key starts absent).
    pub fn with_initial(initial: V) -> Self {
        Self::starting_from(InitialState::OneOf(BTreeSet::from([initial])))
    }

    /// A monitor whose registers all start in `initial`.
    pub fn starting_from(initial: InitialState<V>) -> Self {
        ConsistencyMonitor {
            keys: BTreeMap::new(),
            states: Vec::new(),
            pending: HashMap::new(),
            violations: Vec::new(),
            ops_observed: 0,
            initial,
        }
    }

    /// Records the invocation of operation `op` on `key` at simulated
    /// time `at_ns`. `write` is `Some(v)` for a write of `v` (the value
    /// must be known at invocation) and `None` for a read.
    ///
    /// Operation ids must be unique across the run.
    pub fn op_invoked(&mut self, op: u64, key: &str, at_ns: u64, write: Option<V>) {
        let _ = at_ns; // precedence is positional (module docs)
        self.ops_observed += 1;
        let k = match self.keys.get(key) {
            Some(&k) => k,
            None => {
                self.keys.insert(key.to_string(), self.states.len());
                self.states.push(KeyState::new(key));
                self.states.len() - 1
            }
        };
        let ks = &mut self.states[k];
        ks.clock += 1;
        let at = ks.clock;
        let read = write.is_none();
        match write {
            Some(value) => ks.clusters.push(Cluster {
                value,
                write: op,
                first: None,
                first_late: None,
                last: (at, op),
            }),
            None => {
                ks.pending_reads.insert(at);
            }
        }
        self.pending.insert(op, Pending { key: k, at, read });
    }

    /// Records the completion of operation `op` at simulated time
    /// `at_ns`; `read` carries the returned value for reads (`None` for
    /// writes). Returns the violation this completion exposed, if any.
    ///
    /// Completions of unknown operations are ignored.
    pub fn op_completed(&mut self, op: u64, at_ns: u64, read: Option<V>) -> Option<&Violation> {
        let p = self.pending.remove(&op)?;
        let ks = &mut self.states[p.key];
        ks.clock += 1;
        let now = ks.clock;
        let culprits = if p.read {
            let v = read.expect("read completion must carry the returned value");
            let candidate = ks.restarted || self.initial.allows(&v);
            ks.read_done(op, p.at, now, v, candidate)
        } else {
            ks.write_done(op, now);
            None
        };
        let Some(mut culprits) = culprits else {
            ks.retire();
            return None;
        };
        let pending = &self.pending;
        ks.restart(|w| pending.get(&w).map(|p| p.at));
        culprits.sort_unstable();
        culprits.dedup();
        self.violations.push(Violation {
            key: ks.name.clone(),
            op,
            at_ns,
            culprits,
        });
        self.violations.last()
    }

    /// True if no violation has been detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every detected violation, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The first detected violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Operations observed (invocations).
    pub fn ops_observed(&self) -> u64 {
        self.ops_observed
    }

    /// Keys currently monitored.
    pub fn keys_monitored(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type M = ConsistencyMonitor<Option<u64>>;

    fn put(m: &mut M, op: u64, key: &str, at: u64, v: u64) {
        m.op_invoked(op, key, at, Some(Some(v)));
    }
    fn get(m: &mut M, op: u64, key: &str, at: u64) {
        m.op_invoked(op, key, at, None);
    }
    /// Live clusters on `key`.
    fn live(m: &M, key: &str) -> usize {
        m.states[m.keys[key]].clusters.len()
    }

    #[test]
    fn sequential_reads_see_latest_write() {
        let mut m = M::with_initial(None);
        get(&mut m, 0, "k", 0);
        m.op_completed(0, 5, Some(None)); // absent before any write
        put(&mut m, 1, "k", 10, 7);
        m.op_completed(1, 20, None);
        get(&mut m, 2, "k", 30);
        m.op_completed(2, 40, Some(Some(7)));
        assert!(m.is_clean());
        assert_eq!(m.ops_observed(), 3);
    }

    #[test]
    fn stale_read_after_completed_write_is_flagged_at_event_time() {
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 0, 1);
        m.op_completed(0, 10, None);
        put(&mut m, 1, "k", 20, 2);
        m.op_completed(1, 30, None);
        get(&mut m, 2, "k", 40);
        let v = m.op_completed(2, 50, Some(Some(1))).cloned();
        let v = v.expect("stale read must be flagged");
        assert_eq!(v.op, 2);
        assert_eq!(v.at_ns, 50);
        assert_eq!(v.key, "k");
        assert!(v.culprits.contains(&2), "the stale read is a culprit");
        assert!(!m.is_clean());
    }

    #[test]
    fn concurrent_read_may_see_either_side_of_a_pending_write() {
        // get overlaps the put: both old and new value are linearizable.
        for seen in [None, Some(3u64)] {
            let mut m = M::with_initial(None);
            put(&mut m, 0, "k", 0, 3);
            get(&mut m, 1, "k", 5); // invoked while put pending
            m.op_completed(0, 10, None);
            assert!(m.op_completed(1, 20, Some(seen)).is_none(), "{seen:?}");
            assert!(m.is_clean());
        }
    }

    #[test]
    fn read_of_never_written_value_is_flagged() {
        let mut m = M::with_initial(None);
        get(&mut m, 0, "k", 0);
        let v = m.op_completed(0, 10, Some(Some(99))).cloned();
        assert!(v.is_some(), "fabricated value must be flagged");
    }

    #[test]
    fn new_value_read_before_write_completes_is_fine() {
        // The classic: read returns the pending write's value, then the
        // write completes. Atomic (write linearizes before the read).
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 0, 5);
        get(&mut m, 1, "k", 2);
        assert!(m.op_completed(1, 4, Some(Some(5))).is_none());
        m.op_completed(0, 10, None);
        assert!(m.is_clean());
    }

    #[test]
    fn old_new_old_inversion_is_flagged() {
        // Two sequential reads around a concurrent write: the first sees
        // the new value, the second (invoked after the first responded)
        // sees the old one — the inversion atomicity forbids.
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 0, 1);
        m.op_completed(0, 5, None);
        put(&mut m, 1, "k", 10, 2); // completes late, at t=100
        get(&mut m, 2, "k", 20);
        assert!(m.op_completed(2, 30, Some(Some(2))).is_none()); // new value
        get(&mut m, 3, "k", 40); // invoked after op 2 responded
        let v = m.op_completed(3, 50, Some(Some(1))).cloned(); // old value again
        assert!(v.is_some(), "old-new-old inversion must be flagged");
        assert_eq!(v.unwrap().op, 3);
    }

    #[test]
    fn unknown_initial_pins_on_first_read() {
        let mut m: M = ConsistencyMonitor::new();
        get(&mut m, 0, "k", 0);
        m.op_completed(0, 5, Some(Some(42))); // pins the unknown initial
        get(&mut m, 1, "k", 10);
        m.op_completed(1, 15, Some(Some(42)));
        assert!(m.is_clean());
        get(&mut m, 2, "k", 20);
        assert!(
            m.op_completed(2, 25, Some(Some(43))).is_some(),
            "a different value after the pin is a violation"
        );
    }

    #[test]
    fn keys_are_judged_independently() {
        let mut m = M::with_initial(None);
        put(&mut m, 0, "a", 0, 1);
        m.op_completed(0, 10, None);
        put(&mut m, 1, "b", 0, 2);
        m.op_completed(1, 10, None);
        get(&mut m, 2, "a", 20);
        assert!(m.op_completed(2, 30, Some(Some(1))).is_none());
        get(&mut m, 3, "b", 20);
        assert!(
            m.op_completed(3, 30, Some(None)).is_some(),
            "b lost its write"
        );
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.keys_monitored(), 2);
    }

    #[test]
    fn long_sequential_history_stays_bounded_via_retirement() {
        let mut m = M::with_initial(None);
        for i in 0..10_000u64 {
            put(&mut m, 2 * i, "k", 100 * i, i + 1);
            m.op_completed(2 * i, 100 * i + 10, None);
            get(&mut m, 2 * i + 1, "k", 100 * i + 20);
            m.op_completed(2 * i + 1, 100 * i + 30, Some(Some(i + 1)));
            assert!(
                live(&m, "k") <= 2,
                "{} live clusters at i={i}",
                live(&m, "k")
            );
        }
        assert!(m.is_clean());
    }

    #[test]
    fn overlap_chain_stays_bounded() {
        // op i completes only after op i+1 was invoked: no quiescent
        // point ever forms, yet retirement must keep the key small.
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 0, 1);
        for i in 1..2_000u64 {
            put(&mut m, i, "k", 10 * i, i + 1);
            m.op_completed(i - 1, 10 * i + 5, None);
            assert!(
                live(&m, "k") <= 4,
                "{} live clusters at i={i}",
                live(&m, "k")
            );
        }
        assert!(m.is_clean());
    }

    #[test]
    fn seventy_overlapping_reads_get_a_verdict() {
        // A completed put, then 70 reads in flight at once: every one
        // reads the put's value, or one reads "absent" after it.
        for stale in [None, Some(33u64)] {
            let mut m = M::with_initial(None);
            put(&mut m, 100, "k", 0, 1);
            m.op_completed(100, 1, None);
            for i in 0..70u64 {
                get(&mut m, i, "k", 10 + i);
            }
            for i in 0..70u64 {
                let seen = if Some(i) == stale { None } else { Some(1) };
                m.op_completed(i, 1_000 + i, Some(seen));
            }
            assert_eq!(m.is_clean(), stale.is_none(), "stale read {stale:?}");
            if let Some(v) = m.first_violation() {
                assert_eq!(v.op, 33);
            }
        }
    }

    #[test]
    fn monitoring_continues_after_a_violation() {
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 0, 1);
        m.op_completed(0, 10, None);
        get(&mut m, 1, "k", 20);
        assert!(m.op_completed(1, 30, Some(Some(9))).is_some());
        // The key restarted unconstrained: consistent behavior from here
        // on is clean again...
        put(&mut m, 2, "k", 40, 2);
        m.op_completed(2, 50, None);
        get(&mut m, 3, "k", 60);
        assert!(m.op_completed(3, 70, Some(Some(2))).is_none());
        // ...and a second stale read is flagged as a second violation.
        get(&mut m, 4, "k", 80);
        assert!(m.op_completed(4, 90, Some(Some(1))).is_some());
        assert_eq!(m.violations().len(), 2);
    }

    #[test]
    fn completion_of_unknown_op_is_ignored() {
        let mut m = M::with_initial(None);
        assert!(m.op_completed(123, 10, Some(None)).is_none());
        assert!(m.is_clean());
    }

    #[test]
    fn write_write_order_between_sequential_writes_is_enforced() {
        // w1 completes before w2 is invoked; a later read returning w1's
        // value after also observing w2's completion is stale.
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 0, 1);
        m.op_completed(0, 10, None);
        put(&mut m, 1, "k", 20, 2);
        m.op_completed(1, 30, None);
        get(&mut m, 2, "k", 40);
        assert!(m.op_completed(2, 50, Some(Some(2))).is_none());
        get(&mut m, 3, "k", 60);
        assert!(m.op_completed(3, 70, Some(Some(1))).is_some());
    }

    #[test]
    fn reads_of_a_pending_writes_value_retire() {
        // A put stays pending while a reader completes 200 sequential
        // gets of its value: they join its cluster, which stays the one
        // live cluster.
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 0, 1);
        for i in 1..=200u64 {
            get(&mut m, i, "k", 10 * i);
            m.op_completed(i, 10 * i + 5, Some(Some(1)));
            assert_eq!(live(&m, "k"), 1);
        }
        m.op_completed(0, 5_000, None);
        assert!(m.is_clean());
    }

    #[test]
    fn a_retired_cluster_still_conflicts() {
        // put 1 runs 1..10; a get invoked at 2 reads 1 at 6, an early
        // read (invoked before put 2 completed at 4). A get of put 2's
        // value follows, and put 3 (invoked at 5, after put 2 completed)
        // retires put 2's cluster when it completes at 9. A last read of
        // 1 then conflicts with that retired cluster alone: put 1 was
        // read before put 2's read, so it must precede put 2.
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 1, 1);
        get(&mut m, 1, "k", 2);
        put(&mut m, 2, "k", 3, 2);
        m.op_completed(2, 4, None);
        put(&mut m, 3, "k", 5, 3);
        m.op_completed(1, 6, Some(Some(1)));
        get(&mut m, 4, "k", 7);
        m.op_completed(4, 8, Some(Some(2)));
        m.op_completed(3, 9, None);
        m.op_completed(0, 10, None);
        assert!(m.is_clean());
        assert_eq!(live(&m, "k"), 2, "put 2's cluster retired");
        get(&mut m, 5, "k", 11);
        let v = m.op_completed(5, 12, Some(Some(1))).cloned();
        assert_eq!(
            v.expect("conflict with the retired cluster").culprits,
            [0, 1, 2, 4, 5]
        );
    }

    #[test]
    fn precedence_at_equal_timestamps_follows_the_feed() {
        // put 2 completes at t=30 and a get is invoked at t=30. Fed
        // completion first (the store's closed-loop refill), the put
        // precedes the get, so reading 1 is stale; fed invocation first,
        // they overlap and reading 1 is fine.
        for completion_first in [true, false] {
            let mut m = M::with_initial(None);
            put(&mut m, 0, "k", 0, 1);
            m.op_completed(0, 10, None);
            put(&mut m, 1, "k", 20, 2);
            if completion_first {
                m.op_completed(1, 30, None);
                get(&mut m, 2, "k", 30);
            } else {
                get(&mut m, 2, "k", 30);
                m.op_completed(1, 30, None);
            }
            let flagged = m.op_completed(2, 40, Some(Some(1))).is_some();
            assert_eq!(flagged, completion_first);
        }
    }
}
