//! The per-key atomicity checker: an incremental WGL-style (Wing & Gong /
//! Lowe) linearizability checker that judges operations **as they
//! complete**. It is the workspace's only atomicity checker: the store
//! feeds it live (`StoreBuilder::monitor()`), and `sbs-check`'s
//! `check_linearizable` / `atomic_stabilization_point` replay a finished
//! history into it.
//!
//! It maintains, per key, the *atomicity frontier*: the set of partial
//! linearizations of the key's in-window operations that are still
//! consistent with everything observed so far. Each state is a
//! `(mask, value)` pair — which window operations have been placed in
//! the linearization order, and the register value after the last placed
//! write. On every completion the frontier is advanced; if **no**
//! reachable state linearizes all completed operations, the completing
//! operation has witnessed a violation, and the monitor reports it with
//! the simulated time and the culprit operation set.
//!
//! # Soundness model
//!
//! The monitor is exact (no false alarms, no missed violations among
//! completed operations) under two assumptions about the history:
//!
//! - **unique write values** per key — a read's value identifies the
//!   write it observed, so a frontier state that can no longer linearize
//!   every completed operation can never be revived and is safely
//!   pruned;
//! - **write values exist at invocation** — a read never returns the
//!   value of a write that has not been invoked yet, so pending writes
//!   (whose values are known from invocation) are the only
//!   not-yet-completed operations that ever need a place in the order.
//!
//! Pending *reads* are unconstrained until they complete; the monitor
//! keeps every frontier state that could still serve one.
//!
//! # Bounded memory
//!
//! Four mechanisms keep a key's state small on unbounded runs:
//!
//! - **pruning**: states that cannot reach a linearization of all
//!   completed operations are dropped, and so are incomplete states from
//!   which no pending read could be placed (a pending write is already
//!   placed by the closure, and an operation invoked later follows every
//!   completed one);
//! - **retirement**: an operation placed in *every* surviving state has
//!   its position fixed forever and is compacted out of the window;
//! - **bounded interning**: values are interned per key, and an id that
//!   no window operation and no frontier state references is released
//!   whenever the window is compacted or restarted;
//! - **saturation fallback**: a key whose window would exceed
//!   [`MAX_WINDOW`] operations, or whose frontier would exceed
//!   [`MAX_STATES`] states (pathological overlap), restarts its
//!   frontier from an unconstrained value ([`InitialState::Any`]) and
//!   counts the event in [`ConsistencyMonitor::saturations`] so a
//!   weakened verdict is never silent.
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

use std::collections::{BTreeMap, BTreeSet};

/// The per-key window cap: more than this many concurrently-tracked
/// operations on one key saturates the monitor (see the module docs).
/// 64 keeps a window's membership in one mask word.
pub const MAX_WINDOW: usize = 64;

/// The per-key frontier budget: a closure whose state set would exceed
/// this (pathological same-value concurrency — e.g. dozens of
/// overlapping reads of one value, where every subset of placements is
/// distinct) saturates the key instead of exploding. Counted in
/// [`ConsistencyMonitor::saturations`] like a window overflow.
pub const MAX_STATES: usize = 16_384;

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
    /// The culprit set: every completed operation still in the key's
    /// window when the frontier died. One of these operations (usually
    /// the exposing one) returned or ordered a value no linearization
    /// can explain.
    pub culprits: Vec<u64>,
}

/// The register value of a frontier state: unknown (any value is still
/// feasible — [`InitialState::Any`], and the restart state after
/// saturation or a violation) or a specific interned value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Val {
    /// Any value is feasible (pins to the first read linearized on it).
    Any,
    /// The interned value id the last linearized write (or read pin)
    /// established.
    Known(u32),
}

/// What a window operation does to the register, with interned values.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// A write of the interned value (known from invocation).
    Write(u32),
    /// A read; the interned value is `None` until the read completes.
    Read(Option<u32>),
}

/// One operation in a key's window.
#[derive(Clone, Debug)]
struct ActiveOp {
    op: u64,
    responded: Option<u64>,
    kind: Kind,
    /// Window operations that must be linearized before this one:
    /// exactly the operations already completed when this one was
    /// invoked. Fixed at invocation — an operation completing later is
    /// concurrent, never a predecessor. Every bit is below this
    /// operation's own window index.
    pred: u64,
}

/// One frontier state: `mask` = window operations already placed in the
/// linearization order, `val` = register value after the last placed
/// write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    mask: u64,
    val: Val,
}

/// The per-key incremental checker state.
#[derive(Debug)]
struct KeyState<V> {
    active: Vec<ActiveOp>,
    states: Vec<State>,
    /// Value -> id for the values the window and the frontier reference
    /// (ids index nothing — they only need to be equal iff the values
    /// are equal).
    interned: BTreeMap<V, u32>,
    /// Ids released by [`KeyState::release_values`], reused first.
    free: Vec<u32>,
    next_vid: u32,
}

impl<V: Clone + Ord> KeyState<V> {
    fn new(initial: &InitialState<V>) -> Self {
        let mut ks = KeyState {
            active: Vec::new(),
            states: vec![State {
                mask: 0,
                val: Val::Any,
            }],
            interned: BTreeMap::new(),
            free: Vec::new(),
            next_vid: 0,
        };
        if let InitialState::OneOf(set) = initial {
            ks.states = set
                .iter()
                .map(|v| State {
                    mask: 0,
                    val: Val::Known(ks.intern(v)),
                })
                .collect();
        }
        ks
    }

    fn intern(&mut self, v: &V) -> u32 {
        if let Some(&vid) = self.interned.get(v) {
            return vid;
        }
        let vid = self.free.pop().unwrap_or_else(|| {
            self.next_vid += 1;
            self.next_vid - 1
        });
        self.interned.insert(v.clone(), vid);
        vid
    }

    /// Drops the interned values no window operation and no frontier
    /// state references any more.
    fn release_values(&mut self) {
        let mut live: Vec<u32> = self
            .active
            .iter()
            .filter_map(|a| match a.kind {
                Kind::Write(vid) | Kind::Read(Some(vid)) => Some(vid),
                Kind::Read(None) => None,
            })
            .chain(self.states.iter().filter_map(|s| match s.val {
                Val::Known(vid) => Some(vid),
                Val::Any => None,
            }))
            .collect();
        live.sort_unstable();
        let free = &mut self.free;
        self.interned.retain(|_, vid| {
            let keep = live.binary_search(vid).is_ok();
            if !keep {
                free.push(*vid);
            }
            keep
        });
    }

    /// The window operations already completed, as a mask.
    fn completed(&self) -> u64 {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, a)| a.responded.is_some())
            .map(|(i, _)| 1u64 << i)
            .sum()
    }

    /// The state after placing window operation `i` next from `s`, or
    /// `None` if it cannot go next: already placed, a predecessor not yet
    /// placed, or a read whose value is unknown or differs from the
    /// register's. The successor also places every completed read of the
    /// resulting value whose predecessors are all placed: such a read
    /// changes no value and only widens the mask, so placing it at once
    /// loses no linearization.
    fn step(&self, s: State, i: usize) -> Option<State> {
        let a = &self.active[i];
        let bit = 1u64 << i;
        if s.mask & bit != 0 || s.mask & a.pred != a.pred {
            return None;
        }
        let vid = match a.kind {
            Kind::Write(vid) => vid,
            Kind::Read(Some(vid)) if s.val == Val::Any || s.val == Val::Known(vid) => vid,
            Kind::Read(_) => return None,
        };
        let mut mask = s.mask | bit;
        // Predecessors sit at lower window indices, so one ascending pass
        // reaches the fixpoint.
        for (j, r) in self.active.iter().enumerate() {
            if matches!(r.kind, Kind::Read(Some(v)) if v == vid) && mask & r.pred == r.pred {
                mask |= 1 << j;
            }
        }
        Some(State {
            mask,
            val: Val::Known(vid),
        })
    }

    /// Expands the frontier with the completion just recorded and
    /// replaces it with the closure. Returns `Some(false)` when the
    /// closure holds no state containing every completed operation
    /// (violation), and `None` when the closure overflowed
    /// [`MAX_STATES`] (caller saturates).
    fn advance(&mut self) -> Option<bool> {
        let completed = self.completed();
        let mut seen: BTreeSet<State> = self.states.iter().copied().collect();
        let mut work: Vec<State> = self.states.clone();
        let mut any_full = false;
        while let Some(s) = work.pop() {
            any_full |= s.mask & completed == completed;
            for i in 0..self.active.len() {
                if let Some(next) = self.step(s, i) {
                    if seen.insert(next) {
                        if seen.len() > MAX_STATES {
                            return None;
                        }
                        work.push(next);
                    }
                }
            }
        }
        self.states = seen.into_iter().collect();
        Some(any_full)
    }

    /// Prunes the frontier to the states worth keeping and retires
    /// operations whose position is now fixed in every kept state.
    /// Returns the retired operations.
    fn prune_and_retire(&mut self) -> Vec<u64> {
        let completed = self.completed();
        let full = |s: &State| s.mask & completed == completed;

        // A state is *good* if it can still reach a linearization of all
        // completed operations. Masks only grow along successor edges,
        // so processing by descending popcount sees every successor
        // before its predecessors.
        let mut order = std::mem::take(&mut self.states);
        order.sort_by_key(|s| std::cmp::Reverse(s.mask.count_ones()));
        let mut good: BTreeSet<State> = BTreeSet::new();
        for s in order {
            if full(&s)
                || (0..self.active.len())
                    .any(|i| self.step(s, i).is_some_and(|next| good.contains(&next)))
            {
                good.insert(s);
            }
        }

        // Keep a good state only if it is complete, or some pending read
        // could be placed directly from it (its value is unknown, so any
        // state may yet serve it). A pending write is placed by the
        // closure already, and an operation invoked later follows every
        // completed one, so no other incomplete state is ever needed.
        let keep: Vec<State> = good
            .into_iter()
            .filter(|s| {
                full(s)
                    || self.active.iter().enumerate().any(|(i, a)| {
                        matches!(a.kind, Kind::Read(None))
                            && s.mask & (1u64 << i) == 0
                            && s.mask & a.pred == a.pred
                    })
            })
            .collect();

        // Retire: operations placed in every kept state have their
        // position fixed forever — compact them out of the window.
        let common = keep.iter().fold(u64::MAX, |acc, s| acc & s.mask);
        self.states = keep;
        if common == 0 {
            return Vec::new();
        }
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.active.len());
        let mut retired = Vec::new();
        let mut kept_ops = Vec::with_capacity(self.active.len());
        for (i, a) in self.active.drain(..).enumerate() {
            if common & (1u64 << i) != 0 {
                remap.push(None);
                retired.push(a.op);
            } else {
                remap.push(Some(kept_ops.len()));
                kept_ops.push(a);
            }
        }
        let compact = |mask: u64| -> u64 {
            let mut out = 0u64;
            for (i, slot) in remap.iter().enumerate() {
                if let (true, Some(j)) = (mask & (1u64 << i) != 0, slot) {
                    out |= 1 << j;
                }
            }
            out
        };
        for a in &mut kept_ops {
            a.pred = compact(a.pred);
        }
        let compacted: BTreeSet<State> = self
            .states
            .iter()
            .map(|s| State {
                mask: compact(s.mask),
                val: s.val,
            })
            .collect();
        self.active = kept_ops;
        self.states = compacted.into_iter().collect();
        self.release_values();
        retired
    }

    /// Restarts the frontier at an unconstrained value, keeping only
    /// pending operations in the window (a pending read completing later
    /// is then judged against the unconstrained restart — sound, merely
    /// weaker over the restart boundary). Returns the operations dropped
    /// because even the pending ones overflow [`MAX_WINDOW`].
    fn restart(&mut self) -> Vec<u64> {
        self.active.retain(|a| a.responded.is_none());
        let excess = self.active.len().saturating_sub(MAX_WINDOW - 1);
        let dropped = self.active.drain(..excess).map(|a| a.op).collect();
        for a in &mut self.active {
            a.pred = 0;
        }
        self.states = vec![State {
            mask: 0,
            val: Val::Any,
        }];
        self.release_values();
        dropped
    }
}

/// The online atomicity monitor. Generic over the value domain `V`
/// (the store instantiates it at `Option<V>`, with `None` = key
/// absent; a replay of a finished history at `&V`, so no value is
/// cloned). See the module docs for the algorithm and its assumptions.
pub struct ConsistencyMonitor<V> {
    keys: BTreeMap<String, KeyState<V>>,
    /// Pending operation -> key (dropped at completion, retirement or
    /// saturation).
    op_keys: BTreeMap<u64, String>,
    violations: Vec<Violation>,
    saturations: u64,
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
            .field("saturations", &self.saturations)
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
            op_keys: BTreeMap::new(),
            violations: Vec::new(),
            saturations: 0,
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
        let _ = at_ns; // precedence is positional: completed-before-invoked, below.
        self.ops_observed += 1;
        if !self.keys.contains_key(key) {
            self.keys
                .insert(key.to_string(), KeyState::new(&self.initial));
        }
        if self.keys[key].active.len() >= MAX_WINDOW {
            self.saturate(key);
        }
        let ks = self.keys.get_mut(key).expect("created above");
        let kind = match write {
            Some(v) => Kind::Write(ks.intern(&v)),
            None => Kind::Read(None),
        };
        // Predecessors: exactly the window operations already completed
        // now. (An operation completing later is concurrent with this
        // one — `responded < invoked` can no longer hold for it.)
        let pred = ks.completed();
        ks.active.push(ActiveOp {
            op,
            responded: None,
            kind,
            pred,
        });
        self.op_keys.insert(op, key.to_string());
    }

    /// Records the completion of operation `op` at simulated time
    /// `at_ns`; `read` carries the returned value for reads (`None` for
    /// writes). Advances the key's frontier and returns the violation
    /// this completion exposed, if any.
    ///
    /// Completions of unknown operations (never invoked, or dropped by
    /// a saturation restart) are ignored.
    pub fn op_completed(&mut self, op: u64, at_ns: u64, read: Option<V>) -> Option<&Violation> {
        let key = self.op_keys.remove(&op)?;
        let ks = self.keys.get_mut(&key)?;
        let idx = ks.active.iter().position(|a| a.op == op)?;
        ks.active[idx].responded = Some(at_ns);
        if let Kind::Read(None) = ks.active[idx].kind {
            let v = read.expect("read completion must carry the returned value");
            ks.active[idx].kind = Kind::Read(Some(ks.intern(&v)));
        }
        match ks.advance() {
            None => {
                // Frontier budget exceeded (pathological same-value
                // concurrency): weaken instead of hanging — same
                // fallback as a window overflow.
                self.saturate(&key);
                None
            }
            Some(true) => {
                for retired in ks.prune_and_retire() {
                    self.op_keys.remove(&retired);
                }
                None
            }
            Some(false) => {
                // Frontier is dead: no linearization of the completed
                // window operations exists. Flag it, then restart the key
                // with an unconstrained value so monitoring continues.
                let culprits: Vec<u64> = ks
                    .active
                    .iter()
                    .filter(|a| a.responded.is_some())
                    .map(|a| a.op)
                    .collect();
                self.violations.push(Violation {
                    key: key.clone(),
                    op,
                    at_ns,
                    culprits,
                });
                self.restart(&key);
                self.violations.last()
            }
        }
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

    /// Times a key's window overflowed [`MAX_WINDOW`] or its frontier
    /// [`MAX_STATES`] and the monitor fell back to an unconstrained
    /// restart. A non-zero count weakens the "clean" verdict over the
    /// overlapping stretch — surfaced so it is never silent.
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Operations observed (invocations).
    pub fn ops_observed(&self) -> u64 {
        self.ops_observed
    }

    /// Keys currently monitored.
    pub fn keys_monitored(&self) -> usize {
        self.keys.len()
    }

    /// The widest currently-tracked window across keys (diagnostic).
    pub fn max_window_in_use(&self) -> usize {
        self.keys
            .values()
            .map(|k| k.active.len())
            .max()
            .unwrap_or(0)
    }

    /// Saturation fallback: counts the event and restarts the key.
    fn saturate(&mut self, key: &str) {
        self.saturations += 1;
        self.restart(key);
    }

    /// Restarts `key`'s frontier unconstrained (see [`KeyState::restart`]),
    /// forgetting the operations it drops.
    fn restart(&mut self, key: &str) {
        let ks = self.keys.get_mut(key).expect("key exists");
        for dropped in ks.restart() {
            self.op_keys.remove(&dropped);
        }
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
                m.max_window_in_use() <= 4,
                "retirement must bound the window, got {} at i={i}",
                m.max_window_in_use()
            );
            // Interned values are released with the window: at most one
            // per window op plus the frontier's current value.
            let ks = &m.keys["k"];
            assert!(
                ks.interned.len() <= ks.active.len() + 1,
                "{} values interned for a window of {} at i={i}",
                ks.interned.len(),
                ks.active.len()
            );
        }
        assert!(m.is_clean());
        assert_eq!(m.saturations(), 0);
    }

    #[test]
    fn overlap_chain_stays_bounded() {
        // op i completes only after op i+1 was invoked: no quiescent
        // point ever forms, yet retirement must keep the window small.
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 0, 1);
        for i in 1..2_000u64 {
            put(&mut m, i, "k", 10 * i, i + 1);
            m.op_completed(i - 1, 10 * i + 5, None);
            assert!(
                m.max_window_in_use() <= 6,
                "chained overlap must stay bounded, got {}",
                m.max_window_in_use()
            );
        }
        assert!(m.is_clean());
    }

    #[test]
    fn saturation_falls_back_instead_of_failing() {
        let mut m = M::with_initial(None);
        // 70 overlapping reads on one key — none complete, the window
        // overflows, and the monitor restarts instead of flagging.
        for i in 0..70u64 {
            get(&mut m, i, "k", i);
        }
        assert!(m.saturations() > 0, "window overflow must be counted");
        // Completions of dropped ops are ignored; survivors still judge.
        for i in 0..70u64 {
            m.op_completed(i, 1_000 + i, Some(None));
        }
        assert!(m.is_clean(), "restart is unconstrained, not a violation");
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
        // gets of its value: every get is placed after the put in every
        // surviving state, so they retire instead of filling the window.
        let mut m = M::with_initial(None);
        put(&mut m, 0, "k", 0, 1);
        for i in 1..=200u64 {
            get(&mut m, i, "k", 10 * i);
            m.op_completed(i, 10 * i + 5, Some(Some(1)));
            assert!(
                m.max_window_in_use() <= 3,
                "window {}",
                m.max_window_in_use()
            );
        }
        m.op_completed(0, 5_000, None);
        assert!(m.is_clean());
        assert_eq!(m.saturations(), 0);
    }
}
