//! Deterministic data-replica placement: which of the `n` fleet servers
//! hold a shard's bulk payload.
//!
//! The metadata quorum spans all `n` servers, but the payload only needs
//! `2t + 1` of them (Cachin–Dobre–Vukolić): waiting for `t + 1` store
//! acknowledgements guarantees at least one *correct* replica holds the
//! bytes before the reference becomes visible through the metadata plane,
//! and a fetching reader can always identify honest bytes by digest. The
//! placement is a wrapping window anchored at the shard index, so it is a
//! pure function of `(shard, n, r)` — every client and every test derives
//! the identical replica set with no coordination — and consecutive
//! shards anchor on consecutive servers, spreading bulk storage across
//! the fleet.

/// Number of data replicas required to tolerate `t` Byzantine servers:
/// `2t + 1`.
pub fn data_replica_count(t: usize) -> usize {
    2 * t + 1
}

/// Store acknowledgements a dispersal must collect before publishing the
/// reference: `k + t`, so at least `k` **correct** replicas hold verified
/// fragments — enough for any later reader to reconstruct even if every
/// Byzantine replica garbles or withholds. Whole copies are `k = 1`:
/// `t + 1` acknowledgements, so at least one correct replica holds the
/// value.
pub fn coded_push_quorum(t: usize, k: usize) -> usize {
    k + t
}

/// The server slots (indices into the fleet's server list) holding bulk
/// data for `shard`: `r` consecutive slots starting at `shard % n`,
/// wrapping.
///
/// # Panics
///
/// Panics unless `1 ≤ r ≤ n`.
pub fn data_replica_slots(shard: u32, n: usize, r: usize) -> Vec<usize> {
    assert!(n >= 1, "need at least one server");
    assert!(
        (1..=n).contains(&r),
        "replication factor {r} out of range for {n} servers"
    );
    let start = shard as usize % n;
    (0..r).map(|k| (start + k) % n).collect()
}

/// The data-replica windows of a fleet: `r` consecutive fleet members per
/// shard, anchored at `shard % n` and wrapping — the placement of
/// [`data_replica_slots`], answered in the fleet's own member type. Only
/// [`ReplicaWindow::members`] allocates: membership and attribution run
/// on every bulk acknowledgement.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaWindow<'a, T> {
    fleet: &'a [T],
    r: usize,
}

impl<'a, T: Copy + PartialEq> ReplicaWindow<'a, T> {
    /// Windows of `r` members over `fleet` (in slot order). `r = 0` is a
    /// deployment with no data plane: every window is empty.
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds the fleet.
    pub fn new(fleet: &'a [T], r: usize) -> Self {
        assert!(
            r <= fleet.len(),
            "replication factor {r} out of range for {} servers",
            fleet.len()
        );
        ReplicaWindow { fleet, r }
    }

    /// `shard`'s window, position by position.
    pub fn members(&self, shard: u32) -> Vec<T> {
        (0..self.r).filter_map(|i| self.at(shard, i)).collect()
    }

    /// The position of `member` in `shard`'s window, or `None` when the
    /// window does not cover it.
    pub fn position(&self, shard: u32, member: T) -> Option<usize> {
        self.slot_position(shard, self.fleet.iter().position(|&m| m == member)?)
    }

    /// [`Self::position`] of the member at fleet slot `slot`, without the
    /// search — for a server that knows its own slot.
    pub fn slot_position(&self, shard: u32, slot: usize) -> Option<usize> {
        let n = self.fleet.len();
        if slot >= n {
            return None;
        }
        let pos = (slot + n - shard as usize % n) % n;
        (pos < self.r).then_some(pos)
    }

    /// The member at position `i` of `shard`'s window, or `None` past the
    /// window's end.
    pub fn at(&self, shard: u32, i: usize) -> Option<T> {
        let n = self.fleet.len();
        (i < self.r).then(|| self.fleet[(shard as usize % n + i) % n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_arithmetic() {
        assert_eq!(data_replica_count(1), 3);
        assert_eq!(data_replica_count(2), 5);
        assert_eq!(coded_push_quorum(1, 1), 2);
        assert_eq!(coded_push_quorum(1, 2), 3);
    }

    #[test]
    fn window_wraps_and_is_deterministic() {
        assert_eq!(data_replica_slots(0, 9, 3), vec![0, 1, 2]);
        assert_eq!(data_replica_slots(7, 9, 3), vec![7, 8, 0]);
        assert_eq!(data_replica_slots(7, 9, 3), data_replica_slots(7, 9, 3));
        // Anchors cycle through the fleet: shard s and s+n coincide.
        assert_eq!(data_replica_slots(2, 9, 3), data_replica_slots(11, 9, 3));
    }

    #[test]
    fn consecutive_shards_spread_over_the_fleet() {
        let mut held = vec![0usize; 9];
        for shard in 0..9u32 {
            for slot in data_replica_slots(shard, 9, 3) {
                held[slot] += 1;
            }
        }
        assert!(held.iter().all(|&c| c == 3), "uneven placement: {held:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_factor_rejected() {
        data_replica_slots(0, 3, 4);
    }

    /// The window's three answers agree with each other and with
    /// [`data_replica_slots`] on every small fleet, factor and shard.
    #[test]
    fn window_answers_agree_with_the_slot_formula() {
        for n in 1..=12usize {
            let fleet: Vec<usize> = (0..n).collect();
            for r in 1..=n {
                let window = ReplicaWindow::new(&fleet, r);
                for shard in 0..2 * n as u32 {
                    let members = window.members(shard);
                    assert_eq!(members, data_replica_slots(shard, n, r));
                    for (i, &m) in members.iter().enumerate() {
                        assert_eq!(window.position(shard, m), Some(i));
                        assert_eq!(window.slot_position(shard, m), Some(i));
                        assert_eq!(window.at(shard, i), Some(m));
                    }
                    for &slot in fleet.iter().filter(|s| !members.contains(s)) {
                        assert_eq!(window.position(shard, slot), None);
                        assert_eq!(window.slot_position(shard, slot), None);
                    }
                    assert_eq!(window.position(shard, n), None, "not in the fleet");
                    assert_eq!(window.slot_position(shard, n), None);
                    for i in r..=n {
                        assert_eq!(window.at(shard, i), None);
                    }
                }
            }
        }
        let empty = ReplicaWindow::new(&[7u32, 8, 9], 0);
        assert!(empty.members(4).is_empty() && empty.position(4, 8).is_none());
    }
}
