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
}
