//! Protocol configuration: resilience bounds and quorum sizes.
//!
//! The paper gives two variants of each construction, differing only in the
//! communication assumption and the derived thresholds:
//!
//! | quantity                            | asynchronous (Fig. 2/3) | synchronous (Fig. 5)  |
//! |-------------------------------------|-------------------------|-----------------------|
//! | resilience                          | `n ≥ 8t + 1`            | `n ≥ 3t + 1`          |
//! | acks awaited per round              | `n − t`                 | all `n`, or timeout   |
//! | identical `last_val` to return      | `2t + 1`                | `t + 1`               |
//! | identical `helping_val` to return   | `2t + 1`                | `t + 1`               |
//! | identical `helping_val` so the writer skips `NEW_HELP_VAL` | `4t + 1` | `t + 1`     |
//!
//! "All `n`" is counted in the evidence the round's request produces. A
//! synchronous `WRITE` round ends on `n` distinct `ACK_WRITE`s and a `READ`
//! round on `n` distinct `ACK_READ`s, each anchored to the round's tag; a
//! `NEW_HELP_VAL` round, which has no protocol acknowledgement, ends on `n`
//! distinct `SS_ACK`s of its tag. The timeout ends any of them only while
//! some server withholds that evidence.
//!
//! [`RegisterConfig`] bundles `n`, `t` and the mode; the `*_unchecked`
//! constructors deliberately skip the resilience assertion so experiment E6
//! can probe behaviour *beyond* the proven bounds.

use sbs_sim::SimDuration;
use std::fmt;

/// Identifies one logical register on the shared server set. SWSR/SWMR
/// systems use a single register 0; the MWMR construction uses one register
/// per writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegId(pub u32);

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "REG[{}]", self.0)
    }
}

/// The communication assumption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// Asynchronous links: finite but unbounded delays; wait for `n − t`
    /// acknowledgements (requires `n ≥ 8t + 1`).
    Async,
    /// Timely links with a known delay bound: wait for all `n`
    /// acknowledgements or for the timeout (requires `n ≥ 3t + 1`).
    Sync {
        /// How long a client waits for one request/acknowledgement round
        /// trip before concluding that the missing servers are faulty.
        timeout: SimDuration,
    },
}

/// Sizes and mode for one register deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegisterConfig {
    /// Number of servers.
    pub n: usize,
    /// Maximum number of Byzantine servers tolerated.
    pub t: usize,
    /// Communication assumption.
    pub mode: SyncMode,
    /// Asynchronous-mode retransmission period: if a client round does not
    /// complete within this span, the round is re-broadcast with a fresh
    /// session tag. The paper hides this inside the ss-broadcast
    /// termination property (whose data-link realization retransmits
    /// persistently, footnote 3); surfacing it here is what makes client
    /// rounds live across transient corruption of in-flight state.
    pub retry_after: SimDuration,
}

impl RegisterConfig {
    /// Overrides the asynchronous retransmission period.
    pub fn with_retry_after(mut self, retry_after: SimDuration) -> Self {
        self.retry_after = retry_after;
        self
    }
}

impl RegisterConfig {
    /// Asynchronous configuration; asserts the paper's `n ≥ 8t + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8t + 1`.
    #[allow(clippy::int_plus_one)] // keep the paper's `n >= 8t+1` form
    pub fn asynchronous(n: usize, t: usize) -> Self {
        assert!(
            n >= 8 * t + 1,
            "asynchronous resilience requires n >= 8t+1 (n={n}, t={t})"
        );
        RegisterConfig {
            n,
            t,
            mode: SyncMode::Async,
            retry_after: DEFAULT_RETRY,
        }
    }

    /// Asynchronous configuration without the resilience assertion — for
    /// probing beyond the proven bound (experiment E6).
    pub fn asynchronous_unchecked(n: usize, t: usize) -> Self {
        assert!(
            n > 2 * t,
            "even unchecked configs need n > 2t to make quorums meaningful"
        );
        RegisterConfig {
            n,
            t,
            mode: SyncMode::Async,
            retry_after: DEFAULT_RETRY,
        }
    }

    /// Synchronous configuration; asserts `n ≥ 3t + 1`. The round-trip
    /// timeout is derived from the known per-link delay bound: request +
    /// acknowledgement, plus half a bound of slack for FIFO queueing.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3t + 1`.
    #[allow(clippy::int_plus_one)] // keep the paper's `n >= 3t+1` form
    pub fn synchronous(n: usize, t: usize, link_bound: SimDuration) -> Self {
        assert!(
            n >= 3 * t + 1,
            "synchronous resilience requires n >= 3t+1 (n={n}, t={t})"
        );
        RegisterConfig {
            n,
            t,
            mode: SyncMode::Sync {
                timeout: round_trip_timeout(link_bound),
            },
            retry_after: DEFAULT_RETRY,
        }
    }

    /// Synchronous configuration without the resilience assertion.
    pub fn synchronous_unchecked(n: usize, t: usize, link_bound: SimDuration) -> Self {
        assert!(n > t, "need n > t");
        RegisterConfig {
            n,
            t,
            mode: SyncMode::Sync {
                timeout: round_trip_timeout(link_bound),
            },
            retry_after: DEFAULT_RETRY,
        }
    }

    /// Acknowledgements a client waits for in asynchronous mode (`n − t`).
    /// In synchronous mode the client waits for all `n` or the timeout.
    pub fn ack_quorum(&self) -> usize {
        match self.mode {
            SyncMode::Async => self.n - self.t,
            SyncMode::Sync { .. } => self.n,
        }
    }

    /// Identical `last_val` copies needed for a read to return (line 12).
    pub fn last_quorum(&self) -> usize {
        match self.mode {
            SyncMode::Async => 2 * self.t + 1,
            SyncMode::Sync { .. } => self.t + 1,
        }
    }

    /// Identical non-⊥ `helping_val` copies needed for a read to return
    /// (line 14).
    pub fn help_quorum(&self) -> usize {
        match self.mode {
            SyncMode::Async => 2 * self.t + 1,
            SyncMode::Sync { .. } => self.t + 1,
        }
    }

    /// Identical non-⊥ helping values that let the writer skip the
    /// `NEW_HELP_VAL` refresh (line 03).
    pub fn writer_help_quorum(&self) -> usize {
        match self.mode {
            SyncMode::Async => 4 * self.t + 1,
            SyncMode::Sync { .. } => self.t + 1,
        }
    }

    /// The per-round timeout, if operating synchronously.
    pub fn timeout(&self) -> Option<SimDuration> {
        match self.mode {
            SyncMode::Async => None,
            SyncMode::Sync { timeout } => Some(timeout),
        }
    }

    /// True in synchronous mode.
    pub fn is_sync(&self) -> bool {
        matches!(self.mode, SyncMode::Sync { .. })
    }
}

/// Default asynchronous retransmission period.
const DEFAULT_RETRY: SimDuration = SimDuration::millis(50);

/// The synchronous-mode timeout derived from a known per-link delay
/// bound: one request/acknowledgement round trip (`2 × link_bound`) plus
/// half a bound of FIFO-queueing slack and a tick of slop. Public so
/// higher layers (the store builder, experiment configs, operators sizing
/// a deployment) can state or verify the exact timeout a link bound
/// implies without re-deriving it.
pub fn round_trip_timeout(link_bound: SimDuration) -> SimDuration {
    link_bound * 2 + link_bound / 2 + SimDuration::micros(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_quorums_match_figure_2() {
        let c = RegisterConfig::asynchronous(9, 1);
        assert_eq!(c.ack_quorum(), 8);
        assert_eq!(c.last_quorum(), 3);
        assert_eq!(c.help_quorum(), 3);
        assert_eq!(c.writer_help_quorum(), 5);
        assert_eq!(c.timeout(), None);
        assert!(!c.is_sync());
    }

    #[test]
    fn sync_quorums_match_figure_5() {
        let c = RegisterConfig::synchronous(4, 1, SimDuration::millis(1));
        assert_eq!(c.ack_quorum(), 4);
        assert_eq!(c.last_quorum(), 2);
        assert_eq!(c.help_quorum(), 2);
        assert_eq!(c.writer_help_quorum(), 2);
        assert!(c.timeout().unwrap() >= SimDuration::millis(2));
        assert!(c.is_sync());
    }

    #[test]
    fn resilience_bounds_enforced() {
        // n = 8t+1 is the minimum for async.
        let _ = RegisterConfig::asynchronous(17, 2);
        // n = 3t+1 for sync.
        let _ = RegisterConfig::synchronous(7, 2, SimDuration::millis(1));
    }

    #[test]
    #[should_panic(expected = "n >= 8t+1")]
    fn async_bound_violation_panics() {
        RegisterConfig::asynchronous(8, 1);
    }

    #[test]
    #[should_panic(expected = "n >= 3t+1")]
    fn sync_bound_violation_panics() {
        RegisterConfig::synchronous(3, 1, SimDuration::millis(1));
    }

    #[test]
    fn unchecked_constructors_allow_bound_violations() {
        let c = RegisterConfig::asynchronous_unchecked(8, 1);
        assert_eq!(c.ack_quorum(), 7);
        let s = RegisterConfig::synchronous_unchecked(3, 1, SimDuration::millis(1));
        assert_eq!(s.ack_quorum(), 3);
    }

    #[test]
    fn reg_id_displays() {
        assert_eq!(format!("{}", RegId(3)), "REG[3]");
    }
}
