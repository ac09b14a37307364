//! Run-level counters: events, messages (total, per kind, per link), faults.
//!
//! Recording sits on the per-send hot path, so the breakdowns are kept in
//! flat structures: label counts in a tiny vector scanned linearly (a
//! handful of `'static` labels per protocol — cheaper than any tree or
//! hash lookup), per-link counts in a dense id-indexed matrix (process
//! ids are small dense integers; no hashing, no allocation per send).

use crate::id::ProcessId;

/// Slow-path counters: protocol events that mean an operation left the
/// fast path. Handlers report them through
/// [`Context`](crate::Context) note-methods (e.g.
/// [`Context::note_retransmit`](crate::Context::note_retransmit)); the
/// hosting runtime folds them into [`Metrics::slow_paths`].
///
/// All counters default to zero and are purely additive — they never
/// change message or byte accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlowPath {
    /// Re-sends after an ack/reply wait timed out (fetch re-rounds and
    /// bulk-push re-pushes).
    pub retransmits: u64,
    /// Fetch rounds declared dead (exhausted retries or too many bad
    /// replies to ever resolve).
    pub dead_fetch_rounds: u64,
    /// Erasure-coded reconstructions that gathered enough verified
    /// fragments but failed to decode to a valid shard map.
    pub reconstruction_fallbacks: u64,
    /// Reads that gave up on their fetched reference and re-read the
    /// metadata register from scratch.
    pub metadata_rereads: u64,
    /// Server-side guard refusals of wire requests that cannot be honest
    /// for the deployment (wrong shard/window/total, plane mismatch).
    pub guard_refusals: u64,
    /// Self-healing repair rounds: fan-outs of peer pulls issued by a
    /// data replica that detected a missing or corrupt entry it should
    /// hold (a wipe, an eviction race, a failed integrity re-check).
    pub repair_rounds: u64,
    /// Value fetches started on the sanity probe's quorum reference that
    /// the read round then did not decide: the fetch is dropped and the
    /// decided value (if any) fetched afresh.
    pub wasted_prefetches: u64,
}

impl SlowPath {
    /// True if every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SlowPath::default()
    }

    pub(crate) fn fold(&mut self, other: &SlowPath) {
        self.retransmits += other.retransmits;
        self.dead_fetch_rounds += other.dead_fetch_rounds;
        self.reconstruction_fallbacks += other.reconstruction_fallbacks;
        self.metadata_rereads += other.metadata_rereads;
        self.guard_refusals += other.guard_refusals;
        self.repair_rounds += other.repair_rounds;
        self.wasted_prefetches += other.wasted_prefetches;
    }
}

/// Counters accumulated over one simulation run.
///
/// Message counts are the raw number of point-to-point sends — a broadcast to
/// `n` servers counts `n`. [`Metrics::sent_with_label`] breaks the same
/// totals down by [`Message::label`](crate::Message::label).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Events popped from the scheduler (deliveries, timers, faults).
    pub events_processed: u64,
    /// Messages handed to links.
    pub messages_sent: u64,
    /// Messages delivered to a destination handler.
    pub messages_delivered: u64,
    /// Messages dropped because the link's content was wiped by a fault.
    pub messages_dropped: u64,
    /// Estimated bytes sent by **metadata-plane** messages (see
    /// [`Message::is_bulk`](crate::Message::is_bulk); messages whose type
    /// does not override `wire_bytes` contribute 0).
    pub metadata_bytes_sent: u64,
    /// Estimated bytes sent by **bulk data-plane** messages.
    pub bulk_bytes_sent: u64,
    /// Estimated metadata-plane bytes of messages counted in
    /// [`Metrics::messages_dropped`]: these bytes are *included* in
    /// [`Metrics::metadata_bytes_sent`] (the send happened) but never
    /// reached a handler — subtract them to compare delivered traffic
    /// across fault plans.
    pub metadata_bytes_dropped: u64,
    /// Estimated bulk-plane bytes of dropped messages (see
    /// [`Metrics::metadata_bytes_dropped`]).
    pub bulk_bytes_dropped: u64,
    /// Timers that actually fired (cancelled timers excluded).
    pub timers_fired: u64,
    /// Transient-fault corruptions applied to nodes.
    pub corruptions: u64,
    /// Garbage messages injected into links by the fault plan.
    pub garbage_injected: u64,
    /// Slow-path events reported by protocol handlers (see
    /// [`SlowPath`]); folded in when each handler's effects are applied.
    pub slow_paths: SlowPath,
    /// Sent-message counts per message label, in first-seen order.
    by_label: Vec<(&'static str, u64)>,
    /// Sent-message counts per directed link, dense: `per_link[from][to]`.
    per_link: Vec<Vec<u64>>,
}

impl Metrics {
    /// Records one send of a message with the given label, estimated wire
    /// size, and plane.
    pub(crate) fn record_send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        label: &'static str,
        bytes: u64,
        bulk: bool,
    ) {
        self.messages_sent += 1;
        if bulk {
            self.bulk_bytes_sent += bytes;
        } else {
            self.metadata_bytes_sent += bytes;
        }
        match self.by_label.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => self.by_label.push((label, 1)),
        }
        let (f, t) = (from.index(), to.index());
        if self.per_link.len() <= f {
            self.per_link.resize_with(f + 1, Vec::new);
        }
        let row = &mut self.per_link[f];
        if row.len() <= t {
            row.resize(t + 1, 0);
        }
        row[t] += 1;
    }

    /// Records one message dropped by a link wipe. The drop is decided at
    /// delivery time, long after [`Metrics::record_send`] already counted
    /// the bytes as sent — so dropped bytes are tracked in their own
    /// counters instead of mutating the send totals.
    pub(crate) fn record_dropped(&mut self, bytes: u64, bulk: bool) {
        self.messages_dropped += 1;
        if bulk {
            self.bulk_bytes_dropped += bytes;
        } else {
            self.metadata_bytes_dropped += bytes;
        }
    }

    /// Total estimated bytes sent across both planes.
    pub fn total_bytes_sent(&self) -> u64 {
        self.metadata_bytes_sent + self.bulk_bytes_sent
    }

    /// Total estimated bytes of dropped (wiped-in-flight) messages across
    /// both planes. Always `≤` [`Metrics::total_bytes_sent`].
    pub fn total_bytes_dropped(&self) -> u64 {
        self.metadata_bytes_dropped + self.bulk_bytes_dropped
    }

    /// Total messages sent with `label`.
    pub fn sent_with_label(&self, label: &str) -> u64 {
        self.by_label
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Per-label send counts, in first-seen order.
    pub fn label_counts(&self) -> &[(&'static str, u64)] {
        &self.by_label
    }

    /// Messages sent on the directed link `from -> to`.
    pub fn sent_on_link(&self, from: ProcessId, to: ProcessId) -> u64 {
        self.per_link
            .get(from.index())
            .and_then(|row| row.get(to.index()))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_updates_all_views() {
        let mut m = Metrics::default();
        m.record_send(ProcessId(0), ProcessId(1), "WRITE", 100, false);
        m.record_send(ProcessId(0), ProcessId(2), "WRITE", 100, false);
        m.record_send(ProcessId(1), ProcessId(0), "ACK_WRITE", 1024, true);

        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.metadata_bytes_sent, 200);
        assert_eq!(m.bulk_bytes_sent, 1024);
        assert_eq!(m.total_bytes_sent(), 1224);
        assert_eq!(m.sent_with_label("WRITE"), 2);
        assert_eq!(m.sent_with_label("ACK_WRITE"), 1);
        assert_eq!(m.sent_with_label("NOPE"), 0);
        assert_eq!(m.label_counts(), &[("WRITE", 2), ("ACK_WRITE", 1)]);
        assert_eq!(m.sent_on_link(ProcessId(0), ProcessId(1)), 1);
        assert_eq!(m.sent_on_link(ProcessId(2), ProcessId(0)), 0);
        assert_eq!(m.sent_on_link(ProcessId(40), ProcessId(41)), 0);
    }

    #[test]
    fn dropped_bytes_are_tracked_separately_from_send_totals() {
        let mut m = Metrics::default();
        m.record_send(ProcessId(0), ProcessId(1), "WRITE", 100, false);
        m.record_send(ProcessId(0), ProcessId(1), "BULK_PUT", 1000, true);
        m.record_dropped(100, false);
        m.record_dropped(1000, true);
        // Send totals untouched: the bytes did go out on the wire.
        assert_eq!(m.metadata_bytes_sent, 100);
        assert_eq!(m.bulk_bytes_sent, 1000);
        // Dropped bytes land in their own per-plane counters.
        assert_eq!(m.messages_dropped, 2);
        assert_eq!(m.metadata_bytes_dropped, 100);
        assert_eq!(m.bulk_bytes_dropped, 1000);
        assert_eq!(m.total_bytes_dropped(), 1100);
    }

    #[test]
    fn slow_path_counters_fold_and_compare() {
        let mut a = SlowPath::default();
        assert!(a.is_zero());
        let b = SlowPath {
            retransmits: 1,
            dead_fetch_rounds: 2,
            reconstruction_fallbacks: 3,
            metadata_rereads: 4,
            guard_refusals: 5,
            repair_rounds: 6,
            wasted_prefetches: 7,
        };
        a.fold(&b);
        a.fold(&b);
        assert_eq!(a.retransmits, 2);
        assert_eq!(a.guard_refusals, 10);
        assert_eq!(a.repair_rounds, 12);
        assert_eq!(a.wasted_prefetches, 14);
        assert!(!a.is_zero());
    }
}
