//! Live deployment health and the violation flight recorder.
//!
//! [`StoreHealth`] is the snapshot [`StoreSystem::health`] assembles on
//! demand: per-shard completed-op tallies, per-replica message traffic,
//! the fleet-wide slow-path counters, and a **hot-shard detector** — the
//! observed-load signal a future self-splitting shard layer keys off.
//!
//! [`FlightRecord`] is what [`StoreSystem::flight_recorder`] dumps when
//! something went wrong: the *causal slice* of the trace ring leading to
//! the suspect operations (monitor-flagged violations if any, otherwise
//! the still-pending operations), plus the process role names, exportable
//! as JSONL or Chrome trace JSON for a post-mortem without replaying the
//! run.
//!
//! [`StoreSystem::health`]: crate::StoreSystem::health
//! [`StoreSystem::flight_recorder`]: crate::StoreSystem::flight_recorder

use sbs_sim::{SlowPath, TraceRecord, Tracer, Violation};

/// Completed-operation load on one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHealth {
    /// The shard id.
    pub shard: u32,
    /// Completed `put` operations routed to this shard.
    pub puts: u64,
    /// Completed `get` operations routed to this shard.
    pub gets: u64,
}

impl ShardHealth {
    /// Total completed operations on this shard.
    pub fn ops(&self) -> u64 {
        self.puts + self.gets
    }
}

/// Message traffic through one server replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Fleet index of the server (0-based).
    pub server: usize,
    /// The server's process id.
    pub pid: u32,
    /// Messages sent *to* this replica (client → server).
    pub msgs_in: u64,
    /// Messages sent *by* this replica (server → client).
    pub msgs_out: u64,
}

/// A point-in-time health snapshot of a running deployment.
#[derive(Clone, Debug)]
pub struct StoreHealth {
    /// Per-shard completed-op tallies, ascending shard id.
    pub shards: Vec<ShardHealth>,
    /// Per-replica message traffic, fleet order.
    pub replicas: Vec<ReplicaHealth>,
    /// Fleet-wide slow-path counters (retransmits, dead fetch rounds,
    /// reconstruction fallbacks, metadata re-reads, guard refusals).
    pub slow: SlowPath,
    /// Operations invoked but not yet completed.
    pub pending_ops: usize,
    /// Shards whose completed-op count exceeds twice the cross-shard
    /// mean (only populated with more than one shard) — the signal a
    /// shard-splitting policy would act on.
    pub hot_shards: Vec<u32>,
    /// Metadata-plane bytes sent so far.
    pub metadata_bytes_sent: u64,
    /// Bulk-plane bytes sent so far.
    pub bulk_bytes_sent: u64,
}

/// The shards carrying strictly more than `2×` the mean completed-op
/// load (never any with fewer than two shards).
pub(crate) fn hot_shards(shards: &[ShardHealth]) -> Vec<u32> {
    let total: u64 = shards.iter().map(ShardHealth::ops).sum();
    if shards.len() < 2 || total == 0 {
        return Vec::new();
    }
    let threshold = 2 * total / shards.len() as u64;
    shards
        .iter()
        .filter(|s| s.ops() > threshold)
        .map(|s| s.shard)
        .collect()
}

/// A post-mortem dump: the causal trace slice around the suspect
/// operations, with enough context to read it standalone.
#[derive(Clone, Debug)]
pub struct FlightRecord {
    /// The operations the slice was seeded from: monitor-flagged
    /// violating ops when there are violations, otherwise the ops still
    /// pending at dump time.
    pub seed_ops: Vec<u64>,
    /// The monitor violations at dump time (empty when the recorder was
    /// triggered by timeouts/pending ops instead).
    pub violations: Vec<Violation>,
    /// The causal slice: every trace record reachable backward from the
    /// seed operations along message send→deliver edges.
    pub records: Vec<TraceRecord>,
    /// `(pid, role)` names for every process (`client-N` / `server-N`),
    /// used to label the Chrome export.
    pub names: Vec<(u32, String)>,
}

impl FlightRecord {
    /// True when the slice holds no records (nothing to explain, or the
    /// deployment was built without tracing).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Rebuilds a tracer holding exactly this slice (exports reuse the
    /// tracer's deterministic serializers).
    fn slice_tracer(&self) -> Tracer {
        let mut t = Tracer::bounded(self.records.len().max(1));
        for r in &self.records {
            t.record(r.at_ns, r.pid, r.event);
        }
        t
    }

    /// Serializes the dump as JSONL: one `flight_meta` header naming the
    /// seed ops and violations, then the slice records (same line format
    /// as [`Tracer::to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"ev\":\"flight_meta\",\"seed_ops\":[");
        for (i, op) in self.seed_ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{op}");
        }
        let _ = write!(out, "],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"key\":\"{}\",\"op\":{},\"at_ns\":{},\"culprits\":{:?}}}",
                v.key, v.op, v.at_ns, v.culprits
            );
        }
        out.push_str("]}\n");
        out.push_str(&self.slice_tracer().to_jsonl());
        out
    }

    /// Serializes the dump in the Chrome trace-event format with labeled
    /// process rows and causal flow arrows — drop the file on
    /// <https://ui.perfetto.dev> to see the violating ops' message tree.
    pub fn to_chrome_trace(&self) -> String {
        self.slice_tracer().to_chrome_trace_named(&self.names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_sim::TraceEvent;

    #[test]
    fn hot_shard_detector_flags_outliers() {
        let tally = |shard, puts, gets| ShardHealth { shard, puts, gets };
        let shards = [
            tally(0, 1, 1),
            tally(1, 2, 1),
            tally(2, 50, 45),
            tally(3, 0, 0),
        ];
        assert_eq!(hot_shards(&shards), vec![2]);
    }

    #[test]
    fn hot_shard_detector_is_quiet_on_uniform_load() {
        let shards: Vec<ShardHealth> = (0..4)
            .map(|shard| ShardHealth {
                shard,
                puts: 10,
                gets: 10,
            })
            .collect();
        assert!(hot_shards(&shards).is_empty());
        // Single shard: never hot, whatever the load.
        assert!(hot_shards(&shards[..1]).is_empty());
    }

    #[test]
    fn flight_record_exports_meta_and_slice() {
        let rec = FlightRecord {
            seed_ops: vec![3, 7],
            violations: vec![Violation {
                key: "k".into(),
                op: 7,
                at_ns: 99,
                culprits: vec![3, 7],
            }],
            records: vec![TraceRecord {
                at_ns: 10,
                pid: 0,
                event: TraceEvent::OpStart { op: 3, kind: "put" },
            }],
            names: vec![(0, "client-0".into())],
        };
        let jsonl = rec.to_jsonl();
        assert!(jsonl.starts_with(
            "{\"ev\":\"flight_meta\",\"seed_ops\":[3,7],\"violations\":[{\"key\":\"k\",\"op\":7,\"at_ns\":99,\"culprits\":[3, 7]}]}\n"
        ));
        assert!(jsonl.contains("\"ev\":\"op_start\""));
        let chrome = rec.to_chrome_trace();
        assert!(chrome.contains("\"name\":\"client-0\""));
        assert!(!rec.is_empty());
    }

    #[test]
    fn empty_flight_record_exports_cleanly() {
        let rec = FlightRecord {
            seed_ops: Vec::new(),
            violations: Vec::new(),
            records: Vec::new(),
            names: Vec::new(),
        };
        assert!(rec.is_empty());
        assert!(rec.to_jsonl().starts_with("{\"ev\":\"flight_meta\""));
        assert!(rec.to_chrome_trace().ends_with("]}\n"));
    }
}
