//! # sbs-obs — zero-dependency telemetry primitives
//!
//! The observability substrate of the workspace: everything the simulator,
//! the store harness, and the benches use to *measure* protocol behavior
//! rather than just assert it.
//!
//! - [`LatencyHistogram`] — a log-bucketed (HDR-style) histogram over
//!   nanosecond samples with bounded relative error, cheap constant-size
//!   storage, and exact min/max/mean tracking. Quantile queries share the
//!   [`nearest_rank_index`] rule with the exact-sample percentiles in
//!   `sbs-check`, so a histogram `p50` and a sorted-sample `p50` agree on
//!   the same convention.
//! - [`Tracer`] / [`TraceEvent`] — a bounded ring of timestamped protocol
//!   events (op start/complete, phase transitions, quorum acks,
//!   retransmissions, fault injections, guard refusals, envelope-stamped
//!   message send/deliver pairs), exportable as JSONL
//!   ([`Tracer::to_jsonl`]) and as the Chrome trace-event format
//!   ([`Tracer::to_chrome_trace`] / [`Tracer::to_chrome_trace_named`]
//!   with labeled timeline rows and causal flow arrows — open in
//!   `chrome://tracing` or Perfetto).
//! - [`ConsistencyMonitor`] — the per-key atomicity checker: feed it op
//!   invocations/completions as they happen (or replay a finished
//!   history, as `sbs-check` does) and it reports the first [`Violation`]
//!   at event time, with culprit operations. [`InitialState`] says what
//!   a register holds before its first operation.
//! - [`causal_slice`] — extracts from a trace ring the minimal causal
//!   sub-trace leading to a set of operations (the flight-recorder
//!   primitive).
//!
//! The crate has **no dependencies** (not even on `sbs-sim`): timestamps
//! are raw nanosecond `u64`s and process ids raw `u32`s, so the simulator
//! can depend on it without a cycle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hist;
mod monitor;
mod slice;
mod trace;

pub use hist::{nearest_rank_index, LatencyHistogram, LatencySummary};
pub use monitor::{ConsistencyMonitor, InitialState, Violation};
pub use slice::causal_slice;
pub use trace::{TraceEvent, TraceRecord, Tracer};
