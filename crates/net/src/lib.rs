//! Real-socket transport runtime for the store: the same
//! [`Node`](sbs_sim::Node) state machines the simulator and the thread
//! runtime host, on loopback (or real) TCP — with a canonical,
//! Byzantine-hardened wire codec.
//!
//! The crate has three layers:
//!
//! - [`codec`] — the canonical [`StoreMsg`](sbs_store::StoreMsg) wire
//!   format: length-prefixed frames, a versioned header, body bytes
//!   exactly equal to
//!   [`Message::wire_bytes`](sbs_sim::Message::wire_bytes), hard frame
//!   caps, and a decoder that refuses (never panics on) malformed input.
//! - [`transport`] — [`TcpTransport`]: a
//!   [`Transport`](sbs_sim::Transport) backend over `std::net` TCP with
//!   one stream per directed peer link, blocking writes, and bounded
//!   per-link reconnect. [`NetFabric`] owns the listener and reader
//!   threads that decode inbound frames back into the hosting
//!   [`ThreadRuntime`](sbs_sim::ThreadRuntime).
//! - [`harness`] — [`NetStoreSystem`]: `sbs_store`'s
//!   [`DeployCore`](sbs_store::DeployCore) — op log, online
//!   [`ConsistencyMonitor`](sbs_sim::ConsistencyMonitor), per-key
//!   histories for `sbs-check`, reshard orchestrator — hosted on node
//!   threads and sockets, driven by the same closed-loop workload
//!   driver as the simulator; one implementation on both sides is what
//!   the differential sim ≡ socket equivalence tests compare through.
//!
//! What is and is not deterministic here: the *issued operation
//! streams* are (they come from `sbs_store::WorkloadStreams`, a pure
//! function of the workload seed), but scheduling, latencies, and the
//! interleaving of completions are real-OS nondeterminism. Correctness
//! on this backend is therefore checked per run — atomicity of the
//! observed histories — rather than by replaying a known-good schedule.

#![warn(missing_docs)]

pub mod codec;
pub mod harness;
pub mod transport;

pub use codec::{read_frame, write_frame, DecodeError, WireCodec, MAX_FRAME, WIRE_VERSION};
pub use harness::{NetReport, NetStoreSystem};
pub use transport::{NetFabric, TcpTransport};
