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
//!   one connection per node pair (the acceptor replies on the
//!   connection its peer dialled), writes under a deadline, and per-link
//!   reconnect back-off kept as state, never slept. The receive half
//!   runs on the node's own thread too: [`NetFabric`] binds the
//!   listeners and hands each to its node, whose thread then blocks in
//!   one `ppoll(2)` over its wake socket, listener and connections and
//!   decodes frames straight into `on_message`. One OS
//!   thread per node, no reader or accept threads; enqueue-then-wake on
//!   one side and drain-wake-then-drain-channel on the other is the
//!   ordering rule that loses no wake-up.
//! - [`harness`] — [`NetStoreSystem`]: `sbs_store`'s
//!   [`DeployCore`](sbs_store::DeployCore) — op log, online
//!   [`ConsistencyMonitor`](sbs_sim::ConsistencyMonitor), per-key
//!   histories for `sbs-check`, reshard orchestrator — hosted on node
//!   threads and sockets, driven by the same closed-loop workload
//!   driver as the simulator; one implementation on both sides is what
//!   the differential sim ≡ socket equivalence tests compare through.
//!
//! The `ppoll` call in [`transport`] is the workspace's one `unsafe`
//! block, and with the Unix-domain wake socket makes this crate
//! **Unix-only** (Linux and the BSDs).
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
pub use transport::{NetFabric, TcpTransport, TransportStats};
