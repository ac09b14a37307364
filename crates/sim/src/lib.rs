//! # sbs-sim — deterministic substrate for Byzantine message-passing protocols
//!
//! This crate is the execution substrate for the `stabilizing-storage`
//! workspace, which reproduces *"Stabilizing Server-Based Storage in
//! Byzantine Asynchronous Message-Passing Systems"* (Bonomi, Dolev,
//! Potop-Butucaru, Raynal — PODC 2015). The paper's computing model —
//! asynchronous sequential processes with zero processing time, connected by
//! reliable FIFO directed links with finite but arbitrary transfer delays,
//! subject to transient failures and Byzantine servers — is implemented here
//! as a deterministic discrete-event simulation, plus a thread-backed
//! runtime that hosts the very same protocol state machines.
//!
//! ## Pieces
//!
//! - [`Simulation`]: the discrete-event engine (virtual time, FIFO links,
//!   seeded determinism, fault injection).
//! - [`Node`] / [`Context`] / [`Effects`]: the runtime-agnostic protocol
//!   state-machine contract.
//! - The host core (private, `host.rs`): the nodes one event loop hosts,
//!   each with its RNG and timer counter, the armed timers, the trace
//!   ring, and the one path a handler runs and its effects leave
//!   through. Both [`Simulation`] and every [`ThreadRuntime`] worker are
//!   this core plus a clock and a sink.
//! - [`DelayModel`] / [`LinkState`]: link behaviour, including the bounded
//!   delays required by the paper's synchronous variant.
//! - [`ThreadRuntime`]: the same contract on one worker thread per core
//!   and `std::sync::mpsc` channels.
//! - [`DetRng`]: reproducible per-process randomness.
//! - [`Metrics`]: message/event/fault counters for the experiment harness.
//!
//! ## Example
//!
//! ```
//! use sbs_sim::{Context, Message, Node, ProcessId, SimConfig, SimTime, Simulation};
//! use std::any::Any;
//!
//! #[derive(Clone, Debug)]
//! struct Inc(u64);
//! impl Message for Inc {}
//!
//! /// Adds 1 to every number it receives and sends it back.
//! struct Adder;
//! impl Node for Adder {
//!     type Msg = Inc;
//!     type Out = u64;
//!     fn on_message(&mut self, from: ProcessId, Inc(v): Inc, ctx: &mut Context<'_, Inc, u64>) {
//!         ctx.send(from, Inc(v + 1));
//!     }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! /// Emits whatever comes back.
//! struct Probe;
//! impl Node for Probe {
//!     type Msg = Inc;
//!     type Out = u64;
//!     fn on_message(&mut self, _: ProcessId, Inc(v): Inc, ctx: &mut Context<'_, Inc, u64>) {
//!         ctx.output(v);
//!     }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut sim: Simulation<Inc, u64> = Simulation::new(SimConfig::with_seed(7));
//! let adder = sim.add_node(Adder);
//! let probe = sim.add_node(Probe);
//! sim.add_duplex_default(adder, probe);
//! sim.with_node::<Probe, _>(probe, |_probe, ctx| ctx.send(adder, Inc(41)));
//! sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
//! let outputs = sim.take_outputs();
//! assert_eq!(outputs[0].2, 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod host;
mod id;
mod link;
mod metrics;
mod node;
mod rng;
pub mod runtime;
mod sim;
mod time;

pub use id::{OpId, ProcessId, TimerId};
pub use link::{DelayModel, LinkState};
pub use metrics::{Metrics, SlowPath};
pub use node::{Context, Effects, Message, Node};
pub use rng::DetRng;
pub use runtime::{Inbound, LocalTransport, MsgInjector, ThreadRuntime, Transport};
pub use sbs_obs::{
    causal_slice, ConsistencyMonitor, LatencyHistogram, LatencySummary, TraceEvent, TraceRecord,
    Tracer, Violation,
};
pub use sim::{SimConfig, Simulation};
pub use time::{SimDuration, SimTime};
