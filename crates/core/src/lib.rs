//! # sbs-core — stabilizing Byzantine-tolerant server-based registers
//!
//! A from-scratch implementation of every construction in *"Stabilizing
//! Server-Based Storage in Byzantine Asynchronous Message-Passing Systems"*
//! (Bonomi, Dolev, Potop-Butucaru, Raynal — PODC 2015):
//!
//! - the **SWSR regular register** of Figure 2 (asynchronous, `n ≥ 8t+1`)
//!   and Figure 5 (synchronous, `n ≥ 3t+1`) — [`RegularWriter`],
//!   [`RegularReader`], [`ServerNode`];
//! - the **SWSR practically atomic register** of Figure 3 — bounded write
//!   sequence numbers compared by clockwise distance ([`AtomicWriter`],
//!   [`AtomicReader`]);
//! - the **SWMR atomic register** of §5.1 — the same nodes with one reader
//!   node per reader and per-reader helping state on the servers;
//! - the **MWMR atomic register** of Figure 4 — bounded epochs over one
//!   SWMR register per writer ([`MwmrProcessNode`]);
//! - a bestiary of **Byzantine server behaviours** ([`ByzStrategy`]) and a
//!   scenario [`harness`] used by the tests, examples and experiments.
//!
//! Everything runs on the deterministic simulation substrate of
//! [`sbs_sim`], over the `ss-broadcast` session layer of [`sbs_link`], with
//! bounded timestamps from [`sbs_stamps`], and is judged by the checkers of
//! [`sbs_check`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clientlink;
mod config;
mod engine;
mod msg;
mod server;
mod swsr;
mod value;

pub mod byz;
pub mod harness;
pub mod mwmr;

pub use clientlink::ClientLink;
pub use config::{round_trip_timeout, RegId, RegisterConfig, SyncMode};
pub use engine::{ReadEngine, ReadProgress, ReadSource, WriteEngine, WriteProgress};
pub use msg::{ClientOut, RegMsg};
pub use server::{RegSlot, ServerCore, ServerNode};
pub use swsr::{
    AtomicPolicy, AtomicReader, AtomicWriter, PlainStamp, ReadPolicy, ReaderNode, RegularPolicy,
    RegularReader, RegularWriter, WriteStamper, WriterNode, WsnStamp,
};
pub use value::{Payload, SeqVal};

pub use byz::{ByzServerNode, ByzStrategy};
pub use mwmr::{MwmrProcessNode, Triple};
