//! # sbs-store — a sharded multi-register key-value store
//!
//! The register constructions of `sbs-core` each deploy one register on a
//! dedicated server fleet. This crate turns them into a **store**: many
//! keys, hash-sharded onto many logical registers, multiplexed over one
//! *shared* fleet — the architectural seam scaling work (caching,
//! rebalancing, metadata/data separation à la Cachin–Dobre–Vukolić) builds
//! on. Three layers:
//!
//! 1. **Keyspace router** ([`KeyRouter`] / [`RoutingTable`]) —
//!    deterministic FNV-1a sharding of string keys onto `RegId`-keyed
//!    shards, and the **epoch-versioned** per-shard writer assignment
//!    that keeps each shard a single-writer (SWMR, §5.1) register while
//!    letting a [`ReshardPlan`] migrate shard ownership *live* (see
//!    `router`'s module docs for the dual-commit handoff).
//! 2. **Multiplexing nodes** ([`StoreClientNode`], [`StoreServerNode`]) —
//!    the *unmodified* `sbs-core` state machines ([`ServerCore`] servers,
//!    [`ReadEngine`]/[`WriteEngine`] clients, Byzantine adversaries) wrapped
//!    behind the shard-tagged, per-destination-**batched** [`StoreMsg`]
//!    envelope: every handler's messages to one peer travel as one
//!    delivery event.
//! 3. **Workload engine** ([`Workload`]) — YCSB-style read/write mixes,
//!    Zipfian/uniform key popularity, open- and closed-loop clients, and
//!    pluggable [`FaultPlan`]s driving the existing [`ByzStrategy`]
//!    adversaries and link-corruption hooks.
//!
//! Each shard register stores the whole shard as a [`ShardMap`]; the
//! shard's unique writer keeps the authoritative copy and publishes a
//! snapshot per `put`. Per-key correctness is then register correctness
//! by projection, and [`DeployCore::history_for_key`] extracts exactly
//! the per-key history the `sbs-check` checkers judge.
//!
//! # The bulk data plane (metadata/data separation)
//!
//! Full replication ships every snapshot of the shard's *values* to all
//! `n ≥ 8t + 1` servers. With [`StoreBuilder::bulk`] the register holds
//! the shard's [`RefMap`] instead — every key's [`ValueRef`]: its slot and
//! the fixed-size digest reference of its current value — and each value
//! is serialized alone (via `sbs-bulk`'s canonical codec) and stored
//! under its content address on the shard's **`2t + 1` data replicas**.
//! Only the reference map rides the *unmodified* register quorum — the
//! Cachin–Dobre–Vukolić split — so a put disperses one value and a get
//! fetches one value, whatever the shard holds. Reads resolve the
//! reference against the data replicas and re-verify the digest, so a
//! Byzantine data replica serving garbage bytes is detected and routed
//! around; per-key histories are indistinguishable from full-replication
//! runs (`tests/bulk_checks.rs` checks this differentially), while
//! payload bytes on the wire shrink by roughly `n·rounds / (2t + 1)`
//! times the keys a snapshot carries (the `bulk_vs_full` bench measures
//! it). The references themselves (44 bytes plus the key per entry) ride
//! every metadata message, so shards of many tiny values are cheaper
//! under full replication.
//!
//! [`StoreBuilder::bulk_coded`] goes one step further (AVID-style
//! dispersal): the same `2t + 1` window, but each replica stores only
//! one `k`-of-`m` **erasure-coded fragment** of each value (~`1/k` of
//! it), verified against a Merkle commitment whose root rides the
//! metadata quorum as the value's reference digest. Pushes wait for
//! `k + t` verified acknowledgements, reads reconstruct from any `k`
//! verified fragments — cutting per-replica storage and bulk wire bytes
//! by another ~`k`× at the cost of a `k`-fragment reconstruction on
//! every read.
//!
//! # Communication modes
//!
//! Every construction exists in two variants, and the store builds
//! either: [`StoreBuilder::asynchronous`] deploys the Figure 2/3
//! configuration (`n = 8t + 1` servers, rounds wait for `n − t`
//! acknowledgements), [`StoreBuilder::synchronous`] the Figure 5 /
//! Appendix A one (`n = 3t + 1` servers — fewer than half the fleet for
//! the same `t` — rounds wait for all `n` or a timeout derived from the
//! declared link bound). The [`StoreConfig`] snapshot on every
//! [`StoreSystem`] records the mode and the per-mode quorum sizes;
//! workloads, fault plans, and the checkers are mode-generic.
//!
//! ```
//! use sbs_store::{StoreBuilder, Workload};
//! use sbs_core::ByzStrategy;
//!
//! // 16 keys on 4 shards over one 9-server fleet (t = 1), one Byzantine
//! // server, 100-op YCSB-B (95% reads) with Zipfian popularity.
//! let builder = StoreBuilder::asynchronous(1).seed(7).shards(4).writers(2).extra_readers(1);
//! let mut wl = Workload::ycsb_b(100, 16);
//! wl.faults = sbs_store::FaultPlan::one_byzantine(3, ByzStrategy::StaleReplay);
//! let (report, sys) = wl.run(&builder);
//! assert_eq!(report.completed, 100);
//! // Every key's extracted history independently passes the atomicity
//! // checker.
//! sys.check_per_key_atomicity().unwrap();
//! ```
//!
//! The same workload shape on the synchronous minimal fleet — 4 servers
//! instead of 9 for `t = 1`:
//!
//! ```
//! use sbs_store::{StoreBuilder, Workload};
//! use sbs_sim::SimDuration;
//!
//! let builder = StoreBuilder::synchronous(1, SimDuration::millis(1))
//!     .seed(7)
//!     .shards(4)
//!     .writers(2);
//! assert_eq!(builder.config().n, 4);
//! let (report, sys) = Workload::ycsb_b(60, 16).run(&builder);
//! assert_eq!(report.completed, 60);
//! sys.check_per_key_atomicity().unwrap();
//! ```
//!
//! [`ServerCore`]: sbs_core::ServerCore
//! [`ReadEngine`]: sbs_core::ReadEngine
//! [`WriteEngine`]: sbs_core::WriteEngine
//! [`ByzStrategy`]: sbs_core::ByzStrategy

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batcher;
mod deploy;
mod harness;
mod health;
mod map;
mod msg;
mod node;
mod router;
mod val;
mod workload;

pub use batcher::DestBatcher;
pub use deploy::{ByzServer, ClientCall, CorrectServer, DeployCore, DeployHost};
pub use harness::{StoreBuilder, StoreConfig, StoreNodeSet, StoreSystem};
pub use health::{FlightRecord, ReplicaHealth, ShardHealth, StoreHealth};
pub use map::ShardMap;
pub use msg::{Holding, StoreMsg, StoreOut};
pub use node::{DataPlane, StoreClientNode, StorePayload, StoreServerNode, StoreWire};
pub use router::{fnv1a64, KeyRouter, ReshardPlan, RoutingTable};
pub use val::{RefMap, SizedVal, StoreVal, ValueRef, KEY_SLOTS};
pub use workload::{
    Driver, FaultPlan, KeyDist, LoopMode, OpMix, PlannedOp, Workload, WorkloadReport,
    WorkloadStreams,
};

// The mode enum is `sbs-core`'s; re-exported so store users can match on
// `StoreConfig::mode` without a second dependency.
pub use sbs_core::SyncMode;
