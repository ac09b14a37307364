//! The multiplexing store nodes: existing register state machines wrapped
//! behind the batched [`StoreMsg`] envelope, plus the content-addressed
//! **bulk data plane**.
//!
//! Neither wrapper reimplements any register-protocol logic. The embedded
//! machines — [`ServerCore`]-based servers, the client-side
//! [`ReadEngine`] / [`WriteEngine`] — run unmodified inside a sub-context
//! ([`Context::with_effects`]) speaking their native [`RegMsg`] wire
//! type; the wrapper then re-emits their effects with all messages to one
//! destination coalesced into a single [`StoreMsg::Batch`] (via the
//! indexed, reusable [`DestBatcher`]). Timer ids are allocated from the
//! shared counter, so forwarding them preserves identity and the
//! engines' stale-timer filtering keeps working.
//!
//! [`ServerCore`]: sbs_core::ServerCore
//! [`ReadEngine`]: sbs_core::ReadEngine
//! [`WriteEngine`]: sbs_core::WriteEngine
//! [`Context::with_effects`]: sbs_sim::Context::with_effects
//! [`RegMsg`]: sbs_core::RegMsg
//! [`DestBatcher`]: crate::DestBatcher

mod client;
mod healer;
mod server;

pub use client::StoreClientNode;
pub use server::StoreServerNode;

use crate::msg::StoreMsg;
use crate::val::{StoreVal, KEY_SLOTS};
use sbs_bulk::{BulkDigest, ReplicaWindow, SharedBytes};
use sbs_core::SeqVal;
use sbs_sim::ProcessId;

/// The wire payload of every store shard: a sequence-stamped
/// [`StoreVal`] (the practically-atomic SWMR register of Figure 3 /
/// §5.1, with the map of values — or of value references — as the
/// stored value).
pub type StorePayload<V> = SeqVal<StoreVal<V>>;

/// The store's simulation-wide message type.
pub type StoreWire<V> = StoreMsg<StorePayload<V>>;

/// Where shard payload bytes live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataPlane {
    /// Every write carries the whole map to all `n` servers through the
    /// register protocol (the paper's original scheme; compatibility
    /// default).
    Full,
    /// Erasure-coded dispersal (AVID-style): each of the `replicas`
    /// window servers holds **one** `k`-of-`replicas` fragment of each
    /// value (~`1/k` of it) verified against a Merkle commitment whose
    /// root is the value's register-visible digest; the metadata quorum
    /// carries each key's `(slot, root, len)` reference. Any `k` verified
    /// fragments reconstruct; pushes wait for `k + t` acknowledgements.
    /// `k = 1` is whole-copy replication.
    ///
    /// Liveness trade of `k > 1`: on the minimal `m = 2t + 1` window the
    /// push quorum `k + t` exceeds the `t + 1` honest replicas — writes
    /// then need acknowledgements from *responsive* Byzantine replicas
    /// too. The workspace's adversaries
    /// store-and-ack honestly (their lies are in what they *serve*), so
    /// puts stay live here; a deployment that must also ride out
    /// **fail-silent** data replicas should overprovision the window to
    /// `m ≥ k + 2t` (e.g. `data_replicas(3t + 1)` before
    /// `bulk_coded(t + 1)` — the classical AVID shape), at which point
    /// `k + t` acks arrive from honest replicas alone.
    Coded {
        /// Data replicas (= fragments) per shard — `2t + 1` for
        /// Byzantine tolerance.
        replicas: usize,
        /// Fragments needed to reconstruct; `k + t ≤ replicas` so
        /// reads stay live with `t` Byzantine replicas.
        k: usize,
    },
}

impl DataPlane {
    /// The coding shape `(k, m)` — `m` the data replicas per shard — or
    /// `None` under full replication.
    pub(crate) fn coding(self) -> Option<(usize, usize)> {
        match self {
            DataPlane::Coded { replicas, k } => Some((k, replicas)),
            DataPlane::Full => None,
        }
    }

    /// The plane's data-replica windows over `servers` — empty under
    /// full replication.
    pub(crate) fn window(self, servers: &[ProcessId]) -> ReplicaWindow<'_, ProcessId> {
        ReplicaWindow::new(servers, self.coding().map_or(0, |(_, m)| m))
    }
}

/// A fragment as served on the wire: `(index, bytes, Merkle path)`.
type Served = (u32, SharedBytes, Vec<BulkDigest>);

/// True iff `slot` lies in the deployment's key-slot space — the bound a
/// replica needs on holder slots named by the wire (see the server's
/// admission guard).
fn slot_in_range(slot: u32) -> bool {
    slot < KEY_SLOTS
}

#[cfg(test)]
mod tests;
