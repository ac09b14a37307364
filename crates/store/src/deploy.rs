//! The backend-independent **deployment core**: everything that deploys
//! and judges a store fleet, written once for the simulator and the
//! socket runtime alike.
//!
//! [`DeployCore`] owns the op log, the online monitor feed, the
//! per-(kind, shard) latency books, the [`RoutingTable`], the dual-commit
//! reshard orchestrator, the Byzantine-aware data-wipe dispatch, per-key
//! history extraction and the atomicity check, the flight recorder, and
//! the rebalance proposal. What differs between backends is the four
//! methods of [`DeployHost`] — *now*, *call a client node*, *wipe a
//! server's data stores*, *stamp a fault* — implemented by
//! `Simulation<StoreWire<V>, StoreOut<V>>` here and by `sbs-net`'s
//! thread-runtime host.
//!
//! The client call crosses the seam as **data** ([`ClientCall`]), not as
//! a closure: [`Payload`] is not `Send`, and the simulator path must not
//! acquire that bound, while the socket host has to move the call onto a
//! worker thread. An enum is `Send` exactly when `V` is, so each host
//! decides under its own bounds.

use crate::health::{hot_shards, FlightRecord, ShardHealth};
use crate::msg::StoreOut;
use crate::node::{DataPlane, StoreClientNode, StorePayload, StoreServerNode, StoreWire};
use crate::router::{KeyRouter, ReshardPlan, RoutingTable};
use crate::StoreConfig;
use sbs_bulk::BulkCodec;
use sbs_check::{check_linearizable, History, InitialState, OpKind, OpRecord};
use sbs_core::{ByzServerNode, Payload, ServerNode};
use sbs_sim::{
    causal_slice, ConsistencyMonitor, Context, LatencyHistogram, LatencySummary, OpId, ProcessId,
    SimTime, TraceRecord, Violation,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The concrete node type hosted in a correct server slot.
pub type CorrectServer<V> =
    StoreServerNode<StorePayload<V>, ServerNode<StorePayload<V>, StoreOut<V>>>;
/// The concrete node type hosted in a Byzantine server slot.
pub type ByzServer<V> =
    StoreServerNode<StorePayload<V>, ByzServerNode<StorePayload<V>, StoreOut<V>>>;

/// One harness-side call on a [`StoreClientNode`], as data.
#[derive(Debug, PartialEq)]
pub enum ClientCall<V> {
    /// [`StoreClientNode::invoke_put`].
    Put {
        /// The operation id the completion will carry.
        op: OpId,
        /// The key to write.
        key: String,
        /// The value to write.
        val: V,
    },
    /// [`StoreClientNode::invoke_get`].
    Get {
        /// The operation id the completion will carry.
        op: OpId,
        /// The key to read.
        key: String,
    },
    /// [`StoreClientNode::retire_shard`] (old owner of a handoff).
    RetireShard {
        /// The migrating shard.
        shard: u32,
    },
    /// [`StoreClientNode::grant_shard`] (new owner, phase 1).
    GrantShard {
        /// The migrating shard.
        shard: u32,
    },
    /// [`StoreClientNode::acquire_shard`] (new owner, phase 2).
    AcquireShard {
        /// The migrating shard.
        shard: u32,
    },
}

impl<V: Payload + BulkCodec> ClientCall<V> {
    /// Performs the call on `node`.
    pub fn apply(
        self,
        node: &mut StoreClientNode<V>,
        ctx: &mut Context<'_, StoreWire<V>, StoreOut<V>>,
    ) {
        match self {
            ClientCall::Put { op, key, val } => node.invoke_put(op, key, val, ctx),
            ClientCall::Get { op, key } => node.invoke_get(op, key, ctx),
            ClientCall::RetireShard { shard } => node.retire_shard(shard, ctx),
            ClientCall::GrantShard { shard } => node.grant_shard(shard),
            ClientCall::AcquireShard { shard } => node.acquire_shard(shard, ctx),
        }
    }
}

/// What a backend must provide for [`DeployCore`] to run on it.
pub trait DeployHost<V: Payload + BulkCodec> {
    /// The backend's clock: virtual time, or wall time since deployment.
    fn now(&self) -> SimTime;
    /// Performs `call` on the [`StoreClientNode`] at `client`.
    fn call_client(&mut self, client: ProcessId, call: ClientCall<V>);
    /// Wipes the fragment store of the server at `server`, a
    /// [`ByzServer`] when `byzantine` and a [`CorrectServer`] otherwise.
    fn wipe_server(&mut self, server: ProcessId, byzantine: bool);
    /// Marks a harness-applied fault against `pid` at the current time.
    fn stamp_fault(&mut self, pid: ProcessId, what: &'static str);
}

/// What one completed store operation did to its key.
#[derive(Clone, Debug)]
struct KeyedRecord<V> {
    key: String,
    record: OpRecord<Option<V>>,
}

/// Store operation bookkeeping: invocation intervals plus the key each
/// operation touched, so per-key histories can be extracted.
#[derive(Debug)]
struct OpLog<V> {
    next_op: u64,
    invoked: HashMap<OpId, (ProcessId, SimTime, String, Option<V>)>,
    completed: Vec<KeyedRecord<V>>,
}

impl<V: Payload> OpLog<V> {
    fn fresh(&mut self, client: ProcessId, now: SimTime, key: &str, put_val: Option<V>) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.invoked
            .insert(op, (client, now, key.to_string(), put_val));
        op
    }

    /// Records the completion; returns `(kind, shard, latency_ns)` for
    /// the latency histograms (`None` on a duplicate completion).
    fn complete(
        &mut self,
        op: OpId,
        at: SimTime,
        read_value: Option<Option<V>>,
        router: &KeyRouter,
    ) -> Option<(&'static str, u32, u64)> {
        // A duplicate completion after corruption finds nothing — ignore.
        let (client, invoked, key, put_val) = self.invoked.remove(&op)?;
        let kind_name = if put_val.is_some() { "put" } else { "get" };
        let shard = router.shard_of(&key);
        let latency_ns = at.as_nanos().saturating_sub(invoked.as_nanos());
        let kind = match put_val {
            Some(v) => OpKind::Write(Some(v)),
            None => OpKind::Read(read_value.expect("get completion carries a value")),
        };
        self.completed.push(KeyedRecord {
            key,
            record: OpRecord {
                client,
                op,
                invoked,
                responded: at,
                kind,
            },
        });
        Some((kind_name, shard, latency_ns))
    }
}

/// One live shard handoff, tracked from [`DeployCore::begin_reshard`]
/// until every migrating shard has been adopted by its new owner. The
/// core orchestrates the two-move dual-commit protocol: it observes the
/// control events the clients emit and gates the acquire step on every
/// retire, so the new owner's adoption read never races the old owner's
/// final publish.
#[derive(Debug)]
struct ReshardInFlight {
    /// The migrating shards as `(shard, old_writer, new_writer)`.
    moves: Vec<(u32, u32, u32)>,
    /// Shards whose old owner has not yet emitted `ShardRetired`.
    awaiting_retire: BTreeSet<u32>,
    /// Whether the acquire step has been issued to the new owners (it
    /// is gated on all retires).
    acquires_issued: bool,
    /// Shards whose new owner has emitted `ShardAcquired`.
    acquired: BTreeSet<u32>,
}

/// The backend-independent state and verdict machinery of one store
/// deployment (see the module docs). Methods that act on the fleet take
/// the backend as `host`.
#[derive(Debug)]
pub struct DeployCore<V: Payload> {
    /// All clients: the `writers` shard owners first, then the read-only
    /// clients.
    pub clients: Vec<ProcessId>,
    /// The shared server fleet.
    pub servers: Vec<ProcessId>,
    table: RoutingTable,
    config: StoreConfig,
    byz_servers: BTreeSet<usize>,
    log: OpLog<V>,
    /// Completed-op latency histograms keyed by op kind × shard, fed as
    /// completions are recorded.
    latency: BTreeMap<(&'static str, u32), LatencyHistogram>,
    /// The online atomicity monitor over `Option<V>` (`None` = key
    /// absent), fed at invoke/record time; `None` when not enabled.
    monitor: Option<ConsistencyMonitor<Option<V>>>,
    /// The in-flight shard handoff, if a reshard is underway.
    reshard: Option<ReshardInFlight>,
}

impl<V: Payload + BulkCodec> DeployCore<V> {
    /// The core of a freshly built fleet: `router` at epoch 0, the
    /// Byzantine fleet slots, and whether to attach the online monitor.
    pub fn new(
        clients: Vec<ProcessId>,
        servers: Vec<ProcessId>,
        router: KeyRouter,
        config: StoreConfig,
        byz_servers: BTreeSet<usize>,
        monitor: bool,
    ) -> Self {
        DeployCore {
            clients,
            servers,
            table: RoutingTable::initial(router),
            config,
            byz_servers,
            log: OpLog {
                next_op: 0,
                invoked: HashMap::new(),
                completed: Vec::new(),
            },
            latency: BTreeMap::new(),
            monitor: monitor.then(|| ConsistencyMonitor::with_initial(None)),
            reshard: None,
        }
    }

    /// The epoch-versioned routing table in force (its
    /// [`base`](RoutingTable::base) is the static key→shard hash). New
    /// puts route by it the moment [`DeployCore::begin_reshard`] flips
    /// it — the handoff window stages them at the incoming owner.
    pub fn routing_table(&self) -> &RoutingTable {
        &self.table
    }

    /// The validated configuration snapshot this store was built with:
    /// mode (and derived timeout), data plane, sharding shape, and the
    /// per-mode quorum sizes.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Number of writer clients.
    pub fn writers(&self) -> usize {
        self.config.writers
    }

    /// The data plane this store was built with.
    pub fn plane(&self) -> DataPlane {
        self.config.plane
    }

    /// True if fleet slot `i` hosts a [`ByzServer`].
    pub fn is_byzantine(&self, i: usize) -> bool {
        self.byz_servers.contains(&i)
    }

    /// Invokes `put(key, val)` on the shard's owning writer (per the
    /// routing table). Values must be unique per key across the run so
    /// the checkers can identify which write a read observed.
    pub fn put<H: DeployHost<V>>(&mut self, host: &mut H, key: &str, val: V) -> OpId {
        let client = self.clients[self.table.writer_of(key)];
        let now = host.now();
        let op = self.log.fresh(client, now, key, Some(val.clone()));
        if let Some(m) = &mut self.monitor {
            m.op_invoked(op.0, key, now.as_nanos(), Some(Some(val.clone())));
        }
        let key = key.to_string();
        host.call_client(client, ClientCall::Put { op, key, val });
        op
    }

    /// Invokes `get(key)` at client `client_idx` (any client may read any
    /// key).
    pub fn get<H: DeployHost<V>>(&mut self, host: &mut H, client_idx: usize, key: &str) -> OpId {
        let client = self.clients[client_idx];
        let now = host.now();
        let op = self.log.fresh(client, now, key, None);
        if let Some(m) = &mut self.monitor {
            m.op_invoked(op.0, key, now.as_nanos(), None);
        }
        let key = key.to_string();
        host.call_client(client, ClientCall::Get { op, key });
        op
    }

    /// Records one node output observed at `at`. A `PutDone`/`GetDone`
    /// feeds the monitor, the op log and the latency books and is
    /// returned as `(client process, operation)` — the hook closed-loop
    /// drivers refill from; a duplicate completion is still returned but
    /// touches none of the books. Dual-commit control events advance the
    /// handoff state instead (they are not client operations); follow a
    /// batch of outputs with [`DeployCore::advance_reshard`].
    pub fn record(
        &mut self,
        at: SimTime,
        pid: ProcessId,
        out: StoreOut<V>,
    ) -> Option<(ProcessId, OpId)> {
        let (op, read_value) = match out {
            StoreOut::PutDone { op } => (op, None),
            StoreOut::GetDone { op, value } => (op, Some(value)),
            StoreOut::ShardRetired { shard } => {
                if let Some(r) = &mut self.reshard {
                    r.awaiting_retire.remove(&shard);
                }
                return None;
            }
            StoreOut::ShardAcquired { shard } => {
                if let Some(r) = &mut self.reshard {
                    r.acquired.insert(shard);
                }
                return None;
            }
        };
        if let Some(m) = &mut self.monitor {
            m.op_completed(op.0, at.as_nanos(), read_value.clone());
        }
        let completed = self.log.complete(op, at, read_value, self.table.base());
        if let Some((kind, shard, latency_ns)) = completed {
            self.latency
                .entry((kind, shard))
                .or_default()
                .record(latency_ns);
        }
        Some((pid, op))
    }

    /// Progresses the in-flight handoff: once every retiring owner has
    /// published its final map, the new owners are told to adopt their
    /// shards; once every adoption has republished, the handoff is over.
    pub fn advance_reshard<H: DeployHost<V>>(&mut self, host: &mut H) {
        let Some(r) = &mut self.reshard else { return };
        if !r.acquires_issued && r.awaiting_retire.is_empty() {
            r.acquires_issued = true;
            for &(shard, _, new) in &r.moves {
                let c = self.clients[new as usize];
                host.call_client(c, ClientCall::AcquireShard { shard });
            }
        }
        if r.acquires_issued && r.moves.iter().all(|&(s, _, _)| r.acquired.contains(&s)) {
            self.reshard = None;
        }
    }

    /// Starts a live reshard: applies `plan` to the routing table and
    /// kicks off the dual-commit handoff for every shard whose owner
    /// changes. New puts route by the next epoch immediately — the
    /// incoming owner stages them until it has adopted the shard — while
    /// each outgoing owner drains its queue, publishes one final time,
    /// and retires. The table itself is harness configuration: no
    /// register holds it. Keep recording outputs until
    /// [`DeployCore::reshard_active`] reports `false`.
    ///
    /// The reshard is stamped as a fault on the host, against the first
    /// move's new owner (or the first writer, for a plan that changes no
    /// ownership).
    ///
    /// # Panics
    ///
    /// Panics if a reshard is already in flight or the plan is invalid
    /// for the current table (unknown shard, writer out of range, or a
    /// shard moved twice).
    pub fn begin_reshard<H: DeployHost<V>>(&mut self, host: &mut H, plan: &ReshardPlan) {
        assert!(
            self.reshard.is_none(),
            "a reshard is already in flight — settle it before the next plan"
        );
        let next = self.table.apply(plan).unwrap_or_else(|e| {
            panic!("invalid reshard plan: {e}");
        });
        let moves = self.table.moves_to(&next);
        let stamped = moves.first().map(|&(_, _, new)| new as usize).unwrap_or(0);
        host.stamp_fault(self.clients[stamped], "reshard");
        for &(shard, old, new) in &moves {
            host.call_client(
                self.clients[old as usize],
                ClientCall::RetireShard { shard },
            );
            host.call_client(self.clients[new as usize], ClientCall::GrantShard { shard });
        }
        self.reshard = Some(ReshardInFlight {
            awaiting_retire: moves.iter().map(|&(s, _, _)| s).collect(),
            moves,
            acquires_issued: false,
            acquired: BTreeSet::new(),
        });
        self.table = next;
    }

    /// True while a shard handoff started by
    /// [`DeployCore::begin_reshard`] is still in flight.
    pub fn reshard_active(&self) -> bool {
        self.reshard.is_some()
    }

    /// How far the in-flight handoff has got, as `(acquires issued,
    /// retires awaited, shards acquired)` — two equal readings across a
    /// quiescent backend mean the handoff is wedged.
    pub(crate) fn reshard_progress(&self) -> Option<(bool, usize, usize)> {
        self.reshard
            .as_ref()
            .map(|r| (r.acquires_issued, r.awaiting_retire.len(), r.acquired.len()))
    }

    /// Wipes server `i`'s fragment store *now* — the
    /// data-loss fault the self-healing plane
    /// ([`StoreBuilder::anti_entropy`](crate::StoreBuilder::anti_entropy))
    /// repairs without writer involvement — whichever node type the slot
    /// hosts. Register (metadata) state is untouched; retention bounds
    /// survive. The fault is stamped on the host.
    pub fn wipe_server_data<H: DeployHost<V>>(&self, host: &mut H, i: usize) {
        let pid = self.servers[i];
        host.wipe_server(pid, self.is_byzantine(i));
        host.stamp_fault(pid, "data-wipe");
    }

    /// The completed-op latency histogram of `kind` (`"put"` / `"get"`)
    /// on `shard`, if any such operation completed.
    pub fn latency_histogram(&self, kind: &str, shard: u32) -> Option<&LatencyHistogram> {
        self.latency.get(&(
            match kind {
                "put" => "put",
                "get" => "get",
                _ => return None,
            },
            shard,
        ))
    }

    /// All per-(kind, shard) latency summaries, sorted by kind then shard.
    pub fn latency_summaries(&self) -> Vec<(&'static str, u32, LatencySummary)> {
        self.latency
            .iter()
            .filter_map(|(&(kind, shard), h)| h.summary().map(|s| (kind, shard, s)))
            .collect()
    }

    /// The latency population of `kind` merged across every shard (empty
    /// histogram if no such operation completed).
    pub fn merged_latency(&self, kind: &str) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for ((k, _), h) in &self.latency {
            if *k == kind {
                merged.merge(h);
            }
        }
        merged
    }

    /// The online atomicity monitor, if the store was built with
    /// [`StoreBuilder::monitor`](crate::StoreBuilder::monitor).
    /// Completions reach the monitor when they are recorded — drain the
    /// backend before reading verdicts.
    pub fn monitor(&self) -> Option<&ConsistencyMonitor<Option<V>>> {
        self.monitor.as_ref()
    }

    /// The atomicity violations flagged so far (empty when the monitor
    /// is off or the run is clean). Each names the violating operation,
    /// its time, and the culprit op set.
    pub fn monitor_violations(&self) -> &[Violation] {
        self.monitor.as_ref().map_or(&[], |m| m.violations())
    }

    /// `(pid, role)` names for every process in the deployment —
    /// `client-N` in client order, then `server-N` in fleet order. Used
    /// to label Chrome trace exports (pass to
    /// [`Tracer::to_chrome_trace_named`](sbs_sim::Tracer)).
    pub fn role_names(&self) -> Vec<(u32, String)> {
        self.clients
            .iter()
            .enumerate()
            .map(|(i, c)| (c.0, format!("client-{i}")))
            .chain(
                self.servers
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.0, format!("server-{i}"))),
            )
            .collect()
    }

    /// Per-shard completed-op tallies, ascending shard id.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        let blank = |shard| ShardHealth {
            shard,
            puts: 0,
            gets: 0,
        };
        let mut shards: BTreeMap<u32, ShardHealth> = (0..self.config.shards)
            .map(|shard| (shard, blank(shard)))
            .collect();
        for ((kind, shard), h) in &self.latency {
            let entry = shards.entry(*shard).or_insert(blank(*shard));
            match *kind {
                "put" => entry.puts += h.count(),
                _ => entry.gets += h.count(),
            }
        }
        shards.into_values().collect()
    }

    /// **Load-driven rebalancing**: turns the hot-shard signal of
    /// [`DeployCore::shard_health`] into a [`ReshardPlan`] that dedicates
    /// a writer to the hottest shard — every *other* shard co-resident on
    /// that writer migrates to the least-loaded writer. Returns `None`
    /// when no shard is hot, the hot shard already has a dedicated
    /// writer, or there is no other writer to take the load. The caller
    /// decides when to begin the proposed reshard.
    pub fn propose_rebalance(&self) -> Option<ReshardPlan> {
        let &hot = hot_shards(&self.shard_health()).first()?;
        let owner = self.table.writer_of_shard(hot);
        let siblings: Vec<u32> = self
            .table
            .shards_of_writer(owner)
            .into_iter()
            .filter(|&s| s != hot)
            .collect();
        if siblings.is_empty() {
            return None;
        }
        let mut load = vec![0u64; self.table.writers() as usize];
        for ((_, shard), h) in &self.latency {
            load[self.table.writer_of_shard(*shard)] += h.count();
        }
        let (target, _) = load
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != owner)
            .min_by_key(|&(_, &l)| l)?;
        let mut plan = ReshardPlan::default();
        for s in siblings {
            plan = plan.and_migrate(s, target as u32);
        }
        Some(plan)
    }

    /// Dumps the flight recorder: the causal slice of `trace` leading to
    /// the suspect operations — the monitor's violating ops when
    /// violations exist, otherwise every still-pending (possibly
    /// timed-out) operation. With an empty `trace` (a backend without a
    /// tracer, or tracing off) the dump carries the seeds, violations and
    /// role names alone.
    pub fn flight_recorder(&self, trace: &[TraceRecord]) -> FlightRecord {
        let violations = self.monitor_violations().to_vec();
        let seed_ops: Vec<u64> = if violations.is_empty() {
            let mut pending: Vec<u64> = self.log.invoked.keys().map(|op| op.0).collect();
            pending.sort_unstable();
            pending
        } else {
            let mut ops: Vec<u64> = violations
                .iter()
                .flat_map(|v| v.culprits.iter().copied().chain([v.op]))
                .collect();
            ops.sort_unstable();
            ops.dedup();
            ops
        };
        FlightRecord {
            records: causal_slice(trace, &seed_ops),
            seed_ops,
            violations,
            names: self.role_names(),
        }
    }

    /// Operations invoked but not yet completed.
    pub fn pending_ops(&self) -> usize {
        self.log.invoked.len()
    }

    /// Completed operations so far.
    pub fn completed_ops(&self) -> usize {
        self.log.completed.len()
    }

    /// Every completed operation's id, in completion order (ties broken
    /// by emission order — which is what the batching guarantees pin).
    pub fn completion_order(&self) -> Vec<OpId> {
        self.log.completed.iter().map(|r| r.record.op).collect()
    }

    /// Every key touched by a completed operation.
    pub fn keys_touched(&self) -> BTreeSet<String> {
        self.log.completed.iter().map(|r| r.key.clone()).collect()
    }

    /// The extracted history of one key: its puts as writes, its gets as
    /// reads (`None` = key absent). Judged independently per key — the
    /// store's correctness claim is per-key regularity/atomicity.
    pub fn history_for_key(&self, key: &str) -> History<Option<V>> {
        History::new(
            self.log
                .completed
                .iter()
                .filter(|r| r.key == key)
                .map(|r| r.record.clone())
                .collect(),
        )
    }

    /// Every touched key's history, keyed — the input shape of
    /// `sbs_check::equivalent_write_histories`.
    pub fn histories(&self) -> BTreeMap<String, History<Option<V>>> {
        self.keys_touched()
            .into_iter()
            .map(|k| {
                let h = self.history_for_key(&k);
                (k, h)
            })
            .collect()
    }

    /// Checks every touched key's history for register linearizability
    /// (initial state: absent). Returns the offending key and diagnosis on
    /// failure.
    ///
    /// Open-loop runs queue operations at the clients, so a backlogged
    /// client's operations overlap; they are judged all the same, however
    /// many operations a burst puts in flight on one hot key.
    pub fn check_per_key_atomicity(&self) -> Result<usize, String> {
        let mut checked = 0;
        for key in self.keys_touched() {
            let h = self.history_for_key(&key);
            h.validate_unique_writes()
                .map_err(|e| format!("key {key}: {e}"))?;
            let initial = InitialState::OneOf(std::iter::once(None).collect());
            let rep = check_linearizable(&h, &initial).map_err(|e| format!("key {key}: {e}"))?;
            if !rep.linearizable {
                return Err(format!(
                    "key {key}: history not linearizable (failed segment {:?}) — {h:?}",
                    rep.failed_segment
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }
}
