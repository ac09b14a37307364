//! One-call construction of a complete store deployment: the
//! [`StoreBuilder`], the fleet it assembles (installed in the simulator
//! or runtime-detached for a thread/socket runtime), and
//! [`StoreSystem`] — the simulator shell around the
//! backend-independent [`DeployCore`], adding virtual-time driving and
//! the simulator-only fault hooks.

use crate::deploy::{ByzServer, ClientCall, CorrectServer, DeployCore, DeployHost};
use crate::health::{hot_shards, FlightRecord, ReplicaHealth, StoreHealth};
use crate::msg::{StoreMsg, StoreOut};
use crate::node::{DataPlane, StoreClientNode, StorePayload, StoreServerNode, StoreWire};
use crate::router::{KeyRouter, ReshardPlan};
use crate::val::StoreVal;
use sbs_bulk::{data_replica_count, BulkCodec, BulkRef, FragmentStore};
use sbs_check::atomic_stabilization_point;
use sbs_core::{
    ByzServerNode, ByzStrategy, Payload, RegId, RegMsg, RegisterConfig, SeqVal, ServerNode,
    SyncMode,
};
use sbs_sim::{
    DelayModel, DetRng, Node, OpId, ProcessId, SimConfig, SimDuration, SimTime, Simulation,
};
use sbs_stamps::{RingSeq, PAPER_MODULUS};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;

/// How long [`StoreSystem::settle`] simulates before declaring the store
/// non-quiescent.
const SETTLE_HORIZON: SimDuration = SimDuration::secs(600);

/// The communication assumption a store is built for, as carried by the
/// builder: the synchronous variant keeps the *link bound* it was declared
/// with (the per-round timeout is derived from it at build time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BuilderMode {
    /// Figure 2/3: unbounded delays, `n ≥ 8t + 1`.
    Async,
    /// Figure 5 / Appendix A: delays bounded by `link_bound`, `n ≥ 3t + 1`.
    Sync { link_bound: SimDuration },
}

/// A frozen snapshot of everything one deployment was built with: the
/// communication mode (with its derived timeout), the data plane, the
/// sharding shape, and the per-mode quorum sizes the embedded register
/// engines will use. Obtained from [`StoreBuilder::config`] before
/// building, or [`DeployCore::config`] on a running deployment.
///
/// The quorum fields are *derived* values (they follow from `n`, `t` and
/// `mode` per the Figure 2/5 table in `sbs_core::RegisterConfig`), frozen
/// here so tests can pin them and operators can read them off a deployment
/// without re-deriving the paper's arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of servers in the shared fleet.
    pub n: usize,
    /// Byzantine servers tolerated.
    pub t: usize,
    /// Communication assumption (the synchronous variant carries the
    /// derived per-round timeout).
    pub mode: SyncMode,
    /// Where shard payload bytes travel.
    pub plane: DataPlane,
    /// Register shards the keyspace is hashed onto.
    pub shards: u32,
    /// Writer clients the shards are partitioned over.
    pub writers: usize,
    /// Additional read-only clients.
    pub extra_readers: usize,
    /// Acknowledgements a client round waits for (`n − t` async; all `n`
    /// — or the timeout — sync).
    pub ack_quorum: usize,
    /// Identical `last_val` copies a read needs (`2t + 1` / `t + 1`).
    pub last_quorum: usize,
    /// Identical helping copies a read needs (`2t + 1` / `t + 1`).
    pub help_quorum: usize,
    /// Identical helping copies letting the writer skip `NEW_HELP_VAL`
    /// (`4t + 1` / `t + 1`).
    pub writer_help_quorum: usize,
}

impl StoreConfig {
    /// True in synchronous mode.
    pub fn is_sync(&self) -> bool {
        matches!(self.mode, SyncMode::Sync { .. })
    }

    /// The derived per-round timeout, if operating synchronously.
    pub fn timeout(&self) -> Option<SimDuration> {
        match self.mode {
            SyncMode::Async => None,
            SyncMode::Sync { timeout } => Some(timeout),
        }
    }
}

/// Builder for a [`StoreSystem`].
///
/// Entry points carry the communication mode and derive the minimal fleet
/// for it — [`StoreBuilder::asynchronous`] (`n = 8t + 1`) and
/// [`StoreBuilder::synchronous`] (`n = 3t + 1`) — with [`StoreBuilder::n`]
/// to deploy more servers than the minimum. Cross-knob consistency is
/// validated when the deployment is built (or when
/// [`StoreBuilder::config`] snapshots it): the resilience bound for the
/// mode, a synchronous link bound that dominates the delay model, bulk
/// replication that fits the fleet, and well-formed Byzantine slots.
///
/// Every client launches an op as soon as it is idle and coalesces the
/// ops that queued meanwhile (see [`StoreClientNode`]). The
/// sequence-number ring is [`PAPER_MODULUS`] and the asynchronous
/// retransmission period is the [`RegisterConfig`] default.
#[derive(Clone, Debug)]
pub struct StoreBuilder {
    n: usize,
    t: usize,
    mode: BuilderMode,
    seed: u64,
    shards: u32,
    writers: usize,
    extra_readers: usize,
    delay: DelayModel,
    byz: Vec<(usize, ByzStrategy)>,
    plane: DataPlane,
    anti_entropy: Option<SimDuration>,
    trace: usize,
    monitor: bool,
}

impl StoreBuilder {
    fn with_mode(n: usize, t: usize, mode: BuilderMode, delay: DelayModel) -> Self {
        StoreBuilder {
            n,
            t,
            mode,
            seed: 1,
            shards: 1,
            writers: 1,
            extra_readers: 0,
            delay,
            byz: Vec::new(),
            plane: DataPlane::Full,
            anti_entropy: None,
            trace: 0,
            monitor: false,
        }
    }

    /// An **asynchronous** store (Figure 2/3 registers: unbounded link
    /// delays, rounds wait for `n − t` acknowledgements) tolerating `t`
    /// Byzantine servers on the minimal fleet `n = 8t + 1`, with one shard
    /// and one writer by default. Use [`StoreBuilder::n`] to deploy more
    /// servers than the minimum.
    pub fn asynchronous(t: usize) -> Self {
        Self::with_mode(
            8 * t + 1,
            t,
            BuilderMode::Async,
            DelayModel::Uniform {
                lo: SimDuration::micros(50),
                hi: SimDuration::millis(2),
            },
        )
    }

    /// A **synchronous** store (Figure 5 / Appendix A registers: link
    /// delays bounded by `link_bound`, rounds wait for all `n`
    /// acknowledgements or the timeout derived from the bound) tolerating
    /// `t` Byzantine servers on the minimal fleet `n = 3t + 1` — fewer
    /// than half the asynchronous fleet for the same `t`, paying with
    /// timeout-bound latency whenever a server is silent.
    ///
    /// The default delay model is uniform in `[link_bound / 10,
    /// link_bound]`; overriding it with [`StoreBuilder::delay`] is
    /// validated at build time — the model's upper bound must stay within
    /// `link_bound`, otherwise the mode's "wait for all `n` or time out"
    /// rule would wrongly suspect correct-but-slow servers.
    pub fn synchronous(t: usize, link_bound: SimDuration) -> Self {
        Self::with_mode(
            3 * t + 1,
            t,
            BuilderMode::Sync { link_bound },
            DelayModel::Uniform {
                lo: SimDuration::nanos(link_bound.as_nanos() / 10),
                hi: link_bound,
            },
        )
    }

    /// Deploys `n` servers instead of the mode's minimal fleet. The
    /// mode's resilience bound (`n ≥ 8t + 1` asynchronous, `n ≥ 3t + 1`
    /// synchronous) is still enforced at build time.
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Switches the payload to the bulk data plane with **whole copies**
    /// — [`StoreBuilder::bulk_coded`]`(1)`: each of the shard's data
    /// replicas (the canonical `2t + 1`, the Cachin–Dobre–Vukolić bound)
    /// holds the whole value, pushes wait for `t + 1` acknowledgements,
    /// and any one verified reply resolves a read. The default remains
    /// [`DataPlane::Full`] — full replication, the paper's original
    /// scheme.
    pub fn bulk(self) -> Self {
        self.bulk_coded(1)
    }

    /// Sets the bulk-plane replication factor — the window of data
    /// replicas (= fragments) per shard — switching to whole copies
    /// (`k = 1`) unless a reconstruction threshold was already selected:
    /// `.data_replicas(m).bulk_coded(k)` and
    /// `.bulk_coded(k).data_replicas(m)` configure the same deployment,
    /// so the documented AVID overprovisioning recipe cannot silently
    /// lose its coding by call order. The window is validated at build
    /// time (`1 ≤ replicas ≤ n` and `k + t ≤ replicas`), against the
    /// fleet size the builder ends up with.
    pub fn data_replicas(mut self, replicas: usize) -> Self {
        let k = match self.plane {
            DataPlane::Coded { k, .. } => k,
            DataPlane::Full => 1,
        };
        self.plane = DataPlane::Coded { replicas, k };
        self
    }

    /// Switches the payload to the **bulk data plane** (AVID-style
    /// dispersal) with reconstruction threshold `k`: a replica window of
    /// `2t + 1` by default, or whatever an earlier
    /// [`StoreBuilder::data_replicas`] selected, where each replica
    /// stores only **one `k`-of-`m` fragment** (~`1/k` of the payload),
    /// verified against a Merkle commitment whose root rides the metadata
    /// quorum. Pushes wait for `k + t` verified acknowledgements; reads
    /// reconstruct from any `k` verified fragments. `k = 1` is whole-copy
    /// replication ([`StoreBuilder::bulk`]).
    ///
    /// Cross-knob consistency (`k ≥ 1`, `k + t ≤ replicas` — reads must
    /// stay live with `t` Byzantine replicas garbling their fragments)
    /// is validated at build time.
    ///
    /// Write-liveness note: on the minimal `2t + 1` window with `k > 1`
    /// the `k + t` push quorum needs acks from every replica, so a
    /// **fail-silent** data replica would stall puts (the in-repo
    /// adversaries ack honestly and lie only when serving, so
    /// simulations stay live). Deployments that must tolerate silent
    /// data replicas should overprovision:
    /// `.data_replicas(3 * t + 1).bulk_coded(t + 1)` restores write
    /// liveness from honest acks alone (the classical AVID shape).
    pub fn bulk_coded(mut self, k: usize) -> Self {
        let replicas = match self.plane {
            DataPlane::Coded { replicas, .. } => replicas,
            DataPlane::Full => data_replica_count(self.t),
        };
        self.plane = DataPlane::Coded { replicas, k };
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of register shards the keyspace is hashed onto.
    pub fn shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1);
        self.shards = shards;
        self
    }

    /// Number of writer clients the shards are partitioned over
    /// (round-robin; each shard keeps a single writer — the SWMR rule).
    pub fn writers(mut self, writers: usize) -> Self {
        assert!(writers >= 1);
        self.writers = writers;
        self
    }

    /// Additional read-only clients.
    pub fn extra_readers(mut self, readers: usize) -> Self {
        self.extra_readers = readers;
        self
    }

    /// Overrides the link delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Makes server `index` Byzantine with the given strategy. Validated
    /// at build time: the index must name a server (`index < n`), no
    /// server may be assigned twice, and at most `t` servers may be
    /// Byzantine (the resilience claim is meaningless beyond `t`).
    pub fn byzantine(mut self, index: usize, strategy: ByzStrategy) -> Self {
        self.byz.push((index, strategy));
        self
    }

    /// Enables the **self-healing data plane** with anti-entropy period
    /// `period`: every data replica then (a) pulls missing or corrupt
    /// entries from its window peers the moment a serve detects them
    /// (proactive repair — no writer involvement), (b) re-checks the
    /// digest / Merkle path of everything it serves, and (c) gossips a
    /// bounded rotating digest summary to one peer per period, pulling
    /// whatever it should hold but does not — so a replica whose data
    /// stores were wiped mid-run converges back to the committed state.
    /// Server↔server links are installed only when this is set.
    ///
    /// **Off by default**, and deliberately so: with it off no extra
    /// timers, messages, links, or RNG draws exist, keeping every
    /// pre-existing run bit-identical.
    ///
    /// # Panics
    ///
    /// Panics on a zero period at build time (the gossip timer could
    /// never advance).
    pub fn anti_entropy(mut self, period: SimDuration) -> Self {
        self.anti_entropy = Some(period);
        self
    }

    /// Enables the protocol trace: the simulation keeps the most recent
    /// `capacity` structured events (op lifecycle, phase transitions,
    /// quorum acks, retransmissions, fault injections, guard refusals),
    /// readable through [`StoreSystem::tracer`](StoreSystem) and
    /// exportable as JSONL or Chrome trace-event JSON. Zero (the default)
    /// leaves tracing off — the hot path then pays a single branch and
    /// allocates nothing, and every message/byte count is bit-identical
    /// to an untraced run.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace = capacity;
        self
    }

    /// Enables the online atomicity monitor: every `put`/`get` is fed to
    /// an incremental per-key WGL-style checker as it is invoked and
    /// completed, so a non-atomic response is flagged **at event time**
    /// (with the violating op, its sim-time, and the culprit op set —
    /// see [`DeployCore::monitor_violations`]) instead of
    /// by a post-hoc history check. Off by default; monitoring is
    /// harness-side only and never perturbs the simulation schedule.
    pub fn monitor(mut self) -> Self {
        self.monitor = true;
        self
    }

    /// Validates cross-knob consistency and derives the register
    /// configuration the embedded engines will run with.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency: the mode's resilience bound
    /// (`n ≥ 8t + 1` / `n ≥ 3t + 1`), a synchronous link bound that the
    /// delay model exceeds (or an unbounded delay model in synchronous
    /// mode), a bulk replication factor outside `1..=n`, a Byzantine index
    /// `≥ n`, a duplicated Byzantine index, or more than `t` Byzantine
    /// slots.
    fn register_config(&self) -> RegisterConfig {
        let cfg = match self.mode {
            BuilderMode::Async => RegisterConfig::asynchronous(self.n, self.t),
            BuilderMode::Sync { link_bound } => {
                let hi = self.delay.upper_bound().unwrap_or_else(|| {
                    panic!(
                        "synchronous mode requires a bounded delay model, got {:?}",
                        self.delay
                    )
                });
                assert!(
                    hi <= link_bound,
                    "synchronous link bound {link_bound} must dominate the delay model's \
                     upper bound {hi} — a slower link would make correct servers look faulty"
                );
                RegisterConfig::synchronous(self.n, self.t, link_bound)
            }
        };
        if let DataPlane::Coded { replicas, k } = self.plane {
            assert!(
                (1..=self.n).contains(&replicas),
                "bulk replication factor {replicas} out of range for n={}",
                self.n
            );
            assert!(k >= 1, "the bulk plane needs at least one fragment to read");
            assert!(
                k + self.t <= replicas,
                "coded reconstruction threshold k={k} too high: k + t must fit within the \
                 {replicas}-replica window, or t={} Byzantine replicas garbling their \
                 fragments could starve every read",
                self.t
            );
            // Fragment indices are GF(2⁸) field points: the Reed–Solomon
            // code caps a dispersal at 256 fragments. Catch an oversized
            // window here, at build time, instead of panicking inside the
            // encoder on the first publish.
            assert!(
                replicas <= 256,
                "coded window of {replicas} replicas exceeds 256: fragment indices are \
                 GF(2⁸) field points, so a dispersal cannot span more fragments"
            );
        }
        assert!(
            self.anti_entropy != Some(SimDuration::ZERO),
            "anti-entropy period must be positive — a zero period could never advance the \
             gossip timer"
        );
        let mut seen = BTreeSet::new();
        for &(i, _) in &self.byz {
            assert!(
                i < self.n,
                "byzantine index {i} out of range: the fleet has servers 0..{}",
                self.n
            );
            assert!(
                seen.insert(i),
                "byzantine index {i} assigned twice — each server takes one strategy"
            );
        }
        assert!(
            self.byz.len() <= self.t,
            "{} byzantine servers exceed the tolerated t={}",
            self.byz.len(),
            self.t
        );
        cfg
    }

    /// Validates the builder and snapshots the [`StoreConfig`] a
    /// deployment built from it would run with — mode, derived timeout,
    /// plane, sharding shape, and the per-mode quorum sizes.
    ///
    /// # Panics
    ///
    /// Panics on any cross-knob inconsistency (see the builder docs).
    pub fn config(&self) -> StoreConfig {
        self.snapshot(self.register_config())
    }

    /// The [`StoreConfig`] for an already-validated register config
    /// (keeps `build` from running the validation twice).
    fn snapshot(&self, cfg: RegisterConfig) -> StoreConfig {
        StoreConfig {
            n: self.n,
            t: self.t,
            mode: cfg.mode,
            plane: self.plane,
            shards: self.shards,
            writers: self.writers,
            extra_readers: self.extra_readers,
            ack_quorum: cfg.ack_quorum(),
            last_quorum: cfg.last_quorum(),
            help_quorum: cfg.help_quorum(),
            writer_help_quorum: cfg.writer_help_quorum(),
        }
    }

    /// The value every register starts from.
    fn initial_payload<V: Payload + BulkCodec>(&self) -> StorePayload<V> {
        SeqVal::new(RingSeq::zero(PAPER_MODULUS), StoreVal::empty())
    }

    /// The server node of fleet slot `slot` around the register server
    /// `inner` — the one place the deployment-derived server settings
    /// are applied, for both backends and both slot kinds (`byzantine`
    /// slots are Byzantine at *both* planes: `inner`'s register strategy
    /// plus garbled bulk serving).
    fn server_node<V: Payload + BulkCodec, S>(
        &self,
        slot: usize,
        inner: S,
        byzantine: bool,
        servers: &[ProcessId],
    ) -> StoreServerNode<StorePayload<V>, S> {
        // The admission guard every server gets: its fleet slot, the
        // fleet, the deployment's shard count, and the plane's window
        // shape — so wire-supplied senders, shard tags, fragment totals,
        // and fragment indices are checked against the deployment instead
        // of trusted.
        let (replicas, heal_k) = match self.plane {
            DataPlane::Full => (0, 1),
            DataPlane::Coded { replicas, k } => (replicas, k),
        };
        let mut node =
            StoreServerNode::new(inner).bulk_guard(slot, servers.to_vec(), self.shards, replicas);
        if byzantine {
            node = node.byzantine_bulk();
        }
        if let Some(period) = self.anti_entropy {
            node = node.self_healing(heal_k, period);
        }
        node
    }

    /// Client `i` of the fleet: a shard owner below `writers`, read-only
    /// above.
    fn client_node<V: Payload + BulkCodec>(
        &self,
        cfg: RegisterConfig,
        router: KeyRouter,
        i: usize,
        servers: &[ProcessId],
        clients: &[ProcessId],
    ) -> StoreClientNode<V> {
        let owned = if i < self.writers {
            router.shards_of_writer(i)
        } else {
            Vec::new()
        };
        StoreClientNode::new(
            cfg,
            router,
            servers.to_vec(),
            clients.to_vec(),
            &owned,
            PAPER_MODULUS,
            self.plane,
        )
    }

    /// Builds the deployment: `n` servers, `writers + extra_readers`
    /// clients, every client↔server link installed, Byzantine slots
    /// filled, and the garbage generator armed for link-corruption
    /// drills.
    ///
    /// # Panics
    ///
    /// Panics on any cross-knob inconsistency (see
    /// [`StoreBuilder::config`]).
    pub fn build<V: Payload + BulkCodec>(&self) -> StoreSystem<V> {
        let cfg = self.register_config();
        let snapshot = self.snapshot(cfg);
        let router = KeyRouter::new(self.shards, self.writers as u32);
        let mut sim: Simulation<StoreWire<V>, StoreOut<V>> =
            Simulation::new(SimConfig::with_seed(self.seed));
        if self.trace > 0 {
            sim.enable_tracing(self.trace);
        }
        let clients: Vec<ProcessId> = (0..self.writers + self.extra_readers)
            .map(|_| sim.reserve_id())
            .collect();
        let servers: Vec<ProcessId> = (0..self.n).map(|_| sim.reserve_id()).collect();
        for &s in &servers {
            for &c in &clients {
                sim.add_duplex(c, s, self.delay.clone());
            }
        }
        // Server↔server links exist only for the self-healing repair
        // plane: without anti-entropy no server ever addresses a peer,
        // and not installing the links keeps the link table (and the
        // delay-model RNG consumption) bit-identical to older builds.
        if self.anti_entropy.is_some() {
            for (i, &a) in servers.iter().enumerate() {
                for &b in &servers[i + 1..] {
                    sim.add_duplex(a, b, self.delay.clone());
                }
            }
        }
        let initial = self.initial_payload::<V>();
        let mut byz_set = BTreeSet::new();
        for (i, &s) in servers.iter().enumerate() {
            match self.byz.iter().find(|(bi, _)| *bi == i) {
                Some((_, strat)) => {
                    byz_set.insert(i);
                    let inner = ByzServerNode::new(strat.clone(), initial.clone());
                    sim.add_node_at(s, self.server_node::<V, _>(i, inner, true, &servers))
                }
                None => {
                    let inner = ServerNode::new(initial.clone());
                    sim.add_node_at(s, self.server_node::<V, _>(i, inner, false, &servers))
                }
            }
        }
        for (i, &c) in clients.iter().enumerate() {
            sim.add_node_at(c, self.client_node::<V>(cfg, router, i, &servers, &clients));
        }
        install_garbage_gen(&mut sim, initial, self.shards);
        StoreSystem {
            sim,
            core: DeployCore::new(clients, servers, router, snapshot, byz_set, self.monitor),
        }
    }

    /// Builds the same fleet as [`StoreBuilder::build`] — same node types,
    /// same process-id assignment (clients `0..writers+extra_readers`,
    /// then servers), same Byzantine slots — but **runtime-detached**:
    /// instead of installing the nodes into the simulator it returns them
    /// as boxed [`Node`]s for a thread or socket runtime
    /// (`ThreadRuntime::spawn`, `sbs-net`) to host. The simulator-only
    /// fault hooks (link garbage, scheduled corruption) do not apply.
    ///
    /// # Panics
    ///
    /// Panics on any cross-knob inconsistency (see
    /// [`StoreBuilder::config`]).
    pub fn build_nodes<V: Payload + BulkCodec + Send + Sync>(&self) -> StoreNodeSet<V> {
        let cfg = self.register_config();
        let snapshot = self.snapshot(cfg);
        let router = KeyRouter::new(self.shards, self.writers as u32);
        let clients: Vec<ProcessId> = (0..self.writers + self.extra_readers)
            .map(|i| ProcessId(i as u32))
            .collect();
        let base = clients.len() as u32;
        let servers: Vec<ProcessId> = (0..self.n).map(|i| ProcessId(base + i as u32)).collect();
        let initial = self.initial_payload::<V>();
        let mut nodes: Vec<Box<dyn Node<Msg = StoreWire<V>, Out = StoreOut<V>> + Send>> =
            Vec::with_capacity(clients.len() + servers.len());
        for i in 0..clients.len() {
            nodes.push(Box::new(
                self.client_node::<V>(cfg, router, i, &servers, &clients),
            ));
        }
        let mut byz_servers = BTreeSet::new();
        for i in 0..self.n {
            nodes.push(match self.byz.iter().find(|(bi, _)| *bi == i) {
                Some((_, strat)) => {
                    byz_servers.insert(i);
                    let inner = ByzServerNode::new(strat.clone(), initial.clone());
                    Box::new(self.server_node::<V, _>(i, inner, true, &servers))
                }
                None => {
                    let inner = ServerNode::new(initial.clone());
                    Box::new(self.server_node::<V, _>(i, inner, false, &servers))
                }
            });
        }
        StoreNodeSet {
            nodes,
            clients,
            servers,
            router,
            config: snapshot,
            byz_servers,
            wsn_modulus: PAPER_MODULUS,
            seed: self.seed,
            monitor: self.monitor,
        }
    }
}

/// A runtime-detached fleet from [`StoreBuilder::build_nodes`]: the boxed
/// node state machines plus the deployment facts a hosting runtime needs
/// (id layout, routing, config, seed). `nodes[i]` is the node addressed
/// as `ProcessId(i)` — clients first, then servers, matching the
/// simulator's id assignment so differential runs line up.
pub struct StoreNodeSet<V: Payload> {
    /// The node state machines, indexed by process id.
    pub nodes: Vec<Box<dyn Node<Msg = StoreWire<V>, Out = StoreOut<V>> + Send>>,
    /// Client process ids (`writers` first, then extra readers).
    pub clients: Vec<ProcessId>,
    /// Server process ids.
    pub servers: Vec<ProcessId>,
    /// The key→shard→writer routing table.
    pub router: KeyRouter,
    /// The frozen deployment snapshot.
    pub config: StoreConfig,
    /// The fleet slots (indices into `servers`) that host a Byzantine
    /// server — a different concrete node type than a correct slot.
    pub byz_servers: BTreeSet<usize>,
    /// The write-sequence-number ring modulus (a codec needs it to
    /// validate decoded sequence numbers).
    pub wsn_modulus: u128,
    /// The builder's seed, for the hosting runtime's per-node RNG streams.
    pub seed: u64,
    /// Whether the builder asked for an online consistency monitor.
    pub monitor: bool,
}

impl<V: Payload> std::fmt::Debug for StoreNodeSet<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreNodeSet")
            .field("clients", &self.clients.len())
            .field("servers", &self.servers.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// The key slot a forged push claims (or the fragment index a forged
/// reply does): taken from the forged reference's (already drawn) length,
/// so the generator's RNG draws stay what they were before pushes carried
/// slots — a few in range, most far outside the slot space the guard
/// admits.
fn garbage_slot(fake: &BulkRef) -> u32 {
    fake.len as u32
}

/// Arms the garbage generator: arbitrary initial link contents are batches
/// of fabricated protocol messages over random shards — or fabricated
/// bulk-plane transfers, whose forged fragments the servers' guards and
/// verified stores and the client-side commitment check must reject.
fn install_garbage_gen<V: Payload + BulkCodec>(
    sim: &mut Simulation<StoreWire<V>, StoreOut<V>>,
    template: StorePayload<V>,
    shards: u32,
) {
    sim.set_garbage_gen(move |rng: &mut DetRng, _from, _to| {
        let mut val = template.clone();
        val.scramble(rng);
        let shard = (rng.next_u64() % shards as u64) as u32;
        let reg = RegId(shard);
        let msg = match rng.next_u64() % 9 {
            0 => RegMsg::Write {
                reg,
                tag: rng.next_u64(),
                val,
            },
            1 => RegMsg::Read {
                reg,
                tag: rng.next_u64(),
                new_read: rng.chance(0.5),
            },
            2 => RegMsg::SsAck {
                tag: rng.next_u64(),
            },
            3 => RegMsg::AckWrite {
                reg,
                helping: vec![(ProcessId(0), Some(val))],
            },
            4 => RegMsg::AckRead {
                reg,
                last: val,
                helping: None,
            },
            5 => {
                // Forged push of a shapeless dispersal (`total = 0`, no
                // proof): every guard refuses it on its shape, and an
                // unguarded store's commitment replay verifies nothing
                // against zero leaves.
                let mut fake = BulkRef::to_bytes(b"");
                Payload::scramble(&mut fake, rng);
                return StoreMsg::FragPut {
                    shard,
                    slot: garbage_slot(&fake),
                    root: fake.digest,
                    index: 0,
                    total: 0,
                    bytes: (0..(rng.next_u64() % 32))
                        .map(|_| rng.next_u64() as u8)
                        .collect::<Vec<u8>>()
                        .into(),
                    proof: Vec::new(),
                };
            }
            6 => {
                // Forged fetch reply with garbage bytes and tag and no
                // proof, its index taken from the forged reference like a
                // forged push's slot.
                let mut fake = BulkRef::to_bytes(b"");
                Payload::scramble(&mut fake, rng);
                return StoreMsg::FragGetAck {
                    shard,
                    root: fake.digest,
                    tag: rng.next_u64(),
                    frag: rng.chance(0.5).then(|| {
                        let bytes = (0..(rng.next_u64() % 32))
                            .map(|_| rng.next_u64() as u8)
                            .collect::<Vec<u8>>()
                            .into();
                        (garbage_slot(&fake), bytes, Vec::new())
                    }),
                };
            }
            7 => {
                // Forged fragment push: a Merkle path of random digests
                // that (almost surely) does not authenticate the bytes —
                // the replica-side commitment replay must refuse it.
                let mut fake = BulkRef::to_bytes(b"");
                Payload::scramble(&mut fake, rng);
                let mut sib = BulkRef::to_bytes(b"");
                Payload::scramble(&mut sib, rng);
                return StoreMsg::FragPut {
                    shard,
                    slot: garbage_slot(&fake),
                    root: fake.digest,
                    index: (rng.next_u64() % 4) as u32,
                    total: 3,
                    bytes: (0..(rng.next_u64() % 32))
                        .map(|_| rng.next_u64() as u8)
                        .collect::<Vec<u8>>()
                        .into(),
                    proof: vec![sib.digest],
                };
            }
            _ => {
                // Forged fragment reply: garbage index, bytes, and proof
                // under a random root and tag — the client-side
                // verification must count it bad (or ignore its stale
                // tag), never feed it to reconstruction.
                let mut fake = BulkRef::to_bytes(b"");
                Payload::scramble(&mut fake, rng);
                let mut sib = BulkRef::to_bytes(b"");
                Payload::scramble(&mut sib, rng);
                return StoreMsg::FragGetAck {
                    shard,
                    root: fake.digest,
                    tag: rng.next_u64(),
                    frag: rng.chance(0.7).then(|| {
                        (
                            (rng.next_u64() % 4) as u32,
                            (0..(rng.next_u64() % 32))
                                .map(|_| rng.next_u64() as u8)
                                .collect::<Vec<u8>>()
                                .into(),
                            vec![sib.digest],
                        )
                    }),
                };
            }
        };
        StoreMsg::Batch(vec![msg])
    });
}

impl<V: Payload + BulkCodec> DeployHost<V> for Simulation<StoreWire<V>, StoreOut<V>> {
    fn now(&self) -> SimTime {
        Simulation::now(self)
    }

    fn call_client(&mut self, client: ProcessId, call: ClientCall<V>) {
        self.with_node::<StoreClientNode<V>, _>(client, |n, ctx| call.apply(n, ctx));
    }

    fn wipe_server(&mut self, server: ProcessId, byzantine: bool) {
        if byzantine {
            self.with_node::<ByzServer<V>, _>(server, |n, _| n.wipe_data_stores());
        } else {
            self.with_node::<CorrectServer<V>, _>(server, |n, _| n.wipe_data_stores());
        }
    }

    fn stamp_fault(&mut self, pid: ProcessId, what: &'static str) {
        self.record_fault(pid, what);
    }
}

/// A running store deployment inside the simulator: the [`DeployCore`]
/// (reached through `Deref` for everything read-only — histories,
/// verdicts, routing, latency books) hosted on a [`Simulation`].
#[derive(Debug)]
pub struct StoreSystem<V: Payload + BulkCodec> {
    /// The underlying simulation (exposed for custom scheduling).
    pub sim: Simulation<StoreWire<V>, StoreOut<V>>,
    pub(crate) core: DeployCore<V>,
}

impl<V: Payload + BulkCodec> Deref for StoreSystem<V> {
    type Target = DeployCore<V>;

    fn deref(&self) -> &DeployCore<V> {
        &self.core
    }
}

impl<V: Payload + BulkCodec> StoreSystem<V> {
    /// [`DeployCore::put`] on the simulator.
    pub fn put(&mut self, key: &str, val: V) -> OpId {
        self.core.put(&mut self.sim, key, val)
    }

    /// [`DeployCore::get`] on the simulator.
    pub fn get(&mut self, client_idx: usize, key: &str) -> OpId {
        self.core.get(&mut self.sim, client_idx, key)
    }

    /// Runs until the event queue drains (or 600 simulated seconds pass),
    /// then records completions.
    /// Returns `true` on quiescence.
    ///
    /// A reshard in flight re-arms the event queue from the harness side
    /// (draining control events is what releases the gated acquire
    /// step), so settling loops until the handoff completes too — a
    /// handoff that stops making progress reports non-quiescence rather
    /// than spinning.
    pub fn settle(&mut self) -> bool {
        let mut prev = None;
        loop {
            let quiet = self
                .sim
                .run_until_quiescent(self.sim.now() + SETTLE_HORIZON);
            self.drain();
            if !quiet {
                return false;
            }
            let Some(state) = self.core.reshard_progress() else {
                return true;
            };
            if prev == Some(state) {
                return false; // quiescent but the handoff is wedged
            }
            prev = Some(state);
        }
    }

    /// Runs for `d` of virtual time, then records completions. Returns the
    /// completions of this slice as `(client process, operation)` pairs —
    /// closed-loop drivers use them to refill clients.
    pub fn run_for(&mut self, d: SimDuration) -> Vec<(ProcessId, OpId)> {
        self.sim.run_for(d);
        self.drain()
    }

    /// Records completions emitted so far; returns `(client process,
    /// operation)` per completion, in completion order — the hook
    /// closed-loop workload drivers use to refill clients.
    pub fn drain(&mut self) -> Vec<(ProcessId, OpId)> {
        let mut done = Vec::new();
        for (at, pid, out) in self.sim.take_outputs() {
            done.extend(self.core.record(at, pid, out));
        }
        self.core.advance_reshard(&mut self.sim);
        done
    }

    /// [`DeployCore::begin_reshard`] on the simulator. Drive the
    /// simulation (`settle` / `run_for`) until
    /// [`DeployCore::reshard_active`] reports `false`; the fault stamp
    /// makes [`StoreSystem::stabilization_time`] measure how long the
    /// history takes to provably stabilize after the flip.
    pub fn begin_reshard(&mut self, plan: &ReshardPlan) {
        self.core.begin_reshard(&mut self.sim, plan);
    }

    /// The simulation's protocol tracer (disabled unless the store was
    /// built with [`StoreBuilder::trace`]).
    pub fn tracer(&self) -> &sbs_sim::Tracer {
        self.sim.tracer()
    }

    /// Assembles a point-in-time health snapshot: per-shard completed-op
    /// tallies (with the hot-shard detector), per-replica message
    /// traffic, slow-path counters, pending-op count, and per-plane byte
    /// totals. Cheap — reads existing counters, simulates nothing.
    pub fn health(&self) -> StoreHealth {
        let shards = self.core.shard_health();
        let m = self.sim.metrics();
        let replicas = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, &s)| ReplicaHealth {
                server: i,
                pid: s.0,
                msgs_in: self.clients.iter().map(|&c| m.sent_on_link(c, s)).sum(),
                msgs_out: self.clients.iter().map(|&c| m.sent_on_link(s, c)).sum(),
            })
            .collect();
        StoreHealth {
            hot_shards: hot_shards(&shards),
            shards,
            replicas,
            slow: m.slow_paths,
            pending_ops: self.pending_ops(),
            metadata_bytes_sent: m.metadata_bytes_sent,
            bulk_bytes_sent: m.bulk_bytes_sent,
        }
    }

    /// [`DeployCore::flight_recorder`] over the simulation's trace ring.
    /// Non-empty slices need the deployment built with
    /// [`StoreBuilder::trace`] — without tracing the dump carries the
    /// seeds and violations alone.
    pub fn flight_recorder(&self) -> FlightRecord {
        let records: Vec<sbs_sim::TraceRecord> = self.tracer().records().copied().collect();
        self.core.flight_recorder(&records)
    }

    /// Sim-time from the run's **last fault injection** (corruption, link
    /// garbage, or link wipe) to the point the completed history is
    /// provably clean again: the latest per-key atomic stabilization
    /// point over every touched key, minus the fault time (clamped at
    /// zero if the history stabilized before the fault landed).
    ///
    /// `None` when no fault was injected, when any touched key's history
    /// has no atomic suffix yet (not yet stabilized), or when a key's
    /// history is too tangled to judge. Drain completions (e.g. via
    /// [`StoreSystem::settle`]) before asking.
    pub fn stabilization_time(&self) -> Option<SimDuration> {
        let fault = self.sim.last_fault_at()?;
        let mut latest_point = SimTime::ZERO;
        for key in self.keys_touched() {
            let h = self.history_for_key(&key);
            let point = atomic_stabilization_point(&h).ok().flatten()?;
            latest_point = latest_point.max(point);
        }
        Some(SimDuration::nanos(
            latest_point.as_nanos().saturating_sub(fault.as_nanos()),
        ))
    }

    /// Applies a transient fault to server `i` *now*.
    pub fn corrupt_server(&mut self, i: usize) {
        let now = self.sim.now();
        let s = self.servers[i];
        self.sim.schedule_corruption(now, s);
    }

    /// [`DeployCore::wipe_server_data`] on the simulator; the fault
    /// stamp makes [`StoreSystem::stabilization_time`] measure recovery
    /// from the wipe.
    pub fn wipe_server_data(&mut self, i: usize) {
        self.core.wipe_server_data(&mut self.sim, i);
    }

    /// Applies a transient fault to client `i` *now* — including a shard
    /// owner, whose authoritative map is scrambled and then repaired by
    /// the writer-map recovery rule (re-read own register, republish)
    /// before its next put.
    pub fn corrupt_client(&mut self, i: usize) {
        let now = self.sim.now();
        let c = self.clients[i];
        self.sim.schedule_corruption(now, c);
    }

    /// Applies a transient fault to every server *now*.
    pub fn corrupt_all_servers(&mut self) {
        let now = self.sim.now();
        for &s in &self.core.servers {
            self.sim.schedule_corruption(now, s);
        }
    }

    /// Injects `count` garbage batches into every client⇄server link *now*.
    pub fn pollute_links(&mut self, count: usize) {
        self.pollute_links_at(self.sim.now(), count);
    }

    /// Schedules `count` garbage batches on every client⇄server link at
    /// absolute time `at` (fault plans schedule these upfront, exactly).
    pub fn pollute_links_at(&mut self, at: SimTime, count: usize) {
        for &s in &self.core.servers {
            for &c in &self.core.clients {
                self.sim.schedule_link_garbage(at, c, s, count);
                self.sim.schedule_link_garbage(at, s, c, count);
            }
        }
    }

    /// Writer-map recoveries (re-read + republish after transient
    /// corruption) completed by client `i`.
    pub fn client_recoveries(&mut self, i: usize) -> u64 {
        let pid = self.clients[i];
        self.sim
            .node_ref::<StoreClientNode<V>, _>(pid, |n| n.recoveries())
    }

    /// Runs `f` against server `i`'s fragment store (dispatching on the
    /// concrete wrapper type, which differs for Byzantine slots).
    fn with_server_bulk<R>(&mut self, i: usize, f: impl FnOnce(&FragmentStore) -> R) -> R {
        let pid = self.servers[i];
        if self.is_byzantine(i) {
            self.sim
                .node_ref::<ByzServer<V>, _>(pid, |n| f(n.frag_store()))
        } else {
            self.sim
                .node_ref::<CorrectServer<V>, _>(pid, |n| f(n.frag_store()))
        }
    }

    /// Which server indices hold bulk payload (fragments) for each shard
    /// — the placement the `2t + 1` windows promise. Empty under full
    /// replication.
    pub fn bulk_placement(&mut self) -> BTreeMap<u32, BTreeSet<usize>> {
        let mut placement: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
        for i in 0..self.servers.len() {
            for shard in self.with_server_bulk(i, FragmentStore::shards_held) {
                placement.entry(shard).or_default().insert(i);
            }
        }
        placement
    }

    /// Total bulk payload bytes stored on server `i` — the per-replica
    /// storage footprint `k > 1` cuts by ~`k`× over whole copies.
    pub fn bulk_bytes_stored(&mut self, i: usize) -> u64 {
        self.with_server_bulk(i, FragmentStore::bytes_stored)
    }

    /// Number of fragments held on server `i` (at most
    /// [`sbs_bulk::RETAINED_PER_KEY`] per key it stores).
    pub fn bulk_blob_count(&mut self, i: usize) -> usize {
        self.with_server_bulk(i, FragmentStore::fragment_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_key_put_get_round_trip() {
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1).seed(7).shards(4).build();
        sys.put("alpha", 11);
        assert!(sys.settle());
        sys.get(0, "alpha");
        sys.get(0, "beta");
        assert!(sys.settle());
        let h = sys.history_for_key("alpha");
        assert_eq!(h.len(), 2);
        let read = h.reads().next().unwrap();
        assert_eq!(read.kind.value(), &Some(11));
        // An unwritten key reads as absent.
        let hb = sys.history_for_key("beta");
        assert_eq!(hb.reads().next().unwrap().kind.value(), &None);
        assert_eq!(sys.check_per_key_atomicity().unwrap(), 2);
        assert_eq!(sys.pending_ops(), 0);
    }

    #[test]
    fn multi_writer_routing_honors_shard_ownership() {
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
            .seed(3)
            .shards(8)
            .writers(4)
            .extra_readers(2)
            .build();
        for i in 0..16u64 {
            sys.put(&format!("key{i}"), 100 + i);
        }
        assert!(sys.settle());
        for i in 0..16u64 {
            // Read each key from a different client, including read-only ones.
            sys.get((i % 6) as usize, &format!("key{i}"));
        }
        assert!(sys.settle());
        assert_eq!(sys.completed_ops(), 32);
        assert_eq!(sys.check_per_key_atomicity().unwrap(), 16);
    }

    #[test]
    fn reshard_migrates_ownership_and_keeps_history_atomic() {
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1)
            .seed(9)
            .shards(4)
            .writers(2)
            .build();
        for i in 0..8u64 {
            sys.put(&format!("key{i}"), i);
        }
        assert!(sys.settle());
        // Move every shard writer 1 owns to writer 0.
        let plan = ReshardPlan::merge_writer(sys.routing_table(), 1, 0);
        sys.begin_reshard(&plan);
        assert!(sys.reshard_active());
        // Puts issued mid-handoff route to the new owner and are staged.
        for i in 0..8u64 {
            sys.put(&format!("key{i}"), 100 + i);
        }
        assert!(sys.settle(), "handoff + staged puts must complete");
        assert!(!sys.reshard_active());
        assert_eq!(sys.routing_table().epoch(), 1);
        assert_eq!(sys.routing_table().shards_of_writer(1), Vec::<u32>::new());
        for i in 0..8u64 {
            sys.get((i % 2) as usize, &format!("key{i}"));
        }
        assert!(sys.settle());
        assert_eq!(sys.check_per_key_atomicity().unwrap(), 8);
        // Reads after the flip observe the post-flip writes.
        for i in 0..8u64 {
            let h = sys.history_for_key(&format!("key{i}"));
            assert_eq!(h.reads().next().unwrap().kind.value(), &Some(100 + i));
        }
        // The reshard is stamped as a fault, so stabilization is measured.
        assert!(sys.stabilization_time().is_some());
    }

    #[test]
    fn batching_reduces_delivery_events() {
        let mut sys: StoreSystem<u64> = StoreBuilder::asynchronous(1).seed(5).build();
        sys.put("k", 1);
        assert!(sys.settle());
        let m = sys.sim.metrics();
        // The put runs a WRITE round (9 requests, 9 two-message reply
        // batches) and a NEW_HELP_VAL round (9 requests, 9 acks): 36
        // delivery events. Un-batched, the reply pairs would be separate
        // events — 45 deliveries. Batching must stay below that.
        assert!(m.messages_delivered >= 9 * 4, "both rounds must run");
        assert!(
            m.messages_delivered < 45,
            "un-batched this put would cost 45 delivery events, got {}",
            m.messages_delivered
        );
    }
}
