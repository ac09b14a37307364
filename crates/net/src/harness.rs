//! A socket deployment of the store: the same builder, nodes, workload
//! streams, and deployment core as the simulator harness — over loopback
//! TCP.
//!
//! [`NetStoreSystem::deploy`] takes the very same
//! [`StoreBuilder`] the simulator uses, asks it for a
//! runtime-detached fleet ([`StoreBuilder::build_nodes`]), and hosts
//! the nodes on a [`ThreadRuntime`] whose transports are
//! [`TcpTransport`](crate::TcpTransport)s — every protocol message
//! crosses a real socket through the canonical codec. The deployment is
//! one OS thread per node and nothing else: each node thread writes its
//! links and polls its own listener and connections, one per peer it
//! talks to (see [`transport`](crate::transport)); this harness thread
//! reaches the nodes through `invoke`, which enqueues and then wakes the
//! target out of its `ppoll`. Everything that judges the run — the op
//! log, the online [`ConsistencyMonitor`](sbs_sim::ConsistencyMonitor),
//! per-key histories, the atomicity check, the reshard orchestrator, the
//! flight recorder — is `sbs_store`'s [`DeployCore`], reached through
//! `Deref`, so sim ≡ socket differential tests hold both backends to one
//! implementation of the standard.
//!
//! What is backend-specific lives here: binding listeners, spawning
//! node threads and handing each its listener, the [`DeployHost`] that
//! enqueues client calls and data
//! wipes onto those threads and reads the clock as wall time since
//! deployment (so latencies and throughput are *real*, and runs are not
//! replayable), waiting on the runtime's output channel, the wall-clock
//! stall policy of the closed-loop drive, and the transport counters. Of
//! the [`FaultPlan`](sbs_store::FaultPlan) drills, `data_wipes` and
//! `reshards` run here too — virtual-time offsets reinterpreted as
//! wall-clock offsets; the adversarial kinds (scheduled corruption, link
//! garbage) need the simulator's event queue and remain simulator-only.

use crate::codec::WireCodec;
use crate::transport::{NetFabric, TransportStats};
use sbs_bulk::BulkCodec;
use sbs_core::Payload;
use sbs_sim::{LatencySummary, OpId, ProcessId, SimDuration, SimTime, SlowPath, ThreadRuntime};
use sbs_store::{
    ByzServer, ClientCall, CorrectServer, DeployCore, DeployHost, Driver, FlightRecord, LoopMode,
    ReshardPlan, StoreBuilder, StoreClientNode, StoreOut, StoreWire, Workload,
};
use std::io;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock patience for the next completion before a closed-loop run
/// declares the deployment stalled. Loopback round trips are
/// microseconds; thirty seconds is unambiguous deadlock.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// The socket backend as [`DeployCore`] sees it: calls are enqueued to
/// the node threads (fire-and-forget), time is wall time since
/// deployment.
struct NetHost<V: Payload> {
    rt: ThreadRuntime<StoreWire<V>, StoreOut<V>>,
    epoch: Instant,
}

impl<V: Payload + BulkCodec + Send + Sync> DeployHost<V> for NetHost<V> {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn call_client(&mut self, client: ProcessId, call: ClientCall<V>) {
        self.rt
            .invoke::<StoreClientNode<V>>(client, move |n, ctx| call.apply(n, ctx));
    }

    fn wipe_server(&mut self, server: ProcessId, byzantine: bool) {
        if byzantine {
            self.rt
                .invoke::<ByzServer<V>>(server, |n, _| n.wipe_data_stores());
        } else {
            self.rt
                .invoke::<CorrectServer<V>>(server, |n, _| n.wipe_data_stores());
        }
    }

    /// Nothing to stamp: the thread runtime keeps no fault clock and no
    /// trace ring yet.
    fn stamp_fault(&mut self, _pid: ProcessId, _what: &'static str) {}
}

/// A store deployment on loopback TCP.
///
/// Shutdown is the host's [`ThreadRuntime`] stopping its node threads:
/// each owns its listener and every stream it opened or accepted, and
/// closes them as it exits. The [`NetFabric`] holds no thread and no
/// socket by then — only the address book and the counters.
pub struct NetStoreSystem<V: Payload + BulkCodec + Send + Sync> {
    host: NetHost<V>,
    fabric: NetFabric,
    core: DeployCore<V>,
    drops: Arc<AtomicU64>,
}

impl<V: Payload + BulkCodec + Send + Sync> std::fmt::Debug for NetStoreSystem<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStoreSystem")
            .field("clients", &self.clients.len())
            .field("servers", &self.servers.len())
            .field("config", &self.config())
            .finish_non_exhaustive()
    }
}

impl<V: Payload + BulkCodec + Send + Sync> Deref for NetStoreSystem<V> {
    type Target = DeployCore<V>;

    fn deref(&self) -> &DeployCore<V> {
        &self.core
    }
}

impl<V: Payload + BulkCodec + Send + Sync> NetStoreSystem<V> {
    /// Deploys `builder`'s fleet on loopback TCP: binds one listener per
    /// node, spawns the node threads with
    /// [`TcpTransport`](crate::TcpTransport) backends, and hands each
    /// thread its listener to poll. The builder's `monitor()` flag
    /// carries over to an online monitor fed by `put`/`get`.
    pub fn deploy(builder: &StoreBuilder) -> io::Result<Self> {
        let set = builder.build_nodes::<V>();
        let total = set.nodes.len();
        let codec = WireCodec::new(set.wsn_modulus);
        let mut fabric = NetFabric::bind(total)?;
        let drops = Arc::new(AtomicU64::new(0));
        let rt = ThreadRuntime::spawn_with_transport(set.nodes, set.seed, |me, _| {
            Box::new(fabric.transport::<V>(me, codec, Arc::clone(&drops)))
        });
        let injectors = (0..total)
            .map(|i| rt.injector(ProcessId(i as u32)))
            .collect();
        fabric.start(codec, injectors);
        Ok(NetStoreSystem {
            host: NetHost {
                rt,
                epoch: Instant::now(),
            },
            fabric,
            core: DeployCore::new(
                set.clients,
                set.servers,
                set.router,
                set.config,
                set.byz_servers,
                set.monitor,
            ),
            drops,
        })
    }

    /// [`DeployCore::put`] over TCP.
    pub fn put(&mut self, key: &str, val: V) -> OpId {
        self.core.put(&mut self.host, key, val)
    }

    /// [`DeployCore::get`] over TCP.
    pub fn get(&mut self, client_idx: usize, key: &str) -> OpId {
        self.core.get(&mut self.host, client_idx, key)
    }

    /// Waits up to `timeout` for at least one output, then drains
    /// whatever else is immediately available; returns the operation
    /// completions among them (control events advance the reshard state
    /// machine instead). Empty on timeout — or when the window carried
    /// only control events.
    ///
    /// A completion is stamped with its drain time — marginally later
    /// than the node emitted it, which only *widens* the recorded
    /// interval and therefore never turns an atomic history into a
    /// violation.
    pub fn await_completions(&mut self, timeout: Duration) -> Vec<(ProcessId, OpId)> {
        let mut raw = Vec::new();
        if let Some(first) = self.host.rt.recv_output(timeout) {
            raw.push(first);
            raw.extend(self.host.rt.drain_outputs());
        }
        let mut done = Vec::new();
        for (pid, out) in raw {
            done.extend(self.core.record(self.host.now(), pid, out));
        }
        self.core.advance_reshard(&mut self.host);
        done
    }

    /// [`DeployCore::begin_reshard`] over TCP: retire and grant calls
    /// are enqueued to the node threads, and the acquire step is
    /// released once every retire has come back. Keep
    /// draining (`await_completions` or a running workload) until
    /// [`DeployCore::reshard_active`] reports `false`.
    pub fn begin_reshard(&mut self, plan: &ReshardPlan) {
        self.core.begin_reshard(&mut self.host, plan);
    }

    /// [`DeployCore::wipe_server_data`] on a node running on a real
    /// socket runtime.
    pub fn wipe_server_data(&mut self, i: usize) {
        self.core.wipe_server_data(&mut self.host, i);
    }

    /// Drives `w` to completion, closed-loop (one in-flight operation
    /// per client, refilled on completion), writing `mk(id)` for the
    /// `id`-th planned write. The plan's `data_wipes` and `reshards`
    /// *are* honoured — their virtual-time offsets are read as
    /// wall-clock offsets from the start of the run — so the wipe-repair
    /// drill and live resharding both run on real sockets; the
    /// adversarial fault kinds remain simulator-only. Returns the
    /// wall-clock measurements.
    ///
    /// # Panics
    ///
    /// Panics if the workload is open-loop or carries a simulator-only
    /// fault (Byzantine servers are a builder knob), or if the
    /// deployment stalls for thirty wall-clock seconds.
    pub fn run_workload(&mut self, w: &Workload, mk: impl Fn(u64) -> V) -> NetReport {
        assert!(
            matches!(w.loop_mode, LoopMode::Closed),
            "the socket harness drives closed-loop workloads only"
        );
        let f = &w.faults;
        assert!(
            f.byzantine.is_empty()
                && f.corruptions.is_empty()
                && f.client_corruptions.is_empty()
                && f.link_garbage.is_empty(),
            "adversarial fault plans are simulator-only (Byzantine servers are a builder knob)"
        );
        let mut driver = Driver::new(w, &self.core);
        let started = Instant::now();
        for c in 0..self.clients.len() {
            driver.issue_next_for(c, &mut self.core, &mut self.host, &mk);
        }
        // Control-only drain windows (handoff events, idle waits before
        // a scheduled fault falls due) legitimately complete zero ops,
        // so stall detection is a wall-clock deadline since the last
        // sign of progress — not per-window emptiness.
        let mut last_progress = Instant::now();
        while driver.completed < driver.issued
            || driver.issued < w.ops
            || driver.faults_pending()
            || self.reshard_active()
        {
            let elapsed = SimDuration::nanos(started.elapsed().as_nanos() as u64);
            if driver.apply_due_faults(elapsed, &mut self.core, &mut self.host) {
                last_progress = Instant::now();
            }
            let done = self.await_completions(Duration::from_millis(100));
            assert!(
                last_progress.elapsed() < STALL_TIMEOUT,
                "socket workload stalled: {} of {} ops completed",
                driver.completed,
                w.ops
            );
            if done.is_empty() {
                continue;
            }
            last_progress = Instant::now();
            driver.refill(done, &mut self.core, &mut self.host, &mk);
        }
        let wall_elapsed = started.elapsed();
        let secs = wall_elapsed.as_secs_f64();
        NetReport {
            issued: driver.issued,
            completed: driver.completed,
            reads: driver.reads,
            writes: driver.writes,
            wall_elapsed,
            ops_per_wall_sec: if secs > 0.0 {
                driver.completed as f64 / secs
            } else {
                0.0
            },
            put_latency: self.merged_latency("put").summary(),
            get_latency: self.merged_latency("get").summary(),
            slow: self.slow_paths(),
            transport_drops: self.transport_drops(),
            decode_rejects: self.decode_rejects(),
        }
    }

    /// [`DeployCore::flight_recorder`] for a socket run: the suspect
    /// ops, the monitor's violations and the role names. The causal
    /// trace slice is empty — node threads keep no trace ring yet.
    pub fn flight_recorder(&self) -> FlightRecord {
        self.core.flight_recorder(&[])
    }

    /// Slow-path counters folded from every node thread — the same
    /// tallies the simulator reports in its `Metrics`.
    pub fn slow_paths(&self) -> SlowPath {
        self.host.rt.slow_paths()
    }

    /// Messages the transports gave up as link loss: the link was down
    /// and backing off, could not be dialled, or stalled past its write
    /// timeout.
    pub fn transport_drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Inbound frames that failed to decode (each one killed its
    /// connection).
    pub fn decode_rejects(&self) -> u64 {
        self.fabric.decode_rejects()
    }

    /// The deployment's transport gauges — wake-ups, reads, frames in,
    /// connects, write timeouts — summed over its node threads so far.
    pub fn transport_stats(&self) -> TransportStats {
        self.fabric.stats()
    }
}

/// Wall-clock measurements from one [`NetStoreSystem::run_workload`].
#[derive(Clone, Debug)]
pub struct NetReport {
    /// Operations issued.
    pub issued: u64,
    /// Operations completed.
    pub completed: u64,
    /// Reads issued.
    pub reads: u64,
    /// Writes issued.
    pub writes: u64,
    /// Wall time from first invocation to last completion.
    pub wall_elapsed: Duration,
    /// Completed operations per wall-clock second — the number the sim
    /// benches could never report.
    pub ops_per_wall_sec: f64,
    /// Completed-put latency percentiles (wall nanoseconds).
    pub put_latency: Option<LatencySummary>,
    /// Completed-get latency percentiles (wall nanoseconds).
    pub get_latency: Option<LatencySummary>,
    /// Slow-path counters folded across all node threads.
    pub slow: SlowPath,
    /// Messages the transports gave up on (link loss).
    pub transport_drops: u64,
    /// Inbound frames refused by the codec.
    pub decode_rejects: u64,
}
