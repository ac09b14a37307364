//! A thread-backed runtime for the same [`Node`] state machines the
//! simulator hosts.
//!
//! **One event loop per core.** The runtime starts
//! `min(nodes, available_parallelism)` worker threads and hosts node `i`
//! on worker `i mod W`, so a fleet larger than the host shares its cores
//! instead of paying an OS wake-up and a context switch per message.
//! Messages leave through a [`Transport`] — by default
//! [`LocalTransport`], unbounded `std::sync::mpsc` channels (reliable and
//! FIFO per sender→receiver pair, matching the paper's link assumptions),
//! but a deployment can supply any other backend (e.g. the TCP transport
//! in `sbs-net`) via [`ThreadRuntime::spawn_with_transport`] without
//! touching the nodes. There is no virtual time — [`Context::now`]
//! reports wall-clock time since the runtime started, mapped onto
//! [`SimTime`].
//!
//! Every input of every node — message, timer, invoke — passes through
//! the crate's host core on its worker, in arrival order: the same
//! handler entry and effect path the simulator uses, with wall-clock time
//! for the clock and the worker's transports, deadline heap and output
//! channel as the sink. Each worker has one channel, one wake handle and
//! one blocking call. By default that call is the channel
//! (`recv_timeout` until the worker's next timer deadline). A backend
//! whose messages arrive from outside the process hands the worker an
//! [`Inbound`] source with
//! [`MsgInjector::attach`] on any of its nodes' injectors; from then on
//! the worker blocks in [`Inbound::wait`] instead and is its nodes'
//! reader — no reader thread, no second wake-up per message. Everything
//! that enqueues to a node ([`ThreadRuntime::invoke`],
//! [`ThreadRuntime::inject`], [`MsgInjector::inject`], shutdown) fires
//! the worker's wake handle *after* enqueueing, and the loop runs
//! **wait → drain channel → wait**, the source consuming its wake signal
//! before `wait` returns. A signal consumed by one `wait` therefore
//! precedes that turn's channel drain, and one raised after the drain is
//! still pending when the next `wait` starts: no wake-up is lost, at the
//! price of an occasional spurious one.
//!
//! The runtime exists to demonstrate that protocol implementations written
//! against [`Node`]/[`Context`] are not simulator-bound: the integration
//! tests run a full register deployment on threads and get the same answers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::host::{downcast, Host, Sink};
use crate::id::{ProcessId, TimerId};
use crate::metrics::SlowPath;
use crate::node::{Context, Message, Node};
use crate::time::SimTime;
use sbs_obs::Tracer;

/// A one-shot closure executed on the node's worker with a live context.
type InvokeFn<M, O> =
    Box<dyn FnOnce(&mut (dyn Node<Msg = M, Out = O> + Send), &mut Context<'_, M, O>) + Send>;

/// Interrupts a worker blocked in [`Inbound::wait`].
type WakeFn = Box<dyn Fn() + Send + Sync>;

/// A node's boxed state machine, as the runtime hosts it.
type BoxedNode<M, O> = Box<dyn Node<Msg = M, Out = O> + Send>;

enum Ctl<M, O> {
    Msg {
        to: ProcessId,
        from: ProcessId,
        msg: M,
    },
    Invoke {
        to: ProcessId,
        f: InvokeFn<M, O>,
    },
    Attach(Box<dyn Inbound<M>>),
    Stop,
}

/// Where a node's outbound messages go.
///
/// The handler contract ([`Node`]/[`Context`]) records sends into
/// [`Effects`](crate::Effects); a [`ThreadRuntime`] applies them by handing each
/// `(to, msg)` pair to the node's `Transport`. The default backend is
/// [`LocalTransport`] (in-process mpsc); `sbs-net` provides a TCP
/// backend. Delivery is best-effort from the runtime's point of view:
/// a transport that cannot deliver drops the message, exactly like a
/// lossy link in the simulator — the protocols already tolerate loss.
///
/// `send` runs on the node's worker, which also runs the handlers of
/// every node it hosts and receives for them: it must not sleep, and
/// must not wait on a peer at all.
pub trait Transport<M>: Send + 'static {
    /// Delivers `msg` from `from` to `to` (or drops it on failure).
    fn send(&mut self, from: ProcessId, to: ProcessId, msg: M);
}

/// A source of inbound messages that a worker polls itself — the receive
/// half of a [`Transport`] backend whose peers live outside the process
/// (sockets). Handed to the worker with [`MsgInjector::attach`], and
/// shared by every node the worker hosts.
pub trait Inbound<M>: Send + 'static {
    /// Blocks until the wake handle attached with this source fired, a
    /// message arrived, or `timeout` elapsed (`None`: no deadline), and
    /// appends every message decoded meanwhile to `batch` as
    /// `(destination node, claimed sender, message)`; every destination
    /// is a node of this worker. Consumes the wake signal before it
    /// returns. May return early with nothing; must never block on
    /// anything else.
    fn wait(&mut self, timeout: Option<Duration>, batch: &mut Vec<(ProcessId, ProcessId, M)>);
}

/// A cloneable handle that feeds one node's inbox: messages as if sent by
/// an arbitrary peer ([`MsgInjector::inject`]), or a whole [`Inbound`]
/// source for the node's worker to poll ([`MsgInjector::attach`]).
///
/// This is the receive half a custom [`Transport`] backend needs. The
/// claimed sender is trusted, with the same impersonation semantics as
/// [`ThreadRuntime::inject`].
pub struct MsgInjector<M, O> {
    /// The hosting worker's channel.
    tx: Sender<Ctl<M, O>>,
    to: ProcessId,
    worker: usize,
    /// Set once by [`MsgInjector::attach`]; shared by every injector of
    /// the worker.
    wake: Arc<OnceLock<WakeFn>>,
}

// Manual impls: a derive would wrongly require `M: Clone`/`O: Clone`.
impl<M, O> Clone for MsgInjector<M, O> {
    fn clone(&self) -> Self {
        MsgInjector {
            tx: self.tx.clone(),
            to: self.to,
            worker: self.worker,
            wake: Arc::clone(&self.wake),
        }
    }
}

impl<M, O> std::fmt::Debug for MsgInjector<M, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsgInjector")
            .field("to", &self.to)
            .field("worker", &self.worker)
            .finish_non_exhaustive()
    }
}

impl<M, O> MsgInjector<M, O> {
    /// Enqueues `msg` for the target node as if sent by `from`. Silently
    /// drops the message after the runtime has shut down.
    pub fn inject(&self, from: ProcessId, msg: M) {
        self.post(Ctl::Msg {
            to: self.to,
            from,
            msg,
        });
    }

    /// The worker thread hosting this node. Injectors that report the
    /// same worker share its one blocking call, so a backend attaches one
    /// [`Inbound`] per distinct value.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Makes this node's worker its nodes' reader: from its next turn on
    /// it blocks in `source.wait(..)` instead of on its channel, and
    /// `wake` — which must make a concurrent or later `wait` return — is
    /// fired after every enqueue to any node of the worker.
    ///
    /// # Panics
    ///
    /// Panics if the worker already has a source attached.
    pub fn attach(&self, source: Box<dyn Inbound<M>>, wake: impl Fn() + Send + Sync + 'static) {
        assert!(
            self.wake.set(Box::new(wake)).is_ok(),
            "worker already has an inbound source"
        );
        // An enqueue that raced this call and saw no handle yet is on the
        // channel already, and the worker empties the channel after
        // taking `Attach`, before its first `wait`.
        self.post(Ctl::Attach(source));
    }

    /// Enqueue, then wake — in that order, so the worker cannot consume
    /// the signal and still miss the entry. With no source attached the
    /// channel itself wakes the worker and this costs one atomic load.
    fn post(&self, ctl: Ctl<M, O>) {
        // A send can only fail after shutdown; ignore in that case.
        let _ = self.tx.send(ctl);
        if let Some(wake) = self.wake.get() {
            wake();
        }
    }
}

/// The in-process [`Transport`]: every send goes over the target node's
/// worker channel. Reliable and FIFO per ordered pair of nodes.
pub struct LocalTransport<M, O> {
    injectors: Vec<MsgInjector<M, O>>,
}

impl<M, O> LocalTransport<M, O> {
    /// A transport that can reach every node behind the given injectors
    /// (indexed by [`ProcessId::index`]).
    pub fn new(injectors: Vec<MsgInjector<M, O>>) -> Self {
        LocalTransport { injectors }
    }
}

impl<M, O> std::fmt::Debug for LocalTransport<M, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalTransport")
            .field("nodes", &self.injectors.len())
            .finish()
    }
}

impl<M, O> Transport<M> for LocalTransport<M, O>
where
    M: Send + 'static,
    O: Send + 'static,
{
    fn send(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        if let Some(inj) = self.injectors.get(to.index()) {
            inj.inject(from, msg);
        }
    }
}

/// A running set of nodes on a fixed set of worker threads, connected by
/// a pluggable [`Transport`] (reliable in-process channels by default).
///
/// Create with [`ThreadRuntime::spawn`] (or
/// [`ThreadRuntime::spawn_with_transport`] for a custom backend), drive
/// with [`ThreadRuntime::invoke`], observe with
/// [`ThreadRuntime::recv_output`], and stop with
/// [`ThreadRuntime::shutdown`].
pub struct ThreadRuntime<M, O> {
    inboxes: Vec<MsgInjector<M, O>>,
    outputs_rx: Receiver<(ProcessId, O)>,
    /// One per worker; worker `w` hosts nodes `w, w + W, w + 2W, …`.
    handles: Vec<JoinHandle<()>>,
    slow: Arc<Mutex<SlowPath>>,
}

impl<M, O> std::fmt::Debug for ThreadRuntime<M, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRuntime")
            .field("nodes", &self.inboxes.len())
            .field("workers", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl<M, O> ThreadRuntime<M, O>
where
    M: Message + Send,
    O: Send + 'static,
{
    /// Spawns the workers on the in-process [`LocalTransport`]. Node `i`
    /// is addressed as `ProcessId(i)`. Each node's [`Node::on_start`]
    /// runs on its worker before the worker processes any message.
    pub fn spawn(nodes: Vec<BoxedNode<M, O>>, seed: u64) -> Self {
        Self::spawn_with_transport(nodes, seed, |_, injectors| {
            Box::new(LocalTransport::new(injectors.to_vec()))
        })
    }

    /// Spawns `min(nodes, available_parallelism)` workers, each node
    /// sending through the transport `mk_transport` builds for it. The
    /// factory receives the node's own id and injector handles for
    /// *every* node in this runtime, so a backend can mix local and
    /// remote delivery (e.g. loop self-sends back in-process while
    /// shipping peer traffic over TCP).
    pub fn spawn_with_transport(
        nodes: Vec<BoxedNode<M, O>>,
        seed: u64,
        mk_transport: impl FnMut(ProcessId, &[MsgInjector<M, O>]) -> Box<dyn Transport<M>>,
    ) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::spawn_with_workers(cores.min(nodes.len()), nodes, seed, mk_transport)
    }

    /// [`ThreadRuntime::spawn_with_transport`] on exactly `workers`
    /// workers (clamped to `1..=nodes`), so a test can run one node per
    /// worker and all nodes on one whatever the host's core count.
    /// Deployments take the default; this is not a tuning knob.
    #[doc(hidden)]
    pub fn spawn_with_workers(
        workers: usize,
        nodes: Vec<BoxedNode<M, O>>,
        seed: u64,
        mut mk_transport: impl FnMut(ProcessId, &[MsgInjector<M, O>]) -> Box<dyn Transport<M>>,
    ) -> Self {
        let n = nodes.len();
        let workers = workers.clamp(n.min(1), n);
        let mut senders = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        let mut wakes = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Ctl<M, O>>();
            senders.push(tx);
            receivers.push(rx);
            wakes.push(Arc::new(OnceLock::new()));
        }
        let inboxes: Vec<MsgInjector<M, O>> = (0..n)
            .map(|i| MsgInjector {
                tx: senders[i % workers].clone(),
                to: ProcessId(i as u32),
                worker: i % workers,
                wake: Arc::clone(&wakes[i % workers]),
            })
            .collect();
        let (out_tx, out_rx) = channel::<(ProcessId, O)>();
        let epoch = Instant::now();
        let slow = Arc::new(Mutex::new(SlowPath::default()));

        let mut hosts: Vec<Worker<M, O>> = (0..workers)
            .map(|w| Worker::new(w, workers, out_tx.clone(), epoch, &slow))
            .collect();
        for (i, node) in nodes.into_iter().enumerate() {
            let me = ProcessId(i as u32);
            hosts[i % workers].adopt(me, seed, node, mk_transport(me, &inboxes));
        }
        let handles = hosts
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(w, (worker, rx))| {
                std::thread::Builder::new()
                    .name(format!("sbs-worker-{w}"))
                    .spawn(move || worker.run(rx))
                    .expect("failed to spawn worker thread")
            })
            .collect();

        ThreadRuntime {
            inboxes,
            outputs_rx: out_rx,
            handles,
            slow,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// True if the runtime hosts no nodes.
    pub fn is_empty(&self) -> bool {
        self.inboxes.is_empty()
    }

    /// An inbox handle for node `to`, for external delivery sources
    /// (a custom transport's receive half).
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn injector(&self, to: ProcessId) -> MsgInjector<M, O> {
        self.inboxes[to.index()].clone()
    }

    /// Slow-path counters folded from every handler execution on every
    /// worker so far — the same tallies
    /// [`Metrics::slow_paths`](crate::Metrics::slow_paths) accumulates
    /// in the simulator.
    pub fn slow_paths(&self) -> SlowPath {
        *self.slow.lock().expect("slow-path counter lock poisoned")
    }

    /// Runs `f` on node `pid`'s worker against the concrete node type
    /// `N`, with a live [`Context`]. Returns immediately
    /// (fire-and-forget); the node observes the call as an extra
    /// zero-time handler execution.
    ///
    /// # Panics
    ///
    /// The *worker* panics if the node at `pid` is not an `N`.
    pub fn invoke<N>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(&mut N, &mut Context<'_, M, O>) + Send + 'static,
    ) where
        N: Node<Msg = M, Out = O>,
    {
        let wrapped = Box::new(
            move |node: &mut (dyn Node<Msg = M, Out = O> + Send), ctx: &mut Context<'_, M, O>| {
                f(downcast(node, ctx.me()), ctx)
            },
        );
        self.inboxes[pid.index()].post(Ctl::Invoke {
            to: pid,
            f: wrapped,
        });
    }

    /// Injects a message into node `to` as if sent by `from`. Intended for
    /// tests that impersonate a peer (e.g. Byzantine behaviour from outside).
    pub fn inject(&self, from: ProcessId, to: ProcessId, msg: M) {
        self.inboxes[to.index()].inject(from, msg);
    }

    /// Waits up to `timeout` for the next output event.
    pub fn recv_output(&self, timeout: Duration) -> Option<(ProcessId, O)> {
        self.outputs_rx.recv_timeout(timeout).ok()
    }

    /// Drains any outputs that are immediately available.
    pub fn drain_outputs(&self) -> Vec<(ProcessId, O)> {
        let mut v = Vec::new();
        while let Ok(o) = self.outputs_rx.try_recv() {
            v.push(o);
        }
        v
    }

    /// Stops every worker and waits for them to exit.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<M, O> Drop for ThreadRuntime<M, O> {
    fn drop(&mut self) {
        // Node `w` is the first node of worker `w`.
        for inbox in &self.inboxes[..self.handles.len()] {
            inbox.post(Ctl::Stop);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Everything one worker thread owns.
struct Worker<M, O> {
    /// This worker's index `w`; it hosts nodes `w + k·stride` in slot
    /// `k`.
    first: usize,
    /// The runtime's worker count.
    stride: usize,
    host: Host<BoxedNode<M, O>, M, O>,
    egress: Egress<M, O>,
    /// Time zero of the worker's clock, shared by every worker.
    epoch: Instant,
    /// Where the worker blocks once a backend attached one; its channel
    /// until then.
    source: Option<Box<dyn Inbound<M>>>,
}

/// Where a worker's handlers' effects go: the worker's [`Sink`].
struct Egress<M, O> {
    /// Each hosted node's transport, by slot.
    transports: Vec<Box<dyn Transport<M>>>,
    /// (deadline, node slot, id) min-heap; an entry fires only if the
    /// host still holds it armed.
    timers: BinaryHeap<Reverse<(SimTime, usize, TimerId)>>,
    out_tx: Sender<(ProcessId, O)>,
    /// The runtime's slow-path tally, shared by every worker, so
    /// thread/socket runs report the same `SlowPath` as sim runs.
    slow: Arc<Mutex<SlowPath>>,
}

impl<M: 'static, O> Sink<M, O> for Egress<M, O> {
    fn send(&mut self, _: &mut Tracer, slot: usize, from: ProcessId, to: ProcessId, msg: M) {
        self.transports[slot].send(from, to, msg);
    }

    fn arm(&mut self, slot: usize, id: TimerId, deadline: SimTime) {
        self.timers.push(Reverse((deadline, slot, id)));
    }

    fn fold(&mut self, slow: &SlowPath) {
        self.slow
            .lock()
            .expect("slow-path counter lock poisoned")
            .fold(slow);
    }

    fn output(&mut self, from: ProcessId, out: O) {
        let _ = self.out_tx.send((from, out));
    }
}

impl<M, O> Worker<M, O>
where
    M: Message + Send,
    O: Send + 'static,
{
    fn new(
        first: usize,
        stride: usize,
        out_tx: Sender<(ProcessId, O)>,
        epoch: Instant,
        slow: &Arc<Mutex<SlowPath>>,
    ) -> Self {
        Worker {
            first,
            stride,
            host: Host::new(),
            egress: Egress {
                transports: Vec::new(),
                timers: BinaryHeap::new(),
                out_tx,
                slow: Arc::clone(slow),
            },
            epoch,
            source: None,
        }
    }

    /// Hosts `node` as `me` in the next slot, sending through `transport`.
    fn adopt(
        &mut self,
        me: ProcessId,
        seed: u64,
        node: BoxedNode<M, O>,
        transport: Box<dyn Transport<M>>,
    ) {
        self.host.push(me, seed, Some(node));
        self.egress.transports.push(transport);
    }

    /// The slot of node `pid`, if this worker hosts it.
    fn slot(&self, pid: ProcessId) -> Option<usize> {
        let offset = pid.index().checked_sub(self.first)?;
        let slot = offset / self.stride;
        (offset % self.stride == 0 && slot < self.host.len()).then_some(slot)
    }

    /// Wall-clock time since the runtime started.
    fn clock(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Runs the handler of node `to` (if hosted here) on a message.
    fn deliver(&mut self, to: ProcessId, from: ProcessId, msg: M) {
        if let Some(slot) = self.slot(to) {
            self.host
                .handle(slot, self.clock(), &mut self.egress, |n, ctx| {
                    n.on_message(from, msg, ctx)
                });
        }
    }

    /// Fires every timer that is due; returns how long until the next one.
    fn fire_due_timers(&mut self) -> Option<Duration> {
        loop {
            let &Reverse((deadline, slot, id)) = self.egress.timers.peek()?;
            let now = self.clock();
            if deadline > now {
                return Some(Duration::from_nanos((deadline - now).as_nanos()));
            }
            self.egress.timers.pop();
            self.host.fire(slot, id, now, &mut self.egress);
        }
    }

    /// Executes one channel entry; `Break` stops the worker.
    fn control(&mut self, ctl: Ctl<M, O>) -> ControlFlow<()> {
        match ctl {
            Ctl::Msg { to, from, msg } => self.deliver(to, from, msg),
            Ctl::Invoke { to, f } => {
                if let Some(slot) = self.slot(to) {
                    self.host.handle(slot, self.clock(), &mut self.egress, f);
                }
            }
            Ctl::Attach(inbound) => self.source = Some(inbound),
            Ctl::Stop => return ControlFlow::Break(()),
        }
        ControlFlow::Continue(())
    }

    fn run(mut self, rx: Receiver<Ctl<M, O>>) {
        for slot in 0..self.host.len() {
            self.host
                .handle(slot, self.clock(), &mut self.egress, |n, ctx| {
                    n.on_start(ctx)
                });
        }
        let mut batch = Vec::new();
        loop {
            if self.source.is_some() {
                // The wake signal for anything enqueued so far may already
                // be spent: empty the channel before blocking again.
                loop {
                    match rx.try_recv() {
                        Ok(ctl) => {
                            if self.control(ctl).is_break() {
                                return;
                            }
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => return,
                    }
                }
            }
            let timeout = self.fire_due_timers();
            let Some(inbound) = &mut self.source else {
                let ctl = match timeout {
                    Some(wait) => match rx.recv_timeout(wait) {
                        Ok(ctl) => ctl,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => return,
                    },
                    None => match rx.recv() {
                        Ok(ctl) => ctl,
                        Err(_) => return,
                    },
                };
                if self.control(ctl).is_break() {
                    return;
                }
                continue;
            };
            inbound.wait(timeout, &mut batch);
            for (to, from, msg) in batch.drain(..) {
                self.deliver(to, from, msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::{Echo, Pinger, TMsg};
    use crate::time::SimDuration;
    use std::any::Any;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pinger() -> BoxedNode<TMsg, u32> {
        Box::new(Pinger {
            server: ProcessId(0),
            state: 0,
        })
    }

    /// Both placements every test runs under: all `n` nodes on one
    /// worker, and one worker per node.
    fn placements(n: usize) -> [usize; 2] {
        [1, n]
    }

    fn spawn_on(workers: usize, nodes: Vec<BoxedNode<TMsg, u32>>) -> ThreadRuntime<TMsg, u32> {
        ThreadRuntime::spawn_with_workers(workers, nodes, 1, |_, injectors| {
            Box::new(LocalTransport::new(injectors.to_vec()))
        })
    }

    #[test]
    fn workers_are_the_cores_or_the_nodes_whichever_is_fewer() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for n in [1, 2, 5, 13] {
            let rt = ThreadRuntime::spawn((0..n).map(|_| pinger()).collect(), 1);
            assert_eq!(rt.handles.len(), n.min(cores), "{n} nodes");
            // Node `i` lives on worker `i mod W`.
            for i in 0..n {
                assert_eq!(rt.injector(ProcessId(i as u32)).worker(), i % n.min(cores));
            }
        }
        let rt: ThreadRuntime<TMsg, u32> = ThreadRuntime::spawn(Vec::new(), 1);
        assert!(rt.is_empty() && rt.handles.is_empty());
    }

    #[test]
    fn threads_round_trip() {
        for workers in placements(2) {
            let rt = spawn_on(workers, vec![Box::new(Echo), pinger()]);
            rt.invoke::<Pinger>(ProcessId(1), |n, ctx| {
                let server = n.server;
                ctx.send(server, TMsg::Ping(41));
            });
            let (pid, v) = rt
                .recv_output(Duration::from_secs(5))
                .expect("pong should arrive");
            assert_eq!((pid, v), (ProcessId(1), 41), "{workers} workers");
            rt.shutdown();
        }
    }

    #[test]
    fn timers_fire_on_threads() {
        struct Alarm(u32);
        impl Node for Alarm {
            type Msg = TMsg;
            type Out = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, TMsg, u32>) {
                ctx.set_timer(SimDuration::millis(5));
            }
            fn on_message(&mut self, _: ProcessId, _: TMsg, _: &mut Context<'_, TMsg, u32>) {}
            fn on_timer(&mut self, _: TimerId, ctx: &mut Context<'_, TMsg, u32>) {
                ctx.output(self.0);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        // Both nodes arm timer id 0: on a shared worker each still fires
        // its own.
        for workers in placements(2) {
            let rt = spawn_on(workers, vec![Box::new(Alarm(98)), Box::new(Alarm(99))]);
            let mut got: Vec<_> = (0..2)
                .map(|_| {
                    rt.recv_output(Duration::from_secs(5))
                        .expect("timer output")
                })
                .collect();
            got.sort();
            assert_eq!(got, [(ProcessId(0), 98), (ProcessId(1), 99)]);
            rt.shutdown();
        }
    }

    /// Regression: cancelling a timer that already fired — what the client
    /// engines do with a round that timed out — is a no-op and leaves
    /// nothing behind, so an idle worker holds no timer state.
    #[test]
    fn cancelling_a_fired_timer_holds_nothing_once_idle() {
        struct Rounds {
            left: u32,
        }
        impl Node for Rounds {
            type Msg = TMsg;
            type Out = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, TMsg, u32>) {
                ctx.set_timer(SimDuration::ZERO);
            }
            fn on_message(&mut self, _: ProcessId, _: TMsg, _: &mut Context<'_, TMsg, u32>) {}
            fn on_timer(&mut self, id: TimerId, ctx: &mut Context<'_, TMsg, u32>) {
                // Every other round cancels its timer after it fired.
                if self.left.is_multiple_of(2) {
                    ctx.cancel_timer(id);
                }
                self.left -= 1;
                if self.left > 0 {
                    ctx.set_timer(SimDuration::ZERO);
                } else {
                    ctx.output(0);
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (out_tx, out_rx) = channel();
        let slow = Arc::new(Mutex::new(SlowPath::default()));
        let mut worker = Worker::new(0, 1, out_tx, Instant::now(), &slow);
        for i in 0..2 {
            let transport = Box::new(LocalTransport::<TMsg, u32>::new(Vec::new()));
            worker.adopt(ProcessId(i), 1, Box::new(Rounds { left: 1_600 }), transport);
            let egress = &mut worker.egress;
            worker
                .host
                .handle(i as usize, SimTime::ZERO, egress, |n, ctx| n.on_start(ctx));
        }
        while worker.fire_due_timers().is_some() {}
        for _ in 0..2 {
            assert_eq!(out_rx.try_recv().map(|(_, v)| v), Ok(0), "every round ran");
        }
        assert!(worker.egress.timers.is_empty());
        assert_eq!(worker.host.armed(), 0, "timers held");
    }

    #[test]
    fn inject_impersonates_a_peer() {
        for workers in placements(2) {
            let rt = spawn_on(workers, vec![pinger(), pinger()]);
            rt.inject(ProcessId(0), ProcessId(1), TMsg::Pong(7));
            let got = rt.recv_output(Duration::from_secs(5)).expect("output");
            assert_eq!(got, (ProcessId(1), 7), "{workers} workers");
            rt.shutdown();
        }
    }

    #[test]
    fn drain_outputs_is_nonblocking() {
        let rt: ThreadRuntime<TMsg, u32> = ThreadRuntime::spawn(vec![Box::new(Echo)], 4);
        assert!(rt.drain_outputs().is_empty());
        assert_eq!(rt.len(), 1);
        assert!(!rt.is_empty());
        rt.shutdown();
    }

    #[test]
    fn slow_paths_fold_across_workers() {
        for workers in placements(2) {
            let rt = spawn_on(workers, vec![Box::new(Echo), Box::new(Echo)]);
            assert!(rt.slow_paths().is_zero());
            for pid in [ProcessId(0), ProcessId(1)] {
                rt.invoke::<Echo>(pid, |_, ctx| {
                    ctx.note_retransmit();
                    ctx.note_metadata_reread();
                    ctx.output(1);
                });
            }
            // Outputs flush after the handler's effects, so two outputs
            // mean both folds have happened.
            for _ in 0..2 {
                rt.recv_output(Duration::from_secs(5)).expect("ack output");
            }
            let slow = rt.slow_paths();
            assert_eq!(slow.retransmits, 2);
            assert_eq!(slow.metadata_rereads, 2);
            assert_eq!(slow.dead_fetch_rounds, 0);
            rt.shutdown();
        }
    }

    #[test]
    fn custom_transport_reroutes_sends() {
        // A transport that delivers every send to node 0, whoever it was
        // addressed to — proving spawn_with_transport controls routing.
        struct Funnel {
            all_to_zero: MsgInjector<TMsg, u32>,
        }
        impl Transport<TMsg> for Funnel {
            fn send(&mut self, from: ProcessId, _to: ProcessId, msg: TMsg) {
                self.all_to_zero.inject(from, msg);
            }
        }
        for workers in placements(2) {
            let nodes: Vec<BoxedNode<TMsg, u32>> = vec![
                Box::new(Pinger {
                    server: ProcessId(1),
                    state: 0,
                }),
                Box::new(Echo),
            ];
            let rt = ThreadRuntime::spawn_with_workers(workers, nodes, 6, |_, injectors| {
                Box::new(Funnel {
                    all_to_zero: injectors[0].clone(),
                })
            });
            // Node 1 (Echo) answers a ping with a pong addressed back to
            // the sender; the funnel delivers it to node 0 (Pinger)
            // regardless.
            rt.injector(ProcessId(1))
                .inject(ProcessId(2), TMsg::Ping(13));
            let got = rt.recv_output(Duration::from_secs(5)).expect("funneled");
            assert_eq!(got, (ProcessId(0), 13), "{workers} workers");
            rt.shutdown();
        }
    }

    /// A stand-in for a socket source. `signal` is the wake socket: set
    /// by the wake handle, consumed by `wait` before it returns, exactly
    /// as `Inbound::wait` must treat its wake signal. `arrivals` are
    /// frames "on the wire": `wait` hands them all over.
    #[derive(Default)]
    struct FakeSource {
        signal: Mutex<bool>,
        raised: std::sync::Condvar,
        waits: AtomicU64,
        arrivals: Mutex<Vec<(ProcessId, ProcessId, TMsg)>>,
    }

    impl FakeSource {
        fn raise(&self) {
            *self.signal.lock().expect("signal") = true;
            self.raised.notify_one();
        }
    }

    struct FakeInbound(Arc<FakeSource>);

    impl Inbound<TMsg> for FakeInbound {
        fn wait(
            &mut self,
            timeout: Option<Duration>,
            batch: &mut Vec<(ProcessId, ProcessId, TMsg)>,
        ) {
            let src = &*self.0;
            src.waits.fetch_add(1, Ordering::SeqCst);
            let signal = src.signal.lock().expect("signal");
            let idle = |raised: &mut bool| !*raised;
            let mut signal = match timeout {
                Some(t) => {
                    src.raised
                        .wait_timeout_while(signal, t, idle)
                        .expect("signal")
                        .0
                }
                None => src.raised.wait_while(signal, idle).expect("signal"),
            };
            *signal = false;
            batch.append(&mut src.arrivals.lock().expect("arrivals"));
        }
    }

    /// Spawns `nodes` on `workers` workers with one [`FakeSource`] per
    /// worker attached (through the injector of the worker's first node),
    /// and returns once every worker has entered `wait` (so each blocks
    /// there, not on its channel).
    fn spawn_attached(
        workers: usize,
        nodes: Vec<BoxedNode<TMsg, u32>>,
    ) -> (ThreadRuntime<TMsg, u32>, Vec<Arc<FakeSource>>) {
        let rt = spawn_on(workers, nodes);
        let sources: Vec<Arc<FakeSource>> = (0..workers)
            .map(|w| {
                let src = Arc::new(FakeSource::default());
                let waker = Arc::clone(&src);
                let injector = rt.injector(ProcessId(w as u32));
                assert_eq!(injector.worker(), w);
                injector.attach(Box::new(FakeInbound(Arc::clone(&src))), move || {
                    waker.raise()
                });
                src
            })
            .collect();
        for src in &sources {
            while src.waits.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        }
        (rt, sources)
    }

    #[test]
    fn invoke_and_inject_wake_a_node_blocked_in_wait() {
        for workers in placements(2) {
            let (rt, _src) = spawn_attached(workers, vec![pinger(), pinger()]);
            for (i, pid) in [ProcessId(0), ProcessId(1)].into_iter().enumerate() {
                let base = 10 * i as u32;
                rt.invoke::<Pinger>(pid, move |_, ctx| ctx.output(base + 1));
                assert_eq!(
                    rt.recv_output(Duration::from_secs(5)),
                    Some((pid, base + 1))
                );
                rt.inject(ProcessId(9), pid, TMsg::Pong(base + 2));
                assert_eq!(
                    rt.recv_output(Duration::from_secs(5)),
                    Some((pid, base + 2))
                );
                rt.injector(pid).inject(ProcessId(9), TMsg::Pong(base + 3));
                assert_eq!(
                    rt.recv_output(Duration::from_secs(5)),
                    Some((pid, base + 3))
                );
            }
            rt.shutdown();
        }
    }

    #[test]
    fn an_inbound_batch_reaches_the_node_it_names() {
        for workers in placements(3) {
            let (rt, sources) = spawn_attached(workers, vec![pinger(), pinger(), pinger()]);
            // Every node gets a frame from its own worker's source, in
            // reverse node order within one wait.
            for (w, src) in sources.iter().enumerate() {
                let mut arrivals = src.arrivals.lock().expect("arrivals");
                for to in (0..3u32).rev() {
                    if rt.injector(ProcessId(to)).worker() == w {
                        arrivals.push((ProcessId(to), ProcessId(9), TMsg::Pong(100 + to)));
                    }
                }
                drop(arrivals);
                src.raise();
            }
            let mut got: Vec<_> = (0..3)
                .map(|_| rt.recv_output(Duration::from_secs(5)).expect("delivery"))
                .collect();
            got.sort();
            let want: Vec<_> = (0..3u32).map(|i| (ProcessId(i), 100 + i)).collect();
            assert_eq!(got, want, "{workers} workers");
            rt.shutdown();
        }
    }

    #[test]
    fn timer_fires_on_time_through_wait() {
        /// Arms a 20 ms timer when poked and reports how late it fired.
        struct Late(Option<Instant>);
        impl Node for Late {
            type Msg = TMsg;
            type Out = u32;
            fn on_message(&mut self, _: ProcessId, _: TMsg, ctx: &mut Context<'_, TMsg, u32>) {
                ctx.set_timer(SimDuration::millis(20));
                self.0 = Some(Instant::now() + Duration::from_millis(20));
            }
            fn on_timer(&mut self, _: TimerId, ctx: &mut Context<'_, TMsg, u32>) {
                let late = self.0.expect("armed").elapsed();
                ctx.output(late.as_micros() as u32);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        for workers in placements(2) {
            let (rt, _src) =
                spawn_attached(workers, vec![Box::new(Late(None)), Box::new(Late(None))]);
            // The scheduler can hold any one wake-up back: the best of a
            // few shots is the wait's own precision. The second node's
            // timer is armed too, so a shared worker waits on the nearer.
            let mut best_us = u32::MAX;
            for _ in 0..5 {
                rt.inject(ProcessId(9), ProcessId(0), TMsg::Ping(0));
                rt.inject(ProcessId(9), ProcessId(1), TMsg::Ping(0));
                for _ in 0..2 {
                    let (_, late_us) = rt.recv_output(Duration::from_secs(5)).expect("timer");
                    best_us = best_us.min(late_us);
                }
            }
            assert!(
                best_us < 1_000,
                "{workers} workers: timer fired {best_us} us past its deadline"
            );
            rt.shutdown();
        }
    }

    #[test]
    fn stop_wakes_and_joins_a_node_blocked_in_wait() {
        for workers in placements(2) {
            let (rt, _src) = spawn_attached(workers, vec![Box::new(Echo), Box::new(Echo)]);
            let (done_tx, done_rx) = channel();
            let stopper = std::thread::spawn(move || {
                rt.shutdown();
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("Stop must wake a worker out of `wait`");
            stopper.join().expect("stopper");
        }
    }

    #[test]
    fn enqueue_racing_the_entry_into_wait_loses_no_wakeup() {
        // Each output is emitted just before the worker re-enters `wait`,
        // and answered with the next enqueue at once: 10 000 enqueues
        // land around that entry, before and after the signal is
        // consumed, alternating between two nodes. A lost wake-up leaves
        // the worker asleep for ever.
        for workers in placements(2) {
            let (rt, _src) = spawn_attached(workers, vec![pinger(), pinger()]);
            for i in 0..10_000u32 {
                let pid = ProcessId(i % 2);
                if i % 4 < 2 {
                    rt.inject(ProcessId(9), pid, TMsg::Pong(i));
                } else {
                    rt.invoke::<Pinger>(pid, move |_, ctx| ctx.output(i));
                }
                let got = rt.recv_output(Duration::from_secs(10));
                assert_eq!(
                    got,
                    Some((pid, i)),
                    "{workers} workers: wake-up {i} was lost"
                );
            }
            rt.shutdown();
        }
    }
}
