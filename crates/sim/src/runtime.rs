//! A thread-backed runtime for the same [`Node`] state machines the
//! simulator hosts.
//!
//! Every node runs on its own OS thread; messages leave through a
//! [`Transport`] — by default [`LocalTransport`], unbounded
//! `std::sync::mpsc` channels (reliable and FIFO per sender→receiver pair,
//! matching the paper's link assumptions), but a deployment can supply any
//! other backend (e.g. the TCP transport in `sbs-net`) via
//! [`ThreadRuntime::spawn_with_transport`] without touching the nodes.
//! There is no virtual time — [`Context::now`] reports wall-clock time
//! since the runtime started, mapped onto [`SimTime`].
//!
//! A node thread blocks in exactly one place. By default that is its
//! channel (`recv_timeout` until the next timer deadline). A backend
//! whose messages arrive from outside the process hands the thread an
//! [`Inbound`] source with [`MsgInjector::attach`]; from then on the
//! thread blocks in [`Inbound::wait`] instead and is its own reader — no
//! reader thread, no second wake-up per message. Everything that
//! enqueues to the node ([`ThreadRuntime::invoke`],
//! [`ThreadRuntime::inject`], [`MsgInjector::inject`], shutdown) fires the
//! wake handle attached beside the source *after* enqueueing, and the
//! loop runs **wait → drain channel → wait**, the source consuming its
//! wake signal before `wait` returns. A signal consumed by one `wait`
//! therefore precedes that turn's channel drain, and one raised after the
//! drain is still pending when the next `wait` starts: no wake-up is
//! lost, at the price of an occasional spurious one.
//!
//! The runtime exists to demonstrate that protocol implementations written
//! against [`Node`]/[`Context`] are not simulator-bound: the integration
//! tests run a full register deployment on threads and get the same answers.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::ops::ControlFlow;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::id::{ProcessId, TimerId};
use crate::metrics::SlowPath;
use crate::node::{Context, Effects, Message, Node};
use crate::rng::DetRng;
use crate::time::SimTime;

/// A one-shot closure executed on the node's thread with a live context.
type InvokeFn<M, O> =
    Box<dyn FnOnce(&mut dyn Node<Msg = M, Out = O>, &mut Context<'_, M, O>) + Send>;

/// Interrupts a node thread blocked in [`Inbound::wait`].
type WakeFn = Box<dyn Fn() + Send + Sync>;

enum Ctl<M, O> {
    Msg { from: ProcessId, msg: M },
    Invoke(InvokeFn<M, O>),
    Attach(Box<dyn Inbound<M>>),
    Stop,
}

/// Where a node's outbound messages go.
///
/// The handler contract ([`Node`]/[`Context`]) records sends into
/// [`Effects`]; a [`ThreadRuntime`] applies them by handing each
/// `(to, msg)` pair to the node's `Transport`. The default backend is
/// [`LocalTransport`] (in-process mpsc); `sbs-net` provides a TCP
/// backend. Delivery is best-effort from the runtime's point of view:
/// a transport that cannot deliver drops the message, exactly like a
/// lossy link in the simulator — the protocols already tolerate loss.
///
/// `send` runs on the node's own thread, which is also the thread that
/// receives for the node: it must not sleep, and must not wait on a peer
/// without a bound.
pub trait Transport<M>: Send + 'static {
    /// Delivers `msg` from `from` to `to` (or drops it on failure).
    fn send(&mut self, from: ProcessId, to: ProcessId, msg: M);
}

/// A source of inbound messages that the node thread polls itself — the
/// receive half of a [`Transport`] backend whose peers live outside the
/// process (sockets). Handed to the node with [`MsgInjector::attach`].
pub trait Inbound<M>: Send + 'static {
    /// Blocks until the wake handle attached with this source fired, a
    /// message arrived, or `timeout` elapsed (`None`: no deadline), and
    /// appends every message decoded meanwhile to `batch` as
    /// `(claimed sender, message)`. Consumes the wake signal before it
    /// returns. May return early with nothing; must never block on
    /// anything else.
    fn wait(&mut self, timeout: Option<Duration>, batch: &mut Vec<(ProcessId, M)>);
}

/// A cloneable handle that feeds one node's inbox: messages as if sent by
/// an arbitrary peer ([`MsgInjector::inject`]), or a whole [`Inbound`]
/// source for the node thread to poll ([`MsgInjector::attach`]).
///
/// This is the receive half a custom [`Transport`] backend needs. The
/// claimed sender is trusted, with the same impersonation semantics as
/// [`ThreadRuntime::inject`].
pub struct MsgInjector<M, O> {
    tx: Sender<Ctl<M, O>>,
    /// Set once by [`MsgInjector::attach`]; shared by every clone.
    wake: Arc<OnceLock<WakeFn>>,
}

// Manual impls: a derive would wrongly require `M: Clone`/`O: Clone`.
impl<M, O> Clone for MsgInjector<M, O> {
    fn clone(&self) -> Self {
        MsgInjector {
            tx: self.tx.clone(),
            wake: Arc::clone(&self.wake),
        }
    }
}

impl<M, O> std::fmt::Debug for MsgInjector<M, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsgInjector").finish_non_exhaustive()
    }
}

impl<M, O> MsgInjector<M, O> {
    /// Enqueues `msg` for the target node as if sent by `from`. Silently
    /// drops the message after the runtime has shut down.
    pub fn inject(&self, from: ProcessId, msg: M) {
        self.post(Ctl::Msg { from, msg });
    }

    /// Makes the node thread its own reader: from its next turn on it
    /// blocks in `source.wait(..)` instead of on its channel, and `wake`
    /// — which must make a concurrent or later `wait` return — is fired
    /// after every enqueue to this node.
    ///
    /// # Panics
    ///
    /// Panics if the node already has a source attached.
    pub fn attach(&self, source: Box<dyn Inbound<M>>, wake: impl Fn() + Send + Sync + 'static) {
        assert!(
            self.wake.set(Box::new(wake)).is_ok(),
            "node already has an inbound source"
        );
        // An enqueue that raced this call and saw no handle yet is on the
        // channel already, and the node empties the channel after taking
        // `Attach`, before its first `wait`.
        self.post(Ctl::Attach(source));
    }

    /// Enqueue, then wake — in that order, so the node cannot consume
    /// the signal and still miss the entry. With no source attached the
    /// channel itself wakes the node and this costs one atomic load.
    fn post(&self, ctl: Ctl<M, O>) {
        // A send can only fail after shutdown; ignore in that case.
        let _ = self.tx.send(ctl);
        if let Some(wake) = self.wake.get() {
            wake();
        }
    }
}

/// The in-process [`Transport`]: every send goes over the target node's
/// mpsc channel. Reliable and FIFO per ordered pair of nodes.
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

/// A running set of nodes, one OS thread each, connected by a pluggable
/// [`Transport`] (reliable in-process channels by default).
///
/// Create with [`ThreadRuntime::spawn`] (or
/// [`ThreadRuntime::spawn_with_transport`] for a custom backend), drive
/// with [`ThreadRuntime::invoke`], observe with
/// [`ThreadRuntime::recv_output`], and stop with
/// [`ThreadRuntime::shutdown`].
pub struct ThreadRuntime<M, O> {
    inboxes: Vec<MsgInjector<M, O>>,
    outputs_rx: Receiver<(ProcessId, O)>,
    handles: Vec<JoinHandle<()>>,
    slow: Arc<Mutex<SlowPath>>,
}

impl<M, O> std::fmt::Debug for ThreadRuntime<M, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRuntime")
            .field("nodes", &self.inboxes.len())
            .finish_non_exhaustive()
    }
}

impl<M, O> ThreadRuntime<M, O>
where
    M: Message + Send,
    O: Send + 'static,
{
    /// Spawns one thread per node on the in-process [`LocalTransport`].
    /// Node `i` is addressed as `ProcessId(i)`. Each node's
    /// [`Node::on_start`] runs on its own thread before any message is
    /// processed.
    pub fn spawn(nodes: Vec<Box<dyn Node<Msg = M, Out = O> + Send>>, seed: u64) -> Self {
        Self::spawn_with_transport(nodes, seed, |_, injectors| {
            Box::new(LocalTransport::new(injectors.to_vec()))
        })
    }

    /// Spawns one thread per node, each sending through the transport
    /// `mk_transport` builds for it. The factory receives the node's own
    /// id and injector handles for *every* node in this runtime, so a
    /// backend can mix local and remote delivery (e.g. loop self-sends
    /// back in-process while shipping peer traffic over TCP).
    pub fn spawn_with_transport(
        nodes: Vec<Box<dyn Node<Msg = M, Out = O> + Send>>,
        seed: u64,
        mut mk_transport: impl FnMut(ProcessId, &[MsgInjector<M, O>]) -> Box<dyn Transport<M>>,
    ) -> Self {
        let n = nodes.len();
        let mut inboxes = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Ctl<M, O>>();
            inboxes.push(MsgInjector {
                tx,
                wake: Arc::new(OnceLock::new()),
            });
            receivers.push(rx);
        }
        let (out_tx, out_rx) = channel::<(ProcessId, O)>();
        let epoch = Instant::now();
        let slow = Arc::new(Mutex::new(SlowPath::default()));

        let mut handles = Vec::with_capacity(n);
        for (i, (node, rx)) in nodes.into_iter().zip(receivers).enumerate() {
            let me = ProcessId(i as u32);
            let thread = NodeThread {
                me,
                node,
                transport: mk_transport(me, &inboxes),
                out_tx: out_tx.clone(),
                rng: DetRng::derive(seed, me.0 as u64),
                next_timer: 0,
                timers: BinaryHeap::new(),
                armed: HashSet::new(),
                effects: Effects::new(),
                epoch,
                slow: Arc::clone(&slow),
                source: None,
            };
            let handle = std::thread::Builder::new()
                .name(format!("sbs-node-{i}"))
                .spawn(move || thread.run(rx))
                .expect("failed to spawn node thread");
            handles.push(handle);
        }

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
    /// node thread so far — the same tallies
    /// [`Metrics::slow_paths`](crate::Metrics::slow_paths) accumulates
    /// in the simulator.
    pub fn slow_paths(&self) -> SlowPath {
        *self.slow.lock().expect("slow-path counter lock poisoned")
    }

    /// Runs `f` on node `pid`'s thread against the concrete node type `N`,
    /// with a live [`Context`]. Returns immediately (fire-and-forget); the
    /// node observes the call as an extra zero-time handler execution.
    ///
    /// # Panics
    ///
    /// The *node thread* panics if the node at `pid` is not an `N`.
    pub fn invoke<N>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(&mut N, &mut Context<'_, M, O>) + Send + 'static,
    ) where
        N: Node<Msg = M, Out = O>,
    {
        let wrapped = Box::new(
            move |node: &mut dyn Node<Msg = M, Out = O>, ctx: &mut Context<'_, M, O>| {
                let node = node
                    .as_any_mut()
                    .downcast_mut::<N>()
                    .unwrap_or_else(|| panic!("node is not a {}", std::any::type_name::<N>()));
                f(node, ctx);
            },
        );
        self.inboxes[pid.index()].post(Ctl::Invoke(wrapped));
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

    /// Stops every node thread and waits for them to exit.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<M, O> Drop for ThreadRuntime<M, O> {
    fn drop(&mut self) {
        for inbox in &self.inboxes {
            inbox.post(Ctl::Stop);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Everything one node thread owns.
struct NodeThread<M, O> {
    me: ProcessId,
    node: Box<dyn Node<Msg = M, Out = O> + Send>,
    transport: Box<dyn Transport<M>>,
    out_tx: Sender<(ProcessId, O)>,
    rng: DetRng,
    next_timer: u64,
    /// (deadline, id) min-heap; an entry fires only if its id is still
    /// in `armed` (set, neither fired nor cancelled).
    timers: BinaryHeap<Reverse<(Instant, TimerId)>>,
    armed: HashSet<TimerId>,
    /// Handler scratch: drained in place after every execution, so its
    /// buffers keep their capacity (as the simulator's dispatch does).
    effects: Effects<M, O>,
    epoch: Instant,
    slow: Arc<Mutex<SlowPath>>,
    /// Where the thread blocks once a backend attached one; its channel
    /// until then.
    source: Option<Box<dyn Inbound<M>>>,
}

impl<M, O> NodeThread<M, O>
where
    M: Message + Send,
    O: Send + 'static,
{
    /// Runs one handler execution and applies what it recorded.
    fn handler(&mut self, f: impl FnOnce(&mut dyn Node<Msg = M, Out = O>, &mut Context<'_, M, O>)) {
        let now = SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64);
        {
            let mut ctx = Context::new(
                now,
                self.me,
                &mut self.rng,
                &mut self.next_timer,
                &mut self.effects,
            );
            f(self.node.as_mut(), &mut ctx);
        }
        // The thread runtime keeps no Tracer (and `Context::new` leaves
        // tracing off, so no trace events accumulate), but slow-path
        // counters fold into a shared tally so thread/socket runs report
        // the same SlowPath as sim runs.
        let effects = &mut self.effects;
        if !effects.slow.is_zero() {
            self.slow
                .lock()
                .expect("slow-path counter lock poisoned")
                .fold(&effects.slow);
            effects.slow = SlowPath::default();
        }
        for (to, msg) in effects.sends.drain(..) {
            self.transport.send(self.me, to, msg);
        }
        let base = Instant::now();
        for (id, delay) in effects.timers_set.drain(..) {
            let deadline = base + Duration::from_nanos(delay.as_nanos());
            self.timers.push(Reverse((deadline, id)));
            self.armed.insert(id);
        }
        for id in effects.timers_cancelled.drain(..) {
            self.armed.remove(&id);
        }
        for out in effects.outputs.drain(..) {
            let _ = self.out_tx.send((self.me, out));
        }
    }

    /// Fires every timer that is due; returns how long until the next one.
    fn fire_due_timers(&mut self) -> Option<Duration> {
        loop {
            let &Reverse((deadline, id)) = self.timers.peek()?;
            let wait = deadline.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                return Some(wait);
            }
            self.timers.pop();
            if self.armed.remove(&id) {
                self.handler(|n, ctx| n.on_timer(id, ctx));
            }
        }
    }

    /// Executes one channel entry; `Break` stops the thread.
    fn control(&mut self, ctl: Ctl<M, O>) -> ControlFlow<()> {
        match ctl {
            Ctl::Msg { from, msg } => self.handler(|n, ctx| n.on_message(from, msg, ctx)),
            Ctl::Invoke(f) => self.handler(f),
            Ctl::Attach(inbound) => self.source = Some(inbound),
            Ctl::Stop => return ControlFlow::Break(()),
        }
        ControlFlow::Continue(())
    }

    fn run(mut self, rx: Receiver<Ctl<M, O>>) {
        self.handler(|n, ctx| n.on_start(ctx));
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
            for (from, msg) in batch.drain(..) {
                self.handler(|n, ctx| n.on_message(from, msg, ctx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::any::Any;

    #[derive(Clone, Debug)]
    enum TMsg {
        Ping(u32),
        Pong(u32),
    }
    impl Message for TMsg {}

    struct Echo;
    impl Node for Echo {
        type Msg = TMsg;
        type Out = u32;
        fn on_message(&mut self, from: ProcessId, msg: TMsg, ctx: &mut Context<'_, TMsg, u32>) {
            if let TMsg::Ping(v) = msg {
                ctx.send(from, TMsg::Pong(v));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Pinger {
        server: ProcessId,
    }
    impl Node for Pinger {
        type Msg = TMsg;
        type Out = u32;
        fn on_message(&mut self, _from: ProcessId, msg: TMsg, ctx: &mut Context<'_, TMsg, u32>) {
            if let TMsg::Pong(v) = msg {
                ctx.output(v);
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn threads_round_trip() {
        let nodes: Vec<Box<dyn Node<Msg = TMsg, Out = u32> + Send>> = vec![
            Box::new(Echo),
            Box::new(Pinger {
                server: ProcessId(0),
            }),
        ];
        let rt = ThreadRuntime::spawn(nodes, 1);
        rt.invoke::<Pinger>(ProcessId(1), |n, ctx| {
            let server = n.server;
            ctx.send(server, TMsg::Ping(41));
        });
        let (pid, v) = rt
            .recv_output(Duration::from_secs(5))
            .expect("pong should arrive");
        assert_eq!(pid, ProcessId(1));
        assert_eq!(v, 41);
        rt.shutdown();
    }

    #[test]
    fn timers_fire_on_threads() {
        struct Alarm;
        impl Node for Alarm {
            type Msg = TMsg;
            type Out = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, TMsg, u32>) {
                ctx.set_timer(SimDuration::millis(5));
            }
            fn on_message(&mut self, _: ProcessId, _: TMsg, _: &mut Context<'_, TMsg, u32>) {}
            fn on_timer(&mut self, _: TimerId, ctx: &mut Context<'_, TMsg, u32>) {
                ctx.output(99);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let rt: ThreadRuntime<TMsg, u32> = ThreadRuntime::spawn(vec![Box::new(Alarm)], 2);
        let (_, v) = rt
            .recv_output(Duration::from_secs(5))
            .expect("timer output");
        assert_eq!(v, 99);
        rt.shutdown();
    }

    /// Regression: cancelling a timer that already fired — what the client
    /// engines do with a round that timed out — is a no-op and leaves
    /// nothing behind, so an idle node holds no timer state.
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
        let mut thread: NodeThread<TMsg, u32> = NodeThread {
            me: ProcessId(0),
            node: Box::new(Rounds { left: 1_600 }),
            transport: Box::new(LocalTransport::<TMsg, u32>::new(Vec::new())),
            out_tx,
            rng: DetRng::from_seed(1),
            next_timer: 0,
            timers: BinaryHeap::new(),
            armed: HashSet::new(),
            effects: Effects::new(),
            epoch: Instant::now(),
            slow: Arc::new(Mutex::new(SlowPath::default())),
            source: None,
        };
        thread.handler(|n, ctx| n.on_start(ctx));
        while thread.fire_due_timers().is_some() {}
        assert_eq!(out_rx.try_recv().map(|(_, v)| v), Ok(0), "every round ran");
        assert!(thread.timers.is_empty());
        assert!(
            thread.armed.is_empty(),
            "{} timers held",
            thread.armed.len()
        );
    }

    #[test]
    fn inject_impersonates_a_peer() {
        let rt: ThreadRuntime<TMsg, u32> = ThreadRuntime::spawn(
            vec![Box::new(Pinger {
                server: ProcessId(0),
            })],
            3,
        );
        rt.inject(ProcessId(0), ProcessId(0), TMsg::Pong(7));
        let (_, v) = rt.recv_output(Duration::from_secs(5)).expect("output");
        assert_eq!(v, 7);
        rt.shutdown();
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
    fn slow_paths_fold_across_node_threads() {
        let nodes: Vec<Box<dyn Node<Msg = TMsg, Out = u32> + Send>> =
            vec![Box::new(Echo), Box::new(Echo)];
        let rt = ThreadRuntime::spawn(nodes, 5);
        assert!(rt.slow_paths().is_zero());
        for pid in [ProcessId(0), ProcessId(1)] {
            rt.invoke::<Echo>(pid, |_, ctx| {
                ctx.note_retransmit();
                ctx.note_metadata_reread();
                ctx.output(1);
            });
        }
        // Outputs flush after the handler's effects, so two outputs mean
        // both folds have happened.
        for _ in 0..2 {
            rt.recv_output(Duration::from_secs(5)).expect("ack output");
        }
        let slow = rt.slow_paths();
        assert_eq!(slow.retransmits, 2);
        assert_eq!(slow.metadata_rereads, 2);
        assert_eq!(slow.dead_fetch_rounds, 0);
        rt.shutdown();
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
        let nodes: Vec<Box<dyn Node<Msg = TMsg, Out = u32> + Send>> = vec![
            Box::new(Pinger {
                server: ProcessId(1),
            }),
            Box::new(Echo),
        ];
        let rt = ThreadRuntime::spawn_with_transport(nodes, 6, |_, injectors| {
            Box::new(Funnel {
                all_to_zero: injectors[0].clone(),
            })
        });
        // Node 1 (Echo) answers a ping with a pong addressed back to the
        // sender; the funnel delivers it to node 0 (Pinger) regardless.
        rt.injector(ProcessId(1))
            .inject(ProcessId(2), TMsg::Ping(13));
        let (pid, v) = rt.recv_output(Duration::from_secs(5)).expect("funneled");
        assert_eq!(pid, ProcessId(0));
        assert_eq!(v, 13);
        rt.shutdown();
    }

    /// A stand-in for a socket source. `signal` is the wake socket: set
    /// by the wake handle, consumed by `wait` before it returns, exactly
    /// as `Inbound::wait` must treat its wake signal.
    #[derive(Default)]
    struct FakeSource {
        signal: Mutex<bool>,
        raised: std::sync::Condvar,
        waits: std::sync::atomic::AtomicU64,
    }

    struct FakeInbound(Arc<FakeSource>);

    impl Inbound<TMsg> for FakeInbound {
        fn wait(&mut self, timeout: Option<Duration>, _batch: &mut Vec<(ProcessId, TMsg)>) {
            use std::sync::atomic::Ordering;
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
        }
    }

    /// Spawns `node` alone with a [`FakeSource`] attached, and returns
    /// once its thread has entered `wait` (so it blocks there, not on
    /// its channel).
    fn spawn_attached(
        node: Box<dyn Node<Msg = TMsg, Out = u32> + Send>,
    ) -> (ThreadRuntime<TMsg, u32>, Arc<FakeSource>) {
        let rt = ThreadRuntime::spawn(vec![node], 7);
        let src = Arc::new(FakeSource::default());
        let waker = Arc::clone(&src);
        rt.injector(ProcessId(0))
            .attach(Box::new(FakeInbound(Arc::clone(&src))), move || {
                *waker.signal.lock().expect("signal") = true;
                waker.raised.notify_one();
            });
        while src.waits.load(std::sync::atomic::Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        (rt, src)
    }

    #[test]
    fn invoke_and_inject_wake_a_node_blocked_in_wait() {
        let (rt, _src) = spawn_attached(Box::new(Pinger {
            server: ProcessId(0),
        }));
        rt.invoke::<Pinger>(ProcessId(0), |_, ctx| ctx.output(1));
        assert_eq!(
            rt.recv_output(Duration::from_secs(5)),
            Some((ProcessId(0), 1))
        );
        rt.inject(ProcessId(9), ProcessId(0), TMsg::Pong(2));
        assert_eq!(
            rt.recv_output(Duration::from_secs(5)),
            Some((ProcessId(0), 2))
        );
        rt.injector(ProcessId(0))
            .inject(ProcessId(9), TMsg::Pong(3));
        assert_eq!(
            rt.recv_output(Duration::from_secs(5)),
            Some((ProcessId(0), 3))
        );
        rt.shutdown();
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
        let (rt, _src) = spawn_attached(Box::new(Late(None)));
        // The scheduler can hold any one wake-up back: the best of a few
        // shots is the wait's own precision.
        let mut best_us = u32::MAX;
        for _ in 0..5 {
            rt.inject(ProcessId(9), ProcessId(0), TMsg::Ping(0));
            let (_, late_us) = rt.recv_output(Duration::from_secs(5)).expect("timer");
            best_us = best_us.min(late_us);
        }
        assert!(
            best_us < 1_000,
            "timer fired {best_us} us past its deadline"
        );
        rt.shutdown();
    }

    #[test]
    fn stop_wakes_and_joins_a_node_blocked_in_wait() {
        let (rt, _src) = spawn_attached(Box::new(Echo));
        let (done_tx, done_rx) = channel();
        let stopper = std::thread::spawn(move || {
            rt.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("Stop must wake a node out of `wait`");
        stopper.join().expect("stopper");
    }

    #[test]
    fn enqueue_racing_the_entry_into_wait_loses_no_wakeup() {
        // Each output is emitted just before the node re-enters `wait`,
        // and answered with the next enqueue at once: 10 000 enqueues
        // land around that entry, before and after the signal is
        // consumed. A lost wake-up leaves the node asleep for ever.
        let (rt, _src) = spawn_attached(Box::new(Pinger {
            server: ProcessId(0),
        }));
        for i in 0..10_000u32 {
            if i % 2 == 0 {
                rt.inject(ProcessId(9), ProcessId(0), TMsg::Pong(i));
            } else {
                rt.invoke::<Pinger>(ProcessId(0), move |_, ctx| ctx.output(i));
            }
            let got = rt.recv_output(Duration::from_secs(10));
            assert_eq!(got, Some((ProcessId(0), i)), "wake-up {i} was lost");
        }
        rt.shutdown();
    }
}
