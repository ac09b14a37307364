//! The deterministic discrete-event simulator.
//!
//! [`Simulation`] hosts a set of [`Node`] state machines connected by FIFO
//! reliable links with configurable delays, and processes events (message
//! deliveries, timer firings, injected faults) in virtual-time order. Runs
//! are fully deterministic given the seed in [`SimConfig`].
//!
//! The nodes live in the crate's host core, which runs every handler and
//! applies its effects; the simulator is the core's virtual-time
//! backend. A send becomes a `Deliver` event and a timer a `Timer`
//! event, on one queue ordered by (time, insertion order).
//!
//! # Model correspondence
//!
//! | Paper (§2.1)                          | Here                                  |
//! |---------------------------------------|---------------------------------------|
//! | asynchronous sequential processes     | [`Node`] handlers, zero virtual time  |
//! | FIFO reliable directed links          | [`LinkState`] + FIFO-preserving scheduling |
//! | arbitrary finite transfer delay       | [`DelayModel`]                        |
//! | transient failures (arbitrary state)  | [`Simulation::schedule_corruption`], [`Simulation::schedule_link_garbage`], [`Simulation::wipe_link`] |
//! | Byzantine servers                     | adversarial `Node` impls, [`Simulation::replace_node`] |

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::host::{downcast, Host, Sink};
use crate::id::{ProcessId, TimerId};
use crate::link::{DelayModel, LinkState};
use crate::metrics::{Metrics, SlowPath};
use crate::node::{Context, Message, Node};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use sbs_obs::{TraceEvent, Tracer};

/// Configuration for a [`Simulation`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; every random stream in the run derives from it.
    pub seed: u64,
    /// Delay model used by [`Simulation::add_duplex_default`] helpers.
    pub default_delay: DelayModel,
    /// Safety cap on processed events. Exceeding it panics — it almost
    /// always means a protocol livelock, which tests should fail loudly.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            default_delay: DelayModel::default_async(),
            max_events: 50_000_000,
        }
    }
}

impl SimConfig {
    /// A config with the given seed and defaults for everything else.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }
}

enum EventKind<M> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: M,
        generation: u64,
        /// Harness-side envelope id stamped at routing time — purely an
        /// observability handle (never serialized on the wire), tying
        /// the `MessageSent` trace record to its `MessageDelivered`.
        env: u64,
    },
    Timer {
        slot: usize,
        id: TimerId,
    },
    Corrupt {
        pid: ProcessId,
    },
    InjectGarbage {
        from: ProcessId,
        to: ProcessId,
    },
}

struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* event;
    /// ties broken by insertion order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

type GarbageGen<M> = Box<dyn FnMut(&mut DetRng, ProcessId, ProcessId) -> M>;

/// A deterministic discrete-event simulation of message-passing nodes.
///
/// Generic over the message type `M` shared by all nodes and the output
/// event type `O` nodes emit toward the harness.
///
/// ```
/// use sbs_sim::{Context, Message, Node, ProcessId, SimConfig, Simulation};
/// use std::any::Any;
///
/// #[derive(Clone, Debug)]
/// struct Hello;
/// impl Message for Hello {}
///
/// struct Greeter { peer: Option<ProcessId> }
/// impl Node for Greeter {
///     type Msg = Hello;
///     type Out = &'static str;
///     fn on_start(&mut self, ctx: &mut Context<'_, Hello, &'static str>) {
///         if let Some(peer) = self.peer {
///             ctx.send(peer, Hello);
///         }
///     }
///     fn on_message(&mut self, _from: ProcessId, _msg: Hello,
///                   ctx: &mut Context<'_, Hello, &'static str>) {
///         ctx.output("greeted");
///     }
///     fn as_any_mut(&mut self) -> &mut dyn Any { self }
/// }
///
/// let mut sim: Simulation<Hello, &'static str> = Simulation::new(SimConfig::default());
/// let a = sim.reserve_id();
/// let b = sim.reserve_id();
/// sim.add_duplex_default(a, b);
/// sim.add_node_at(a, Greeter { peer: Some(b) });
/// sim.add_node_at(b, Greeter { peer: None });
/// sim.with_node::<Greeter, _>(a, |n, ctx| {
///     let peer = n.peer.unwrap();
///     ctx.send(peer, Hello);
/// });
/// assert!(sim.run_until_quiescent(sbs_sim::SimTime::from_nanos(u64::MAX / 2)));
/// let outs = sim.take_outputs();
/// assert_eq!(outs.len(), 2); // on_start send + explicit send
/// ```
pub struct Simulation<M: Message, O> {
    cfg: SimConfig,
    /// The nodes, `ProcessId(i)` in slot `i`, and the trace ring.
    host: Host<Box<dyn Node<Msg = M, Out = O>>, M, O>,
    world: World<M, O>,
    garbage_gen: Option<GarbageGen<M>>,
    fault_rng: DetRng,
    /// Virtual time of the most recent fault injection (node corruption
    /// or link garbage) — the stabilization probe's `τ_fault`.
    last_fault_at: Option<SimTime>,
}

/// Everything of a simulation that a handler's effects reach besides its
/// nodes: the clock, the event queue, the links and what the run
/// recorded. The simulator's [`Sink`].
struct World<M, O> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<M>>,
    /// Directed links, dense: `links[from][to]`. Process ids are small
    /// dense integers, so the delivery path indexes instead of hashing.
    links: Vec<Vec<Option<LinkState>>>,
    outputs: Vec<(SimTime, ProcessId, O)>,
    metrics: Metrics,
    net_rng: DetRng,
    /// Next harness-side envelope id. Advances on every routed message
    /// regardless of tracing, touching neither the wire format nor the
    /// RNG streams, so enabling traces never perturbs schedules.
    next_env: u64,
}

impl<M: Message, O: 'static> Simulation<M, O> {
    /// Creates an empty simulation.
    pub fn new(cfg: SimConfig) -> Self {
        let net_rng = DetRng::derive(cfg.seed, u64::MAX);
        let fault_rng = DetRng::derive(cfg.seed, u64::MAX - 1);
        Simulation {
            cfg,
            host: Host::new(),
            world: World {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                links: Vec::new(),
                outputs: Vec::new(),
                metrics: Metrics::default(),
                net_rng,
                next_env: 0,
            },
            garbage_gen: None,
            fault_rng,
            last_fault_at: None,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Number of registered processes (including reserved-but-unfilled ids).
    pub fn len(&self) -> usize {
        self.host.len()
    }

    /// True if no processes are registered.
    pub fn is_empty(&self) -> bool {
        self.host.len() == 0
    }

    /// Timers set and neither fired nor cancelled yet. Zero once the
    /// event queue has drained.
    pub fn armed_timers(&self) -> usize {
        self.host.armed()
    }

    /// Run counters accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.world.metrics
    }

    /// Enables protocol tracing into a bounded ring of `capacity` events.
    /// Tracing is off by default; enabling it changes no protocol
    /// behavior, message counts, or byte counts — only what is recorded.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.host.tracer = Tracer::bounded(capacity);
    }

    /// The trace ring (empty and inert unless
    /// [`Simulation::enable_tracing`] was called). Export with
    /// [`Tracer::to_jsonl`] or [`Tracer::to_chrome_trace`].
    pub fn tracer(&self) -> &Tracer {
        &self.host.tracer
    }

    /// Virtual time of the most recent fault injection (scheduled node
    /// corruption or link garbage), if any — the reference point for
    /// stabilization-time measurements.
    pub fn last_fault_at(&self) -> Option<SimTime> {
        self.last_fault_at
    }

    /// Reserves the next [`ProcessId`] without providing a node yet, so that
    /// nodes with cyclic references to each other can be constructed.
    /// Fill it with [`Simulation::add_node_at`].
    pub fn reserve_id(&mut self) -> ProcessId {
        let id = ProcessId(self.host.len() as u32);
        self.host.push(id, self.cfg.seed, None);
        id
    }

    /// Registers `node`, assigns it the next id, and runs its
    /// [`Node::on_start`] handler at the current time.
    pub fn add_node(&mut self, node: impl Node<Msg = M, Out = O>) -> ProcessId {
        let id = self.reserve_id();
        self.add_node_at(id, node);
        id
    }

    /// Fills a previously [reserved](Simulation::reserve_id) id with `node`
    /// and runs its [`Node::on_start`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was not reserved or is already filled.
    pub fn add_node_at(&mut self, id: ProcessId, node: impl Node<Msg = M, Out = O>) {
        assert!(id.index() < self.host.len(), "{id} was never reserved");
        let slot = self.host.node_box(id.index());
        assert!(slot.is_none(), "{id} is already occupied");
        *slot = Some(Box::new(node));
        let world = &mut self.world;
        self.host
            .handle(id.index(), world.now, world, |node, ctx| node.on_start(ctx));
    }

    /// Replaces the node at `id` (e.g. a correct server turning Byzantine,
    /// or a mobile Byzantine fault moving on). The new node's
    /// [`Node::on_start`] runs at the current time. Returns the old node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or currently empty.
    pub fn replace_node(
        &mut self,
        id: ProcessId,
        node: impl Node<Msg = M, Out = O>,
    ) -> Box<dyn Node<Msg = M, Out = O>> {
        assert!(id.index() < self.host.len(), "{id} was never reserved");
        let old = self.host.node_box(id.index()).take();
        let old = old.unwrap_or_else(|| panic!("{id} is empty"));
        self.add_node_at(id, node);
        old
    }

    /// Adds the directed link `from -> to` with the given delay model,
    /// replacing any existing link.
    pub fn add_link(&mut self, from: ProcessId, to: ProcessId, delay: DelayModel) {
        let (f, t) = (from.index(), to.index());
        let links = &mut self.world.links;
        if links.len() <= f {
            links.resize_with(f + 1, Vec::new);
        }
        let row = &mut links[f];
        if row.len() <= t {
            row.resize_with(t + 1, || None);
        }
        row[t] = Some(LinkState::new(delay));
    }

    /// Adds both directed links between `a` and `b`.
    pub fn add_duplex(&mut self, a: ProcessId, b: ProcessId, delay: DelayModel) {
        self.add_link(a, b, delay.clone());
        self.add_link(b, a, delay);
    }

    /// Adds both directed links between `a` and `b` using the config's
    /// default delay model.
    pub fn add_duplex_default(&mut self, a: ProcessId, b: ProcessId) {
        self.add_duplex(a, b, self.cfg.default_delay.clone());
    }

    /// Swaps the delay model of the directed link `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    pub fn set_link_delay(&mut self, from: ProcessId, to: ProcessId, delay: DelayModel) {
        self.world
            .link_mut(from, to)
            .unwrap_or_else(|| panic!("no link {from} -> {to}"))
            .set_delay(delay);
    }

    /// The known delay upper bound of the link `from -> to`, if any.
    pub fn link_bound(&self, from: ProcessId, to: ProcessId) -> Option<SimDuration> {
        self.world
            .link(from, to)
            .and_then(|l| l.delay().upper_bound())
    }

    /// Installs the generator used by [`Simulation::schedule_link_garbage`]
    /// to fabricate arbitrary messages (modelling arbitrary initial link
    /// contents after a transient fault).
    pub fn set_garbage_gen(
        &mut self,
        gen: impl FnMut(&mut DetRng, ProcessId, ProcessId) -> M + 'static,
    ) {
        self.garbage_gen = Some(Box::new(gen));
    }

    /// Schedules a transient-fault corruption of `pid`'s local state at
    /// absolute time `at` (via [`Node::on_corrupt`]).
    pub fn schedule_corruption(&mut self, at: SimTime, pid: ProcessId) {
        self.world.push(at, EventKind::Corrupt { pid });
    }

    /// Schedules `count` garbage messages to be injected into the link
    /// `from -> to` at absolute time `at`. Requires a garbage generator
    /// (see [`Simulation::set_garbage_gen`]); injections without one are
    /// silently skipped.
    pub fn schedule_link_garbage(
        &mut self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        count: usize,
    ) {
        for _ in 0..count {
            self.world.push(at, EventKind::InjectGarbage { from, to });
        }
    }

    /// Immediately discards every message currently in flight on the link
    /// `from -> to` (transient fault wiping channel contents).
    pub fn wipe_link(&mut self, from: ProcessId, to: ProcessId) {
        if let Some(link) = self.world.link_mut(from, to) {
            link.bump_generation();
            self.last_fault_at = Some(self.world.now);
        }
    }

    /// Records an externally applied fault against `pid` (e.g. a
    /// harness-level data-store wipe): stamps
    /// [`Simulation::last_fault_at`] so stabilization-time measurement
    /// restarts here, and traces the injection. The node itself is not
    /// touched — the caller has already applied the fault.
    pub fn record_fault(&mut self, pid: ProcessId, what: &'static str) {
        self.last_fault_at = Some(self.world.now);
        self.host.tracer.record(
            self.world.now.as_nanos(),
            pid.0,
            TraceEvent::FaultInjected { what },
        );
    }

    /// Runs `f` against the concrete node `N` at `pid` with a live
    /// [`Context`], applying any effects it records. This is how the harness
    /// invokes client operations between events.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown/empty or the node is not an `N`.
    pub fn with_node<N, R>(
        &mut self,
        pid: ProcessId,
        f: impl FnOnce(&mut N, &mut Context<'_, M, O>) -> R,
    ) -> R
    where
        N: Node<Msg = M, Out = O>,
    {
        let world = &mut self.world;
        self.host
            .handle(pid.index(), world.now, world, |node, ctx| {
                f(downcast(node, ctx.me()), ctx)
            })
    }

    /// Read-only access to the concrete node `N` at `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown/empty or the node is not an `N`.
    pub fn node_ref<N, R>(&mut self, pid: ProcessId, f: impl FnOnce(&N) -> R) -> R
    where
        N: Node<Msg = M, Out = O>,
    {
        let node = self.host.node_box(pid.index()).as_deref_mut();
        f(downcast(
            node.unwrap_or_else(|| panic!("{pid} is empty")),
            pid,
        ))
    }

    /// The earliest pending event time, if any event is pending.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.world.queue.peek().map(|s| s.at)
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    ///
    /// # Panics
    ///
    /// Panics if the configured `max_events` cap is exceeded (livelock
    /// tripwire).
    pub fn step(&mut self) -> bool {
        let world = &mut self.world;
        let Some(Scheduled { at, kind, .. }) = world.queue.pop() else {
            return false;
        };
        debug_assert!(at >= world.now, "event from the past");
        world.now = at;
        world.metrics.events_processed += 1;
        assert!(
            world.metrics.events_processed <= self.cfg.max_events,
            "max_events ({}) exceeded at {} — livelock?",
            self.cfg.max_events,
            at
        );
        let tracer = &mut self.host.tracer;
        match kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                generation,
                env,
            } => {
                let live = world
                    .link(from, to)
                    .map(|l| l.generation() == generation)
                    .unwrap_or(false);
                if live {
                    world.metrics.messages_delivered += 1;
                    tracer.record(
                        at.as_nanos(),
                        to.0,
                        TraceEvent::MessageDelivered {
                            from: from.0,
                            to: to.0,
                            env,
                        },
                    );
                    self.host.handle(to.index(), at, world, |node, ctx| {
                        node.on_message(from, msg, ctx)
                    });
                } else {
                    world
                        .metrics
                        .record_dropped(msg.wire_bytes(), msg.is_bulk());
                    tracer.record(
                        at.as_nanos(),
                        to.0,
                        TraceEvent::MessageDropped {
                            from: from.0,
                            to: to.0,
                        },
                    );
                }
            }
            EventKind::Timer { slot, id } => {
                if self.host.fire(slot, id, at, world) {
                    world.metrics.timers_fired += 1;
                }
            }
            EventKind::Corrupt { pid } => {
                world.metrics.corruptions += 1;
                self.record_fault(pid, "corruption");
                if let Some(node) = self.host.node_box(pid.index()) {
                    node.on_corrupt(&mut self.fault_rng);
                }
            }
            EventKind::InjectGarbage { from, to } => {
                if let Some(mut gen) = self.garbage_gen.take() {
                    let msg = gen(&mut self.fault_rng, from, to);
                    self.garbage_gen = Some(gen);
                    world.metrics.garbage_injected += 1;
                    self.record_fault(to, "link-garbage");
                    self.world.route(&mut self.host.tracer, from, to, msg);
                }
            }
        }
        true
    }

    /// Processes all events up to and including time `t`, then advances the
    /// clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(at) = self.peek_next_time() {
            if at > t {
                break;
            }
            self.step();
        }
        if self.world.now < t {
            self.world.now = t;
        }
    }

    /// Processes all events for the next `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.world.now + d;
        self.run_until(t);
    }

    /// Runs until no events remain or until the clock passes `limit`.
    /// Returns `true` if the event queue drained (quiescence).
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> bool {
        loop {
            match self.peek_next_time() {
                None => return true,
                Some(at) if at > limit => return false,
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Drains the output events emitted since the last call, as
    /// `(time, emitting process, event)` triples in emission order.
    pub fn take_outputs(&mut self) -> Vec<(SimTime, ProcessId, O)> {
        std::mem::take(&mut self.world.outputs)
    }
}

impl<M: Message, O> World<M, O> {
    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let at = if at < self.now { self.now } else { at };
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, kind });
    }

    /// The link `from -> to`, if registered.
    fn link(&self, from: ProcessId, to: ProcessId) -> Option<&LinkState> {
        self.links
            .get(from.index())
            .and_then(|row| row.get(to.index()))
            .and_then(Option::as_ref)
    }

    /// Mutable access to the link `from -> to`, if registered.
    fn link_mut(&mut self, from: ProcessId, to: ProcessId) -> Option<&mut LinkState> {
        self.links
            .get_mut(from.index())
            .and_then(|row| row.get_mut(to.index()))
            .and_then(Option::as_mut)
    }

    /// Routes one message over the link `from -> to`, enforcing FIFO.
    fn route(&mut self, tracer: &mut Tracer, from: ProcessId, to: ProcessId, msg: M) {
        // Field-level indexed access (not `link_mut`) so the link borrow
        // stays disjoint from `net_rng`.
        let link = self
            .links
            .get_mut(from.index())
            .and_then(|row| row.get_mut(to.index()))
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("send over missing link {from} -> {to}"));
        let at = link.schedule(self.now, &mut self.net_rng);
        let generation = link.generation();
        let env = self.next_env;
        self.next_env += 1;
        self.metrics
            .record_send(from, to, msg.label(), msg.wire_bytes(), msg.is_bulk());
        tracer.record(
            self.now.as_nanos(),
            from.0,
            TraceEvent::MessageSent {
                from: from.0,
                to: to.0,
                env,
                label: msg.label(),
            },
        );
        self.push(
            at,
            EventKind::Deliver {
                from,
                to,
                msg,
                generation,
                env,
            },
        );
    }
}

impl<M: Message, O> Sink<M, O> for World<M, O> {
    fn send(&mut self, tracer: &mut Tracer, _: usize, from: ProcessId, to: ProcessId, msg: M) {
        self.route(tracer, from, to, msg);
    }

    fn arm(&mut self, slot: usize, id: TimerId, deadline: SimTime) {
        self.push(deadline, EventKind::Timer { slot, id });
    }

    fn fold(&mut self, slow: &SlowPath) {
        self.metrics.slow_paths.fold(slow);
    }

    fn output(&mut self, from: ProcessId, out: O) {
        self.outputs.push((self.now, from, out));
    }
}

impl<M: Message, O> std::fmt::Debug for Simulation<M, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let world = &self.world;
        f.debug_struct("Simulation")
            .field("now", &world.now)
            .field("nodes", &self.host.len())
            .field(
                "links",
                &world
                    .links
                    .iter()
                    .map(|row| row.iter().filter(|l| l.is_some()).count())
                    .sum::<usize>(),
            )
            .field("pending_events", &world.queue.len())
            .field("metrics", &world.metrics)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::any::Any;

    #[derive(Clone, Debug, PartialEq)]
    pub(crate) enum TMsg {
        Ping(u32),
        Pong(u32),
    }
    impl Message for TMsg {
        fn label(&self) -> &'static str {
            match self {
                TMsg::Ping(_) => "PING",
                TMsg::Pong(_) => "PONG",
            }
        }
    }

    /// Echoes every Ping back as a Pong with the same payload.
    pub(crate) struct Echo;
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

    /// Sends pings on demand; outputs payloads of received pongs.
    pub(crate) struct Pinger {
        pub(crate) server: ProcessId,
        pub(crate) state: u64,
    }
    impl Pinger {
        fn ping(&mut self, v: u32, ctx: &mut Context<'_, TMsg, u32>) {
            ctx.send(self.server, TMsg::Ping(v));
        }
    }
    impl Node for Pinger {
        type Msg = TMsg;
        type Out = u32;
        fn on_message(&mut self, _from: ProcessId, msg: TMsg, ctx: &mut Context<'_, TMsg, u32>) {
            if let TMsg::Pong(v) = msg {
                ctx.output(v);
            }
        }
        fn on_corrupt(&mut self, rng: &mut DetRng) {
            self.state = rng.next_u64();
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pair(seed: u64) -> (Simulation<TMsg, u32>, ProcessId, ProcessId) {
        let mut sim = Simulation::new(SimConfig::with_seed(seed));
        let server = sim.add_node(Echo);
        let client = sim.add_node(Pinger { server, state: 0 });
        sim.add_duplex(
            client,
            server,
            DelayModel::Constant(SimDuration::micros(10)),
        );
        (sim, client, server)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, client, _) = pair(1);
        sim.with_node::<Pinger, _>(client, |n, ctx| n.ping(7, ctx));
        assert!(sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2)));
        let outs = sim.take_outputs();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].2, 7);
        // One ping + one pong.
        assert_eq!(sim.metrics().messages_sent, 2);
        assert_eq!(sim.metrics().sent_with_label("PING"), 1);
        assert_eq!(sim.metrics().sent_with_label("PONG"), 1);
        // Round trip = 2 constant 10us hops.
        assert_eq!(outs[0].0, SimTime::from_nanos(20_000));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let (mut sim, client, _) = pair(seed);
            for v in 0..20 {
                sim.with_node::<Pinger, _>(client, |n, ctx| n.ping(v, ctx));
            }
            sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
            (
                sim.take_outputs()
                    .into_iter()
                    .map(|(t, _, v)| (t, v))
                    .collect::<Vec<_>>(),
                sim.metrics().messages_sent,
            )
        };
        assert_eq!(run(42), run(42));
        // And a different seed with random delays still yields same logical results.
        let (mut sim, client, server) = pair(43);
        sim.add_duplex(client, server, DelayModel::default_async());
        sim.with_node::<Pinger, _>(client, |n, ctx| n.ping(9, ctx));
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!(sim.take_outputs()[0].2, 9);
    }

    #[test]
    fn fifo_delivery_order_is_send_order() {
        let (mut sim, client, _) = pair(7);
        // Random delays would reorder without the FIFO frontier.
        sim.set_link_delay(
            client,
            sim.node_ids_for_test()[0],
            DelayModel::Uniform {
                lo: SimDuration::nanos(1),
                hi: SimDuration::millis(5),
            },
        );
        for v in 0..50 {
            sim.with_node::<Pinger, _>(client, |n, ctx| n.ping(v, ctx));
        }
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        let outs: Vec<u32> = sim.take_outputs().into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(outs, (0..50).collect::<Vec<_>>());
    }

    impl Simulation<TMsg, u32> {
        fn node_ids_for_test(&self) -> Vec<ProcessId> {
            (0..self.host.len() as u32).map(ProcessId).collect()
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerNode {
            fired: Vec<TimerId>,
        }
        impl Node for TimerNode {
            type Msg = TMsg;
            type Out = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, TMsg, u32>) {
                let keep = ctx.set_timer(SimDuration::millis(1));
                let cancel = ctx.set_timer(SimDuration::millis(2));
                ctx.cancel_timer(cancel);
                let _ = keep;
            }
            fn on_message(&mut self, _: ProcessId, _: TMsg, _: &mut Context<'_, TMsg, u32>) {}
            fn on_timer(&mut self, id: TimerId, ctx: &mut Context<'_, TMsg, u32>) {
                self.fired.push(id);
                ctx.output(self.fired.len() as u32);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<TMsg, u32> = Simulation::new(SimConfig::with_seed(5));
        let pid = sim.add_node(TimerNode { fired: vec![] });
        assert!(sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2)));
        assert_eq!(sim.metrics().timers_fired, 1);
        assert_eq!(sim.take_outputs().len(), 1);
        sim.node_ref::<TimerNode, _>(pid, |n| assert_eq!(n.fired.len(), 1));
    }

    /// Regression: the client engines cancel the timer of a round that
    /// timed out, i.e. one that already fired. That cancel is a no-op and
    /// must leave nothing behind: once the node is idle no timer state is
    /// held, however many rounds it ran.
    #[test]
    fn cancelling_a_fired_timer_holds_nothing_once_idle() {
        struct Rounds {
            left: u32,
        }
        impl Node for Rounds {
            type Msg = TMsg;
            type Out = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, TMsg, u32>) {
                ctx.set_timer(SimDuration::millis(1));
            }
            fn on_message(&mut self, _: ProcessId, _: TMsg, _: &mut Context<'_, TMsg, u32>) {}
            fn on_timer(&mut self, id: TimerId, ctx: &mut Context<'_, TMsg, u32>) {
                // Every other round cancels its timer after it fired.
                if self.left.is_multiple_of(2) {
                    ctx.cancel_timer(id);
                }
                self.left -= 1;
                if self.left > 0 {
                    ctx.set_timer(SimDuration::millis(1));
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<TMsg, u32> = Simulation::new(SimConfig::with_seed(5));
        sim.add_node(Rounds { left: 1_600 });
        assert!(sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2)));
        assert_eq!(sim.metrics().timers_fired, 1_600);
        assert_eq!(sim.armed_timers(), 0);
    }

    #[test]
    fn corruption_calls_on_corrupt() {
        let (mut sim, client, _) = pair(11);
        sim.schedule_corruption(SimTime::from_nanos(100), client);
        sim.run_until(SimTime::from_nanos(200));
        assert_eq!(sim.metrics().corruptions, 1);
        sim.node_ref::<Pinger, _>(client, |n| assert_ne!(n.state, 0));
    }

    #[test]
    fn garbage_injection_delivers_fabricated_messages() {
        let (mut sim, client, server) = pair(13);
        sim.set_garbage_gen(|rng, _, _| TMsg::Pong(rng.next_u64() as u32));
        sim.schedule_link_garbage(SimTime::from_nanos(50), server, client, 3);
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!(sim.metrics().garbage_injected, 3);
        // The Pinger outputs each Pong payload it received.
        assert_eq!(sim.take_outputs().len(), 3);
    }

    #[test]
    fn wipe_link_drops_in_flight_messages() {
        let (mut sim, client, server) = pair(17);
        sim.with_node::<Pinger, _>(client, |n, ctx| n.ping(1, ctx));
        // The ping is in flight client->server; wipe that link.
        sim.wipe_link(client, server);
        sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
        assert_eq!(sim.metrics().messages_dropped, 1);
        // The wipe counts as the run's last transient fault.
        assert!(sim.last_fault_at().is_some());
        assert!(sim.take_outputs().is_empty());
    }

    #[test]
    fn handler_telemetry_reaches_tracer_and_metrics() {
        /// Echoes pings and reports one retransmit + one trace event each.
        struct NoisyEcho;
        impl Node for NoisyEcho {
            type Msg = TMsg;
            type Out = u32;
            fn on_message(&mut self, from: ProcessId, msg: TMsg, ctx: &mut Context<'_, TMsg, u32>) {
                if let TMsg::Ping(v) = msg {
                    ctx.note_retransmit();
                    ctx.trace(sbs_obs::TraceEvent::Retransmit { shard: 0, round: v });
                    ctx.send(from, TMsg::Pong(v));
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let build = |tracing: bool| {
            let mut sim: Simulation<TMsg, u32> = Simulation::new(SimConfig::with_seed(23));
            if tracing {
                sim.enable_tracing(64);
            }
            let server = sim.add_node(NoisyEcho);
            let client = sim.add_node(Pinger { server, state: 0 });
            sim.add_duplex(
                client,
                server,
                DelayModel::Constant(SimDuration::micros(10)),
            );
            sim.with_node::<Pinger, _>(client, |n, ctx| n.ping(5, ctx));
            sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2));
            sim
        };

        // Tracing off: slow-path counters still fold, no records held.
        let sim = build(false);
        assert_eq!(sim.metrics().slow_paths.retransmits, 1);
        assert!(sim.tracer().is_empty());

        // Tracing on: the handler event is stamped with time and pid.
        let sim = build(true);
        assert_eq!(sim.metrics().slow_paths.retransmits, 1);
        let recs: Vec<_> = sim
            .tracer()
            .records()
            .filter(|r| matches!(r.event, sbs_obs::TraceEvent::Retransmit { .. }))
            .collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].at_ns, 10_000); // one 10us hop
        assert_eq!(
            recs[0].event,
            sbs_obs::TraceEvent::Retransmit { shard: 0, round: 5 }
        );
    }

    #[test]
    fn replace_node_swaps_behavior() {
        struct Mute;
        impl Node for Mute {
            type Msg = TMsg;
            type Out = u32;
            fn on_message(&mut self, _: ProcessId, _: TMsg, _: &mut Context<'_, TMsg, u32>) {}
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (mut sim, client, server) = pair(19);
        sim.replace_node(server, Mute);
        sim.with_node::<Pinger, _>(client, |n, ctx| n.ping(3, ctx));
        assert!(sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2)));
        assert!(sim.take_outputs().is_empty(), "mute server must not reply");
    }

    #[test]
    #[should_panic(expected = "missing link")]
    fn sending_without_a_link_panics() {
        let mut sim: Simulation<TMsg, u32> = Simulation::new(SimConfig::default());
        let a = sim.add_node(Echo);
        let b = sim.add_node(Pinger {
            server: a,
            state: 0,
        });
        // No links registered: this must panic loudly.
        sim.with_node::<Pinger, _>(b, |n, ctx| n.ping(1, ctx));
    }

    #[test]
    #[should_panic(expected = "max_events")]
    fn livelock_tripwire() {
        struct Storm {
            peer: ProcessId,
        }
        impl Node for Storm {
            type Msg = TMsg;
            type Out = u32;
            fn on_message(&mut self, from: ProcessId, _: TMsg, ctx: &mut Context<'_, TMsg, u32>) {
                ctx.send(from, TMsg::Ping(0));
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn on_start(&mut self, ctx: &mut Context<'_, TMsg, u32>) {
                ctx.send(self.peer, TMsg::Ping(0));
            }
        }
        let mut sim: Simulation<TMsg, u32> = Simulation::new(SimConfig {
            max_events: 1_000,
            ..SimConfig::default()
        });
        let a = sim.reserve_id();
        let b = sim.reserve_id();
        sim.add_duplex(a, b, DelayModel::Constant(SimDuration::nanos(1)));
        sim.add_node_at(a, Storm { peer: b });
        sim.add_node_at(b, Storm { peer: a });
        sim.run_until_quiescent(SimTime::MAX);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim: Simulation<TMsg, u32> = Simulation::new(SimConfig::default());
        sim.run_until(SimTime::from_nanos(1_000));
        assert_eq!(sim.now(), SimTime::from_nanos(1_000));
        sim.run_for(SimDuration::micros(1));
        assert_eq!(sim.now(), SimTime::from_nanos(2_000));
    }

    #[test]
    fn link_bound_reports_upper_bound() {
        let (sim, client, server) = pair(1);
        assert_eq!(
            sim.link_bound(client, server),
            Some(SimDuration::micros(10))
        );
        assert_eq!(sim.link_bound(server, ProcessId(99)), None);
    }
}
