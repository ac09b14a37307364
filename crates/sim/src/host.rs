//! The host core both backends share: a node's handlers are zero-time,
//! so hosting it is one job under virtual and real time. [`Host`] builds
//! the node's [`Context`], runs the handler and applies what it recorded,
//! for the [`Simulation`](crate::Simulation) and for every
//! [`ThreadRuntime`](crate::runtime::ThreadRuntime) worker alike; only
//! the clock and the [`Sink`] differ.
//!
//! Effects leave in one order: sends, timer arms, cancels, the slow-path
//! fold, trace events, outputs. Sends before arms keeps the simulator's
//! tie-break (a delivery due with a timer of the same handler runs
//! first); the fold before outputs means a harness that sees an output
//! also sees its handler's slow-path counts.

use std::collections::HashSet;
use std::ops::DerefMut;

use crate::id::{ProcessId, TimerId};
use crate::metrics::SlowPath;
use crate::node::{Context, Effects, Message, Node};
use crate::rng::DetRng;
use crate::time::SimTime;
use sbs_obs::Tracer;

/// Where one backend puts a handler's effects.
pub(crate) trait Sink<M, O> {
    /// Routes `msg` from `from` (in `slot`) to `to`; `tracer` is the
    /// host's, for a backend that traces its sends.
    fn send(&mut self, tracer: &mut Tracer, slot: usize, from: ProcessId, to: ProcessId, msg: M);
    /// Arms timer `id` of `slot`; at `deadline` the backend calls
    /// [`Host::fire`].
    fn arm(&mut self, slot: usize, id: TimerId, deadline: SimTime);
    /// Adds a handler's nonzero slow-path counts to the backend's tally.
    fn fold(&mut self, slow: &SlowPath);
    /// Hands `out`, emitted by `from`, to the harness.
    fn output(&mut self, from: ProcessId, out: O);
}

/// `node` as the concrete type `N`; panics, naming `pid`, if it is not.
pub(crate) fn downcast<N: Node>(
    node: &mut dyn Node<Msg = N::Msg, Out = N::Out>,
    pid: ProcessId,
) -> &mut N {
    node.as_any_mut()
        .downcast_mut::<N>()
        .unwrap_or_else(|| panic!("{pid} is not a {}", std::any::type_name::<N>()))
}

/// One hosted node and the per-node state its contexts borrow.
struct Slot<N> {
    me: ProcessId,
    /// `None` while the simulator holds the id reserved but unfilled.
    node: Option<N>,
    rng: DetRng,
    next_timer: u64,
}

/// The nodes one event loop hosts, boxed as `N`.
pub(crate) struct Host<N, M, O> {
    slots: Vec<Slot<N>>,
    /// Timers set and neither fired nor cancelled, by `(slot, id)`. A due
    /// timer fires only if it is still here, so cancelling one that
    /// already fired (or never existed) leaves nothing behind.
    armed: HashSet<(usize, TimerId)>,
    /// Handler scratch, drained in place: its buffers keep their
    /// capacity, so the per-event path stops allocating.
    effects: Effects<M, O>,
    /// The protocol trace ring; disabled by default (recording is then a
    /// single branch — no allocation, no behavioral difference).
    pub(crate) tracer: Tracer,
}

impl<N, M, O> Host<N, M, O> {
    pub(crate) fn new() -> Self {
        Host {
            slots: Vec::new(),
            armed: HashSet::new(),
            effects: Effects::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Hosts `node` as `me` (`None` reserves the slot), with the random
    /// stream `seed` derives for `me`.
    pub(crate) fn push(&mut self, me: ProcessId, seed: u64, node: Option<N>) {
        let rng = DetRng::derive(seed, me.0 as u64);
        let next_timer = 0;
        self.slots.push(Slot {
            me,
            node,
            rng,
            next_timer,
        });
    }

    /// Number of slots, reserved ones included.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Timers set and neither fired nor cancelled yet.
    pub(crate) fn armed(&self) -> usize {
        self.armed.len()
    }

    /// The box in `slot`, `None` while reserved but unfilled.
    pub(crate) fn node_box(&mut self, slot: usize) -> &mut Option<N> {
        &mut self.slots[slot].node
    }
}

impl<N: DerefMut<Target: Node<Msg = M, Out = O>>, M: Message, O> Host<N, M, O> {
    /// Runs one handler of the node in `slot` at `now`, then applies what
    /// it recorded through `sink`: the one entry every input of every
    /// hosted node passes through, and the one place effects drain.
    pub(crate) fn handle<S: Sink<M, O>, R>(
        &mut self,
        slot: usize,
        now: SimTime,
        sink: &mut S,
        f: impl FnOnce(&mut N::Target, &mut Context<'_, M, O>) -> R,
    ) -> R {
        let hosted = &mut self.slots[slot];
        let me = hosted.me;
        let node = hosted.node.as_deref_mut();
        let node = node.unwrap_or_else(|| panic!("{me} has no node (reserved but never filled?)"));
        let (rng, next_timer) = (&mut hosted.rng, &mut hosted.next_timer);
        let mut ctx = Context::new(now, me, rng, next_timer, &mut self.effects);
        ctx.tracing = self.tracer.is_enabled();
        let result = f(node, &mut ctx);
        let effects = &mut self.effects;
        if effects.is_empty() {
            return result;
        }
        for (to, msg) in effects.sends.drain(..) {
            sink.send(&mut self.tracer, slot, me, to, msg);
        }
        for (id, delay) in effects.timers_set.drain(..) {
            self.armed.insert((slot, id));
            sink.arm(slot, id, now + delay);
        }
        for id in effects.timers_cancelled.drain(..) {
            self.armed.remove(&(slot, id));
        }
        if !effects.slow.is_zero() {
            sink.fold(&effects.slow);
            effects.slow = SlowPath::default();
        }
        for event in effects.trace.drain(..) {
            self.tracer.record(now.as_nanos(), me.0, event);
        }
        for out in effects.outputs.drain(..) {
            sink.output(me, out);
        }
        result
    }

    /// Runs timer `id` of `slot` unless it was cancelled or already fired
    /// (then false).
    pub(crate) fn fire<S: Sink<M, O>>(
        &mut self,
        slot: usize,
        id: TimerId,
        now: SimTime,
        sink: &mut S,
    ) -> bool {
        let armed = self.armed.remove(&(slot, id));
        if armed {
            self.handle(slot, now, sink, |node, ctx| node.on_timer(id, ctx));
        }
        armed
    }
}
