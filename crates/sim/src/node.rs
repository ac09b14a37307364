//! The protocol state-machine contract.
//!
//! A protocol participant is a [`Node`]: a state machine with zero-time
//! handlers, matching the paper's model where "processing times are
//! negligible ... only message transfers take time". Handlers never block;
//! they record *effects* (sends, timers, outputs) into a [`Context`], which
//! the hosting runtime — the discrete-event [`Simulation`](crate::Simulation)
//! or the thread-backed [`ThreadRuntime`](crate::runtime::ThreadRuntime) —
//! then applies.
//!
//! The same `Node` implementation runs unmodified under both runtimes.

use std::any::Any;

use crate::id::{ProcessId, TimerId};
use crate::metrics::SlowPath;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use sbs_obs::TraceEvent;

/// Messages exchanged between nodes.
///
/// The `label` is used by the metrics layer to break message counts down by
/// kind (e.g. `"WRITE"`, `"ACK_READ"`); it defaults to `"msg"`.
pub trait Message: Clone + std::fmt::Debug + 'static {
    /// A short, static name for this message's kind.
    fn label(&self) -> &'static str {
        "msg"
    }

    /// Estimated serialized size of this message on the wire, in bytes.
    /// The metrics layer accumulates it per plane (see
    /// [`Message::is_bulk`]) so byte savings — e.g. of metadata/data
    /// separation — are measurable. The default `0` means "unmeasured";
    /// message types that want byte accounting override it.
    fn wire_bytes(&self) -> u64 {
        0
    }

    /// True if this message travels on the **bulk data plane** (payload
    /// bytes between clients and data replicas) rather than the metadata
    /// plane. The metrics layer splits byte counts on this flag.
    fn is_bulk(&self) -> bool {
        false
    }
}

/// One protocol participant: a deterministic state machine driven by
/// messages and timers.
///
/// Implementations must also provide [`Node::as_any_mut`] (always the
/// one-liner `fn as_any_mut(&mut self) -> &mut dyn Any { self }`) so the
/// harness can recover the concrete type to invoke client operations.
pub trait Node: Any {
    /// The message type shared by every node in one simulation.
    type Msg: Message;
    /// The output event type (operation completions etc.) shared by every
    /// node in one simulation.
    type Out: 'static;

    /// Called once when the node is registered, before any message arrives.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg, Self::Out>) {}

    /// Called when a message from `from` is delivered to this node.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Out>,
    );

    /// Called when a timer previously set through
    /// [`Context::set_timer`] fires. Cancelled timers never fire.
    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut Context<'_, Self::Msg, Self::Out>) {}

    /// Transient-failure hook: arbitrarily corrupt this node's local state.
    ///
    /// The fault injector calls this to model the paper's "local variables of
    /// any process can be arbitrarily modified". Implementations should
    /// overwrite *every* protocol variable with adversarially random
    /// contents; the default does nothing (a node with no corruptible state).
    fn on_corrupt(&mut self, _rng: &mut DetRng) {}

    /// Type-recovery escape hatch; always implemented as `{ self }`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Effects recorded by a node handler, applied by the runtime after the
/// handler returns.
#[derive(Debug)]
pub struct Effects<M, O> {
    pub(crate) sends: Vec<(ProcessId, M)>,
    pub(crate) timers_set: Vec<(TimerId, SimDuration)>,
    pub(crate) timers_cancelled: Vec<TimerId>,
    pub(crate) outputs: Vec<O>,
    pub(crate) slow: SlowPath,
    pub(crate) trace: Vec<TraceEvent>,
}

impl<M, O> Effects<M, O> {
    /// Creates an empty effect buffer. Needed when driving a node (or an
    /// embedded protocol core) manually, outside a runtime.
    pub fn new() -> Self {
        Effects {
            sends: Vec::new(),
            timers_set: Vec::new(),
            timers_cancelled: Vec::new(),
            outputs: Vec::new(),
            slow: SlowPath::default(),
            trace: Vec::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.timers_set.is_empty()
            && self.timers_cancelled.is_empty()
            && self.outputs.is_empty()
            && self.slow.is_zero()
            && self.trace.is_empty()
    }

    /// Slow-path counters recorded so far (see
    /// [`SlowPath`]). Useful when driving a node manually in tests.
    pub fn slow_paths(&self) -> &SlowPath {
        &self.slow
    }

    /// Trace events recorded so far (only populated when the hosting
    /// runtime enabled tracing).
    pub fn trace_events(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The messages queued so far, as `(destination, message)` pairs in
    /// emission order. Useful for unit-testing nodes outside a runtime.
    pub fn sends(&self) -> &[(ProcessId, M)] {
        &self.sends
    }

    /// The output events queued so far, in emission order.
    pub fn outputs(&self) -> &[O] {
        &self.outputs
    }

    /// The timers armed so far, as `(id, delay)` pairs.
    pub fn timers_set(&self) -> &[(TimerId, SimDuration)] {
        &self.timers_set
    }

    /// Decomposes the buffer into `(sends, timers set, timers cancelled,
    /// outputs)`, each in emission order. Multiplexing wrappers use this to
    /// translate the effects of an embedded state machine — run under
    /// [`Context::with_effects`] — into their own wire/output types.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        Vec<(ProcessId, M)>,
        Vec<(TimerId, SimDuration)>,
        Vec<TimerId>,
        Vec<O>,
    ) {
        (
            self.sends,
            self.timers_set,
            self.timers_cancelled,
            self.outputs,
        )
    }
}

impl<M, O> Default for Effects<M, O> {
    fn default() -> Self {
        Effects::new()
    }
}

/// The handler-side view of the runtime: the current time, this node's
/// identity, a deterministic RNG, and the effect buffers.
pub struct Context<'a, M, O> {
    pub(crate) now: SimTime,
    pub(crate) me: ProcessId,
    pub(crate) rng: &'a mut DetRng,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) effects: &'a mut Effects<M, O>,
    /// True when the hosting runtime has tracing enabled; [`Context::trace`]
    /// is a no-op otherwise (no hot-path allocation with tracing off).
    pub(crate) tracing: bool,
}

impl<M, O> std::fmt::Debug for Context<'_, M, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("me", &self.me)
            .finish_non_exhaustive()
    }
}

impl<'a, M, O> Context<'a, M, O> {
    /// Builds a context. Exposed for runtimes and tests that drive nodes
    /// directly; protocol code only ever *receives* a context.
    pub fn new(
        now: SimTime,
        me: ProcessId,
        rng: &'a mut DetRng,
        next_timer: &'a mut u64,
        effects: &'a mut Effects<M, O>,
    ) -> Self {
        Context {
            now,
            me,
            rng,
            next_timer,
            effects,
            tracing: false,
        }
    }

    /// The current virtual (or wall-clock-mapped) time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's own id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// This node's deterministic random stream.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Queues `msg` for delivery to `to` over the (FIFO, reliable) link
    /// `self.me() -> to`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.sends.push((to, msg));
    }

    /// Queues `msg` to every process in `targets`.
    pub fn send_all<I>(&mut self, targets: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
        M: Clone,
    {
        for to in targets {
            self.effects.sends.push((to, msg.clone()));
        }
    }

    /// Arms a one-shot timer that fires after `delay`; returns its id.
    pub fn set_timer(&mut self, delay: SimDuration) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.timers_set.push((id, delay));
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.timers_cancelled.push(id);
    }

    /// Emits an output event (e.g. an operation completion) to the harness.
    pub fn output(&mut self, out: O) {
        self.effects.outputs.push(out);
    }

    /// True if the hosting runtime is recording a protocol trace. Use to
    /// skip work whose only purpose is building a trace event.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Records a protocol trace event, attributed to this node at the
    /// current time. A no-op unless the hosting runtime enabled tracing —
    /// with tracing off this is one branch, no allocation.
    pub fn trace(&mut self, event: TraceEvent) {
        if self.tracing {
            self.effects.trace.push(event);
        }
    }

    /// Counts a slow-path retransmission (see
    /// [`SlowPath::retransmits`]).
    pub fn note_retransmit(&mut self) {
        self.effects.slow.retransmits += 1;
    }

    /// Counts a fetch round declared dead (see
    /// [`SlowPath::dead_fetch_rounds`]).
    pub fn note_dead_fetch_round(&mut self) {
        self.effects.slow.dead_fetch_rounds += 1;
    }

    /// Counts a failed erasure-coded reconstruction (see
    /// [`SlowPath::reconstruction_fallbacks`]).
    pub fn note_reconstruction_fallback(&mut self) {
        self.effects.slow.reconstruction_fallbacks += 1;
    }

    /// Counts a fallback metadata re-read (see
    /// [`SlowPath::metadata_rereads`]).
    pub fn note_metadata_reread(&mut self) {
        self.effects.slow.metadata_rereads += 1;
    }

    /// Counts a server-side guard refusal (see
    /// [`SlowPath::guard_refusals`]).
    pub fn note_guard_refusal(&mut self) {
        self.effects.slow.guard_refusals += 1;
    }

    /// Counts a self-healing repair round (see
    /// [`SlowPath::repair_rounds`]): one fan-out of peer pulls for a
    /// digest this replica should hold but found missing or corrupt.
    pub fn note_repair_round(&mut self) {
        self.effects.slow.repair_rounds += 1;
    }

    /// Counts a speculative value fetch the read round did not decide
    /// (see [`SlowPath::wasted_prefetches`]).
    pub fn note_wasted_prefetch(&mut self) {
        self.effects.slow.wasted_prefetches += 1;
    }

    /// Runs `f` with a sub-context that shares this context's time,
    /// identity, RNG, and timer counter, but records effects — possibly of
    /// *different* message/output types — into `effects`.
    ///
    /// This is the embedding hook for multiplexing wrappers (see
    /// `sbs-store`): an inner state machine speaks its own wire type; the
    /// wrapper collects its effects here, then re-emits them translated
    /// (e.g. batched into an envelope). Because the timer counter is
    /// shared, timer ids allocated by the sub-context stay unique and can be
    /// re-armed verbatim with [`Context::forward_timer`].
    pub fn with_effects<M2, O2, R>(
        &mut self,
        effects: &mut Effects<M2, O2>,
        f: impl FnOnce(&mut Context<'_, M2, O2>) -> R,
    ) -> R {
        let r = {
            let mut sub = Context::new(self.now, self.me, self.rng, self.next_timer, effects);
            sub.tracing = self.tracing;
            f(&mut sub)
        };
        // Telemetry recorded inside the embedded machine belongs to this
        // handler execution: fold it up so the runtime sees it even though
        // the wrapper translates (and may drop parts of) the sub-effects.
        if !effects.slow.is_zero() {
            self.effects.slow.fold(&effects.slow);
            effects.slow = SlowPath::default();
        }
        self.effects.trace.append(&mut effects.trace);
        r
    }

    /// Arms a timer under an id already allocated by a sub-context sharing
    /// this context's timer counter (see [`Context::with_effects`]). The
    /// node's `on_timer` will observe exactly `id`.
    pub fn forward_timer(&mut self, id: TimerId, delay: SimDuration) {
        self.effects.timers_set.push((id, delay));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl Message for Ping {
        fn label(&self) -> &'static str {
            "PING"
        }
    }

    #[test]
    fn context_records_effects_in_order() {
        let mut rng = DetRng::from_seed(0);
        let mut next_timer = 0u64;
        let mut effects: Effects<Ping, &'static str> = Effects::new();
        let mut ctx = Context::new(
            SimTime::from_nanos(5),
            ProcessId(1),
            &mut rng,
            &mut next_timer,
            &mut effects,
        );

        assert_eq!(ctx.now(), SimTime::from_nanos(5));
        assert_eq!(ctx.me(), ProcessId(1));

        ctx.send(ProcessId(2), Ping(10));
        ctx.send_all([ProcessId(3), ProcessId(4)], Ping(11));
        let t = ctx.set_timer(SimDuration::millis(1));
        ctx.cancel_timer(t);
        ctx.output("done");

        assert_eq!(
            effects.sends,
            vec![
                (ProcessId(2), Ping(10)),
                (ProcessId(3), Ping(11)),
                (ProcessId(4), Ping(11)),
            ]
        );
        assert_eq!(
            effects.timers_set,
            vec![(TimerId(0), SimDuration::millis(1))]
        );
        assert_eq!(effects.timers_cancelled, vec![TimerId(0)]);
        assert_eq!(effects.outputs, vec!["done"]);
        assert_eq!(next_timer, 1);
    }

    #[test]
    fn timer_ids_are_unique_across_contexts() {
        let mut rng = DetRng::from_seed(0);
        let mut next_timer = 0u64;
        let mut e1: Effects<Ping, ()> = Effects::new();
        let t1 = Context::new(
            SimTime::ZERO,
            ProcessId(0),
            &mut rng,
            &mut next_timer,
            &mut e1,
        )
        .set_timer(SimDuration::nanos(1));
        let mut e2: Effects<Ping, ()> = Effects::new();
        let t2 = Context::new(
            SimTime::ZERO,
            ProcessId(0),
            &mut rng,
            &mut next_timer,
            &mut e2,
        )
        .set_timer(SimDuration::nanos(1));
        assert_ne!(t1, t2);
    }

    #[test]
    fn effects_emptiness() {
        let mut e: Effects<Ping, ()> = Effects::new();
        assert!(e.is_empty());
        e.sends.push((ProcessId(0), Ping(0)));
        assert!(!e.is_empty());
    }

    #[test]
    fn message_label_default_and_custom() {
        #[derive(Clone, Debug)]
        struct Plain;
        impl Message for Plain {}
        assert_eq!(Plain.label(), "msg");
        assert_eq!(Ping(0).label(), "PING");
    }
}
