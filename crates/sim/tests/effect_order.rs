//! The host core applies a handler's effects in one order on both
//! backends: sends, timer arms, cancels, the slow-path fold, trace
//! events, outputs.

use std::any::Any;
use std::time::Duration;

use sbs_sim::{
    Context, DelayModel, LocalTransport, Message, Node, ProcessId, SimConfig, SimDuration, SimTime,
    Simulation, ThreadRuntime, TimerId, TraceEvent,
};

#[derive(Clone, Debug)]
struct Hop;
impl Message for Hop {}

const HOP: SimDuration = SimDuration::micros(10);

/// Outputs 2 on every message and 3 on every timer; its start arms a
/// long timer for [`every_effect`] to cancel.
struct Probe;
impl Node for Probe {
    type Msg = Hop;
    type Out = u32;
    fn on_start(&mut self, ctx: &mut Context<'_, Hop, u32>) {
        ctx.set_timer(SimDuration::millis(1_000));
    }
    fn on_message(&mut self, _: ProcessId, _: Hop, ctx: &mut Context<'_, Hop, u32>) {
        ctx.output(2);
    }
    fn on_timer(&mut self, _: TimerId, ctx: &mut Context<'_, Hop, u32>) {
        ctx.output(3);
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One handler recording every kind of effect, each in the reverse
/// of the order the host applies them: outputs 1, traces, counts a
/// retransmit, cancels the start timer, arms one `HOP` away and
/// sends to node 1 over a `HOP` link.
fn every_effect(_: &mut Probe, ctx: &mut Context<'_, Hop, u32>) {
    ctx.output(1);
    ctx.trace(TraceEvent::Retransmit { shard: 0, round: 1 });
    ctx.note_retransmit();
    ctx.cancel_timer(TimerId(0));
    ctx.set_timer(HOP);
    ctx.send(ProcessId(1), Hop);
}

#[test]
fn effects_leave_in_one_order_on_both_backends() {
    let mut sim: Simulation<Hop, u32> = Simulation::new(SimConfig::with_seed(3));
    sim.enable_tracing(16);
    let (a, b) = (sim.add_node(Probe), sim.add_node(Probe));
    sim.add_duplex(a, b, DelayModel::Constant(HOP));
    sim.with_node(a, every_effect);
    assert!(sim.run_until_quiescent(SimTime::from_nanos(u64::MAX / 2)));
    // The delivery and the timer are both due at `HOP`: the send was
    // scheduled first, so b outputs first. a's start timer is
    // cancelled; b's, which has the same id, is not.
    let outs: Vec<_> = sim
        .take_outputs()
        .into_iter()
        .map(|(_, p, v)| (p, v))
        .collect();
    assert_eq!(outs, [(a, 1), (b, 2), (a, 3), (b, 3)]);
    assert_eq!(sim.metrics().timers_fired, 2);
    assert_eq!(sim.armed_timers(), 0);
    assert_eq!(sim.metrics().slow_paths.retransmits, 1);
    assert!(sim
        .tracer()
        .records()
        .any(|r| r.pid == a.0 && matches!(r.event, TraceEvent::Retransmit { .. })));

    let nodes: Vec<Box<dyn Node<Msg = Hop, Out = u32> + Send>> =
        vec![Box::new(Probe), Box::new(Probe)];
    let rt = ThreadRuntime::spawn_with_workers(1, nodes, 3, |_, injectors| {
        Box::new(LocalTransport::new(injectors.to_vec()))
    });
    rt.invoke(ProcessId(0), every_effect);
    let first = rt.recv_output(Duration::from_secs(5));
    assert_eq!(first, Some((ProcessId(0), 1)));
    // The fold precedes the output: its count is visible already.
    assert_eq!(rt.slow_paths().retransmits, 1);
    rt.shutdown();
}
