//! The traced socket run: the same fleet on a deployment the benchmark
//! owns, with a span around every call into a layer.
//!
//! Every node is boxed inside a [`SpanNode`] and every [`TcpTransport`]
//! inside a [`SpanTransport`], so handler executions and sends are timed
//! from the benchmark's own files without touching the program. Spans stay
//! in memory; [`TracedNet::write_trace`] writes them out at the end.

use crate::analysis::{failed_ops, judge};
use crate::report::Report;
use crate::spec::{label_metric, DATA_LABELS};
use crate::stats::{bench_ns, median, percentile, process_cpu_us, thread_cpu_ns};
use crate::workloads::{chunk_value_id, warmup_value_id, Sizes, TcpCase, CHUNK_OPS};
use sbs_bulk::BulkCodec;
use sbs_check::{History, OpKind, OpRecord};
use sbs_core::Payload;
use sbs_net::{read_frame, write_frame, NetFabric, TcpTransport, WireCodec};
use sbs_sim::{
    Context, DetRng, Message, Node, OpId, ProcessId, SimTime, ThreadRuntime, TimerId, Transport,
};
use sbs_store::{
    KeyRouter, PlannedOp, StoreClientNode, StoreOut, StoreWire, Workload, WorkloadStreams,
};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufWriter, Cursor, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans kept per node for the trace file; the counters cover every span.
const SPANS_KEPT_PER_NODE: usize = 5_000;
/// Messages captured (fleet-wide) for the codec replay.
const CAPTURED_MESSAGES: usize = 2_000;
/// Wall-clock patience for the next completion, as in `NetStoreSystem`.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Frame bytes around a message body: length prefix, version, kind.
const FRAME_OVERHEAD: u64 = 6;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
struct Span {
    id: u64,
    name: &'static str,
    node: u32,
    start_ns: u64,
    end_ns: u64,
    /// The handler span that caused this one (0: none — a handler is
    /// caused by a message or timer, which carry no span).
    cause: u64,
    /// The operation, where the call site knows it.
    op: Option<u64>,
}

/// What one node's thread recorded. Shared by the node's [`SpanNode`] and
/// [`SpanTransport`] — both run on that one thread, so the lock is never
/// contended while the fleet runs — and read by the harness afterwards.
struct NodeTrace<V: Payload> {
    node: u32,
    is_client: bool,
    next_span: u64,
    /// The last handler span on this thread: the cause of the sends that
    /// follow it.
    last_handler: u64,
    handlers: u64,
    timer_handlers: u64,
    /// CPU nanoseconds inside handlers (thread CPU clock, not wall).
    handler_cpu_ns: u64,
    sends: u64,
    /// CPU nanoseconds inside `send` calls; their wall durations, which
    /// include blocking on a full socket buffer, are `send_durations_ns`.
    send_cpu_ns: u64,
    body_bytes: u64,
    by_label: BTreeMap<&'static str, u64>,
    send_durations_ns: Vec<u32>,
    spans: Vec<Span>,
    captured: Vec<StoreWire<V>>,
    capture_room: usize,
}

type Shared<V> = Arc<Mutex<NodeTrace<V>>>;

impl<V: Payload> NodeTrace<V> {
    fn new(node: u32, is_client: bool, capture_room: usize) -> Self {
        NodeTrace {
            node,
            is_client,
            next_span: 0,
            last_handler: 0,
            handlers: 0,
            timer_handlers: 0,
            handler_cpu_ns: 0,
            sends: 0,
            send_cpu_ns: 0,
            body_bytes: 0,
            by_label: BTreeMap::new(),
            send_durations_ns: Vec::new(),
            spans: Vec::new(),
            captured: Vec::new(),
            capture_room,
        }
    }

    /// Forgets everything recorded so far (the warm-up).
    fn reset(&mut self) {
        *self = NodeTrace::new(self.node, self.is_client, self.capture_room);
    }

    fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        cause: u64,
        op: Option<u64>,
    ) -> u64 {
        self.next_span += 1;
        let id = (u64::from(self.node) << 40) | self.next_span;
        if self.spans.len() < SPANS_KEPT_PER_NODE {
            self.spans.push(Span {
                id,
                name,
                node: self.node,
                start_ns,
                end_ns,
                cause,
                op,
            });
        }
        id
    }

    fn handler(&mut self, started: Stamp, epoch: Instant, timer: bool, op: Option<u64>) {
        let name = if self.is_client {
            "client.handle"
        } else {
            "server.handle"
        };
        self.handlers += 1;
        self.timer_handlers += u64::from(timer);
        self.handler_cpu_ns += thread_cpu_ns() - started.cpu_ns;
        self.last_handler = self.span(name, started.wall_ns, ns_since(epoch), 0, op);
    }
}

fn lock<V: Payload>(trace: &Shared<V>) -> std::sync::MutexGuard<'_, NodeTrace<V>> {
    trace.lock().expect("a tracing thread panicked")
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Where a span starts: on the wall clock (for the trace file) and on the
/// thread's CPU clock (for the per-operation CPU ledger).
#[derive(Clone, Copy)]
struct Stamp {
    wall_ns: u64,
    cpu_ns: u64,
}

impl Stamp {
    fn now(epoch: Instant) -> Self {
        Stamp {
            wall_ns: ns_since(epoch),
            cpu_ns: thread_cpu_ns(),
        }
    }
}

/// A node wrapped in handler spans. `as_any_mut` forwards to the inner
/// node, so `ThreadRuntime::invoke::<StoreClientNode<_>>` still finds the
/// concrete type it asks for.
struct SpanNode<V: Payload> {
    inner: Box<dyn Node<Msg = StoreWire<V>, Out = StoreOut<V>> + Send>,
    trace: Shared<V>,
    epoch: Instant,
}

impl<V: Payload> Node for SpanNode<V> {
    type Msg = StoreWire<V>;
    type Out = StoreOut<V>;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Out>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Out>,
    ) {
        let started = Stamp::now(self.epoch);
        self.inner.on_message(from, msg, ctx);
        lock(&self.trace).handler(started, self.epoch, false, None);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, Self::Msg, Self::Out>) {
        let started = Stamp::now(self.epoch);
        self.inner.on_timer(timer, ctx);
        lock(&self.trace).handler(started, self.epoch, true, None);
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.inner.on_corrupt(rng);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A transport wrapped in send spans and counters.
struct SpanTransport<V: Payload> {
    inner: TcpTransport<V>,
    trace: Shared<V>,
    epoch: Instant,
}

impl<V> Transport<StoreWire<V>> for SpanTransport<V>
where
    V: Payload + BulkCodec + Send + Sync,
{
    fn send(&mut self, from: ProcessId, to: ProcessId, msg: StoreWire<V>) {
        let label = msg.label();
        let body = msg.wire_bytes();
        let copy = {
            let t = lock(&self.trace);
            (t.captured.len() < t.capture_room).then(|| msg.clone())
        };
        let started = Stamp::now(self.epoch);
        self.inner.send(from, to, msg);
        let cpu_ns = thread_cpu_ns() - started.cpu_ns;
        let (start, end) = (started.wall_ns, ns_since(self.epoch));
        let mut t = lock(&self.trace);
        t.sends += 1;
        t.send_cpu_ns += cpu_ns;
        t.body_bytes += body;
        t.send_durations_ns
            .push((end - start).min(u64::from(u32::MAX)) as u32);
        *t.by_label.entry(label).or_default() += 1;
        let cause = t.last_handler;
        t.span("transport.send", start, end, cause, None);
        t.captured.extend(copy);
    }
}

/// A socket deployment the benchmark owns, traced.
///
/// Field order is load-bearing, as in `NetStoreSystem`: the runtime drops
/// first (node threads stop writing), then the fabric joins its readers.
pub struct TracedNet<V: Payload + BulkCodec + Send + Sync> {
    rt: ThreadRuntime<StoreWire<V>, StoreOut<V>>,
    fabric: NetFabric,
    clients: Vec<ProcessId>,
    router: KeyRouter,
    codec: WireCodec,
    traces: Vec<Shared<V>>,
    epoch: Instant,
    drops: Arc<AtomicU64>,
    next_op: u64,
    invoked: HashMap<OpId, (ProcessId, SimTime, String, Option<V>)>,
    completed: Vec<(String, OpRecord<Option<V>>)>,
    op_spans: Vec<Span>,
}

impl<V: Payload + BulkCodec + Send + Sync> TracedNet<V> {
    /// `build_nodes` → span wrappers → `spawn_with_transport` over TCP —
    /// the steps of `NetStoreSystem::deploy`, with the wrappers between.
    pub fn deploy(case: &TcpCase) -> io::Result<Self> {
        let set = case.builder.build_nodes::<V>();
        let total = set.nodes.len();
        let codec = WireCodec::new(set.wsn_modulus);
        let mut fabric = NetFabric::bind(total)?;
        let addrs = fabric.addrs().to_vec();
        let drops = Arc::new(AtomicU64::new(0));
        let epoch = Instant::now();
        let traces: Vec<Shared<V>> = (0..total)
            .map(|i| {
                let is_client = i < set.clients.len();
                let room = CAPTURED_MESSAGES.div_ceil(total);
                Arc::new(Mutex::new(NodeTrace::new(i as u32, is_client, room)))
            })
            .collect();
        let nodes = set
            .nodes
            .into_iter()
            .zip(&traces)
            .map(|(inner, trace)| {
                Box::new(SpanNode {
                    inner,
                    trace: Arc::clone(trace),
                    epoch,
                }) as Box<dyn Node<Msg = StoreWire<V>, Out = StoreOut<V>> + Send>
            })
            .collect();
        let rt = ThreadRuntime::spawn_with_transport(nodes, set.seed, |me, _| {
            Box::new(SpanTransport {
                inner: TcpTransport::<V>::new(me, addrs.clone(), codec, Arc::clone(&drops)),
                trace: Arc::clone(&traces[me.index()]),
                epoch,
            })
        });
        let injectors = (0..total)
            .map(|i| rt.injector(ProcessId(i as u32)))
            .collect();
        fabric.start(codec, injectors);
        Ok(TracedNet {
            rt,
            fabric,
            clients: set.clients,
            router: set.router,
            codec,
            traces,
            epoch,
            drops,
            next_op: 0,
            invoked: HashMap::new(),
            completed: Vec::new(),
            op_spans: Vec::new(),
        })
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(ns_since(self.epoch))
    }

    /// Issues one planned operation at client `c`; the handler execution
    /// that accepts it is timed like any other, with its `OpId`.
    fn issue(&mut self, c: usize, planned: PlannedOp, mk: &impl Fn(u64) -> V) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        let (key, put_val) = match planned {
            PlannedOp::Get { key } => (key, None),
            PlannedOp::Put { key, id } => (key, Some(mk(id))),
        };
        // A put runs at the shard's writer, whichever stream planned it.
        let client = match put_val {
            Some(_) => self.clients[self.router.writer_of(&key)],
            None => self.clients[c],
        };
        self.invoked
            .insert(op, (client, self.now(), key.clone(), put_val.clone()));
        let trace = Arc::clone(&self.traces[client.index()]);
        let epoch = self.epoch;
        self.rt.invoke::<StoreClientNode<V>>(client, move |n, ctx| {
            let started = Stamp::now(epoch);
            match put_val {
                Some(val) => n.invoke_put(op, key, val, ctx),
                None => n.invoke_get(op, key, ctx),
            }
            lock(&trace).handler(started, epoch, false, Some(op.0));
        });
        op
    }

    fn complete(&mut self, op: OpId, read: Option<Option<V>>) -> bool {
        let Some((client, invoked, key, put_val)) = self.invoked.remove(&op) else {
            return false;
        };
        let responded = self.now();
        let kind = match put_val {
            Some(v) => OpKind::Write(Some(v)),
            None => OpKind::Read(read.expect("a get completes with a value")),
        };
        if self.op_spans.len() < SPANS_KEPT_PER_NODE {
            self.op_spans.push(Span {
                id: (1 << 63) | op.0,
                name: "op",
                node: client.0,
                start_ns: invoked.as_nanos(),
                end_ns: responded.as_nanos(),
                cause: 0,
                op: Some(op.0),
            });
        }
        self.completed.push((
            key,
            OpRecord {
                client,
                op,
                invoked,
                responded,
                kind,
            },
        ));
        true
    }

    /// Drives `w` to completion, closed-loop: one operation in flight per
    /// client, refilled on completion. Returns the operations completed,
    /// or an error if the deployment stalls.
    pub fn drive(&mut self, w: &Workload, mk: impl Fn(u64) -> V) -> Result<u64, String> {
        let mut streams = WorkloadStreams::new(w, &self.router, self.clients.len());
        let mut inflight: HashMap<OpId, usize> = HashMap::new();
        for c in 0..self.clients.len() {
            if let Some(planned) = streams.next_for(c) {
                inflight.insert(self.issue(c, planned, &mk), c);
            }
        }
        let mut done = 0u64;
        while !inflight.is_empty() {
            let Some(first) = self.rt.recv_output(STALL_TIMEOUT) else {
                return Err(format!(
                    "traced run stalled with {} ops in flight",
                    inflight.len()
                ));
            };
            let mut outputs = vec![first];
            outputs.extend(self.rt.drain_outputs());
            for (_, out) in outputs {
                let (op, read) = match out {
                    StoreOut::PutDone { op } => (op, None),
                    StoreOut::GetDone { op, value } => (op, Some(value)),
                    _ => continue, // no reshard runs here
                };
                if !self.complete(op, read) {
                    continue;
                }
                done += 1;
                if let Some(c) = inflight.remove(&op) {
                    if let Some(planned) = streams.next_for(c) {
                        inflight.insert(self.issue(c, planned, &mk), c);
                    }
                }
            }
        }
        Ok(done)
    }

    /// Forgets the spans and counts of everything so far (the warm-up).
    fn reset_traces(&mut self) {
        for t in &self.traces {
            lock(t).reset();
        }
        self.op_spans.clear();
    }

    fn histories(&self) -> BTreeMap<String, History<Option<V>>> {
        let mut by_key: BTreeMap<String, Vec<OpRecord<Option<V>>>> = BTreeMap::new();
        for (key, record) in &self.completed {
            by_key.entry(key.clone()).or_default().push(record.clone());
        }
        by_key
            .into_iter()
            .map(|(k, ops)| (k, History::new(ops)))
            .collect()
    }

    /// Writes the kept spans as JSON lines, oldest first.
    pub fn write_trace(&self, path: &Path) -> io::Result<usize> {
        let mut spans: Vec<Span> = self.op_spans.clone();
        for t in &self.traces {
            spans.extend(lock(t).spans.iter().cloned());
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let op = s.op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"node\":{},\"start_ns\":{},\"end_ns\":{},\"cause\":{},\"op\":{op}}}",
                s.id, s.name, s.node, s.start_ns, s.end_ns, s.cause
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Handler executions summed over one side of the fleet.
#[derive(Default)]
struct Handlers {
    count: u64,
    timers: u64,
    cpu_ns: u64,
}

/// One traced run: set up once, forget the warm-up's spans, drive chunks
/// for `seconds`, check the histories, and turn the counters into
/// per-operation metrics. `untraced_ops_per_s` is the same workload's
/// throughput from the untraced run in this process.
pub fn run<V>(
    case: &TcpCase,
    mk: fn(u64) -> V,
    seed: u64,
    seconds: f64,
    sizes: Sizes,
    untraced_ops_per_s: f64,
    trace_path: &Path,
) -> Report
where
    V: Payload + BulkCodec + Send + Sync,
{
    let mut net = match TracedNet::<V>::deploy(case) {
        Ok(net) => net,
        Err(e) => return Report::all_failed(0, format!("traced deploy failed: {e}")),
    };
    let warmup = case.warmup(seed, sizes.warmup_ops);
    if let Err(e) = net.drive(&warmup, |id| mk(warmup_value_id(id))) {
        return Report::all_failed(sizes.warmup_ops, e);
    }
    let measured_from = net.next_op;
    net.reset_traces();

    let window = Duration::from_secs_f64(seconds);
    let cpu_before = process_cpu_us();
    let started = Instant::now();
    let mut attempted = 0u64;
    let mut chunk_ops_per_s = Vec::new();
    let mut stall = None;
    while started.elapsed() < window && stall.is_none() {
        let chunk = chunk_ops_per_s.len() as u64;
        attempted += CHUNK_OPS;
        let w = case.chunk(seed, chunk);
        let t = Instant::now();
        match net.drive(&w, |id| mk(chunk_value_id(chunk, id))) {
            Ok(done) => chunk_ops_per_s.push(done as f64 / t.elapsed().as_secs_f64()),
            Err(e) => stall = Some(e),
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu_us = process_cpu_us() - cpu_before;

    let verdict = judge(net.histories(), measured_from);
    let completed = verdict.measured_ops;
    let drops = net.drops.load(Ordering::Relaxed);
    let rejects = net.fabric.decode_rejects();
    let failed = failed_ops(attempted, completed, drops, rejects, verdict.bad_key_ops);
    let mut report = Report {
        attempted,
        failed,
        correct: failed == 0,
        ..Report::default()
    };
    report.notes.extend(stall);
    report.notes.extend(verdict.first_error);

    let ops = completed.max(1) as f64;
    let (mut client, mut server) = (Handlers::default(), Handlers::default());
    let (mut sends, mut send_ns, mut body_bytes) = (0u64, 0u64, 0u64);
    let mut by_label: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut durations: Vec<u64> = Vec::new();
    let mut captured: Vec<StoreWire<V>> = Vec::new();
    for t in &net.traces {
        let t = lock(t);
        let side = if t.is_client {
            &mut client
        } else {
            &mut server
        };
        side.count += t.handlers;
        side.timers += t.timer_handlers;
        side.cpu_ns += t.handler_cpu_ns;
        sends += t.sends;
        send_ns += t.send_cpu_ns;
        body_bytes += t.body_bytes;
        for (&label, n) in &t.by_label {
            *by_label.entry(label).or_default() += n;
        }
        durations.extend(t.send_durations_ns.iter().map(|&d| u64::from(d)));
        captured.extend(t.captured.iter().cloned());
    }
    durations.sort_unstable();
    let client_us = client.cpu_ns as f64 / 1e3 / ops;
    let server_us = server.cpu_ns as f64 / 1e3 / ops;
    let send_us = send_ns as f64 / 1e3 / ops;
    let traced_cpu_us = cpu_us / ops;
    // Reader threads, channel hops, wake-ups — and the tracing itself.
    let unattributed_us = traced_cpu_us - client_us - server_us - send_us;
    report.set("store.client.handler_us_per_op", client_us);
    report.set("store.client.handlers_per_op", client.count as f64 / ops);
    report.set(
        "store.client.timer_handlers_per_op",
        client.timers as f64 / ops,
    );
    report.set("store.server.handler_us_per_op", server_us);
    report.set("store.server.handlers_per_op", server.count as f64 / ops);
    report.set("net.transport.send_us_per_op", send_us);
    report.set(
        "net.transport.send_us_p99",
        percentile(&durations, 0.99).map_or(0.0, |ns| ns as f64 / 1e3),
    );
    report.set("net.transport.sends_per_op", sends as f64 / ops);
    report.set(
        "net.transport.wire_bytes_per_op",
        (body_bytes + FRAME_OVERHEAD * sends) as f64 / ops,
    );
    for &label in DATA_LABELS {
        let n = by_label.get(label).copied().unwrap_or(0);
        report.set(label_metric("store.sends_per_op", label), n as f64 / ops);
    }
    // The simulator's definitions, so the two backends compare: metadata
    // (BATCH) sends, and message body bytes without framing.
    report.set(
        "msgs_per_op",
        by_label.get("BATCH").copied().unwrap_or(0) as f64 / ops,
    );
    report.set("wire_bytes_per_op", body_bytes as f64 / ops);
    report.set("sim.runtime.unattributed_cpu_us_per_op", unattributed_us);
    // Median chunk against median chunk, as the untraced run reports it.
    let traced_ops_per_s = median(&chunk_ops_per_s).unwrap_or(0.0);
    report.set(
        "trace.overhead_frac",
        1.0 - traced_ops_per_s / untraced_ops_per_s,
    );
    report.notes.push(format!(
        "traced run: {completed} ops in {wall:.2} s = {traced_ops_per_s:.0} ops/s (untraced {untraced_ops_per_s:.0}); \
         cpu {traced_cpu_us:.1} us/op = client {client_us:.1} + server {server_us:.1} + send {send_us:.1} + unattributed {unattributed_us:.1}"
    ));

    replay(&net.codec, &captured, &mut report);
    match net.write_trace(trace_path) {
        Ok(n) => report
            .notes
            .push(format!("{n} spans written to {}", trace_path.display())),
        Err(e) => {
            report.correct = false;
            report
                .notes
                .push(format!("writing {} failed: {e}", trace_path.display()));
        }
    }
    report
}

/// Times the captured messages through the codec and the framing calls on
/// an in-memory cursor: what the wire format costs without the kernel.
fn replay<V>(codec: &WireCodec, captured: &[StoreWire<V>], report: &mut Report)
where
    V: Payload + BulkCodec,
{
    if captured.is_empty() {
        return;
    }
    let n = captured.len() as f64;
    let frames: Vec<Vec<u8>> = captured.iter().map(|m| codec.encode(m)).collect();
    let total: usize = frames.iter().map(Vec::len).sum();
    let encode = bench_ns(|| {
        captured
            .iter()
            .map(|m| codec.encode(m).len())
            .sum::<usize>()
    });
    let decode = bench_ns(|| {
        frames
            .iter()
            .filter(|f| codec.decode_payload::<V>(&f[4..]).is_ok())
            .count()
    });
    let mut wire = Vec::with_capacity(total);
    let frame_io = bench_ns(|| {
        wire.clear();
        for f in &frames {
            write_frame(&mut wire, f).expect("writing to memory");
        }
        let mut cursor = Cursor::new(&wire[..]);
        let mut read = 0usize;
        while let Ok(Some(payload)) = read_frame(&mut cursor) {
            read += payload.len();
        }
        read
    });
    report.set("net.codec.encode_ns_per_msg", encode / n);
    report.set("net.codec.decode_ns_per_msg", decode / n);
    report.set("net.codec.bytes_per_msg", total as f64 / n);
    report.set("net.codec.frame_io_ns_per_msg", frame_io / n);
    report.notes.push(format!(
        "codec replay over {} captured messages",
        captured.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tcp_async_read;

    #[test]
    fn span_node_keeps_invoke_downcasts_working() {
        // `drive` reaches every client through
        // `ThreadRuntime::invoke::<StoreClientNode<_>>`; a wrapper that
        // returned itself from `as_any_mut` would panic the node thread
        // and the run would stall instead of completing.
        let case = tcp_async_read(7);
        let mut net = TracedNet::<u64>::deploy(&case).expect("deploy");
        let w = case.warmup(7, 200);
        assert_eq!(net.drive(&w, |id| id), Ok(200));
        let verdict = judge(net.histories(), 0);
        assert_eq!((verdict.measured_ops, verdict.bad_key_ops), (200, 0));

        let (mut handlers, mut sends, mut with_op) = (0, 0, 0);
        for t in &net.traces {
            let t = lock(t);
            handlers += t.handlers;
            sends += t.sends;
            with_op += t.spans.iter().filter(|s| s.op.is_some()).count();
            // Every send names the handler on its own thread that caused it.
            assert!(t
                .spans
                .iter()
                .filter(|s| s.name == "transport.send")
                .all(|s| s.cause >> 40 == u64::from(t.node) && s.cause != 0));
        }
        assert!(handlers > 200 && sends > 200);
        assert_eq!(with_op, 200, "one invoke handler span per operation");
        assert_eq!(net.op_spans.len(), 200);

        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let written = net.write_trace(&path).expect("trace file");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), written);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
