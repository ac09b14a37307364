//! Probes: one timed call per layer primitive, on seeded inputs sized to
//! the workloads. They run outside every measured phase, and each reports
//! the median of several samples (see `stats::bench_ns`).

use crate::report::Report;
use crate::stats::{bench_batched_ns, bench_ns};
use crate::workloads::{closed_loop, CODED_TCP_VALUE_LEN};
use sbs_bulk::{
    digest_of, encode_fragments, fragment_leaves, reconstruct, verify_fragment, MerkleTree,
    SharedBytes,
};
use sbs_check::{check_linearizable, History, InitialState, OpKind};
use sbs_core::harness::SwsrBuilder;
use sbs_link::DataLinkSim;
use sbs_obs::{ConsistencyMonitor, LatencyHistogram};
use sbs_sim::{
    Context, DetRng, Message, Node, ProcessId, SimConfig, SimTime, Simulation, ThreadRuntime,
};
use sbs_stamps::{EpochDomain, RingSeq, Timestamp, PAPER_MODULUS};
use sbs_store::{FaultPlan, KeyRouter, OpMix, ShardMap, SizedVal, StoreBuilder};
use std::any::Any;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The snapshot one put of `tcp_async_update_coded` disperses: 16 keys of
/// 4 KiB values.
const SNAPSHOT_BYTES: usize = 16 * CODED_TCP_VALUE_LEN as usize;
const SNAPSHOT_KIB: f64 = SNAPSHOT_BYTES as f64 / 1024.0;
/// The coded plane's shape at `t = 1`: any 2 of 3 fragments reconstruct.
const K: usize = 2;
const M: usize = 3;
/// Round trips of the two ping-pong probes.
const ROUND_TRIPS: u64 = 20_000;

/// Runs every probe and adds its metric to `report`.
pub fn run(seed: u64, report: &mut Report) {
    bulk(seed, report);
    store(report);
    core_registers(seed, report);
    stamps(report);
    report.set(
        "link.transfer_ns",
        bench_ns(|| {
            let mut dl = DataLinkSim::new(4, 0.0, 0.0, seed);
            for m in 0..10u64 {
                dl.sender.send(m);
            }
            assert!(dl.run_until_idle(1_000_000));
            dl.packets_sent()
        }) / 10.0,
    );
    report.set("sim.runtime.hop_ns", thread_runtime_hop_ns());
    report.set("sim.sim.ns_per_event", simulation_ns_per_event(seed));
    recorded_history(seed, report);
    let mut hist = LatencyHistogram::new();
    let mut v = seed | 1;
    report.set(
        "obs.hist.record_ns",
        bench_ns(|| {
            // A cheap walk over the latency range the workloads produce.
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(100_000 + (v >> 40));
        }),
    );
}

fn bulk(seed: u64, report: &mut Report) {
    let mut rng = DetRng::from_seed(seed);
    let snapshot: Vec<u8> = (0..SNAPSHOT_BYTES).map(|_| rng.next_u64() as u8).collect();
    report.set(
        "bulk.digest_ns_per_kib",
        bench_ns(|| digest_of(black_box(&snapshot))) / SNAPSHOT_KIB,
    );
    report.set(
        "bulk.coding.encode_ns_per_kib",
        bench_ns(|| encode_fragments(black_box(&snapshot), K, M)) / SNAPSHOT_KIB,
    );
    let frags = encode_fragments(&snapshot, K, M);
    // One data fragment and the parity fragment: the path that has to
    // invert, as after a replica's data fragment is lost.
    let survivors: Vec<(u32, SharedBytes)> = vec![(1, frags[1].clone()), (2, frags[2].clone())];
    assert_eq!(
        reconstruct(K, snapshot.len() as u64, &survivors).as_deref(),
        Some(&snapshot[..])
    );
    report.set(
        "bulk.coding.reconstruct_ns_per_kib",
        bench_ns(|| reconstruct(K, snapshot.len() as u64, black_box(&survivors))) / SNAPSHOT_KIB,
    );
    report.set(
        "bulk.merkle.commit_ns",
        bench_ns(|| MerkleTree::build(&fragment_leaves(black_box(&frags))).root()),
    );
    let tree = MerkleTree::build(&fragment_leaves(&frags));
    let (root, proof) = (tree.root(), tree.proof(1));
    assert!(verify_fragment(root, M, 1, &frags[1], &proof));
    report.set(
        "bulk.merkle.verify_ns",
        bench_ns(|| verify_fragment(root, M, 1, black_box(&frags[1]), &proof)),
    );
}

fn store(report: &mut Report) {
    let mut map: ShardMap<SizedVal> = ShardMap::new();
    for i in 0..16u64 {
        map.insert(&format!("key{i}"), SizedVal::new(i, CODED_TCP_VALUE_LEN));
    }
    let mut id = 16u64;
    report.set(
        "store.map.insert_clone_ns",
        bench_ns(|| {
            // What a put does to its shard: copy the snapshot, overwrite
            // one key.
            id += 1;
            let mut next = black_box(&map).clone();
            next.insert("key7", SizedVal::new(id, CODED_TCP_VALUE_LEN));
            next
        }),
    );
    let router = KeyRouter::new(4, 2);
    report.set(
        "store.router.route_ns",
        bench_ns(|| router.writer_of(black_box("key17"))),
    );
}

fn core_registers(seed: u64, report: &mut Report) {
    let build = || SwsrBuilder::new(9, 1).seed(seed).build_atomic(0u64);
    report.set(
        "core.swsr_write_us",
        bench_batched_ns(build, |mut sys| {
            sys.write(1);
            assert!(sys.settle());
            sys
        }) / 1e3,
    );
    report.set(
        "core.swsr_read_us",
        bench_batched_ns(
            || {
                let mut sys = build();
                sys.write(1);
                assert!(sys.settle());
                sys
            },
            |mut sys| {
                sys.read();
                assert!(sys.settle());
                sys
            },
        ) / 1e3,
    );
}

fn stamps(report: &mut Report) {
    let a = RingSeq::new(123_456_789, PAPER_MODULUS);
    let b = RingSeq::new((1u128 << 63) + 17, PAPER_MODULUS);
    report.set(
        "stamps.ring_cmp_ns",
        bench_ns(|| black_box(a).cd_gt(black_box(b))),
    );
    let dom = EpochDomain::new(8);
    let mut chain = vec![dom.initial()];
    for _ in 0..7 {
        let next = dom.next_epoch(chain.iter());
        chain.push(next);
    }
    report.set(
        "stamps.epoch_next_ns",
        bench_ns(|| dom.next_epoch(black_box(&chain))),
    );
    let x = Timestamp::new(chain[0].clone(), 100, 1);
    let y = Timestamp::new(chain[1].clone(), 2, 0);
    report.set(
        "stamps.timestamp_cmp_ns",
        bench_ns(|| black_box(&x).cmp_to(black_box(&y))),
    );
}

/// The ping-pong protocol of the two runtime probes.
#[derive(Clone, Debug)]
enum Ball {
    Ping(u64),
    Pong(u64),
}
impl Message for Ball {}

/// Returns every ball.
struct Wall;
impl Node for Wall {
    type Msg = Ball;
    type Out = u64;
    fn on_message(&mut self, from: ProcessId, msg: Ball, ctx: &mut Context<'_, Ball, u64>) {
        if let Ball::Ping(n) = msg {
            ctx.send(from, Ball::Pong(n));
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Serves again until the count runs out, then reports.
struct Player {
    wall: ProcessId,
}
impl Node for Player {
    type Msg = Ball;
    type Out = u64;
    fn on_message(&mut self, _from: ProcessId, msg: Ball, ctx: &mut Context<'_, Ball, u64>) {
        match msg {
            Ball::Pong(0) => ctx.output(0),
            Ball::Pong(n) => ctx.send(self.wall, Ball::Ping(n - 1)),
            Ball::Ping(_) => {}
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One message hop between two node threads on the in-process transport:
/// channel send, wake-up, handler dispatch.
fn thread_runtime_hop_ns() -> f64 {
    let wall = ProcessId(0);
    let nodes: Vec<Box<dyn Node<Msg = Ball, Out = u64> + Send>> =
        vec![Box::new(Wall), Box::new(Player { wall })];
    let rt = ThreadRuntime::spawn(nodes, 1);
    let t = Instant::now();
    rt.invoke::<Player>(ProcessId(1), move |_, ctx| {
        ctx.send(wall, Ball::Ping(ROUND_TRIPS))
    });
    rt.recv_output(Duration::from_secs(60))
        .expect("the rally ends");
    let ns = t.elapsed().as_nanos() as f64;
    rt.shutdown();
    ns / (2 * (ROUND_TRIPS + 1)) as f64
}

/// Wall time per simulator event on the same rally: queue pop, link delay
/// draw, handler dispatch, metrics.
fn simulation_ns_per_event(seed: u64) -> f64 {
    let mut sim: Simulation<Ball, u64> = Simulation::new(SimConfig::with_seed(seed));
    let wall = sim.add_node(Wall);
    let player = sim.add_node(Player { wall });
    sim.add_duplex_default(wall, player);
    let t = Instant::now();
    sim.with_node::<Player, _>(player, |_, ctx| ctx.send(wall, Ball::Ping(ROUND_TRIPS)));
    assert!(sim.run_until_quiescent(SimTime::from_nanos(u64::MAX)));
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(sim.take_outputs().len(), 1, "the rally ends");
    ns / sim.metrics().events_processed as f64
}

/// One invocation or completion of a recorded run, in time order.
enum Event {
    Invoke {
        op: u64,
        key: String,
        write: Option<Option<u64>>,
    },
    Complete {
        op: u64,
        read: Option<Option<u64>>,
    },
}

/// Records a fault-free 2 000-operation simulator run, then times the
/// online monitor and the post-hoc checker over its history.
fn recorded_history(seed: u64, report: &mut Report) {
    let builder = StoreBuilder::asynchronous(1)
        .seed(seed)
        .shards(4)
        .writers(2)
        .extra_readers(2);
    let (_, sys) = closed_loop(2_000, OpMix::ycsb_a(), seed, FaultPlan::none()).run(&builder);
    let histories: Vec<(String, History<Option<u64>>)> = sys
        .keys_touched()
        .into_iter()
        .map(|k| (k.clone(), sys.history_for_key(&k)))
        .collect();
    let mut events: Vec<(u64, u8, Event)> = Vec::new();
    for (key, h) in &histories {
        for r in h.ops() {
            let (write, read) = match &r.kind {
                OpKind::Write(v) => (Some(*v), None),
                OpKind::Read(v) => (None, Some(*v)),
            };
            let invoke = Event::Invoke {
                op: r.op.0,
                key: key.clone(),
                write,
            };
            events.push((r.invoked.as_nanos(), 0, invoke));
            events.push((
                r.responded.as_nanos(),
                1,
                Event::Complete { op: r.op.0, read },
            ));
        }
    }
    events.sort_by_key(|(at, order, _)| (*at, *order));
    let ops = events.len() as f64 / 2.0;

    let monitor_ns = bench_ns(|| {
        let mut monitor: ConsistencyMonitor<Option<u64>> = ConsistencyMonitor::with_initial(None);
        for (at, _, event) in &events {
            match event {
                Event::Invoke { op, key, write } => monitor.op_invoked(*op, key, *at, *write),
                Event::Complete { op, read } => {
                    monitor.op_completed(*op, *at, *read);
                }
            }
        }
        assert!(monitor.is_clean());
        monitor.ops_observed()
    });
    report.set("obs.monitor.ns_per_op", monitor_ns / ops);

    let initial = InitialState::OneOf(std::iter::once(None).collect());
    let check_ns = bench_ns(|| {
        histories
            .iter()
            .filter(|(_, h)| check_linearizable(h, &initial).is_ok_and(|r| r.linearizable))
            .count()
    });
    report.set("check.linearize_us_per_kop", check_ns / 1e3 / (ops / 1e3));
}
