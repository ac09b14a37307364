//! The same register protocol on OS threads: the `Node` contract is
//! runtime-agnostic, so a deployment on `ThreadRuntime` must behave like
//! the simulated one — with every node on one worker and with a worker
//! per node alike.

use stabilizing_storage::core::{
    AtomicPolicy, AtomicReader, AtomicWriter, ClientOut, PlainStamp, RegId, RegMsg, RegisterConfig,
    RegularPolicy, RegularReader, RegularWriter, ServerNode, WsnStamp,
};
use stabilizing_storage::sim::{LocalTransport, Message, Node, OpId, ProcessId, ThreadRuntime};
use stabilizing_storage::stamps::RingSeq;
use std::time::Duration;

/// Both placements of `nodes` nodes: all on one worker, one per node.
fn placements(nodes: usize) -> [usize; 2] {
    [1, nodes]
}

/// `nodes` on the in-process transport, on exactly `workers` workers.
fn spawn_on<M: Message + Send, O: Send + 'static>(
    workers: usize,
    nodes: Vec<Box<dyn Node<Msg = M, Out = O> + Send>>,
    seed: u64,
) -> ThreadRuntime<M, O> {
    ThreadRuntime::spawn_with_workers(workers, nodes, seed, |_, injectors| {
        Box::new(LocalTransport::new(injectors.to_vec()))
    })
}

fn spawn_regular(
    n: usize,
    t: usize,
    seed: u64,
    workers: usize,
) -> (
    ThreadRuntime<RegMsg<u64>, ClientOut<u64>>,
    ProcessId,
    ProcessId,
) {
    let cfg = RegisterConfig::asynchronous(n, t);
    let writer = ProcessId(0);
    let reader = ProcessId(1);
    let servers: Vec<ProcessId> = (2..2 + n as u32).map(ProcessId).collect();
    let mut nodes: Vec<Box<dyn Node<Msg = RegMsg<u64>, Out = ClientOut<u64>> + Send>> = vec![
        Box::new(RegularWriter::<u64>::new(
            RegId(0),
            cfg,
            servers.clone(),
            vec![reader],
            PlainStamp,
        )),
        Box::new(RegularReader::<u64>::new(
            RegId(0),
            cfg,
            servers.clone(),
            RegularPolicy,
        )),
    ];
    for _ in 0..n {
        nodes.push(Box::new(ServerNode::<u64, ClientOut<u64>>::new(0)));
    }
    (spawn_on(workers, nodes, seed), writer, reader)
}

#[test]
fn regular_register_on_threads() {
    for workers in placements(11) {
        let (rt, writer, reader) = spawn_regular(9, 1, 1, workers);
        for v in 1..=5u64 {
            rt.invoke::<RegularWriter<u64>>(writer, move |w, ctx| {
                w.invoke_write(OpId(v * 2), v, ctx)
            });
            let (_, out) = rt.recv_output(Duration::from_secs(10)).expect("write done");
            assert_eq!(out.op(), OpId(v * 2));

            rt.invoke::<RegularReader<u64>>(reader, move |r, ctx| {
                r.invoke_read(OpId(v * 2 + 1), ctx)
            });
            let (_, out) = rt.recv_output(Duration::from_secs(10)).expect("read done");
            match out {
                ClientOut::ReadDone { value, .. } => assert_eq!(value, v),
                other => panic!("expected a read completion, got {other:?}"),
            }
        }
        rt.shutdown();
    }
}

#[test]
fn atomic_register_on_threads() {
    use stabilizing_storage::core::SeqVal;
    let (n, t) = (9, 1);
    let cfg = RegisterConfig::asynchronous(n, t);
    let writer = ProcessId(0);
    let reader = ProcessId(1);
    let servers: Vec<ProcessId> = (2..2 + n as u32).map(ProcessId).collect();
    let modulus = sbs_stamps_modulus();
    let initial = SeqVal::new(RingSeq::zero(modulus), 0u64);

    type AtomicNode = Box<dyn Node<Msg = RegMsg<SeqVal<u64>>, Out = ClientOut<SeqVal<u64>>> + Send>;
    for workers in placements(n + 2) {
        let mut nodes: Vec<AtomicNode> = vec![
            Box::new(AtomicWriter::<u64>::new(
                RegId(0),
                cfg,
                servers.clone(),
                vec![reader],
                WsnStamp::new(RingSeq::zero(modulus)),
            )),
            Box::new(AtomicReader::<u64>::new(
                RegId(0),
                cfg,
                servers.clone(),
                AtomicPolicy::new(),
            )),
        ];
        for _ in 0..n {
            nodes.push(Box::new(
                ServerNode::<SeqVal<u64>, ClientOut<SeqVal<u64>>>::new(initial.clone()),
            ));
        }
        let rt = spawn_on(workers, nodes, 2);

        for v in 1..=4u64 {
            rt.invoke::<AtomicWriter<u64>>(writer, move |w, ctx| {
                w.invoke_write(OpId(v * 2), v, ctx)
            });
            rt.recv_output(Duration::from_secs(10)).expect("write done");
            rt.invoke::<AtomicReader<u64>>(reader, move |r, ctx| {
                r.invoke_read(OpId(v * 2 + 1), ctx)
            });
            let (_, out) = rt.recv_output(Duration::from_secs(10)).expect("read done");
            match out {
                ClientOut::ReadDone { value, .. } => assert_eq!(value.val, v),
                other => panic!("expected a read completion, got {other:?}"),
            }
        }
        rt.shutdown();
    }
}

fn sbs_stamps_modulus() -> u128 {
    stabilizing_storage::stamps::PAPER_MODULUS
}

#[test]
fn byzantine_silence_on_threads_is_tolerated() {
    // Replace one server with a mute node; the quorums still complete.
    let (n, t) = (9, 1);
    let cfg = RegisterConfig::asynchronous(n, t);
    let writer = ProcessId(0);
    let reader = ProcessId(1);
    let servers: Vec<ProcessId> = (2..2 + n as u32).map(ProcessId).collect();

    struct Mute;
    impl Node for Mute {
        type Msg = RegMsg<u64>;
        type Out = ClientOut<u64>;
        fn on_message(
            &mut self,
            _: ProcessId,
            _: RegMsg<u64>,
            _: &mut stabilizing_storage::sim::Context<'_, RegMsg<u64>, ClientOut<u64>>,
        ) {
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    for workers in placements(n + 2) {
        let mut nodes: Vec<Box<dyn Node<Msg = RegMsg<u64>, Out = ClientOut<u64>> + Send>> = vec![
            Box::new(RegularWriter::<u64>::new(
                RegId(0),
                cfg,
                servers.clone(),
                vec![reader],
                PlainStamp,
            )),
            Box::new(RegularReader::<u64>::new(
                RegId(0),
                cfg,
                servers.clone(),
                RegularPolicy,
            )),
        ];
        for i in 0..n {
            if i == 4 {
                nodes.push(Box::new(Mute));
            } else {
                nodes.push(Box::new(ServerNode::<u64, ClientOut<u64>>::new(0)));
            }
        }
        let rt = spawn_on(workers, nodes, 3);

        rt.invoke::<RegularWriter<u64>>(writer, |w, ctx| w.invoke_write(OpId(1), 42, ctx));
        rt.recv_output(Duration::from_secs(10)).expect("write done");
        rt.invoke::<RegularReader<u64>>(reader, |r, ctx| r.invoke_read(OpId(2), ctx));
        let (_, out) = rt.recv_output(Duration::from_secs(10)).expect("read done");
        match out {
            ClientOut::ReadDone { value, .. } => assert_eq!(value, 42),
            other => panic!("expected a read completion, got {other:?}"),
        }
        rt.shutdown();
    }
}
