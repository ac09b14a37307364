//! The same protocol state machines, off the simulator: a regular SWSR
//! register deployment running on worker threads (one per core) and
//! `std::sync::mpsc` channels via
//! [`ThreadRuntime`](stabilizing_storage::sim::ThreadRuntime).
//!
//! ```sh
//! cargo run --release --example live_threads
//! ```

use stabilizing_storage::core::harness::SwsrBuilder;
use stabilizing_storage::core::{ClientOut, RegId, RegMsg, RegisterConfig};
use stabilizing_storage::core::{
    PlainStamp, RegularPolicy, RegularReader, RegularWriter, ServerNode,
};
use stabilizing_storage::sim::{Node, OpId, ProcessId, ThreadRuntime};
use std::time::Duration;

fn main() {
    let (n, t) = (9, 1);
    let cfg = RegisterConfig::asynchronous(n, t);

    // ProcessIds are assigned by position: 0 = writer, 1 = reader, 2.. = servers.
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

    println!("spawning {} nodes on worker threads…", nodes.len());
    let rt = ThreadRuntime::spawn(nodes, 42);

    for v in 1..=5u64 {
        rt.invoke::<RegularWriter<u64>>(writer, move |w, ctx| {
            w.invoke_write(OpId(v * 2), v, ctx);
        });
        let (pid, out) = rt
            .recv_output(Duration::from_secs(10))
            .expect("write completes");
        println!("  {pid}: {out:?}");

        rt.invoke::<RegularReader<u64>>(reader, move |r, ctx| {
            r.invoke_read(OpId(v * 2 + 1), ctx);
        });
        let (pid, out) = rt
            .recv_output(Duration::from_secs(10))
            .expect("read completes");
        println!("  {pid}: {out:?}");
        if let ClientOut::ReadDone { value, .. } = out {
            assert_eq!(value, v, "read returns the just-written value");
        }
    }

    rt.shutdown();
    println!("threads joined; same state machines, no simulator ✓");

    // And the simulator agrees, for the record:
    let mut sim_reg = SwsrBuilder::new(n, t).seed(42).build_regular(0u64);
    sim_reg.write(1);
    sim_reg.read();
    assert!(sim_reg.settle());
    println!("simulator cross-check ✓");
}
