//! The four workloads as inputs: fleet, mix, value type and fault plan.
//! Everything here is a pure function of the seed — the program under test
//! receives only these generated inputs.

use sbs_core::ByzStrategy;
use sbs_sim::SimDuration;
use sbs_store::{FaultPlan, KeyDist, LoopMode, OpMix, SizedVal, StoreBuilder, Workload};

/// Keys in every workload's key space.
pub const KEYS: usize = 64;
/// Zipfian skew of every workload (YCSB's default).
const THETA: f64 = 0.99;
/// Value ids of warm-up puts start here, far above any measured id, so
/// values stay unique per key across the warm-up and the measured phase.
const WARMUP_VALUE_BASE: u64 = 1 << 48;
/// Operations per measured `run_workload` call on sockets. The measured
/// phase is as many of these chunks as fit `--seconds`; each chunk's tail
/// (the closed loop draining) is 3 of its 2 000 operations.
pub const CHUNK_OPS: u64 = 2_000;

/// Sizes that `--smoke` divides by 20.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Warm-up operations per socket deployment.
    pub warmup_ops: u64,
    /// How many times a run sets up (the median is `setup_s`).
    pub setups: usize,
    /// What a simulator case's operations per seed are divided by.
    pub sim_shrink: u64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        warmup_ops: 2_000,
        setups: 3,
        sim_shrink: 1,
    };
    pub const SMOKE: Sizes = Sizes {
        warmup_ops: 100,
        setups: 1,
        sim_shrink: 20,
    };
}

/// A closed-loop Zipfian workload over [`KEYS`] keys.
pub fn closed_loop(ops: u64, mix: OpMix, seed: u64, faults: FaultPlan) -> Workload {
    Workload {
        ops,
        keys: KEYS,
        mix,
        dist: KeyDist::Zipfian { theta: THETA },
        loop_mode: LoopMode::Closed,
        seed,
        faults,
    }
}

/// The workload seed of the `i`-th chunk of a run (chunk `u64::MAX` is the
/// warm-up): distinct per run seed and chunk.
fn chunk_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i)
}

/// The value id the `id`-th put of the warm-up writes.
pub fn warmup_value_id(id: u64) -> u64 {
    WARMUP_VALUE_BASE + id
}

/// The value id the `id`-th put of measured chunk `chunk` writes: unique
/// across chunks, and below every warm-up id.
pub fn chunk_value_id(chunk: u64, id: u64) -> u64 {
    (chunk << 32) + id
}

/// 2 writers + 2 read-only clients, as on every socket workload.
fn four_clients(builder: StoreBuilder, seed: u64) -> StoreBuilder {
    builder.seed(seed).shards(4).writers(2).extra_readers(2)
}

/// One socket workload: the fleet and the mix. The value type is the
/// caller's (`u64` on the full plane, [`SizedVal`] on the coded one).
#[derive(Clone, Debug)]
pub struct TcpCase {
    pub builder: StoreBuilder,
    pub mix: OpMix,
}

impl TcpCase {
    /// The warm-up of run `seed`: `ops` operations of this case's mix.
    pub fn warmup(&self, seed: u64, ops: u64) -> Workload {
        closed_loop(ops, self.mix, chunk_seed(seed, u64::MAX), FaultPlan::none())
    }

    /// Measured chunk `chunk` of run `seed`.
    pub fn chunk(&self, seed: u64, chunk: u64) -> Workload {
        closed_loop(
            CHUNK_OPS,
            self.mix,
            chunk_seed(seed, chunk),
            FaultPlan::none(),
        )
    }
}

/// YCSB-B over the whole fleet — 95 % gets, 5 % puts. Only the two
/// writers can put, so their streams run 90/10 and the two read-only
/// clients read; `OpMix::ycsb_b()` on every stream would halve the put
/// share and leave a 20 s run too few puts for more than one p99 window.
pub fn tcp_async_read(seed: u64) -> TcpCase {
    TcpCase {
        builder: four_clients(StoreBuilder::asynchronous(1), seed),
        mix: OpMix {
            read_fraction: 0.90,
        },
    }
}

/// Bytes of one value on `tcp_async_update_coded`: 16 keys per shard make
/// a ≈ 64 KiB snapshot, dispersed 2-of-3 on every put.
pub const CODED_TCP_VALUE_LEN: u32 = 4_096;

pub fn tcp_async_update_coded(seed: u64) -> TcpCase {
    TcpCase {
        builder: four_clients(StoreBuilder::asynchronous(1), seed).bulk_coded(2),
        mix: OpMix::ycsb_a(),
    }
}

/// The value the `id`-th write of a coded socket run stores.
pub fn coded_tcp_value(id: u64) -> SizedVal {
    SizedVal::new(id, CODED_TCP_VALUE_LEN)
}

/// One simulator workload: what runs on one simulator seed, and on which
/// seeds.
pub struct SimCase<V> {
    /// The fleet and the faulted workload for one simulator seed and
    /// operation count.
    pub plan: fn(u64, u64) -> (StoreBuilder, Workload),
    /// The value the `id`-th write stores.
    pub value: fn(u64) -> V,
    /// Operations per simulator seed of a full-size run.
    pub ops_per_seed: u64,
    /// Seeds in `1..=120` on which the workload does not complete cleanly
    /// at the commit that defined the benchmark. A benchmark run must not
    /// fail an operation, so run seeds map onto the other seeds.
    pub excluded_seeds: &'static [u64],
}

impl<V> SimCase<V> {
    /// Operations per simulator seed at `sizes`.
    pub fn ops(&self, sizes: Sizes) -> u64 {
        self.ops_per_seed / sizes.sim_shrink
    }
}

/// Bytes of one value on `sim_faulted_coded`.
pub const SIM_VALUE_LEN: u32 = 1_024;

/// Seeds 18, 57 and 110 livelock at operation 4 207 (Byzantine server +
/// server corruption + client corruption on the coded plane — ROADMAP item
/// 3), each burning a minute of wall time in the driver's stall detector,
/// and 65 returns one non-atomic read on `key2` inside the fault window.
pub fn sim_faulted_coded() -> SimCase<SizedVal> {
    SimCase {
        plan: faulted_coded_plan,
        value: |id| SizedVal::new(id, SIM_VALUE_LEN),
        ops_per_seed: 5_000,
        excluded_seeds: &[18, 57, 65, 110],
    }
}

fn faulted_coded_plan(sim_seed: u64, ops: u64) -> (StoreBuilder, Workload) {
    let builder = StoreBuilder::asynchronous(1)
        .bulk_coded(2)
        .seed(sim_seed)
        .shards(8)
        .writers(4)
        .extra_readers(2)
        .anti_entropy(SimDuration::millis(2))
        .monitor();
    // Wiped server 7 and Byzantine server 3 share no shard's replica
    // window; see the README for what happens when they do.
    let faults = FaultPlan {
        byzantine: vec![(3, ByzStrategy::StaleReplay)],
        corruptions: vec![(SimDuration::millis(300), 1)],
        client_corruptions: vec![(SimDuration::millis(400), 0)],
        link_garbage: vec![(SimDuration::millis(500), 2)],
        data_wipes: vec![(SimDuration::millis(600), 7)],
        reshards: Vec::new(),
    };
    (builder, closed_loop(ops, OpMix::ycsb_a(), sim_seed, faults))
}

/// The synchronous fleet (4 servers, 5 ms bound) on the simulator, with
/// the socket workloads' four clients and YCSB-A: Byzantine server 3 from
/// the start and one server corruption. Each of the coded workload's other
/// transient faults fails operations here (link garbage stalls one seed
/// in eight at about operation 120, client corruption stalls one seed of
/// 120 and leaves non-atomic histories on others — see the README), so the plan stops short of
/// them; all 120 seeds complete cleanly.
pub fn sim_sync_update() -> SimCase<u64> {
    SimCase {
        plan: sync_update_plan,
        value: |id| id,
        ops_per_seed: 200_000,
        excluded_seeds: &[],
    }
}

fn sync_update_plan(sim_seed: u64, ops: u64) -> (StoreBuilder, Workload) {
    let builder = four_clients(
        StoreBuilder::synchronous(1, SimDuration::millis(5)),
        sim_seed,
    )
    .monitor();
    let faults = FaultPlan {
        byzantine: vec![(3, ByzStrategy::StaleReplay)],
        corruptions: vec![(SimDuration::millis(300), 1)],
        client_corruptions: Vec::new(),
        link_garbage: Vec::new(),
        data_wipes: Vec::new(),
        reshards: Vec::new(),
    };
    (builder, closed_loop(ops, OpMix::ycsb_a(), sim_seed, faults))
}
