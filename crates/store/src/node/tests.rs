//! Unit tests of the store nodes: the server wrapper's admission guard
//! and bulk-plane serving, the healer's repair and anti-entropy, and the
//! client's routing precondition.

use super::healer::ANTI_ENTROPY_BATCH;
use super::*;
use crate::msg::{Holding, StoreMsg, StoreOut};
use crate::router::KeyRouter;
use sbs_bulk::{digest_of, encode_fragments, fragment_leaves, verify_fragment, Holder, MerkleTree};
use sbs_core::{RegId, RegMsg, RegisterConfig, ServerNode};
use sbs_sim::{Context, DetRng, Effects, Node, OpId, SimDuration, SimTime};
use std::collections::BTreeSet;

type TestServer = StoreServerNode<u64, ServerNode<u64, ()>>;

/// The guarded tests' fleet: 9 servers whose process ids are their
/// slots.
fn fleet() -> Vec<ProcessId> {
    (0..9).map(ProcessId).collect()
}

/// A client of [`fleet`] — the only kind of process that pushes.
const CLIENT: ProcessId = ProcessId(20);

/// A `k`-of-3 dispersal of `bytes`: its fragments and their tree.
fn dispersal(bytes: &[u8], k: usize) -> (Vec<SharedBytes>, MerkleTree) {
    let frags = encode_fragments(bytes, k, 3);
    let tree = MerkleTree::build(&fragment_leaves(&frags));
    (frags, tree)
}

/// The push of fragment `index` of `(frags, tree)` for key slot
/// `slot` of `shard`.
fn frag_put(
    (frags, tree): &(Vec<SharedBytes>, MerkleTree),
    shard: u32,
    slot: u32,
    index: usize,
) -> StoreMsg<u64> {
    StoreMsg::FragPut {
        shard,
        slot,
        root: tree.root(),
        index: index as u32,
        total: 3,
        bytes: frags[index].clone(),
        proof: tree.proof(index),
    }
}

/// A started healing data replica at fleet slot `slot` of 9 (process
/// ids = slots), 4 shards with 3-replica windows, whole copies
/// (`k = 1`) — plus the [`Stepper`] that started it.
fn healing_server(slot: usize) -> (TestServer, Stepper) {
    let mut node = StoreServerNode::new(ServerNode::new(0), slot, fleet(), 4, 3)
        .self_healing(1, SimDuration::millis(2));
    let mut st = Stepper::new(19);
    st.handle(&mut node, |node, ctx| node.on_start(ctx));
    (node, st)
}

/// The handler-driving state a test threads through a server's
/// handlers: the RNG and the timer-id counter.
struct Stepper {
    rng: DetRng,
    nt: u64,
}

impl Stepper {
    fn new(seed: u64) -> Self {
        Stepper {
            rng: DetRng::from_seed(seed),
            nt: 0,
        }
    }

    /// Runs one handler of `node` under a fresh context; returns what
    /// it emitted.
    fn handle(
        &mut self,
        node: &mut TestServer,
        f: impl FnOnce(&mut TestServer, &mut Context<'_, StoreMsg<u64>, ()>),
    ) -> Effects<StoreMsg<u64>, ()> {
        let mut eff = Effects::new();
        let mut ctx = Context::new(
            SimTime::ZERO,
            ProcessId(0),
            &mut self.rng,
            &mut self.nt,
            &mut eff,
        );
        f(node, &mut ctx);
        eff
    }

    /// Delivers `msg` from `from` to `node`.
    fn deliver(
        &mut self,
        node: &mut TestServer,
        from: ProcessId,
        msg: StoreMsg<u64>,
    ) -> Effects<StoreMsg<u64>, ()> {
        self.handle(node, |node, ctx| node.on_message(from, msg, ctx))
    }

    /// Fires the armed anti-entropy timer through `Node::on_timer`.
    fn tick(&mut self, node: &mut TestServer) -> Effects<StoreMsg<u64>, ()> {
        let timer = node.healer.as_ref().unwrap().timer.unwrap();
        self.handle(node, |node, ctx| node.on_timer(timer, ctx))
    }
}

/// Regression (wire input must not exhaust a correct node): a
/// `DIGEST_SUMMARY` longer than one gossip batch, or from a sender
/// outside the fleet's servers, is refused whole — pre-fix every
/// entry of a summary of any length from anyone became a suspect, and
/// every suspect a repair pull re-fanned on each tick.
#[test]
fn digest_summaries_are_refused_when_oversize_or_foreign() {
    // Slot 1 serves shard 1 (window = slots 1, 2, 3).
    let (mut node, mut st) = healing_server(1);
    let summary = |entries: u64| StoreMsg::DigestSummary {
        entries: (0..entries)
            .map(|i| (1, 0, digest_of(&i.to_le_bytes())))
            .collect(),
    };
    let oversize = summary(ANTI_ENTROPY_BATCH as u64 + 1);
    for (from, msg, what) in [
        (ProcessId(2), oversize, "oversize"),
        (ProcessId(42), summary(1), "foreign"),
    ] {
        let eff = st.deliver(&mut node, from, msg);
        assert_eq!(eff.slow_paths().guard_refusals, 1, "{what}");
        assert!(
            node.healer.as_ref().unwrap().suspects.is_empty(),
            "{what}: a refused summary must plant no suspect"
        );
    }
    for _ in 0..3 {
        let eff = st.tick(&mut node);
        assert!(eff.sends().is_empty() && eff.slow_paths().repair_rounds == 0);
    }

    // A full honest batch from a window peer is still taken whole.
    let eff = st.deliver(&mut node, ProcessId(2), summary(ANTI_ENTROPY_BATCH as u64));
    assert_eq!(eff.slow_paths().guard_refusals, 0);
    assert_eq!(
        node.healer.as_ref().unwrap().suspects.len(),
        ANTI_ENTROPY_BATCH
    );
}

/// The repair pulls among `eff`'s sends, as `(to, digest)`.
fn repair_pulls(eff: &Effects<StoreMsg<u64>, ()>) -> Vec<(ProcessId, BulkDigest)> {
    eff.sends()
        .iter()
        .filter_map(|(to, m)| match m {
            StoreMsg::RepairRequest { digest, .. } => Some((*to, *digest)),
            _ => None,
        })
        .collect()
}

/// A replica keeps each key's last two values, so an evicted root is
/// an old value, not a loss: neither a peer's summary naming it nor a
/// reader's fetch of it plants a repair suspect, and ticks bill no
/// repair round. A root the replica never held still ripens into a
/// pull after the grace sweep, and so does the evicted one once a
/// wipe has made the replica forget its evictions.
#[test]
fn evicted_roots_plant_no_repair_suspect() {
    // Slot 1 is position 0 of shard 1's window {1, 2, 3}.
    let (mut node, mut st) = healing_server(1);
    let values: Vec<_> = (0..3u8).map(|i| dispersal(&[i; 24], 1)).collect();
    for d in &values {
        let eff = st.deliver(&mut node, CLIENT, frag_put(d, 1, 0, 0));
        assert!(matches!(eff.sends(), [(_, StoreMsg::FragPutAck { .. })]));
    }
    let old = values[0].1.root();
    assert!(!node.frags.holds(&old) && node.frags.evicted(Holder::new(1, 0), &old));
    let suspects = |node: &TestServer| node.healer.as_ref().unwrap().suspects.len();

    let summary = |digest| StoreMsg::DigestSummary {
        entries: vec![(1, 0, digest)],
    };
    st.deliver(&mut node, ProcessId(2), summary(old));
    assert_eq!(suspects(&node), 0, "a summary naming an evicted root");
    let get = StoreMsg::BulkGet {
        shard: 1,
        slot: 0,
        digest: old,
        tag: 3,
    };
    let eff = st.deliver(&mut node, CLIENT, get);
    assert!(
        matches!(eff.sends(), [(_, StoreMsg::FragGetAck { frag: None, .. })]),
        "the reader is told it is a miss"
    );
    assert_eq!(suspects(&node), 0, "a fetch of an evicted root");
    for _ in 0..3 {
        let eff = st.tick(&mut node);
        assert_eq!(eff.slow_paths().repair_rounds, 0);
        assert!(repair_pulls(&eff).is_empty());
    }

    // A root this replica never held is still pulled from the window
    // peers once it stays missing for a period.
    let lost = dispersal(b"never held here", 1).1.root();
    let ripen = |node: &mut TestServer, st: &mut Stepper, digest| {
        st.deliver(node, ProcessId(2), summary(digest));
        assert_eq!(suspects(node), 1);
        let pulls_of = |eff: &Effects<StoreMsg<u64>, ()>| {
            let mut pulls = repair_pulls(eff);
            pulls.retain(|&(_, d)| d == digest);
            pulls
        };
        assert!(pulls_of(&st.tick(node)).is_empty(), "grace");
        let eff = st.tick(node);
        assert_eq!(
            pulls_of(&eff),
            vec![(ProcessId(2), digest), (ProcessId(3), digest)]
        );
        eff
    };
    let eff = ripen(&mut node, &mut st, lost);
    assert_eq!(eff.slow_paths().repair_rounds, 1);

    // A wiped replica forgets its evictions: the old root is pulled
    // back like any other.
    node.wipe_data_stores();
    ripen(&mut node, &mut st, old);
}

/// Only clients disperse values. A fleet server pushing valid
/// dispersals of its own under a key's holder — enough of them to
/// evict the key's committed value — is refused unacked, one guard
/// refusal per push, and the client-pushed value stays held.
#[test]
fn a_fleet_server_cannot_push() {
    let mut node: TestServer = StoreServerNode::new(ServerNode::new(0), 1, fleet(), 4, 3);
    let mut st = Stepper::new(11);
    let committed = dispersal(b"the committed value", 1);
    let eff = st.deliver(&mut node, CLIENT, frag_put(&committed, 1, 0, 0));
    assert!(matches!(eff.sends(), [(_, StoreMsg::FragPutAck { .. })]));
    for i in 0..2 * sbs_bulk::RETAINED_PER_KEY as u8 {
        let own = dispersal(&[i; 40], 1);
        let eff = st.deliver(&mut node, ProcessId(3), frag_put(&own, 1, 0, 0));
        assert!(eff.sends().is_empty(), "a server's push must not be acked");
        assert_eq!(eff.slow_paths().guard_refusals, 1);
        assert!(!node.frags.holds(&own.1.root()));
    }
    assert!(node.frags.holds(&committed.1.root()));
    assert_eq!(node.frags.fragment_count(), 1);
}

/// Fragment 0 of a whole-copy (`k = 1`) dispersal of `bytes`, and its
/// root: what the anti-entropy tests store straight into a replica.
fn whole_copy(bytes: &[u8]) -> (BulkDigest, sbs_bulk::StoredFragment) {
    let (frags, tree) = dispersal(bytes, 1);
    let own = sbs_bulk::StoredFragment {
        index: 0,
        total: 3,
        bytes: frags[0].clone(),
        proof: tree.proof(0),
    };
    (tree.root(), own)
}

/// The summary a tick sent, and to whom; panics unless the tick sent
/// exactly one message and it is a summary.
fn summary_of(eff: &Effects<StoreMsg<u64>, ()>) -> (ProcessId, Vec<Holding>) {
    let [(to, StoreMsg::DigestSummary { entries })] = eff.sends() else {
        panic!("expected one summary, got {:?}", eff.sends());
    };
    (*to, entries.clone())
}

/// Growth guard: the anti-entropy tick reads its summary from the
/// store's per-key retention map, so its cost does not grow with the
/// store. A replica holding 20 000 fragments runs 2 000 ticks; every
/// summary must be exactly the next 16 holders — two roots each, in the
/// order they were put — of the holdings the puts made, in holder order,
/// sent to the next other server in slot order.
#[test]
fn anti_entropy_tick_cost_is_independent_of_store_size() {
    use std::collections::BTreeMap;
    // Slot 2 sits in the windows of shards 0, 1 and 2.
    let (mut node, mut st) = healing_server(2);
    let mut puts: BTreeMap<Holder, Vec<BulkDigest>> = BTreeMap::new();
    for i in 0..20_000u32 {
        let (root, own) = whole_copy(&i.to_le_bytes());
        // Two values per key of shards 0 and 1 — the retention bound —
        // so all 20 000 stay held.
        let holder = Holder::new(i % 2, i / 4);
        assert!(node.frags.put(holder, root, own).held());
        puts.entry(holder).or_default().push(root);
    }
    let holders: Vec<(Holder, Vec<BulkDigest>)> = puts.into_iter().collect();
    assert_eq!(holders.len(), 10_000);
    let per_tick = ANTI_ENTROPY_BATCH / sbs_bulk::RETAINED_PER_KEY;
    let others: Vec<ProcessId> = (0..9).filter(|&s| s != 2).map(ProcessId).collect();

    let started = std::time::Instant::now();
    let mut cursor = 0;
    for round in 0..2_000 {
        let (to, entries) = summary_of(&st.tick(&mut node));
        assert_eq!(to, others[round % others.len()], "round {round}");
        let expected: Vec<Holding> = (0..per_tick)
            .flat_map(|i| {
                let (h, roots) = &holders[(cursor + i) % holders.len()];
                roots.iter().map(|&root| (h.shard, h.slot, root))
            })
            .collect();
        assert_eq!(entries, expected, "round {round}");
        cursor = (cursor + per_tick) % holders.len();
    }
    // The wall bound is what makes this a *growth* guard. With a
    // per-tick full scan (walk 20 000 entries, sort them, every
    // tick) this loop took 46 s in a debug build on a two-core
    // container; a range probe of the retention map takes a fraction
    // of a second. Five seconds is ample headroom for a loaded CI host
    // and a ninth of the regression.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "2 000 ticks over a 20 000-entry store took {:?}: the tick is \
         doing work proportional to the store again",
        started.elapsed()
    );
}

/// The rotation survives churn: between ticks, keys of holders that
/// sort before the cursor (the last holder announced) are overwritten —
/// one with a fresh value, one with a byte-identical copy of another
/// key's value in its shard, which aliases that key's entry — so the
/// store changes behind the cursor throughout every rotation. Each root
/// of every key never overwritten is still announced at least once every
/// `⌈holders / per-tick holders⌉ + 1` ticks, and every summary names
/// only roots its holder retains.
#[test]
fn anti_entropy_rotation_survives_churn_before_the_cursor() {
    use std::collections::BTreeMap;
    // Slot 2 sits in the windows of shards 0, 1 and 2: 3 × 40 keys,
    // each holding two values. A value is a number, stored as its
    // bytes; `latest` is each key's current one.
    let (mut node, mut st) = healing_server(2);
    let mut latest: BTreeMap<Holder, u32> = BTreeMap::new();
    let put = |node: &mut TestServer, latest: &mut BTreeMap<Holder, u32>, holder, value: u32| {
        let (root, own) = whole_copy(&value.to_le_bytes());
        assert!(node.frags.put(holder, root, own).held());
        latest.insert(holder, value);
        root
    };
    let holders: Vec<Holder> = (0..3)
        .flat_map(|shard| (0..40).map(move |slot| Holder::new(shard, slot)))
        .collect();
    let mut fresh = 0..;
    // When each `(key, root)` was last announced, from the start.
    let mut last_announced: BTreeMap<(Holder, BulkDigest), usize> = BTreeMap::new();
    for &h in holders.iter().chain(&holders) {
        let root = put(&mut node, &mut latest, h, fresh.next().unwrap());
        last_announced.insert((h, root), 0);
    }
    let per_tick = ANTI_ENTROPY_BATCH / sbs_bulk::RETAINED_PER_KEY;
    let bound = holders.len().div_ceil(per_tick) + 1;
    let mut churned: BTreeSet<Holder> = BTreeSet::new();
    let mut rng = DetRng::from_seed(0xC4);
    for tick in 1..=10 * bound {
        let (_, entries) = summary_of(&st.tick(&mut node));
        for &(shard, slot, root) in &entries {
            let h = Holder::new(shard, slot);
            assert!(
                node.frags.holders(&root).contains(&h),
                "tick {tick}: {h:?} announced a root it does not retain"
            );
            last_announced.insert((h, root), tick);
        }
        for ((h, root), &seen) in &last_announced {
            assert!(
                churned.contains(h) || tick - seen <= bound,
                "tick {tick}: {h:?} last announced {root:?} at tick {seen}, bound {bound}"
            );
        }
        // Overwrite two keys that sort before the cursor: one with a
        // fresh value, one with another key's current value.
        let &(shard, slot, _) = entries.last().expect("a non-empty summary");
        let cursor = Holder::new(shard, slot);
        let before: Vec<Holder> = holders.iter().copied().filter(|&h| h < cursor).collect();
        if before.is_empty() {
            continue;
        }
        let mut pick = || before[rng.next_u64() as usize % before.len()];
        let h = pick();
        put(&mut node, &mut latest, h, fresh.next().unwrap());
        churned.insert(h);
        let (h, donor) = (pick(), pick());
        if h.shard == donor.shard && h != donor {
            let value = latest[&donor];
            put(&mut node, &mut latest, h, value);
            churned.insert(h);
        }
    }
    assert!(
        churned.len() > holders.len() / 4,
        "the churn reached {churned:?}"
    );
}

/// Self-healing regression: a repair pull re-derives the dispersal
/// and refuses fragment sets whose re-encoded commitment root does
/// not match the pulled digest — Byzantine peers can serve
/// path-verified fragments of a *non-codeword* commitment (the
/// writer-side lie AVID's verifiability exists to catch), and the
/// repairer must not store an unservable fragment from them. An
/// honest dispersal pulled the same way repairs into this replica's
/// own window-position fragment.
#[test]
fn repair_refuses_commitment_mismatched_fragments() {
    // Coded window: n = 9, shards = 4, replicas = 3, k = 2; this
    // server is slot 1 — window position 1 for shard 0.
    let mut node: TestServer = StoreServerNode::new(ServerNode::new(0), 1, fleet(), 4, 3)
        .self_healing(2, SimDuration::millis(1));
    let mut st = Stepper::new(3);
    st.handle(&mut node, |node, ctx| node.on_start(ctx));

    let (k, m) = (2usize, 3usize);
    let payload = vec![7u8; 64];
    let frags = encode_fragments(&payload, k, m);

    // The poisoned dispersal: the parity fragment is garbled
    // *before* committing, so the Merkle root covers a fragment set
    // that is not a codeword — yet fragments 0 and 1 still verify
    // against it with honest paths.
    let mut garbled = frags[2].to_vec();
    garbled[0] ^= 0x5A;
    let poisoned = vec![frags[0].clone(), frags[1].clone(), garbled.into()];
    let bad_tree = MerkleTree::build(&fragment_leaves(&poisoned));
    let bad_root = bad_tree.root();

    // The summary marks the missing root as a suspect; the pull
    // opens only after the two-tick grace sweep, fanning requests
    // to both window peers.
    let eff = st.deliver(
        &mut node,
        ProcessId(0),
        StoreMsg::DigestSummary {
            entries: vec![(0, 4, bad_root)],
        },
    );
    assert!(
        eff.sends().is_empty(),
        "a summary alone must not open a pull (in-flight grace)"
    );
    let eff = st.tick(&mut node); // arms the suspect
    assert_eq!(eff.slow_paths().repair_rounds, 0);
    let eff = st.tick(&mut node); // still missing: pull
    assert_eq!(eff.sends().len(), 2, "repair fans to the window peers");
    assert_eq!(eff.slow_paths().repair_rounds, 1);
    for (i, from) in [(0u32, 0u32), (1, 2)] {
        st.deliver(
            &mut node,
            ProcessId(from),
            StoreMsg::RepairReply {
                shard: 0,
                slot: 4,
                digest: bad_root,
                frag: Some((i, poisoned[i as usize].clone(), bad_tree.proof(i as usize))),
            },
        );
    }
    assert!(
        !node.frag_store().holds(&bad_root),
        "a commitment-mismatched dispersal must be refused"
    );

    // The honest dispersal, pulled identically, repairs into this
    // replica's own window-position fragment (index 1 for shard 0).
    let tree = MerkleTree::build(&fragment_leaves(&frags));
    let root = tree.root();
    st.deliver(
        &mut node,
        ProcessId(0),
        StoreMsg::DigestSummary {
            entries: vec![(0, 4, root)],
        },
    );
    st.tick(&mut node);
    st.tick(&mut node);
    for (i, from) in [(0u32, 0u32), (1, 2)] {
        st.deliver(
            &mut node,
            ProcessId(from),
            StoreMsg::RepairReply {
                shard: 0,
                slot: 4,
                digest: root,
                frag: Some((i, frags[i as usize].clone(), tree.proof(i as usize))),
            },
        );
    }
    let stored = node
        .frag_store()
        .get_for(0, &root)
        .expect("the honest dispersal must repair");
    assert_eq!(stored.index, 1, "repair re-derives the *own-slot* fragment");
    assert_eq!(stored.bytes.as_ref(), frags[1].as_ref());
    assert!(verify_fragment(
        root,
        m,
        stored.index as usize,
        &stored.bytes,
        &stored.proof
    ));
}

#[test]
#[should_panic(expected = "does not own shard")]
fn put_on_non_owner_panics() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let router = KeyRouter::new(4, 2);
    let servers: Vec<ProcessId> = (2..11).map(ProcessId).collect();
    let clients = vec![ProcessId(0), ProcessId(1)];
    // Find a key owned by writer 1, then invoke its put on writer 0.
    let key = (0..64)
        .map(|i| format!("key{i}"))
        .find(|k| router.writer_of(k) == 1)
        .unwrap();
    let mut node: StoreClientNode<u64> = StoreClientNode::new(
        cfg,
        router,
        servers,
        clients,
        &router.shards_of_writer(0),
        DataPlane::Full,
    );
    let mut rng = DetRng::from_seed(1);
    let mut nt = 0u64;
    let mut eff: Effects<StoreWire<u64>, StoreOut<u64>> = Effects::new();
    let mut ctx = Context::new(SimTime::ZERO, ProcessId(0), &mut rng, &mut nt, &mut eff);
    node.invoke_put(OpId(0), key, 5, &mut ctx);
}

#[test]
fn bulk_server_refuses_fabricated_blobs_and_serves_held_ones() {
    // Slot 1 of 9, 4 shards, 3-replica windows: shard 1's window is
    // slots {1, 2, 3}, position 0 here.
    let mut node: TestServer = StoreServerNode::new(ServerNode::new(0), 1, fleet(), 4, 3);
    let mut st = Stepper::new(2);
    let client = CLIENT;

    // A whole copy: fragment 0 of a one-stripe dispersal.
    let copy = dispersal(b"real value", 1);
    let root = copy.1.root();

    // A fabricated fragment (bytes not matching the commitment) is
    // refused: no ack, nothing stored.
    let mut forged = frag_put(&copy, 1, 0, 0);
    if let StoreMsg::FragPut { bytes, .. } = &mut forged {
        *bytes = b"forged".to_vec().into();
    }
    let eff = st.deliver(&mut node, client, forged);
    assert!(eff.sends().is_empty(), "forged fragment must not be acked");
    assert_eq!(node.frag_store().fragment_count(), 0);

    // The genuine fragment stores and acks.
    let eff = st.deliver(&mut node, client, frag_put(&copy, 1, 0, 0));
    assert!(matches!(
        eff.sends(),
        [(_, StoreMsg::FragPutAck { shard: 1, .. })]
    ));
    assert!(node.frag_store().holds(&root));

    // A get returns the held fragment verbatim.
    let eff = st.deliver(
        &mut node,
        client,
        StoreMsg::BulkGet {
            shard: 1,
            slot: 0,
            digest: root,
            tag: 7,
        },
    );
    let [(
        to,
        StoreMsg::FragGetAck {
            tag: 7,
            frag: Some((0, served, proof)),
            ..
        },
    )] = eff.sends()
    else {
        panic!("expected one FragGetAck, got {:?}", eff.sends());
    };
    assert_eq!(*to, client);
    assert_eq!(served.as_ref(), b"real value");
    assert!(verify_fragment(root, 3, 0, served, proof));
}

/// The deployment guard refuses every wire-controlled lie the bulk
/// plane could otherwise be fed: fragments with a foreign index
/// (pre-seeding a correct replica with another replica's fragment
/// to poison push-quorum acks), dispersal shapes other than the
/// deployment's (a degenerate one-leaf `total = 1`, a shapeless
/// `total = 0`), fragments on a full-replication deployment, and
/// puts for shards outside this replica's window (unbounded
/// retention state).
#[test]
fn bulk_guard_refuses_foreign_indices_totals_and_shards() {
    let mut st = Stepper::new(5);

    // Fleet slot 1 of 9, 4 shards, 2-of-3: shard 1's window is slots
    // {1, 2, 3}, so this server's position (= fragment index) for
    // shard 1 is 0.
    let mut node: TestServer = StoreServerNode::new(ServerNode::new(0), 1, fleet(), 4, 3);
    let coded = dispersal(&[3u8; 64], 2);

    // A *different replica's* fragment — commitment-valid, wrong
    // index for this slot — is refused unacked.
    let eff = st.deliver(&mut node, CLIENT, frag_put(&coded, 1, 0, 1));
    assert!(eff.sends().is_empty(), "foreign index must not be acked");
    assert_eq!(eff.slow_paths().guard_refusals, 1);
    assert_eq!(node.frag_store().fragment_count(), 0);

    // Shapes other than the deployment's are refused by the shape
    // pin: the degenerate one-leaf forgery (bytes hashing straight to
    // the root it names) and the shapeless one.
    let blob: SharedBytes = b"a whole value".to_vec().into();
    let d = digest_of(&blob);
    for total in [1, 0] {
        let eff = st.deliver(
            &mut node,
            CLIENT,
            StoreMsg::FragPut {
                shard: 1,
                slot: 0,
                root: d,
                index: 0,
                total,
                bytes: blob.clone(),
                proof: Vec::new(),
            },
        );
        assert!(eff.sends().is_empty(), "total={total} must be refused");
        assert_eq!(eff.slow_paths().guard_refusals, 1);
    }

    // This replica's own fragment is stored and acked.
    let eff = st.deliver(&mut node, CLIENT, frag_put(&coded, 1, 0, 0));
    assert!(matches!(
        eff.sends(),
        [(_, StoreMsg::FragPutAck { index: 0, .. })]
    ));

    // Puts outside the deployment: nonexistent shard, and a shard
    // whose window skips this slot (shard 2's window is {2, 3, 4}).
    for bad_shard in [9u32, 2] {
        let eff = st.deliver(&mut node, CLIENT, frag_put(&coded, bad_shard, 0, 0));
        assert!(eff.sends().is_empty(), "shard {bad_shard} must be refused");
        assert_eq!(eff.slow_paths().guard_refusals, 1);
    }
    assert_eq!(node.frag_store().fragment_count(), 1);

    // A full-replication deployment (no data window) refuses every
    // fragment, whatever its shape.
    let mut full: TestServer = StoreServerNode::new(ServerNode::new(0), 1, fleet(), 4, 0);
    let shapeless = StoreMsg::FragPut {
        shard: 1,
        slot: 0,
        root: d,
        index: 0,
        total: 0,
        bytes: blob.clone(),
        proof: Vec::new(),
    };
    for msg in [frag_put(&coded, 1, 0, 0), shapeless] {
        let eff = st.deliver(&mut full, CLIENT, msg);
        assert!(eff.sends().is_empty(), "fragments on a full plane refused");
        assert_eq!(eff.slow_paths().guard_refusals, 1);
    }
    assert_eq!(full.frag_store().fragment_count(), 0);
}

/// Holder slots are wire data too: a push or a repair pull naming a
/// key slot outside the deployment's slot space is refused — counted
/// as a guard refusal, never stored, never acknowledged — so a forger
/// cannot make a replica keep retention state for invented slots.
#[test]
fn bulk_guard_refuses_slots_outside_the_slot_space() {
    let mut st = Stepper::new(7);
    // Slot 1 of 9, 4 shards, 3-replica windows: shard 1's window is
    // slots {1, 2, 3}, position 0 here.
    let coded = dispersal(&[5u8; 64], 2);
    let root = coded.1.root();
    let mut node: TestServer = StoreServerNode::new(ServerNode::new(0), 1, fleet(), 4, 3)
        .self_healing(2, SimDuration::millis(2));
    for slot in [KEY_SLOTS, u32::MAX] {
        let eff = st.deliver(&mut node, CLIENT, frag_put(&coded, 1, slot, 0));
        assert!(eff.sends().is_empty(), "slot {slot} must not be acked");
        assert_eq!(eff.slow_paths().guard_refusals, 1);
        // Pushes come from a client, repair pulls from a peer server.
        let eff = st.deliver(
            &mut node,
            ProcessId(2),
            StoreMsg::RepairRequest {
                shard: 1,
                slot,
                digest: root,
            },
        );
        assert!(
            eff.sends().is_empty(),
            "repair pull for slot {slot} refused"
        );
        assert_eq!(eff.slow_paths().guard_refusals, 1);
    }
    assert_eq!(node.frag_store().fragment_count(), 0);
    // The last slot of the space is a slot like any other.
    let eff = st.deliver(&mut node, CLIENT, frag_put(&coded, 1, KEY_SLOTS - 1, 0));
    assert!(matches!(eff.sends(), [(_, StoreMsg::FragPutAck { .. })]));
    assert_eq!(
        node.frag_store().holders(&root),
        BTreeSet::from([Holder::new(1, KEY_SLOTS - 1)])
    );
}

/// Register ids are wire data too: the deployment's registers are
/// exactly its shards, so a write or read naming any other id is
/// refused — one guard refusal per message, no acknowledgement, no
/// register slot allocated — while an in-range id is served as
/// before.
#[test]
fn guard_refuses_register_ids_outside_the_shard_space() {
    let mut node: TestServer = StoreServerNode::new(ServerNode::new(0), 1, fleet(), 4, 3);
    let mut st = Stepper::new(3);
    let mut run =
        |node: &mut TestServer, batch| st.deliver(node, ProcessId(0), StoreMsg::Batch(batch));
    let write = |reg: u32, tag: u64| RegMsg::Write {
        reg: RegId(reg),
        tag,
        val: 7,
    };
    let read = |reg: u32, tag: u64| RegMsg::Read {
        reg: RegId(reg),
        tag,
        new_read: true,
    };
    for (i, reg) in [4u32, u32::MAX].into_iter().enumerate() {
        let tag = 10 * i as u64;
        for msg in [write(reg, tag + 1), read(reg, tag + 2)] {
            let eff = run(&mut node, vec![msg]);
            assert!(eff.sends().is_empty(), "register {reg} must not be acked");
            assert_eq!(eff.slow_paths().guard_refusals, 1);
        }
        let eff = run(&mut node, vec![write(reg, tag + 3), read(reg, tag + 4)]);
        assert!(eff.sends().is_empty());
        assert_eq!(eff.slow_paths().guard_refusals, 2, "one per message");
        assert!(node.inner().core().slot(RegId(reg)).is_none());
    }
    // The last shard's register is a register like any other, and a
    // refused message does not hold up the rest of its batch.
    let eff = run(&mut node, vec![write(4, 100), write(3, 101)]);
    assert_eq!(eff.slow_paths().guard_refusals, 1);
    let [(_, StoreMsg::Batch(acks))] = eff.sends() else {
        panic!("expected one batch of acks, got {:?}", eff.sends());
    };
    assert!(matches!(
        acks[..],
        [
            RegMsg::SsAck { tag: 101 },
            RegMsg::AckWrite { reg: RegId(3), .. }
        ]
    ));
    assert_eq!(node.inner().core().slot(RegId(3)).map(|s| s.last), Some(7));
}

/// Regression (write liveness): shard windows
/// overlap — slot 1 of 9 sits at position 1 in shard 0's window
/// {0, 1, 2} and position 0 in shard 1's window {1, 2, 3} — so when
/// both shards disperse byte-identical payloads (one commitment
/// root), this replica must store **both** shards' fragment indices
/// and acknowledge both pushes. Pre-fix the fragment store held one
/// index per root and silently refused the second shard's put, which
/// could never then reach its `k + t` push quorum.
#[test]
fn overlapping_windows_store_each_shards_fragment_of_an_aliased_root() {
    use sbs_bulk::{encode_fragments, fragment_leaves, merkle_proof, merkle_root};
    let mut st = Stepper::new(13);
    let mut node: TestServer = StoreServerNode::new(ServerNode::new(0), 1, fleet(), 4, 3);

    let payload = vec![8u8; 64];
    let frags = encode_fragments(&payload, 2, 3);
    let leaves = fragment_leaves(&frags);
    let root = merkle_root(&leaves);
    let frag_put = |shard: u32, index: usize| StoreMsg::FragPut {
        shard,
        slot: 0,
        root,
        index: index as u32,
        total: 3,
        bytes: frags[index].clone(),
        proof: merkle_proof(&leaves, index),
    };

    // Shard 0's dispersal reaches this replica as fragment 1…
    let eff = st.deliver(&mut node, CLIENT, frag_put(0, 1));
    assert!(matches!(
        eff.sends(),
        [(
            _,
            StoreMsg::FragPutAck {
                shard: 0,
                index: 1,
                ..
            }
        )]
    ));
    // …and shard 1's identical dispersal as fragment 0: it MUST be
    // stored and acked too, or shard 1's push wedges forever.
    let eff = st.deliver(&mut node, CLIENT, frag_put(1, 0));
    assert!(
        matches!(
            eff.sends(),
            [(
                _,
                StoreMsg::FragPutAck {
                    shard: 1,
                    index: 0,
                    ..
                }
            )]
        ),
        "the second shard's index of the aliased root must be acked, got {:?}",
        eff.sends()
    );
    assert_eq!(node.frag_store().fragment_count(), 2);

    // Each shard's fetch is served its own window position's index.
    for (shard, index) in [(0u32, 1u32), (1, 0)] {
        let eff = st.deliver(
            &mut node,
            CLIENT,
            StoreMsg::BulkGet {
                shard,
                slot: 0,
                digest: root,
                tag: 5,
            },
        );
        assert!(
            matches!(
                eff.sends(),
                [(_, StoreMsg::FragGetAck { frag: Some((i, _, _)), .. })] if *i == index
            ),
            "shard {shard} must be served index {index}, got {:?}",
            eff.sends()
        );
    }
}

#[test]
fn byzantine_bulk_server_serves_garbled_bytes() {
    // Slot 0 is position 0 of shard 0's window {0, 1, 2}.
    let mut node: TestServer =
        StoreServerNode::new(ServerNode::new(0), 0, fleet(), 4, 3).byzantine_bulk();
    let mut rng = DetRng::from_seed(3);
    let mut nt = 0u64;
    let copy = dispersal(b"honest bytes", 1);
    let root = copy.1.root();
    let get = |digest| StoreMsg::BulkGet {
        shard: 0,
        slot: 0,
        digest,
        tag: 1,
    };

    let mut eff: Effects<StoreMsg<u64>, ()> = Effects::new();
    let mut ctx = Context::new(SimTime::ZERO, ProcessId(9), &mut rng, &mut nt, &mut eff);
    node.on_message(CLIENT, frag_put(&copy, 0, 0, 0), &mut ctx);
    node.on_message(CLIENT, get(root), &mut ctx);
    // A miss is answered with fabricated filler, never as a miss.
    node.on_message(CLIENT, get(digest_of(b"unheld")), &mut ctx);
    let served: Vec<&Served> = eff
        .sends()
        .iter()
        .filter_map(|(_, m)| match m {
            StoreMsg::FragGetAck { frag, .. } => frag.as_ref(),
            _ => None,
        })
        .collect();
    let [(index, bytes, proof), (_, filler, _)] = served[..] else {
        panic!("byz replica must answer both gets, got {served:?}");
    };
    assert_ne!(
        bytes.as_ref(),
        b"honest bytes",
        "byz replica must serve wrong bytes"
    );
    assert!(
        !verify_fragment(root, 3, *index as usize, bytes, proof),
        "…which can never verify"
    );
    assert!(!filler.is_empty());
    assert_eq!(
        node.frag_store()
            .get(&root)
            .expect("stored honestly")
            .bytes
            .as_ref(),
        b"honest bytes",
        "garbling is copy-on-write"
    );
}
