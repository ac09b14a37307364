//! The client's phases and its pump: one transition function over
//! [`Phase`], applied until a phase has to wait for a message or timer.

use super::bulk::{usable_slots, Dispersal, Fetch, Resolving};
use super::*;
use crate::val::ValueRef;
use sbs_core::{ReadProgress, WriteProgress};
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::Arc;

/// The client's operation phase.
#[derive(Debug)]
pub(super) enum Phase<V: Payload> {
    Idle,
    /// The metadata register read on `shard`: sanity probe (N2–N7), then
    /// the read loop.
    ///
    /// On the bulk plane a get's read also carries a **prefetch**: when
    /// the sanity probe completes, the client starts fetching the value
    /// whose reference at least `last_quorum()` of the probe's acks give
    /// the round's first key, in parallel with the read loop. The read
    /// still decides. If it decides that same reference, the prefetch
    /// becomes the `Fetching` phase's fetch with the fragments it already
    /// holds; otherwise it is dropped (counted as wasted) and its late
    /// replies, carrying its tag, are ignored. Speculating is safe
    /// because every fragment is verified against the decided
    /// reference's root: early bytes are exactly the bytes a later fetch
    /// would accept. The prefetch arms no timer; the fetch's
    /// retransmission timer starts when it becomes `Fetching`.
    Reading {
        goal: ReadGoal,
        shard: u32,
        prefetch: Option<Fetch<V>>,
    },
    /// Bulk plane: resolving the read's reference map against the
    /// shard's data replicas, one value at a time.
    Fetching {
        res: Resolving,
        fetch: Fetch<V>,
        /// The fetch round's retransmission timer.
        timer: TimerId,
    },
    /// Bulk plane: every newly written value pushed to the data replicas,
    /// one fragment per replica; waiting until each has its `k + t` push
    /// quorum of verified-store acknowledgements before the metadata
    /// write.
    PushingBulk {
        intent: WriteIntent,
        shard: u32,
        dispersals: Vec<Dispersal<V>>,
        payload: StorePayload<V>,
        /// The ack-wait's round timer: the derived timeout in synchronous
        /// mode, the retransmission period in asynchronous mode. On
        /// expiry every push is re-broadcast to the replicas still
        /// missing.
        timer: TimerId,
    },
    /// The metadata write (of the map of values or of references) on
    /// `shard`, completing `intent` when its write round completes; a
    /// help round it launches moves to the background.
    Writing {
        shard: u32,
        intent: WriteIntent,
    },
    /// The metadata write of `payload` on `shard`, held until the shard's
    /// background help round ends: servers must see a register's help
    /// round complete before its next `WRITE`.
    AwaitHelp {
        shard: u32,
        intent: WriteIntent,
        payload: StorePayload<V>,
    },
}

/// The value fetch in flight in `phase` (a `&Phase` or a `&mut Phase`) —
/// a fetch round, or a get's prefetch beside its read — with the shard
/// it fetches for, as `Option<(u32, &Fetch)>` of the same mutability.
macro_rules! fetch_in_flight {
    ($phase:expr) => {
        match $phase {
            Phase::Fetching { res, fetch, .. } => Some((res.shard, fetch)),
            Phase::Reading {
                shard,
                prefetch: Some(fetch),
                ..
            } => Some((*shard, fetch)),
            _ => None,
        }
    };
}
pub(super) use fetch_in_flight;

/// Why a metadata read (and possibly value fetches) is running.
#[derive(Debug)]
pub(super) enum ReadGoal {
    /// One or more client `get`s on the same shard: project each key out
    /// of the one register snapshot (multiple entries when the pump
    /// coalesced a run of queued gets).
    Get { ops: Vec<(OpId, String)> },
    /// Writer-map recovery after transient corruption: adopt the read map
    /// as the authoritative copy, then republish it.
    Recover,
    /// Shard-handoff adoption (new owner): adopt the read map *and*
    /// become the shard's writer — resync the stamper onto the read
    /// stamp, republish, then flush the puts staged during the handoff.
    Acquire,
}

/// What a publish completes — carried by its `PushingBulk` and `Writing`
/// phases and consumed by the pump when the write engine reports done.
#[derive(Debug)]
pub(super) enum WriteIntent {
    /// The client puts folded into this publish, in queue order.
    Ops(Vec<OpId>),
    /// Recovery republish after transient corruption.
    Recovery,
    /// The new owner's adopting republish of a migrating shard.
    Acquire { shard: u32 },
}

/// What a metadata read returned, as this client's data plane reads it.
enum Resolved<V> {
    /// The map of values (full replication).
    Values(Arc<ShardMap<V>>),
    /// The map of value references (bulk plane).
    Refs(Arc<RefMap>),
    /// Nothing a writer of this plane publishes: stabilizing garbage that
    /// won a quorum.
    Garbage,
}

/// One pump transition: wait in a phase, or move to one.
type Transition<V> = ControlFlow<Phase<V>, Phase<V>>;

/// Emits one `get`'s completion.
pub(super) fn complete_get<V: Payload>(sub: &mut PumpCtx<'_, V>, op: OpId, value: Option<V>) {
    sub.trace(TraceEvent::OpComplete {
        op: op.0,
        kind: "get",
    });
    sub.output(StoreOut::GetDone { op, value });
}

impl<V: Payload + BulkCodec> StoreClientNode<V> {
    /// Advances the background help rounds, then applies
    /// [`Self::transition`] from the current phase until one says wait.
    /// Only this loop assigns the phase; handlers between pumps update
    /// the current one in place (acknowledgements, timer re-arms).
    pub(super) fn pump(&mut self, sub: &mut PumpCtx<'_, V>) {
        self.poll_help_rounds(sub);
        let mut phase = std::mem::replace(&mut self.phase, Phase::Idle);
        self.phase = loop {
            match self.transition(phase, sub) {
                Break(waiting) => break waiting,
                Continue(next) => phase = next,
            }
        };
    }

    /// The client's transition function: what `phase` becomes now —
    /// `Break` to wait in a phase until a message or a timer arrives,
    /// `Continue` to move to one and keep pumping.
    fn transition(&mut self, phase: Phase<V>, sub: &mut PumpCtx<'_, V>) -> Transition<V> {
        match phase {
            Phase::Idle => self.launch(sub),
            Phase::Reading { .. } => {
                let Some(progress) = self.read_engine.poll(&mut self.link, sub) else {
                    return Break(phase);
                };
                let Phase::Reading {
                    goal,
                    shard,
                    prefetch,
                } = phase
                else {
                    unreachable!("matched above")
                };
                Continue(self.read_progressed(goal, shard, prefetch, progress, sub))
            }
            Phase::Fetching { ref fetch, .. } if !self.fetch_settled(fetch) => Break(phase),
            Phase::Fetching { res, fetch, timer } => {
                Continue(self.settle_fetch(res, fetch, timer, sub))
            }
            Phase::PushingBulk { ref dispersals, .. } if !self.pushed(dispersals) => Break(phase),
            Phase::PushingBulk {
                intent,
                shard,
                payload,
                timer,
                ..
            } => {
                // k+t verified stores of every value ⇒ ≥k correct
                // replicas hold verified fragments of each (k = 1: ≥1
                // holds a whole copy): the references may become visible.
                sub.cancel_timer(timer);
                Continue(self.start_write(shard, intent, payload, sub))
            }
            Phase::Writing { shard, .. } => {
                let progress = self.write_engine.progress(&mut self.link, sub);
                if let WriteProgress::Pending = progress {
                    return Break(phase);
                }
                let Phase::Writing { intent, .. } = phase else {
                    unreachable!("matched above")
                };
                Continue(self.written(shard, intent, progress, sub))
            }
            Phase::AwaitHelp { shard, .. } if self.helping.contains_key(&shard) => Break(phase),
            Phase::AwaitHelp {
                shard,
                intent,
                payload,
            } => Continue(self.start_write(shard, intent, payload, sub)),
        }
    }

    /// Idle: launches the next piece of work — a writer-map recovery, a
    /// drained retirement, a shard acquisition, then the queued client
    /// operations — or waits when there is none.
    fn launch(&mut self, sub: &mut PumpCtx<'_, V>) -> Transition<V> {
        // Writer-map recovery runs ahead of queued operations: a
        // corrupted owner must not accept its next put on a scrambled
        // authoritative map.
        if let Some(shard) = self.need_recover.pop_front() {
            return Continue(self.start_read(ReadGoal::Recover, shard, sub));
        }
        // Retiring sweep: a retiring shard whose queued puts have all
        // drained (and that owes no recovery) is dropped here once its
        // last help round has ended — at Idle no write is in flight, so
        // its last publish has completed through the quorum.
        if !self.retiring.is_empty() {
            let done: Vec<u32> = self
                .retiring
                .iter()
                .copied()
                .filter(|&s| {
                    !self.need_recover.contains(&s)
                        && !self.helping.contains_key(&s)
                        && !self.pending.iter().any(|(_, op)| match op {
                            StoreOp::Put { key, .. } => self.router.shard_of(key) == s,
                            StoreOp::Get { .. } => false,
                        })
                })
                .collect();
            for shard in done {
                self.retiring.remove(&shard);
                self.owned.remove(&shard);
                sub.trace(TraceEvent::Phase {
                    shard,
                    phase: "ShardRetired",
                });
                sub.output(StoreOut::ShardRetired { shard });
            }
        }
        // Shard acquisitions run ahead of client operations: a busy
        // closed-loop client must not starve a handoff, and an
        // acquisition must not wait behind puts staged on the very shard
        // it unblocks.
        if let Some(shard) = self.acquires.pop_front() {
            return Continue(self.start_read(ReadGoal::Acquire, shard, sub));
        }
        let Some((op, kind)) = self.pending.pop_front() else {
            return Break(Phase::Idle);
        };
        Continue(match kind {
            StoreOp::Get { key } => {
                let shard = self.router.shard_of(&key);
                let mut ops = vec![(op, key)];
                self.absorb_get_run(shard, &mut ops);
                self.start_read(ReadGoal::Get { ops }, shard, sub)
            }
            StoreOp::Put { key, val } => {
                let shard = self.router.shard_of(&key);
                let mut ops = vec![op];
                let mut puts = vec![(key, val)];
                self.absorb_put_run(shard, &mut ops, &mut puts);
                self.start_publish(shard, WriteIntent::Ops(ops), puts, sub)
            }
        })
    }

    /// The metadata read of `shard` for `goal` made progress: its sanity
    /// probe completed (a get prefetches, the read loop starts), or the
    /// read decided.
    fn read_progressed(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        prefetch: Option<Fetch<V>>,
        progress: ReadProgress<StorePayload<V>>,
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        let (source, p) = match progress {
            ReadProgress::SanityDone(agreed) => {
                self.policies[shard as usize].on_sanity(agreed.as_ref());
                // A get prefetches its first key's value.
                let key = match &goal {
                    ReadGoal::Get { ops } => ops.first().map(|(_, key)| key.as_str()),
                    _ => None,
                };
                let prefetch = key.and_then(|key| self.probed_ref(key)).map(|vref| {
                    sub.trace(TraceEvent::Phase {
                        shard,
                        phase: "Prefetch",
                    });
                    self.request_fetch(shard, vref)
                });
                self.read_engine.start_read(&mut self.link, sub);
                return Phase::Reading {
                    goal,
                    shard,
                    prefetch,
                };
            }
            ReadProgress::Done(source, p) => (source, p),
        };
        let read_wsn = p.wsn;
        let mut stamped = self.policies[shard as usize].transform(source, p.clone());
        // The inversion-prevention memory answered in place of the
        // quorum with a value no writer of this shard could have
        // published after the quorum's: forget it and take the quorum's
        // value, exactly as a clean policy would (see `corrupt_memory`).
        if stamped.wsn != read_wsn && self.corrupt_memory(&stamped.val, &p.val) {
            let policy = &mut self.policies[shard as usize];
            *policy = AtomicPolicy::new();
            stamped = policy.transform(source, p);
        }
        let wsn = stamped.wsn;
        let val = stamped.val;
        #[cfg(feature = "mutation")]
        let val = self.serve_stale(&goal, shard, val);
        match self.classify(&val) {
            // The full plane never prefetches.
            Resolved::Values(map) => self.finish_resolve(goal, shard, wsn, map, sub),
            Resolved::Refs(refs) => {
                let refs = match goal {
                    ReadGoal::Get { .. } => refs,
                    _ => usable_slots(refs),
                };
                let res = Resolving {
                    goal,
                    shard,
                    wsn,
                    refs,
                    checked: 0,
                    remembered: wsn != read_wsn,
                };
                self.resolve_refs(res, prefetch, sub)
            }
            Resolved::Garbage => {
                // A reference under full replication, a bare reference
                // or a non-empty inline map on a bulk plane: stabilizing
                // garbage won a quorum — re-read until real metadata
                // does.
                Self::waste(prefetch, sub);
                sub.note_metadata_reread();
                self.start_read(goal, shard, sub)
            }
        }
    }

    /// The metadata write on `shard` completed its write round: the
    /// publish is done (a help round it launched moves to the
    /// background), so `intent` completes.
    fn written(
        &mut self,
        shard: u32,
        intent: WriteIntent,
        progress: WriteProgress,
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        if let WriteProgress::Helping = progress {
            // The write round completed: the publish is done, and its
            // help round finishes in the background while the client
            // moves on.
            sub.trace(TraceEvent::Phase {
                shard,
                phase: "HelpRound",
            });
            let idle = WriteEngine::new(RegId(shard), self.cfg, Vec::new());
            let engine = std::mem::replace(&mut self.write_engine, idle);
            self.helping.insert(shard, engine);
        }
        match intent {
            WriteIntent::Ops(ops) => {
                for op in ops {
                    sub.trace(TraceEvent::OpComplete {
                        op: op.0,
                        kind: "put",
                    });
                    sub.output(StoreOut::PutDone { op });
                }
            }
            WriteIntent::Recovery => self.recoveries += 1,
            WriteIntent::Acquire { shard } => {
                // Adoption republish committed: ownership is live. Flush
                // the staged puts into the queue (in issue order — their
                // per-key order continues the old owner's, since the
                // adoption read saw its last commit).
                sub.trace(TraceEvent::Phase {
                    shard,
                    phase: "ShardAcquired",
                });
                sub.output(StoreOut::ShardAcquired { shard });
                if let Some(q) = self.staged.remove(&shard) {
                    self.pending.extend(q);
                }
            }
        }
        Phase::Idle
    }

    /// Starts the metadata read of `shard` for `goal`.
    pub(super) fn start_read(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        if matches!(goal, ReadGoal::Recover | ReadGoal::Acquire) {
            // The recovery read must learn the *servers'* agreed state; the
            // owner's own inversion-prevention pair was just scrambled, and
            // trusting it could "prevent" the genuine quorum value in favor
            // of corrupted local memory. Start from a clean policy (the
            // sanity probe then re-anchors it on the servers). Adoption
            // reads start clean for the same reason: whatever the quorum
            // agrees on *is* the state to continue from, and stale local
            // prevention state must not outvote it.
            self.policies[shard as usize] = AtomicPolicy::new();
        }
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "MetadataRead",
        });
        self.read_engine = ReadEngine::new(RegId(shard), self.cfg);
        // Figure 3 read: sanity probe first (N2–N7), then the read loop.
        self.read_engine.start_sanity(&mut self.link, sub);
        Phase::Reading {
            goal,
            shard,
            prefetch: None,
        }
    }

    /// The reference at least `last_quorum()` of the just-completed sanity
    /// probe's acks give `key` — the value a get's read loop will most
    /// likely decide — or `None` on the full plane or without such a
    /// quorum. Tallies the key's 44-byte [`ValueRef`] per ack; no map is
    /// compared and no randomness drawn. Of several references reaching
    /// the quorum (a write in flight), the most common.
    fn probed_ref(&self, key: &str) -> Option<ValueRef> {
        self.plane.coding()?;
        let mut tally: Vec<(ValueRef, usize)> = Vec::new();
        for last in self.read_engine.sanity_lasts() {
            let StoreVal::Refs(refs) = &last.val else {
                continue;
            };
            let Some(&vref) = refs.get(key) else {
                continue;
            };
            match tally.iter_mut().find(|(r, _)| *r == vref) {
                Some((_, count)) => *count += 1,
                None => tally.push((vref, 1)),
            }
        }
        let quorum = self.cfg.last_quorum();
        tally
            .into_iter()
            .filter(|&(_, count)| count >= quorum)
            .max_by_key(|&(_, count)| count)
            .map(|(vref, _)| vref)
    }

    /// The metadata read's value as this client's plane reads it: the
    /// full plane publishes maps of values, the bulk plane maps of
    /// references — an empty inline map (every register's initial
    /// value) is the empty reference map there. Anything else is garbage.
    fn classify(&self, val: &StoreVal<V>) -> Resolved<V> {
        match (self.plane, val) {
            (DataPlane::Full, StoreVal::Inline(map)) => Resolved::Values(map.clone()),
            (DataPlane::Full, _) => Resolved::Garbage,
            (_, StoreVal::Refs(refs)) => Resolved::Refs(refs.clone()),
            (_, StoreVal::Inline(map)) if map.is_empty() => Resolved::Refs(Arc::new(RefMap::new())),
            _ => Resolved::Garbage,
        }
    }

    /// True when `memory` — the value the inversion-prevention policy
    /// returned in place of the quorum's older `quorum` — cannot be a
    /// later value of this shard's writer: it is nothing this plane's
    /// writers publish, or it lacks a key `quorum` has (writers only ever
    /// add keys). Only corrupted local state answers that way, and
    /// trusting it would keep handing garbage to every later read until
    /// the writer's stamps overtake it: on the bulk plane a key missing
    /// from it would read as absent, a dangling reference in it would
    /// re-read forever.
    fn corrupt_memory(&self, memory: &StoreVal<V>, quorum: &StoreVal<V>) -> bool {
        fn lacks_a_key<T: Payload, U: Payload>(memory: &ShardMap<T>, quorum: &ShardMap<U>) -> bool {
            quorum
                .entries()
                .iter()
                .any(|(k, _)| memory.get(k).is_none())
        }
        match (self.classify(memory), self.classify(quorum)) {
            (Resolved::Garbage, _) => true,
            (Resolved::Values(m), Resolved::Values(q)) => lacks_a_key(&m, &q),
            (Resolved::Refs(m), Resolved::Refs(q)) => lacks_a_key(&m, &q),
            _ => false,
        }
    }

    /// The `weaken_recency` mutation: a get is answered from the shard's
    /// previous read instead of this one.
    #[cfg(feature = "mutation")]
    fn serve_stale(&mut self, goal: &ReadGoal, shard: u32, val: StoreVal<V>) -> StoreVal<V> {
        if !self.weaken_recency || !matches!(goal, ReadGoal::Get { .. }) {
            return val;
        }
        self.stale_reads.insert(shard, val.clone()).unwrap_or(val)
    }

    /// Starts the metadata write of `payload` on `shard`, completing
    /// `intent` — or, while the shard's previous help round still runs,
    /// holds it in [`Phase::AwaitHelp`].
    pub(super) fn start_write(
        &mut self,
        shard: u32,
        intent: WriteIntent,
        payload: StorePayload<V>,
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        if self.helping.contains_key(&shard) {
            sub.trace(TraceEvent::Phase {
                shard,
                phase: "AwaitHelp",
            });
            return Phase::AwaitHelp {
                shard,
                intent,
                payload,
            };
        }
        sub.trace(TraceEvent::Phase {
            shard,
            phase: "MetadataWrite",
        });
        // The invariant the background help rounds rest on: a shard's
        // WRITE never leaves while its previous help round is unfinished.
        debug_assert!(
            !self.helping.contains_key(&shard),
            "shard {shard}'s WRITE would overtake its help round"
        );
        self.write_engine = WriteEngine::new(RegId(shard), self.cfg, self.clients.clone());
        self.write_engine.start(payload, &mut self.link, sub);
        Phase::Writing { shard, intent }
    }

    /// Advances every background help round and drops the ones that
    /// ended — each unblocks its shard's next write (and retirement).
    fn poll_help_rounds(&mut self, sub: &mut PumpCtx<'_, V>) {
        let link = &mut self.link;
        self.helping.retain(|&shard, engine| {
            let done = engine.poll(link, sub);
            if done {
                sub.trace(TraceEvent::Phase {
                    shard,
                    phase: "HelpDone",
                });
            }
            !done
        });
    }

    /// Completes `goal` with the map of values of `shard` (read under
    /// metadata stamp `wsn`) — the full plane. For `get`s this emits one
    /// completion per coalesced op, all projected from the same snapshot,
    /// and the client is idle again; a recovery or acquisition adopts the
    /// map and starts the republish.
    fn finish_resolve(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        wsn: RingSeq,
        map: Arc<ShardMap<V>>,
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        match goal {
            ReadGoal::Get { ops } => {
                for (op, key) in ops {
                    complete_get(sub, op, map.get(&key).cloned());
                }
                Phase::Idle
            }
            goal => {
                let map = Arc::unwrap_or_clone(map);
                self.adopt(goal, shard, wsn, map, RefMap::new(), sub)
            }
        }
    }

    /// Makes `map` / `refs` (read under stamp `wsn`) the authoritative
    /// state of `shard` for a recovery or an acquisition, and starts the
    /// republish.
    pub(super) fn adopt(
        &mut self,
        goal: ReadGoal,
        shard: u32,
        wsn: RingSeq,
        map: ShardMap<V>,
        refs: RefMap,
        sub: &mut PumpCtx<'_, V>,
    ) -> Phase<V> {
        let intent = match goal {
            ReadGoal::Recover => {
                // Adopt the register's (last published) map as the
                // authoritative copy — and **resync the sequence stamper**
                // onto the stamp the quorum agreed on, the MWMR
                // read-before-write refresh rule generalized to recovery.
                // Republishing under the scrambled counter instead would
                // stamp values clockwise-*behind* the helping pairs still
                // installed at the servers, and every reader's
                // inversion-prevention state would pin the pre-corruption
                // value essentially forever.
                let owned = self.owned.get_mut(&shard).expect("recovering owned shard");
                owned.map = map;
                owned.refs = refs;
                owned.stamper = WsnStamp::new(wsn);
                WriteIntent::Recovery
            }
            ReadGoal::Acquire => {
                // Dual-commit adoption: the quorum-read snapshot is the
                // old owner's last committed map (its final publish
                // completed before it emitted `ShardRetired`, and the
                // acquisition was gated on that), so adopting the map and
                // resyncing onto its stamp continues the register
                // sequence exactly where the old owner left it — the new
                // owner's first stamp is the clockwise successor, as if
                // the writer never changed.
                sub.trace(TraceEvent::Phase {
                    shard,
                    phase: "ShardAdopt",
                });
                self.owned.insert(
                    shard,
                    OwnedShard {
                        stamper: WsnStamp::new(wsn),
                        map,
                        refs,
                    },
                );
                WriteIntent::Acquire { shard }
            }
            ReadGoal::Get { .. } => unreachable!("only recoveries and acquisitions adopt"),
        };
        self.start_publish(shard, intent, Vec::new(), sub)
    }

    /// Pulls **every** queued get on `shard` out of the queue into `ops`,
    /// in queue order; all other queued ops keep their relative order.
    /// The gathered gets share one read round and all project the same
    /// snapshot. Safe even past interleaved puts on the shard: a gathered
    /// get overlaps those puts (everything in the queue is invoked,
    /// nothing completed), so returning the pre-put value linearizes the
    /// get before them — timing-level latitude the register contract
    /// already grants concurrent readers.
    fn absorb_get_run(&mut self, shard: u32, ops: &mut Vec<(OpId, String)>) {
        // One rotation through the queue, in place: every launch runs
        // this, and the queue keeps its allocation.
        for _ in 0..self.pending.len() {
            match self.pending.pop_front().expect("counted") {
                (op, StoreOp::Get { key }) if self.router.shard_of(&key) == shard => {
                    ops.push((op, key));
                }
                other => self.pending.push_back(other),
            }
        }
    }

    /// Pulls every queued put on `shard` out of the queue (group commit)
    /// into `puts` **in queue order** — the publish folds them into the
    /// authoritative map in that order, so per-key write order, the
    /// invariant the differential checker pins, is exactly the invocation
    /// order — and collects its op for the one shared publish. A get left
    /// behind in the queue overlaps these puts, so whichever snapshot it
    /// later reads is a legal concurrent outcome.
    fn absorb_put_run(&mut self, shard: u32, ops: &mut Vec<OpId>, puts: &mut Vec<(String, V)>) {
        for _ in 0..self.pending.len() {
            match self.pending.pop_front().expect("counted") {
                (op, StoreOp::Put { key, val }) if self.router.shard_of(&key) == shard => {
                    puts.push((key, val));
                    ops.push(op);
                }
                other => self.pending.push_back(other),
            }
        }
    }
}
