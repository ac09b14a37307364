//! Client-side protocol engines: the write operation (Fig. 2/3 lines
//! 01–06) and the read loop (lines 07–18, plus the sanity probe N2–N7 of
//! the atomic variant).
//!
//! Engines are *embedded* state machines, not top-level nodes: the SWSR
//! writer node holds one [`WriteEngine`], the MWMR process node holds a
//! [`ReadEngine`] and a [`WriteEngine`] and sequences them. The host node
//! routes incoming acknowledgements to the engine and calls
//! [`WriteEngine::poll`] / [`ReadEngine::poll`] after every event; `poll`
//! advances the phase machine and reports completion.
//!
//! ## Round liveness
//!
//! Every round arms a timer.
//!
//! In synchronous mode it is the paper's "wait for all `n` … or time-out"
//! (Fig. 5), and each round names the evidence that ends it before the
//! clock does: the write and read rounds end on `n` distinct
//! `ACK_WRITE`/`ACK_READ`s anchored to the round's tag; the help round,
//! whose request has no protocol acknowledgement, ends on `n` distinct
//! `SS_ACK`s of its tag. A server applies `NEW_HELP_VAL` before it sends
//! that ack and a Byzantine server is one identity, so `n` acks contain
//! every correct server's. When the timer fires first — which a silent
//! server forces — the round is evaluated with whatever arrived.
//!
//! In asynchronous mode the timer is a *retransmission* deadline: the round
//! restarts with a fresh session tag. The paper needs no explicit
//! retransmission at this layer because its ss-broadcast invocation
//! terminates unconditionally (its data-link keeps retransmitting,
//! footnote 3); re-broadcasting the round is the equivalent at session
//! granularity and is what keeps operations live when transient faults hit
//! in-flight state.
//!
//! The help round is broadcast *detached* (see
//! [`ClientLink::broadcast_detached`], filed under the register id), and
//! so is its asynchronous retransmission: it never replaces a host's
//! active round. [`WriteEngine::progress`] reports it apart from the
//! write round ([`WriteProgress::Helping`]), so a host may complete the
//! operation once the write round has and let the help round finish in
//! the background — provided the register's next `WRITE` waits for it.
//! The help round ends as before, on `n − t` `SS_ACK`s (async) or all `n`
//! or the timeout (sync); a round a transient fault scrambled or made the
//! link forget ends by retransmission or by the timeout. Its slot is
//! released when it ends.

use crate::clientlink::ClientLink;
use crate::config::{RegId, RegisterConfig};
use crate::msg::RegMsg;
use crate::value::Payload;
use sbs_link::SsTag;
use sbs_sim::{Context, DetRng, ProcessId, TimerId};
use std::collections::BTreeMap;

/// Where a write stands, as [`WriteEngine::progress`] reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteProgress {
    /// No write is running, or its write round (line 02) is still
    /// collecting acknowledgements.
    Pending,
    /// The write round completed and line 03 launched a help round (lines
    /// 04–05), which is still running. Reported on every call until the
    /// help round ends. The value is written: a host may complete the
    /// operation now, provided the register's next write waits for
    /// [`WriteProgress::Done`].
    Helping,
    /// The write completed (line 06) and the engine is idle again.
    /// Reported once per write.
    Done,
}

/// The write operation engine.
#[derive(Clone, Debug)]
pub struct WriteEngine<P> {
    reg: RegId,
    cfg: RegisterConfig,
    readers: Vec<ProcessId>,
    phase: WPhase<P>,
}

#[derive(Clone, Debug)]
enum WPhase<P> {
    Idle,
    /// WRITE broadcast; waiting for broadcast completion + ACK_WRITEs
    /// (line 02).
    WriteRound {
        tag: SsTag,
        val: P,
        acks: BTreeMap<ProcessId, Vec<(ProcessId, Option<P>)>>,
        timer: TimerId,
        timed_out: bool,
    },
    /// NEW_HELP_VAL broadcast; waiting for its completion (lines 04–05).
    HelpRound {
        tag: SsTag,
        val: P,
        readers: Vec<ProcessId>,
        timer: TimerId,
        timed_out: bool,
    },
}

impl<P: Payload> WriteEngine<P> {
    /// Creates an idle engine for register `reg` whose helping mechanism
    /// serves `readers`.
    pub fn new(reg: RegId, cfg: RegisterConfig, readers: Vec<ProcessId>) -> Self {
        WriteEngine {
            reg,
            cfg,
            readers,
            phase: WPhase::Idle,
        }
    }

    /// True when no write is in progress.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, WPhase::Idle)
    }

    /// Begins a write of `val` (line 01: ss-broadcast WRITE).
    ///
    /// # Panics
    ///
    /// Panics if a write is already in progress (clients are sequential).
    pub fn start<O: 'static>(
        &mut self,
        val: P,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        assert!(self.is_idle(), "writer is sequential; write already active");
        let reg = self.reg;
        let tag = link.broadcast(ctx, |tag| RegMsg::Write {
            reg,
            tag,
            val: val.clone(),
        });
        let timer = ctx.set_timer(self.round_timer());
        self.phase = WPhase::WriteRound {
            tag,
            val,
            acks: BTreeMap::new(),
            timer,
            timed_out: false,
        };
    }

    /// Feeds one `ACK_WRITE`. `anchored` is the session tag the sender last
    /// acknowledged (see `ClientLink::anchored_tag`).
    pub fn on_ack_write(
        &mut self,
        from: ProcessId,
        reg: RegId,
        helping: Vec<(ProcessId, Option<P>)>,
        anchored: Option<SsTag>,
    ) {
        if let WPhase::WriteRound { tag, acks, .. } = &mut self.phase {
            if reg == self.reg && anchored == Some(*tag) {
                acks.entry(from).or_insert(helping);
            }
        }
    }

    /// Feeds a timer firing; stale timers are ignored.
    pub fn on_timer(&mut self, id: TimerId) {
        match &mut self.phase {
            WPhase::WriteRound {
                timer, timed_out, ..
            }
            | WPhase::HelpRound {
                timer, timed_out, ..
            } if *timer == id => *timed_out = true,
            _ => {}
        }
    }

    /// Advances the machine. Returns `true` exactly once per operation,
    /// when the write completes (line 06) — help round included.
    pub fn poll<O: 'static>(
        &mut self,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) -> bool {
        self.progress(link, ctx) == WriteProgress::Done
    }

    /// Advances the machine and reports where the write stands; unlike
    /// [`WriteEngine::poll`] it tells a running help round
    /// ([`WriteProgress::Helping`]) apart from a running write round.
    pub fn progress<O: 'static>(
        &mut self,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) -> WriteProgress {
        match std::mem::replace(&mut self.phase, WPhase::Idle) {
            WPhase::Idle => WriteProgress::Pending,
            WPhase::WriteRound {
                tag,
                val,
                acks,
                timer,
                timed_out,
            } => {
                let ready = if self.cfg.is_sync() {
                    timed_out || acks.len() >= self.cfg.n
                } else if timed_out {
                    // Async retransmission: restart the round.
                    self.restart_write(val, link, ctx);
                    return WriteProgress::Pending;
                } else {
                    link.is_complete(tag) && acks.len() >= self.cfg.ack_quorum()
                };
                if !ready {
                    self.phase = WPhase::WriteRound {
                        tag,
                        val,
                        acks,
                        timer,
                        timed_out,
                    };
                    return WriteProgress::Pending;
                }
                ctx.cancel_timer(timer);
                // Line 03: does some w ≠ ⊥ appear in ≥ writer_help_quorum
                // acknowledgements, for every reader?
                let failing: Vec<ProcessId> = self
                    .readers
                    .iter()
                    .copied()
                    .filter(|r| !self.reader_has_agreed_help(&acks, *r))
                    .collect();
                if failing.is_empty() {
                    WriteProgress::Done
                } else {
                    // Lines 04–05: refresh the helping values.
                    self.broadcast_help(val, failing, link, ctx);
                    WriteProgress::Helping
                }
            }
            WPhase::HelpRound {
                tag,
                val,
                readers,
                timer,
                timed_out,
            } => {
                let ready = if self.cfg.is_sync() {
                    // Every server acked, and a server acks after it
                    // applied the value; else wait out the bound.
                    timed_out || link.is_acked_by_all(tag)
                } else if timed_out {
                    // Async retransmission of the helping broadcast, still
                    // detached: it replaces the old help round, never the
                    // host's active one.
                    self.broadcast_help(val, readers, link, ctx);
                    return WriteProgress::Helping;
                } else {
                    link.is_complete(tag)
                };
                if ready {
                    ctx.cancel_timer(timer);
                    link.release(self.reg.0);
                    WriteProgress::Done
                } else {
                    self.phase = WPhase::HelpRound {
                        tag,
                        val,
                        readers,
                        timer,
                        timed_out,
                    };
                    WriteProgress::Helping
                }
            }
        }
    }

    /// Transient fault: in-flight acknowledgement payloads become garbage.
    /// (Round control state is re-established by the retransmission timer.)
    pub fn corrupt(&mut self, rng: &mut DetRng) {
        if let WPhase::WriteRound { acks, .. } = &mut self.phase {
            for snapshot in acks.values_mut() {
                for (_, h) in snapshot.iter_mut() {
                    if let Some(v) = h {
                        v.scramble(rng);
                    }
                }
            }
        }
    }

    /// Broadcasts `NEW_HELP_VAL(val, readers)` detached under the register
    /// id and enters the help round.
    fn broadcast_help<O: 'static>(
        &mut self,
        val: P,
        readers: Vec<ProcessId>,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        let reg = self.reg;
        let tag = link.broadcast_detached(reg.0, ctx, |tag| RegMsg::NewHelpVal {
            reg,
            tag,
            val: val.clone(),
            readers: readers.clone(),
        });
        let timer = ctx.set_timer(self.round_timer());
        self.phase = WPhase::HelpRound {
            tag,
            val,
            readers,
            timer,
            timed_out: false,
        };
    }

    fn restart_write<O: 'static>(
        &mut self,
        val: P,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        let reg = self.reg;
        let tag = link.broadcast(ctx, |tag| RegMsg::Write {
            reg,
            tag,
            val: val.clone(),
        });
        let timer = ctx.set_timer(self.round_timer());
        self.phase = WPhase::WriteRound {
            tag,
            val,
            acks: BTreeMap::new(),
            timer,
            timed_out: false,
        };
    }

    fn reader_has_agreed_help(
        &self,
        acks: &BTreeMap<ProcessId, Vec<(ProcessId, Option<P>)>>,
        reader: ProcessId,
    ) -> bool {
        let mut counts: BTreeMap<&P, usize> = BTreeMap::new();
        for snapshot in acks.values() {
            if let Some((_, Some(w))) = snapshot.iter().find(|(r, _)| *r == reader) {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        counts.values().any(|&c| c >= self.cfg.writer_help_quorum())
    }

    fn round_timer(&self) -> sbs_sim::SimDuration {
        self.cfg.timeout().unwrap_or(self.cfg.retry_after)
    }
}

/// Uniform random choice among the values reaching `quorum`. `BTreeMap`
/// iteration is already ordered; the explicit sort keeps the choice
/// independent of the tally's container.
fn pick_quorum<P: Payload>(
    counts: BTreeMap<&P, usize>,
    quorum: usize,
    rng: &mut DetRng,
) -> Option<P> {
    let mut candidates: Vec<&P> = counts
        .into_iter()
        .filter(|&(_, c)| c >= quorum)
        .map(|(p, _)| p)
        .collect();
    candidates.sort();
    rng.pick(&candidates).map(|p| (*p).clone())
}

/// How a completed read found its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadSource {
    /// Agreement on `last_val` (lines 12–13).
    Last,
    /// Agreement on a helping value (lines 14–15).
    Help,
}

/// Progress reported by [`ReadEngine::poll`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadProgress<P> {
    /// The sanity probe (lines N2–N7) finished; the payload is the
    /// helping value `2t + 1` servers agreed on, if any.
    SanityDone(Option<P>),
    /// The read loop finished with this value from this source.
    Done(ReadSource, P),
}

/// The read operation engine.
#[derive(Clone, Debug)]
pub struct ReadEngine<P> {
    reg: RegId,
    cfg: RegisterConfig,
    phase: RPhase<P>,
    /// Rounds broadcast for the current operation (loop iterations plus
    /// retransmissions). Callers use this to detect a non-converging read
    /// (e.g. the MWMR own-register refresh rule).
    rounds: u32,
    /// The acknowledgements of the sanity probe that just completed, kept
    /// from [`ReadProgress::SanityDone`] until the read loop starts (see
    /// [`ReadEngine::sanity_lasts`]).
    probed: BTreeMap<ProcessId, (P, Option<P>)>,
}

#[derive(Clone, Debug)]
enum RPhase<P> {
    Idle,
    Round {
        /// True while executing the N2–N7 probe of the atomic variant.
        sanity: bool,
        /// The `new_read` flag this round was broadcast with.
        new_read: bool,
        tag: SsTag,
        acks: BTreeMap<ProcessId, (P, Option<P>)>,
        timer: TimerId,
        timed_out: bool,
    },
}

impl<P: Payload> ReadEngine<P> {
    /// Creates an idle engine for register `reg`.
    pub fn new(reg: RegId, cfg: RegisterConfig) -> Self {
        ReadEngine {
            reg,
            cfg,
            phase: RPhase::Idle,
            rounds: 0,
            probed: BTreeMap::new(),
        }
    }

    /// True when no read is in progress.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, RPhase::Idle)
    }

    /// Rounds broadcast for the current operation so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Abandons the in-flight read (its round timer is cancelled). Used by
    /// the MWMR refresh rule before republishing the process's own
    /// register.
    pub fn abort<O: 'static>(&mut self, ctx: &mut Context<'_, RegMsg<P>, O>) {
        if let RPhase::Round { timer, .. } = std::mem::replace(&mut self.phase, RPhase::Idle) {
            ctx.cancel_timer(timer);
        }
        self.rounds = 0;
        self.probed.clear();
    }

    /// Begins the sanity probe (line N2: ss-broadcast READ(false)).
    pub fn start_sanity<O: 'static>(
        &mut self,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        assert!(self.is_idle(), "reader is sequential; read already active");
        self.rounds = 0;
        self.broadcast_round(true, false, link, ctx);
    }

    /// Begins the read loop (line 07: new_read ← true; line 09).
    pub fn start_read<O: 'static>(
        &mut self,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        assert!(self.is_idle(), "reader is sequential; read already active");
        self.probed.clear();
        self.broadcast_round(false, true, link, ctx);
    }

    /// The `last` values of the sanity probe's acknowledgements, one per
    /// server, between [`ReadProgress::SanityDone`] and
    /// [`ReadEngine::start_read`] (empty otherwise). The read decides
    /// nothing from them; a caller may use them to *speculate* on what the
    /// read loop will return.
    pub fn sanity_lasts(&self) -> impl Iterator<Item = &P> + '_ {
        self.probed.values().map(|(last, _)| last)
    }

    /// Feeds one `ACK_READ`.
    pub fn on_ack_read(
        &mut self,
        from: ProcessId,
        reg: RegId,
        last: P,
        helping: Option<P>,
        anchored: Option<SsTag>,
    ) {
        if let RPhase::Round { tag, acks, .. } = &mut self.phase {
            if reg == self.reg && anchored == Some(*tag) {
                acks.entry(from).or_insert((last, helping));
            }
        }
    }

    /// Feeds a timer firing; stale timers are ignored.
    pub fn on_timer(&mut self, id: TimerId) {
        if let RPhase::Round {
            timer, timed_out, ..
        } = &mut self.phase
        {
            if *timer == id {
                *timed_out = true;
            }
        }
    }

    /// Advances the machine; reports sanity completion or the read's value.
    pub fn poll<O: 'static>(
        &mut self,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) -> Option<ReadProgress<P>> {
        let RPhase::Round {
            sanity,
            new_read,
            tag,
            acks,
            timer,
            timed_out,
        } = std::mem::replace(&mut self.phase, RPhase::Idle)
        else {
            return None;
        };
        let ready = if self.cfg.is_sync() {
            timed_out || acks.len() >= self.cfg.n
        } else if timed_out {
            // Async retransmission: restart the same round.
            self.broadcast_round(sanity, new_read, link, ctx);
            return None;
        } else {
            link.is_complete(tag) && acks.len() >= self.cfg.ack_quorum()
        };
        if !ready {
            self.phase = RPhase::Round {
                sanity,
                new_read,
                tag,
                acks,
                timer,
                timed_out,
            };
            return None;
        }
        ctx.cancel_timer(timer);

        if sanity {
            // Lines N4–N5: look only at the helping values.
            let agreed = self.agreed_help(&acks, ctx.rng());
            self.probed = acks;
            return Some(ReadProgress::SanityDone(agreed));
        }
        // Line 12: 2t+1 (t+1 sync) identical last_val?
        if let Some(p) = self.agreed_last(&acks, ctx.rng()) {
            return Some(ReadProgress::Done(ReadSource::Last, p));
        }
        // Line 14: 2t+1 (t+1 sync) identical helping_val ≠ ⊥?
        if let Some(p) = self.agreed_help(&acks, ctx.rng()) {
            return Some(ReadProgress::Done(ReadSource::Help, p));
        }
        // Line 18: loop again (READ(false) — new_read was consumed).
        self.broadcast_round(false, false, link, ctx);
        None
    }

    /// Transient fault: in-flight acknowledgement payloads become garbage.
    pub fn corrupt(&mut self, rng: &mut DetRng) {
        if let RPhase::Round { acks, .. } = &mut self.phase {
            for (last, helping) in acks.values_mut() {
                last.scramble(rng);
                if let Some(h) = helping {
                    h.scramble(rng);
                }
            }
        }
    }

    fn broadcast_round<O: 'static>(
        &mut self,
        sanity: bool,
        new_read: bool,
        link: &mut ClientLink,
        ctx: &mut Context<'_, RegMsg<P>, O>,
    ) {
        self.rounds = self.rounds.saturating_add(1);
        let reg = self.reg;
        let tag = link.broadcast(ctx, |tag| RegMsg::Read { reg, tag, new_read });
        let timer = ctx.set_timer(self.round_timer());
        self.phase = RPhase::Round {
            sanity,
            new_read,
            tag,
            acks: BTreeMap::new(),
            timer,
            timed_out: false,
        };
    }

    /// The quorum predicates of lines 12/14 do not say *which* value to
    /// take when several reach the threshold (during a write both the old
    /// and the new value can hold a quorum). Any of them is a legal regular
    /// answer; choosing one deterministically would silently bias the
    /// register toward (or away from) new/old inversions, so the choice is
    /// made uniformly at random from the client's seeded stream — this is
    /// exactly the nondeterminism that Figure 1 exploits and that the
    /// atomic construction's `pwsn` bookkeeping then defeats.
    fn agreed_last(
        &self,
        acks: &BTreeMap<ProcessId, (P, Option<P>)>,
        rng: &mut DetRng,
    ) -> Option<P> {
        let mut counts: BTreeMap<&P, usize> = BTreeMap::new();
        for (last, _) in acks.values() {
            *counts.entry(last).or_insert(0) += 1;
        }
        pick_quorum(counts, self.cfg.last_quorum(), rng)
    }

    fn agreed_help(
        &self,
        acks: &BTreeMap<ProcessId, (P, Option<P>)>,
        rng: &mut DetRng,
    ) -> Option<P> {
        let mut counts: BTreeMap<&P, usize> = BTreeMap::new();
        for (_, helping) in acks.values() {
            if let Some(w) = helping {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        pick_quorum(counts, self.cfg.help_quorum(), rng)
    }

    fn round_timer(&self) -> sbs_sim::SimDuration {
        self.cfg.timeout().unwrap_or(self.cfg.retry_after)
    }
}

#[cfg(test)]
mod tests {
    //! How the `NEW_HELP_VAL` round ends, per mode. (The quorum arithmetic
    //! of the other rounds is pinned in `tests/engine_unit.rs`.)

    use super::*;
    use sbs_sim::{Effects, SimDuration, SimTime};

    const READER: ProcessId = ProcessId(1);

    /// A write engine driven up to its help round: every server answered
    /// the write round with `helping = ⊥`, so line 03 fails.
    struct HelpRig {
        eng: WriteEngine<u64>,
        link: ClientLink,
        srv: Vec<ProcessId>,
        rng: DetRng,
        next_timer: u64,
        help_tag: SsTag,
        help_timer: TimerId,
    }

    impl HelpRig {
        fn new(cfg: RegisterConfig) -> Self {
            let srv: Vec<ProcessId> = (10..10 + cfg.n as u32).map(ProcessId).collect();
            let mut rig = HelpRig {
                eng: WriteEngine::new(RegId(0), cfg, vec![READER]),
                link: ClientLink::new(srv.clone(), cfg.t),
                srv,
                rng: DetRng::from_seed(1),
                next_timer: 0,
                help_tag: 0,
                help_timer: TimerId(0),
            };
            let ((), eff) = rig.step(|eng, link, ctx| eng.start(42, link, ctx));
            let write_tag = round_tag(&eff);
            for s in rig.srv.clone() {
                rig.link.on_ss_ack(s, write_tag);
                let anchored = rig.link.anchored_tag(s);
                rig.eng
                    .on_ack_write(s, RegId(0), vec![(READER, None)], anchored);
            }
            let (done, eff) = rig.poll();
            assert!(!done, "the help round runs first");
            rig.help_tag = round_tag(&eff);
            rig.help_timer = eff.timers_set()[0].0;
            rig
        }

        fn step<R>(
            &mut self,
            f: impl FnOnce(
                &mut WriteEngine<u64>,
                &mut ClientLink,
                &mut Context<'_, RegMsg<u64>, ()>,
            ) -> R,
        ) -> (R, Effects<RegMsg<u64>, ()>) {
            let mut eff = Effects::new();
            let mut ctx = Context::new(
                SimTime::ZERO,
                ProcessId(0),
                &mut self.rng,
                &mut self.next_timer,
                &mut eff,
            );
            let r = f(&mut self.eng, &mut self.link, &mut ctx);
            (r, eff)
        }

        fn poll(&mut self) -> (bool, Effects<RegMsg<u64>, ()>) {
            self.step(|eng, link, ctx| eng.poll(link, ctx))
        }

        /// `SS_ACK(tag)` from each of `who`, then a poll.
        fn ack_and_poll(&mut self, who: &[ProcessId], tag: SsTag) -> bool {
            for &s in who {
                self.link.on_ss_ack(s, tag);
            }
            self.poll().0
        }
    }

    fn round_tag(eff: &Effects<RegMsg<u64>, ()>) -> SsTag {
        match eff.sends()[0].1 {
            RegMsg::Write { tag, .. } | RegMsg::NewHelpVal { tag, .. } => tag,
            ref other => panic!("not a write-side broadcast: {other:?}"),
        }
    }

    fn sync4() -> RegisterConfig {
        RegisterConfig::synchronous(4, 1, SimDuration::millis(5))
    }

    #[test]
    fn sync_help_round_completes_on_the_nth_distinct_ss_ack() {
        let mut rig = HelpRig::new(sync4());
        let (srv, tag, timer) = (rig.srv.clone(), rig.help_tag, rig.help_timer);
        assert!(
            !rig.ack_and_poll(&srv[..3], tag),
            "n − 1 acks are not all n"
        );
        for &s in &srv[3..] {
            rig.link.on_ss_ack(s, tag);
        }
        let (done, eff) = rig.poll();
        assert!(done, "all n servers acked: no need to wait out the bound");
        let (_, _, cancelled, _) = eff.into_parts();
        assert_eq!(
            cancelled,
            vec![timer],
            "the unfired round timer is cancelled"
        );
        assert!(rig.eng.is_idle());
    }

    #[test]
    fn sync_help_round_with_n_minus_1_acks_waits_for_the_timer() {
        let mut rig = HelpRig::new(sync4());
        let (srv, tag, timer) = (rig.srv.clone(), rig.help_tag, rig.help_timer);
        assert!(!rig.ack_and_poll(&srv[1..], tag));
        rig.eng.on_timer(TimerId(timer.0 + 1000));
        assert!(!rig.poll().0, "a stale timer id is not the round's timeout");
        rig.eng.on_timer(timer);
        assert!(
            rig.poll().0,
            "a silent server costs the timeout, not liveness"
        );
    }

    #[test]
    fn sync_help_round_is_not_completed_early_by_forged_or_scrambled_acks() {
        let mut rig = HelpRig::new(sync4());
        let (srv, tag) = (rig.srv.clone(), rig.help_tag);
        assert!(!rig.ack_and_poll(&srv[..3], tag));
        // What one Byzantine server (srv[0]) can send: the write round's
        // stale tag, random tags, its own ack again — and an outsider's ack.
        for forged in [tag.wrapping_sub(1), tag.wrapping_add(1), 0xDEAD_BEEF] {
            assert!(!rig.ack_and_poll(&srv[..1], forged));
        }
        for _ in 0..3 {
            assert!(!rig.ack_and_poll(&srv[..1], tag));
        }
        assert!(!rig.ack_and_poll(&[ProcessId(99)], tag));
        // A transient fault on the link scrambles anchors, not evidence:
        // the round still needs the one server that has not acked.
        let mut fault = DetRng::from_seed(9);
        rig.link.corrupt(&mut fault);
        assert!(!rig.poll().0);
        assert!(!rig.ack_and_poll(&srv[..3], tag));
        assert!(rig.ack_and_poll(&srv[3..], tag));
    }

    #[test]
    fn async_help_round_still_completes_at_link_completion() {
        let mut rig = HelpRig::new(RegisterConfig::asynchronous(9, 1));
        let (srv, tag) = (rig.srv.clone(), rig.help_tag);
        assert!(!rig.ack_and_poll(&srv[..7], tag), "n − t − 1 acks");
        assert!(!rig.link.is_complete(tag));
        // The completed round releases its tag, so read the link's state
        // between the (n − t)-th ack and the poll that ends the round.
        rig.link.on_ss_ack(srv[7], tag);
        assert!(rig.link.is_complete(tag) && !rig.link.is_acked_by_all(tag));
        assert!(rig.poll().0, "the (n − t)-th ack ends the round");
        assert_eq!(rig.link.detached(), 0, "its detached slot is released");
    }

    #[test]
    fn the_help_round_runs_detached_and_reports_helping_until_it_ends() {
        let mut rig = HelpRig::new(RegisterConfig::asynchronous(9, 1));
        let (srv, tag) = (rig.srv.clone(), rig.help_tag);
        assert_eq!(rig.link.detached(), 1);
        let (progress, _) = rig.step(|eng, link, ctx| eng.progress(link, ctx));
        assert_eq!(progress, WriteProgress::Helping);
        // A host's next round does not abandon it; its retransmission
        // replaces it in the same slot and stays detached.
        rig.step(|_, link, ctx| {
            link.broadcast(ctx, |tag| RegMsg::Read {
                reg: RegId(0),
                tag,
                new_read: true,
            })
        });
        rig.eng.on_timer(rig.help_timer);
        let (progress, eff) = rig.step(|eng, link, ctx| eng.progress(link, ctx));
        assert_eq!(progress, WriteProgress::Helping);
        let retry = round_tag(&eff);
        assert!(matches!(eff.sends()[0].1, RegMsg::NewHelpVal { .. }));
        assert_eq!(rig.link.detached(), 1);
        for &s in &srv[..8] {
            rig.link.on_ss_ack(s, tag);
        }
        assert!(!rig.poll().0, "the replaced round's acks count for nothing");
        for &s in &srv[..8] {
            rig.link.on_ss_ack(s, retry);
        }
        let (progress, _) = rig.step(|eng, link, ctx| eng.progress(link, ctx));
        assert_eq!(progress, WriteProgress::Done);
        assert_eq!(rig.link.detached(), 0);
        assert!(rig.eng.is_idle());
    }

    #[test]
    fn helping_ss_acks_interleaved_with_a_read_leave_its_acks_anchored() {
        let mut rig = HelpRig::new(RegisterConfig::asynchronous(9, 1));
        let (srv, help) = (rig.srv.clone(), rig.help_tag);
        let mut reader = ReadEngine::<u64>::new(RegId(0), RegisterConfig::asynchronous(9, 1));
        let ((), eff) = rig.step(|_, link, ctx| reader.start_sanity(link, ctx));
        let RegMsg::Read { tag: read, .. } = eff.sends()[0].1 else {
            panic!("the sanity probe broadcasts READ");
        };
        // FIFO links put each ACK_READ right behind its own SS_ACK; the
        // helping SS_ACK lands before that pair at even servers and after
        // it at odd ones. NEW_HELP_VAL has no protocol ack of its own.
        for (i, &s) in srv.iter().enumerate() {
            if i % 2 == 0 {
                rig.link.on_ss_ack(s, help);
            }
            rig.link.on_ss_ack(s, read);
            let anchored = rig.link.anchored_tag(s);
            assert_eq!(anchored, Some(read), "server {i}");
            reader.on_ack_read(s, RegId(0), 7, None, anchored);
            if i % 2 == 1 {
                rig.link.on_ss_ack(s, help);
            }
        }
        let (progress, _) = rig.step(|_, link, ctx| reader.poll(link, ctx));
        assert_eq!(progress, Some(ReadProgress::SanityDone(None)));
        assert_eq!(reader.sanity_lasts().count(), 9, "every ACK_READ counted");
        assert!(rig.poll().0, "and the help round completed beside it");
    }
}
