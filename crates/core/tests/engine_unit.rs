//! Direct unit tests of the client engines, driven with hand-built
//! contexts — no simulator. These pin down the exact quorum arithmetic and
//! phase transitions of Figures 2/3 lines 01–18.

use sbs_core::{
    ClientLink, ReadEngine, ReadProgress, ReadSource, RegId, RegMsg, RegisterConfig, WriteEngine,
};
use sbs_sim::{Context, DetRng, Effects, ProcessId, SimTime, TimerId};

type Eff = Effects<RegMsg<u64>, ()>;

struct Rig {
    rng: DetRng,
    next_timer: u64,
    now: SimTime,
}

impl Rig {
    fn new() -> Self {
        Rig {
            rng: DetRng::from_seed(1),
            next_timer: 0,
            now: SimTime::ZERO,
        }
    }

    fn with_ctx<R>(&mut self, f: impl FnOnce(&mut Context<'_, RegMsg<u64>, ()>) -> R) -> (R, Eff) {
        let mut eff: Eff = Effects::new();
        let r = {
            let mut ctx = Context::new(
                self.now,
                ProcessId(0),
                &mut self.rng,
                &mut self.next_timer,
                &mut eff,
            );
            f(&mut ctx)
        };
        (r, eff)
    }
}

fn servers(n: u32) -> Vec<ProcessId> {
    (10..10 + n).map(ProcessId).collect()
}

const READER: ProcessId = ProcessId(1);

/// Feeds SS acks for the latest broadcast to `count` servers, anchoring
/// them. Returns the tag acked.
fn ack_session(link: &mut ClientLink, who: &[ProcessId], tag: u64) {
    for &s in who {
        link.on_ss_ack(s, tag);
    }
}

/// Extracts the session tag of the first broadcast message in `eff`.
fn broadcast_tag(eff: &Eff) -> u64 {
    eff.sends()
        .iter()
        .find_map(|(_, m)| match m {
            RegMsg::Write { tag, .. }
            | RegMsg::NewHelpVal { tag, .. }
            | RegMsg::Read { tag, .. } => Some(*tag),
            _ => None,
        })
        .expect("a broadcast was sent")
}

#[test]
fn write_completes_with_quorum_and_agreed_helping() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let srv = servers(9);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: WriteEngine<u64> = WriteEngine::new(RegId(0), cfg, vec![READER]);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start(42, &mut link, ctx));
    let tag = broadcast_tag(&eff);
    // 9 WRITEs + 1 timer.
    assert_eq!(eff.sends().len(), 9);
    assert_eq!(eff.timers_set().len(), 1);

    // All servers ss-ack and protocol-ack with an agreed helping value
    // (≥ 4t+1 = 5 identical) — the writer must finish without helping.
    ack_session(&mut link, &srv, tag);
    for &s in &srv[..8] {
        eng.on_ack_write(
            s,
            RegId(0),
            vec![(READER, Some(7u64))],
            link.anchored_tag(s),
        );
    }
    let (done, eff) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert!(done, "write must complete at n−t acks with agreed helping");
    assert!(
        !eff.sends()
            .iter()
            .any(|(_, m)| matches!(m, RegMsg::NewHelpVal { .. })),
        "no NEW_HELP_VAL when 4t+1 agree"
    );
}

#[test]
fn write_refreshes_helping_when_predicate_fails() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let srv = servers(9);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: WriteEngine<u64> = WriteEngine::new(RegId(0), cfg, vec![READER]);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start(42, &mut link, ctx));
    let tag = broadcast_tag(&eff);
    ack_session(&mut link, &srv, tag);
    // All helping slots are ⊥ (reader just reset them): predicate fails.
    for &s in &srv[..8] {
        eng.on_ack_write(s, RegId(0), vec![(READER, None)], link.anchored_tag(s));
    }
    let (done, eff) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert!(!done, "write enters the help round first");
    let help_tag = broadcast_tag(&eff);
    assert!(eff
        .sends()
        .iter()
        .all(|(_, m)| matches!(m, RegMsg::NewHelpVal { val: 42, .. })));

    // The help broadcast completes (n−t session acks) → write done.
    ack_session(&mut link, &srv[..8], help_tag);
    let (done, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert!(done, "write completes after NEW_HELP_VAL is synchronized");
}

#[test]
fn stale_and_misanchored_acks_are_ignored() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let srv = servers(9);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: WriteEngine<u64> = WriteEngine::new(RegId(0), cfg, vec![READER]);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start(42, &mut link, ctx));
    let tag = broadcast_tag(&eff);
    // Server 0 acks a *stale* session tag: its protocol ack must not count.
    link.on_ss_ack(srv[0], tag.wrapping_add(999));
    eng.on_ack_write(
        srv[0],
        RegId(0),
        vec![(READER, Some(7))],
        link.anchored_tag(srv[0]),
    );
    // Wrong register id must not count either.
    link.on_ss_ack(srv[1], tag);
    eng.on_ack_write(
        srv[1],
        RegId(5),
        vec![(READER, Some(7))],
        link.anchored_tag(srv[1]),
    );
    let (done, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert!(!done, "neither ack may count toward the quorum");
}

#[test]
fn read_loop_returns_on_last_quorum_and_reports_source() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let srv = servers(9);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: ReadEngine<u64> = ReadEngine::new(RegId(0), cfg);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start_read(&mut link, ctx));
    let tag = broadcast_tag(&eff);
    assert!(eff
        .sends()
        .iter()
        .all(|(_, m)| matches!(m, RegMsg::Read { new_read: true, .. })));

    ack_session(&mut link, &srv, tag);
    for &s in &srv[..8] {
        eng.on_ack_read(s, RegId(0), 42, None, link.anchored_tag(s));
    }
    let (progress, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert_eq!(progress, Some(ReadProgress::Done(ReadSource::Last, 42)));
    assert_eq!(eng.rounds(), 1);
}

#[test]
fn read_falls_back_to_helping_then_loops() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let srv = servers(9);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: ReadEngine<u64> = ReadEngine::new(RegId(0), cfg);
    let mut rig = Rig::new();

    // Round 1: last values all distinct (no 2t+1 quorum), helping agreed.
    let ((), eff) = rig.with_ctx(|ctx| eng.start_read(&mut link, ctx));
    let tag = broadcast_tag(&eff);
    ack_session(&mut link, &srv, tag);
    for (i, &s) in srv[..8].iter().enumerate() {
        eng.on_ack_read(s, RegId(0), 1000 + i as u64, Some(77), link.anchored_tag(s));
    }
    let (progress, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert_eq!(
        progress,
        Some(ReadProgress::Done(ReadSource::Help, 77)),
        "line 14: agreed helping value is returned"
    );

    // Round with neither quorum: the loop re-broadcasts READ(false).
    let mut eng: ReadEngine<u64> = ReadEngine::new(RegId(0), cfg);
    let ((), eff) = rig.with_ctx(|ctx| eng.start_read(&mut link, ctx));
    let tag = broadcast_tag(&eff);
    ack_session(&mut link, &srv, tag);
    for (i, &s) in srv[..8].iter().enumerate() {
        eng.on_ack_read(s, RegId(0), 2000 + i as u64, None, link.anchored_tag(s));
    }
    let (progress, eff) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert_eq!(progress, None, "no quorum: keep looping");
    assert!(
        eff.sends().iter().all(|(_, m)| matches!(
            m,
            RegMsg::Read {
                new_read: false,
                ..
            }
        )),
        "subsequent rounds carry new_read = false (line 10)"
    );
    assert_eq!(eng.rounds(), 2);
}

#[test]
fn sanity_probe_reports_agreed_helping_without_touching_last() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let srv = servers(9);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: ReadEngine<u64> = ReadEngine::new(RegId(0), cfg);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start_sanity(&mut link, ctx));
    let tag = broadcast_tag(&eff);
    assert!(
        eff.sends().iter().all(|(_, m)| matches!(
            m,
            RegMsg::Read {
                new_read: false,
                ..
            }
        )),
        "the probe must not reset helping (line N2 sends READ(false))"
    );
    ack_session(&mut link, &srv, tag);
    for &s in &srv[..8] {
        // Unanimous last values — but the probe only looks at helping.
        eng.on_ack_read(s, RegId(0), 42, Some(9), link.anchored_tag(s));
    }
    let (progress, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert_eq!(progress, Some(ReadProgress::SanityDone(Some(9))));
}

#[test]
fn sanity_lasts_are_the_probes_acks_until_the_read_loop_starts() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let srv = servers(9);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: ReadEngine<u64> = ReadEngine::new(RegId(0), cfg);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start_sanity(&mut link, ctx));
    let tag = broadcast_tag(&eff);
    ack_session(&mut link, &srv, tag);
    for (i, &s) in srv[..8].iter().enumerate() {
        eng.on_ack_read(s, RegId(0), 40 + i as u64 % 2, None, link.anchored_tag(s));
        assert_eq!(
            eng.sanity_lasts().count(),
            0,
            "nothing before the probe ends"
        );
    }
    let (progress, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert_eq!(progress, Some(ReadProgress::SanityDone(None)));
    let mut lasts: Vec<u64> = eng.sanity_lasts().copied().collect();
    lasts.sort_unstable();
    assert_eq!(
        lasts,
        [40, 40, 40, 40, 41, 41, 41, 41],
        "one per acking server"
    );

    let ((), _) = rig.with_ctx(|ctx| eng.start_read(&mut link, ctx));
    assert_eq!(eng.sanity_lasts().count(), 0, "the read loop drops them");
}

#[test]
fn async_timeout_restarts_the_round_with_a_fresh_tag() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let srv = servers(9);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: ReadEngine<u64> = ReadEngine::new(RegId(0), cfg);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start_read(&mut link, ctx));
    let tag1 = broadcast_tag(&eff);
    let timer = eff.timers_set()[0].0;
    eng.on_timer(timer);
    let (progress, eff) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert_eq!(progress, None);
    let tag2 = broadcast_tag(&eff);
    assert_ne!(tag1, tag2, "retransmission uses a fresh session tag");
    assert_eq!(eng.rounds(), 2);
    // A stale timer id is ignored.
    eng.on_timer(TimerId(99_999));
    let (progress, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert_eq!(progress, None);
}

#[test]
fn sync_mode_evaluates_on_timeout_with_partial_acks() {
    let cfg = RegisterConfig::synchronous(4, 1, sbs_sim::SimDuration::millis(1));
    let srv = servers(4);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: ReadEngine<u64> = ReadEngine::new(RegId(0), cfg);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start_read(&mut link, ctx));
    let tag = broadcast_tag(&eff);
    let timer = eff.timers_set()[0].0;
    // Only 2 of 4 answer (t+1 = 2 agree) before the timeout fires.
    ack_session(&mut link, &srv[..2], tag);
    for &s in &srv[..2] {
        eng.on_ack_read(s, RegId(0), 5, None, link.anchored_tag(s));
    }
    let (progress, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert_eq!(progress, None, "sync waits for all n or the timeout");
    eng.on_timer(timer);
    let (progress, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert_eq!(
        progress,
        Some(ReadProgress::Done(ReadSource::Last, 5)),
        "timeout evaluates with whatever arrived (Fig. 5 line 11.M)"
    );
}

#[test]
fn abort_cancels_the_round() {
    let cfg = RegisterConfig::asynchronous(9, 1);
    let srv = servers(9);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: ReadEngine<u64> = ReadEngine::new(RegId(0), cfg);
    let mut rig = Rig::new();

    rig.with_ctx(|ctx| eng.start_read(&mut link, ctx));
    assert!(!eng.is_idle());
    rig.with_ctx(|ctx| eng.abort(ctx));
    assert!(eng.is_idle());
    assert_eq!(eng.rounds(), 0);
}

#[test]
fn sync_write_completes_on_all_n_before_timeout() {
    let cfg = RegisterConfig::synchronous(4, 1, sbs_sim::SimDuration::millis(1));
    let srv = servers(4);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: WriteEngine<u64> = WriteEngine::new(RegId(0), cfg, vec![READER]);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start(9, &mut link, ctx));
    let tag = broadcast_tag(&eff);
    ack_session(&mut link, &srv, tag);
    // All four answer with an agreed helping value (t+1 = 2 suffices).
    for &s in &srv {
        eng.on_ack_write(
            s,
            RegId(0),
            vec![(READER, Some(5u64))],
            link.anchored_tag(s),
        );
    }
    let (done, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert!(
        done,
        "all n acks complete the round early (Fig. 5 line 02.M)"
    );
}

#[test]
fn sync_write_timeout_evaluates_with_partial_acks_and_helps() {
    let cfg = RegisterConfig::synchronous(4, 1, sbs_sim::SimDuration::millis(1));
    let srv = servers(4);
    let mut link = ClientLink::new(srv.clone(), 1);
    let mut eng: WriteEngine<u64> = WriteEngine::new(RegId(0), cfg, vec![READER]);
    let mut rig = Rig::new();

    let ((), eff) = rig.with_ctx(|ctx| eng.start(9, &mut link, ctx));
    let tag = broadcast_tag(&eff);
    let timer = eff.timers_set()[0].0;
    // Only 3 of 4 answer, helping all ⊥ — the timeout fires and the
    // predicate (t+1 identical non-⊥) fails, so NEW_HELP_VAL follows.
    ack_session(&mut link, &srv[..3], tag);
    for &s in &srv[..3] {
        eng.on_ack_write(s, RegId(0), vec![(READER, None)], link.anchored_tag(s));
    }
    let (done, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert!(!done, "sync write waits for all n or the timeout");
    eng.on_timer(timer);
    let (done, eff) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert!(!done, "the help round runs first");
    assert!(eff
        .sends()
        .iter()
        .all(|(_, m)| matches!(m, RegMsg::NewHelpVal { .. })));
    // No server acks the help broadcast, so the round ends on its timeout.
    let help_timer = eff.timers_set()[0].0;
    eng.on_timer(help_timer);
    let (done, _) = rig.with_ctx(|ctx| eng.poll(&mut link, ctx));
    assert!(done, "the write returns after the help round's timeout");
}
