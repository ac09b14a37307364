//! Baseline 2: a quiescence-dependent stabilizing regular register,
//! `n ≥ 5t + 1`, reconstructed in the spirit of Bonomi–Potop-Butucaru–
//! Tixeuil (reference \[3\] of the paper).
//!
//! The client protocol is the masking scheme with a larger read quorum
//! (`2t + 1` identical pairs out of `n − t` replies). What makes it
//! *stabilizing* is a server-to-server **cleaning round**: periodically,
//! servers exchange their `(ts, val)` pairs and, **provided no write was
//! observed during the round** (the paper's "write operation quiescence"
//! assumption), repair their state:
//!
//! - if `2t + 1` received pairs agree, adopt that pair (a correct recent
//!   state survives a partial corruption);
//! - otherwise the state is corrupt beyond recognition — adopt the
//!   *median-timestamp* report and **reset the timestamp to 0**, so that
//!   the writer's (possibly also corrupted-low) counter can win again.
//!
//! A write observed mid-round aborts the repair. Hence the contrast that
//! experiment E8 measures: under a write-quiescent window this register
//! recovers from transient faults; under a continuously writing client it
//! never does — while the paper's register needs *no* quiescence.

use crate::msg::BMsg;
use sbs_core::{ClientOut, Payload};
use sbs_sim::{Context, DetRng, Node, ProcessId, SimDuration, TimerId};
use std::any::Any;
use std::collections::HashMap;

/// How often servers run the cleaning round.
pub const CLEANING_PERIOD: SimDuration = SimDuration::millis(20);

/// The quiescence-dependent server: masking storage plus the cleaning
/// protocol.
#[derive(Clone, Debug)]
pub struct QuiescentServer<V> {
    peers: Vec<ProcessId>,
    t: usize,
    ts: u64,
    val: V,
    /// Reports collected during the current cleaning round.
    reports: HashMap<ProcessId, (u64, V)>,
    /// Set when a write arrives mid-round; aborts the repair.
    write_seen: bool,
    timer: Option<TimerId>,
}

impl<V: Payload> QuiescentServer<V> {
    /// Creates a server. `peers` are the *other* servers (for gossip).
    pub fn new(initial: V, peers: Vec<ProcessId>, t: usize) -> Self {
        QuiescentServer {
            peers,
            t,
            ts: 0,
            val: initial,
            reports: HashMap::new(),
            write_seen: false,
            timer: None,
        }
    }

    /// The stored pair (for assertions).
    pub fn stored(&self) -> (u64, &V) {
        (self.ts, &self.val)
    }

    /// The cleaning repair rule; runs only on write-quiescent rounds.
    #[allow(clippy::type_complexity, clippy::int_plus_one)]
    fn repair(&mut self) {
        // Include our own state among the reports.
        let mut all: Vec<(u64, V)> = self.reports.values().cloned().collect();
        all.push((self.ts, self.val.clone()));

        let mut counts: HashMap<(u64, &V), usize> = HashMap::new();
        for (ts, v) in &all {
            *counts.entry((*ts, v)).or_insert(0) += 1;
        }
        if let Some(((ts, v), _)) = counts
            .iter()
            .filter(|&(_, &c)| c >= 2 * self.t + 1)
            .max_by_key(|&(&(ts, _), _)| ts)
            .map(|(&(ts, v), &c)| ((ts, v.clone()), c))
        {
            self.ts = ts;
            self.val = v;
            return;
        }
        // No agreement: the state is corrupt. Adopt the median-timestamp
        // report and reset the counter so fresh writes win again.
        all.sort_by_key(|(ts, _)| *ts);
        let (_, median_val) = all[all.len() / 2].clone();
        self.ts = 0;
        self.val = median_val;
    }
}

impl<V: Payload> Node for QuiescentServer<V> {
    type Msg = BMsg<V>;
    type Out = ClientOut<V>;

    fn on_start(&mut self, ctx: &mut Context<'_, BMsg<V>, ClientOut<V>>) {
        self.timer = Some(ctx.set_timer(CLEANING_PERIOD));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BMsg<V>,
        ctx: &mut Context<'_, BMsg<V>, ClientOut<V>>,
    ) {
        match msg {
            BMsg::Write { ts, val } => {
                self.write_seen = true;
                if ts > self.ts {
                    self.ts = ts;
                    self.val = val;
                }
                ctx.send(from, BMsg::AckWrite { ts });
            }
            BMsg::Read { rid } => {
                ctx.send(
                    from,
                    BMsg::AckRead {
                        rid,
                        ts: self.ts,
                        val: self.val.clone(),
                    },
                );
            }
            BMsg::Gossip { ts, val } => {
                self.reports.insert(from, (ts, val));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, id: TimerId, ctx: &mut Context<'_, BMsg<V>, ClientOut<V>>) {
        if self.timer != Some(id) {
            return;
        }
        // End of round: repair if quiescent, then start the next round by
        // gossiping the (possibly repaired) state.
        if !self.write_seen && self.reports.len() >= self.peers.len() - self.t {
            self.repair();
        }
        self.write_seen = false;
        self.reports.clear();
        ctx.send_all(
            self.peers.iter().copied(),
            BMsg::Gossip {
                ts: self.ts,
                val: self.val.clone(),
            },
        );
        self.timer = Some(ctx.set_timer(CLEANING_PERIOD));
    }

    fn on_corrupt(&mut self, rng: &mut DetRng) {
        self.ts = rng.next_u64();
        self.val.scramble(rng);
        self.reports.clear();
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(t: usize, n: usize) -> QuiescentServer<u64> {
        let peers = (1..n as u32).map(ProcessId).collect();
        QuiescentServer::new(0u64, peers, t)
    }

    #[test]
    fn repair_adopts_quorum_agreement() {
        let mut s = server(1, 6);
        s.ts = 999_999;
        s.val = 42424242;
        for i in 1..6 {
            s.reports.insert(ProcessId(i), (7, 70));
        }
        s.repair();
        assert_eq!(s.stored(), (7, &70));
    }

    #[test]
    fn repair_resets_timestamp_when_no_agreement() {
        let mut s = server(1, 6);
        s.ts = u64::MAX - 5;
        for i in 1..6 {
            s.reports.insert(ProcessId(i), (1000 + i as u64, i as u64));
        }
        s.repair();
        let (ts, _) = s.stored();
        assert_eq!(ts, 0, "corrupt state resets the counter");
    }

    #[test]
    fn writes_mark_the_round_dirty() {
        let mut s = server(1, 6);
        let mut rng = DetRng::from_seed(1);
        let mut nt = 0u64;
        let mut eff: sbs_sim::Effects<BMsg<u64>, ClientOut<u64>> = sbs_sim::Effects::new();
        let mut ctx = Context::new(
            sbs_sim::SimTime::ZERO,
            ProcessId(0),
            &mut rng,
            &mut nt,
            &mut eff,
        );
        s.on_message(ProcessId(9), BMsg::Write { ts: 1, val: 5 }, &mut ctx);
        assert!(s.write_seen);
    }
}
