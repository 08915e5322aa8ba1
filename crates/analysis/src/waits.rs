//! Scalasca-style wait-state classification.
//!
//! Three wait states, all exact in virtual time and charged by the runtime
//! where they happen, to the phase the rank was in (see
//! [`overset_comm::Wait`]):
//!
//! - **late sender** — a receive posted before the message arrived; the
//!   clock jumped to the arrival.
//! - **late receiver** — the message sat fully-arrived in the mailbox
//!   before the receive was posted: buffered-message pressure rather than
//!   lost time, but a sign the receiver is the slow side.
//! - **wait at collective** — a rank's time in a barrier/allgather less the
//!   last arriver's, which is pure waiting for slower peers.
//!
//! The per-phase tables sum the ranks' step records. Only the culprits —
//! which sender's late message cost a receiver its time — read spans.

use crate::input::arg;
use overset_comm::{RankTrace, StepRecord, Wait, NUM_PHASES};
use std::collections::{HashMap, VecDeque};

/// One sender-side source of a victim rank's late-sender time: the rank
/// whose send arrived late, attributed to the phase *the sender* was in
/// when it posted the send — the span to fix is on the sender's timeline,
/// not the victim's.
#[derive(Clone, Debug, PartialEq)]
pub struct Culprit {
    /// Sending rank.
    pub src: usize,
    /// Phase index the sender was in when it posted the send.
    pub sender_phase: usize,
    /// Late-sender seconds this (sender, phase) pair cost the victim.
    pub seconds: f64,
    /// Number of stalled receives matched to this pair.
    pub spans: u64,
}

/// Wait-state totals of one rank, split per phase (seconds).
#[derive(Clone, Debug, Default)]
pub struct RankWaits {
    pub late_sender: [f64; NUM_PHASES],
    pub late_receiver: [f64; NUM_PHASES],
    pub collective: [f64; NUM_PHASES],
    /// Worst sender-side culprits of this rank's late-sender time, sorted
    /// by seconds descending (at most [`MAX_CULPRITS`]). Empty when no
    /// receive ever stalled.
    pub late_sender_culprits: Vec<Culprit>,
}

/// Culprits retained per victim rank.
pub const MAX_CULPRITS: usize = 3;

impl RankWaits {
    /// Total *lost* time: late-sender + collective waits. Late-receiver
    /// time is excluded — it overlaps useful work on the receiving rank.
    pub fn total(&self) -> f64 {
        self.late_sender.iter().sum::<f64>() + self.collective.iter().sum::<f64>()
    }
}

#[derive(Clone, Debug, Default)]
pub struct WaitStates {
    /// Indexed by rank.
    pub per_rank: Vec<RankWaits>,
}

/// Classify wait states: per-phase totals from each rank's step records
/// (`steps[rank]`), culprits from its `recv` spans matched to the
/// senders' `send` spans.
pub fn classify(ranks: &[RankTrace], steps: &[Vec<StepRecord>]) -> WaitStates {
    let mut per_rank = vec![RankWaits::default(); ranks.len()];
    for (w, recs) in per_rank.iter_mut().zip(steps) {
        for rec in recs {
            for p in 0..NUM_PHASES {
                w.late_sender[p] += rec.wait[Wait::LateSender as usize][p];
                w.late_receiver[p] += rec.wait[Wait::LateReceiver as usize][p];
                w.collective[p] += rec.wait[Wait::Collective as usize][p];
            }
        }
    }
    // Sender-side view for culprit attribution: every rank's send spans,
    // FIFO per (src, dst, tag) channel — the runtime receives from explicit
    // (src, tag) pairs, so the k-th matching recv pairs with the k-th send.
    let mut sends: HashMap<(usize, usize, u64), VecDeque<usize>> = HashMap::new();
    for (src, r) in ranks.iter().enumerate() {
        for s in r.events.iter().filter(|s| s.cat == "comm" && s.name == "send") {
            let key = (src, arg(s, "dst") as usize, arg(s, "tag") as u64);
            sends.entry(key).or_default().push_back(s.phase as usize);
        }
    }
    for (i, r) in ranks.iter().enumerate() {
        // (sender rank, sender phase) -> (late-sender seconds, stalled recvs).
        let mut culprits: HashMap<(usize, usize), (f64, u64)> = HashMap::new();
        for s in r.events.iter().filter(|s| s.cat == "comm" && s.name == "recv") {
            let src = arg(s, "src") as usize;
            // Popped for prompt receives too, to keep the channel aligned.
            let sender_phase =
                sends.get_mut(&(src, i, arg(s, "tag") as u64)).and_then(VecDeque::pop_front);
            let stall = arg(s, "stall");
            if let Some(sp) = sender_phase.filter(|_| stall > 0.0) {
                let c = culprits.entry((src, sp)).or_insert((0.0, 0));
                c.0 += stall;
                c.1 += 1;
            }
        }
        let mut ranked: Vec<Culprit> = culprits
            .into_iter()
            .map(|((src, sender_phase), (seconds, spans))| Culprit {
                src,
                sender_phase,
                seconds,
                spans,
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.seconds
                .partial_cmp(&a.seconds)
                .unwrap()
                .then(a.src.cmp(&b.src))
                .then(a.sender_phase.cmp(&b.sender_phase))
        });
        ranked.truncate(MAX_CULPRITS);
        per_rank[i].late_sender_culprits = ranked;
    }
    WaitStates { per_rank }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_comm::{ArgVal, Phase, TraceEvent};

    fn comm(name: &'static str, phase: Phase, args: Vec<(&'static str, u64)>) -> TraceEvent {
        let args = args.into_iter().map(|(k, v)| (k, ArgVal::U64(v))).collect();
        TraceEvent { cat: "comm", name, ts: 0.0, dur: 0.0, phase, args }
    }

    fn recv(src: u64, tag: u64, stall: f64) -> TraceEvent {
        let mut s = comm("recv", Phase::Flow, vec![("src", src), ("tag", tag)]);
        s.args.push(("stall", ArgVal::F64(stall)));
        s
    }

    #[test]
    fn sums_each_wait_state_per_phase_from_step_records() {
        let flow = Phase::Flow as usize;
        let conn = Phase::Connectivity as usize;
        let mut a = StepRecord::ZERO;
        a.wait[Wait::Collective as usize][flow] = 3.0;
        a.wait[Wait::LateSender as usize][conn] = 0.5;
        let mut b = StepRecord { step: 1, ..StepRecord::ZERO };
        b.wait[Wait::Collective as usize][flow] = 1.0;
        b.wait[Wait::LateReceiver as usize][conn] = 2.0;
        let ranks = [RankTrace { rank: 0, events: Vec::new() }];
        let w = classify(&ranks, &[vec![a, b]]);
        let w = &w.per_rank[0];
        assert_eq!(w.collective[flow], 4.0);
        assert_eq!(w.late_sender[conn], 0.5);
        assert_eq!(w.late_receiver[conn], 2.0);
        // Late-receiver time is buffered, not lost.
        assert_eq!(w.total(), 4.5);
    }

    /// A stalled receive blames the matching send, in the phase the sender
    /// posted it; a prompt receive on the same channel blames nobody but
    /// still consumes its send.
    #[test]
    fn culprits_are_the_senders_phase_of_the_matching_send() {
        let send = |tag, phase| comm("send", phase, vec![("dst", 1), ("tag", tag)]);
        let r0 = RankTrace {
            rank: 0,
            events: vec![
                send(7, Phase::Flow),
                send(7, Phase::Connectivity),
                send(9, Phase::Motion),
            ],
        };
        let r1 =
            RankTrace { rank: 1, events: vec![recv(0, 7, 0.0), recv(0, 7, 0.25), recv(0, 9, 0.5)] };
        let w = classify(&[r0, r1], &[]);
        let culprits = &w.per_rank[1].late_sender_culprits;
        let motion = Phase::Motion as usize;
        let conn = Phase::Connectivity as usize;
        assert_eq!(
            culprits,
            &vec![
                Culprit { src: 0, sender_phase: motion, seconds: 0.5, spans: 1 },
                Culprit { src: 0, sender_phase: conn, seconds: 0.25, spans: 1 },
            ]
        );
        assert!(w.per_rank[0].late_sender_culprits.is_empty());
    }
}
