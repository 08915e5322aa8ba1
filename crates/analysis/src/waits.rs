//! Scalasca-style wait-state classification.
//!
//! Three wait states, all exact in virtual time:
//!
//! - **late sender** — a receive posted before the message arrived; the
//!   recv span's duration *is* the stall (blocking on the host channel
//!   never advances the virtual clock), carried as the `stall` arg.
//! - **late receiver** — the message sat fully-arrived in the mailbox
//!   before the receive was posted (`idle` arg): buffered-message pressure
//!   rather than lost time, but a sign the receiver is the slow side.
//! - **wait at collective** — every rank's k-th collective is the *same*
//!   collective (they are global and identically ordered), so a rank's
//!   barrier/allgather span minus the minimum duration over ranks at the
//!   same index is pure waiting for slower peers.

use crate::input::StepPhaseIntervals;
use overset_comm::{RankTrace, NUM_PHASES};
use std::collections::{HashMap, VecDeque};

/// One sender-side source of a victim rank's late-sender time: the rank
/// whose send arrived late, attributed to the phase *the sender* was in
/// when it posted the send — the span to fix is on the sender's timeline,
/// not the victim's.
#[derive(Clone, Debug, PartialEq)]
pub struct Culprit {
    /// Sending rank.
    pub src: usize,
    /// Phase index the sender was in at the send's virtual timestamp.
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
    /// by seconds descending (at most [`MAX_CULPRITS`]). Empty when traces
    /// lack `src`/`tag` recv args or no receive ever stalled.
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
    /// Degradations encountered (mismatched collective counts, ...).
    pub notes: Vec<String>,
}

fn is_collective(name: &str) -> bool {
    name == "barrier" || name == "allgather"
}

/// Per rank, one `(start_ts, wait_seconds)` entry per collective index.
pub(crate) type CollectiveWaits = Vec<Vec<(f64, f64)>>;

/// Per-rank, per-collective-index `(start_ts, wait)` where wait is the
/// rank's span duration minus the minimum duration over ranks at the same
/// index. Only the common prefix of collective counts is covered; the
/// second return is `(kmin, kmax)` so callers can report truncation.
pub(crate) fn collective_waits(ranks: &[RankTrace]) -> (CollectiveWaits, (usize, usize)) {
    let mut colls: Vec<Vec<(f64, f64)>> = ranks
        .iter()
        .map(|r| {
            let mut c: Vec<(f64, f64)> = r
                .events
                .iter()
                .filter(|s| s.cat == "comm" && is_collective(s.name))
                .map(|s| (s.ts, s.dur))
                .collect();
            c.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            c
        })
        .collect();
    let kmin = colls.iter().map(Vec::len).min().unwrap_or(0);
    let kmax = colls.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..kmin {
        let min_dur = colls.iter().map(|c| c[k].1).fold(f64::INFINITY, f64::min);
        for c in colls.iter_mut() {
            c[k].1 -= min_dur;
        }
    }
    for c in colls.iter_mut() {
        c.truncate(kmin);
    }
    (colls, (kmin, kmax))
}

/// Classify wait states from comm spans. A run with no `comm` spans has
/// all-zero waits; with mismatched collective counts (a hand-built trace,
/// never a recorded run) only the common prefix is classified and a note
/// records the truncation.
pub fn classify(ranks: &[RankTrace]) -> WaitStates {
    let mut out =
        WaitStates { per_rank: vec![RankWaits::default(); ranks.len()], ..Default::default() };
    let (colls, (kmin, kmax)) = collective_waits(ranks);
    // Sender-side view for culprit attribution: every rank's send spans,
    // FIFO per (src, dst, tag) channel — the runtime receives from explicit
    // (src, tag) pairs, so the k-th matching recv pairs with the k-th send.
    let phase_of: Vec<StepPhaseIntervals> =
        ranks.iter().map(|r| StepPhaseIntervals::build(&r.events)).collect();
    let mut sends: HashMap<(usize, usize, u64), VecDeque<usize>> = HashMap::new();
    for (src, r) in ranks.iter().enumerate() {
        for s in &r.events {
            if s.cat == "comm" && s.name == "send" {
                if let (Some(dst), Some(tag)) = (s.arg("dst"), s.arg("tag")) {
                    sends
                        .entry((src, dst as usize, tag as u64))
                        .or_default()
                        .push_back(phase_of[src].phase_at(s.ts));
                }
            }
        }
    }
    for (i, r) in ranks.iter().enumerate() {
        // (sender rank, sender phase) -> (late-sender seconds, stalled recvs).
        let mut culprits: HashMap<(usize, usize), (f64, u64)> = HashMap::new();
        for s in &r.events {
            if s.cat == "comm" && s.name == "recv" {
                let phase = phase_of[i].phase_at(s.ts);
                // `stall` is exact and the tracer always writes it; a recv
                // span without it (a hand-built trace) falls back
                // to the span duration, which equals the stall by construction.
                let stall = s.arg("stall").unwrap_or(s.dur);
                out.per_rank[i].late_sender[phase] += stall;
                out.per_rank[i].late_receiver[phase] += s.arg("idle").unwrap_or(0.0);
                if stall > 0.0 {
                    if let (Some(src), Some(tag)) = (s.arg("src"), s.arg("tag")) {
                        let sender_phase = sends
                            .get_mut(&(src as usize, i, tag as u64))
                            .and_then(VecDeque::pop_front);
                        if let Some(sp) = sender_phase {
                            let c = culprits.entry((src as usize, sp)).or_insert((0.0, 0));
                            c.0 += stall;
                            c.1 += 1;
                        }
                    }
                } else if let (Some(src), Some(tag)) = (s.arg("src"), s.arg("tag")) {
                    // Keep the sender's FIFO aligned even for prompt recvs.
                    if let Some(q) = sends.get_mut(&(src as usize, i, tag as u64)) {
                        q.pop_front();
                    }
                }
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
        out.per_rank[i].late_sender_culprits = ranked;
        for &(ts, wait) in &colls[i] {
            out.per_rank[i].collective[phase_of[i].phase_at(ts)] += wait;
        }
    }
    if kmin != kmax {
        out.notes.push(format!(
            "collective span counts differ across ranks ({kmin}..{kmax}); only the first \
             {kmin} collectives are wait-classified"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_comm::{ArgVal, TraceEvent};

    fn span(
        cat: &'static str,
        name: &'static str,
        ts: f64,
        dur: f64,
        args: Vec<(&'static str, f64)>,
    ) -> TraceEvent {
        let args = args.into_iter().map(|(k, v)| (k, ArgVal::F64(v))).collect();
        TraceEvent { cat, name, ts, dur, args }
    }

    #[test]
    fn classifies_late_sender_and_collective_waits_per_phase() {
        // Rank 0 is fast: it waits 3s at the barrier. Rank 1 is slow: its
        // recv stalls 0.5s (late sender), barrier costs the base 1s.
        let r0 = RankTrace {
            rank: 0,
            events: vec![
                span("phase", "flow", 0.0, 5.0, vec![]),
                span("comm", "barrier", 1.0, 4.0, vec![]),
            ],
        };
        let r1 = RankTrace {
            rank: 1,
            events: vec![
                span("phase", "flow", 0.0, 5.0, vec![]),
                span("comm", "recv", 0.5, 0.5, vec![("stall", 0.5), ("idle", 0.0)]),
                span("comm", "barrier", 4.0, 1.0, vec![]),
            ],
        };
        let w = classify(&[r0, r1]);
        assert!(w.notes.is_empty());
        assert!((w.per_rank[0].collective[0] - 3.0).abs() < 1e-12);
        assert!((w.per_rank[1].collective[0] - 0.0).abs() < 1e-12);
        assert!((w.per_rank[1].late_sender[0] - 0.5).abs() < 1e-12);
        assert!((w.per_rank[0].total() - 3.0).abs() < 1e-12);
        assert!((w.per_rank[1].total() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mismatched_collective_counts_degrade_with_note() {
        let r0 = RankTrace {
            rank: 0,
            events: vec![
                span("comm", "barrier", 0.0, 2.0, vec![]),
                span("comm", "barrier", 2.0, 1.0, vec![]),
            ],
        };
        let r1 = RankTrace { rank: 1, events: vec![span("comm", "barrier", 1.0, 1.0, vec![])] };
        let w = classify(&[r0, r1]);
        assert_eq!(w.notes.len(), 1);
        assert!(w.notes[0].contains("1..2"));
        // Only the first barrier pair is classified; spans fall outside any
        // phase interval so the wait lands in "other".
        assert!((w.per_rank[0].collective[NUM_PHASES - 1] - 1.0).abs() < 1e-12);
    }
}
