//! Golden byte-identical test for the Chrome `trace_event` exporter.
//!
//! The workspace promises byte-deterministic trace JSON (same run → same
//! bytes), and downstream tools — Perfetto and scripts over the exported
//! file — parse the exact layout. A span's `phase` is not exported. This test pins the full
//! output for a fixed two-rank trace, so any formatting change to the
//! exporter is a conscious diff of this file, not a silent drift.

use overset_comm::trace::{chrome_trace_json, ArgVal, RankTrace, TraceEvent};
use overset_comm::Phase;

fn fixed_two_rank_trace() -> Vec<RankTrace> {
    let rank0 = vec![
        TraceEvent {
            cat: "phase",
            name: "flow",
            ts: 0.0,
            dur: 1.5e-3,
            phase: Phase::Flow,
            args: vec![("step", ArgVal::U64(0))],
        },
        TraceEvent {
            cat: "comm",
            name: "send",
            ts: 2.0e-3,
            dur: 1.0e-6,
            phase: Phase::Flow,
            args: vec![
                ("dst", ArgVal::U64(1)),
                ("tag", ArgVal::U64(7)),
                ("bytes", ArgVal::U64(512)),
            ],
        },
    ];
    let rank1 = vec![TraceEvent {
        cat: "comm",
        name: "recv",
        ts: 0.0,
        dur: 2.5e-3,
        phase: Phase::Flow,
        args: vec![
            ("src", ArgVal::U64(0)),
            ("tag", ArgVal::U64(7)),
            ("bytes", ArgVal::U64(512)),
            ("stall", ArgVal::F64(2.5e-3)),
            ("idle", ArgVal::F64(0.0)),
        ],
    }];
    vec![RankTrace { rank: 0, events: rank0 }, RankTrace { rank: 1, events: rank1 }]
}

const GOLDEN: &str = concat!(
    "{\"traceEvents\":[",
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,",
    "\"args\":{\"name\":\"rank 0\"}},\n",
    "{\"name\":\"flow\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":0,\"tid\":0,",
    "\"ts\":0.000,\"dur\":1500.000,\"args\":{\"step\":0}},\n",
    "{\"name\":\"send\",\"cat\":\"comm\",\"ph\":\"X\",\"pid\":0,\"tid\":0,",
    "\"ts\":2000.000,\"dur\":1.000,\"args\":{\"dst\":1,\"tag\":7,\"bytes\":512}},",
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,",
    "\"args\":{\"name\":\"rank 1\"}},\n",
    "{\"name\":\"recv\",\"cat\":\"comm\",\"ph\":\"X\",\"pid\":1,\"tid\":0,",
    "\"ts\":0.000,\"dur\":2500.000,",
    "\"args\":{\"src\":0,\"tag\":7,\"bytes\":512,\"stall\":0.0025,\"idle\":0}}",
    "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual\"}}\n",
);

#[test]
fn chrome_trace_json_matches_golden_bytes() {
    assert_eq!(chrome_trace_json(&fixed_two_rank_trace()), GOLDEN);
}

#[test]
fn chrome_trace_json_is_byte_identical_across_calls() {
    let a = chrome_trace_json(&fixed_two_rank_trace());
    let b = chrome_trace_json(&fixed_two_rank_trace());
    assert_eq!(a, b);
}
