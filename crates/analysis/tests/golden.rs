//! Acceptance tests for the analyzer: a synthetic skewed run must name the
//! overloaded rank, the advisor must recommend Algorithm 2's move, and the
//! rendered document must be byte-identical across runs (plus an exact
//! golden pin of the JSON layout).

use overset_analysis::{analyze, AnalysisInput};
use overset_comm::metrics::Counter;
use overset_comm::trace::TraceConfig;
use overset_comm::{ArgVal, MachineModel, Phase, RankTrace, StepRecord, Universe, WorkClass};

const SKEWED_RANK: usize = 2;
const STEPS: usize = 6;

/// A 4-rank run where rank 2 does 5× the connectivity work (compute and
/// serviced points), with a ring halo exchange each step — the synthetic
/// stand-in for one grid's IGBP load concentrating on one processor.
fn skewed_run() -> (Vec<RankTrace>, Vec<Vec<StepRecord>>) {
    let outs = Universe::builder()
        .ranks(4)
        .machine(&MachineModel::modern())
        .trace(TraceConfig::enabled())
        .run(|c| {
            for _ in 0..STEPS {
                {
                    let mut ph = c.phase(Phase::Flow);
                    ph.compute(1_000_000, WorkClass::Flow);
                    ph.barrier();
                }
                {
                    let mut ph = c.phase(Phase::Connectivity);
                    let t0 = ph.now();
                    let (flops, serviced) =
                        if ph.rank() == SKEWED_RANK { (5_000_000, 500) } else { (1_000_000, 100) };
                    ph.compute(flops, WorkClass::Search);
                    ph.trace_complete("conn", "serve", t0, &[("points", ArgVal::U64(serviced))]);
                    ph.metrics_mut().add(Counter::ConnServiced, serviced);
                    let dst = (ph.rank() + 1) % ph.size();
                    let src = (ph.rank() + ph.size() - 1) % ph.size();
                    ph.send(dst, 7, 1u8, 256);
                    let _: u8 = ph.recv(src, 7);
                    ph.barrier();
                }
                c.end_step();
            }
        });
    let mut traces = Vec::new();
    let mut steps = Vec::new();
    for (rank, o) in outs.into_iter().enumerate() {
        traces.push(RankTrace { rank, events: o.trace });
        steps.push(o.steps);
    }
    (traces, steps)
}

#[test]
fn skewed_run_names_overloaded_rank_and_recommends_grant() {
    let (traces, steps) = skewed_run();
    let input = AnalysisInput::from_run("skewed", &traces, steps);
    let a = analyze(&input);

    // Critical path: rank 2 bounds the run.
    assert_eq!(a.critical_path.ranking[0], SKEWED_RANK);
    assert!(a.critical_path.rank_share(SKEWED_RANK) > 0.5);
    assert_eq!(a.critical_path.steps.len(), STEPS);
    assert_eq!(a.critical_path.dominant_phase_of(SKEWED_RANK), Phase::Connectivity as usize);

    // Advisor: the move Algorithm 2 would make.
    let grant = a
        .findings
        .iter()
        .find(|f| f.kind == "grant-processor")
        .expect("skewed run must produce a grant-processor finding");
    assert_eq!(grant.rank, Some(SKEWED_RANK));
    assert!(grant.message.contains("Algorithm 2 would grant it a processor"));

    // Wait states: fast ranks wait at the connectivity barrier for rank 2;
    // rank 2 itself barely waits. Rank 3 sees rank 2's late send; rank 2
    // finds rank 1's early message already buffered (late receiver).
    let conn = Phase::Connectivity as usize;
    let w = &a.waits.per_rank;
    assert!(w[0].collective[conn] > 0.0);
    assert!(w[0].collective[conn] > 10.0 * w[SKEWED_RANK].collective[conn]);
    assert!(w[3].late_sender[conn] > 0.0);
    assert!(w[SKEWED_RANK].late_receiver[conn] > 0.0);

    // Culprit attribution: rank 3's late-sender time traces back to rank
    // 2's connectivity-phase send — the sender-side span to fix.
    let culprit = w[3].late_sender_culprits.first().expect("rank 3 must have a culprit");
    assert_eq!(culprit.src, SKEWED_RANK);
    assert_eq!(culprit.sender_phase, conn);
    assert!(culprit.seconds > 0.0 && culprit.spans > 0);

    // Comm matrix: the ring, every step, in the connectivity phase.
    let msgs = &a.matrix.msgs[conn];
    for r in 0..4 {
        assert_eq!(msgs[r][(r + 1) % 4], STEPS as u64);
        assert_eq!(a.matrix.bytes[conn][r][(r + 1) % 4], 256 * STEPS as u64);
    }
}

#[test]
fn analysis_document_is_byte_identical_across_runs() {
    let (t1, s1) = skewed_run();
    let (t2, s2) = skewed_run();
    let a1 = analyze(&AnalysisInput::from_run("skewed", &t1, s1));
    let a2 = analyze(&AnalysisInput::from_run("skewed", &t2, s2));
    assert_eq!(a1.to_value().to_json(), a2.to_value().to_json());
    assert_eq!(a1.render_text(), a2.render_text());
}

/// Exact golden for the JSON document layout on a minimal input: one rank,
/// one `flow` phase span and its step record, no communication. Pins key order, indentation,
/// and number formatting; a layout change is a conscious diff here (and an
/// `ANALYSIS_SCHEMA_VERSION` review).
#[test]
fn analysis_json_matches_golden_bytes() {
    use overset_comm::TraceEvent;
    let mut rec = StepRecord::ZERO;
    rec.time[Phase::Flow as usize] = 2.0;
    let input = AnalysisInput {
        source: "golden".into(),
        ranks: &[RankTrace {
            rank: 0,
            events: vec![TraceEvent {
                cat: "phase",
                name: "flow",
                ts: 0.0,
                dur: 2.0,
                phase: Phase::Flow,
                args: Vec::new(),
            }],
        }],
        steps: vec![vec![rec]],
    };
    let doc = analyze(&input).to_value().to_json();
    let golden = r#"{
  "analysis_schema_version": 1,
  "generator": "overset-analysis",
  "source": "golden",
  "nranks": 1,
  "nsteps": 1,
  "notes": [
    "critical path from flight-recorder step records"
  ],
  "critical_path": {
    "total_elapsed": 2,
    "rank_time": [
      2
    ],
    "ranking": [
      0
    ],
    "steps": [
      {
        "step": 0,
        "elapsed": 2,
        "dominant_rank": 0,
        "dominant_phase": "flow",
        "t_flow": 2,
        "r_flow": 0,
        "t_connectivity": 0,
        "r_connectivity": 0,
        "t_motion": 0,
        "r_motion": 0,
        "t_balance": 0,
        "r_balance": 0,
        "t_other": 0,
        "r_other": 0
      }
    ]
  },
  "wait_states": [
    {
      "rank": 0,
      "late_sender": {
        "total": 0,
        "flow": 0,
        "connectivity": 0,
        "motion": 0,
        "balance": 0,
        "other": 0
      },
      "late_receiver": {
        "total": 0,
        "flow": 0,
        "connectivity": 0,
        "motion": 0,
        "balance": 0,
        "other": 0
      },
      "collective": {
        "total": 0,
        "flow": 0,
        "connectivity": 0,
        "motion": 0,
        "balance": 0,
        "other": 0
      },
      "late_sender_culprits": [],
      "lost_total": 0
    }
  ],
  "comm_matrix": {
    "total": {
      "msgs": [
        [
          0
        ]
      ],
      "bytes": [
        [
          0
        ]
      ]
    },
    "per_phase": {}
  },
  "advisor": [
    {
      "kind": "critical-rank",
      "rank": 0,
      "message": "rank 0 bounds 100.0% of critical-path time (dominant phase: flow)",
      "data": {
        "share": 1,
        "time_s": 2,
        "phase": 0
      }
    }
  ]
}
"#;
    assert_eq!(doc, golden);
}
