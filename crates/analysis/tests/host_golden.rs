//! Golden test for the host-cost renderer (`repro analyze <report>`): a
//! synthetic run-report document must render to exactly these bytes. The
//! renderer is a pure function of the document, so this also pins
//! byte-determinism.

use overset_analysis::render_host_report;
use overset_report::parse;

/// A hand-built report: one case whose host time concentrates in
/// connectivity (while the virtual model predicts flow dominates — a
/// misprediction the disagreement table must flag), with a full alloc
/// section and two ranks of host phase timings.
const REPORT: &str = r#"{
  "schema_version": 3,
  "generator": "overset-report",
  "experiment": "golden",
  "effort": "quick",
  "cases": [
    {
      "name": "airfoil",
      "label": "representative",
      "summary": {
        "t_flow": 8.0,
        "t_connectivity": 1.5,
        "t_motion": 0.3,
        "t_balance": 0.15,
        "t_other": 0.05
      },
      "alloc": {
        "allocs": {"total": 660, "flow": 100, "connectivity": 500, "motion": 40, "balance": 10, "other": 10},
        "bytes": {"total": 66000, "flow": 10000, "connectivity": 50000, "motion": 4000, "balance": 1000, "other": 1000},
        "by_rank": [
          {"allocs": 400, "bytes": 40000},
          {"allocs": 260, "bytes": 26000}
        ],
        "steps": [
          {"step": 0, "allocs": 330, "bytes": 33000},
          {"step": 1, "allocs": 330, "bytes": 33000}
        ]
      }
    }
  ],
  "host": {
    "phase_ms": {
      "representative": {"flow": 120.5, "connectivity": 300.25, "motion": 10.0, "balance": 5.0, "other": 2.0}
    },
    "phase_ms_by_rank": {
      "representative": [
        {"flow": 120.5, "connectivity": 300.25, "motion": 10.0, "balance": 5.0, "other": 2.0},
        {"flow": 110.0, "connectivity": 95.0, "motion": 8.0, "balance": 4.0, "other": 1.0}
      ]
    },
    "alloc_peak_bytes": {"representative": 524288}
  }
}"#;

const EXPECTED: &str = "\
== Host-cost analysis ==

-- Host phase ms (max / median over ranks) and peak heap --
  representative     phase                max ms    median ms
                     flow                 120.50       110.00
                     connectivity         300.25        95.00
                     motion                10.00         8.00
                     balance                5.00         4.00
                     other                  2.00         1.00
                     peak heap (max over ranks): 524288 bytes

-- Top 10 host hotspots (phase x rank) --
  case               phase           rank      host ms
  representative     connectivity       0       300.25
  representative     flow               0       120.50
  representative     flow               1       110.00
  representative     connectivity       1        95.00
  representative     motion             0        10.00
  representative     motion             1         8.00
  representative     balance            0         5.00
  representative     balance            1         4.00
  representative     other              0         2.00
  representative     other              1         1.00

-- Virtual vs host phase shares --
  representative     phase             virtual       host   flag
                     flow                80.0%      27.5%   << model misprediction
                     connectivity        15.0%      68.6%   << model misprediction
                     motion               3.0%       2.3%
                     balance              1.5%       1.1%
                     other                0.5%       0.5%

-- Allocation profile (deterministic) --
  representative     phase                allocs            bytes
                     flow                    100            10000
                     connectivity            500            50000
                     motion                   40             4000
                     balance                  10             1000
                     other                    10             1000
                     total                   660            66000
  top allocating ranks: rank 0: 40000 B, rank 1: 26000 B
";

#[test]
fn host_report_renders_to_golden_bytes() {
    let doc = parse(REPORT).expect("synthetic report parses");
    let text = render_host_report(&doc).expect("renders");
    assert_eq!(text, EXPECTED, "--- actual ---\n{text}\n--- end ---");
}

#[test]
fn host_report_is_deterministic() {
    let doc = parse(REPORT).expect("parses");
    assert_eq!(render_host_report(&doc).unwrap(), render_host_report(&doc).unwrap());
}

#[test]
fn structural_errors_are_reported_not_panicked() {
    let no_cases = parse(r#"{"schema_version": 3}"#).unwrap();
    assert!(render_host_report(&no_cases).unwrap_err().contains("no cases"));
    let no_host = parse(r#"{"schema_version": 3, "cases": []}"#).unwrap();
    assert!(render_host_report(&no_host).unwrap_err().contains("no host section"));
    // A report without per-rank host timings is not the current schema.
    let stripped = REPORT.replace("phase_ms_by_rank", "phase_ms_by_rank_absent");
    let doc = parse(&stripped).expect("parses");
    let e = render_host_report(&doc).unwrap_err();
    assert!(e.contains("no host.phase_ms_by_rank"), "{e}");
}

#[test]
fn non_finite_phase_totals_skip_the_share_table() {
    // `1e999` overflows f64 and parses as +inf — the shape a corrupt or
    // hand-edited report smuggles non-finite timings in with. A case whose
    // virtual (or host) phase total is non-finite must be skipped by the
    // share table (never rendered as NaN percentages or spurious
    // misprediction flags); the rest of the report still renders.
    let poisoned = REPORT.replace(r#""t_flow": 8.0"#, r#""t_flow": 1e999"#);
    let doc = parse(&poisoned).expect("report with inf timing parses");
    let text = render_host_report(&doc).expect("renders");
    assert!(
        text.contains("(no cases with both virtual and host phase timings)"),
        "inf-total case must be skipped, got:\n{text}"
    );
    assert!(!text.contains("NaN"), "no NaN may leak into the rendering:\n{text}");
    assert!(!text.contains("model misprediction"), "a skipped case must not flag rows:\n{text}");
    // The hotspot and allocation tables are unaffected by virtual timings.
    assert!(text.contains("-- Top 10 host hotspots"), "{text}");
    assert!(text.contains("top allocating ranks"), "{text}");
}

#[test]
fn nan_host_totals_skip_the_share_table() {
    // inf - inf = NaN at the summation: two opposite-signed overflows in
    // the host series. The guard is on finiteness, not just sign, so this
    // row set is skipped too instead of rendering NaN shares.
    let poisoned = REPORT.replace(
        r#""flow": 120.5, "connectivity": 300.25"#,
        r#""flow": 1e999, "connectivity": -1e999"#,
    );
    let doc = parse(&poisoned).expect("parses");
    let text = render_host_report(&doc).expect("renders");
    assert!(
        text.contains("(no cases with both virtual and host phase timings)"),
        "NaN-total case must be skipped:\n{text}"
    );
    assert!(!text.contains("NaN"), "{text}");
}
