//! Golden byte-determinism tests: the serialized report of a real case run
//! must be byte-identical across repeated runs (host scheduling must not
//! leak in) and across trace-on/trace-off (observability must be
//! physics/timing-neutral).

use overflow_d::{airfoil_case, run_case, CaseConfig};
use overset_comm::trace::TraceConfig;
use overset_comm::MachineModel;
use overset_report::{case_report, parse, run_report, Value, SCHEMA_VERSION};

const NRANKS: usize = 4;

fn tiny_case(trace: TraceConfig) -> CaseConfig {
    let mut cfg = airfoil_case(0.2, 3);
    cfg.trace = trace;
    cfg
}

fn report_json(trace: TraceConfig) -> String {
    let machine = MachineModel::ibm_sp2();
    let cfg = tiny_case(trace);
    let r = run_case(&cfg, NRANKS, &machine).expect("tiny airfoil case runs");
    let case = case_report("representative", &cfg, machine.name, &r);
    run_report("golden", "quick", vec![case], None).to_json()
}

#[test]
fn report_is_byte_identical_across_runs() {
    let a = report_json(TraceConfig::disabled());
    let b = report_json(TraceConfig::disabled());
    assert_eq!(a, b, "two identical runs must serialize to identical bytes");
}

#[test]
fn report_is_byte_identical_across_trace_on_off() {
    let off = report_json(TraceConfig::disabled());
    let on = report_json(TraceConfig::enabled());
    assert_eq!(on, off, "tracing must not perturb any reported quantity");
}

#[test]
fn report_has_expected_shape_and_roundtrips() {
    let text = report_json(TraceConfig::disabled());
    let doc = parse(&text).expect("report parses back");
    assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(SCHEMA_VERSION));
    let cases = doc.get("cases").and_then(Value::as_arr).expect("cases array");
    assert_eq!(cases.len(), 1);
    let series = cases[0].get("series").and_then(Value::as_arr).expect("series array");
    assert_eq!(series.len(), 3, "one series element per timestep");
    for s in series {
        let f_max = s.get("f_max").and_then(Value::as_f64).expect("f_max present");
        assert!(f_max >= 1.0, "f_max is max/mean, so >= 1: {f_max}");
        assert!(s.get("t_flow").and_then(Value::as_f64).expect("t_flow") > 0.0);
    }
    // Re-serializing the parsed document reproduces the exact bytes.
    assert_eq!(doc.to_json(), text);
}
