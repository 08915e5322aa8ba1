//! `OVERSET_COMM_WATCHDOG` diagnostics, exercised end to end.
//!
//! The watchdog period is read once per process through a `OnceLock`, and
//! its reports go to raw stderr — so each scenario runs in a *subprocess*
//! (this same test binary re-executed with a marker env var) whose stderr
//! the outer test captures and asserts on. Without the marker the scenario
//! tests are no-ops, so a plain `cargo test` sweep stays fast and silent.

use std::process::Command;
use std::time::Duration;

use overset_comm::{MachineModel, Universe};

/// Marker env var selecting the scenario a child process should actually
/// run; the watchdog period itself comes from `OVERSET_COMM_WATCHDOG`.
const SCENARIO_ENV: &str = "OVERSET_WATCHDOG_TEST_SCENARIO";

fn in_scenario(name: &str) -> bool {
    std::env::var(SCENARIO_ENV).as_deref() == Ok(name)
}

/// Re-exec this test binary running exactly `scenario`, with the watchdog
/// armed at 50 ms, and return the child's captured stderr.
fn run_scenario(scenario: &str) -> String {
    run_scenario_with_value(scenario, "0.05")
}

/// Like [`run_scenario`], but with an arbitrary `OVERSET_COMM_WATCHDOG`
/// value — the invalid-value tests set nonsense on purpose.
fn run_scenario_with_value(scenario: &str, watchdog_value: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", scenario, "--nocapture", "--test-threads", "1"])
        .env(SCENARIO_ENV, scenario)
        .env("OVERSET_COMM_WATCHDOG", watchdog_value)
        .output()
        .expect("failed to spawn scenario subprocess");
    assert!(
        out.status.success(),
        "scenario {scenario} subprocess failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

// ---- scenario bodies (no-ops unless selected via the marker env) --------

/// Rank 0 blocks in `recv(src=1, tag=7)` while rank 1 sits out several
/// watchdog periods in *host* time before sending.
#[test]
fn scenario_stuck_recv() {
    if !in_scenario("scenario_stuck_recv") {
        return;
    }
    let m = MachineModel::modern();
    Universe::builder().ranks(2).machine(&m).run(|c| {
        if c.rank() == 0 {
            c.recv::<u32>(1, 7)
        } else {
            std::thread::sleep(Duration::from_millis(250));
            c.send(0, 7, 42u32, 4);
            0
        }
    });
}

/// Rank 0 enters a collective immediately; rank 1 arrives several watchdog
/// periods later, leaving rank 0 waiting inside the round rendezvous.
#[test]
fn scenario_stalled_collective() {
    if !in_scenario("scenario_stalled_collective") {
        return;
    }
    let m = MachineModel::modern();
    Universe::builder().ranks(2).machine(&m).run(|c| {
        if c.rank() == 1 {
            std::thread::sleep(Duration::from_millis(250));
        }
        c.barrier();
    });
}

/// A healthy exchange + collective, well under the watchdog period.
#[test]
fn scenario_healthy_run() {
    if !in_scenario("scenario_healthy_run") {
        return;
    }
    let m = MachineModel::modern();
    Universe::builder().ranks(2).machine(&m).run(|c| {
        if c.rank() == 0 {
            c.send(1, 3, 7u8, 1);
        } else {
            c.recv::<u8>(0, 3);
        }
        c.barrier();
        c.allgather(c.rank(), 8).to_vec()
    });
}

// ---- the actual assertions ----------------------------------------------

#[test]
fn watchdog_reports_stuck_receive_with_src_and_tag() {
    let stderr = run_scenario("scenario_stuck_recv");
    assert!(
        stderr.contains("[overset-comm watchdog] rank 0 stuck in recv(src=1, tag=7)"),
        "missing stuck-recv diagnostic with src/tag:\n{stderr}"
    );
    // The run recovers after rank 1's late send: no rank may still be stuck.
    assert!(stderr.contains("buffered=[]"), "diagnostic should list the empty buffer:\n{stderr}");
}

#[test]
fn watchdog_reports_stalled_collective_with_generation() {
    let stderr = run_scenario("scenario_stalled_collective");
    // Rank 0 waits *inside* round gen=0 for the publisher; depending on
    // timing it can also be stuck *opening* the round. Either diagnostic
    // must name the generation and the arrival count.
    assert!(
        stderr.contains("stuck in collective round gen=0")
            || stderr.contains("stuck opening collective round gen=0"),
        "missing stalled-collective diagnostic:\n{stderr}"
    );
    assert!(stderr.contains("arrived=1/2"), "diagnostic should report arrivals:\n{stderr}");
}

#[test]
fn unparsable_watchdog_value_warns_once_and_disables() {
    // The stuck-recv scenario guarantees a blocking wait, so the period is
    // definitely consulted; the run still completes after rank 1's late send.
    let stderr = run_scenario_with_value("scenario_stuck_recv", "5 minutes");
    assert!(
        stderr.contains("ignoring OVERSET_COMM_WATCHDOG=\"5 minutes\""),
        "typo'd value must be called out, not silently ignored:\n{stderr}"
    );
    assert!(stderr.contains("watchdog disabled"), "{stderr}");
    // One warning per process, not one per blocked wait.
    assert_eq!(
        stderr.matches("ignoring OVERSET_COMM_WATCHDOG").count(),
        1,
        "warning must be one-time:\n{stderr}"
    );
    // And the watchdog really is off: no stuck diagnostics despite the stall.
    assert!(!stderr.contains("stuck in recv"), "{stderr}");
}

#[test]
fn non_positive_watchdog_value_warns_and_disables() {
    let stderr = run_scenario_with_value("scenario_stuck_recv", "0");
    assert!(
        stderr.contains("ignoring OVERSET_COMM_WATCHDOG=\"0\""),
        "non-positive value must be called out:\n{stderr}"
    );
    assert!(!stderr.contains("stuck in recv"), "{stderr}");
}

#[test]
fn watchdog_is_silent_on_a_healthy_run() {
    let stderr = run_scenario("scenario_healthy_run");
    assert!(
        !stderr.contains("[overset-comm watchdog]"),
        "watchdog must stay silent when nothing is stuck:\n{stderr}"
    );
}
