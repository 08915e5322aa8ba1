//! What a failed run prints: one panic report per rank that failed on its
//! own, and nothing from the peers woken to shut the universe down.
//!
//! Panic reports go to raw stderr through the panic hook, so each scenario
//! runs in a *subprocess* (this same test binary re-executed with a marker
//! env var) whose stderr the outer test captures and asserts on. Without
//! the marker the scenario tests are no-ops.

use std::process::Command;

use overset_comm::runtime::UniverseBuilder;
use overset_comm::{MachineModel, OversetError, Universe};

/// Marker env var selecting the scenario a child process should run.
const SCENARIO_ENV: &str = "OVERSET_FAILURE_TEST_SCENARIO";

fn in_scenario(name: &str) -> bool {
    std::env::var(SCENARIO_ENV).as_deref() == Ok(name)
}

/// Re-exec this test binary running exactly `scenario` and return the
/// child's captured stderr.
fn run_scenario(scenario: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", scenario, "--nocapture", "--test-threads", "1"])
        .env(SCENARIO_ENV, scenario)
        .env_remove("RUST_BACKTRACE")
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

/// 16 ranks; rank 7 panics while the other 15 block in a collective it
/// never joins. The run names rank 7.
fn one_rank_fails(b: UniverseBuilder) {
    let err = b.ranks(16).machine(&MachineModel::modern()).try_run(|c| {
        if c.rank() == 7 {
            panic!("boom on rank 7");
        }
        c.barrier();
    });
    let want = OversetError::RankPanicked {
        rank: 7,
        phase: "other",
        message: "boom on rank 7".to_string(),
    };
    assert_eq!(err.err(), Some(want));
}

// ---- scenario bodies (no-ops unless selected via the marker env) --------

#[test]
fn scenario_threads() {
    if in_scenario("scenario_threads") {
        one_rank_fails(Universe::builder());
    }
}

#[test]
fn scenario_mn() {
    if in_scenario("scenario_mn") {
        one_rank_fails(Universe::builder().max_threads(2));
    }
}

// ---- the actual assertions ----------------------------------------------

fn assert_one_report(stderr: &str) {
    assert_eq!(stderr.matches("panicked at").count(), 1, "one panic report expected:\n{stderr}");
    assert!(stderr.contains("boom on rank 7"), "rank 7's report is missing:\n{stderr}");
    assert!(!stderr.contains("communication aborted"), "a peer reported:\n{stderr}");
}

#[test]
fn peers_of_a_failing_rank_are_silent_under_threads() {
    assert_one_report(&run_scenario("scenario_threads"));
}

#[test]
fn peers_of_a_failing_rank_are_silent_under_mn() {
    assert_one_report(&run_scenario("scenario_mn"));
}
