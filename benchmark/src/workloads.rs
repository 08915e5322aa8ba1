//! The four workloads. Names are fixed: later issues cite them.

use overflow_d::{airfoil_case, run_case, run_case_serial, store_case};
use overflow_d::{CaseConfig, LbConfig, RunResult};
use overset_comm::{MachineModel, TraceConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum System {
    /// `airfoil_case(1.0, _)`: the paper's Table-1 system, 63 791 points.
    Airfoil,
    /// `store_case(0.55, _)`: 129 803 points, 16 grids, ~25 K IGBPs.
    Store,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub system: System,
    /// Rank count; 0 runs `run_case_serial`.
    pub ranks: usize,
    /// Timesteps per timed run (N). Short because the solver state stops
    /// being finite between steps 32-40 (airfoil) and 20-24 (store x0.55).
    pub steps: usize,
    /// Timed runs per sample (K).
    pub repeats: usize,
    /// Algorithm-2 dynamic load balancing with `LbConfig::dynamic(3.0, 4)`.
    pub dynamic_lb: bool,
    /// Relative tolerance of `state_rms` against the serial reference.
    pub rms_tol: f64,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "airfoil_flow",
        why: "solver does ~87% of host phase time and connectivity ~8%: residual, sweep and \
              allocation work shows here, connectivity work should not",
        system: System::Airfoil,
        ranks: 6,
        steps: 20,
        repeats: 5,
        dynamic_lb: false,
        rms_tol: 1e-9,
    },
    Workload {
        name: "store_dynlb",
        why: "connectivity is the largest host phase, the run crosses one Algorithm-2 \
              repartition with state redistribution, and the cold donor search dominates set-up",
        system: System::Store,
        ranks: 18,
        steps: 12,
        repeats: 1,
        dynamic_lb: true,
        rms_tol: 1e-3,
    },
    Workload {
        name: "store_serial",
        why: "same grids through SerialComm and connectivity::serial, no messages, no \
              partition: the single-processor baseline a distributed-only gain must not cost",
        system: System::Store,
        ranks: 0,
        steps: 12,
        repeats: 1,
        dynamic_lb: false,
        rms_tol: 1e-3,
    },
    Workload {
        name: "store_ranks",
        why: "256 ranks of ~500 points: rank scheduling, mailboxes, collectives and protocol \
              rounds dominate, so kernel speed-ups should barely move it",
        system: System::Store,
        ranks: 256,
        steps: 12,
        repeats: 1,
        dynamic_lb: false,
        rms_tol: 1e-3,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The case, with every `use_*` toggle at its default and the ranks
    /// multiplexed onto one worker thread: 6-256 rank threads on this
    /// 2-core host would time the kernel scheduler, not the program.
    pub fn config(&self, steps: usize, traced: bool) -> CaseConfig {
        let mut cfg = match self.system {
            System::Airfoil => airfoil_case(1.0, steps),
            System::Store => store_case(0.55, steps),
        };
        if self.dynamic_lb {
            cfg.lb = LbConfig::dynamic(3.0, 4);
        }
        cfg.max_threads = Some(1);
        if traced {
            cfg.trace = TraceConfig::enabled();
        }
        cfg
    }

    /// Run `cfg` on the IBM-SP2 machine model. A panic (the serial driver
    /// has no `Err` path) is reported like an error.
    pub fn run(&self, cfg: &CaseConfig) -> Result<RunResult, String> {
        let machine = MachineModel::ibm_sp2();
        let ranks = self.ranks;
        catch_unwind(AssertUnwindSafe(|| {
            if ranks == 0 {
                run_case_serial(cfg, &machine)
            } else {
                run_case(cfg, ranks, &machine)
            }
        }))
        .map_err(|_| "panicked".to_string())?
        .map_err(|e| e.to_string())
    }

    /// The serial run of the same case: the reference `state_rms` is
    /// checked against.
    pub fn reference(&self) -> Workload {
        Workload { ranks: 0, repeats: 1, dynamic_lb: false, ..*self }
    }
}
