//! fv-chaos — deterministic fault injection for the FlowValve stack.
//!
//! Real SmartNIC deployments degrade in ways a clean simulation never
//! shows: links flap, micro-engines stall, traffic managers corrupt
//! frames, host applications pause. This crate schedules such failures as
//! *fault windows on the virtual clock* and drives them through one hook
//! seam, [`np_sim::FaultInjector`], consulted in every layer — the NP
//! model's traffic manager, worker pool and lock table, the FlowValve
//! scheduler clock and the host boundary — so the *same* scheduler code
//! runs faulted or clean.
//!
//! Because every fault is a pure function of virtual time and all workload
//! randomness flows from the plan's seed, a faulted run is exactly
//! replayable: the same `(policy, plan)` pair yields a byte-identical
//! report, which is what makes a regression in recovery behaviour
//! diffable.
//!
//! - [`plan`] — the `chaos` command language and [`FaultPlan`]
//! - [`inject`] — the [`ChaosController`] answering every hook point
//! - [`harness`] — [`run_saturation`]: the saturation workload every
//!   `fv` report runs, faulted when given a plan; [`run_chaos`]: a
//!   faulted run plus per-fault recovery assertions from fv-scope
//!
//! # Example
//!
//! ```
//! use flowvalve::frontend::Policy;
//! use fv_chaos::{run_chaos, FaultPlan, RunOptions};
//!
//! let policy = Policy::parse(
//!     "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
//!      fv class add dev nic0 parent root classid 1:1 name root rate 40gbit\n\
//!      fv class add dev nic0 parent 1:1 classid 1:10 name all rate 40gbit\n\
//!      fv filter add dev nic0 match any flowid 1:10\n",
//! )
//! .unwrap();
//! let plan = FaultPlan::parse(
//!     "chaos seed 42\n\
//!      chaos fault wire_flap at 3ms for 2ms permille 250\n",
//! )
//! .unwrap();
//! let report = run_chaos(&policy, RunOptions::chaos(plan)).unwrap();
//! assert_eq!(report.snapshot.counter("chaos.faults_injected"), 1);
//! assert!(report.passed(), "{}", report.render());
//! ```

pub mod harness;
pub mod inject;
pub mod plan;

pub use harness::{run_chaos, run_saturation, ChaosReport, RunOptions, SaturationRun, SETTLE};
pub use inject::ChaosController;
pub use plan::{FaultKind, FaultPlan, FaultSpec, ParsePlanError};
