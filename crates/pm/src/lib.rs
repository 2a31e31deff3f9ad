//! ProgrammabilityMedic: predictable path-programmability recovery under
//! multiple controller failures in SD-WANs.
//!
//! This crate is the paper's primary contribution, built on the
//! [`pm_sdwan`] domain model and the [`pm_milp`] solver substrate:
//!
//! * [`FmssmInstance`] — the Flow Mode Selection and Switch Mapping problem
//!   derived from a [`pm_sdwan::FailureScenario`] (Section IV).
//! * [`Pm`] — the paper's heuristic, Algorithm 1 (Section V).
//! * [`RetroFlow`] — the switch-level hybrid baseline \[6\].
//! * [`Pg`] — the flow-level middle-layer baseline, ProgrammabilityGuardian
//!   \[9\].
//! * [`Optimal`] — the ILP formulation P′ solved exactly (with a warm start
//!   from PM and a configurable time limit, mirroring GUROBI's role in the
//!   paper).
//! * [`RecoveryAlgorithm`] — the common interface, so evaluation harnesses
//!   can sweep all four.
//! * [`solve`] — the one way to run an algorithm on a case: it times the
//!   recovery, validates the plan and computes its [`PlanMetrics`].
//!
//! # Example
//!
//! ```
//! use pm_sdwan::{SdWanBuilder, ControllerId, Programmability};
//! use pm_core::{solve, FmssmInstance, Pm, PmWorkspace};
//!
//! let net = SdWanBuilder::att_paper_setup().build()?;
//! let prog = Programmability::compute(&net);
//! let scenario = net.fail(&[ControllerId(3), ControllerId(4)])?;
//! let instance = FmssmInstance::new(&scenario, &prog);
//!
//! // Recover, validate and measure in one step.
//! let solved = solve(&Pm::default(), &instance, &mut PmWorkspace::default())?;
//! assert!(solved.metrics.total_programmability > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heuristic;
pub mod instance;
pub mod optimal;
pub mod pg;
pub mod reroute;
pub mod retroflow;
pub mod successive;
pub mod te;
pub mod twostage;

mod error;

pub use error::PmError;
pub use heuristic::{Pm, PmConfig, PmWorkspace};
pub use instance::FmssmInstance;
pub use optimal::{DelayBound, LinkingStyle, Optimal, OptimalOutcome};
pub use pg::Pg;
pub use reroute::{RerouteAction, Rerouter};
pub use retroflow::RetroFlow;
pub use successive::SuccessiveRecovery;
pub use te::{relieve_hotspots, ReliefReport};
pub use twostage::{TwoStage, TwoStageOutcome};

use pm_sdwan::{PlanMetrics, RecoveryPlan};
use std::time::{Duration, Instant};

/// Common interface of all recovery algorithms the paper compares.
pub trait RecoveryAlgorithm {
    /// Short display name ("PM", "RetroFlow", "PG", "Optimal").
    fn name(&self) -> &'static str;

    /// Extra per-control-interaction processing delay this solution incurs
    /// (only PG's middle layer has one).
    fn middle_layer_ms(&self) -> f64 {
        0.0
    }

    /// Whether the produced plans are flow-level (bypass the switch-mapping
    /// constraint); affects plan validation.
    fn is_flow_level(&self) -> bool {
        false
    }

    /// Computes a recovery plan for the instance.
    ///
    /// # Errors
    ///
    /// Returns an algorithm-specific [`PmError`] — e.g. the exact solver may
    /// time out without a feasible solution.
    fn recover(&self, instance: &FmssmInstance<'_, '_>) -> Result<RecoveryPlan, PmError>;

    /// Like [`recover`](Self::recover), but free to reuse `ws`'s buffers
    /// instead of allocating per-run state. The plan is identical either
    /// way. Only [`Pm`] has buffers worth carrying; the default ignores
    /// `ws`.
    ///
    /// # Errors
    ///
    /// As for [`recover`](Self::recover).
    fn recover_in(
        &self,
        instance: &FmssmInstance<'_, '_>,
        _ws: &mut PmWorkspace,
    ) -> Result<RecoveryPlan, PmError> {
        self.recover(instance)
    }
}

/// A validated plan with its metrics: what [`solve`] returns.
#[derive(Debug, Clone)]
pub struct Solved {
    /// The recovery plan; it passed [`RecoveryPlan::validate`].
    pub plan: RecoveryPlan,
    /// All evaluation metrics of the plan.
    pub metrics: PlanMetrics,
    /// Wall-clock time of the recovery computation alone; validation and
    /// metrics are not in it.
    pub elapsed: Duration,
}

impl Solved {
    /// Validates a plan `algo` produced on `instance` in `elapsed` and
    /// computes its metrics — the body [`solve`] runs after recovery, for
    /// a plan obtained another way (the exact solver's
    /// [`Optimal::solve_detailed`], which also reports its proof status).
    ///
    /// # Errors
    ///
    /// [`PmError::Sdwan`] when the plan fails validation.
    pub fn check(
        algo: &dyn RecoveryAlgorithm,
        instance: &FmssmInstance<'_, '_>,
        plan: RecoveryPlan,
        elapsed: Duration,
    ) -> Result<Solved, PmError> {
        let (scenario, prog) = (instance.scenario(), instance.programmability());
        plan.validate(scenario, prog, algo.is_flow_level())?;
        let metrics = PlanMetrics::compute(scenario, prog, &plan, algo.middle_layer_ms());
        Ok(Solved {
            plan,
            metrics,
            elapsed,
        })
    }
}

/// Runs `algo` on `instance`: times [`RecoveryAlgorithm::recover_in`]
/// (reusing `ws`), validates the plan under `algo`'s flow-level rule and
/// computes its metrics with `algo`'s middle-layer delay. Every solve of
/// the evaluation, the CLI and the services goes through here, so every
/// plan they compare is checked and measured the same way.
///
/// # Errors
///
/// The algorithm's own error, or [`PmError::Sdwan`] when its plan fails
/// validation.
pub fn solve(
    algo: &dyn RecoveryAlgorithm,
    instance: &FmssmInstance<'_, '_>,
    ws: &mut PmWorkspace,
) -> Result<Solved, PmError> {
    let t0 = Instant::now();
    let plan = algo.recover_in(instance, ws)?;
    let elapsed = t0.elapsed();
    Solved::check(algo, instance, plan, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sdwan::{ControllerId, Programmability, SdWanBuilder};

    /// Maps an offline switch to the failed controller it lost.
    struct MapsToFailed;

    impl RecoveryAlgorithm for MapsToFailed {
        fn name(&self) -> &'static str {
            "MapsToFailed"
        }

        fn recover(&self, instance: &FmssmInstance<'_, '_>) -> Result<RecoveryPlan, PmError> {
            let failed = instance.scenario().failed_controllers()[0];
            let mut plan = RecoveryPlan::new();
            plan.map_switch(instance.switches()[0], failed);
            Ok(plan)
        }
    }

    #[test]
    fn solve_rejects_an_invalid_plan() {
        let net = SdWanBuilder::att_paper_setup().build().unwrap();
        let prog = Programmability::compute(&net);
        let scenario = net.fail(&[ControllerId(3)]).unwrap();
        let inst = FmssmInstance::new(&scenario, &prog);
        let err = solve(&MapsToFailed, &inst, &mut PmWorkspace::default()).unwrap_err();
        assert!(matches!(err, PmError::Sdwan(_)), "{err:?}");
    }
}
