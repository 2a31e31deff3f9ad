//! Evaluation harness for the ProgrammabilityMedic reproduction.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation (Section VI):
//!
//! | Binary   | Paper artifact | Content |
//! |----------|----------------|---------|
//! | `table3` | Table III      | controller domains and per-switch flow counts |
//! | `fig4`   | Fig. 4(a–d)    | one controller failure, 6 cases |
//! | `fig5`   | Fig. 5(a–f)    | two controller failures, 15 cases |
//! | `fig6`   | Fig. 6(a–f)    | three controller failures, 20 cases |
//! | `fig7`   | Fig. 7         | PM computation time as % of Optimal |
//!
//! This library holds the shared harness: enumerate failure cases, run the
//! four algorithms, collect [`pm_sdwan::PlanMetrics`], and render aligned
//! text tables (plus optional CSV files for plotting).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod figures;
pub mod harness;
pub mod par;
pub mod plan_store;
pub mod pmd;
pub mod report;
pub mod scenario_space;
pub mod sweep;
pub mod timelines;
pub mod wan;

pub use events::EventLog;
pub use harness::{AlgoRun, CaseResult, EvalOptions, TelemetryPlane};
pub use par::{current_worker, stream_indexed, timing_stats, SolvedPlan, SweepEngine, TimingStats};
pub use plan_store::{PlanStore, StoredPlan};
pub use pmd::{Generation, PmdConfig, PmdService};
pub use scenario_space::{binomial, ScenarioSelection, ScenarioSpace};
pub use sweep::combinations;
pub use timelines::{timeline_rows, TimelineRunInfo, TimelineSelection, TIMELINE_CASE_HEADERS};
pub use wan::{build_wan, BuiltWan, WanSpec};
