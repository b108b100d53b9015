//! # ftspm-harness — experiment orchestration
//!
//! Glues the reproduction together the way the paper's tool flow does:
//!
//! 1. **Profile** the workload once on an idealised machine
//!    ([`profiling_structure`]: every block mapped, 1-cycle accesses) to
//!    obtain the Table I statistics and each block's first use;
//! 2. run **MDA** (or the baseline mapper) to fix each block's region;
//! 3. **re-run** the workload on the target structure with that mapping,
//!    collecting cycles, per-region read/write distributions, dynamic and
//!    static energy, STT-RAM wear, and the analytic vulnerability.
//!
//! [`RunBuilder`] is the front door: chain the structure, workload,
//! fault options, thread count and observability sink, then call
//! [`RunBuilder::run`] (one workload, one structure) or
//! [`RunBuilder::run_suite`] (whole workload set on FTSPM plus both
//! baselines). [`evaluate_workload`] performs the three-structure
//! evaluation for a single workload. The `report` module renders the
//! paper's tables and figures from the results.
//!
//! There is one run path. Every run is a multi-core workload on a
//! `MultiMachine` in lockstep; a single-core workload is a 1-core one,
//! and a 1-core `MultiMachine` attaches no coherence hub, so it runs
//! exactly the plain `Machine`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
mod builder;
pub mod journal;
mod metrics;
mod pipeline;
pub mod report;

pub use builder::RunBuilder;
pub use metrics::{MultiRunMetrics, RegionTraffic, RunMetrics, StructureKind, WorkloadEvaluation};
pub use pipeline::{
    evaluate_workload, profile_workload, profiling_structure, try_profile_multi_workload,
    try_profile_workload, FaultOptionsError, LiveFaultOptions, LiveFaultOptionsBuilder,
    ProfilePass, RunError, SingleCore,
};
