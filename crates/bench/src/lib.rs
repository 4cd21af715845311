//! # lf-bench — experiment harness for the LoopFrog reproduction
//!
//! The [`engine`] module is the heart: every figure/table is a registered
//! [`engine::Scenario`] that declares its simulations to a deduplicating
//! run planner and renders from memoized outcomes — `lf-bench run --all`
//! simulates each unique (program × config × scale) exactly once. The
//! [`runner`] module keeps the standalone single-kernel path used by tests
//! and one-off experiments.

#![warn(missing_docs)]

pub mod area;
pub mod artifact;
pub mod durable;
pub mod engine;
pub mod perf;
pub mod runner;
pub mod table;
pub mod tiered;
pub mod tracecmd;

pub use artifact::RunArtifact;
pub use runner::{
    run_fingerprint, run_kernel, run_kernel_with, run_suite, scale_tag, KernelRun, RunConfig,
    RunOutcome, RunRecord,
};
pub use table::{fmt_pct, print_table, write_table};
pub use tiered::{run_fingerprint_tiered, SampledPlan, Tier};
