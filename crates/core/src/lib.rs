//! # loopfrog — In-Core Hint-Based Loop Parallelization
//!
//! A from-scratch reproduction of *LoopFrog: In-Core Hint-Based Loop
//! Parallelization* (Erdős et al., MICRO 2025): a cycle-level, 8-wide
//! out-of-order core in which compiler-inserted `detach`/`reattach`/`sync`
//! hints let the microarchitecture run future loop iterations as
//! speculative *threadlets*, leapfrogging the instruction window.
//!
//! The crate provides:
//!
//! - [`LoopFrogCore`] / [`simulate`]: the pipeline (paper §4, Figure 3) —
//!   with [`LoopFrogConfig::baseline`] it is also the paper's baseline core
//!   (hints as NOPs);
//! - [`ssb::Ssb`]: the Speculative State Buffer (§4.1) with granule-level
//!   multi-versioning, victim buffer, and atomic threadlet commit;
//! - [`conflict::ConflictDetector`]: Algorithm 1's read/write-set checks;
//! - [`packing::PackingPredictors`]: iteration packing (§4.3) — epoch-size
//!   EMA, induction-variable detection, and strided value prediction;
//! - [`SimStats`] / [`SimResult`]: the metrics behind the paper's figures.
//!
//! Sequential semantics are strictly preserved: any run's final
//! architectural state checksum equals the golden [`lf_isa::Emulator`]'s.
//!
//! # Examples
//!
//! Compare the baseline with LoopFrog on a hinted program:
//!
//! ```
//! use lf_isa::{Memory, ProgramBuilder, reg, AluOp, BranchCond, MemSize};
//! use loopfrog::{simulate, LoopFrogConfig};
//!
//! // for i in 0..64 { a[i] = a[i] * 3 }  — hinted for LoopFrog.
//! let mut b = ProgramBuilder::new();
//! let cont = b.label("cont");
//! let head = b.label("head");
//! let exit = b.label("exit");
//! b.li(reg::x(1), 0);       // i * 8
//! b.li(reg::x(2), 64 * 8);  // bound
//! b.bind(head);
//! b.detach(cont);
//! b.load(reg::x(3), reg::x(1), 0x100, MemSize::B8);
//! b.alui(AluOp::Mul, reg::x(3), reg::x(3), 3);
//! b.store(reg::x(3), reg::x(1), 0x100, MemSize::B8);
//! b.reattach(cont);
//! b.bind(cont);
//! b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
//! b.branch(BranchCond::Lt, reg::x(1), reg::x(2), head);
//! b.sync(cont);
//! b.halt();
//! let program = b.build()?;
//!
//! let base = simulate(&program, Memory::new(4096), LoopFrogConfig::baseline())?;
//! let lf = simulate(&program, Memory::new(4096), LoopFrogConfig::default())?;
//! assert_eq!(base.checksum, lf.checksum, "sequential semantics preserved");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod arena;
pub mod bloom;
pub mod config;
pub mod conflict;
pub mod deselect;
mod dyninst;
mod engine;
pub mod packing;
pub mod profiler;
pub mod regset;
pub mod ssb;
pub mod stats;
pub mod telemetry;
mod threadlet;
pub mod trace;
#[cfg(feature = "verify")]
pub mod verify;
mod warm;
mod wheel;

/// Whether this build checks the engine's invariants every cycle (the
/// `verify` feature, on in workspace builds). Callers that take an exact
/// shortcut in production builds also check it against the long way when
/// this is set, the way the core checks its quiet-cycle skip.
pub const VERIFY: bool = cfg!(feature = "verify");

pub use config::{LoopFrogConfig, PackingConfig, SsbConfig};
pub use deselect::DeselectConfig;
pub use engine::{simulate, LoopFrogCore, SimError};
pub use profiler::{ProfileReport, StageProfile};
pub use ssb::SsbFootprint;
pub use stats::{SimResult, SimStats, SimStop};
pub use telemetry::{CycleAccounting, CycleBucket, IntervalSample};
pub use trace::{
    CountingTracer, FlightRecorder, KonataTracer, SquashReason, TextTracer, TraceEvent,
    TraceFilter, TraceKind, TraceMux, Tracer,
};
pub use warm::WarmState;
