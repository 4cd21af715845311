//! # lf-uarch — microarchitecture component library
//!
//! Cycle-level building blocks for the LoopFrog reproduction's out-of-order
//! core (paper Table 1): an L-TAGE-style branch predictor with loop
//! predictor, BTB and RAS ([`bpred`]), a three-level cache hierarchy with
//! MSHRs and stride prefetchers ([`cache`], [`prefetch`]), reference-counted
//! register renaming ([`rename`]), functional-unit pools ([`fu`]), a shared
//! issue queue ([`iq`]), and the configuration types ([`config`]).
//!
//! The pipeline control loop that composes these into a core lives in the
//! `loopfrog` crate, because threadlet policy (spawn/squash/commit) is the
//! paper's contribution and is woven through every stage.

#![warn(missing_docs)]

pub mod bpred;
pub mod cache;
pub mod config;
pub mod fu;
pub mod iq;
pub mod prefetch;
pub mod rename;

pub use bpred::{BpLookup, BranchPredictor, History, PredictorSnapshot};
pub use cache::{AccessKind, Cache, HierarchySnapshot, MemHierarchy};
pub use config::{CacheConfig, CoreConfig, FuConfig, MemConfig};
pub use fu::FuPools;
pub use iq::{IssueQueue, Offer};
pub use prefetch::StridePrefetcher;
pub use rename::{PhysReg, PhysRegFile, RenameMap};
