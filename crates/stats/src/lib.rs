//! # lf-stats — statistics utilities for the LoopFrog reproduction
//!
//! Event [`Counters`] and [`Histogram`]s for simulator statistics, a
//! minimal [`Json`] model for artifacts and the run cache ([`json`]),
//! summary math ([`geomean`], [`speedup`], Amdahl inversion), an exponential
//! moving average ([`Ema`]) used by iteration packing, and a SimPoint-style
//! phase analysis pipeline ([`simpoint`]) mirroring the paper's §6.1
//! methodology.

#![warn(missing_docs)]

pub mod counters;
pub mod fault;
pub mod fingerprint;
pub mod json;
pub mod rng;
pub mod simpoint;
pub mod summary;

pub use counters::{Counters, Histogram};
pub use fault::{rate_gate, Backoff};
pub use fingerprint::{fingerprint_hex, parse_fingerprint_hex, Fingerprint};
pub use json::Json;
pub use rng::SmallRng;
pub use simpoint::{pick_simpoints, BbvCollector, SimPoint};
pub use summary::{amdahl_region_speedup, geomean, harmonic_mean, mean, speedup, speedup_pct, Ema};
