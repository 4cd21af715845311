//! Machine-readable run artifacts.
//!
//! Every experiment binary can dump a `results/*.json` document via
//! `--json <path>`: tool name, workload scale, a configuration summary,
//! and one record per kernel carrying the full metrics-registry dump of
//! both the baseline and LoopFrog runs (cycle-accounting buckets,
//! distributions, derived formulas), the interval time series, and the
//! architectural checksum verdict. The schema is stable-ordered (sorted
//! object keys) so artifacts diff cleanly across runs.

use crate::runner::{KernelRun, RunConfig};
use lf_stats::Json;
use lf_workloads::Scale;
use loopfrog::SimResult;
use std::io;
use std::path::Path;

/// Artifact schema version; bump on incompatible layout changes. Also
/// versions the experiment engine's on-disk run cache
/// ([`crate::engine::cache`]): a bump invalidates every cached outcome.
///
/// v2: unified experiment engine — artifacts gain a `planner` section and
/// kernel records are rendered from memoized [`crate::RunOutcome`]s.
///
/// v3: observability — [`loopfrog::SimStats`] gains structure-occupancy
/// counters (`arena_high_water`, `wheel_overflow_hits`,
/// `conflict_probes`), so cached registry dumps change shape; the planner
/// section gains a `run_wall_us` timing summary.
pub const SCHEMA_VERSION: u64 = 3;

/// Builder for one experiment's JSON artifact.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    root: Json,
    kernels: Vec<Json>,
}

impl RunArtifact {
    /// Starts an artifact for the named tool at the given scale.
    pub fn new(tool: &str, scale: Scale) -> RunArtifact {
        let mut art = RunArtifact::for_tool(tool);
        art.root.set("scale", format!("{scale:?}").to_lowercase());
        art
    }

    /// Starts an artifact for a tool with no workload scale (e.g. the
    /// `lf-verify` fuzzer, whose inputs are generated programs).
    pub fn for_tool(tool: &str) -> RunArtifact {
        let mut root = Json::obj();
        root.set("schema_version", SCHEMA_VERSION);
        root.set("tool", tool);
        RunArtifact { root, kernels: Vec::new() }
    }

    /// Records a configuration summary (the knobs that identify the run).
    pub fn set_config(&mut self, cfg: &RunConfig) {
        let mut c = Json::obj();
        c.set("core.width", cfg.lf.core.width as u64);
        c.set("core.commit_width", cfg.lf.core.commit_width as u64);
        c.set("core.rob_size", cfg.lf.core.rob_size as u64);
        c.set("core.threadlets", cfg.lf.core.threadlets as u64);
        c.set("ssb.size_bytes", cfg.lf.ssb.size_bytes as u64);
        c.set("ssb.granule", cfg.lf.ssb.granule as u64);
        c.set("packing.enabled", Json::Bool(cfg.lf.packing.enabled));
        c.set("speculation", Json::Bool(cfg.lf.speculation));
        c.set("deselect_unprofitable", Json::Bool(cfg.deselect_unprofitable));
        c.set("telemetry.interval_cycles", loopfrog::telemetry::INTERVAL_CYCLES);
        self.root.set("config", c);
    }

    /// Appends one kernel's record (both simulations, full registries).
    pub fn push_kernel(&mut self, run: &KernelRun) {
        self.kernels.push(kernel_json(run));
    }

    /// Attaches tool-specific extra data (sweep tables, ablation points).
    pub fn set_extra(&mut self, key: &str, value: impl Into<Json>) {
        self.root.set(key, value);
    }

    /// Finalizes the document.
    pub fn into_json(mut self) -> Json {
        self.root.set("kernels", Json::Arr(self.kernels));
        self.root
    }

    /// Writes the document (pretty-printed) to `path`, creating parent
    /// directories as needed. Commits through the shared atomic path so a
    /// killed run never publishes a truncated artifact.
    pub fn write(self, path: &Path) -> io::Result<()> {
        crate::durable::atomic_write_json(&self.into_json(), path)
    }
}

/// One kernel's record: identity, verdicts, and both full results (the
/// pre-rendered dumps carried by the run's memoized outcomes).
pub fn kernel_json(run: &KernelRun) -> Json {
    let mut k = Json::obj();
    k.set("name", run.name);
    k.set("spec_analog", run.spec_analog);
    k.set("suite", format!("{:?}", run.suite).to_lowercase());
    k.set("category", format!("{:?}", run.category).to_lowercase());
    k.set("in_openmp_region", Json::Bool(run.in_openmp_region));
    k.set("selected_loops", run.selected_loops as u64);
    k.set("checksum_ok", Json::Bool(run.checksum_ok));
    k.set("deselected", Json::Bool(run.deselected));
    k.set("speedup", run.speedup());
    k.set("base", run.base.rendered.clone());
    k.set("loopfrog", run.lf.rendered.clone());
    k
}

/// One simulation's record: the registry dump plus explicit accounting
/// and interval views (also present inside the registry as scalars). The
/// final-state checksum is not part of it: a JSON number cannot hold 64
/// bits exactly, and the run cache keeps the checksum as hex beside it.
pub fn sim_result_json(r: &SimResult) -> Json {
    let mut j = Json::obj();
    j.set("registry", r.registry.to_json());
    let mut acct = Json::obj();
    for (bucket, n) in r.accounting.iter() {
        acct.set(bucket.name(), n);
    }
    j.set("accounting", acct);
    let intervals: Vec<Json> = r
        .intervals
        .iter()
        .map(|s| {
            let mut i = Json::obj();
            i.set("cycle", s.cycle);
            i.set("committed_insts", s.committed_insts);
            i.set("issued_insts", s.issued_insts);
            i.set("spawns", s.spawns);
            i.set("squashes", s.squashes);
            i
        })
        .collect();
    j.set("intervals", Json::Arr(intervals));
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_workloads::Scale;

    #[test]
    fn artifact_round_trips_with_registry_and_intervals() {
        let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
        let cfg = RunConfig::default();
        let run = crate::run_kernel(&w, &cfg);
        let mut art = RunArtifact::new("unit_test", Scale::Smoke);
        art.set_config(&cfg);
        art.push_kernel(&run);
        let doc = art.into_json();
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).expect("artifact parses back");

        let kernels = back.get("kernels").and_then(Json::as_arr).unwrap();
        assert_eq!(kernels.len(), 1);
        let k = &kernels[0];
        assert_eq!(k.get("name").and_then(Json::as_str), Some("stencil_blur"));

        // Registry dump carries cycle accounting and core counters.
        let lf = k.get("loopfrog").unwrap();
        let reg = lf.get("registry").unwrap();
        assert!(reg.get("core.cycles").is_some());
        assert!(reg.get("accounting.base_commit").is_some());

        // The interval time series is non-empty: every run samples.
        let intervals = lf.get("intervals").and_then(Json::as_arr).unwrap();
        assert!(!intervals.is_empty(), "every run samples intervals");
        assert!(intervals[0].get("committed_insts").is_some());

        // The 64-bit checksum is not carried as a (rounded) JSON number.
        for side in ["base", "loopfrog"] {
            assert!(k.get(side).unwrap().get("checksum").is_none(), "{side} carries a checksum");
        }
    }
}
