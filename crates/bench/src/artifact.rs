//! Machine-readable run artifacts.
//!
//! Every experiment binary can dump a `results/*.json` document via
//! `--json <path>`: tool name, workload scale, a configuration summary,
//! and one record per kernel carrying a metrics view of both the baseline
//! and LoopFrog runs (every counter under a dotted name, cycle-accounting
//! buckets, distributions, derived ratios), the interval time series, and
//! the architectural checksum verdict. The view is formatted here from
//! each run's [`RunRecord`], only when the document is built
//! ([`RunArtifact::to_json`]); nothing derived is stored, so a campaign
//! that writes no artifact formats no kernel record. The schema is
//! stable-ordered (sorted object keys) so artifacts diff cleanly across
//! runs.

use crate::runner::{KernelRun, RunConfig, RunRecord};
use lf_stats::{Histogram, Json};
use lf_workloads::Scale;
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
///
/// v4: a run is recorded once — a cache entry holds the run's
/// [`RunRecord`] (`record`: its own stats, accounting, intervals,
/// occupancy distributions, commit width, and an estimate tier's `tier`)
/// in place of the `stats` and pre-rendered `result` it held twice over;
/// artifact kernel records are unchanged, formatted from the record.
pub const SCHEMA_VERSION: u64 = 4;

/// Builder for one experiment's JSON artifact.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    root: Json,
    /// The kernels' records, formatted by [`RunArtifact::to_json`].
    kernels: Vec<KernelRun>,
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

    /// Appends one kernel's record (both simulations' metrics views). The
    /// run's outcomes are shared, not copied.
    pub fn push_kernel(&mut self, run: &KernelRun) {
        self.kernels.push(run.clone());
    }

    /// Attaches tool-specific extra data (sweep tables, ablation points).
    pub fn set_extra(&mut self, key: &str, value: impl Into<Json>) {
        self.root.set(key, value);
    }

    /// Builds the document, formatting every kernel record.
    pub fn to_json(&self) -> Json {
        let mut root = self.root.clone();
        root.set("kernels", Json::Arr(self.kernels.iter().map(kernel_json).collect()));
        root
    }

    /// Writes the document (pretty-printed) to `path`, creating parent
    /// directories as needed. Commits through the shared atomic path so a
    /// killed run never publishes a truncated artifact.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        crate::durable::atomic_write_json(&self.to_json(), path)
    }
}

/// One kernel's record: identity, verdicts, and the metrics view of both
/// runs' records.
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
    k.set("base", record_json(&run.base.record));
    k.set("loopfrog", record_json(&run.lf.record));
    k
}

/// One run's view: the `registry` of dotted-name metrics, plus explicit
/// accounting and interval views and an estimate tier's record. The
/// final-state checksum is not part of it: a JSON number cannot hold 64
/// bits exactly, and the run cache keeps the checksum as hex.
fn record_json(r: &RunRecord) -> Json {
    let mut j = Json::obj();
    j.set("registry", registry_json(r));
    j.set("accounting", r.accounting_json());
    j.set("intervals", r.intervals_json());
    if let Some(tier) = &r.tier {
        j.set("tier", tier.clone());
    }
    j
}

/// The record's counters under dotted names, stage by stage, with its
/// accounting buckets, occupancy distributions and seven derived ratios.
/// An estimate tier's view is its carrier window's.
fn registry_json(r: &RunRecord) -> Json {
    let s = &r.stats;
    let c = |key: &str| s.counters.get(key);
    let mut reg = Json::obj();
    for (name, value) in [
        // Core pipeline, stage by stage.
        ("core.cycles", s.cycles),
        ("core.fetch.insts", s.fetched_insts),
        ("core.fetch.icache_stalls", s.fetch_icache_stalls),
        ("core.rename.insts", s.renamed_insts),
        ("core.issue.insts", s.issued_insts),
        ("core.commit.arch_insts", s.commits_arch),
        ("core.commit.spec_success_insts", s.commits_spec_success),
        ("core.commit.spec_failed_insts", s.commits_spec_failed),
        ("core.commit.total_insts", s.committed_insts),
        ("core.branch.resolved", s.branches),
        ("core.branch.mispredicts", s.branch_mispredicts),
        ("core.config.commit_width", r.commit_width),
        // Threadlet machinery: spawns, packing, squash causes, activity.
        ("threadlet.spawns", s.spawns),
        ("threadlet.packing.packed_spawns", s.packed_spawns),
        ("threadlet.packing.factor_sum", s.pack_factor_sum),
        ("threadlet.packing.factor_max", s.pack_factor_max as u64),
        ("threadlet.packing.patches", s.pack_patches),
        ("threadlet.squash.conflict", s.squashes_conflict),
        ("threadlet.squash.sync_exit", s.squashes_sync),
        ("threadlet.squash.packing", s.squashes_packing),
        ("threadlet.squash.wrong_path", s.squashes_wrong_path),
        ("threadlet.squash.register", c("squashes_register")),
        ("threadlet.region_cycles", s.region_cycles),
    ] {
        reg.set(name, value);
    }
    for (k, cycles) in s.cycles_with_active.iter().enumerate() {
        reg.set(&format!("threadlet.active.{k}"), *cycles);
    }

    // Memory hierarchy, SSB, conflict detection, deselection; every other
    // counter under `counters.`.
    let mapped = [
        ("mem.l1i.accesses", "l1i_accesses"),
        ("mem.l1i.misses", "l1i_misses"),
        ("mem.l1d.accesses", "l1d_accesses"),
        ("mem.l1d.misses", "l1d_misses"),
        ("mem.l2.demand_accesses", "l2_demand_accesses"),
        ("mem.l2.demand_misses", "l2_demand_misses"),
        ("ssb.overflow_stalls", "ssb_overflows"),
        ("conflict.bloom_false_positive_squashes", "bloom_false_positive_squashes"),
        ("deselect.regions_suppressed", "regions_suppressed"),
    ];
    for (name, key) in mapped {
        reg.set(name, c(key));
    }
    for (k, v) in s.counters.iter() {
        if k != "squashes_register" && !mapped.iter().any(|&(_, key)| key == k) {
            reg.set(&format!("counters.{k}"), v);
        }
    }

    for (bucket, slots) in r.accounting.iter() {
        reg.set(&format!("accounting.{}", bucket.name()), slots);
    }
    let names = ["core.rob.occupancy", "core.iq.occupancy", "core.commit.bandwidth"];
    for (name, hist) in names.into_iter().zip(&r.occupancy) {
        reg.set(name, distribution_json(hist));
    }

    // Derived ratios; a zero denominator reads 0.
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let (cycles, insts) = (s.cycles as f64, s.committed_insts as f64);
    let squashes = s.squashes_conflict as f64
        + s.squashes_sync as f64
        + s.squashes_packing as f64
        + s.squashes_wrong_path as f64
        + c("squashes_register") as f64;
    let mispredicts = s.branch_mispredicts as f64;
    for (name, value) in [
        ("core.ipc", ratio(insts, cycles)),
        ("core.commit.utilization", ratio(insts, cycles * r.commit_width as f64)),
        ("core.branch.miss_rate", ratio(mispredicts, s.branches as f64)),
        ("core.branch.mpki", ratio(mispredicts * 1000.0, insts)),
        ("mem.l1d.miss_rate", ratio(c("l1d_misses") as f64, c("l1d_accesses") as f64)),
        (
            "mem.l2.demand_miss_rate",
            ratio(c("l2_demand_misses") as f64, c("l2_demand_accesses") as f64),
        ),
        ("threadlet.squash.per_kilo_inst", ratio(squashes * 1000.0, insts)),
    ] {
        let mut f = Json::obj();
        f.set("kind", "formula");
        f.set("value", value);
        reg.set(name, f);
    }
    reg
}

/// A distribution's summary fields and raw buckets.
fn distribution_json(hist: &Histogram) -> Json {
    let mut o = Json::obj();
    o.set("kind", "distribution");
    o.set("count", hist.count());
    o.set("mean", hist.mean());
    o.set("max", hist.max());
    o.set("p50", hist.percentile(0.50));
    o.set("p90", hist.percentile(0.90));
    o.set("p99", hist.percentile(0.99));
    o.set("bucket_width", hist.width());
    o.set("buckets", Json::from(hist.buckets().to_vec()));
    o
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
        let doc = art.to_json();
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).expect("artifact parses back");

        let kernels = back.get("kernels").and_then(Json::as_arr).unwrap();
        assert_eq!(kernels.len(), 1);
        let k = &kernels[0];
        assert_eq!(k.get("name").and_then(Json::as_str), Some("stencil_blur"));

        // The registry view carries cycle accounting and core counters.
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

    /// The view formatted from a record is byte for byte the one the
    /// simulator's own metrics dump produced when this pin was recorded:
    /// the same names, values and ratios, in the same operation order.
    #[test]
    fn kernel_view_is_pinned_byte_for_byte() {
        let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
        let run = crate::run_kernel(&w, &RunConfig::default());
        let text = kernel_json(&run).to_string_pretty();
        assert_eq!(lf_isa::checksum::fnv1a(text.as_bytes()), 0x1999_bc88_aacb_2e54, "{text}");
    }
}
