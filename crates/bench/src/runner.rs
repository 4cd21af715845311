//! The kernel experiment runner.
//!
//! [`run_kernel`] / [`run_suite`] drive one workload (or the whole suite)
//! through profile → hint insertion → baseline + LoopFrog simulation, as a
//! standalone convenience for tests and one-off experiments. The unified
//! experiment engine ([`crate::engine`]) produces the same [`KernelRun`]
//! values from memoized, deduplicated [`RunOutcome`]s instead of
//! simulating inline.

use crate::engine::planner::{Hinting, PreparedKernel};
use crate::tiered::{run_fingerprint_tiered, Tier};
use lf_isa::{Memory, Program};
use lf_stats::json::Reader;
use lf_stats::{Histogram, Json};
use lf_workloads::{Scale, Workload};
use loopfrog::telemetry::{CycleAccounting, CycleBucket, IntervalSample};
use loopfrog::{LoopFrogConfig, SimResult, SimStats};
use std::sync::Arc;

/// Configuration for one experiment run. Every run compares against one
/// baseline, [`LoopFrogConfig::baseline`] (the same core with hints
/// ignored, paper §6.1), on the program annotated by the compiler's default
/// loop selection ([`Hinting::Annotated`]).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The LoopFrog configuration under test.
    pub lf: LoopFrogConfig,
    /// Profile-guided deselection (paper §5.1: "we use profiling
    /// information to annotate the most profitable loops ... simulating
    /// perfect static loop selection", and "unprofitable loops must be
    /// excluded by either static or dynamic deselection"): kernels whose
    /// hinted run is slower than the baseline ship without hints.
    pub deselect_unprofitable: bool,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig { lf: LoopFrogConfig::default(), deselect_unprofitable: true }
    }
}

/// Everything one run established, stored once: the run cache holds
/// this record and nothing beside it, and the artifact writer formats its
/// metrics view from it ([`crate::artifact::kernel_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The simulation's own statistics. An estimate tier's are its carrier
    /// window's, and window-local; [`RunOutcome::new`] derives the
    /// whole-run view tables read.
    pub stats: SimStats,
    /// Per-commit-slot cycle accounting; sums to `cycles × commit_width`.
    pub accounting: CycleAccounting,
    /// Interval snapshots of the headline counters.
    pub intervals: Vec<IntervalSample>,
    /// Per-cycle ROB occupancy, IQ occupancy and commit bandwidth
    /// distributions, in that order.
    pub occupancy: [Histogram; 3],
    /// The simulated core's commit width.
    pub commit_width: u64,
    /// An estimate tier's record: its `tier` tag, `est_cycles` and
    /// `total_insts`, and how it sampled. `None` for a detailed run.
    pub tier: Option<Json>,
}

/// The JSON keys of [`RunRecord::occupancy`], in order.
const OCCUPANCY_KEYS: [&str; 3] = ["rob", "iq", "commit_bandwidth"];

/// An estimate tier's whole-run cycle estimate and instruction count.
fn estimate(tier: &Json) -> Option<(f64, u64)> {
    Some((tier.get("est_cycles")?.as_f64()?, tier.get("total_insts")?.as_u64()?))
}

impl RunRecord {
    /// The record of a finished simulation under `cfg`. The `SimResult`
    /// is consumed: its facts move, nothing is copied.
    pub fn from_result(result: SimResult, cfg: &LoopFrogConfig) -> RunRecord {
        RunRecord {
            stats: result.stats,
            accounting: result.accounting,
            intervals: result.intervals,
            occupancy: result.occupancy,
            commit_width: cfg.core.commit_width as u64,
            tier: None,
        }
    }

    /// Slots per accounting bucket, keyed by bucket name.
    pub(crate) fn accounting_json(&self) -> Json {
        let mut acct = Json::obj();
        for (bucket, n) in self.accounting.iter() {
            acct.set(bucket.name(), n);
        }
        acct
    }

    /// The interval snapshots, one object each.
    pub(crate) fn intervals_json(&self) -> Json {
        let intervals = self.intervals.iter().map(|s| {
            let mut i = Json::obj();
            i.set("cycle", s.cycle);
            i.set("committed_insts", s.committed_insts);
            i.set("issued_insts", s.issued_insts);
            i.set("spawns", s.spawns);
            i.set("squashes", s.squashes);
            i
        });
        Json::Arr(intervals.collect())
    }

    /// Serializes the record for the run cache. Inverse of
    /// [`RunRecord::read_json`].
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("stats", self.stats.to_json());
        j.set("accounting", self.accounting_json());
        j.set("intervals", self.intervals_json());
        let mut occupancy = Json::obj();
        for (key, hist) in OCCUPANCY_KEYS.into_iter().zip(&self.occupancy) {
            occupancy.set(key, hist.to_json());
        }
        j.set("occupancy", occupancy);
        j.set("commit_width", self.commit_width);
        if let Some(tier) = &self.tier {
            j.set("tier", tier.clone());
        }
        j
    }

    /// Reads a [`RunRecord::to_json`] document; `Ok(None)` if any field is
    /// missing or mistyped (a corrupt cache entry), including a tier record
    /// without its estimate. A key given twice keeps its last value. `Err`
    /// is a syntax error.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Option<RunRecord>, String> {
        let (mut stats, mut accounting, mut intervals) = (None, None, None);
        let (mut occupancy, mut commit_width, mut tier) = (None, None, None);
        r.object(|r, key| {
            match &*key {
                "stats" => stats = SimStats::read_json(r)?,
                "accounting" => accounting = read_accounting(r)?,
                "intervals" => intervals = read_intervals(r)?,
                "occupancy" => occupancy = read_occupancy(r)?,
                "commit_width" => commit_width = r.u64()?,
                "tier" => tier = Some(r.value()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        if tier.as_ref().is_some_and(|t| estimate(t).is_none()) {
            return Ok(None);
        }
        let (Some(stats), Some(accounting), Some(intervals), Some(occupancy), Some(commit_width)) =
            (stats, accounting, intervals, occupancy, commit_width)
        else {
            return Ok(None);
        };
        Ok(Some(RunRecord { stats, accounting, intervals, occupancy, commit_width, tier }))
    }
}

/// Reads [`RunRecord::accounting_json`]: every bucket's slots.
fn read_accounting(r: &mut Reader<'_>) -> Result<Option<CycleAccounting>, String> {
    let mut slots = [None; CycleBucket::ALL.len()];
    r.object(|r, key| match CycleBucket::ALL.iter().position(|b| b.name() == key) {
        Some(i) => r.u64().map(|n| slots[i] = n),
        None => r.skip(),
    })?;
    let mut accounting = CycleAccounting::default();
    for (bucket, n) in CycleBucket::ALL.into_iter().zip(slots) {
        let Some(n) = n else { return Ok(None) };
        accounting.add(bucket, n);
    }
    Ok(Some(accounting))
}

/// Reads [`RunRecord::intervals_json`]: every sample with all five counts.
fn read_intervals(r: &mut Reader<'_>) -> Result<Option<Vec<IntervalSample>>, String> {
    let (mut intervals, mut all) = (Vec::new(), true);
    let is_array = r.array(|r| {
        let mut counts = [None; 5];
        r.object(|r, key| {
            let slot = match &*key {
                "cycle" => 0,
                "committed_insts" => 1,
                "issued_insts" => 2,
                "spawns" => 3,
                "squashes" => 4,
                _ => return r.skip(),
            };
            r.u64().map(|n| counts[slot] = n)
        })?;
        match counts {
            [Some(cycle), Some(committed_insts), Some(issued_insts), Some(spawns), Some(squashes)] => {
                intervals.push(IntervalSample { cycle, committed_insts, issued_insts, spawns, squashes })
            }
            _ => all = false,
        }
        Ok(())
    })?;
    Ok((is_array && all).then_some(intervals))
}

/// Reads the occupancy histograms, by their [`OCCUPANCY_KEYS`].
fn read_occupancy(r: &mut Reader<'_>) -> Result<Option<[Histogram; 3]>, String> {
    let mut hists = [None, None, None];
    r.object(|r, key| match OCCUPANCY_KEYS.iter().position(|k| *k == key) {
        Some(i) => Histogram::read_json(r).map(|h| hists[i] = h),
        None => r.skip(),
    })?;
    let [Some(rob), Some(iq), Some(commit)] = hists else { return Ok(None) };
    Ok(Some([rob, iq, commit]))
}

/// The memoizable product of one simulation: everything any scenario
/// consumes, detached from the live simulator state so it can be shared
/// (`Arc`), sent across worker threads, and round-tripped through the
/// on-disk run cache.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Content fingerprint of `(annotated program, memory, config, scale)`;
    /// see [`run_fingerprint`].
    pub fingerprint: u64,
    /// Whole-run statistics for tables and summary math, derived from
    /// `record` by [`RunOutcome::new`].
    pub stats: SimStats,
    /// Final architectural state checksum.
    pub checksum: u64,
    /// The run's facts, stored once.
    pub record: RunRecord,
}

impl RunOutcome {
    /// The outcome of a run whose facts are `record`, deriving its
    /// table-facing `stats`: an estimate tier's `cycles` and
    /// `committed_insts` are its `tier.est_cycles` (rounded) and
    /// `tier.total_insts`, and every other field is the carrier window's;
    /// a detailed run's stats are its record's.
    pub fn new(fingerprint: u64, checksum: u64, record: RunRecord) -> RunOutcome {
        let mut stats = record.stats.clone();
        if let Some((cycles, insts)) = record.tier.as_ref().and_then(estimate) {
            stats.cycles = cycles.round() as u64;
            stats.committed_insts = insts;
        }
        RunOutcome { fingerprint, stats, checksum, record }
    }

    /// Converts a finished simulation under `cfg` into its memoizable
    /// outcome. The `SimResult` is consumed: its facts move into the
    /// record.
    pub fn from_result(fingerprint: u64, result: SimResult, cfg: &LoopFrogConfig) -> RunOutcome {
        let checksum = result.checksum;
        RunOutcome::new(fingerprint, checksum, RunRecord::from_result(result, cfg))
    }

    /// A field of the tier record (`record.tier.<key>`), which the
    /// estimate tiers fill.
    pub fn tier_field(&self, key: &str) -> Option<&Json> {
        self.record.tier.as_ref()?.get(key)
    }
}

/// Stable identity of one simulation, per the experiment engine's
/// deduplication contract: the annotated program's code fingerprint, the
/// initial memory image, the canonicalized [`LoopFrogConfig`], and the
/// workload scale. Equal fingerprints produce identical results (the
/// simulator is deterministic). This is the [`Tier::Detailed`] case of
/// [`run_fingerprint_tiered`].
pub fn run_fingerprint(program: &Program, mem: &Memory, cfg: &LoopFrogConfig, scale: Scale) -> u64 {
    run_fingerprint_tiered(program, mem, cfg, scale, Tier::Detailed)
}

/// The lowercase tag used for a scale in fingerprints, CLI flags, and
/// artifacts.
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Eval => "eval",
        Scale::Full => "full",
    }
}

/// Outcome of running one kernel under baseline and LoopFrog.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Kernel name.
    pub name: &'static str,
    /// SPEC benchmark analog.
    pub spec_analog: &'static str,
    /// Which suite.
    pub suite: lf_workloads::Suite,
    /// Expected bottleneck category.
    pub category: lf_workloads::Category,
    /// Whether the loop sits in an OpenMP region in the original (§6.7).
    pub in_openmp_region: bool,
    /// Number of loops the compiler annotated.
    pub selected_loops: usize,
    /// Baseline outcome.
    pub base: Arc<RunOutcome>,
    /// LoopFrog outcome; mirrors `base` (shared, not re-simulated) when
    /// the kernel is deselected.
    pub lf: Arc<RunOutcome>,
    /// Whether emulator, baseline, and LoopFrog all agreed on final state.
    pub checksum_ok: bool,
    /// The kernel's loops were deselected as unprofitable (its shipped
    /// configuration is hint-free; `lf` mirrors `base`).
    pub deselected: bool,
}

impl KernelRun {
    /// Applies the profile-guided deselection rule to a pair of outcomes
    /// and assembles the record. Outcomes are shared `Arc`s: a deselected
    /// kernel's `lf` is the same allocation as its `base`, never a copy.
    pub fn from_outcomes(
        w: &Workload,
        selected_loops: usize,
        golden: u64,
        base: Arc<RunOutcome>,
        lf: Arc<RunOutcome>,
        deselect_unprofitable: bool,
    ) -> KernelRun {
        let checksum_ok = base.checksum == golden && lf.checksum == golden;
        let deselected = deselect_unprofitable && lf.stats.cycles > base.stats.cycles;
        let (lf, selected_loops) =
            if deselected { (base.clone(), 0) } else { (lf, selected_loops) };
        KernelRun {
            name: w.name,
            spec_analog: w.spec_analog,
            suite: w.suite,
            category: w.category,
            in_openmp_region: w.in_openmp_region,
            selected_loops,
            base,
            lf,
            checksum_ok,
            deselected,
        }
    }

    /// Whole-program speedup of LoopFrog over the baseline.
    pub fn speedup(&self) -> f64 {
        self.base.stats.cycles as f64 / self.lf.stats.cycles as f64
    }

    /// Baseline run statistics.
    pub fn base_stats(&self) -> &SimStats {
        &self.base.stats
    }

    /// LoopFrog run statistics (the baseline's when deselected).
    pub fn lf_stats(&self) -> &SimStats {
        &self.lf.stats
    }
}

/// Runs one workload through profile → annotate → baseline + LoopFrog.
///
/// # Panics
///
/// Panics if the kernel faults or a simulation deadlocks (reproduction
/// bugs, surfaced loudly).
pub fn run_kernel(w: &Workload, cfg: &RunConfig) -> KernelRun {
    run_kernel_with(w, cfg, |_| {})
}

/// [`run_kernel`] with a core hook: `hook` runs once on each freshly
/// constructed core (baseline, then LoopFrog) before its simulation.
/// Tests use it to attach tracers or enable the self-profiler and assert
/// the results are byte-identical to an unhooked run; observers attached
/// this way are core-side state and never reach the run fingerprint.
///
/// # Panics
///
/// As [`run_kernel`].
pub fn run_kernel_with(
    w: &Workload,
    cfg: &RunConfig,
    mut hook: impl FnMut(&mut loopfrog::LoopFrogCore),
) -> KernelRun {
    let prep = PreparedKernel::prepare(w.clone(), &Hinting::Annotated);
    let golden = prep.identity.golden.expect("annotated preparations carry a golden checksum");
    let program = prep.program().expect("a full preparation holds its program");
    // Results move into shared outcomes, and a deselected kernel mirrors
    // the baseline by Arc, not by clone.
    let mut sim = |c: &LoopFrogConfig, tag: &str| {
        let mut core = loopfrog::LoopFrogCore::new(program, w.mem.clone(), c.clone());
        hook(&mut core);
        let result = core.run().unwrap_or_else(|e| panic!("{} {tag} failed: {e}", w.name));
        Arc::new(RunOutcome::from_result(prep.request_fingerprint(c), result, c))
    };
    let base = sim(&LoopFrogConfig::baseline(), "baseline");
    let lf = sim(&cfg.lf, "loopfrog");
    let selected_loops = prep.identity.selected_loops;
    KernelRun::from_outcomes(w, selected_loops, golden, base, lf, cfg.deselect_unprofitable)
}

/// Runs the whole suite at `scale`.
pub fn run_suite(scale: Scale, cfg: &RunConfig) -> Vec<KernelRun> {
    lf_workloads::all(scale).iter().map(|w| run_kernel(w, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_kernel_end_to_end() {
        let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
        let r = run_kernel(&w, &RunConfig::default());
        assert!(r.checksum_ok, "architectural state must match the emulator");
        assert!(r.selected_loops >= 1, "the hot loop must be selected");
        assert!(r.lf_stats().spawns > 0, "threadlets must spawn");
        assert_ne!(r.base.fingerprint, r.lf.fingerprint, "configs must fingerprint apart");
    }

    #[test]
    fn deselected_kernels_share_the_baseline_outcome() {
        let w = lf_workloads::by_name("compress_rle", Scale::Smoke).unwrap();
        let r = run_kernel(&w, &RunConfig::default());
        if r.deselected {
            assert!(Arc::ptr_eq(&r.base, &r.lf), "mirroring must share, not copy");
            assert_eq!(r.selected_loops, 0);
        }
    }

    #[test]
    fn fingerprint_distinguishes_scale_and_config() {
        let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
        let cfg = LoopFrogConfig::default();
        let fp = run_fingerprint(&w.program, &w.mem, &cfg, Scale::Smoke);
        assert_eq!(fp, run_fingerprint(&w.program, &w.mem, &cfg, Scale::Smoke));
        assert_ne!(fp, run_fingerprint(&w.program, &w.mem, &cfg, Scale::Eval));
        assert_ne!(
            fp,
            run_fingerprint(&w.program, &w.mem, &LoopFrogConfig::baseline(), Scale::Smoke)
        );
        let mut small_ssb = LoopFrogConfig::default();
        small_ssb.ssb.size_bytes = 512;
        assert_ne!(fp, run_fingerprint(&w.program, &w.mem, &small_ssb, Scale::Smoke));
    }
}
