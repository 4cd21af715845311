//! Tiered execution: sampled cycle-accurate windows from warm
//! checkpoints, and the SimPoint methodology check.
//!
//! The detailed core simulates a few hundred kilocycles per second; the
//! functional fast tier executes tens of millions of instructions per
//! second. This module trades between them the way gem5 switches CPU
//! models: a run executes entirely on the detailed core
//! ([`Tier::Detailed`], the legacy path), or fast-forwards with functional
//! warming to SimPoint-selected windows and measures only those in detail
//! ([`Tier::Sampled`]). [`Tier::SimpointCheck`] is the `simpoint_check`
//! scenario's bespoke estimate ([`run_simpoint_check`]); only that
//! scenario requests it.
//!
//! The sampled pipeline:
//!
//! 1. one functional pass establishes the dynamic instruction count and
//!    the final-state checksum (the golden reference the engine's
//!    `checksum_ok` gate compares against);
//! 2. a second pass splits the run into fixed-length intervals and
//!    collects a basic-block vector per interval (plus a synthetic
//!    working-set dimension, [`lf_isa::BBV_NEW_LINES_KEY`]); a trailing
//!    partial interval shorter than half the interval length is dropped
//!    from clustering so its drain-dominated CPI cannot claim a full
//!    cluster weight;
//! 3. [`pick_simpoints`] clusters the vectors and selects weighted
//!    representative intervals;
//! 4. a third pass captures a [`Checkpoint`] at each representative's
//!    starting instruction: architectural state snapshotted exactly at
//!    the pick, hint streams captured [`WARM_LOOKAHEAD_INSTS`] further
//!    to model the live core's speculative run-ahead;
//! 5. each window restores a detailed core from its pick's checkpoint and
//!    [`WarmState`] (`LoopFrogCore::from_warm`), runs a bounded detailed
//!    warm-up (interval / [`WARM_FRACTION`] instructions; skipped at
//!    interval 0, where the restore *is* the pristine cold start),
//!    measures the interval, and [`weighted_cycles`] reconstructs the
//!    whole-run cycle count.
//!
//! A plan (picks + checkpoints) depends only on the program and memory
//! image, and a pick's warm state only on its checkpoint and the memory
//! configuration, so a campaign builds each once per prepared kernel: the
//! kernel's sampled runs share one pool item and one [`SampledKernel`],
//! whose first run that needs the plan builds it, whose first run under a
//! memory configuration builds that configuration's warm states, and which
//! is dropped when the item ends (`engine::planner`). A campaign stores
//! nothing but each run's outcome, so a sampled outcome is a pure function
//! of (program, memory, config).
//! [`run_sampled`] can also record each window's footprint and append
//! them, so one estimate serves the SSB geometries, Bloom filters and
//! deselection configs every window fits.
//! [`CheckpointStore`] and [`SampledPlan::to_bytes`] persist plans for
//! `perfbench/harness`'s plan store and lookup probes only; no campaign
//! calls them.

use crate::runner::{scale_tag, RunOutcome, RunRecord};
use lf_compiler::Cfg;
use lf_isa::checksum::fnv1a;
use lf_isa::{Checkpoint, CheckpointError, Emulator, FastTier, Memory, Program};
use lf_stats::simpoint::{pick_simpoints, weighted_cycles, BbvCollector, SimPoint};
use lf_stats::{fingerprint_hex, Fingerprint, Json};
use lf_uarch::MemConfig;
use lf_workloads::Scale;
use loopfrog::{Footprint, LoopFrogConfig, LoopFrogCore, WarmState};
use std::io;
use std::path::{Path, PathBuf};

/// Which execution path a run takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// SimPoint-sampled detailed simulation from warm checkpoints; the
    /// whole-run cycle count is reconstructed from weighted windows.
    Sampled,
    /// The legacy cycle-accurate path: every instruction through the
    /// detailed core.
    #[default]
    Detailed,
    /// The §6.1 methodology check ([`run_simpoint_check`]): golden-emulator
    /// BBVs and warm-started detailed intervals. Requested only by the
    /// `simpoint_check` scenario; not a campaign `--tier`.
    SimpointCheck,
}

impl Tier {
    /// The lowercase tag used in fingerprints, CLI flags, and artifacts.
    pub fn tag(self) -> &'static str {
        match self {
            Tier::Sampled => "sampled",
            Tier::Detailed => "detailed",
            Tier::SimpointCheck => "simpoint-check",
        }
    }

    /// Parses a campaign (`--tier`) name: `sampled` or `detailed`.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "sampled" => Some(Tier::Sampled),
            "detailed" => Some(Tier::Detailed),
            _ => None,
        }
    }
}

/// The run fingerprint under a tier. [`Tier::Detailed`] keeps the legacy
/// fingerprint bit-for-bit — existing caches stay valid — while the other
/// tiers mix in their tag so a sampled estimate can never be served where
/// a detailed result was requested (or vice versa).
pub fn run_fingerprint_tiered(
    program: &Program,
    mem: &Memory,
    cfg: &LoopFrogConfig,
    scale: Scale,
    tier: Tier,
) -> u64 {
    let (code, mem) = (program.code_fingerprint(), fnv1a(mem.as_bytes()));
    combine_run_fingerprint(code, mem, cfg.fingerprint(), scale, tier)
}

/// The run-fingerprint formula over precomputed hashes: `code` is the
/// program's [`Program::code_fingerprint`], `mem` the FNV-1a hash of the
/// initial memory image and `config` the [`LoopFrogConfig::fingerprint`].
/// [`run_fingerprint_tiered`] and a prepared kernel, which hashes its
/// program and memory once, both mix through here, so the two agree bit
/// for bit.
pub(crate) fn combine_run_fingerprint(
    code: u64,
    mem: u64,
    config: u64,
    scale: Scale,
    tier: Tier,
) -> u64 {
    let base = Fingerprint::new().u64(code).u64(mem).str(scale_tag(scale)).u64(config).finish();
    match tier {
        Tier::Detailed => base,
        Tier::Sampled | Tier::SimpointCheck => {
            Fingerprint::new().u64(base).str(tier.tag()).finish()
        }
    }
}

/// Target number of BBV intervals per run.
pub const TARGET_INTERVALS: u64 = 44;
/// Floor on the interval length in instructions (short kernels would
/// otherwise fragment into intervals dominated by warm-up transients).
pub const MIN_INTERVAL_INSTS: u64 = 2_000;
/// Maximum SimPoint clusters (and therefore detailed windows) per run.
/// With [`TARGET_INTERVALS`] intervals and a window costing
/// `(1 + 1/WARM_FRACTION)` intervals of detailed simulation, the
/// worst-case detailed fraction is `6 * 1.125 / 44 ≈ 15%` — a floor of
/// roughly 6.5x detailed-cycle reduction even when BIC picks every
/// cluster it is allowed. (The realized reduction is lower: windows
/// land disproportionately on slow phases, which cost more cycles per
/// instruction than the run average.)
pub const MAX_SIMPOINTS: usize = 6;
/// Detailed warm-up before each measured window, as a divisor of the
/// interval length (SMARTS-style: functional warming delivers the tables,
/// a short detailed burst settles the pipeline and queues). Windows at
/// interval 0 skip the warm-up entirely: a restore at instruction 0 with
/// empty hint streams *is* the pristine cold start, and measuring from
/// cycle 0 reproduces it exactly.
pub const WARM_FRACTION: u64 = 8;
/// Functional-warming lookahead: hint streams in a checkpoint are
/// captured this many instructions *past* the pick. The detailed core's
/// speculative threadlets run ahead of the architectural stream and
/// prefetch lines the architectural replay alone never sees, so a
/// checkpoint warmed strictly from the past leaves the L2 measurably
/// colder than the live core's (pointer-chasing kernels read ~25% slow).
/// Warming through a short future window models that run-ahead; the
/// architectural state still snapshots exactly at the pick. Too much
/// lookahead overcorrects the other way: lines the window itself would
/// miss on arrive pre-warmed and the window reads fast. Keep the
/// measured window at least ~3x this value.
pub const WARM_LOOKAHEAD_INSTS: u64 = 768;
/// Measured-window length as a divisor of the interval length. Kept at 1
/// (full-interval windows): shrinking the window below ~3x
/// [`WARM_LOOKAHEAD_INSTS`] lets the lookahead warming cover most of the
/// window's misses and the measured CPI reads optimistic.
pub const MEASURE_DIVISOR: u64 = 1;
/// Clustering seed (fixed: plans must be deterministic).
const SIMPOINT_SEED: u64 = 0xC0FFEE;
/// BBV intervals per run in [`run_simpoint_check`].
const CHECK_INTERVALS: u64 = 16;
/// Fuel cap for functional passes, matching the golden emulator's
/// reference-run cap: a kernel that does not halt within this many
/// instructions is a structured error, not a hung worker.
const FUNCTIONAL_FUEL: u64 = 200_000_000;

/// Plan-blob format magic.
const PLAN_MAGIC: &[u8; 8] = b"LFPLAN\0\0";
/// Plan-blob format version.
const PLAN_VERSION: u32 = 1;

/// The sampling plan for one `(program, memory)` identity: the interval
/// geometry, the functional ground truth, and one warm checkpoint per
/// selected SimPoint. Config-independent by construction: baseline and
/// LoopFrog runs of the same prepared kernel build identical plans.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledPlan {
    /// BBV interval length in instructions.
    pub interval_len: u64,
    /// Total dynamic instructions of the full run.
    pub total_insts: u64,
    /// Final architectural state checksum of the full run (functional
    /// tier; equals the golden emulator's by construction).
    pub final_checksum: u64,
    /// Selected SimPoints with the checkpoint at each one's starting
    /// instruction, sorted by interval index.
    pub picks: Vec<(SimPoint, Checkpoint)>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.at.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

impl SampledPlan {
    /// Serializes the plan to a self-validating byte stream (same
    /// `magic | version | payload checksum | payload` envelope as
    /// [`Checkpoint::to_bytes`]; checkpoints nest with their own envelope,
    /// so corruption is caught at whichever layer it lands in).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.interval_len);
        put_u64(&mut payload, self.total_insts);
        put_u64(&mut payload, self.final_checksum);
        put_u64(&mut payload, self.picks.len() as u64);
        for (sp, ckpt) in &self.picks {
            put_u64(&mut payload, sp.interval as u64);
            put_u64(&mut payload, sp.weight.to_bits());
            let bytes = ckpt.to_bytes();
            put_u64(&mut payload, bytes.len() as u64);
            payload.extend_from_slice(&bytes);
        }
        let mut out = Vec::with_capacity(payload.len() + 24);
        out.extend_from_slice(PLAN_MAGIC);
        put_u32(&mut out, PLAN_VERSION);
        put_u64(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Deserializes and validates a plan blob.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on truncation, a foreign magic, an
    /// unknown version, or a checksum mismatch (in the envelope or in any
    /// nested checkpoint).
    pub fn from_bytes(bytes: &[u8]) -> Result<SampledPlan, CheckpointError> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(8)? != PLAN_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != PLAN_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let checksum = r.u64()?;
        let payload = &bytes[r.at..];
        if fnv1a(payload) != checksum {
            return Err(CheckpointError::BadChecksum);
        }
        let interval_len = r.u64()?;
        let total_insts = r.u64()?;
        let final_checksum = r.u64()?;
        let n = r.u64()? as usize;
        let mut picks = Vec::with_capacity(n.min(MAX_SIMPOINTS * 4));
        for _ in 0..n {
            let interval = r.u64()? as usize;
            let weight = f64::from_bits(r.u64()?);
            let len = r.u64()? as usize;
            let ckpt = Checkpoint::from_bytes(r.take(len)?)?;
            picks.push((SimPoint { interval, weight }, ckpt));
        }
        Ok(SampledPlan { interval_len, total_insts, final_checksum, picks })
    }
}

/// Builds the sampling plan for one program + memory image: three
/// functional passes (count, BBV-collect, checkpoint at picks).
///
/// # Errors
///
/// Returns a message if the kernel faults or fails to halt within the
/// functional fuel cap.
pub fn build_plan(program: &Program, mem: &Memory) -> Result<SampledPlan, String> {
    // Pass 1: total instruction count and the final-state checksum.
    let mut fast = FastTier::new(program, mem.clone());
    fast.run_to_inst_count(FUNCTIONAL_FUEL).map_err(|e| format!("functional pass faulted: {e}"))?;
    if !fast.is_halted() {
        return Err(format!("kernel did not halt within {FUNCTIONAL_FUEL} instructions"));
    }
    let total_insts = fast.inst_count();
    let final_checksum = fast.state_checksum();
    let interval_len = (total_insts / TARGET_INTERVALS).max(MIN_INTERVAL_INSTS);

    // Pass 2: interval BBVs, collected inline by the fast tier. A trailing
    // partial interval shorter than half an interval is dropped before
    // clustering: it holds a negligible share of the run, but as its own
    // near-empty vector it reliably earns its own cluster, and a full
    // cluster weight on a handful of drain-dominated instructions skews
    // the whole-run estimate far out of proportion to its size.
    let mut fast = FastTier::new(program, mem.clone());
    while !fast.is_halted() {
        fast.run_interval(interval_len).map_err(|e| format!("BBV pass faulted: {e}"))?;
    }
    let mut vectors = fast.vectors();
    if let Some(last) = vectors.last() {
        let insts: u64 =
            last.iter().filter(|(&k, _)| k != lf_isa::BBV_NEW_LINES_KEY).map(|(_, &n)| n).sum();
        if vectors.len() > 1 && insts < interval_len / 2 {
            vectors = &vectors[..vectors.len() - 1];
        }
    }
    let picks = pick_simpoints(vectors, MAX_SIMPOINTS, SIMPOINT_SEED);

    // Pass 3: a warm checkpoint at each pick's starting instruction, all
    // taken by one forward replay: architectural state snapshots exactly
    // at the pick, then the replay continues [`WARM_LOOKAHEAD_INSTS`]
    // further so the hint streams also cover the detailed core's
    // speculative run-ahead, and goes on to the next pick. Picks are
    // sorted and an interval apart, and an interval (at least
    // [`MIN_INTERVAL_INSTS`]) is longer than the lookahead, so the replay
    // reaches each pick in the state a fresh replay from instruction 0
    // would: the fast tier's state and hint rings depend only on the
    // instructions run, not on where a run stopped. Interval 0 is exempt
    // from the lookahead — nothing ran ahead of a cold start, and its
    // pristine empty-hint checkpoint reproduces it exactly.
    const _: () = assert!(MIN_INTERVAL_INSTS > WARM_LOOKAHEAD_INSTS);
    let mut with_ckpts = Vec::with_capacity(picks.len());
    let mut fast = FastTier::new(program, mem.clone());
    for p in &picks {
        let start = p.interval as u64 * interval_len;
        debug_assert!(fast.inst_count() <= start, "picks are sorted and an interval apart");
        fast.run_to_inst_count(start).map_err(|e| format!("checkpoint pass faulted: {e}"))?;
        let mut ckpt = fast.checkpoint();
        if p.interval > 0 {
            fast.run_to_inst_count(start + WARM_LOOKAHEAD_INSTS)
                .map_err(|e| format!("lookahead pass faulted: {e}"))?;
            ckpt.hints = fast.checkpoint().hints;
        }
        with_ckpts.push((*p, ckpt));
    }
    Ok(SampledPlan { interval_len, total_insts, final_checksum, picks: with_ckpts })
}

/// The classified result of a checkpoint-store probe. Campaigns never
/// probe the store (see [`CheckpointStore`]).
#[derive(Debug)]
pub enum PlanLookup {
    /// The blob validated end to end and reconstructed.
    Hit(Box<SampledPlan>),
    /// No entry on disk.
    Miss,
    /// The entry exists but failed validation (truncated, bit-rotted, or
    /// foreign); moved to the quarantine directory when `quarantined`.
    Corrupt {
        /// Whether the bad blob was successfully moved aside.
        quarantined: bool,
    },
}

/// Content-addressed sampling plans on disk: `<dir>/<key>.ckpt`,
/// committed through the shared atomic-write path, with corrupt blobs
/// moved to `<dir>/quarantine/`. Unused by campaigns, which rebuild each
/// plan in memory (reading one back costs more than rebuilding it); only
/// `perfbench/harness`'s plan store and lookup probes call it.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (without creating) the store at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore { dir: dir.into() }
    }

    /// The plan key for a `(program, memory, scale)` identity. The
    /// simulator config is deliberately absent: plans describe functional
    /// execution, which every config shares.
    pub fn plan_key(program: &Program, mem: &Memory, scale: Scale) -> u64 {
        Fingerprint::new()
            .str("ckpt-plan")
            .u64(program.code_fingerprint())
            .u64(fnv1a(mem.as_bytes()))
            .str(scale_tag(scale))
            .finish()
    }

    /// The blob path for a plan key.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.ckpt", fingerprint_hex(key)))
    }

    /// Where corrupt blobs are moved on detection (shared with the run
    /// cache).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Probes the store, classifying the result. Corrupt blobs are
    /// quarantined as a side effect.
    pub fn lookup(&self, key: u64) -> PlanLookup {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return PlanLookup::Miss,
        };
        match SampledPlan::from_bytes(&bytes) {
            Ok(plan) => PlanLookup::Hit(Box::new(plan)),
            Err(_) => {
                let quarantined = self.quarantine(&path, key).is_ok();
                PlanLookup::Corrupt { quarantined }
            }
        }
    }

    /// Moves a corrupt blob into the quarantine directory.
    fn quarantine(&self, path: &Path, key: u64) -> io::Result<()> {
        let qdir = self.quarantine_dir();
        std::fs::create_dir_all(&qdir)?;
        std::fs::rename(path, qdir.join(format!("{}.ckpt", fingerprint_hex(key))))
    }

    /// Persists a plan, creating the store directory as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the store is best-effort: callers
    /// warn and continue un-memoized).
    pub fn store(&self, key: u64, plan: &SampledPlan) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        crate::durable::atomic_write_bytes(&self.entry_path(key), &plan.to_bytes())
    }
}

/// One measured SimPoint window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// The SimPoint this window represents.
    pub point: SimPoint,
    /// Cycles of the measured region (detailed warm-up excluded).
    pub cycles: u64,
    /// Instructions of the measured region.
    pub insts: u64,
    /// Total detailed cycles this window cost (warm-up included).
    pub detailed_cycles: u64,
}

/// The result of measuring a plan's windows under one config.
#[derive(Debug)]
pub struct SampledMeasurement {
    /// Weighted whole-run cycle estimate.
    pub est_cycles: f64,
    /// Total detailed cycles actually simulated (the cost the tier
    /// exists to reduce).
    pub detailed_cycles: u64,
    /// Per-window measurements.
    pub windows: Vec<Window>,
    /// The last window's full simulation result: the facts an estimate's
    /// [`RunRecord`] carries. Its final state is not hashed (its `checksum`
    /// is 0): the estimate carries the plan's functional checksum.
    pub carrier: loopfrog::SimResult,
    /// The windows' footprints, appended in window order: `None` unless
    /// recorded, or if any window's slices spilled. Each window restores a
    /// core with empty slices and conflict sets and a fresh deselection
    /// monitor, so a sibling config measures every window identically
    /// exactly when this footprint fits it.
    pub footprint: Option<Footprint>,
}

/// The warm state of each of `plan`'s picks under `mem`, in pick order.
pub fn warm_states(plan: &SampledPlan, mem: &MemConfig) -> Vec<WarmState> {
    plan.picks.iter().map(|(_, ckpt)| WarmState::new(ckpt, mem)).collect()
}

/// Restores a detailed core at each of the plan's checkpoints, runs the
/// bounded detailed warm-up, measures the representative interval, and
/// reconstructs the whole-run cycle count via [`weighted_cycles`].
///
/// # Errors
///
/// Returns a message if any window's simulation faults.
pub fn sample_windows(
    program: &Program,
    plan: &SampledPlan,
    cfg: &LoopFrogConfig,
) -> Result<SampledMeasurement, String> {
    measure_windows(program, plan, &warm_states(plan, &cfg.mem), cfg, &[])
}

/// [`sample_windows`] from `warm`, the picks' [`warm_states`] under
/// `cfg.mem`, with every window's footprint for `siblings` recorded into
/// [`SampledMeasurement::footprint`] unless there are none.
fn measure_windows(
    program: &Program,
    plan: &SampledPlan,
    warm: &[WarmState],
    cfg: &LoopFrogConfig,
    siblings: &[&LoopFrogConfig],
) -> Result<SampledMeasurement, String> {
    if plan.picks.is_empty() {
        return Err("sampling plan has no picks".to_string());
    }
    assert_eq!(warm.len(), plan.picks.len(), "one warm state per pick");
    let mut windows = Vec::with_capacity(plan.picks.len());
    let mut samples = Vec::with_capacity(plan.picks.len());
    let record = !siblings.is_empty();
    let (mut footprint, mut spilled) = (None::<Footprint>, false);
    let mut detailed_total = 0u64;
    let mut carrier = None;
    for ((sp, ckpt), state) in plan.picks.iter().zip(warm) {
        // Interval 0's restore is the pristine cold start itself; measuring
        // from cycle 0 reproduces the run's real cold-start cycles, which a
        // warm-up would wrongly discard.
        let warm_up = if sp.interval == 0 { 0 } else { plan.interval_len / WARM_FRACTION };
        let measure = plan.interval_len / MEASURE_DIVISOR;
        let mut core = LoopFrogCore::from_warm(program, ckpt, state, cfg.clone());
        if record {
            core.record_footprint(siblings);
        }
        core.run_until_committed(warm_up)
            .map_err(|e| format!("window {} warm-up failed: {e}", sp.interval))?;
        let (mut c0, mut i0) = (core.cycle(), core.committed_insts());
        let stop = core
            .run_until_committed(warm_up + measure)
            .map_err(|e| format!("window {} failed: {e}", sp.interval))?;
        let (c1, i1) = (core.cycle(), core.committed_insts());
        if i1 == i0 {
            // The program halted inside (or exactly at the end of) the
            // warm-up: fold the warm-up into the measurement rather than
            // dropping this pick's weight from the estimate.
            (c0, i0) = (0, 0);
        }
        detailed_total += c1;
        windows.push(Window { point: *sp, cycles: c1 - c0, insts: i1 - i0, detailed_cycles: c1 });
        samples.push((*sp, c1 - c0, i1 - i0));
        let mut result = core.into_result_without_checksum(stop);
        if record {
            match (result.footprint.take(), &mut footprint) {
                (None, _) => spilled = true,
                (Some(window), Some(run)) => run.append(window),
                (Some(window), None) => footprint = Some(window),
            }
        }
        carrier = Some(result);
    }
    Ok(SampledMeasurement {
        est_cycles: weighted_cycles(&samples, plan.total_insts),
        detailed_cycles: detailed_total,
        windows,
        carrier: carrier.expect("at least one window"),
        footprint: footprint.filter(|_| !spilled),
    })
}

fn tier_json(tier: Tier) -> Json {
    let mut t = Json::obj();
    t.set("tier", tier.tag());
    t
}

/// Runs the §6.1 methodology check on one kernel: basic-block vectors
/// from the golden emulator over 16 intervals, with an architectural
/// snapshot at every interval boundary; SimPoint picks; and per pick a
/// detailed core started from the snapshot three intervals earlier (the
/// paper warms up 50M instructions before each 250M-instruction SimPoint),
/// which measures the picked interval. The weighted estimate stands in for
/// the whole run.
///
/// The outcome carries the estimate in `tier.{total_insts, simpoints,
/// est_cycles}`, the last interval's simulation as its carrier, and the
/// emulator's final-state checksum.
///
/// # Errors
///
/// Returns a message if the kernel faults, fails to halt within the
/// functional fuel cap, or any warm-started interval fails to simulate.
pub fn run_simpoint_check(
    fingerprint: u64,
    program: &Program,
    mem: &Memory,
    cfg: &LoopFrogConfig,
) -> Result<RunOutcome, String> {
    // 1. BBV collection on the golden emulator, with interval-boundary
    //    state snapshots for warm starts.
    let total_insts = {
        let mut e = Emulator::new(program, mem.clone());
        e.run(FUNCTIONAL_FUEL).map_err(|err| format!("emulator pass faulted: {err}"))?;
        if !e.is_halted() {
            return Err(format!("kernel did not halt within {FUNCTIONAL_FUEL} instructions"));
        }
        e.inst_count()
    };
    let interval = (total_insts / CHECK_INTERVALS).max(1_500);
    let cfg_blocks = Cfg::build(program);
    let mut collector = BbvCollector::new(interval);
    let mut snapshots = Vec::new(); // (regs, mem, pc) at interval starts
    let mut e = Emulator::new(program, mem.clone());
    let mut since = 0u64;
    snapshots.push((*e.regs(), e.mem().clone(), e.pc()));
    while !e.is_halted() {
        let pc = e.step().map_err(|err| format!("BBV pass faulted: {err}"))?;
        collector.record(cfg_blocks.block_of(pc), 1);
        since += 1;
        if since == interval {
            since = 0;
            snapshots.push((*e.regs(), e.mem().clone(), e.pc()));
        }
    }
    collector.finish();

    // 2. Cluster and pick representatives.
    let picks = pick_simpoints(collector.vectors(), MAX_SIMPOINTS, SIMPOINT_SEED);

    // 3. Detailed simulation of each representative interval, with the
    //    preceding intervals as microarchitectural warm-up.
    let mut samples = Vec::new();
    let mut carrier = None;
    for p in &picks {
        let idx = p.interval.min(snapshots.len() - 1);
        let warm_idx = idx.saturating_sub(3);
        let warmup = (idx - warm_idx) as u64 * interval;
        let (regs, mem, pc) = &snapshots[warm_idx];
        let mut core =
            LoopFrogCore::with_initial_state(program, mem.clone(), regs, *pc, cfg.clone());
        core.run_until_committed(warmup)
            .map_err(|err| format!("interval {} warm-up failed: {err}", p.interval))?;
        let (c0, i0) = (core.cycle(), core.committed_insts());
        let stop = core
            .run_until_committed(warmup + interval)
            .map_err(|err| format!("interval {} failed: {err}", p.interval))?;
        let (c1, i1) = (core.cycle(), core.committed_insts());
        samples.push((*p, c1 - c0, (i1 - i0).max(1)));
        carrier = Some(core.into_result_without_checksum(stop));
    }
    let carrier = carrier.ok_or("SimPoint picked no interval")?;

    let mut t = tier_json(Tier::SimpointCheck);
    t.set("total_insts", total_insts);
    t.set("simpoints", picks.len());
    t.set("est_cycles", weighted_cycles(&samples, total_insts));
    let mut record = RunRecord::from_result(carrier, cfg);
    record.tier = Some(t);
    Ok(RunOutcome::new(fingerprint, e.state_checksum(), record))
}

/// Runs one kernel on the sampled tier: measures the windows of `plan`,
/// the kernel's sampling plan ([`build_plan`]), from `warm`, its picks'
/// [`warm_states`] under `cfg.mem`, and reconstructs the whole run. Unless
/// `siblings` is empty it also returns the windows' footprint for them
/// ([`SampledMeasurement::footprint`]).
///
/// The returned outcome's `stats.cycles` is the weighted estimate and
/// `committed_insts` the full-run count (derived from its tier record by
/// [`RunOutcome::new`]), so tables and speedup math read it like a
/// detailed run; its checksum is the functional final-state checksum, so
/// the engine's golden-state gate applies unchanged. Other scalar stats
/// are the carrier window's and are window-local.
///
/// # Errors
///
/// Returns a message if any window simulation faults.
pub fn run_sampled(
    fingerprint: u64,
    program: &Program,
    plan: &SampledPlan,
    warm: &[WarmState],
    cfg: &LoopFrogConfig,
    siblings: &[&LoopFrogConfig],
) -> Result<(RunOutcome, Option<Footprint>), String> {
    let m = measure_windows(program, plan, warm, cfg, siblings)?;
    let mut t = tier_json(Tier::Sampled);
    t.set("total_insts", plan.total_insts);
    t.set("interval_len", plan.interval_len);
    t.set("est_cycles", m.est_cycles);
    t.set("detailed_cycles", m.detailed_cycles);
    let mut wins = Vec::new();
    for w in &m.windows {
        let mut j = Json::obj();
        j.set("interval", w.point.interval as u64);
        j.set("weight", w.point.weight);
        j.set("cycles", w.cycles);
        j.set("insts", w.insts);
        j.set("detailed_cycles", w.detailed_cycles);
        wins.push(j);
    }
    t.set("windows", Json::Arr(wins));
    let mut record = RunRecord::from_result(m.carrier, cfg);
    record.tier = Some(t);
    Ok((RunOutcome::new(fingerprint, plan.final_checksum, record), m.footprint))
}

/// What sampled runs built and measured: sampling plans, warm states and
/// restored windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampledWork {
    /// Sampling plans built ([`build_plan`]).
    pub plans: usize,
    /// Warm states built, one per pick and memory configuration.
    pub warm_states: usize,
    /// Windows measured.
    pub windows: usize,
}

impl std::ops::AddAssign for SampledWork {
    fn add_assign(&mut self, other: SampledWork) {
        self.plans += other.plans;
        self.warm_states += other.warm_states;
        self.windows += other.windows;
    }
}

/// One prepared kernel's sampled-tier state, shared by its sampled runs:
/// the sampling plan, built by the first run that needs it, and the
/// picks' warm states per memory configuration, each built by the first
/// run under that configuration. Every run passes the same program and
/// memory image. Dropping it frees the plan and the warm states.
#[derive(Debug, Default)]
pub struct SampledKernel {
    plan: Option<SampledPlan>,
    warm: Vec<(MemConfig, Vec<WarmState>)>,
    work: SampledWork,
}

impl SampledKernel {
    /// Runs the kernel, `program` from `mem`, on the sampled tier under
    /// `cfg` ([`run_sampled`], with the windows' footprint for `siblings`),
    /// building the plan and the warm states under `cfg.mem` first if no
    /// earlier run did.
    ///
    /// # Errors
    ///
    /// Returns a message if the plan cannot be built or any window's
    /// simulation faults.
    pub fn run(
        &mut self,
        fingerprint: u64,
        program: &Program,
        mem: &Memory,
        cfg: &LoopFrogConfig,
        siblings: &[&LoopFrogConfig],
    ) -> Result<(RunOutcome, Option<Footprint>), String> {
        let plan = match &mut self.plan {
            Some(plan) => plan,
            slot => {
                let plan = build_plan(program, mem)?;
                self.work.plans += 1;
                slot.insert(plan)
            }
        };
        let warm = match self.warm.iter().position(|(m, _)| *m == cfg.mem) {
            Some(i) => &self.warm[i].1,
            None => {
                let states = warm_states(plan, &cfg.mem);
                self.work.warm_states += states.len();
                self.warm.push((cfg.mem.clone(), states));
                &self.warm[self.warm.len() - 1].1
            }
        };
        let result = run_sampled(fingerprint, program, plan, warm, cfg, siblings)?;
        self.work.windows += plan.picks.len();
        Ok(result)
    }

    /// The plans, warm states and windows this kernel's runs built and
    /// measured so far.
    pub fn work(&self) -> SampledWork {
        self.work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_fingerprint;

    fn kernel(name: &str) -> (Program, Memory) {
        let w = lf_workloads::by_name(name, Scale::Smoke).unwrap();
        (w.program.clone(), w.mem.clone())
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lf-bench-tiered-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn tier_tags_round_trip() {
        for t in [Tier::Sampled, Tier::Detailed] {
            assert_eq!(Tier::parse(t.tag()), Some(t));
        }
        assert_eq!(Tier::parse("atomic"), None);
        assert_eq!(Tier::parse("functional"), None);
        assert_eq!(Tier::parse(Tier::SimpointCheck.tag()), None, "not a campaign tier");
        assert_eq!(Tier::default(), Tier::Detailed);
    }

    #[test]
    fn detailed_fingerprint_is_the_legacy_fingerprint() {
        let (program, mem) = kernel("stencil_blur");
        let cfg = LoopFrogConfig::default();
        let legacy = run_fingerprint(&program, &mem, &cfg, Scale::Smoke);
        assert_eq!(
            run_fingerprint_tiered(&program, &mem, &cfg, Scale::Smoke, Tier::Detailed),
            legacy,
            "detailed tier must not invalidate existing caches"
        );
        let f = run_fingerprint_tiered(&program, &mem, &cfg, Scale::Smoke, Tier::SimpointCheck);
        let s = run_fingerprint_tiered(&program, &mem, &cfg, Scale::Smoke, Tier::Sampled);
        assert_ne!(f, legacy);
        assert_ne!(s, legacy);
        assert_ne!(f, s);
    }

    #[test]
    fn plan_round_trips_through_bytes() {
        let (program, mem) = kernel("hash_lookup");
        let plan = build_plan(&program, &mem).unwrap();
        assert!(!plan.picks.is_empty());
        assert!(plan.total_insts > 0);
        let back = SampledPlan::from_bytes(&plan.to_bytes()).unwrap();
        assert_eq!(plan, back);
        assert_eq!(plan.to_bytes(), back.to_bytes());
    }

    /// The plan's one forward replay takes each pick's checkpoint exactly
    /// as a fresh replay from instruction 0 per pick does.
    #[test]
    fn one_replay_checkpoints_every_pick_like_fresh_replays() {
        for name in ["hash_lookup", "stencil_blur"] {
            let (program, mem) = kernel(name);
            let plan = build_plan(&program, &mem).unwrap();
            let later = plan.picks.iter().filter(|(p, _)| p.interval > 0).count();
            assert!(later >= 2, "{name}: the replay must go on past a lookahead");
            for (p, ckpt) in &plan.picks {
                let start = p.interval as u64 * plan.interval_len;
                let mut fast = FastTier::new(&program, mem.clone());
                fast.run_to_inst_count(start).unwrap();
                let mut fresh = fast.checkpoint();
                if p.interval > 0 {
                    fast.run_to_inst_count(start + WARM_LOOKAHEAD_INSTS).unwrap();
                    fresh.hints = fast.checkpoint().hints;
                }
                assert_eq!(*ckpt, fresh, "{name}: the checkpoint at interval {}", p.interval);
            }
        }
    }

    #[test]
    fn corrupt_plan_blobs_are_rejected() {
        let (program, mem) = kernel("hash_lookup");
        let plan = build_plan(&program, &mem).unwrap();
        let bytes = plan.to_bytes();
        assert!(matches!(
            SampledPlan::from_bytes(&bytes[..bytes.len() - 3]),
            Err(CheckpointError::Truncated | CheckpointError::BadChecksum)
        ));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(SampledPlan::from_bytes(&flipped), Err(CheckpointError::BadChecksum)));
        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert!(matches!(SampledPlan::from_bytes(&magic), Err(CheckpointError::BadMagic)));
        let mut version = bytes.clone();
        version[8] = 0xEE;
        assert!(matches!(SampledPlan::from_bytes(&version), Err(CheckpointError::BadVersion(_))));
    }

    #[test]
    fn store_round_trips_and_quarantines() {
        let dir = scratch_dir("store");
        let store = CheckpointStore::new(dir.clone());
        let (program, mem) = kernel("event_queue");
        let key = CheckpointStore::plan_key(&program, &mem, Scale::Smoke);
        assert!(matches!(store.lookup(key), PlanLookup::Miss));
        let plan = build_plan(&program, &mem).unwrap();
        store.store(key, &plan).unwrap();
        match store.lookup(key) {
            PlanLookup::Hit(back) => assert_eq!(*back, plan),
            other => panic!("expected a hit, got {other:?}"),
        }
        // Corruption: truncate the blob in place.
        let blob = std::fs::read(store.entry_path(key)).unwrap();
        std::fs::write(store.entry_path(key), &blob[..blob.len() / 2]).unwrap();
        assert!(matches!(store.lookup(key), PlanLookup::Corrupt { quarantined: true }));
        assert!(!store.entry_path(key).exists(), "the bad blob is moved aside");
        assert!(
            store.quarantine_dir().join(format!("{}.ckpt", fingerprint_hex(key))).exists(),
            "the bad blob is preserved under quarantine/"
        );
        // The slot is a plain miss again and can be refilled.
        assert!(matches!(store.lookup(key), PlanLookup::Miss));
        store.store(key, &plan).unwrap();
        assert!(matches!(store.lookup(key), PlanLookup::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampled_run_estimates_within_smoke_tolerance() {
        let w = lf_workloads::by_name("stencil_blur", Scale::Smoke).unwrap();
        let cfg = LoopFrogConfig::default();
        let (out, _) = SampledKernel::default().run(9, &w.program, &w.mem, &cfg, &[]).unwrap();
        let mut core = LoopFrogCore::new(&w.program, w.mem.clone(), cfg.clone());
        let full = core.run().unwrap();
        assert_eq!(out.checksum, full.checksum, "golden-state gate applies to sampled runs");
        assert_eq!(out.stats.committed_insts, full.stats.committed_insts);
        let err =
            (out.stats.cycles as f64 - full.stats.cycles as f64).abs() / full.stats.cycles as f64;
        // Smoke kernels are short, so windows are a large fraction of the
        // run; the eval-scale bound (3%) is asserted in tests/tiered.rs.
        assert!(err < 0.15, "smoke-scale estimate off by {:.1}%", err * 100.0);
        let detailed = out.tier_field("detailed_cycles").and_then(Json::as_u64).unwrap();
        assert!(detailed < full.stats.cycles, "sampling must simulate fewer detailed cycles");
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let w = lf_workloads::by_name("event_queue", Scale::Smoke).unwrap();
        let cfg = LoopFrogConfig::default();
        let run = || {
            let (out, _) = SampledKernel::default().run(3, &w.program, &w.mem, &cfg, &[]).unwrap();
            (out.stats, out.checksum, out.record)
        };
        assert_eq!(run(), run());
    }
}
