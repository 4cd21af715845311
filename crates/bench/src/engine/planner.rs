//! The run planner: request collection, content-addressed deduplication,
//! and parallel execution of the unique run set.
//!
//! Scenarios *declare* the simulations they need as [`RunRequest`]s, on
//! the campaign's tier unless a request names its own; the planner
//! resolves each request to a run fingerprint
//! ([`crate::tiered::run_fingerprint_tiered`]: annotated program ×
//! canonical config × scale × tier), collapses duplicates — fig6, fig7,
//! fig8, table2, and friends all want the identical default-config suite
//! — and executes only the unique set on a scoped worker pool, memoizing
//! every outcome for the render phase and (optionally) committing it to
//! the on-disk cache as each run finishes.
//!
//! A run's identity factors into (prepared program × memory image × scale)
//! × config, and a campaign declares thousands of runs over a few dozen
//! prepared kernels. A [`PreparedKernel`] therefore hashes its program and
//! memory image once; resolving a request only mixes those two hashes
//! with the config fingerprint, scale tag, and tier.
//!
//! Runs that differ only in the SSB's size, associativity and victim
//! buffer, its conflict sets' Bloom filters and dynamic deselection form a
//! *decision family*, and execution is one pass over pool items of
//! families (`items`). A family simulates one member, exact-set and
//! deselection-off if it has one, with its footprint recorded (a sampled
//! run's is its windows' footprints appended), commits that outcome under
//! the fingerprint of every sibling the footprint fits
//! ([`loopfrog::Footprint::fits`]), which would have run identically, then
//! simulates the other siblings (DESIGN.md §8.4).
//!
//! With a run cache, a pair's identity comes from its preparation record
//! when this build wrote one ([`crate::engine::cache`]), and the kernel is
//! profiled and annotated only when one of its runs simulates
//! ([`PreparedKernel::program`]).
//!
//! The sampled families of one prepared kernel share one pool item and one
//! [`SampledKernel`]: the item builds the kernel's sampling plan once,
//! inside the first run that needs it, and each pick's warm state once per
//! memory configuration, and drops them when the item ends, so at most
//! `-j` plans are live (DESIGN.md §13.2).

use crate::engine::cache::{DiskCache, RecordLookup};
use crate::engine::fault::{
    hang_program, render_flight_recorder, FaultPlan, FaultStats, RunBudget, RunError,
    FLIGHT_RECORDER_KEEP,
};
use crate::engine::pool::{try_parallel_map, WorkerPanic};
use crate::engine::spans::SpanLog;
use crate::engine::EngineOptions;
use crate::runner::{RunConfig, RunOutcome};
use crate::tiered::{
    combine_run_fingerprint, run_simpoint_check, SampledKernel, SampledWork, Tier,
};
use lf_compiler::{annotate, SelectOptions};
use lf_isa::checksum::fnv1a;
use lf_isa::{Memory, Program};
use lf_workloads::Workload;
use loopfrog::{DeselectConfig, FlightRecorder, Footprint, LoopFrogConfig, LoopFrogCore, SimStop};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// How a requested run's program is derived from the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hinting {
    /// The raw, hint-free kernel program (e.g. the Figure 1 width sweep,
    /// which characterizes the baseline core itself).
    Raw,
    /// The compiler pass annotates the program from the golden emulator's
    /// profile, with its default loop selection ([`SelectOptions::default`],
    /// paper §5.1).
    Annotated,
}

impl Hinting {
    /// [`Hinting::Annotated`]: what every headline experiment uses.
    pub fn default_annotated() -> Hinting {
        Hinting::Annotated
    }

    /// The lowercase tag naming the hinting in preparation records.
    pub fn tag(self) -> &'static str {
        match self {
            Hinting::Raw => "raw",
            Hinting::Annotated => "annotated",
        }
    }
}

/// One declared simulation: which kernel, how its program is prepared,
/// the full simulator configuration, and optionally the tier it runs on.
/// The workload scale is engine state, not request state — a planner
/// instance plans one scale.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Kernel name (must be part of the engine's (possibly filtered)
    /// suite).
    pub kernel: &'static str,
    /// Program preparation.
    pub hinting: Hinting,
    /// Simulator configuration.
    pub config: LoopFrogConfig,
    /// Execution tier; `None` runs on the campaign's `--tier`.
    pub tier: Option<Tier>,
    /// `config.fingerprint()`, hashed once when the request was declared.
    config_fingerprint: u64,
}

/// What preparing a kernel establishes, and all its runs' identities need
/// of it: the four values a preparation record stores (`engine::cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepIdentity {
    /// `program.code_fingerprint()` of the program that will be simulated.
    pub code_fingerprint: u64,
    /// FNV-1a of the workload's memory image.
    pub mem_fingerprint: u64,
    /// Golden-emulator final-state checksum; `None` for [`Hinting::Raw`]
    /// preparations, which skip the profiling run.
    pub golden: Option<u64>,
    /// Loops the compiler pass placed hints for (0 for raw).
    pub selected_loops: usize,
}

/// A workload prepared for simulation: profiled, (optionally) annotated,
/// and content-fingerprinted. Prepared once per `(kernel, hinting)` pair
/// and shared by every request against it; the standalone runner,
/// `lf-bench perf` and `lf-bench trace` prepare their kernels here too.
///
/// A campaign with a run cache reads a pair's [`PrepIdentity`] from its
/// preparation record when the record was written by this build, and then
/// profiles and annotates the kernel only if one of its runs simulates:
/// [`PreparedKernel::program`] is the one way to reach the program, and
/// it prepares on first use. Its run fingerprints come from the identity,
/// so `program` and `workload.mem` must not change afterwards; the engine
/// only ever holds it behind an [`Arc`].
#[derive(Debug)]
pub struct PreparedKernel {
    /// The source workload (name, metadata, memory image), shared with the
    /// campaign's suite.
    pub workload: Arc<Workload>,
    /// How the program is derived from the workload.
    pub(crate) hinting: Hinting,
    /// The preparation's identity: hashed by a full preparation, or read
    /// from a record.
    pub identity: PrepIdentity,
    /// Whether `identity` was read from a preparation record.
    from_record: bool,
    /// The program that will be simulated (annotated or raw), or why it
    /// cannot be: set by a full preparation, or by the first
    /// [`PreparedKernel::program`] call of a kernel read from a record.
    program: OnceLock<Result<Program, String>>,
}

/// Profiles and annotates `w` according to `hinting`: the program to
/// simulate and its identity. The only code in `lf-bench` that runs the
/// annotation pass.
fn prepare_program(w: &Workload, hinting: Hinting) -> (Program, PrepIdentity) {
    let (program, golden, selected_loops) = match hinting {
        Hinting::Raw => (w.program.clone(), None, 0),
        Hinting::Annotated => {
            let emu = w.reference_emulator().expect("kernel runs on the golden emulator");
            assert!(emu.is_halted(), "{} did not halt", w.name);
            let ann = annotate(&w.program, emu.profile(), &SelectOptions::default());
            let selected_loops = ann.reports.iter().filter(|r| r.placement.is_some()).count();
            (ann.program, Some(emu.state_checksum()), selected_loops)
        }
    };
    let identity = PrepIdentity {
        code_fingerprint: program.code_fingerprint(),
        mem_fingerprint: fnv1a(w.mem.as_bytes()),
        golden,
        selected_loops,
    };
    (program, identity)
}

impl PreparedKernel {
    /// Profiles and annotates `w` according to `hinting`, and hashes the
    /// resulting program and the memory image for its run fingerprints.
    pub fn prepare(w: Workload, hinting: &Hinting) -> PreparedKernel {
        PreparedKernel::prepare_shared(Arc::new(w), *hinting)
    }

    /// [`PreparedKernel::prepare`] of a workload the caller shares.
    pub(crate) fn prepare_shared(w: Arc<Workload>, hinting: Hinting) -> PreparedKernel {
        let (program, identity) = prepare_program(&w, hinting);
        PreparedKernel {
            workload: w,
            hinting,
            identity,
            from_record: false,
            program: OnceLock::from(Ok(program)),
        }
    }

    /// The kernel whose preparation record holds `identity`; nothing is
    /// profiled, annotated or hashed until [`PreparedKernel::program`] is
    /// first called.
    pub(crate) fn from_record(
        w: Arc<Workload>,
        hinting: Hinting,
        identity: PrepIdentity,
    ) -> PreparedKernel {
        PreparedKernel {
            workload: w,
            hinting,
            identity,
            from_record: true,
            program: OnceLock::new(),
        }
    }

    /// The program to simulate. A kernel read from a record is prepared in
    /// full on the first call (once, whatever the thread); if that
    /// preparation disagrees with the record, this and every later call
    /// fail with a message naming the record.
    ///
    /// # Errors
    ///
    /// The disagreement between the record and the full preparation.
    pub fn program(&self) -> Result<&Program, &str> {
        let built = self.program.get_or_init(|| {
            let (program, prepared) = prepare_program(&self.workload, self.hinting);
            match self.disagreement(&prepared) {
                None => Ok(program),
                Some(message) => Err(message),
            }
        });
        built.as_ref().map_err(String::as_str)
    }

    /// How the identity of this kernel's record differs from `prepared`,
    /// the identity of a full preparation, naming the record; `None` if
    /// they agree.
    pub(crate) fn disagreement(&self, prepared: &PrepIdentity) -> Option<String> {
        let (recorded, name) = (&self.identity, self.workload.name);
        (recorded != prepared).then(|| {
            format!(
                "preparation record {} disagrees with preparing {name} in full: \
                 it records {recorded:?}, the preparation gives {prepared:?}",
                crate::engine::cache::record_name(name, self.workload.scale, self.hinting),
            )
        })
    }

    /// Whether this kernel's identity was read from a record and a
    /// simulation then prepared it in full.
    pub(crate) fn prepared_lazily(&self) -> bool {
        self.from_record && self.program.get().is_some()
    }

    /// Whether this kernel's identity was read from a record that a full
    /// preparation then contradicted.
    pub(crate) fn record_contradicted(&self) -> bool {
        self.from_record && matches!(self.program.get(), Some(Err(_)))
    }

    /// The run fingerprint of simulating this prepared kernel under `cfg`
    /// on the detailed tier (equal to [`crate::runner::run_fingerprint`]).
    pub fn request_fingerprint(&self, cfg: &LoopFrogConfig) -> u64 {
        self.request_fingerprint_tiered(cfg, Tier::Detailed)
    }

    /// The run fingerprint of simulating this prepared kernel under `cfg`
    /// on `tier` (equal to [`crate::tiered::run_fingerprint_tiered`]).
    pub fn request_fingerprint_tiered(&self, cfg: &LoopFrogConfig, tier: Tier) -> u64 {
        self.fingerprint_with(cfg.fingerprint(), tier)
    }

    /// [`PreparedKernel::request_fingerprint_tiered`] under the config whose
    /// [`LoopFrogConfig::fingerprint`] is `config`: callers that resolve
    /// one config against many kernels hash it once.
    pub(crate) fn fingerprint_with(&self, config: u64, tier: Tier) -> u64 {
        let (code, mem) = (self.identity.code_fingerprint, self.identity.mem_fingerprint);
        combine_run_fingerprint(code, mem, config, self.workload.scale, tier)
    }

    /// The decision family of simulating this prepared kernel under `cfg`
    /// on `tier`: the run fingerprint with the SSB's size, associativity,
    /// victim buffer and Bloom filters and the whole deselection config set
    /// to fixed values.
    fn decision_family(&self, cfg: &LoopFrogConfig, tier: Tier) -> u64 {
        let mut shape = cfg.clone();
        shape.ssb.size_bytes = 0;
        shape.ssb.assoc = None;
        shape.ssb.victim_entries = 0;
        shape.ssb.bloom = None;
        shape.deselect = DeselectConfig::default();
        self.request_fingerprint_tiered(&shape, tier)
    }
}

/// Collects scenario run declarations during the planning phase.
pub struct Planner<'e> {
    suite: &'e [Arc<Workload>],
    requests: Vec<RunRequest>,
}

impl<'e> Planner<'e> {
    pub(crate) fn new(suite: &'e [Arc<Workload>]) -> Planner<'e> {
        Planner { suite, requests: Vec::new() }
    }

    /// The engine's (possibly `--filter`ed) kernel suite, in canonical
    /// order. Scenarios must only request kernels listed here.
    pub fn kernels(&self) -> &'e [Arc<Workload>] {
        self.suite
    }

    /// Declares one simulation on the campaign's tier.
    pub fn request(&mut self, kernel: &'static str, hinting: Hinting, config: &LoopFrogConfig) {
        self.declare(kernel, hinting, config, config.fingerprint(), None);
    }

    /// Declares one simulation on `tier`, whatever the campaign's `--tier`.
    pub fn request_tiered(
        &mut self,
        kernel: &'static str,
        hinting: Hinting,
        config: &LoopFrogConfig,
        tier: Tier,
    ) {
        self.declare(kernel, hinting, config, config.fingerprint(), Some(tier));
    }

    /// Declares the standard experiment shape: baseline + LoopFrog
    /// simulations of every annotated suite kernel under `rc` — the
    /// request-level equivalent of [`crate::run_suite`]. Each of the two
    /// configs is hashed once for the whole suite.
    pub fn request_suite(&mut self, rc: &RunConfig) {
        let base = LoopFrogConfig::baseline();
        let (base_fp, lf_fp) = (base.fingerprint(), rc.lf.fingerprint());
        for w in self.suite {
            self.declare(w.name, Hinting::Annotated, &base, base_fp, None);
            self.declare(w.name, Hinting::Annotated, &rc.lf, lf_fp, None);
        }
    }

    fn declare(
        &mut self,
        kernel: &'static str,
        hinting: Hinting,
        config: &LoopFrogConfig,
        config_fingerprint: u64,
        tier: Option<Tier>,
    ) {
        debug_assert!(
            self.suite.iter().any(|w| w.name == kernel),
            "request for kernel {kernel:?} outside the planned suite"
        );
        let config = config.clone();
        self.requests.push(RunRequest { kernel, hinting, config, tier, config_fingerprint });
    }

    /// Number of requests declared so far (engine telemetry).
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    pub(crate) fn into_requests(self) -> Vec<RunRequest> {
        self.requests
    }
}

/// Key of the prepared-kernel map: the kernel and how it is hinted.
pub(crate) type PrepKey = (&'static str, Hinting);

/// The result of the preparation phase.
#[derive(Default)]
pub(crate) struct Preparations {
    /// The prepared kernels.
    pub kernels: HashMap<PrepKey, Arc<PreparedKernel>>,
    /// The pairs whose preparation failed: it panicked, or, in a verify
    /// build, it contradicted the pair's record.
    pub failures: Vec<(PrepKey, RunError)>,
    /// Pairs whose identity was read from a preparation record.
    pub from_records: usize,
    /// Pairs prepared in full because the run cache held no record of
    /// theirs from this build; the campaign writes their records.
    pub unrecorded: Vec<Arc<PreparedKernel>>,
    /// Records written under another build identity (prepared in full and
    /// overwritten).
    pub stale_records: usize,
    /// Records that did not decode, named another key, or contradicted a
    /// full preparation; each was quarantined.
    pub corrupt_records: usize,
}

/// How one pair was prepared.
enum Prepared {
    /// From its record (and, in a verify build, checked against a full
    /// preparation).
    Recorded(PreparedKernel),
    /// In full, with what the run cache held instead of a usable record
    /// (`None` without a cache).
    Full(PreparedKernel, Option<RecordLookup>),
    /// A verify build's full preparation contradicted the record, which is
    /// quarantined: the message names it.
    Contradicted(String),
}

/// Prepares every distinct `(kernel, hinting)` pair referenced by
/// `requests`, in parallel, sharing the suite's workloads. A pair whose
/// record in `cache` this build wrote is read, not prepared; any other is
/// profiled (the golden emulator, the second-most expensive step after
/// simulation itself) and annotated. Verify builds also prepare each
/// recorded pair in full and fail it, quarantining the record, unless the
/// two agree. A panicking preparation (a kernel the emulator rejects)
/// costs only that pair: every dependent request becomes a structured
/// failure while the rest of the campaign proceeds.
pub(crate) fn prepare_kernels(
    suite: &[Arc<Workload>],
    requests: &[RunRequest],
    jobs: usize,
    cache: Option<&DiskCache>,
) -> Preparations {
    let mut distinct: Vec<PrepKey> = Vec::new();
    for r in requests {
        let key = (r.kernel, r.hinting);
        if !distinct.contains(&key) {
            distinct.push(key);
        }
    }
    let prepared = try_parallel_map(jobs, &distinct, |&(name, hinting)| {
        let w = suite
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("kernel {name} not in suite"));
        let full = || PreparedKernel::prepare_shared(w.clone(), hinting);
        let Some(cache) = cache else { return Prepared::Full(full(), None) };
        let identity = match cache.read_record(name, w.scale, hinting) {
            RecordLookup::Hit(identity) => identity,
            lookup => return Prepared::Full(full(), Some(lookup)),
        };
        let kernel = PreparedKernel::from_record(w.clone(), hinting, identity);
        if loopfrog::VERIFY {
            if let Some(message) = kernel.disagreement(&prepare_program(w, hinting).1) {
                let _ = cache.quarantine_record(name, w.scale, hinting);
                return Prepared::Contradicted(message);
            }
        }
        Prepared::Recorded(kernel)
    });
    let mut out = Preparations::default();
    for (key, result) in distinct.into_iter().zip(prepared) {
        match result {
            Ok(Prepared::Recorded(kernel)) => {
                out.from_records += 1;
                out.kernels.insert(key, Arc::new(kernel));
            }
            Ok(Prepared::Full(kernel, lookup)) => {
                let kernel = Arc::new(kernel);
                match lookup {
                    Some(RecordLookup::Stale) => out.stale_records += 1,
                    Some(RecordLookup::Corrupt) => out.corrupt_records += 1,
                    _ => {}
                }
                if lookup.is_some() {
                    out.unrecorded.push(kernel.clone());
                }
                out.kernels.insert(key, kernel);
            }
            Ok(Prepared::Contradicted(message)) => {
                out.corrupt_records += 1;
                out.failures.push((key, RunError::Sim { message }));
            }
            Err(panic) => out.failures.push((key, RunError::Panicked { payload: panic.payload })),
        }
    }
    out
}

/// One entry of the deduplicated execution plan.
#[derive(Clone)]
pub(crate) struct UniqueRun {
    pub fingerprint: u64,
    pub kernel: &'static str,
    pub prepared: Arc<PreparedKernel>,
    pub config: LoopFrogConfig,
    pub tier: Tier,
}

/// Collapses `requests` to unique fingerprints in first-seen order, each
/// on its own tier or else `campaign_tier`. Requests against a kernel
/// whose preparation failed have no fingerprint and are skipped here; the
/// engine reports them from the preparation failure list instead.
pub(crate) fn dedupe(
    requests: &[RunRequest],
    prepared: &HashMap<PrepKey, Arc<PreparedKernel>>,
    campaign_tier: Tier,
) -> Vec<UniqueRun> {
    let mut seen: HashMap<u64, ()> = HashMap::new();
    let mut unique = Vec::new();
    for r in requests {
        let Some(prep) = prepared.get(&(r.kernel, r.hinting)) else {
            continue;
        };
        let tier = r.tier.unwrap_or(campaign_tier);
        let fp = prep.fingerprint_with(r.config_fingerprint, tier);
        if seen.insert(fp, ()).is_none() {
            unique.push(UniqueRun {
                fingerprint: fp,
                kernel: r.kernel,
                prepared: prep.clone(),
                config: r.config.clone(),
                tier,
            });
        }
    }
    unique
}

/// A decision family: the index of its representative and the indices of
/// its siblings, into the executed runs.
type Family = (usize, Vec<usize>);

/// Splits `runs` into pool items, each a list of decision families.
///
/// A family is the runs with one [`PreparedKernel::decision_family`] key,
/// a pure function of each run, so the same runs always form the same
/// families. Its representative is a member that decides nothing its
/// siblings' filters or deselection could decide otherwise, exact sets and
/// deselection off, if there is one; then the member with the most lines
/// per slice, then fully associative, then the most victim entries, the
/// first seen on a tie — the geometry least likely to spill. The sampled
/// families of one prepared kernel share one item, so the item builds the
/// kernel's sampling plan once. Every other family is an item of its own:
/// a kernel's detailed runs vary too much in cost to balance the pool as
/// one item. Families are ordered by representative, items by their first
/// family.
fn items(runs: &[&UniqueRun]) -> Vec<Vec<Family>> {
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<u64, usize> = HashMap::new();
    for (i, run) in runs.iter().enumerate() {
        let family = *by_key
            .entry(run.prepared.decision_family(&run.config, run.tier))
            .or_insert(members.len());
        if family == members.len() {
            members.push(Vec::new());
        }
        members[family].push(i);
    }
    let rank = |i: usize| {
        let cfg = &runs[i].config;
        let ssb = &cfg.ssb;
        let decides_nothing = ssb.bloom.is_none() && !cfg.deselect.enabled;
        let capacity = ssb.lines_per_slice(cfg.core.threadlets);
        (decides_nothing, capacity, ssb.assoc.is_none(), ssb.victim_entries)
    };
    let mut families: Vec<Family> = members
        .into_iter()
        .map(|mut family| {
            let rep = (1..family.len()).fold(0, |best, j| {
                if rank(family[j]) > rank(family[best]) {
                    j
                } else {
                    best
                }
            });
            (family.remove(rep), family)
        })
        .collect();
    families.sort_by_key(|(rep, _)| *rep);

    let mut items: Vec<Vec<Family>> = Vec::new();
    // Keyed by the address of the kernel's one shared preparation.
    let mut by_kernel: HashMap<u64, usize> = HashMap::new();
    for family in families {
        let run = runs[family.0];
        let item = match run.tier {
            Tier::Sampled => {
                *by_kernel.entry(Arc::as_ptr(&run.prepared) as u64).or_insert(items.len())
            }
            Tier::Detailed | Tier::SimpointCheck => items.len(),
        };
        if item == items.len() {
            items.push(Vec::new());
        }
        items[item].push(family);
    }
    items
}

/// Simulates one run on its tier under the campaign budget and fault plan,
/// with its footprint for `siblings` recorded unless there are none. A
/// sampled run measures its windows through `sampled`, its prepared
/// kernel's shared plan and warm states, building what is missing first.
fn execute_one(
    run: &UniqueRun,
    budget: &RunBudget,
    faults: &FaultPlan,
    siblings: &[&LoopFrogConfig],
    sampled: &mut SampledKernel,
) -> Result<(RunOutcome, Option<Footprint>), RunError> {
    if faults.should_crash(run.fingerprint) {
        // `abort()` raises SIGABRT with no unwinding and no destructors —
        // for everything on disk it is indistinguishable from `kill -9`,
        // which is exactly what the crash-recovery harness wants to model
        // deterministically from inside the process.
        crate::engine::supervise::eprint_line(format_args!(
            "injected fault: crash (run {}) — aborting the campaign process",
            lf_stats::fingerprint_hex(run.fingerprint)
        ));
        std::process::abort();
    }
    if faults.should_panic(run.fingerprint) {
        panic!("injected fault: panic (run {})", lf_stats::fingerprint_hex(run.fingerprint));
    }
    // An injected hang runs a deliberately non-terminating kernel on the
    // detailed core, whatever the run's tier, so the budget stops it and
    // the watchdog path is exercised end to end. It records no footprint.
    if faults.should_hang(run.fingerprint) {
        return simulate_detailed(run, &hang_program(), &Memory::new(64), budget, &[]);
    }

    // The sampled tiers run outside the cycle-budget watchdog: they exist
    // precisely to keep the detailed-cycle count small, and their
    // functional passes are bounded by an instruction fuel cap instead.
    let program =
        run.prepared.program().map_err(|message| RunError::Sim { message: message.to_string() })?;
    let mem = &run.prepared.workload.mem;
    let sim = |message| RunError::Sim { message };
    match run.tier {
        Tier::Detailed => simulate_detailed(run, program, mem, budget, siblings),
        Tier::Sampled => {
            sampled.run(run.fingerprint, program, mem, &run.config, siblings).map_err(sim)
        }
        Tier::SimpointCheck => {
            let outcome =
                run_simpoint_check(run.fingerprint, program, mem, &run.config).map_err(sim)?;
            Ok((outcome, None))
        }
    }
}

/// Simulates `program` from `mem` on the detailed core under `run`'s
/// config, clamped by `budget`, with its footprint for `siblings` recorded
/// unless there are none. A run the budget stops fails with the
/// flight-recorder window of a replay.
fn simulate_detailed(
    run: &UniqueRun,
    program: &Program,
    mem: &Memory,
    budget: &RunBudget,
    siblings: &[&LoopFrogConfig],
) -> Result<(RunOutcome, Option<Footprint>), RunError> {
    // The budget clamps a *clone* of the config: the fingerprint (and the
    // cache key) stay functions of the requested configuration, and the
    // clamp only ever binds below the config's own `max_cycles`.
    let mut cfg = run.config.clone();
    let budget_cycles = budget.max_cycles.filter(|&b| b < cfg.max_cycles);
    if let Some(b) = budget_cycles {
        cfg.max_cycles = b;
    }
    let mut core = LoopFrogCore::new(program, mem.clone(), cfg);
    if let Some(d) = budget.deadline {
        core.set_deadline(std::time::Instant::now() + d);
    }
    if !siblings.is_empty() {
        core.record_footprint(siblings);
    }

    let mut result = core.run().map_err(|e| RunError::Sim { message: e.to_string() })?;
    let budget_hit = match result.stop {
        SimStop::Deadline => true,
        // `MaxCycles` is a legitimate outcome when the *config* bounds the
        // run; it is a budget failure only when the harness cap was the
        // binding constraint.
        SimStop::MaxCycles => {
            matches!(budget_cycles, Some(b) if result.stats.cycles >= b)
        }
        _ => false,
    };
    if budget_hit {
        // Runs are simulated unobserved, so a budget failure is explained
        // by replaying it to the cycle it stopped at with a flight recorder
        // attached: the simulation is deterministic and observers never
        // perturb it, so this is the window the failed run would have
        // recorded.
        let mut cfg = run.config.clone();
        cfg.max_cycles = result.stats.cycles;
        let recorder = Rc::new(RefCell::new(FlightRecorder::new(FLIGHT_RECORDER_KEEP)));
        let mut replay = LoopFrogCore::new(program, mem.clone(), cfg);
        replay.set_tracer(Box::new(Rc::clone(&recorder)));
        replay.run().expect("a replay reaches the cycle its run stopped at");
        let window = recorder.borrow().window();
        return Err(RunError::BudgetExceeded {
            cycles: result.stats.cycles,
            budget_cycles,
            wall_clock: result.stop == SimStop::Deadline,
            flight_recorder: render_flight_recorder(&window),
        });
    }
    let footprint = result.footprint.take();
    Ok((RunOutcome::from_result(run.fingerprint, result, &run.config), footprint))
}

/// The outcome of simulating and serving a set of runs.
pub(crate) struct Executed {
    /// Per-run results, in input order.
    pub results: Vec<Result<Arc<RunOutcome>, RunError>>,
    /// Runs committed from a decision sibling's outcome rather than
    /// simulated.
    pub served: usize,
    /// The plans, warm states and windows the sampled runs built and
    /// measured (the verify build's served-run checks not included).
    pub sampled: SampledWork,
}

/// What one pool item committed: the result of each run it simulated or
/// served, by index into the executed runs, how many it served, the extra
/// store attempts and failed stores of all of them, and its sampled work.
#[derive(Default)]
struct Committed {
    results: Vec<(usize, Result<Arc<RunOutcome>, RunError>)>,
    served: usize,
    store_retries: usize,
    store_failures: usize,
    sampled: SampledWork,
}

/// Simulates `runs` on the worker pool, one [`items`] item at a time, and
/// returns per-run results in input order. Each run commits its outcomes
/// to the disk cache as soon as it finishes, so a campaign killed
/// mid-simulate keeps every run already done; store retries and failures
/// are added to `faults`. A panicking, faulting, or over-budget run
/// yields `Err` in its slot without disturbing the others, and serves
/// nothing. The options' `sim_hook` fires once per simulated run.
pub(crate) fn execute(
    runs: &[&UniqueRun],
    opts: &EngineOptions,
    span_log: &Arc<SpanLog>,
    faults: &mut FaultStats,
) -> Executed {
    let items = items(runs);
    let done = try_parallel_map(opts.jobs, &items, |item| run_item(runs, item, opts, span_log));
    let mut results: Vec<Option<Result<Arc<RunOutcome>, RunError>>> = vec![None; runs.len()];
    let (mut served, mut sampled) = (0, SampledWork::default());
    for (item, done) in items.iter().zip(done) {
        match done {
            Ok(done) => {
                served += done.served;
                sampled += done.sampled;
                faults.store_retries += done.store_retries;
                faults.store_failures += done.store_failures;
                for (i, result) in done.results {
                    results[i] = Some(result);
                }
            }
            // `run_item` catches each run's panic; a panic between two of
            // them fails every run of the item.
            Err(panic) => {
                for (rep, siblings) in item {
                    for &i in std::iter::once(rep).chain(siblings) {
                        let failed = RunError::Panicked { payload: panic.payload.clone() };
                        results[i] = Some(Err(failed));
                    }
                }
            }
        }
    }
    Executed {
        results: results.into_iter().map(|r| r.expect("every run simulated or served")).collect(),
        served,
        sampled,
    }
}

/// One pool item: runs its families in order. A family simulates its
/// representative, which serves every sibling its footprint fits, then
/// simulates each sibling it did not serve; every simulated run has its
/// panic caught into its own result. A sampled item's runs share one
/// prepared kernel and one [`SampledKernel`], so the first that needs the
/// sampling plan builds it, the first under each memory configuration
/// builds the picks' warm states, and the rest measure from them; both are
/// dropped with the item, so each worker holds at most one plan.
fn run_item(
    runs: &[&UniqueRun],
    item: &[Family],
    opts: &EngineOptions,
    span_log: &Arc<SpanLog>,
) -> Committed {
    let mut sampled = SampledKernel::default();
    let mut done = Committed::default();
    let mut simulate = |i: usize, siblings: &[usize], done: &mut Committed| {
        let result = catch_unwind(AssertUnwindSafe(|| {
            simulate_and_serve(runs, i, siblings, opts, span_log, &mut sampled, done)
        }))
        .unwrap_or_else(|payload| {
            Err(RunError::Panicked { payload: WorkerPanic::from_payload(payload).payload })
        });
        done.results.push((i, result));
    };
    for (rep, siblings) in item {
        simulate(*rep, siblings, &mut done);
        for &s in siblings {
            if !done.results.iter().any(|&(i, _)| i == s) {
                simulate(s, &[], &mut done);
            }
        }
    }
    done.sampled = sampled.work();
    done
}

/// One run, in its own `run` span: simulates `runs[i]` (through `sampled`
/// when sampled), armed to record its footprint for the siblings the fault
/// plan leaves alone when it has any, commits it, then serves each of them
/// the footprint fits, adding their results and the store counters to
/// `done`. A served run the verify-build check failed counts as
/// simulated, not served: that check simulated it. The footprint dies
/// with the run.
fn simulate_and_serve(
    runs: &[&UniqueRun],
    i: usize,
    siblings: &[usize],
    opts: &EngineOptions,
    span_log: &Arc<SpanLog>,
    sampled: &mut SampledKernel,
    done: &mut Committed,
) -> Result<Arc<RunOutcome>, RunError> {
    let run = runs[i];
    let _span = span_log.span("run", run.kernel);
    if let Some(h) = &opts.sim_hook {
        h(run.kernel);
    }
    let faults = &opts.faults;
    let servable: Vec<usize> = siblings
        .iter()
        .copied()
        .filter(|&s| {
            let fp = runs[s].fingerprint;
            !(faults.should_crash(fp) || faults.should_panic(fp) || faults.should_hang(fp))
        })
        .collect();
    let configs: Vec<&LoopFrogConfig> = servable.iter().map(|&s| &runs[s].config).collect();
    let (outcome, footprint) = execute_one(run, &opts.budget, faults, &configs, sampled)?;
    let mut commit = |outcome: RunOutcome| {
        if let Some(cache) = &opts.disk_cache {
            let (retries, failed) = store_outcome(cache, &outcome, &opts.faults);
            done.store_retries += retries;
            done.store_failures += usize::from(failed);
        }
        Arc::new(outcome)
    };
    let outcome = commit(outcome);
    let served: Vec<_> = servable
        .into_iter()
        .filter(|&s| footprint.as_ref().is_some_and(|f| f.fits(&runs[s].config)))
        .map(|s| (s, serve(run, &outcome, runs[s], opts).map(&mut commit)))
        .collect();
    done.served += served.iter().filter(|(_, result)| result.is_ok()).count();
    done.results.extend(served);
    Ok(outcome)
}

/// `outcome`, the simulated outcome of `rep`, under the fingerprint of its
/// decision sibling `sibling`. Verify builds also simulate the sibling,
/// from a sampling plan and warm states of its own when sampled, and fail
/// it, naming both runs, unless the two outcomes match.
fn serve(
    rep: &UniqueRun,
    outcome: &RunOutcome,
    sibling: &UniqueRun,
    opts: &EngineOptions,
) -> Result<RunOutcome, RunError> {
    let served = RunOutcome { fingerprint: sibling.fingerprint, ..outcome.clone() };
    if loopfrog::VERIFY {
        // A wall-clock deadline is no part of a run's outcome.
        let budget = RunBudget { deadline: None, ..opts.budget.clone() };
        let simulated =
            execute_one(sibling, &budget, &opts.faults, &[], &mut SampledKernel::default());
        let same = simulated
            .as_ref()
            .is_ok_and(|(o, _)| o.checksum == served.checksum && o.record == served.record);
        if !same {
            return Err(RunError::Sim {
                message: format!(
                    "the outcome of run {} served to run {} differs from simulating it",
                    lf_stats::fingerprint_hex(rep.fingerprint),
                    lf_stats::fingerprint_hex(sibling.fingerprint)
                ),
            });
        }
    }
    Ok(served)
}

/// Persists one outcome through the retry schedule, then (under
/// `--inject-fault corrupt-cache:<rate>`) garbles the freshly written
/// entry so the *next* campaign exercises the quarantine path. Returns
/// the extra attempts it took and whether the store failed for good.
fn store_outcome(cache: &DiskCache, outcome: &RunOutcome, plan: &FaultPlan) -> (usize, bool) {
    let (tried, stored) =
        lf_stats::fault::retry(2, Duration::from_millis(10), Duration::from_millis(80), || {
            cache.store(outcome)
        });
    match &stored {
        // The run itself succeeded; only cross-process memoization is lost.
        Err(e) => crate::engine::supervise::eprint_line(format_args!(
            "warning: run cache write failed after {tried} attempts: {e}"
        )),
        Ok(()) if plan.should_corrupt(outcome.fingerprint) => {
            let _ = std::fs::write(
                cache.entry_path(outcome.fingerprint),
                "{ \"injected\": \"corrupt-cache\"",
            );
        }
        Ok(()) => {}
    }
    ((tried - 1) as usize, stored.is_err())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::ScratchDir;
    use crate::engine::fault::FaultStats;
    use lf_workloads::Scale;

    fn prepare(name: &str) -> Arc<PreparedKernel> {
        let w = lf_workloads::by_name(name, Scale::Smoke).expect("a suite kernel");
        Arc::new(PreparedKernel::prepare(w, &Hinting::Raw))
    }

    /// Runs that differ only in SSB size form one family, represented by
    /// the largest; the sampled families of one prepared kernel share one
    /// item, in representative order; a detailed or simpoint-check family
    /// is an item of its own, siblings included; and items follow their
    /// first family. No fault plan takes part: an injected hang runs the
    /// hang kernel whatever its item.
    #[test]
    fn sampled_families_of_one_prepared_kernel_share_one_item() {
        let (a, b, again) =
            (prepare("stencil_blur"), prepare("hash_lookup"), prepare("stencil_blur"));
        let run = |prepared: &Arc<PreparedKernel>, n: u64, kib: usize, tier: Tier| {
            let mut config =
                LoopFrogConfig { max_cycles: 1_000_000 + n, ..LoopFrogConfig::default() };
            config.ssb.size_bytes = kib << 10;
            UniqueRun {
                fingerprint: prepared.request_fingerprint_tiered(&config, tier),
                kernel: prepared.workload.name,
                prepared: Arc::clone(prepared),
                config,
                tier,
            }
        };
        let runs = [
            run(&a, 0, 8, Tier::Sampled),
            run(&b, 0, 8, Tier::Sampled),
            run(&a, 0, 8, Tier::Detailed),
            run(&a, 1, 8, Tier::Sampled),
            run(&a, 0, 32, Tier::Sampled),
            run(&a, 0, 8, Tier::SimpointCheck),
            run(&a, 0, 2, Tier::Detailed),
            run(&b, 1, 8, Tier::Sampled),
            run(&a, 0, 32, Tier::SimpointCheck),
            run(&a, 1, 8, Tier::Detailed),
            // The same kernel prepared twice is two prepared kernels.
            run(&again, 2, 8, Tier::Sampled),
        ];
        let runs: Vec<&UniqueRun> = runs.iter().collect();
        let expected: Vec<Vec<Family>> = vec![
            vec![(1, vec![]), (7, vec![])],
            vec![(2, vec![6])],
            vec![(3, vec![]), (4, vec![0])],
            vec![(8, vec![5])],
            vec![(9, vec![])],
            vec![(10, vec![])],
        ];
        assert_eq!(items(&runs), expected);
    }

    /// A run of a kernel whose record contradicts a full preparation fails,
    /// naming the record, and commits nothing, in every build: the program
    /// accessor prepares the kernel when the run simulates and compares.
    #[test]
    fn a_contradicted_record_fails_the_runs_that_simulate_and_commits_nothing() {
        let full = prepare("stencil_blur");
        let mut identity = full.identity;
        identity.code_fingerprint ^= 1;
        let workload = Arc::clone(&full.workload);
        let kernel = Arc::new(PreparedKernel::from_record(workload, Hinting::Raw, identity));
        let dir = ScratchDir::new("planner", "contradicted-record");
        let mut opts = EngineOptions::new(Scale::Smoke);
        opts.disk_cache = Some(DiskCache::new(&*dir));
        let config = LoopFrogConfig::default();
        let run = UniqueRun {
            fingerprint: kernel.request_fingerprint(&config),
            kernel: "stencil_blur",
            prepared: Arc::clone(&kernel),
            config,
            tier: Tier::Detailed,
        };
        let executed = execute(&[&run], &opts, &Arc::default(), &mut FaultStats::default());
        let Err(RunError::Sim { message }) = &executed.results[0] else {
            panic!("the run fails: {:?}", executed.results[0].as_ref().map(|o| o.fingerprint))
        };
        assert!(message.contains("prepared/stencil_blur.smoke.raw.json"), "{message}");
        assert!(kernel.record_contradicted() && kernel.prepared_lazily());
        assert!(!dir.exists(), "a failed run commits nothing");
        assert!(full.program().is_ok() && !full.record_contradicted());
    }
}
