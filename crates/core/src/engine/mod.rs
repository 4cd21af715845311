//! The LoopFrog out-of-order core (paper §4, Figure 3).
//!
//! An 8-wide, cycle-level pipeline shared by up to four threadlet contexts.
//! Fetch, decode/rename, issue, execution, and commit resources are
//! dynamically shared; each threadlet owns its program counter, fetch queue,
//! rename map, and logical ROB/LSQ slices. The speculative state buffer,
//! conflict detector, checkpoint store, and iteration-packing predictors
//! implement the paper's threadlet execution model; with `speculation`
//! disabled the same core is the paper's baseline (hints execute as NOPs).
//!
//! Stage methods live in the sibling modules: [`fetch`], [`rename_stage`],
//! [`issue`], [`commit`], and [`squash`].

mod coherence;
mod commit;
mod fetch;
mod issue;
mod rename_stage;
mod squash;
#[cfg(test)]
mod tests;
#[cfg(feature = "verify")]
mod verify_checks;

use crate::arena::InstArena;
use crate::bloom::{BloomConflictDetector, BloomShadow};
use crate::config::LoopFrogConfig;
use crate::conflict::ConflictDetector;
use crate::deselect::Deselector;
use crate::dyninst::Uid;
use crate::footprint::Footprint;
use crate::packing::PackingPredictors;
use crate::profiler::{Profiler, Stage};
use crate::ssb::Ssb;
use crate::stats::{SimResult, SimStats, SimStop};
use crate::telemetry::{
    CycleBucket, CycleSample, CycleStats, IntervalSample, IntervalSampler, COMMIT_STALL_NAMES,
    INTERVAL_CYCLES,
};
use crate::threadlet::{CtxState, Threadlet};
use crate::trace::{TraceEvent, Tracer};
use crate::warm::WarmState;
use crate::wheel::CompletionWheel;
use lf_isa::fast::Checkpoint;
use lf_isa::{Memory, Program, NUM_ARCH_REGS};
use lf_uarch::rename::RenameMap;
use lf_uarch::{BranchPredictor, FuPools, IssueQueue, MemHierarchy, PhysRegFile};
use std::collections::VecDeque;
use std::fmt;

/// Errors terminating a simulation abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An architectural memory access faulted (program bug).
    Fault {
        /// Program counter of the faulting instruction.
        pc: usize,
        /// Faulting effective address.
        addr: u64,
    },
    /// The architectural program counter left the program.
    PcOutOfRange {
        /// The faulting PC.
        pc: usize,
    },
    /// No instruction committed for an implausibly long time (internal
    /// deadlock; indicates a simulator bug).
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Fault { pc, addr } => {
                write!(f, "architectural memory fault at pc {pc}, address {addr:#x}")
            }
            SimError::PcOutOfRange { pc } => write!(f, "architectural pc {pc} out of range"),
            SimError::Deadlock { cycle } => write!(f, "no commit progress by cycle {cycle}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Cycles without any architectural commit before the watchdog trips.
const WATCHDOG_CYCLES: u64 = 200_000;

/// How often (in cycles) the step loop consults the wall-clock deadline.
/// A power of two so the check is a mask; coarse enough that the common
/// undeadlined case pays one branch per cycle and armed runs pay one
/// `Instant::now()` per four thousand cycles.
const DEADLINE_CHECK_CYCLES: u64 = 4096;

/// Hard cap on threadlet contexts (sizes the inline ordering lists used on
/// the per-access hot path).
const MAX_CONTEXTS: usize = 16;

/// The most bytes one load or store accesses.
const MAX_ACCESS_BYTES: u64 = 8;

/// A small fixed-capacity list held inline, for lists built on the
/// per-access hot path, where a heap allocation per access would dominate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InlineList<T, const N: usize> {
    arr: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    fn new() -> Self {
        InlineList { arr: [T::default(); N], len: 0 }
    }

    fn push(&mut self, t: T) {
        self.arr[self.len] = t;
        self.len += 1;
    }

    /// The items as a slice.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.arr[..self.len]
    }
}

/// Context ids, such as a slice lookup order.
pub(crate) type TidList = InlineList<usize, MAX_CONTEXTS>;

/// The granules one load or store covers: an access of at most
/// [`MAX_ACCESS_BYTES`] bytes spans at most that many.
pub(crate) type Granules = InlineList<u64, { MAX_ACCESS_BYTES as usize }>;

/// The LoopFrog core simulator.
///
/// # Examples
///
/// ```
/// use lf_isa::{Memory, ProgramBuilder, reg, AluOp};
/// use loopfrog::{LoopFrogConfig, LoopFrogCore};
///
/// let mut b = ProgramBuilder::new();
/// b.li(reg::x(1), 2);
/// b.alui(AluOp::Add, reg::x(1), reg::x(1), 40);
/// b.halt();
/// let program = b.build()?;
/// let mut core = LoopFrogCore::new(&program, Memory::new(64), LoopFrogConfig::baseline());
/// let result = core.run()?;
/// assert_eq!(result.final_regs[1], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct LoopFrogCore<'p> {
    pub(crate) cfg: LoopFrogConfig,
    pub(crate) program: &'p Program,
    pub(crate) mem: Memory,
    pub(crate) hier: MemHierarchy,
    pub(crate) bpred: BranchPredictor,
    pub(crate) prf: PhysRegFile,
    pub(crate) iq: IssueQueue<Uid>,
    pub(crate) fu: FuPools,
    pub(crate) ssb: Ssb,
    pub(crate) conflict: ConflictSets,
    pub(crate) packing: PackingPredictors,
    pub(crate) deselect: Deselector,

    pub(crate) ctx: Vec<Threadlet>,
    /// Active contexts, oldest (architectural) first.
    pub(crate) order: VecDeque<usize>,
    pub(crate) slab: InstArena,
    pub(crate) completions: CompletionWheel,
    /// Reused per-cycle scratch for writeback's completion drain.
    pub(crate) wb_scratch: Vec<Uid>,

    pub(crate) cycle: u64,
    pub(crate) rob_occupancy: usize,
    pub(crate) lq_occupancy: usize,
    pub(crate) sq_occupancy: usize,

    pub(crate) stats: SimStats,
    /// The statistics every simulated cycle adds to, folded into `stats`
    /// and the result's accounting and occupancy by `finish`.
    pub(crate) cycle_stats: CycleStats,
    /// Successor restarts forced by a register-independence violation;
    /// kept as an integer on the hot path and folded into
    /// `stats.counters` under its name by `finish`.
    pub(crate) squashes_register: u64,
    /// Snapshots the headline counters every [`INTERVAL_CYCLES`].
    pub(crate) sampler: IntervalSampler,
    pub(crate) tracer: Option<Box<dyn Tracer>>,
    /// Sampled wall-clock stage profiler (see [`crate::profiler`]); `None`
    /// unless [`LoopFrogCore::enable_profiler`] was called.
    pub(crate) profiler: Option<Profiler>,
    pub(crate) halted: bool,
    /// Harness-side wall-clock watchdog; checked every
    /// [`DEADLINE_CHECK_CYCLES`] cycles in the step loop.
    pub(crate) deadline: Option<std::time::Instant>,
    pub(crate) last_commit_cycle: u64,

    /// Instructions committed by the current cycle's commit stage (cycle
    /// accounting's productive slots).
    pub(crate) committed_this_cycle: usize,
    /// What the current cycle's commit stage stalled on, if it committed
    /// nothing (an index into [`COMMIT_STALL_NAMES`]).
    pub(crate) commit_stall: Option<usize>,
    /// Set by the few stage sites that change simulator state without
    /// bumping a counter (see [`LoopFrogCore::activity`]); reset every
    /// tick.
    pub(crate) state_changed: bool,
    /// Front-end recovery window after the latest squash or misprediction.
    pub(crate) recovery_until: u64,
    /// Cycle of the latest SSB-overflow drain stall (accounting signal).
    pub(crate) overflow_stall_cycle: u64,
    /// Structural back-pressure observed by rename this cycle.
    pub(crate) rename_stall: RenameStall,
    /// Invariant log and lockstep boundary recorder (verify builds only).
    #[cfg(feature = "verify")]
    pub(crate) verify: crate::verify::VerifyState,
}

/// Which shared structure blocked rename this cycle (reset every tick).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RenameStall {
    pub(crate) rob: bool,
    pub(crate) iq: bool,
    pub(crate) lsq: bool,
}

impl fmt::Debug for LoopFrogCore<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoopFrogCore")
            .field("cycle", &self.cycle)
            .field("order", &self.order)
            .field("rob_occupancy", &self.rob_occupancy)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl<'p> LoopFrogCore<'p> {
    /// Creates a core over `program` with the given initial memory image.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero threadlets or a
    /// physical register file smaller than the architectural state).
    pub fn new(program: &'p Program, mem: Memory, cfg: LoopFrogConfig) -> LoopFrogCore<'p> {
        let entry = program.entry();
        LoopFrogCore::with_initial_state(program, mem, &[0; NUM_ARCH_REGS], entry, cfg)
    }

    /// Creates a core resuming from a warm architectural state: register
    /// values `regs` and program counter `entry` (e.g. a SimPoint interval
    /// boundary captured from the golden emulator).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate or `regs` is shorter than
    /// the architectural register count.
    pub fn with_initial_state(
        program: &'p Program,
        mem: Memory,
        regs: &[u64],
        entry: usize,
        cfg: LoopFrogConfig,
    ) -> LoopFrogCore<'p> {
        assert!(cfg.core.threadlets >= 1, "need at least one threadlet context");
        assert!(cfg.core.threadlets <= MAX_CONTEXTS, "at most {MAX_CONTEXTS} threadlet contexts");
        let total_regs = cfg.core.total_phys_regs();
        assert!(total_regs > NUM_ARCH_REGS + 16, "physical register file too small");
        let mut prf = PhysRegFile::new(total_regs);
        let threadlets = cfg.core.threadlets;
        let mut ctx: Vec<Threadlet> = (0..threadlets).map(|_| Threadlet::new_free()).collect();

        // Context 0 starts architectural at the requested entry.
        ctx[0].state = CtxState::Active;
        ctx[0].epoch = 0;
        ctx[0].fetch_pc = entry;
        ctx[0].map = Some(RenameMap::new_with_values(&mut prf, regs));
        let mut order = VecDeque::new();
        order.push_back(0);

        LoopFrogCore {
            hier: MemHierarchy::new(cfg.mem.clone()),
            bpred: BranchPredictor::new(threadlets),
            iq: IssueQueue::new(cfg.core.iq_size),
            fu: FuPools::new(&cfg.core.fu),
            ssb: Ssb::new(&cfg.ssb, threadlets),
            conflict: match cfg.ssb.bloom {
                None => ConflictSets::Exact(ConflictDetector::new(threadlets)),
                Some((bits, hashes)) => {
                    ConflictSets::Bloom(BloomConflictDetector::new(threadlets, bits, hashes))
                }
            },
            packing: PackingPredictors::new(&cfg.packing),
            deselect: Deselector::new(&cfg.deselect),
            ctx,
            order,
            slab: InstArena::new(),
            completions: CompletionWheel::new(),
            wb_scratch: Vec::new(),
            cycle: 0,
            rob_occupancy: 0,
            lq_occupancy: 0,
            sq_occupancy: 0,
            stats: SimStats::new(threadlets),
            cycle_stats: CycleStats::new(&cfg),
            squashes_register: 0,
            sampler: IntervalSampler::new(INTERVAL_CYCLES),
            tracer: None,
            profiler: None,
            halted: false,
            deadline: None,
            last_commit_cycle: 0,
            committed_this_cycle: 0,
            commit_stall: None,
            state_changed: false,
            recovery_until: 0,
            overflow_stall_cycle: u64::MAX,
            rename_stall: RenameStall::default(),
            #[cfg(feature = "verify")]
            verify: crate::verify::VerifyState::default(),
            prf,
            mem,
            program,
            cfg,
        }
    }

    /// Creates a core resuming from a fast-tier [`Checkpoint`]: restores
    /// the architectural state (registers, memory image, program counter)
    /// exactly, then warms the microarchitecture with the checkpoint's
    /// hint streams — recorded branch outcomes replayed through the branch
    /// predictor (training TAGE/loop tables and leaving context 0's global
    /// history where live execution would), indirect targets installed in
    /// the BTB, and the fetch-line and data-access streams warm-filled into
    /// the cache tags and stride prefetchers in recorded order (stream
    /// position as the LRU clock). This is [`LoopFrogCore::from_warm`] with
    /// a [`WarmState`] built for this one restore; callers restoring one
    /// checkpoint several times build the warm state once.
    ///
    /// Warming establishes *state*, never *events*: `SimStats` and all
    /// cache/DRAM counters still start from zero, and
    /// [`LoopFrogCore::committed_insts`] counts from zero after restore,
    /// so `run_until_committed` targets are relative to the checkpoint.
    /// Callers wanting SMARTS-style detailed warm-up simply run a bounded
    /// number of committed instructions before the measured window.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint was taken from a different program (code
    /// fingerprint mismatch) or the configuration is degenerate.
    pub fn from_checkpoint(
        program: &'p Program,
        ckpt: &Checkpoint,
        cfg: LoopFrogConfig,
    ) -> LoopFrogCore<'p> {
        let warm = WarmState::new(ckpt, &cfg.mem);
        LoopFrogCore::from_warm(program, ckpt, &warm, cfg)
    }

    /// Creates a core resuming from `ckpt` with `warm`, the checkpoint's
    /// warm state under `cfg.mem`, installed into its predictor and caches:
    /// the core [`LoopFrogCore::from_checkpoint`] restores, without
    /// replaying the hint streams. Verify builds also replay them and
    /// assert that the installed state equals the replayed one.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint was taken from a different program, if
    /// `warm` was built from another checkpoint or under another memory
    /// configuration, or if the configuration is degenerate.
    pub fn from_warm(
        program: &'p Program,
        ckpt: &Checkpoint,
        warm: &WarmState,
        cfg: LoopFrogConfig,
    ) -> LoopFrogCore<'p> {
        assert_eq!(
            ckpt.code_fingerprint,
            program.code_fingerprint(),
            "checkpoint belongs to a different program"
        );
        let mut core =
            LoopFrogCore::with_initial_state(program, ckpt.mem.clone(), &ckpt.regs, ckpt.pc, cfg);
        warm.install(ckpt, &mut core.bpred, &mut core.hier);
        #[cfg(feature = "verify")]
        {
            let mut bpred = BranchPredictor::new(core.cfg.core.threadlets);
            let mut hier = MemHierarchy::new(core.cfg.mem.clone());
            crate::warm::warm(&mut bpred, &mut hier, &ckpt.hints);
            assert!(
                core.bpred == bpred && core.hier == hier,
                "warm-state: the installed predictor and caches differ from a replay of the checkpoint"
            );
        }
        core
    }

    /// The context id of the architectural (oldest) threadlet.
    pub(crate) fn arch_tid(&self) -> usize {
        *self.order.front().expect("at least one active threadlet")
    }

    /// The active context ids strictly younger than `tid`, old → young.
    pub(crate) fn younger_than(&self, tid: usize) -> TidList {
        let mut v = TidList::new();
        let mut seen = false;
        for &t in &self.order {
            if seen {
                v.push(t);
            }
            if t == tid {
                seen = true;
            }
        }
        debug_assert!(seen, "tid active");
        v
    }

    /// The slice lookup order for a read by `tid`: all active contexts from
    /// the oldest up to and including `tid` (oldest → newest).
    pub(crate) fn slice_order(&self, tid: usize) -> TidList {
        let mut v = TidList::new();
        for &t in &self.order {
            v.push(t);
            if t == tid {
                break;
            }
        }
        v
    }

    /// The granules one load or store `[addr, addr+len)` covers, as
    /// [`Ssb::granules_of`] lists them, without allocating.
    pub(crate) fn access_granules(&self, addr: u64, len: u64) -> Granules {
        assert!((1..=MAX_ACCESS_BYTES).contains(&len), "an access is 1 to 8 bytes, not {len}");
        let g = self.ssb.granule();
        let mut out = Granules::new();
        (addr / g..=(addr + len - 1) / g).for_each(|granule| out.push(granule));
        out
    }

    /// Simulates one cycle. Returns the cycle's [`CycleSample`] when the
    /// tick was *quiet*: it changed no simulator state other than the
    /// per-cycle statistics, so the state is a fixed point of `tick` until
    /// [`LoopFrogCore::quiet_horizon`] (DESIGN.md §10.8).
    fn tick(&mut self) -> Result<Option<CycleSample>, SimError> {
        self.rename_stall = RenameStall::default();
        self.state_changed = false;
        let activity = self.activity();
        // Sampled self-profiling: on a sampled tick every stage call is
        // wall-clock timed; otherwise each stage pays one `Option` test.
        let sampling = self.profiler.is_some() && Profiler::is_sample(self.cycle);
        if sampling {
            self.profiler.as_mut().expect("sampling implies profiler").count_tick();
        }
        let t0 = sampling.then(std::time::Instant::now);
        self.do_commit()?;
        self.prof(Stage::Commit, t0);
        if self.halted {
            // The halting partial cycle is not counted in `stats.cycles`,
            // so it gets no accounting slots either (the sum invariant
            // holds over counted cycles only).
            return Ok(None);
        }
        // Contexts freed by retirement can immediately host a deferred
        // spawn, keeping the epoch chain full.
        let t0 = sampling.then(std::time::Instant::now);
        self.service_pending_spawns();
        self.prof(Stage::Spawn, t0);
        let t0 = sampling.then(std::time::Instant::now);
        self.do_writeback();
        self.prof(Stage::Writeback, t0);
        let t0 = sampling.then(std::time::Instant::now);
        self.do_issue();
        self.prof(Stage::Issue, t0);
        let t0 = sampling.then(std::time::Instant::now);
        self.do_rename();
        self.prof(Stage::Rename, t0);
        let t0 = sampling.then(std::time::Instant::now);
        self.do_fetch();
        self.prof(Stage::Fetch, t0);

        // Activity statistics (Figure 7): contexts actively executing, and
        // whether the core is inside a parallel region.
        let (mut active, mut detached) = (0, false);
        for &t in &self.order {
            let c = &self.ctx[t];
            active += usize::from(c.state == CtxState::Active && !c.finished);
            detached |= c.ren_region.is_some();
        }
        let in_region = self.order.len() > 1 || detached;
        // Cycle accounting: every one of this cycle's commit slots goes to
        // exactly one bucket — committed slots are productive, the rest are
        // attributed to a single stall cause.
        let committed = self.committed_this_cycle;
        let sample = CycleSample {
            commit_stall: self.commit_stall,
            active: active.min(self.cfg.core.threadlets),
            in_region,
            committed,
            stall_bucket: (committed < self.cfg.core.commit_width).then(|| self.classify_stall()),
            rob: self.rob_occupancy,
            iq: self.iq.len(),
        };
        self.cycle_stats.add(&sample, 1);

        #[cfg(feature = "verify")]
        self.verify_tick();

        self.cycle += 1;
        self.stats.cycles = self.cycle;
        self.sample_interval();
        let quiet = !self.state_changed && committed == 0 && self.activity() == activity;
        Ok(quiet.then_some(sample))
    }

    /// The sum of the counters the stages bump whenever they change state:
    /// a tick that leaves it, `committed_this_cycle` and `state_changed`
    /// untouched changed nothing but the per-cycle statistics.
    fn activity(&self) -> u64 {
        let s = &self.stats;
        s.fetched_insts
            + s.fetch_icache_stalls
            + s.renamed_insts
            + s.issued_insts
            + s.spawns
            + s.squashes_overflow
    }

    /// The first cycle at or after `self.cycle` at which anything a quiet
    /// tick left unchanged can change: a completion falls due, a context's
    /// fetch, retirement or slice-flush wait ends, squash recovery ends, a
    /// busy functional unit frees for a rejected ready entry, or the run
    /// loop has a budget, watchdog, deadline or interval-sample check due.
    /// Every cycle before it would tick exactly as the quiet tick did.
    fn quiet_horizon(&self) -> u64 {
        let now = self.cycle;
        let mut end = self.cfg.max_cycles.min(self.last_commit_cycle + WATCHDOG_CYCLES + 1);
        if self.deadline.is_some() {
            end = end.min(now.next_multiple_of(DEADLINE_CHECK_CYCLES));
        }
        end = end.min(self.sampler.next_boundary());
        let mut wait_until = |at: u64| {
            if at >= now && at < end {
                end = at;
            }
        };
        wait_until(self.recovery_until);
        for t in &self.ctx {
            wait_until(t.fetch_ready);
            wait_until(t.slice_flush_until);
            if let Some(at) = t.retire_at {
                wait_until(at);
            }
        }
        if self.iq.has_ready() {
            // Ready entries were offered and rejected: a pipe frees.
            if let Some(at) = self.fu.next_release(now) {
                wait_until(at);
            }
        }
        if let Some(at) = self.completions.next_due(now, end) {
            end = at;
        }
        end.max(now)
    }

    /// Jumps over the cycles a quiet tick's fixed point lasts, adding
    /// exactly the statistics ticking them would have added.
    #[cfg(not(feature = "verify"))]
    fn skip_quiet_cycles(&mut self, sample: CycleSample) {
        let end = self.quiet_horizon();
        if end == self.cycle {
            return;
        }
        self.cycle_stats.add(&sample, end - self.cycle);
        self.completions.advance_to(end);
        self.cycle = end;
        self.stats.cycles = end;
        self.sample_interval();
    }

    /// Records the interval sample due at the current cycle count, if any.
    fn sample_interval(&mut self) {
        if self.sampler.next_boundary() == self.cycle {
            let sample = self.interval_sample();
            self.sampler.record(sample);
        }
    }

    /// Records a sampled stage duration (no-op on unsampled ticks).
    #[inline]
    fn prof(&mut self, stage: Stage, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(p) = &mut self.profiler {
                p.record(stage, ns);
            }
        }
    }

    /// A cumulative snapshot of the headline counters for interval stats.
    fn interval_sample(&self) -> IntervalSample {
        let s = &self.stats;
        IntervalSample {
            cycle: self.cycle,
            committed_insts: s.committed_insts,
            issued_insts: s.issued_insts,
            spawns: s.spawns,
            squashes: s.squashes_conflict
                + s.squashes_sync
                + s.squashes_packing
                + s.squashes_wrong_path
                + self.squashes_register,
        }
    }

    /// Attributes this cycle's idle commit slots to one stall cause, in
    /// priority order (see [`CycleBucket`]).
    fn classify_stall(&self) -> CycleBucket {
        if self.overflow_stall_cycle == self.cycle {
            return CycleBucket::SsbOverflow;
        }
        if self.cycle < self.recovery_until {
            return CycleBucket::SquashRecovery;
        }
        let Some(&tid) = self.order.front() else {
            return CycleBucket::FetchStall;
        };
        let t = &self.ctx[tid];
        match t.rob.front() {
            None if t.finished => CycleBucket::RetireWait,
            None => CycleBucket::FetchStall,
            Some(&uid) => {
                let d = &self.slab[uid];
                if !d.issued {
                    // The head cannot issue: blame observed structural
                    // back-pressure first, then the dependence chain.
                    if self.rename_stall.rob {
                        CycleBucket::RobFull
                    } else if self.rename_stall.iq {
                        CycleBucket::IqFull
                    } else if self.rename_stall.lsq {
                        CycleBucket::LsqFull
                    } else if d.inst.is_load() {
                        CycleBucket::Memory
                    } else {
                        CycleBucket::Exec
                    }
                } else if !d.completed && d.inst.is_load() {
                    CycleBucket::Memory
                } else if !d.completed {
                    CycleBucket::Exec
                } else {
                    // Completed but not committed: an undrained store at
                    // the head waiting on the memory system.
                    CycleBucket::Memory
                }
            }
        }
    }

    /// Runs to completion (architectural `halt`), a fuel limit, or an error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on architectural faults or internal deadlock.
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        let stop = self.run_until_committed(self.cfg.max_insts)?;
        Ok(self.finish(stop, true))
    }

    /// Advances the simulation until `target` instructions have committed
    /// architecturally (or the program halts / the cycle budget runs out).
    /// May be called repeatedly for phased measurement (e.g. SimPoint
    /// warmup followed by a measured interval); statistics are cumulative.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on architectural faults or internal deadlock.
    pub fn run_until_committed(&mut self, target: u64) -> Result<SimStop, SimError> {
        while !self.halted {
            if self.stats.committed_insts >= target {
                return Ok(SimStop::MaxInsts);
            }
            if self.cycle >= self.cfg.max_cycles {
                return Ok(SimStop::MaxCycles);
            }
            if self.cycle - self.last_commit_cycle > WATCHDOG_CYCLES {
                return Err(SimError::Deadlock { cycle: self.cycle });
            }
            if let Some(d) = self.deadline {
                if self.cycle & (DEADLINE_CHECK_CYCLES - 1) == 0 && std::time::Instant::now() >= d {
                    return Ok(SimStop::Deadline);
                }
            }
            let quiet = self.tick()?;
            // Verify builds tick through the span a skip would jump and
            // check that prediction instead (DESIGN.md §7.3).
            #[cfg(feature = "verify")]
            self.verify_quiet_span(quiet);
            #[cfg(not(feature = "verify"))]
            if let Some(sample) = quiet {
                self.skip_quiet_cycles(sample);
            }
        }
        Ok(SimStop::Halted)
    }

    /// Collects final results without running further (for phased runs
    /// driven through [`LoopFrogCore::run_until_committed`]).
    pub fn into_result(mut self, stop: SimStop) -> SimResult {
        self.finish(stop, true)
    }

    /// [`LoopFrogCore::into_result`] without hashing the final state: the
    /// result's `checksum` is 0. For measurements whose caller carries the
    /// run's checksum from elsewhere, such as a sampled run's windows,
    /// where hashing the whole memory image costs a tenth of a window.
    pub fn into_result_without_checksum(mut self, stop: SimStop) -> SimResult {
        self.finish(stop, false)
    }

    /// Cumulative committed-instruction count (for phased measurement).
    pub fn committed_insts(&self) -> u64 {
        self.stats.committed_insts
    }

    /// Assembles the [`SimResult`], *moving* the accumulated statistics
    /// and telemetry out of the core (they can be megabytes of interval
    /// samples and trace events; cloning them doubled peak memory), with
    /// the final-state checksum when `checksum` is set and 0 otherwise. The
    /// core is drained afterwards: callers get results exactly once.
    fn finish(&mut self, stop: SimStop, checksum: bool) -> SimResult {
        #[cfg(feature = "verify")]
        self.verify_finish();
        // Final architectural registers come from the architectural
        // threadlet's rename map. x0 reads as zero by construction.
        let tid = self.arch_tid();
        let map = self.ctx[tid].map.as_ref().expect("arch threadlet has a map");
        let final_regs: Vec<u64> = (0..NUM_ARCH_REGS)
            .map(|a| {
                let p = map.get(a);
                if self.prf.is_ready(p) {
                    self.prf.read(p)
                } else {
                    0
                }
            })
            .collect();
        let checksum = if checksum {
            lf_isa::checksum::fnv1a_u64(&final_regs) ^ self.mem.checksum()
        } else {
            0
        };

        // Close out the sampler while `self.stats` is still live (the final
        // partial interval snapshots the cumulative counters), then move
        // the statistics out.
        let sample = self.interval_sample();
        self.sampler.finish(sample.cycle, sample);
        let mut stats = std::mem::replace(&mut self.stats, SimStats::new(self.ctx.len()));
        let cycle_stats = std::mem::replace(&mut self.cycle_stats, CycleStats::new(&self.cfg));
        let occupancy = cycle_stats.histograms(&self.cfg);
        let CycleStats { commit_stalls, cycles_with_active, region_cycles, accounting, .. } =
            cycle_stats;
        stats.cycles_with_active = cycles_with_active;
        stats.region_cycles = region_cycles;
        stats.counters.merge(&self.hier.counters());
        // The hot path's integer counters join under their names, each only
        // once non-zero, as if it had been counted there.
        let register = ("squashes_register", std::mem::take(&mut self.squashes_register));
        for (k, v) in COMMIT_STALL_NAMES.into_iter().zip(commit_stalls).chain([register]) {
            if v > 0 {
                stats.counters.add(k, v);
            }
        }
        let [(l1i_a, l1i_m), (l1d_a, l1d_m), (l2_a, l2_m)] = self.hier.cache_stats();
        for (k, v) in [
            ("l1i_accesses", l1i_a),
            ("l1i_misses", l1i_m),
            ("l1d_accesses", l1d_a),
            ("l1d_misses", l1d_m),
            ("l2_demand_accesses", l2_a),
            ("l2_demand_misses", l2_m),
            ("ssb_overflows", self.ssb.overflows()),
            ("regions_suppressed", self.deselect.suppressed_count() as u64),
            ("bloom_false_positive_squashes", self.conflict.false_positive_squashes()),
            // Structure-occupancy counters for the self-profiler's data
            // feed: how hard each hot-path structure was actually driven.
            ("arena_high_water", self.slab.high_water() as u64),
            ("wheel_overflow_hits", self.completions.overflow_hits()),
            ("conflict_probes", self.conflict.probes()),
        ] {
            stats.counters.add(k, v);
        }

        let intervals = self.sampler.take_samples();
        // Wall-clock data stays out of the deterministic statistics: the
        // report rides alongside them and is rendered only by callers that
        // asked for profiling.
        let profile = self.profiler.take().map(|p| p.report(self.cycle));

        SimResult {
            stop,
            stats,
            checksum,
            final_regs,
            occupancy,
            accounting,
            intervals,
            profile,
            footprint: self.ssb.take_footprint().map(|lines| {
                let filters = self.conflict.undiverged_filters();
                Footprint::new(lines, &self.cfg, filters, self.deselect.undiverged_shadows())
            }),
        }
    }

    /// Statistics collected so far. The hierarchy's and the commit stage's
    /// counters join `counters`, and the per-cycle `cycles_with_active`
    /// and `region_cycles` are filled, only in the final [`SimResult`].
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The architectural memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Arms a wall-clock watchdog: once `deadline` passes, the step loop
    /// stops with [`SimStop::Deadline`] at its next check (every 4,096
    /// cycles). The harness uses this to convert a livelocked simulation
    /// into a structured budget failure instead of hanging the worker pool;
    /// a deadline-stopped run's results are partial and must not be treated
    /// as a completed simulation.
    pub fn set_deadline(&mut self, deadline: std::time::Instant) {
        self.deadline = Some(deadline);
    }

    /// Attaches a pipeline-event observer (see [`crate::trace`]). Pass a
    /// [`crate::TextTracer`] for a gem5-style textual trace, a
    /// [`crate::FlightRecorder`] for the last events of the run, or a
    /// [`crate::TraceMux`] for several at once.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Enables the sampled wall-clock stage profiler (see
    /// [`crate::profiler`]). A core-side switch rather than a config field:
    /// profiled and unprofiled runs share a config fingerprint, so the
    /// harness's dedup/cache/determinism guarantees are unaffected. The
    /// report is returned in [`SimResult::profile`].
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Profiler::new());
    }

    /// Arms the run's [`Footprint`] for `siblings`, configs that differ from
    /// this run's at most in the SSB geometry, the Bloom filters and
    /// deselection: the SSB records the lines each slice epoch allocates
    /// ([`crate::ssb::SsbFootprint`]), and a shadow follows the run for each
    /// distinct sibling filter geometry when this run's conflict sets are
    /// exact, and for each distinct enabled sibling deselection config when
    /// this run's deselection is off (see [`crate::footprint`]). Like the
    /// profiler, a core-side switch rather than a config field: nothing
    /// armed steers the run. The footprint is returned in
    /// [`SimResult::footprint`].
    ///
    /// # Panics
    ///
    /// Panics once the core has simulated a cycle: a footprint covers a
    /// whole run.
    pub fn record_footprint(&mut self, siblings: &[&LoopFrogConfig]) {
        assert_eq!(self.cycle, 0, "a footprint is armed before the first cycle");
        self.ssb.record_footprint();
        if let ConflictSets::Exact(exact) = &self.conflict {
            let mut filters: Vec<(usize, u32)> =
                siblings.iter().filter_map(|c| c.ssb.bloom).collect();
            filters.sort_unstable();
            filters.dedup();
            if !filters.is_empty() {
                let contexts = self.ctx.len();
                let shadows = filters.into_iter().map(|g| BloomShadow::new(contexts, g)).collect();
                self.conflict = ConflictSets::Shadowed(exact.clone(), shadows);
            }
        }
        if !self.cfg.deselect.enabled {
            self.deselect.shadow(siblings.iter().map(|c| &c.deselect));
        }
    }

    /// Whether a tracer is attached. Emit sites check this before
    /// constructing an event so the common unobserved case pays nothing.
    #[inline]
    pub(crate) fn observing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Emits a trace event to the attached tracer, if any.
    #[inline]
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t.event(&ev);
        }
    }

    /// A human-readable snapshot of threadlet and window state, for
    /// debugging stalls.
    pub fn dump_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycle {} order {:?} rob_occ {} iq {} lq {} sq {}",
            self.cycle,
            self.order,
            self.rob_occupancy,
            self.iq.len(),
            self.lq_occupancy,
            self.sq_occupancy
        );
        for (i, t) in self.ctx.iter().enumerate() {
            let head = t.rob.front().map(|&u| {
                let d = &self.slab[u];
                format!(
                    "pc{} {:?} issued={} completed={} drained={} faulted={}",
                    d.pc, d.inst, d.issued, d.completed, d.drained, d.faulted
                )
            });
            let _ = writeln!(out,
                "ctx{i}: {:?} epoch {} finished {} fhalt {} fstall {} fpc {} fready {} region {:?}/{} roblen {} head {:?}",
                t.state, t.epoch, t.finished, t.fetch_halted, t.fetch_stalled_indirect,
                t.fetch_pc, t.fetch_ready, t.ren_region, t.ren_iters, t.rob.len(), head);
        }
        out
    }

    /// Finds a free threadlet context whose SSB slice has finished flushing.
    pub(crate) fn find_free_context(&self) -> Option<usize> {
        (0..self.ctx.len()).find(|&i| {
            self.ctx[i].state == CtxState::Free && self.ctx[i].slice_flush_until <= self.cycle
        })
    }
}

/// Conflict-set implementation selected by [`crate::SsbConfig::bloom`]:
/// exact sets (the paper's idealized filters) or real Bloom filters; or
/// exact sets that shadows of sibling filter geometries follow (an armed
/// run; [`LoopFrogCore::record_footprint`]).
#[derive(Debug, Clone)]
pub(crate) enum ConflictSets {
    Exact(ConflictDetector),
    Bloom(BloomConflictDetector),
    Shadowed(ConflictDetector, Vec<BloomShadow>),
}

impl ConflictSets {
    pub(crate) fn clear(&mut self, slot: usize) {
        match self {
            ConflictSets::Exact(c) => c.clear(slot),
            ConflictSets::Bloom(c) => c.clear(slot),
            ConflictSets::Shadowed(c, shadows) => {
                c.clear(slot);
                shadows.iter_mut().for_each(|s| s.clear(slot));
            }
        }
    }

    pub(crate) fn on_read(&mut self, slot: usize, granules: &[u64]) {
        match self {
            ConflictSets::Exact(c) => c.on_read(slot, granules),
            ConflictSets::Bloom(c) => c.on_read(slot, granules),
            ConflictSets::Shadowed(c, shadows) => {
                shadows.iter_mut().for_each(|s| s.on_read(c, slot, granules));
                c.on_read(slot, granules);
            }
        }
    }

    pub(crate) fn on_write(
        &mut self,
        slot: usize,
        granules: &[u64],
        younger: &[usize],
    ) -> Option<usize> {
        match self {
            ConflictSets::Exact(c) => c.on_write(slot, granules, younger),
            ConflictSets::Bloom(c) => c.on_write(slot, granules, younger),
            ConflictSets::Shadowed(c, shadows) => {
                let verdict = c.on_write(slot, granules, younger);
                shadows.iter_mut().for_each(|s| s.on_write(c, slot, granules, younger));
                verdict
            }
        }
    }

    pub(crate) fn false_positive_squashes(&self) -> u64 {
        match self {
            ConflictSets::Exact(_) | ConflictSets::Shadowed(..) => 0,
            ConflictSets::Bloom(c) => c.false_positive_squashes(),
        }
    }

    pub(crate) fn probes(&self) -> u64 {
        match self {
            ConflictSets::Exact(c) | ConflictSets::Shadowed(c, _) => c.probes(),
            ConflictSets::Bloom(c) => c.probes(),
        }
    }

    /// The coherence interface's queries: whether `slot` (may have)
    /// written and read `granule`, in that order. Shadows see both.
    pub(crate) fn query(&mut self, slot: usize, granule: u64) -> (bool, bool) {
        match self {
            ConflictSets::Exact(c) => (c.has_written(slot, granule), c.has_read(slot, granule)),
            ConflictSets::Bloom(c) => {
                (c.may_have_written(slot, granule), c.may_have_read(slot, granule))
            }
            ConflictSets::Shadowed(c, shadows) => {
                let (written, read) = (c.has_written(slot, granule), c.has_read(slot, granule));
                shadows.iter_mut().for_each(|s| s.on_query(slot, granule, written, read));
                (written, read)
            }
        }
    }

    /// The shadowed filter geometries that answered every test alike.
    pub(crate) fn undiverged_filters(&self) -> Vec<(usize, u32)> {
        match self {
            ConflictSets::Shadowed(_, shadows) => {
                shadows.iter().filter(|s| !s.diverged()).map(BloomShadow::geometry).collect()
            }
            ConflictSets::Exact(_) | ConflictSets::Bloom(_) => Vec::new(),
        }
    }

    /// Whether `slot`'s read set (may) hold `granule`, for verify builds'
    /// invariant checks, which shadows do not see: a check steers nothing.
    #[cfg(feature = "verify")]
    pub(crate) fn has_read(&self, slot: usize, granule: u64) -> bool {
        match self {
            ConflictSets::Exact(c) | ConflictSets::Shadowed(c, _) => c.has_read(slot, granule),
            ConflictSets::Bloom(c) => c.may_have_read(slot, granule),
        }
    }

    /// Whether `slot`'s write set (may) hold `granule`, for verify builds'
    /// invariant checks, which shadows do not see.
    #[cfg(feature = "verify")]
    pub(crate) fn has_written(&self, slot: usize, granule: u64) -> bool {
        match self {
            ConflictSets::Exact(c) | ConflictSets::Shadowed(c, _) => c.has_written(slot, granule),
            ConflictSets::Bloom(c) => c.may_have_written(slot, granule),
        }
    }
}

/// Convenience entry point: simulates `program` on `mem` under `cfg`.
///
/// # Errors
///
/// Returns [`SimError`] on architectural faults or internal deadlock.
pub fn simulate(
    program: &Program,
    mem: Memory,
    cfg: LoopFrogConfig,
) -> Result<SimResult, SimError> {
    LoopFrogCore::new(program, mem, cfg).run()
}
