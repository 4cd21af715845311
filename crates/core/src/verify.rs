//! Cycle-level invariant checking and lockstep commit-boundary recording
//! (compiled only with the `verify` cargo feature).
//!
//! The engine calls into [`VerifyState`] from its stage methods to check
//! microarchitectural invariants that must hold on every cycle regardless
//! of program or configuration:
//!
//! - **occupancy conservation** — the shared `rob/lq/sq` occupancy counters
//!   equal the sum of the per-threadlet queue lengths;
//! - **SSB valid-mask ⊆ slice ownership** — valid granule bits never exceed
//!   the line's granule count, and only slices owned by *active* contexts
//!   (never the architectural one, whose stores bypass the SSB) hold data;
//! - **conflict-set ⊇ actual accesses** — immediately after a store drains
//!   (or a load executes), every touched granule is present in the
//!   threadlet's write (read) set;
//! - **store-address barrier** — each threadlet's unknown-address store
//!   index is exactly the un-issued stores of its SQ, and every parked IQ
//!   entry is a load still behind an older unknown-address store of its
//!   threadlet (a lost release is caught at the cycle it happens);
//! - **epoch-order commit** — threadlets retire in strictly increasing
//!   epoch order, and the active list is epoch-sorted every cycle;
//! - **accounting conservation** — cycle-accounting buckets sum to
//!   `cycles × commit_width` at the end of a run;
//! - **quiet spans** — after every quiet tick (one that changed nothing but
//!   the per-cycle statistics) the engine computes the horizon a
//!   production build would jump to, then ticks through it instead: every
//!   tick inside must be quiet with the same statistics, a digest of the
//!   engine state must not change across the span, and the per-cycle
//!   statistics at its end must equal what the skip's bulk addition
//!   predicted (DESIGN.md §7.3, §10.8).
//!
//! Violations are recorded, not panicked, so a fuzzer can shrink the
//! triggering program. With [`VerifyState::record_boundaries`] enabled the
//! engine additionally logs a [`CommitBoundary`] at every threadlet
//! retirement, which `lf-verify` replays against the golden emulator
//! (lockstep differential checking: state is compared at every boundary,
//! not just end-of-run).

/// Architectural snapshot taken at one threadlet commit (retirement)
/// boundary, for lockstep replay against the golden emulator.
#[derive(Debug, Clone)]
pub struct CommitBoundary {
    /// Epoch number of the retiring threadlet.
    pub epoch: u64,
    /// Program-order instruction count through the retiring threadlet's
    /// last committed instruction. The emulator stepped to exactly this
    /// count must hold `regs`.
    pub insts_before: u64,
    /// The retiring threadlet's final architectural register values.
    pub regs: Vec<u64>,
    /// Instruction count after the promoted successor's speculatively
    /// committed epoch is credited. The emulator stepped to this count must
    /// see `mem_checksum_after`.
    pub insts_after: u64,
    /// Architectural memory checksum after the successor's SSB slice was
    /// applied atomically.
    pub mem_checksum_after: u64,
}

/// Cap on retained violation messages (the count keeps incrementing).
const MAX_VIOLATIONS: usize = 16;

/// Invariant-violation log and lockstep recording state, owned by the core.
#[derive(Debug, Clone, Default)]
pub struct VerifyState {
    /// When set, every threadlet retirement records a [`CommitBoundary`]
    /// (includes a full memory checksum per boundary; off by default).
    pub record_boundaries: bool,
    /// Recorded boundaries, oldest first.
    pub boundaries: Vec<CommitBoundary>,
    violations: Vec<String>,
    total_violations: u64,
    pub(crate) last_retired_epoch: Option<u64>,
    /// Number of spawned successors promoted to architectural so far. Each
    /// successor starts fetching *at* its region's reattach pc and commits
    /// that hint once as a no-op before its program-order slice, so
    /// `stats.committed_insts` runs ahead of the golden emulator's
    /// program-order count by exactly this number. Boundary recording
    /// subtracts it to report emulator-comparable counts.
    pub(crate) promoted_spawns: u64,
    /// The latest quiet span, kept (with its storage) after it closes.
    pub(crate) quiet_span: Option<QuietSpan>,
    pub(crate) quiet_cycles: u64,
}

/// A span of cycles a production build would skip, predicted after a quiet
/// tick and checked as a verify build ticks through it.
#[derive(Debug, Clone)]
pub(crate) struct QuietSpan {
    /// Whether the span is being ticked through.
    pub(crate) open: bool,
    /// The first cycle after the span (where a skip would land).
    pub(crate) end: u64,
    /// The quiet tick's statistics, which every tick inside must repeat.
    pub(crate) sample: crate::telemetry::CycleSample,
    /// The per-cycle statistics the skip's bulk addition predicts at `end`.
    pub(crate) predicted: crate::telemetry::CycleStats,
    /// The engine-state digest, which must not change across the span.
    pub(crate) digest: u64,
}

/// Snapshot captured at the top of `retire_arch`, completed after the
/// successor's slice applies.
#[derive(Debug)]
pub(crate) struct BoundaryPre {
    pub(crate) epoch: u64,
    pub(crate) insts_before: u64,
    pub(crate) regs: Vec<u64>,
}

impl VerifyState {
    /// Records an invariant violation (retains the first few verbatim).
    pub(crate) fn violation(&mut self, msg: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    /// The retained violation messages (empty when all invariants held).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total violations observed, including ones past the retention cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Simulated cycles covered by predicted quiet spans: the cycles a
    /// production build of the same run skips instead of ticking.
    pub fn quiet_cycles(&self) -> u64 {
        self.quiet_cycles
    }
}
