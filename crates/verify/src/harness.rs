//! The differential harness: one case, every backend, every check.
//!
//! For each [`CaseSpec`] the harness runs:
//!
//! 1. the **golden emulator** on the plain (hint-free) kernel — the
//!    reference architectural state; a fuel-bounded run whose distinct
//!    "fuel exhausted" status rejects non-terminating generated programs
//!    deterministically;
//! 2. the golden emulator on the **hinted** kernel — hints must be
//!    semantics-free;
//! 3. the **baseline core** (hints as NOPs) — must match golden
//!    (metamorphic property: hints-as-NOPs ≡ baseline) with zero
//!    invariant violations;
//! 4. the **LoopFrog core** with the `verify` feature's cycle-level
//!    invariant checks armed and lockstep boundary recording on — final
//!    state must match golden, zero invariant violations, and every
//!    recorded threadlet commit boundary must match the emulator stepped
//!    to the same instruction count (registers at the retiring epoch's
//!    last instruction, memory checksum after the successor's slice
//!    applied);
//! 5. **metamorphic configurations** — threadlet-count invariance (2 vs
//!    the default) and conflict-granule refinement (2-byte vs 4-byte
//!    granules) must not change architectural results.

use crate::coverage;
use crate::spec::{seeded_memory, CaseSpec, HintMode};
use lf_isa::{Emulator, Program, StateDiff, StopReason};
use loopfrog::{simulate, LoopFrogConfig, LoopFrogCore, SimResult};

/// Emulator step budget per case; generated kernels run well under this,
/// so exhaustion means a non-terminating (rejected) case.
pub const GOLDEN_FUEL: u64 = 2_000_000;

/// Harness switches.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Arm the conflict-detector fault injection in the LoopFrog run
    /// (drops one granule from every write-set insertion).
    pub inject_bug: bool,
    /// Arm the same injection on a deterministic fraction of cases,
    /// gated on the case seed: the same seeds are affected on every
    /// run, so a failing campaign reproduces exactly. `0.0` disables.
    pub inject_bug_rate: f64,
    /// Run the metamorphic configuration variants (off while shrinking,
    /// where only the original failure signal matters).
    pub metamorphic: bool,
}

impl Default for HarnessOptions {
    fn default() -> HarnessOptions {
        HarnessOptions { inject_bug: false, inject_bug_rate: 0.0, metamorphic: true }
    }
}

impl HarnessOptions {
    /// Whether this case's LoopFrog run gets the seeded bug.
    fn injects_bug(&self, spec: &CaseSpec) -> bool {
        self.inject_bug
            || lf_stats::rate_gate(spec.seed, "lf-verify-inject-bug", self.inject_bug_rate)
    }
}

/// What a differential check found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The emulator itself diverged between plain and hinted programs.
    Golden,
    /// The baseline core diverged from golden.
    Baseline,
    /// The LoopFrog core's final state diverged from golden.
    LoopFrog,
    /// A commit boundary disagreed with the emulator stepped in lockstep.
    Lockstep,
    /// A cycle-level invariant was violated (see `loopfrog::verify`).
    Invariant,
    /// A metamorphic configuration variant changed the result.
    Metamorphic,
    /// A simulator error (fault, deadlock) on a program golden accepts.
    Sim,
}

/// A failed case: the kind plus a formatted explanation (state diffs,
/// violation messages).
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which check failed.
    pub kind: FailKind,
    /// Human-readable detail.
    pub detail: String,
}

/// Outcome of running one case through the harness.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// All checks passed; `sig` is the behavioral coverage bitmap.
    Pass {
        /// Coverage signature of the LoopFrog run (see [`crate::coverage`]).
        sig: u32,
    },
    /// The case was rejected before checking (e.g. non-terminating).
    Reject {
        /// Why the case was rejected.
        reason: String,
    },
    /// A check failed.
    Fail(Failure),
}

impl Outcome {
    /// True when the case failed a check.
    pub fn is_fail(&self) -> bool {
        matches!(self, Outcome::Fail(_))
    }
}

fn fail(kind: FailKind, detail: String) -> Outcome {
    Outcome::Fail(Failure { kind, detail })
}

/// Runs `core` to the end. Invariant violations outrank a simulator error:
/// the first violation names the cycle a fault began, while the error (a
/// watchdog deadlock, say) is only its late symptom.
fn checked_run(core: &mut LoopFrogCore<'_>, name: &str) -> Result<SimResult, (FailKind, String)> {
    let r = core.run();
    let vs = core.verify_state();
    if vs.total_violations() > 0 {
        let detail = format!(
            "{name}: {} invariant violation(s):\n  {}",
            vs.total_violations(),
            vs.violations().join("\n  ")
        );
        return Err((FailKind::Invariant, detail));
    }
    r.map_err(|e| (FailKind::Sim, format!("{name} error: {e:?}")))
}

/// Builds the hinted program for a spec, annotating with the compiler pass
/// when the spec asks for it (using a golden profile of the plain kernel).
pub fn hinted_program(spec: &CaseSpec, plain: &Program, profile_emu: &Emulator) -> Program {
    match spec.hint {
        HintMode::None => plain.clone(),
        HintMode::Arbitrary { .. } => spec.build(),
        HintMode::Compiler => {
            let opts = lf_compiler::SelectOptions {
                min_trip: 2.0,
                min_coverage: 0.0,
                min_body_score: 1.0,
                max_loops: 4,
            };
            lf_compiler::annotate(plain, profile_emu.profile(), &opts).program
        }
    }
}

/// Runs one case through every backend and check.
pub fn run_case(spec: &CaseSpec, opts: &HarnessOptions) -> Outcome {
    let mem = seeded_memory(spec.seed);
    let plain = spec.plain().build();

    // 1. Golden reference on the plain kernel.
    let mut gold_emu = Emulator::new(&plain, mem.clone());
    let r = match gold_emu.run(GOLDEN_FUEL) {
        Ok(r) => r,
        Err(e) => return Outcome::Reject { reason: format!("golden fault: {e:?}") },
    };
    if r.stop == StopReason::OutOfFuel {
        // The distinct fuel-exhausted status lets the fuzzer discard
        // non-terminating programs instead of mistaking them for hangs.
        return Outcome::Reject { reason: "non-terminating (golden fuel exhausted)".into() };
    }
    let gold = gold_emu.state_checksum();
    let gold_regs = *gold_emu.regs();

    let hinted = hinted_program(spec, &plain, &gold_emu);

    // 2. Hints must be semantics-free on the emulator itself.
    let mut hint_emu = Emulator::new(&hinted, mem.clone());
    match hint_emu.run(GOLDEN_FUEL) {
        Ok(r) if r.stop == StopReason::Halted => {}
        other => return fail(FailKind::Golden, format!("hinted golden run stopped: {other:?}")),
    }
    if hint_emu.state_checksum() != gold {
        let d =
            StateDiff::compare(&gold_regs, hint_emu.regs(), Some((gold_emu.mem(), hint_emu.mem())));
        return fail(FailKind::Golden, format!("hints changed emulator state:\n{d}"));
    }

    // 3. Baseline core: hints-as-NOPs ≡ baseline, with invariants on (the
    // single-threadlet core fills the largest window).
    let mut base_core = LoopFrogCore::new(&hinted, mem.clone(), LoopFrogConfig::baseline());
    let base = match checked_run(&mut base_core, "baseline") {
        Ok(r) => r,
        Err((kind, detail)) => return fail(kind, detail),
    };
    if base.checksum != gold {
        let d = StateDiff::compare(&gold_regs, &base.final_regs, None);
        return fail(FailKind::Baseline, format!("baseline diverged from golden:\n{d}"));
    }

    // 4. LoopFrog core with invariants and lockstep recording.
    let mut core = LoopFrogCore::new(&hinted, mem.clone(), LoopFrogConfig::default());
    core.set_lockstep_recording(true);
    if opts.injects_bug(spec) {
        core.inject_drop_write_granule();
    }
    let lf = match checked_run(&mut core, "loopfrog") {
        Ok(r) => r,
        Err((kind, detail)) => return fail(kind, detail),
    };
    let vs = core.verify_state();
    if lf.checksum != gold {
        let d = StateDiff::compare(&gold_regs, &lf.final_regs, Some((gold_emu.mem(), core.mem())));
        return fail(FailKind::LoopFrog, format!("loopfrog diverged from golden:\n{d}"));
    }

    // Lockstep replay: step the emulator to each recorded commit boundary
    // and compare architectural state there, not just at end-of-run.
    let mut lock = Emulator::new(&hinted, mem.clone());
    for (i, b) in vs.boundaries.iter().enumerate() {
        if let Err(e) = lock.run_to_inst_count(b.insts_before) {
            return fail(FailKind::Lockstep, format!("emulator fault at boundary {i}: {e:?}"));
        }
        if lock.inst_count() != b.insts_before {
            return fail(
                FailKind::Lockstep,
                format!(
                    "boundary {i} (epoch {}): emulator halted at inst {} before boundary \
                     inst {}",
                    b.epoch,
                    lock.inst_count(),
                    b.insts_before
                ),
            );
        }
        let d = StateDiff::compare(lock.regs(), &b.regs, None);
        if !d.is_empty() {
            return fail(
                FailKind::Lockstep,
                format!(
                    "boundary {i} (epoch {}, inst {}): retiring registers diverged \
                     (golden != core):\n{d}",
                    b.epoch, b.insts_before
                ),
            );
        }
        if let Err(e) = lock.run_to_inst_count(b.insts_after) {
            return fail(FailKind::Lockstep, format!("emulator fault at boundary {i}: {e:?}"));
        }
        if lock.mem().checksum() != b.mem_checksum_after {
            return fail(
                FailKind::Lockstep,
                format!(
                    "boundary {i} (epoch {}, inst {}): memory checksum after slice apply \
                     {:#018x} != golden {:#018x}",
                    b.epoch,
                    b.insts_after,
                    b.mem_checksum_after,
                    lock.mem().checksum()
                ),
            );
        }
    }
    let sig = coverage::signature(&lf.stats);

    // 5. Metamorphic configuration variants.
    if opts.metamorphic {
        let variant = |f: fn(&mut LoopFrogConfig)| {
            let mut c = LoopFrogConfig::default();
            f(&mut c);
            c
        };
        let two_threadlets = variant(|c| c.core.threadlets = 2);
        let fine_granule = variant(|c| c.ssb.granule = 2);
        for (name, cfg) in [("threadlets=2", two_threadlets), ("ssb.granule=2", fine_granule)] {
            match simulate(&hinted, mem.clone(), cfg) {
                Ok(r) if r.checksum == gold => {}
                Ok(r) => {
                    let d = StateDiff::compare(&gold_regs, &r.final_regs, None);
                    return fail(FailKind::Metamorphic, format!("{name} changed the result:\n{d}"));
                }
                Err(e) => {
                    return fail(FailKind::Metamorphic, format!("{name} errored: {e:?}"));
                }
            }
        }
    }

    Outcome::Pass { sig }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::case_from_seed;
    use crate::spec::OpSpec;

    #[test]
    fn historical_regressions_pass() {
        // The cases proptest shrank to in earlier versions of the suite.
        let opts = HarnessOptions::default();
        let cases = [
            CaseSpec {
                seed: 0,
                trip: 4,
                ops: vec![OpSpec::Load { arr: 0, off: 0, dst: 0 }],
                inner: None,
                hint: HintMode::Arbitrary { d: 1, r: 1 },
            },
            CaseSpec {
                seed: 1,
                trip: 4,
                ops: vec![OpSpec::Alu { op: lf_isa::AluOp::Xor, dst: 0, a: 1, b: 1 }],
                inner: None,
                hint: HintMode::Compiler,
            },
            CaseSpec {
                seed: 1,
                trip: 4,
                ops: vec![OpSpec::Alu { op: lf_isa::AluOp::Xor, dst: 0, a: 1, b: 1 }],
                inner: None,
                hint: HintMode::Arbitrary { d: 0, r: 1 },
            },
        ];
        for c in &cases {
            let out = run_case(c, &opts);
            assert!(!out.is_fail(), "{c:?} failed: {out:?}");
        }
    }

    #[test]
    fn injected_conflict_bug_is_caught_and_shrinks_small() {
        // Acceptance criterion: dropping one granule from the write set
        // must be caught by the write-set superset invariant within a small
        // case budget, and the shrinker must reduce the reproducer to at
        // most 20 instructions.
        let opts =
            HarnessOptions { inject_bug: true, metamorphic: false, ..HarnessOptions::default() };
        let mut found = None;
        for case in 0..100u64 {
            let spec = case_from_seed(0xb00_0000 + case);
            if let Outcome::Fail(f) = run_case(&spec, &opts) {
                assert_eq!(f.kind, FailKind::Invariant, "unexpected failure: {f:?}");
                assert!(f.detail.contains("conflict-write-set"), "{}", f.detail);
                found = Some(spec);
                break;
            }
        }
        let spec = found.expect("injected bug not caught within 100 cases");
        let small = crate::shrink::shrink(&spec, &opts);
        let len = small.build().len();
        assert!(len <= 20, "shrunk reproducer has {len} instructions: {small:?}");
        assert!(run_case(&small, &opts).is_fail(), "shrunk case no longer fails");
    }
}
