//! Functional warming of a restored core, built once and installed many
//! times.
//!
//! A [`Checkpoint`]'s hint streams warm the branch predictor and the cache
//! hierarchy before a detailed window runs ([`warm`]). The warmed state
//! depends only on the hint streams and the memory configuration: the
//! predictor's table geometry is fixed, and the replay trains only the
//! shared tables and threadlet 0's history. So a [`WarmState`] replays a
//! checkpoint once per memory configuration, keeps what the replay left
//! (sparsely: a warmed L2 holds a few thousand of its 65,536 lines), and
//! [`crate::LoopFrogCore::from_warm`] installs it into a fresh core of any
//! threadlet count, equal to a core that replayed the streams itself.

use lf_isa::fast::{Checkpoint, WarmHints};
use lf_uarch::{BranchPredictor, HierarchySnapshot, MemConfig, MemHierarchy, PredictorSnapshot};

/// The predictor and cache state one checkpoint's hint streams warm into
/// a fresh core under one memory configuration.
#[derive(Debug)]
pub struct WarmState {
    /// [`Checkpoint::code_fingerprint`] and [`Checkpoint::insts`] of the
    /// checkpoint it was built from.
    code_fingerprint: u64,
    insts: u64,
    predictor: PredictorSnapshot,
    hierarchy: HierarchySnapshot,
}

impl WarmState {
    /// Replays `ckpt`'s hint streams into a fresh predictor and a fresh
    /// hierarchy under `mem`, and keeps the state they leave.
    pub fn new(ckpt: &Checkpoint, mem: &MemConfig) -> WarmState {
        let mut bpred = BranchPredictor::new(1);
        let mut hier = MemHierarchy::new(mem.clone());
        warm(&mut bpred, &mut hier, &ckpt.hints);
        WarmState {
            code_fingerprint: ckpt.code_fingerprint,
            insts: ckpt.insts,
            predictor: bpred.snapshot(),
            hierarchy: hier.snapshot(),
        }
    }

    /// Installs the warmed state into a fresh core's predictor and
    /// hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the state was built from another checkpoint or under
    /// another memory configuration.
    pub(crate) fn install(
        &self,
        ckpt: &Checkpoint,
        bpred: &mut BranchPredictor,
        hier: &mut MemHierarchy,
    ) {
        assert!(
            (self.code_fingerprint, self.insts) == (ckpt.code_fingerprint, ckpt.insts),
            "a warm state installs only with the checkpoint it was built from"
        );
        bpred.install(&self.predictor);
        hier.install(&self.hierarchy);
    }
}

/// Replays a checkpoint's hint streams, in recorded order: each branch
/// outcome through a full predict and resolve on threadlet 0, each
/// indirect target into the BTB, then the fetch lines and the data
/// accesses into the cache tags and stride prefetchers on one shared
/// clock, so I-side and D-side recency stay comparable in the shared L2.
pub(crate) fn warm(bpred: &mut BranchPredictor, hier: &mut MemHierarchy, hints: &WarmHints) {
    for &(pc, taken) in &hints.branches {
        bpred.warm_branch(0, pc as u64, taken);
    }
    for &(pc, target) in &hints.indirect_targets {
        bpred.update_target(pc as u64, target as usize);
    }
    let mut seq = 0u64;
    for &line in &hints.fetch_lines {
        hier.warm_inst(line * 64, seq);
        seq += 1;
    }
    for a in &hints.mem_accesses {
        hier.warm_data(a.pc as u64, a.addr, seq);
        seq += 1;
    }
}
