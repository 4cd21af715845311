//! The combined front-end branch predictor.
//!
//! TAGE direction prediction with a loop-predictor override, a BTB for
//! targets, and a return-address stack — the L-TAGE arrangement from
//! Table 1. Prediction tables are shared by all threadlets; global history
//! and the RAS are per threadlet, matching the paper ("Tables shared and
//! updated by all contexts. (Global) history per threadlet").

pub mod btb;
pub mod loop_pred;
pub mod tage;

pub use btb::{Btb, Ras};
pub use loop_pred::{LoopLookup, LoopPredictor};
pub use tage::{History, Tage, TageLookup};

/// The result of a conditional-branch prediction; retain it and pass it back
/// to [`BranchPredictor::update_branch`] at resolve time.
#[derive(Debug, Clone, Copy)]
pub struct BpLookup {
    /// Final predicted direction.
    pub taken: bool,
    /// The TAGE component's lookup state.
    tage: TageLookup,
    /// Whether the loop predictor supplied the final direction.
    used_loop: bool,
    /// Global history before this branch (needed for training and repair).
    pub hist_before: History,
}

/// Shared-table, per-threadlet-history branch predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    tage: Tage,
    loops: LoopPredictor,
    btb: Btb,
    ras: Vec<Ras>,
    hist: Vec<History>,
}

/// What warming ([`BranchPredictor::warm_branch`] on threadlet 0,
/// [`BranchPredictor::update_target`]) leaves in a fresh
/// [`BranchPredictor`]: the shared TAGE and loop tables, the BTB's valid
/// entries (kept sparsely: at most one per indirect-jump pc the warming
/// saw, of 4,096 slots), and threadlet 0's global history. Warming touches no RAS and no other
/// threadlet, and the table geometry is fixed, so a snapshot installs into
/// a predictor of any threadlet count.
#[derive(Debug)]
pub struct PredictorSnapshot {
    tage: Tage,
    loops: LoopPredictor,
    btb: Vec<(u64, usize)>,
    history: History,
}

impl BranchPredictor {
    /// Creates a predictor supporting `threadlets` contexts.
    pub fn new(threadlets: usize) -> BranchPredictor {
        BranchPredictor {
            tage: Tage::new(),
            loops: LoopPredictor::new(256),
            btb: Btb::new(4096),
            ras: (0..threadlets).map(|_| Ras::new(48)).collect(),
            hist: vec![History::default(); threadlets],
        }
    }

    /// The current speculative global history of a threadlet.
    pub fn history(&self, tid: usize) -> History {
        self.hist[tid]
    }

    /// Copies predictor context (history) from a parent threadlet to a
    /// freshly spawned one, and clears the child's RAS.
    pub fn clone_context(&mut self, parent: usize, child: usize) {
        self.hist[child] = self.hist[parent];
        self.ras[child] = Ras::new(48);
    }

    /// Predicts the conditional branch at `pc` for threadlet `tid`,
    /// speculatively updating that threadlet's history.
    pub fn predict_branch(&mut self, tid: usize, pc: u64) -> BpLookup {
        let hist_before = self.hist[tid];
        let tage = self.tage.predict(pc, hist_before);
        let (taken, used_loop) = match self.loops.predict(pc).taken {
            Some(dir) => (dir, true),
            None => (tage.taken, false),
        };
        self.hist[tid].push(taken);
        BpLookup { taken, tage, used_loop, hist_before }
    }

    /// Resolves a conditional branch: trains TAGE and the loop predictor and
    /// repairs this threadlet's speculative history if mispredicted.
    pub fn update_branch(&mut self, tid: usize, pc: u64, lookup: BpLookup, taken: bool) {
        self.tage.update(pc, lookup.hist_before, lookup.tage, taken);
        self.loops.update(pc, taken);
        if lookup.taken != taken {
            let mut h = lookup.hist_before;
            h.push(taken);
            self.hist[tid] = h;
        }
        let _ = lookup.used_loop;
    }

    /// Warms the predictor with one recorded branch outcome from a
    /// checkpoint's functional-warming stream: a full predict + resolve
    /// round on `tid`, so TAGE, the loop predictor, and the threadlet's
    /// global history end exactly where a live execution of the same
    /// branch sequence would leave them. Replay the stream in recorded
    /// (chronological) order.
    pub fn warm_branch(&mut self, tid: usize, pc: u64, taken: bool) {
        let lookup = self.predict_branch(tid, pc);
        self.update_branch(tid, pc, lookup, taken);
    }

    /// The state warming has added to this predictor since
    /// [`BranchPredictor::new`] (see [`PredictorSnapshot`]).
    pub fn snapshot(&self) -> PredictorSnapshot {
        debug_assert!(
            self.ras.iter().all(|r| r.depth() == 0)
                && self.hist[1..].iter().all(|&h| h == History::default()),
            "a snapshot is taken of a predictor that has only been warmed"
        );
        PredictorSnapshot {
            tage: self.tage.clone(),
            loops: self.loops.clone(),
            btb: self.btb.entries().collect(),
            history: self.hist[0],
        }
    }

    /// Installs `snap` into this predictor, fresh from
    /// [`BranchPredictor::new`], leaving it equal to one that replayed the
    /// snapshot's warming with this predictor's threadlet count.
    pub fn install(&mut self, snap: &PredictorSnapshot) {
        self.tage.clone_from(&snap.tage);
        self.loops.clone_from(&snap.loops);
        for &(pc, target) in &snap.btb {
            self.btb.update(pc, target);
        }
        self.hist[0] = snap.history;
    }

    /// Predicts the target of an indirect jump (return) for `tid`: RAS first,
    /// BTB as fallback.
    pub fn predict_indirect(&mut self, tid: usize, pc: u64) -> Option<usize> {
        self.ras[tid].pop().or_else(|| self.btb.lookup(pc))
    }

    /// Notes a call instruction: pushes the return address on `tid`'s RAS.
    pub fn on_call(&mut self, tid: usize, return_addr: usize) {
        self.ras[tid].push(return_addr);
    }

    /// Installs the resolved target of an indirect or BTB-miss control
    /// instruction.
    pub fn update_target(&mut self, pc: u64, target: usize) {
        self.btb.update(pc, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_override_beats_tage_on_exits() {
        let mut bp = BranchPredictor::new(1);
        let pc = 0x40;
        // Train a loop with trip count 7 for many visits.
        for _ in 0..20 {
            for i in 0..=7 {
                let taken = i < 7;
                let l = bp.predict_branch(0, pc);
                bp.update_branch(0, pc, l, taken);
            }
        }
        // Now every iteration including the exit should be predicted.
        let mut correct = 0;
        for i in 0..=7 {
            let taken = i < 7;
            let l = bp.predict_branch(0, pc);
            if l.taken == taken {
                correct += 1;
            }
            bp.update_branch(0, pc, l, taken);
        }
        assert_eq!(correct, 8);
    }

    #[test]
    fn history_repair_on_mispredict() {
        let mut bp = BranchPredictor::new(1);
        let l = bp.predict_branch(0, 0x10);
        // Force the opposite outcome; history must equal before+actual.
        let actual = !l.taken;
        bp.update_branch(0, 0x10, l, actual);
        let mut expect = l.hist_before;
        expect.push(actual);
        assert_eq!(bp.history(0), expect);
    }

    #[test]
    fn ras_predicts_matching_return() {
        let mut bp = BranchPredictor::new(2);
        bp.on_call(1, 123);
        assert_eq!(bp.predict_indirect(1, 0x99), Some(123));
        // Empty RAS falls back to BTB.
        bp.update_target(0x99, 55);
        assert_eq!(bp.predict_indirect(1, 0x99), Some(55));
    }

    #[test]
    fn warm_branch_replay_matches_live_training() {
        // Replaying a recorded outcome stream through warm_branch leaves
        // the predictor in the same state as living through it: both
        // predict the next visits identically.
        let stream: Vec<(u64, bool)> = (0..200).map(|i| (0x40 + (i % 3) * 8, i % 7 != 0)).collect();
        let mut live = BranchPredictor::new(1);
        for &(pc, taken) in &stream {
            let l = live.predict_branch(0, pc);
            live.update_branch(0, pc, l, taken);
        }
        let mut warmed = BranchPredictor::new(1);
        for &(pc, taken) in &stream {
            warmed.warm_branch(0, pc, taken);
        }
        assert_eq!(warmed.history(0), live.history(0));
        for pc in [0x40, 0x48, 0x50] {
            let a = live.predict_branch(0, pc);
            let b = warmed.predict_branch(0, pc);
            assert_eq!(a.taken, b.taken, "warmed and live disagree at {pc:#x}");
        }
    }

    /// Warms `bp` with a branch stream from a loop, a biased branch and an
    /// alternating one, plus a few indirect targets.
    fn warm_stream(bp: &mut BranchPredictor) {
        for i in 0..3_000u64 {
            let (pc, taken) = match i % 4 {
                0 => (0x40, i % 52 != 0),
                1 => (0x48, i % 12 != 1),
                _ => (0x50 + (i % 3) * 8, (i / 4) % 2 == 0),
            };
            bp.warm_branch(0, pc, taken);
        }
        for pc in [0x90u64, 0x98, 0x90 + 4096] {
            bp.update_target(pc, pc as usize / 8);
        }
    }

    /// A fresh predictor of any threadlet count that installs a warmed
    /// one-threadlet predictor's snapshot equals one that warmed itself.
    #[test]
    fn installed_snapshot_equals_a_warmed_predictor_of_any_threadlet_count() {
        let mut one = BranchPredictor::new(1);
        warm_stream(&mut one);
        let snap = one.snapshot();
        assert_eq!(snap.btb.len(), 2, "the BTB is kept sparsely");
        for threadlets in [1, 2, 4] {
            let mut warmed = BranchPredictor::new(threadlets);
            warm_stream(&mut warmed);
            let mut installed = BranchPredictor::new(threadlets);
            installed.install(&snap);
            assert!(installed == warmed, "{threadlets} threadlets");
        }
    }

    #[test]
    fn per_threadlet_history_is_independent() {
        let mut bp = BranchPredictor::new(2);
        let l0 = bp.predict_branch(0, 0x10);
        let _ = bp.predict_branch(0, 0x10);
        assert_eq!(bp.history(1), History::default());
        bp.clone_context(0, 1);
        assert_ne!(bp.history(1), l0.hist_before);
        assert_eq!(bp.history(1), bp.history(0));
    }
}
