//! Threadlet contexts (paper §3, §4).
//!
//! A threadlet is a lightweight execution context internal to the core:
//! its own program counter, fetch queue, rename map, logical ROB slice and
//! LSQ slices, plus the epoch bookkeeping LoopFrog needs (checkpoint,
//! detach-region state, packing verification data). Completely transparent
//! to the operating system and the programmer.

use crate::dyninst::{FetchedInst, Uid};
use crate::regset::RegSet;
use lf_isa::RegionId;
use lf_uarch::rename::RenameMap;
use std::collections::VecDeque;

/// A detach whose spawn is deferred until a threadlet context frees: the
/// register state at the detach is held (reference-counted) so the
/// successor can start later with exactly the inherited state.
#[derive(Debug)]
pub(crate) struct PendingSpawn {
    pub region: RegionId,
    pub map: RenameMap,
    /// Packing factor; when > 1, the spawn also waits until every induction
    /// variable's value is ready so predictions are exact.
    pub factor: u32,
    /// `(arch_reg, stride)` for each induction variable to predict.
    pub ivs: Vec<(usize, i64)>,
}

/// Lifecycle state of a hardware threadlet context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtxState {
    /// Unused; may be allocated by a detach spawn.
    Free,
    /// Executing an epoch (speculatively, or architecturally if oldest).
    Active,
}

/// One hardware threadlet context.
#[derive(Debug)]
pub(crate) struct Threadlet {
    pub state: CtxState,
    /// Strictly increasing epoch number (program order of epochs).
    pub epoch: u64,

    // ---- fetch side ----
    pub fetch_pc: usize,
    /// Cycle at which fetch may proceed (spawn latency, redirect penalty,
    /// I-cache miss).
    pub fetch_ready: u64,
    /// Fetch has stopped (halting reattach, halt instruction, or awaiting
    /// an unpredictable indirect target).
    pub fetch_halted: bool,
    /// `fetch_halted` because of a region reattach (may be resumed if the
    /// corresponding detach fails to spawn at rename).
    pub fetch_halt_is_reattach: bool,
    /// Fetch stalled on an indirect jump with no prediction.
    pub fetch_stalled_indirect: bool,
    /// Fetch-side detach-region state.
    pub fetch_region: Option<RegionId>,
    /// Fetch-side remaining packed iterations before the halting reattach.
    pub fetch_iters: u32,
    pub fetch_queue: VecDeque<FetchedInst>,
    /// Byte address of the last I-cache line fetched (fetch groups within a
    /// line reuse the lookup).
    pub fetch_line: Option<u64>,

    // ---- rename side ----
    pub map: Option<RenameMap>,
    pub ren_region: Option<RegionId>,
    pub ren_iters: u32,
    /// Dynamic instructions renamed since the last detach of the current
    /// region (trains the epoch-size EMA).
    pub insts_since_detach: u64,
    /// Architectural registers written in the current iteration.
    pub iter_written: RegSet,
    /// Architectural registers read before being written in the current
    /// iteration (live-ins).
    pub iter_rbw: RegSet,

    // ---- window slices ----
    pub rob: VecDeque<Uid>,
    pub lq: VecDeque<Uid>,
    pub sq: VecDeque<Uid>,
    /// The stores of `sq` that have not issued (address unknown), oldest
    /// first. The front is the threadlet's store-address barrier: no
    /// younger load may issue.
    pub unknown_stores: VecDeque<Uid>,

    // ---- epoch bookkeeping ----
    /// Register checkpoint taken at epoch start (spawn); restored on squash.
    pub checkpoint: Option<RenameMap>,
    /// Epoch start PC (the continuation address).
    pub checkpoint_pc: usize,
    /// Packing predictions to verify at the parent's halting reattach:
    /// `(arch_reg, predicted_value)`.
    pub predicted_regs: Vec<(usize, u64)>,
    /// Architectural registers this epoch read before writing (consumption
    /// check for packing repair). Updated at rename; may transiently
    /// contain wrong-path entries until the squash walk-back.
    pub read_before_write: RegSet,
    /// Architectural registers this epoch has written (rename-time; may
    /// transiently contain wrong-path entries).
    pub written_regs: RegSet,
    /// Exact committed-prefix version of `read_before_write`.
    pub c_read_before_write: RegSet,
    /// Exact committed-prefix version of `written_regs`.
    pub c_written_regs: RegSet,

    // ---- lifecycle ----
    /// The epoch's halting reattach (or a halt) has committed; the context
    /// waits to become oldest and retire.
    pub finished: bool,
    /// The epoch ended at a `halt` instruction: program ends at promotion.
    pub finished_with_halt: bool,
    /// Cycle at which the finished, oldest threadlet may retire (conflict
    /// check drain delay).
    pub retire_at: Option<u64>,
    /// Instructions committed-to-threadlet during the current epoch while
    /// speculative (classified success/failure at promotion/squash).
    pub committed_this_epoch: u64,
    /// Total instructions committed this epoch (speculative and
    /// architectural), for the dynamic deselector's size estimate.
    pub epoch_committed_total: u64,
    /// The context may not be re-allocated before this cycle (SSB slice
    /// background flush).
    pub slice_flush_until: u64,
    /// Spawning context, if any (diagnostics).
    pub parent: Option<usize>,
    /// Current successor context spawned by this epoch's detach.
    pub spawned_child: Option<usize>,
    /// The region whose detach spawned this threadlet (guards sync squash).
    pub spawn_region: Option<RegionId>,
    /// A spawn waiting for a free context (only ever on the youngest).
    pub pending_spawn: Option<PendingSpawn>,
    /// This epoch already reported an SSB overflow to the deselector.
    pub overflow_reported: bool,
}

impl Threadlet {
    pub fn new_free() -> Threadlet {
        Threadlet {
            state: CtxState::Free,
            epoch: 0,
            fetch_pc: 0,
            fetch_ready: 0,
            fetch_halted: false,
            fetch_halt_is_reattach: false,
            fetch_stalled_indirect: false,
            fetch_region: None,
            fetch_iters: 0,
            fetch_queue: VecDeque::new(),
            fetch_line: None,
            map: None,
            ren_region: None,
            ren_iters: 0,
            insts_since_detach: 0,
            iter_written: RegSet::default(),
            iter_rbw: RegSet::default(),
            rob: VecDeque::new(),
            lq: VecDeque::new(),
            sq: VecDeque::new(),
            unknown_stores: VecDeque::new(),
            checkpoint: None,
            checkpoint_pc: 0,
            predicted_regs: Vec::new(),
            read_before_write: RegSet::default(),
            written_regs: RegSet::default(),
            c_read_before_write: RegSet::default(),
            c_written_regs: RegSet::default(),
            finished: false,
            finished_with_halt: false,
            retire_at: None,
            committed_this_epoch: 0,
            epoch_committed_total: 0,
            slice_flush_until: 0,
            parent: None,
            spawned_child: None,
            spawn_region: None,
            pending_spawn: None,
            overflow_reported: false,
        }
    }

    /// Frees the context in place: every field takes its
    /// [`Threadlet::new_free`] value, but the fetch queue, window slices,
    /// `unknown_stores` and `predicted_regs` are emptied, not dropped, so
    /// the next epoch reuses their storage.
    pub fn reset_free(&mut self) {
        fn emptied<T>(q: &mut VecDeque<T>) -> VecDeque<T> {
            let mut q = std::mem::take(q);
            q.clear();
            q
        }
        let mut predicted_regs = std::mem::take(&mut self.predicted_regs);
        predicted_regs.clear();
        *self = Threadlet {
            fetch_queue: emptied(&mut self.fetch_queue),
            rob: emptied(&mut self.rob),
            lq: emptied(&mut self.lq),
            sq: emptied(&mut self.sq),
            unknown_stores: emptied(&mut self.unknown_stores),
            predicted_regs,
            ..Threadlet::new_free()
        };
    }

    /// Verify-build invariant: a Free context owns no window entries,
    /// register maps, or deferred spawns (they would leak physical
    /// registers and occupancy on reallocation).
    #[cfg(feature = "verify")]
    pub fn verify_free_is_empty(&self) -> bool {
        self.state != CtxState::Free
            || (self.rob.is_empty()
                && self.lq.is_empty()
                && self.sq.is_empty()
                && self.unknown_stores.is_empty()
                && self.map.is_none()
                && self.checkpoint.is_none()
                && self.pending_spawn.is_none()
                && !self.finished)
    }

    /// Resets all per-epoch execution state, keeping the checkpoint and
    /// packing predictions (used by squash-restart).
    pub fn reset_for_restart(&mut self, now: u64, refill_latency: u64) {
        self.fetch_pc = self.checkpoint_pc;
        self.fetch_ready = now + refill_latency;
        self.fetch_halted = false;
        self.fetch_halt_is_reattach = false;
        self.fetch_stalled_indirect = false;
        self.fetch_region = None;
        self.fetch_iters = 0;
        self.fetch_queue.clear();
        self.fetch_line = None;
        self.ren_region = None;
        self.ren_iters = 0;
        self.insts_since_detach = 0;
        self.iter_written.clear();
        self.iter_rbw.clear();
        self.read_before_write.clear();
        self.written_regs.clear();
        self.c_read_before_write.clear();
        self.c_written_regs.clear();
        self.finished = false;
        self.finished_with_halt = false;
        self.retire_at = None;
        self.committed_this_epoch = 0;
        self.epoch_committed_total = 0;
        self.spawned_child = None;
        self.overflow_reported = false;
        debug_assert!(self.pending_spawn.is_none(), "caller releases pending spawns");
        debug_assert!(self.rob.is_empty() && self.lq.is_empty() && self.sq.is_empty());
        debug_assert!(self.unknown_stores.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::InstArena;
    use crate::dyninst::DynInst;
    use lf_uarch::PhysRegFile;

    /// Freeing a context in place leaves the same field values as a new
    /// free context. The literal names every field, so a field added later
    /// must be populated here too. (`VecDeque`'s `Debug` hides capacity, so
    /// kept storage does not show.)
    #[test]
    fn reset_free_matches_new_free() {
        let mut prf = PhysRegFile::new(256);
        let fetched = FetchedInst {
            pc: 7,
            inst: lf_isa::Inst::Nop,
            bp: None,
            pred_next: 8,
            pack_factor: 2,
            pack_predictions: vec![(1, 2, 3)],
            suppressed: true,
        };
        let mut arena = InstArena::new();
        let uid = arena.insert(DynInst::new(0, &fetched));
        let region = Some(RegionId(3));
        let regs: RegSet = [1, 2].into_iter().collect();
        let mut t = Threadlet {
            state: CtxState::Active,
            epoch: 9,
            fetch_pc: 11,
            fetch_ready: 12,
            fetch_halted: true,
            fetch_halt_is_reattach: true,
            fetch_stalled_indirect: true,
            fetch_region: region,
            fetch_iters: 4,
            fetch_queue: VecDeque::from([fetched]),
            fetch_line: Some(64),
            map: Some(RenameMap::new_initial(&mut prf)),
            ren_region: region,
            ren_iters: 5,
            insts_since_detach: 6,
            iter_written: regs,
            iter_rbw: regs,
            rob: VecDeque::from([uid]),
            lq: VecDeque::from([uid]),
            sq: VecDeque::from([uid]),
            unknown_stores: VecDeque::from([uid]),
            checkpoint: Some(RenameMap::new_initial(&mut prf)),
            checkpoint_pc: 13,
            predicted_regs: vec![(1, 99)],
            read_before_write: regs,
            written_regs: regs,
            c_read_before_write: regs,
            c_written_regs: regs,
            finished: true,
            finished_with_halt: true,
            retire_at: Some(14),
            committed_this_epoch: 15,
            epoch_committed_total: 16,
            slice_flush_until: 17,
            parent: Some(1),
            spawned_child: Some(2),
            spawn_region: region,
            pending_spawn: Some(PendingSpawn {
                region: RegionId(3),
                map: RenameMap::new_initial(&mut prf),
                factor: 2,
                ivs: vec![(1, 4)],
            }),
            overflow_reported: true,
        };
        t.reset_free();
        assert_eq!(format!("{t:?}"), format!("{:?}", Threadlet::new_free()));
    }
}
