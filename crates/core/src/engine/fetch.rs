//! Fetch stage: per-threadlet instruction fetch along the predicted path,
//! with fetch-side interpretation of LoopFrog hints (detach-region tracking,
//! reattach halt, packing iteration counts).

use super::LoopFrogCore;
use crate::dyninst::FetchedInst;
use crate::threadlet::CtxState;
use lf_isa::{HintKind, Inst};

/// Instruction word size in bytes (for I-cache addressing).
pub(crate) const INST_BYTES: u64 = 4;

impl LoopFrogCore<'_> {
    /// Fetches up to `width` instructions across threadlets, oldest first.
    pub(super) fn do_fetch(&mut self) {
        let mut budget = self.cfg.core.width;
        // Fetch never changes `order`, so it can walk it by index.
        for i in 0..self.order.len() {
            if budget == 0 {
                break;
            }
            budget = self.fetch_threadlet(self.order[i], budget);
        }
    }

    /// Fetches for one threadlet; returns the remaining fetch budget.
    fn fetch_threadlet(&mut self, tid: usize, mut budget: usize) -> usize {
        let spec = self.cfg.speculation;
        let fq_cap = self.cfg.core.fetch_queue_size;
        {
            let t = &self.ctx[tid];
            if t.state != CtxState::Active
                || t.fetch_halted
                || t.fetch_stalled_indirect
                || self.cycle < t.fetch_ready
            {
                return budget;
            }
        }

        while budget > 0 && self.ctx[tid].fetch_queue.len() < fq_cap {
            let pc = self.ctx[tid].fetch_pc;

            // I-cache: one lookup per line; a miss stalls this threadlet.
            let line_bytes = 64;
            let addr = pc as u64 * INST_BYTES;
            let line = addr / line_bytes;
            if self.ctx[tid].fetch_line != Some(line) {
                let ready = self.hier.access_inst(addr, self.cycle);
                if ready > self.cycle + 1 {
                    self.ctx[tid].fetch_ready = ready;
                    self.stats.fetch_icache_stalls += 1;
                    break;
                }
                self.ctx[tid].fetch_line = Some(line);
            }

            let Some(inst) = self.program.fetch(pc) else {
                // Off the end of the program: necessarily a wrong path (or a
                // program bug caught when the faulting control instruction
                // reaches the architectural head). Stall until redirected.
                self.ctx[tid].fetch_stalled_indirect = true;
                self.state_changed = true;
                break;
            };

            let mut fetched = FetchedInst {
                pc,
                inst,
                bp: None,
                pred_next: pc + 1,
                pack_factor: 1,
                pack_predictions: Vec::new(),
                suppressed: false,
            };
            let mut stop_after = false; // taken control flow ends the group
            match inst {
                Inst::Branch { .. } => {
                    let lookup = self.bpred.predict_branch(tid, pc as u64);
                    let target = match inst {
                        Inst::Branch { target, .. } => target,
                        _ => unreachable!(),
                    };
                    fetched.pred_next = if lookup.taken { target } else { pc + 1 };
                    fetched.bp = Some(lookup);
                    stop_after = lookup.taken;
                }
                Inst::Jump { target } => {
                    fetched.pred_next = target;
                    stop_after = true;
                }
                Inst::Call { target, .. } => {
                    self.bpred.on_call(tid, pc + 1);
                    fetched.pred_next = target;
                    stop_after = true;
                }
                Inst::JumpReg { .. } => {
                    match self.bpred.predict_indirect(tid, pc as u64) {
                        Some(t) => {
                            fetched.pred_next = t;
                            stop_after = true;
                        }
                        None => {
                            // No prediction: fetch waits for resolution.
                            fetched.pred_next = pc + 1;
                            self.ctx[tid].fetch_stalled_indirect = true;
                            stop_after = true;
                        }
                    }
                }
                Inst::Hint { kind, region } if spec => {
                    // Dynamic deselection (§5.1): a suppressed region's
                    // hints degenerate to NOPs at fetch.
                    if matches!(kind, HintKind::Detach)
                        && self.ctx[tid].fetch_region.is_none()
                        && self.deselect.is_suppressed(region)
                    {
                        fetched.suppressed = true;
                        if self.observing() {
                            self.emit(crate::trace::TraceEvent::Deselect {
                                cycle: self.cycle,
                                tid,
                                region,
                            });
                        }
                    }
                    let t = &mut self.ctx[tid];
                    match kind {
                        HintKind::Detach => {
                            if !fetched.suppressed && t.fetch_region.is_none() {
                                let decision = self.packing.decide(region);
                                let t = &mut self.ctx[tid];
                                t.fetch_region = Some(region);
                                t.fetch_iters = decision.factor;
                                fetched.pack_factor = decision.factor;
                                fetched.pack_predictions = decision.predictions;
                            }
                        }
                        HintKind::Reattach => {
                            if t.fetch_region == Some(region) {
                                if t.fetch_iters <= 1 {
                                    // Epoch ends here: successor covers the
                                    // continuation.
                                    t.fetch_halted = true;
                                    t.fetch_halt_is_reattach = true;
                                    stop_after = true;
                                } else {
                                    t.fetch_iters -= 1;
                                }
                            }
                        }
                        HintKind::Sync => {
                            if t.fetch_region == Some(region) {
                                t.fetch_region = None;
                                t.fetch_iters = 0;
                            }
                        }
                    }
                }
                Inst::Hint { .. } => {} // speculation off: pure NOP
                Inst::Halt => {
                    self.ctx[tid].fetch_halted = true;
                    stop_after = true;
                }
                _ => {}
            }

            let next = fetched.pred_next;
            self.ctx[tid].fetch_queue.push_back(fetched);
            self.ctx[tid].fetch_pc = next;
            self.stats.fetched_insts += 1;
            budget -= 1;
            if stop_after {
                // Redirected fetch resumes on a new line next cycle.
                self.ctx[tid].fetch_line = None;
                break;
            }
        }
        budget
    }
}
