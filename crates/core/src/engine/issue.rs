//! Issue/execute stage and writeback.
//!
//! Ready instructions issue from the shared queue oldest-first, claim a
//! functional unit, compute their result (reading the physical register
//! file), and schedule a completion event. Loads go through the LSQ
//! disambiguation rules and the SSB (speculative threadlets) or the L1D
//! (architectural threadlet); branch resolution happens at completion.
//!
//! A load behind its threadlet's store-address barrier (an older store
//! whose address is unknown) parks in the IQ instead of being re-offered
//! every cycle; the store whose issue moves the barrier past it releases
//! it within the same select pass (DESIGN.md §10.5).

use super::LoopFrogCore;
use crate::dyninst::Uid;
use lf_isa::{emu, Inst, MemSize};
use lf_uarch::{AccessKind, IssueQueue, Offer, PhysReg};

/// The `Copy` subset of a [`crate::dyninst::DynInst`] that the issue path
/// reads. Extracted up front so an issue *attempt* — the IQ re-offers a
/// ready entry each cycle until its structural hazard clears — costs one
/// arena lookup and a small register-sized copy instead of a full `DynInst`
/// clone (which heap-allocates for `iv_capture`).
#[derive(Clone, Copy)]
struct IssueView {
    uid: Uid,
    tid: usize,
    pc: usize,
    inst: Inst,
    srcs: [Option<PhysReg>; 2],
}

impl IssueView {
    fn of(d: &crate::dyninst::DynInst) -> IssueView {
        IssueView { uid: d.uid, tid: d.tid, pc: d.pc, inst: d.inst, srcs: d.srcs }
    }
}

impl LoopFrogCore<'_> {
    /// Issues ready instructions up to the aggregate execution bandwidth.
    pub(super) fn do_issue(&mut self) {
        if !self.iq.has_ready() {
            return;
        }
        // Aggregate issue bandwidth: bounded by total execution pipes.
        let fu = &self.cfg.core.fu;
        let width = fu.int_alu + fu.int_mul_div + fu.fp + fu.load + fu.store;
        let mut iq = std::mem::replace(&mut self.iq, IssueQueue::new(0));
        let issued = iq.select(width, |uid, _tid| self.try_issue_one(uid));
        self.iq = iq;
        self.stats.issued_insts += issued as u64;
    }

    /// Attempts to issue one instruction. A rejected or parked offer
    /// claims no pipe and writes no instruction state; a park still moves
    /// the entry in the IQ, so it flags `state_changed`.
    fn try_issue_one(&mut self, uid: Uid) -> Offer<Uid> {
        let v = IssueView::of(self.slab.get(uid).expect("IQ entries are live"));
        debug_assert!(!self.slab[uid].issued);

        // Loads must pass memory disambiguation before claiming a pipe.
        let mut forwarded = None;
        if let Inst::Load { offset, size, .. } = v.inst {
            // Behind the store-address barrier: park until that store issues.
            let t = &self.ctx[v.tid];
            if t.unknown_stores.front().is_some_and(|&s| s < v.uid) {
                self.state_changed = true;
                return Offer::Park;
            }
            let base = v.srcs[0].map(|p| self.prf.read(p)).unwrap_or(0);
            match self.search_sq(v, base.wrapping_add(offset as u64), size.bytes()) {
                SqHit::Overlap => return Offer::Reject,
                SqHit::Forward(value) => forwarded = Some(value),
                SqHit::Miss => {}
            }
        }

        let class = v.inst.fu_class();
        let latency = v.inst.exec_latency();
        if !self.fu.try_issue(class, self.cycle, latency) {
            return Offer::Reject;
        }

        let read =
            |core: &Self, p: Option<PhysReg>| -> u64 { p.map(|p| core.prf.read(p)).unwrap_or(0) };

        let mut complete_at = self.cycle + latency;
        let mut result = 0u64;
        let mut actual_next = v.pc + 1;
        let mut verdict = Offer::Accept;
        match v.inst {
            Inst::Alu { op, a: _, b, .. } => {
                let av = read(self, v.srcs[0]);
                let bv = match b {
                    lf_isa::Operand::Reg(_) => read(self, v.srcs[1]),
                    lf_isa::Operand::Imm(i) => i as u64,
                };
                result = emu::eval_alu(op, av, bv);
            }
            Inst::Fpu { op, .. } => {
                result = emu::eval_fpu(op, read(self, v.srcs[0]), read(self, v.srcs[1]));
            }
            Inst::MovImm { imm, .. } => result = imm as u64,
            Inst::Branch { cond, target, .. } => {
                let taken = emu::eval_branch(cond, read(self, v.srcs[0]), read(self, v.srcs[1]));
                actual_next = if taken { target } else { v.pc + 1 };
            }
            Inst::JumpReg { .. } => {
                actual_next = read(self, v.srcs[0]) as usize;
            }
            Inst::Load { offset, size, signed, .. } => {
                let addr = read(self, v.srcs[0]).wrapping_add(offset as u64);
                match self.execute_load(v, addr, size, forwarded) {
                    LoadOutcome::Value { value, ready } => {
                        result = emu::extend_load(value, size, signed);
                        complete_at = ready;
                    }
                    LoadOutcome::Fault => {
                        let e = self.slab.get_mut(uid).expect("live");
                        e.issued = true;
                        e.eff_addr = Some(addr);
                        e.faulted = true;
                        return Offer::Accept; // leaves the IQ; never completes
                    }
                }
                self.slab.get_mut(uid).expect("live").eff_addr = Some(addr);
            }
            Inst::Store { offset, size, .. } => {
                // Sources: [base, data].
                let addr = read(self, v.srcs[0]).wrapping_add(offset as u64);
                let data = read(self, v.srcs[1]);
                let e = self.slab.get_mut(uid).expect("live");
                e.eff_addr = Some(addr);
                e.store_data = data;
                verdict = self.resolve_store_address(v.tid, uid);
                if addr.checked_add(size.bytes()).is_none_or(|end| end > self.mem.len() as u64) {
                    let e = self.slab.get_mut(uid).expect("live");
                    e.issued = true;
                    e.faulted = true;
                    return verdict;
                }
            }
            _ => unreachable!("non-executing instruction in IQ: {:?}", v.inst),
        }

        let e = self.slab.get_mut(uid).expect("live");
        e.issued = true;
        e.result = result;
        e.actual_next = actual_next;
        self.completions.schedule(complete_at.max(self.cycle + 1), uid);
        if self.observing() {
            self.emit(crate::trace::TraceEvent::Issue {
                cycle: self.cycle,
                tid: v.tid,
                uid: uid.seq(),
            });
        }
        verdict
    }

    /// Removes issuing store `uid` from its threadlet's unknown-address
    /// index. When the store was the barrier, the verdict releases the
    /// parked loads the barrier no longer blocks: those older than the next
    /// unknown-address store, or all of the threadlet's when none is left.
    fn resolve_store_address(&mut self, tid: usize, uid: Uid) -> Offer<Uid> {
        let unknown = &mut self.ctx[tid].unknown_stores;
        if unknown.front() == Some(&uid) {
            unknown.pop_front();
            return Offer::AcceptRelease { tid, below: unknown.front().copied() };
        }
        let pos = unknown.binary_search(&uid).expect("an issuing store's address is unknown");
        unknown.remove(pos);
        Offer::Accept
    }

    /// Memory disambiguation for a load whose older stores all have known
    /// addresses (conservative), in one store-queue pass that starts at the
    /// load's age: the youngest older store that overlaps the load decides.
    /// If it fully contains the load it forwards; a partial overlap delays
    /// the load until that store drains.
    fn search_sq(&self, v: IssueView, addr: u64, len: u64) -> SqHit {
        let sq = &self.ctx[v.tid].sq;
        let older = sq.partition_point(|&s| s < v.uid);
        for &suid in sq.range(..older).rev() {
            let s = &self.slab[suid];
            if s.drained || s.faulted {
                continue;
            }
            let (sa, sl) = (s.eff_addr.expect("issued"), store_len(&s.inst));
            if sa <= addr && addr + len <= sa + sl {
                let bytes = s.store_data.to_le_bytes();
                let off = (addr - sa) as usize;
                let mut buf = [0u8; 8];
                buf[..len as usize].copy_from_slice(&bytes[off..off + len as usize]);
                return SqHit::Forward(u64::from_le_bytes(buf));
            }
            if sa < addr + len && addr < sa + sl {
                return SqHit::Overlap;
            }
        }
        SqHit::Miss
    }

    /// Executes a load's data access: the value `forwarded` from its own
    /// SQ, else SSB + L1D (speculative) or L1D (architectural).
    fn execute_load(
        &mut self,
        v: IssueView,
        addr: u64,
        size: MemSize,
        forwarded: Option<u64>,
    ) -> LoadOutcome {
        let len = size.bytes();
        if let Some(value) = forwarded {
            return LoadOutcome::Value { value, ready: self.cycle + 1 };
        }

        // Memory path. Bounds check against the architectural image.
        if addr.checked_add(len).is_none_or(|end| end > self.mem.len() as u64) {
            return LoadOutcome::Fault;
        }
        let granules = self.access_granules(addr, len);
        let is_arch = self.arch_tid() == v.tid;
        if is_arch {
            // Dispatched directly to the L1D, but still updates the
            // conflict detector (§4, "they still update the conflict
            // detector").
            let ready = self.hier.access_data(v.pc as u64, addr, AccessKind::Load, self.cycle);
            self.conflict.on_read(v.tid, granules.as_slice());
            #[cfg(feature = "verify")]
            self.verify_load_granules(v.tid, granules.as_slice());
            let value = self.mem.read(addr, len).expect("bounds checked");
            LoadOutcome::Value { value, ready }
        } else {
            // SSB lookup in parallel with the L1D (paper: 3-cycle reads
            // including the L1D lookup). The L1D access also models the
            // prefetching side effect of (possibly failed) speculation.
            let order = self.slice_order(v.tid);
            let mut buf = [0u8; 8];
            let all_ssb =
                self.ssb.read_into(order.as_slice(), addr, &mut buf[..len as usize], &self.mem);
            let l1d_ready = self.hier.access_data(v.pc as u64, addr, AccessKind::Load, self.cycle);
            let ssb_ready = self.cycle + self.cfg.ssb.read_latency;
            let ready = if all_ssb { ssb_ready } else { ssb_ready.max(l1d_ready) };
            self.conflict.on_read(v.tid, granules.as_slice());
            #[cfg(feature = "verify")]
            self.verify_load_granules(v.tid, granules.as_slice());
            LoadOutcome::Value { value: u64::from_le_bytes(buf), ready }
        }
    }

    /// Processes completion events scheduled for the current cycle: writes
    /// results, wakes consumers, and resolves control flow.
    pub(super) fn do_writeback(&mut self) {
        let mut uids = std::mem::take(&mut self.wb_scratch);
        debug_assert!(uids.is_empty());
        self.completions.drain_due(self.cycle, &mut uids);
        self.state_changed |= !uids.is_empty();
        for &uid in &uids {
            if !self.slab.contains(uid) {
                continue; // squashed while in flight
            }
            let (tid, dst, result) = {
                let d = self.slab.get_mut(uid).expect("checked");
                d.completed = true;
                (d.tid, d.dst, d.result)
            };
            if self.observing() {
                self.emit(crate::trace::TraceEvent::Complete {
                    cycle: self.cycle,
                    tid,
                    uid: uid.seq(),
                });
            }
            if let Some(dst) = dst {
                self.prf.write(dst.new, result);
                self.iq.wakeup(dst.new);
            }
            let d = &self.slab[uid];
            let (inst, bp, pc, pred_next, actual_next) =
                (d.inst, d.bp, d.pc, d.pred_next, d.actual_next);
            match inst {
                Inst::Branch { .. } => {
                    self.stats.branches += 1;
                    let lookup = bp.expect("branches carry predictor state");
                    let taken = actual_next != pc + 1;
                    self.bpred.update_branch(tid, pc as u64, lookup, taken);
                    if actual_next != pred_next {
                        self.stats.branch_mispredicts += 1;
                        self.recover_from_mispredict(tid, uid);
                    }
                }
                Inst::JumpReg { .. } => {
                    self.bpred.update_target(pc as u64, actual_next);
                    if actual_next != pred_next || self.ctx[tid].fetch_stalled_indirect {
                        self.recover_from_mispredict(tid, uid);
                    }
                }
                _ => {}
            }
        }
        uids.clear();
        self.wb_scratch = uids;
    }

    /// Redirects fetch and squashes the wrong path after a mispredicted
    /// control instruction `uid` in threadlet `tid`.
    fn recover_from_mispredict(&mut self, tid: usize, uid: Uid) {
        if self.observing() {
            let d = &self.slab[uid];
            self.emit(crate::trace::TraceEvent::Mispredict {
                cycle: self.cycle,
                tid,
                pc: d.pc,
                actual: d.actual_next,
            });
        }
        self.squash_younger_in_threadlet(tid, uid);
        if tid == self.arch_tid() {
            self.recovery_until =
                self.recovery_until.max(self.cycle + self.cfg.core.frontend_latency);
        }
        let d = &self.slab[uid];
        let (region, iters) = d.region_after;
        let next = d.actual_next;
        let t = &mut self.ctx[tid];
        t.fetch_pc = next;
        t.fetch_ready = self.cycle + self.cfg.core.frontend_latency;
        t.fetch_halted = false;
        t.fetch_halt_is_reattach = false;
        t.fetch_stalled_indirect = false;
        t.fetch_queue.clear();
        t.fetch_line = None;
        t.fetch_region = region;
        t.fetch_iters = iters;
        t.ren_region = region;
        t.ren_iters = iters;
    }
}

enum LoadOutcome {
    Value { value: u64, ready: u64 },
    Fault,
}

/// What a load finds in its threadlet's store queue.
enum SqHit {
    /// No older store overlaps it: the value comes from memory.
    Miss,
    /// The youngest overlapping older store contains it and forwards this
    /// value.
    Forward(u64),
    /// The youngest overlapping older store covers it only partially.
    Overlap,
}

fn store_len(inst: &Inst) -> u64 {
    match inst {
        Inst::Store { size, .. } => size.bytes(),
        _ => unreachable!("store_len on non-store"),
    }
}
