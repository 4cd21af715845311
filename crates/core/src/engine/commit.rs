//! Commit stage: two-level commit (paper §4).
//!
//! Instructions first commit *to their threadlet* in program order (stores
//! drain to the SSB for speculative threadlets, or the L1D for the
//! architectural one, running the Algorithm 1 conflict check). A threadlet
//! then commits *to the architectural state* when it is the oldest,
//! finished, and conflict-checked: its SSB slice is applied atomically and
//! the successor becomes architectural.

use super::{LoopFrogCore, SimError};
use crate::ssb::WriteOutcome;
use lf_isa::Inst;
use lf_uarch::AccessKind;

/// Bytes of the granule-aligned view a speculative drain reads. A store of
/// at most 8 bytes spans at most two granules of 8 bytes or more, and less
/// than 24 bytes of smaller ones, so granules up to 64 bytes fit.
const DRAIN_VIEW_BYTES: usize = 128;

/// What the architectural threadlet's head waited on in a cycle that
/// committed nothing; indexes [`crate::telemetry::COMMIT_STALL_NAMES`].
#[derive(Clone, Copy)]
enum CommitStall {
    RetireWait,
    Frontend,
    NotIssued,
    Load,
    Exec,
    Drain,
}

enum DrainOutcome {
    Done,
    /// The SSB slice is full: the drain stalls until the threadlet becomes
    /// architectural (its stores then bypass the SSB; §4.1.2 allows
    /// stalling or squashing — stalling is livelock-free because the
    /// squashed epoch would re-create the same footprint).
    Stall,
}

impl LoopFrogCore<'_> {
    /// Commits up to `commit_width` instructions, oldest threadlet first,
    /// and retires/promotes threadlets.
    pub(super) fn do_commit(&mut self) -> Result<(), SimError> {
        self.committed_this_cycle = 0;
        self.commit_stall = None;
        let budget_start = self.cfg.core.commit_width;
        let mut budget = budget_start;
        let mut idx = 0;
        while budget > 0 && !self.halted && idx < self.order.len() {
            let tid = self.order[idx];
            let is_arch = idx == 0;

            let mut stalled = false;
            while budget > 0 {
                let Some(&uid) = self.ctx[tid].rob.front() else { break };
                let (completed, faulted, is_store, drained) = {
                    let d = &self.slab[uid];
                    (d.completed, d.faulted, d.inst.is_store(), d.drained)
                };
                if faulted && is_arch {
                    let d = &self.slab[uid];
                    return Err(SimError::Fault { pc: d.pc, addr: d.eff_addr.unwrap_or(0) });
                }
                if !completed {
                    break; // faulted instructions never complete
                }
                if is_store && !drained {
                    match self.drain_store(tid, uid, is_arch)? {
                        DrainOutcome::Done => {}
                        DrainOutcome::Stall => {
                            stalled = true;
                            break;
                        }
                    }
                }
                self.commit_one(tid, uid, is_arch);
                budget -= 1;
                self.committed_this_cycle += 1;
                if self.halted {
                    return Ok(());
                }
                if self.ctx[tid].finished {
                    break;
                }
            }
            if stalled {
                idx += 1;
                continue;
            }

            // Threadlet-level commit: retire the oldest once finished and
            // fully drained, after the conflict-check delay. A finished
            // threadlet whose deferred spawn can never fire (e.g. a single
            // threadlet context) resumes sequential execution at its
            // continuation instead.
            if is_arch && self.ctx[tid].finished && self.ctx[tid].rob.is_empty() {
                if self.ctx[tid].pending_spawn.is_some() {
                    self.service_pending_spawns();
                    if self.ctx[tid].pending_spawn.is_some() {
                        // An architectural threadlet holding a deferred
                        // spawn is necessarily alone (only its own spawn
                        // could create younger threadlets), so no context
                        // will ever free: cancel and resume sequentially
                        // past the halting reattach.
                        let p = self.ctx[tid].pending_spawn.take().expect("checked");
                        p.map.release_all(&mut self.prf);
                        self.state_changed = true;
                        let t = &mut self.ctx[tid];
                        t.finished = false;
                        t.fetch_halted = false;
                        t.fetch_halt_is_reattach = false;
                        t.retire_at = None;
                        t.ren_region = None;
                        t.ren_iters = 0;
                        t.fetch_region = None;
                        t.fetch_iters = 0;
                        idx += 1;
                        continue;
                    }
                }
                match self.ctx[tid].retire_at {
                    None => {
                        self.ctx[tid].retire_at =
                            Some(self.cycle + self.cfg.ssb.conflict_check_latency);
                        self.state_changed = true;
                        idx += 1;
                    }
                    Some(at) if self.cycle >= at => {
                        self.retire_arch(tid);
                        self.state_changed = true;
                        // The promoted successor may commit this same cycle.
                        continue;
                    }
                    Some(_) => idx += 1,
                }
            } else {
                idx += 1;
            }
        }
        // Stall attribution (top-down-style): when nothing committed this
        // cycle, classify what the architectural threadlet's head waits on.
        if budget == budget_start && !self.halted && !self.order.is_empty() {
            let tid = self.arch_tid();
            let t = &self.ctx[tid];
            let reason = match t.rob.front() {
                None if t.finished => CommitStall::RetireWait,
                None => CommitStall::Frontend,
                Some(&uid) => {
                    let d = &self.slab[uid];
                    if !d.issued {
                        CommitStall::NotIssued
                    } else if !d.completed && d.inst.is_load() {
                        CommitStall::Load
                    } else if !d.completed {
                        CommitStall::Exec
                    } else {
                        CommitStall::Drain
                    }
                }
            };
            self.commit_stall = Some(reason as usize);
        }
        Ok(())
    }

    /// Commits one completed instruction to its threadlet.
    fn commit_one(&mut self, tid: usize, uid: crate::dyninst::Uid, is_arch: bool) {
        let front = self.ctx[tid].rob.pop_front();
        debug_assert_eq!(front, Some(uid));
        self.rob_occupancy -= 1;
        let d = self.slab.get_mut(uid).expect("committing live instruction");
        let (pc, inst, dst) = (d.pc, d.inst, d.dst);
        let (is_sync_exit, is_halting_reattach) = (d.is_sync_exit, d.is_halting_reattach);
        let iv_capture = std::mem::take(&mut d.iv_capture);
        self.slab.discard(uid);
        if let Some(dst) = dst {
            self.prf.release(dst.old);
        }
        if inst.is_load() {
            let f = self.ctx[tid].lq.pop_front();
            debug_assert_eq!(f, Some(uid));
            self.lq_occupancy -= 1;
        }
        if inst.is_store() {
            let f = self.ctx[tid].sq.pop_front();
            debug_assert_eq!(f, Some(uid));
            self.sq_occupancy -= 1;
        }

        {
            let t = &mut self.ctx[tid];
            for u in inst.uses().iter().flatten() {
                if !t.c_written_regs.contains(u.index()) {
                    t.c_read_before_write.insert(u.index());
                }
            }
            if let Some(def) = inst.def() {
                t.c_written_regs.insert(def.index());
            }
        }
        if self.observing() {
            self.emit(crate::trace::TraceEvent::Commit {
                cycle: self.cycle,
                tid,
                uid: uid.seq(),
                pc,
                architectural: is_arch,
            });
        }
        self.ctx[tid].epoch_committed_total += 1;
        if is_arch {
            self.stats.commits_arch += 1;
            self.stats.committed_insts += 1;
        } else {
            self.ctx[tid].committed_this_epoch += 1;
        }
        self.last_commit_cycle = self.cycle;

        // Hint and halt effects take place at in-order commit, where they
        // are non-speculative within the threadlet.
        if let Some((lf_isa::HintKind::Detach, region)) = inst.hint() {
            self.deselect.note_suppressed_detach(region);
        }
        if !iv_capture.is_empty() {
            if let Some((_, region)) = inst.hint() {
                for &(a, p) in &iv_capture {
                    debug_assert!(self.prf.is_ready(p), "older producer committed first");
                    let v = self.prf.read(p);
                    self.packing.train_value(region, a, v);
                }
            }
        }
        if is_sync_exit {
            if let Some((_, region)) = inst.hint() {
                // Cancel a still-deferred spawn for this region...
                let cancel = matches!(
                    &self.ctx[tid].pending_spawn,
                    Some(p) if p.region == region
                );
                if cancel {
                    let p = self.ctx[tid].pending_spawn.take().expect("checked");
                    p.map.release_all(&mut self.prf);
                }
                // ...and squash a live successor spawned for it.
                if let Some(child) = self.ctx[tid].spawned_child {
                    if self.ctx[child].state == crate::threadlet::CtxState::Active
                        && self.ctx[child].parent == Some(tid)
                        && self.ctx[child].spawn_region == Some(region)
                    {
                        self.stats.squashes_sync += 1;
                        self.squash_threadlets_from(child, false);
                    }
                }
            }
        }
        if is_halting_reattach {
            self.ctx[tid].finished = true;
            self.verify_packing(tid);
        }
        if matches!(inst, Inst::Halt) {
            if is_arch {
                self.halted = true;
            } else {
                self.ctx[tid].finished = true;
                self.ctx[tid].finished_with_halt = true;
            }
        }
    }

    /// Drains a store at commit: architectural stores write the L1D and
    /// memory; speculative stores write the threadlet's SSB slice. Both run
    /// the Algorithm 1 write check against younger threadlets.
    fn drain_store(
        &mut self,
        tid: usize,
        uid: crate::dyninst::Uid,
        is_arch: bool,
    ) -> Result<DrainOutcome, SimError> {
        let (pc, addr, len, data) = {
            let d = &self.slab[uid];
            let len = match d.inst {
                Inst::Store { size, .. } => size.bytes(),
                _ => unreachable!("drain of non-store"),
            };
            (d.pc, d.eff_addr.expect("issued store"), len, d.store_data)
        };
        let granules = self.access_granules(addr, len);

        if is_arch {
            self.mem.write(addr, len, data).map_err(|_| SimError::Fault { pc, addr })?;
            let _ = self.hier.access_data(pc as u64, addr, AccessKind::Store, self.cycle);
            let younger = self.younger_than(tid);
            if let Some(victim) =
                self.conflict.on_write(tid, granules.as_slice(), younger.as_slice())
            {
                self.stats.squashes_conflict += 1;
                if let Some(r) = self.ctx[victim].spawn_region {
                    self.deselect.on_conflict(r);
                }
                self.squash_threadlets_from(victim, true);
            }
        } else {
            // Precompute this threadlet's pre-store view of the granule
            // range, for read-filling partially written granules.
            let g = self.ssb.granule();
            let range_start = (addr / g) * g;
            let range_end = ((addr + len - 1) / g + 1) * g;
            let span = (range_end - range_start) as usize;
            assert!(span <= DRAIN_VIEW_BYTES, "SSB granules above 64 bytes are not supported");
            let mut view = [0u8; DRAIN_VIEW_BYTES];
            let order = self.slice_order(tid);
            self.ssb.read_into(order.as_slice(), range_start, &mut view[..span], &self.mem);
            let bytes = data.to_le_bytes();
            let outcome = self
                .ssb
                .write(tid, addr, &bytes[..len as usize], |a| view[(a - range_start) as usize]);
            match outcome {
                WriteOutcome::Overflow => {
                    // Speculative writes cannot be discarded: stall the
                    // drain until this threadlet is architectural.
                    self.overflow_stall_cycle = self.cycle;
                    self.stats.squashes_overflow += 1;
                    if !self.ctx[tid].overflow_reported {
                        self.ctx[tid].overflow_reported = true;
                        if let Some(r) = self.ctx[tid].spawn_region {
                            self.deselect.on_overflow(r);
                        }
                    }
                    return Ok(DrainOutcome::Stall);
                }
                WriteOutcome::Ok { fill_reads } => {
                    if !fill_reads.is_empty() {
                        // The read-fill is an additional (false-sharing)
                        // read by this threadlet.
                        self.conflict.on_read(tid, &fill_reads);
                    }
                    let younger = self.younger_than(tid);
                    if let Some(victim) =
                        self.conflict.on_write(tid, granules.as_slice(), younger.as_slice())
                    {
                        self.stats.squashes_conflict += 1;
                        if let Some(r) = self.ctx[victim].spawn_region {
                            self.deselect.on_conflict(r);
                        }
                        self.squash_threadlets_from(victim, true);
                    }
                }
            }
        }
        #[cfg(feature = "verify")]
        self.verify_store_granules(tid, granules.as_slice());
        if let Some(d) = self.slab.get_mut(uid) {
            d.drained = true;
            d.completed = true;
        }
        Ok(DrainOutcome::Done)
    }

    /// Verifies iteration-packing predictions at the parent's halting
    /// reattach: compares each predicted induction-variable start value with
    /// the parent's final value, patching unconsumed mispredictions in place
    /// or squash-restarting the child (§4.3).
    fn verify_packing(&mut self, parent: usize) {
        let Some(child) = self.ctx[parent].spawned_child else { return };
        if self.ctx[child].predicted_regs.is_empty() {
            return;
        }
        let preds = self.ctx[child].predicted_regs.clone();
        for (i, (arch, predicted)) in preds.iter().enumerate() {
            let p = self.ctx[parent].map.as_ref().expect("map").get(*arch);
            debug_assert!(self.prf.is_ready(p), "parent epoch fully committed");
            let actual = self.prf.read(p);
            if actual == *predicted {
                continue;
            }
            let ct = &self.ctx[child];
            let consumed =
                ct.c_read_before_write.contains(*arch) || ct.read_before_write.contains(*arch);
            if !consumed && ct.c_written_regs.contains(*arch) {
                continue; // the child overwrote the prediction unread
            }
            if !consumed
                && self.ctx[child].spawned_child.is_none()
                && !self.ctx[child].written_regs.contains(*arch)
            {
                // Safe in-place repair: nobody has read the register.
                let cp = self.ctx[child].map.as_ref().expect("map").get(*arch);
                self.prf.patch_value(cp, actual);
                self.ctx[child].predicted_regs[i].1 = actual;
                self.stats.pack_patches += 1;
            } else {
                // The stale value was consumed (or propagated): squash and
                // restart the child from a corrected checkpoint, and stop
                // packing this region until the predictor retrains.
                self.stats.squashes_packing += 1;
                if let Some(region) = self.ctx[child].spawn_region {
                    self.packing.on_mispredict(region, *arch);
                }
                self.squash_threadlets_with_reason(
                    child,
                    true,
                    crate::trace::SquashReason::Packing,
                );
                // After restart the map is a fresh checkpoint clone sharing
                // the predicted physical registers: patch them all.
                for (j, (a2, pred2)) in preds.iter().enumerate() {
                    let p2 = self.ctx[parent].map.as_ref().expect("map").get(*a2);
                    let actual2 = self.prf.read(p2);
                    if actual2 != *pred2 {
                        let cp = self.ctx[child].map.as_ref().expect("map").get(*a2);
                        self.prf.patch_value(cp, actual2);
                        self.ctx[child].predicted_regs[j].1 = actual2;
                    }
                }
                return;
            }
        }
    }

    /// Merges the retiring threadlet's final register state into its
    /// successor. The successor inherited registers at the *detach*, but the
    /// parent's body executes before the successor in program order, so any
    /// register the successor chain never wrote must take the parent's final
    /// value. If the successor *read* a stale value, the body→continuation
    /// register-independence contract (§3) was violated and the successor is
    /// squash-restarted from a corrected checkpoint.
    fn merge_registers_into_successor(&mut self, parent: usize, succ: usize) {
        // Compare against the successor's *inherited* values (its epoch
        // checkpoint): the current map already reflects its own writes.
        let mut diffs: Vec<(usize, lf_uarch::PhysReg)> = Vec::new();
        let mut violation = false;
        {
            let pmap = self.ctx[parent].map.as_ref().expect("parent map");
            let succ_t = &self.ctx[succ];
            let chk = succ_t.checkpoint.as_ref().expect("speculative successor");
            for a in 0..lf_isa::NUM_ARCH_REGS {
                let pp = pmap.get(a);
                let inherited = chk.get(a);
                if pp == inherited {
                    continue;
                }
                debug_assert!(self.prf.is_ready(pp), "retiring threadlet fully committed");
                if !self.prf.is_ready(inherited) || self.prf.read(pp) != self.prf.read(inherited) {
                    diffs.push((a, pp));
                    // A read-before-write anywhere in the epoch (committed
                    // prefix is exact; the renamed set conservatively
                    // includes possible wrong-path reads) consumed the
                    // stale inherited value: violation.
                    if succ_t.c_read_before_write.contains(a)
                        || succ_t.read_before_write.contains(a)
                    {
                        violation = true;
                    }
                }
            }
        }
        if diffs.is_empty() {
            return;
        }
        // Patch the checkpoint in every case: a future restart must start
        // from the parent's final (program-order-correct) values.
        {
            let mut chk = self.ctx[succ].checkpoint.take().expect("speculative successor");
            for &(a, pp) in &diffs {
                self.prf.add_ref(pp);
                let old = chk.set(a, pp);
                self.prf.release(old);
            }
            self.ctx[succ].checkpoint = Some(chk);
        }
        if violation {
            // Restart the successor from the corrected checkpoint (its
            // younger chain is recycled and will respawn).
            self.squashes_register += 1;
            self.squash_threadlets_with_reason(
                succ,
                true,
                crate::trace::SquashReason::RegisterViolation,
            );
        } else {
            for &(a, pp) in &diffs {
                if self.ctx[succ].c_written_regs.contains(a) {
                    // The successor's committed write is newer: skip.
                    continue;
                }
                if self.ctx[succ].written_regs.contains(a) {
                    // An in-flight write already owns the map entry; but if
                    // a branch squash walks it back, the restore target
                    // must be the parent's value, not the stale inherited
                    // register. Patch the oldest in-flight writer's
                    // old-mapping reference.
                    let oldest = self.ctx[succ]
                        .rob
                        .iter()
                        .copied()
                        .find(|&u| self.slab[u].dst.is_some_and(|dst| dst.arch == a))
                        .expect("renamed write is in flight");
                    let d = self.slab.get_mut(oldest).expect("live");
                    let dst = d.dst.as_mut().expect("writer has a destination");
                    self.prf.add_ref(pp);
                    let prev = std::mem::replace(&mut dst.old, pp);
                    self.prf.release(prev);
                    continue;
                }
                // Untouched: point the live map at the parent's value.
                self.prf.add_ref(pp);
                let old = self.ctx[succ].map.as_mut().expect("map").set(a, pp);
                self.prf.release(old);
            }
        }
    }

    /// Retires the architectural threadlet and promotes its successor,
    /// applying the successor's SSB slice to architectural memory atomically
    /// (the `S_arch` increment of §4.1.4).
    fn retire_arch(&mut self, tid: usize) {
        #[cfg(feature = "verify")]
        let boundary = self.verify_boundary_pre(tid);
        if self.observing() {
            self.emit(crate::trace::TraceEvent::Retire {
                cycle: self.cycle,
                tid,
                epoch: self.ctx[tid].epoch,
            });
        }
        if let Some(r) = self.ctx[tid].spawn_region {
            self.deselect.on_retire(r, self.ctx[tid].epoch_committed_total);
        }
        if let Some(&succ) = self.order.get(1) {
            self.merge_registers_into_successor(tid, succ);
        }
        let front = self.order.pop_front();
        debug_assert_eq!(front, Some(tid));
        self.conflict.clear(tid);
        {
            let t = &mut self.ctx[tid];
            if let Some(m) = t.map.take() {
                m.release_all(&mut self.prf);
            }
            if let Some(c) = t.checkpoint.take() {
                c.release_all(&mut self.prf);
            }
            t.state = crate::threadlet::CtxState::Free;
            t.slice_flush_until = t.slice_flush_until.max(self.cycle);
            t.spawned_child = None;
            t.finished = false;
            t.retire_at = None;
        }

        let Some(&succ) = self.order.front() else {
            // The last threadlet retired without a successor: can only
            // happen if the program ended; stop.
            debug_assert!(self.halted, "architectural threadlet retired without successor");
            self.halted = true;
            #[cfg(feature = "verify")]
            self.verify_boundary_post(boundary);
            return;
        };
        // Atomic threadlet commit: the successor's buffered state becomes
        // architecturally visible at once; the slice then flushes in the
        // background, limiting context reuse.
        let lines = self.ssb.take_slice(succ);
        let flush_cycles = lines.len().div_ceil(self.cfg.ssb.flush_lines_per_cycle.max(1)) as u64;
        for (la, bytes, valid) in &lines {
            self.ssb.apply_line(&mut self.mem, *la, bytes, *valid);
        }
        let s = &mut self.ctx[succ];
        s.slice_flush_until = self.cycle + flush_cycles;
        s.parent = None;
        self.stats.commits_spec_success += s.committed_this_epoch;
        self.stats.committed_insts += s.committed_this_epoch;
        s.committed_this_epoch = 0;
        if let Some(c) = s.checkpoint.take() {
            c.release_all(&mut self.prf);
        }
        s.predicted_regs.clear();
        if s.finished_with_halt {
            self.halted = true;
        }
        // A successor spawned *on* its region's reattach hint (the usual
        // compiler placement) commits that hint once beyond program order;
        // count those so boundary recording can subtract them (see
        // `VerifyState::promoted_spawns`). Successors spawned past the
        // reattach start on a program-order instruction and count nothing.
        #[cfg(feature = "verify")]
        if let Some(r) = self.ctx[succ].spawn_region {
            let starts_on_reattach = matches!(
                self.program.insts().get(r.0),
                Some(lf_isa::Inst::Hint { kind: lf_isa::HintKind::Reattach, region })
                    if *region == r
            );
            if starts_on_reattach {
                self.verify.promoted_spawns += 1;
            }
        }
        #[cfg(feature = "verify")]
        self.verify_boundary_post(boundary);
    }
}
