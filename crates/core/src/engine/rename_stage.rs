//! Rename/dispatch stage: drains fetch queues oldest-threadlet-first,
//! renames registers, allocates window resources, interprets hints
//! (spawning threadlets on detach, marking epoch boundaries), and feeds the
//! iteration-packing predictors.

use super::LoopFrogCore;
use crate::dyninst::{DstInfo, DynInst};
use crate::threadlet::CtxState;
use lf_isa::{HintKind, Inst};
use lf_uarch::rename::RenameMap;

impl LoopFrogCore<'_> {
    /// Renames up to `width` instructions across threadlets, oldest first.
    pub(super) fn do_rename(&mut self) {
        let mut budget = self.cfg.core.width;
        // Rename changes `order` only by a spawn appending its child, which
        // first renames next cycle: walk the contexts active now by index.
        for i in 0..self.order.len() {
            let tid = self.order[i];
            while budget > 0 {
                if self.ctx[tid].state != CtxState::Active || self.ctx[tid].fetch_queue.is_empty() {
                    break;
                }
                if !self.rename_one(tid) {
                    break;
                }
                budget -= 1;
            }
            if budget == 0 {
                break;
            }
        }
    }

    /// Renames the next instruction of `tid`; returns `false` on a resource
    /// stall (the instruction stays in the fetch queue).
    fn rename_one(&mut self, tid: usize) -> bool {
        // Resource checks before any state changes. Speculative threadlets
        // may not take the last few entries of any shared structure: the
        // architectural threadlet must always be able to make progress
        // (otherwise a capacity-stalled speculative threadlet starves the
        // core — the priority-inversion hazard of §6.3).
        let is_arch = self.arch_tid() == tid;
        let width = self.cfg.core.width;
        let (rob_res, win_res, prf_res) =
            if is_arch { (0, 0, 1) } else { (2 * width, width, 2 * width) };
        let inst = self.ctx[tid].fetch_queue.front().expect("checked nonempty").inst;
        if self.rob_occupancy + rob_res >= self.cfg.core.rob_size {
            self.rename_stall.rob = true;
            return false;
        }
        let needs_def = inst.def().is_some();
        if needs_def && self.prf.free_count() < prf_res {
            return false;
        }
        let needs_exec = crate::dyninst::inst_needs_execute(&inst);
        if needs_exec && self.iq.len() + win_res >= self.cfg.core.iq_size {
            self.rename_stall.iq = true;
            return false;
        }
        if inst.is_load() && self.lq_occupancy + win_res >= self.cfg.core.lq_size {
            self.rename_stall.lsq = true;
            return false;
        }
        if inst.is_store() && self.sq_occupancy + win_res >= self.cfg.core.sq_size {
            self.rename_stall.lsq = true;
            return false;
        }

        let f = self.ctx[tid].fetch_queue.pop_front().expect("checked nonempty");
        let mut d = DynInst::new(tid, &f);

        // --- register rename ---
        {
            let uses = f.inst.uses();
            let map = self.ctx[tid].map.as_ref().expect("active threadlet has a map");
            for (i, u) in uses.iter().enumerate() {
                if let Some(r) = u {
                    d.srcs[i] = Some(map.get(r.index()));
                }
            }
        }
        // Packing / epoch register-set tracking happens at rename: reads of
        // registers not yet written this iteration/epoch are live-ins.
        {
            let t = &mut self.ctx[tid];
            for (i, u) in f.inst.uses().iter().enumerate() {
                let Some(u) = u else { continue };
                let a = u.index();
                if !t.iter_written.contains(a) {
                    t.iter_rbw.insert(a);
                }
                if !t.written_regs.contains(a) && t.read_before_write.insert(a) {
                    d.epoch_first_rbw[i] = Some(a);
                }
            }
        }
        if let Some(def) = f.inst.def() {
            let new = self.prf.alloc().expect("free count checked");
            let t = &mut self.ctx[tid];
            let old = t.map.as_mut().expect("map").set(def.index(), new);
            d.dst = Some(DstInfo { arch: def.index(), new, old });
            t.iter_written.insert(def.index());
            d.epoch_first_write = t.written_regs.insert(def.index());
        }
        self.ctx[tid].insts_since_detach += 1;

        // --- hint and control handling ---
        let spec = self.cfg.speculation;
        match f.inst {
            Inst::Hint { kind, region } if spec && !f.suppressed => match kind {
                HintKind::Detach => self.rename_detach(tid, &mut d, region, &f),
                HintKind::Reattach => {
                    let t = &mut self.ctx[tid];
                    if t.ren_region == Some(region) {
                        t.ren_iters = t.ren_iters.saturating_sub(1);
                        if t.ren_iters == 0 {
                            d.is_halting_reattach = true;
                            t.ren_region = None;
                        }
                    }
                }
                HintKind::Sync => {
                    let t = &mut self.ctx[tid];
                    match t.ren_region {
                        Some(r) if r == region => {
                            d.is_sync_exit = true;
                            t.ren_region = None;
                            t.ren_iters = 0;
                        }
                        // Not detached: the epoch took a loop exit before its
                        // own detach; there is no successor to squash.
                        None => {}
                        _ => {} // inner region while detached: ignored
                    }
                }
            },
            Inst::Call { link, .. } => {
                // The link value is known at rename; no execution needed.
                if let Some(dst) = d.dst {
                    debug_assert_eq!(dst.arch, link.index());
                    self.prf.write(dst.new, (f.pc + 1) as u64);
                    self.iq.wakeup(dst.new);
                }
            }
            _ => {}
        }
        d.region_after = (self.ctx[tid].ren_region, self.ctx[tid].ren_iters);

        // --- window allocation ---
        if !needs_exec {
            d.completed = true;
        }
        let srcs = d.srcs;
        // The arena insert assigns the instruction's identity (uid); the
        // sequence is monotonic, so allocation order stays program order.
        let uid = self.slab.insert(d);
        if needs_exec {
            let inserted = self.iq.insert(uid, tid, srcs, &self.prf);
            debug_assert!(inserted, "IQ fullness checked above");
        }
        if f.inst.is_load() {
            self.ctx[tid].lq.push_back(uid);
            self.lq_occupancy += 1;
        }
        if f.inst.is_store() {
            self.ctx[tid].sq.push_back(uid);
            self.ctx[tid].unknown_stores.push_back(uid);
            self.sq_occupancy += 1;
        }
        self.ctx[tid].rob.push_back(uid);
        self.rob_occupancy += 1;
        self.stats.renamed_insts += 1;
        if self.observing() {
            self.emit(crate::trace::TraceEvent::Rename {
                cycle: self.cycle,
                tid,
                uid: uid.seq(),
                pc: f.pc,
                inst: f.inst,
            });
        }
        true
    }

    /// Handles a detach at rename: trains the packing predictors on the
    /// iteration boundary and spawns a successor threadlet if possible.
    fn rename_detach(
        &mut self,
        tid: usize,
        d: &mut DynInst,
        region: lf_isa::RegionId,
        f: &crate::dyninst::FetchedInst,
    ) {
        let already_in_region = self.ctx[tid].ren_region.is_some();
        if already_in_region && self.ctx[tid].ren_region != Some(region) {
            return; // inner region while detached: ignored entirely
        }

        // Iteration boundary: detach→detach delimits one loop iteration.
        {
            let t = &mut self.ctx[tid];
            let written = std::mem::take(&mut t.iter_written);
            let rbw = std::mem::take(&mut t.iter_rbw);
            let size = t.insts_since_detach;
            t.insts_since_detach = 0;
            self.packing.observe_iteration(region, written, rbw, size);
        }
        // Capture the current IV mappings; the value predictor trains at
        // this detach's commit, when the values are guaranteed ready.
        if let Some(ivs) = self.packing.ivs(region) {
            let map = self.ctx[tid].map.as_ref().expect("map");
            d.iv_capture = ivs.iter().map(|a| (a, map.get(a))).collect();
        }

        if already_in_region {
            return; // subsequent iterations of a packed epoch: no spawn
        }

        // First detach of the epoch: spawn the successor, or queue the
        // spawn until a context frees (the parent still plans to halt at
        // its reattach — §3.1's execution model, with the spawn deferred).
        let is_youngest = self.order.back() == Some(&tid);
        if !is_youngest {
            // A mid-chain epoch cannot spawn (its successor exists); the
            // detach degenerates to a NOP and it runs on sequentially.
            let t = &mut self.ctx[tid];
            t.ren_region = None;
            t.ren_iters = 0;
            t.fetch_region = None;
            t.fetch_iters = 0;
            if t.fetch_halted && t.fetch_halt_is_reattach {
                t.fetch_halted = false;
                t.fetch_halt_is_reattach = false;
            }
            return;
        }
        let factor = f.pack_factor.max(1);
        {
            let t = &mut self.ctx[tid];
            t.ren_region = Some(region);
            t.ren_iters = factor;
        }
        // Queue the spawn; it fires as soon as a context is free and (for
        // packed spawns) the induction-variable values are ready, so the
        // predicted successor state is exact. Wrong-path detaches cancel
        // the pending entry during squash walk-back.
        let map = self.ctx[tid].map.as_ref().expect("map").clone_with_refs(&mut self.prf);
        self.ctx[tid].pending_spawn = Some(crate::threadlet::PendingSpawn {
            region,
            map,
            factor,
            ivs: f.pack_predictions.iter().map(|&(a, _, stride)| (a, stride)).collect(),
        });
        d.made_pending = true;
        self.service_pending_spawns();
        if let Some(child) = self.ctx[tid].spawned_child {
            if self.ctx[tid].pending_spawn.is_none() {
                d.spawned = Some(child);
                d.made_pending = false;
            }
        }
    }

    /// Fires deferred spawns once a context is free and the predicted
    /// register values are available. Only the youngest active threadlet
    /// can hold a pending spawn.
    pub(crate) fn service_pending_spawns(&mut self) {
        let Some(&tid) = self.order.back() else { return };
        let Some(pending) = &self.ctx[tid].pending_spawn else { return };
        if self.prf.free_count() <= 72 + pending.ivs.len() {
            return;
        }
        if pending.factor > 1
            && !pending.ivs.iter().all(|&(a, _)| self.prf.is_ready(pending.map.get(a)))
        {
            return; // producers still in flight; retry next cycle
        }
        let Some(child) = self.find_free_context() else { return };
        let p = self.ctx[tid].pending_spawn.take().expect("checked");
        // Exact predictions from the snapshot values.
        let predictions: Vec<(usize, u64)> = p
            .ivs
            .iter()
            .map(|&(a, stride)| {
                let base = self.prf.read(p.map.get(a));
                (a, base.wrapping_add(stride.wrapping_mul((p.factor - 1) as i64) as u64))
            })
            .collect();
        self.spawn_threadlet(tid, child, p.region, p.factor, p.map, &predictions);
    }

    /// Spawns `child` as the successor epoch of `parent`, starting at the
    /// region's continuation address with the inherited register state
    /// `map` (ownership of its references transfers to the child), plus
    /// packing-predicted induction variables.
    fn spawn_threadlet(
        &mut self,
        parent: usize,
        child: usize,
        region: lf_isa::RegionId,
        factor: u32,
        mut child_map: RenameMap,
        predictions: &[(usize, u64)],
    ) {
        let parent_epoch = self.ctx[parent].epoch;
        self.ctx[child].reset_free();
        if factor > 1 {
            for &(a, v) in predictions {
                let p = self.prf.alloc_ready(v).expect("headroom checked");
                let old = child_map.set(a, p);
                self.prf.release(old);
                self.ctx[child].predicted_regs.push((a, v));
            }
        }
        let checkpoint = child_map.clone_with_refs(&mut self.prf);

        let t = &mut self.ctx[child];
        t.state = CtxState::Active;
        t.epoch = parent_epoch + 1;
        t.fetch_pc = region.0;
        t.fetch_ready = self.cycle + self.cfg.spawn_latency;
        t.map = Some(child_map);
        t.checkpoint = Some(checkpoint);
        t.checkpoint_pc = region.0;
        t.parent = Some(parent);
        t.spawn_region = Some(region);
        self.ctx[parent].spawned_child = Some(child);
        self.bpred.clone_context(parent, child);
        self.order.push_back(child);
        self.deselect.on_spawn(region);
        if self.observing() {
            self.emit(crate::trace::TraceEvent::Spawn {
                cycle: self.cycle,
                parent,
                child,
                region,
                factor,
            });
        }
        self.stats.spawns += 1;
        if factor > 1 {
            self.stats.packed_spawns += 1;
            self.stats.pack_factor_sum += factor as u64;
            self.stats.pack_factor_max = self.stats.pack_factor_max.max(factor);
        }
    }
}
