//! Squash machinery: wrong-path recovery within a threadlet (branch
//! mispredicts) and threadlet-level squash cascades (conflicts, SSB
//! overflow, sync exits, packing mispredictions).
//!
//! Register reclamation is exact thanks to reference counting: walking a
//! ROB slice back restores the rename map instruction by instruction, while
//! a full threadlet squash releases the live map wholesale and (for
//! restarts) re-clones the epoch checkpoint.

use super::LoopFrogCore;
use crate::threadlet::CtxState;
use crate::trace::SquashReason;

impl LoopFrogCore<'_> {
    /// Squashes all instructions of threadlet `tid` younger than `from_uid`
    /// (exclusive), walking the rename map back and discarding any threadlet
    /// spawned by a squashed detach.
    pub(crate) fn squash_younger_in_threadlet(
        &mut self,
        tid: usize,
        from_uid: crate::dyninst::Uid,
    ) {
        let mut spawned_victims = Vec::new();
        while let Some(&tail) = self.ctx[tid].rob.back() {
            if tail <= from_uid {
                break;
            }
            self.ctx[tid].rob.pop_back();
            self.rob_occupancy -= 1;
            let d = self.slab.remove(tail).expect("squashing live instruction");
            if self.observing() {
                self.emit(crate::trace::TraceEvent::Flush {
                    cycle: self.cycle,
                    tid,
                    uid: tail.seq(),
                });
            }
            if let Some(dst) = d.dst {
                // Restore the previous mapping; the map's reference to the
                // new register dies here.
                let cur = self.ctx[tid].map.as_mut().expect("map").set(dst.arch, dst.old);
                self.prf.release(cur);
                if d.epoch_first_write {
                    self.ctx[tid].written_regs.remove(dst.arch);
                }
            }
            for &a in d.epoch_first_rbw.iter().flatten() {
                self.ctx[tid].read_before_write.remove(a);
            }
            if d.inst.is_load() {
                let b = self.ctx[tid].lq.pop_back();
                debug_assert_eq!(b, Some(tail));
                self.lq_occupancy -= 1;
            }
            if d.inst.is_store() {
                debug_assert!(!d.drained, "drained store younger than unresolved branch");
                let b = self.ctx[tid].sq.pop_back();
                debug_assert_eq!(b, Some(tail));
                if !d.issued {
                    let b = self.ctx[tid].unknown_stores.pop_back();
                    debug_assert_eq!(b, Some(tail));
                }
                self.sq_occupancy -= 1;
            }
            if let Some(child) = d.spawned {
                spawned_victims.push(child);
            }
            if d.made_pending {
                if let Some(p) = self.ctx[tid].pending_spawn.take() {
                    p.map.release_all(&mut self.prf);
                }
            }
        }
        self.iq.squash(|u, t| t == tid && u > from_uid);
        for child in spawned_victims {
            self.stats.squashes_wrong_path += 1;
            self.squash_threadlets_with_reason(child, false, SquashReason::WrongPath);
            self.ctx[tid].spawned_child = None;
        }
    }

    /// Squashes threadlet `first` and every younger threadlet. When
    /// `restart_first` is set, `first` restarts from its epoch checkpoint
    /// (the conflict/overflow/packing recovery of §4); otherwise all victims
    /// are recycled (sync exits and wrong-path spawns).
    pub(crate) fn squash_threadlets_from(&mut self, first: usize, restart_first: bool) {
        let reason = if restart_first { SquashReason::Conflict } else { SquashReason::SyncExit };
        self.squash_threadlets_with_reason(first, restart_first, reason);
    }

    /// As [`Self::squash_threadlets_from`], with an explicit trace reason.
    pub(crate) fn squash_threadlets_with_reason(
        &mut self,
        first: usize,
        restart_first: bool,
        reason: SquashReason,
    ) {
        let Some(pos) = self.order.iter().position(|&t| t == first) else {
            return; // already gone
        };
        if self.observing() {
            self.emit(crate::trace::TraceEvent::SquashThreadlets {
                cycle: self.cycle,
                first,
                restart: restart_first,
                reason,
            });
        }
        debug_assert!(pos > 0, "the architectural threadlet is never squashed");
        self.recovery_until = self.recovery_until.max(self.cycle + self.cfg.core.frontend_latency);
        let victims: Vec<usize> = self.order.drain(pos..).collect();
        for (i, &tid) in victims.iter().enumerate() {
            let restart = restart_first && i == 0;
            self.teardown_threadlet(tid, restart);
            if restart {
                self.order.push_back(tid);
            }
        }
        // The spawning parent forgets a recycled child (it may spawn again).
        if !restart_first {
            if let Some(parent) = self.ctx[first].parent {
                if self.ctx[parent].state == CtxState::Active
                    && self.ctx[parent].spawned_child == Some(first)
                {
                    self.ctx[parent].spawned_child = None;
                }
            }
        }
    }

    /// Releases every resource held by threadlet `tid` and either restarts
    /// it from its checkpoint or frees the context.
    fn teardown_threadlet(&mut self, tid: usize, restart: bool) {
        self.iq.squash(|_, t| t == tid);
        while let Some(uid) = self.ctx[tid].rob.pop_front() {
            self.rob_occupancy -= 1;
            let d = self.slab.remove(uid).expect("live");
            if self.observing() {
                self.emit(crate::trace::TraceEvent::Flush {
                    cycle: self.cycle,
                    tid,
                    uid: uid.seq(),
                });
            }
            if let Some(dst) = d.dst {
                self.prf.release(dst.old);
            }
        }
        self.lq_occupancy -= self.ctx[tid].lq.len();
        self.sq_occupancy -= self.ctx[tid].sq.len();
        self.ctx[tid].lq.clear();
        self.ctx[tid].sq.clear();
        self.ctx[tid].unknown_stores.clear();

        self.stats.commits_spec_failed += self.ctx[tid].committed_this_epoch;
        if let Some(p) = self.ctx[tid].pending_spawn.take() {
            p.map.release_all(&mut self.prf);
        }
        if let Some(m) = self.ctx[tid].map.take() {
            m.release_all(&mut self.prf);
        }
        self.ssb.invalidate_slice(tid);
        self.conflict.clear(tid);

        if restart {
            let chk = self.ctx[tid]
                .checkpoint
                .as_ref()
                .expect("restartable threadlet has a checkpoint")
                .clone_with_refs(&mut self.prf);
            self.ctx[tid].map = Some(chk);
            let refill = self.cfg.core.frontend_latency;
            let now = self.cycle;
            self.ctx[tid].reset_for_restart(now, refill);
        } else {
            if let Some(c) = self.ctx[tid].checkpoint.take() {
                c.release_all(&mut self.prf);
            }
            let flush_until = self.ctx[tid].slice_flush_until.max(self.cycle);
            self.ctx[tid].reset_free();
            self.ctx[tid].slice_flush_until = flush_until;
        }
    }
}
