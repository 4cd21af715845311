//! Engine-side invariant checks for the `verify` feature (see
//! [`crate::verify`] for the invariant catalogue). Kept in a separate
//! module so the hot-path stage files only carry one-line hook calls.

use super::LoopFrogCore;
use crate::telemetry::CycleSample;
use crate::threadlet::CtxState;
use crate::verify::{BoundaryPre, QuietSpan};
use lf_isa::NUM_ARCH_REGS;
use std::hash::{DefaultHasher, Hash, Hasher};

impl LoopFrogCore<'_> {
    /// Per-cycle invariants: occupancy conservation, epoch-sorted active
    /// list, free-context emptiness, the store-address barrier, and
    /// (sampled) SSB ownership.
    pub(super) fn verify_tick(&mut self) {
        let (mut rob, mut lq, mut sq) = (0usize, 0usize, 0usize);
        for t in &self.ctx {
            rob += t.rob.len();
            lq += t.lq.len();
            sq += t.sq.len();
        }
        if rob != self.rob_occupancy || lq != self.lq_occupancy || sq != self.sq_occupancy {
            let msg = format!(
                "occupancy: counters rob={}/lq={}/sq={} but queues sum rob={rob}/lq={lq}/sq={sq} \
                 at cycle {}",
                self.rob_occupancy, self.lq_occupancy, self.sq_occupancy, self.cycle
            );
            self.verify.violation(msg);
        }

        let mut prev_epoch: Option<u64> = None;
        let mut order_bad = None;
        for &t in &self.order {
            let e = self.ctx[t].epoch;
            if prev_epoch.is_some_and(|p| e <= p) {
                order_bad = Some((t, e));
            }
            prev_epoch = Some(e);
        }
        if let Some((t, e)) = order_bad {
            let msg = format!(
                "epoch-order: active list {:?} not strictly increasing (ctx{t} epoch {e}) at \
                 cycle {}",
                self.order, self.cycle
            );
            self.verify.violation(msg);
        }

        let free_bad: Vec<usize> =
            (0..self.ctx.len()).filter(|&i| !self.ctx[i].verify_free_is_empty()).collect();
        for i in free_bad {
            let msg = format!("free-context: ctx{i} is Free but holds window or rename state");
            self.verify.violation(msg);
        }

        self.verify_store_barrier();

        // The SSB scan walks every line; sample it so verify builds stay
        // usable on long runs (retirement also triggers a full scan).
        if self.cycle.is_multiple_of(64) {
            self.verify_ssb();
        }
    }

    /// Store-address barrier: each threadlet's unknown-address index is
    /// exactly its un-issued stores, and every parked IQ entry is a load
    /// still behind an older unknown-address store of its threadlet (a
    /// lost release fails here, at the cycle it happens).
    fn verify_store_barrier(&mut self) {
        let mut msgs = Vec::new();
        for (i, t) in self.ctx.iter().enumerate() {
            let unissued = t.sq.iter().filter(|&&s| !self.slab[s].issued);
            if !unissued.eq(t.unknown_stores.iter()) {
                msgs.push(format!(
                    "store-barrier: ctx{i} unknown-address index {:?} is not the un-issued \
                     stores of its SQ {:?}",
                    t.unknown_stores, t.sq
                ));
            }
        }
        for (uid, tid) in self.iq.parked() {
            let is_load = self.slab.get(uid).is_some_and(|d| d.tid == tid && d.inst.is_load());
            let barrier = self.ctx[tid].unknown_stores.front();
            let behind = barrier.is_some_and(|&b| b < uid);
            if !(is_load && behind) {
                msgs.push(format!(
                    "store-barrier: parked IQ entry {uid:?} of ctx{tid} is not a load behind \
                     an unknown-address store (barrier {barrier:?})"
                ));
            }
        }
        for msg in msgs {
            self.verify.violation(format!("{msg} at cycle {}", self.cycle));
        }
    }

    /// SSB ownership scan: data only in active, non-architectural slices;
    /// valid masks within the line's granule count; capacities respected.
    pub(super) fn verify_ssb(&mut self) {
        let active: Vec<bool> = self.ctx.iter().map(|t| t.state == CtxState::Active).collect();
        let arch = self.order.front().copied();
        if let Err(msg) = self.ssb.check_invariants(&active, arch) {
            let msg = format!("ssb: {msg} at cycle {}", self.cycle);
            self.verify.violation(msg);
        }
    }

    /// Conflict-set ⊇ accesses, write side: called right after a store
    /// drained and ran `conflict.on_write` — every granule it touched must
    /// be in the threadlet's write set.
    pub(super) fn verify_store_granules(&mut self, tid: usize, granules: &[u64]) {
        let missing: Vec<u64> =
            granules.iter().copied().filter(|&g| !self.conflict.has_written(tid, g)).collect();
        if !missing.is_empty() {
            let msg = format!(
                "conflict-write-set: ctx{tid} drained store granules {granules:?} but write set \
                 is missing {missing:?} at cycle {}",
                self.cycle
            );
            self.verify.violation(msg);
        }
    }

    /// Conflict-set ⊇ accesses, read side: after a load ran
    /// `conflict.on_read`, every granule is in the read set or masked by
    /// the threadlet's own write set.
    pub(super) fn verify_load_granules(&mut self, tid: usize, granules: &[u64]) {
        let missing: Vec<u64> = granules
            .iter()
            .copied()
            .filter(|&g| !self.conflict.has_read(tid, g) && !self.conflict.has_written(tid, g))
            .collect();
        if !missing.is_empty() {
            let msg = format!(
                "conflict-read-set: ctx{tid} load granules {granules:?} not covered; missing \
                 {missing:?} at cycle {}",
                self.cycle
            );
            self.verify.violation(msg);
        }
    }

    /// Retirement-time bookkeeping: epoch-order check plus (when lockstep
    /// recording is on) the pre-retire half of a [`CommitBoundary`].
    pub(super) fn verify_boundary_pre(&mut self, tid: usize) -> Option<BoundaryPre> {
        let epoch = self.ctx[tid].epoch;
        if let Some(prev) = self.verify.last_retired_epoch {
            if epoch <= prev {
                let msg =
                    format!("epoch-order: retiring epoch {epoch} after already-retired {prev}");
                self.verify.violation(msg);
            }
        }
        self.verify.last_retired_epoch = Some(epoch);
        self.verify_ssb();
        if !self.verify.record_boundaries {
            return None;
        }
        let map = self.ctx[tid].map.as_ref().expect("retiring threadlet has a map");
        let regs: Vec<u64> = (0..NUM_ARCH_REGS)
            .map(|a| {
                let p = map.get(a);
                if self.prf.is_ready(p) {
                    self.prf.read(p)
                } else {
                    0
                }
            })
            .collect();
        // Subtract the spawn-point reattach hints re-committed by promoted
        // successors so the count is comparable with emulator program order.
        let insts_before = self.stats.committed_insts - self.verify.promoted_spawns;
        Some(BoundaryPre { epoch, insts_before, regs })
    }

    /// Completes a boundary record after the successor's slice applied and
    /// its speculative commits were credited.
    pub(super) fn verify_boundary_post(&mut self, pre: Option<BoundaryPre>) {
        let Some(pre) = pre else { return };
        let mem_checksum_after = self.mem.checksum();
        self.verify.boundaries.push(crate::verify::CommitBoundary {
            epoch: pre.epoch,
            insts_before: pre.insts_before,
            regs: pre.regs,
            insts_after: self.stats.committed_insts - self.verify.promoted_spawns,
            mem_checksum_after,
        });
    }

    /// The quiet-span oracle, called after every tick with the tick's
    /// sample when it was quiet. Inside an open span, each tick must be
    /// quiet with the span's sample; at the span's end the state digest
    /// must be unchanged and the per-cycle statistics must equal the bulk
    /// prediction. Outside one, a quiet tick opens the span a production
    /// build would skip.
    pub(super) fn verify_quiet_span(&mut self, quiet: Option<CycleSample>) {
        if let Some(span) = self.verify.quiet_span.as_mut().filter(|s| s.open) {
            let (end, sample, digest) = (span.end, span.sample, span.digest);
            let ticked = self.cycle - 1;
            span.open = quiet == Some(sample) && self.cycle < end;
            if quiet != Some(sample) {
                let msg = format!(
                    "quiet-span: cycle {ticked} inside the span predicted quiet until cycle {end} \
                     ticked {quiet:?}, not {sample:?}"
                );
                self.verify.violation(msg);
                return;
            }
            if self.cycle < end {
                return;
            }
            if self.quiet_digest() != digest {
                let msg = format!(
                    "quiet-span: engine state changed across the quiet span ending at cycle {end}"
                );
                self.verify.violation(msg);
            }
            let span = self.verify.quiet_span.as_ref().expect("checked");
            if self.cycle_stats != span.predicted {
                let msg = format!(
                    "quiet-span: per-cycle statistics at cycle {end} are {:?}, but the bulk \
                     addition predicted {:?}",
                    self.cycle_stats, span.predicted
                );
                self.verify.violation(msg);
            }
            // Like a skip landing on `end`, the tick at `end` runs in full
            // before the next span can open.
            return;
        }
        let Some(sample) = quiet else { return };
        let end = self.quiet_horizon();
        if end == self.cycle {
            return;
        }
        let digest = self.quiet_digest();
        let span = self.verify.quiet_span.get_or_insert_with(|| QuietSpan {
            open: false,
            end,
            sample,
            predicted: self.cycle_stats.clone(),
            digest,
        });
        span.predicted.clone_from(&self.cycle_stats);
        span.predicted.add(&sample, end - self.cycle);
        (span.open, span.end, span.sample, span.digest) = (true, end, sample, digest);
        self.verify.quiet_cycles += end - self.cycle;
    }

    /// A digest of the engine state a quiet span must leave unchanged:
    /// every context's fields, the active order, occupancies, IQ, wheel
    /// and PRF counts, the `SimStats` fields that are not per-cycle, and
    /// the memory hierarchy's access and miss counts. Allocation-free, so
    /// verify builds keep the allocation bounds of `tests/allocations.rs`.
    fn quiet_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for t in &self.ctx {
            (t.state == CtxState::Active, t.epoch, t.fetch_pc, t.fetch_ready).hash(&mut h);
            (t.fetch_halted, t.fetch_halt_is_reattach, t.fetch_stalled_indirect).hash(&mut h);
            (t.fetch_region, t.fetch_iters, t.fetch_queue.len(), t.fetch_line).hash(&mut h);
            (t.map.is_some(), t.ren_region, t.ren_iters, t.insts_since_detach).hash(&mut h);
            t.rob.iter().map(|u| u.seq()).for_each(|u| u.hash(&mut h));
            (t.lq.len(), t.sq.len(), t.unknown_stores.len(), t.checkpoint.is_some()).hash(&mut h);
            (t.predicted_regs.as_slice(), t.finished, t.finished_with_halt).hash(&mut h);
            (t.retire_at, t.committed_this_epoch, t.epoch_committed_total).hash(&mut h);
            (t.slice_flush_until, t.parent, t.spawned_child, t.spawn_region).hash(&mut h);
            (t.pending_spawn.is_some(), t.overflow_reported).hash(&mut h);
        }
        self.order.hash(&mut h);
        (self.rob_occupancy, self.lq_occupancy, self.sq_occupancy).hash(&mut h);
        (self.iq.len(), self.iq.has_ready(), self.iq.parked().count()).hash(&mut h);
        (self.completions.len(), self.completions.overflow_hits()).hash(&mut h);
        (self.prf.free_count(), self.slab.high_water()).hash(&mut h);
        (self.halted, self.last_commit_cycle, self.recovery_until).hash(&mut h);
        (self.overflow_stall_cycle, self.squashes_register, self.ssb.overflows()).hash(&mut h);
        let s = &self.stats;
        (s.committed_insts, s.commits_arch, s.commits_spec_success, s.commits_spec_failed)
            .hash(&mut h);
        (s.issued_insts, s.fetched_insts, s.renamed_insts, s.fetch_icache_stalls).hash(&mut h);
        (s.branches, s.branch_mispredicts, s.spawns, s.packed_spawns).hash(&mut h);
        (s.pack_factor_sum, s.pack_factor_max, s.pack_patches).hash(&mut h);
        (s.squashes_conflict, s.squashes_overflow, s.squashes_sync).hash(&mut h);
        (s.squashes_packing, s.squashes_wrong_path).hash(&mut h);
        s.counters.iter().for_each(|kv| kv.hash(&mut h));
        // Every hierarchy access counts at its L1 at least.
        self.hier.cache_stats().hash(&mut h);
        h.finish()
    }

    /// End-of-run invariant: accounting buckets sum to `cycles × width`.
    pub(super) fn verify_finish(&mut self) {
        let want = self.stats.cycles * self.cfg.core.commit_width as u64;
        let got = self.cycle_stats.accounting.total();
        if got != want {
            let msg = format!(
                "accounting: buckets sum to {got} but cycles×width = {} × {} = {want}",
                self.stats.cycles, self.cfg.core.commit_width
            );
            self.verify.violation(msg);
        }
        self.verify_ssb();
    }

    /// Read access to the invariant log and recorded boundaries.
    pub fn verify_state(&self) -> &crate::verify::VerifyState {
        &self.verify
    }

    /// Enables per-retirement [`crate::verify::CommitBoundary`] recording
    /// (lockstep mode).
    pub fn set_lockstep_recording(&mut self, on: bool) {
        self.verify.record_boundaries = on;
    }

    /// Fault injection: drops the first granule from every conflict-detector
    /// write-set insertion (exact detector only), leaving all other behavior
    /// intact. Used to prove the harness catches detector bugs.
    pub fn inject_drop_write_granule(&mut self) {
        if let super::ConflictSets::Exact(c) | super::ConflictSets::Shadowed(c, _) =
            &mut self.conflict
        {
            c.set_inject_drop_write_granule(true);
        }
    }
}
