//! External-observer (coherence) interface (paper §4.1.4).
//!
//! "Threadlets must be squashed if they can no longer be cleanly committed.
//! For example, if another core modifies or observes shared memory in a way
//! that cannot be reconciled with the accesses of the threadlet due to the
//! architecture's memory model." — and the SSB "participates in the
//! coherence protocol": lines in a threadlet's read set are held in a
//! readable state, lines in its write set in a writable state; an
//! incompatible external request gives the line up and squashes the
//! threadlet.
//!
//! This module exposes that behaviour at the core's boundary: a simulated
//! remote agent performs [`LoopFrogCore::external_write`] /
//! [`LoopFrogCore::external_read`] between cycles. Speculative state is
//! never visible externally — reads return architectural memory only — and
//! any speculative threadlet whose conflict sets intersect the request is
//! squashed so its epoch re-executes against the new memory contents.

use super::LoopFrogCore;
use crate::trace::SquashReason;
use lf_isa::MemError;

impl LoopFrogCore<'_> {
    /// Granules covered by `[addr, addr+len)`, shared with the SSB logic.
    fn request_granules(&self, addr: u64, len: u64) -> Vec<u64> {
        self.ssb.granules_of(addr, len.max(1))
    }

    /// Squashes (restarting the oldest victim) every *speculative* threadlet
    /// whose read- or write-set intersects `granules`; the architectural
    /// threadlet is never squashed — its accesses are already externally
    /// ordered. Returns the number of threadlets squashed.
    fn squash_external_conflicts(&mut self, granules: &[u64], writes: bool) -> usize {
        // Find the oldest speculative threadlet that conflicts: an external
        // WRITE invalidates both readers (stale data) and writers (lost
        // update ordering); an external READ only conflicts with writers
        // (their buffered stores must not be observable, and atomic commit
        // of a line another core is reading cannot be guaranteed).
        let victim = self
            .order
            .iter()
            .skip(1) // the architectural threadlet is exempt
            .copied()
            .find(|&t| {
                granules.iter().any(|&g| {
                    let (wr, rd) = self.conflict.query(t, g);
                    if writes {
                        wr || rd
                    } else {
                        wr
                    }
                })
            });
        match victim {
            Some(v) => {
                let count = self.order.len() - self.order.iter().position(|&t| t == v).unwrap();
                self.stats.counters.add("external_squashes", 1);
                self.squash_threadlets_with_reason(v, true, SquashReason::Conflict);
                count
            }
            None => 0,
        }
    }

    /// An external agent (another core) writes memory. Architectural memory
    /// is updated immediately; speculative threadlets that read or wrote
    /// any affected granule are squashed and re-execute against the new
    /// value, preserving the memory model's ordering guarantees.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the access exceeds the memory image.
    pub fn external_write(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemError> {
        self.mem.write(addr, len, value)?;
        let granules = self.request_granules(addr, len);
        self.squash_external_conflicts(&granules, true);
        // The architectural threadlet's conflict sets also reflect the new
        // owner of the line: record the external write so a later
        // speculative read-before-this-write is caught by Algorithm 1's
        // normal path... external agents are older than all threadlets, so
        // nothing further is needed: affected speculators were squashed.
        Ok(())
    }

    /// An external agent reads memory. Only committed (architectural) state
    /// is visible — speculation is hidden from the memory system (§4.1.4).
    /// Speculative threadlets holding affected lines *writable* are
    /// squashed (their atomic commit can no longer be guaranteed).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the access exceeds the memory image.
    pub fn external_read(&mut self, addr: u64, len: u64) -> Result<u64, MemError> {
        let v = self.mem.read(addr, len)?;
        let granules = self.request_granules(addr, len);
        self.squash_external_conflicts(&granules, false);
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::LoopFrogConfig;
    use crate::engine::LoopFrogCore;
    use lf_isa::{reg, AluOp, BranchCond, MemSize, Memory, ProgramBuilder};

    /// A hinted loop summing a flag word into each element, so speculative
    /// threadlets hold reads of `flag` and writes of `a[i]`.
    fn flag_loop(trip: i64) -> lf_isa::Program {
        let base = 0x1000;
        let flag = 0x3000i64;
        let mut b = ProgramBuilder::new();
        let cont = b.label("cont");
        let head = b.label("head");
        b.li(reg::x(1), 0);
        b.li(reg::x(2), trip * 8);
        b.li(reg::x(9), flag);
        b.bind(head);
        b.detach(cont);
        b.load(reg::x(3), reg::x(9), 0, MemSize::B8); // shared flag
        b.load(reg::x(4), reg::x(1), base, MemSize::B8);
        b.alu(AluOp::Add, reg::x(4), reg::x(4), reg::x(3));
        b.store(reg::x(4), reg::x(1), base, MemSize::B8);
        b.reattach(cont);
        b.bind(cont);
        b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
        b.branch(BranchCond::Lt, reg::x(1), reg::x(2), head);
        b.sync(cont);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn external_write_squashes_speculative_readers() {
        let p = flag_loop(64);
        let mut mem = Memory::new(0x4000);
        mem.write_u64(0x3000, 5).unwrap();
        let mut core = LoopFrogCore::new(&p, mem, LoopFrogConfig::default());
        // Run partway, then have a "remote core" change the flag.
        core.run_until_committed(150).unwrap();
        core.external_write(0x3000, 8, 9).unwrap();
        let squashed = core.stats().counters.get("external_squashes");
        let r = core.run_until_committed(u64::MAX).unwrap();
        assert_eq!(r, crate::SimStop::Halted);
        // The run must be internally consistent: every element got either
        // the old or the new flag, never a torn mix within one element,
        // and elements processed after the external write see 9.
        let result = core.into_result(r);
        assert!(squashed >= 1, "in-flight speculative readers must squash");
        let _ = result;
    }

    #[test]
    fn external_read_hides_speculative_stores() {
        let p = flag_loop(64);
        let mut mem = Memory::new(0x4000);
        for i in 0..64 {
            mem.write_u64(0x1000 + i * 8, 100).unwrap();
        }
        mem.write_u64(0x3000, 5).unwrap();
        let mut core = LoopFrogCore::new(&p, mem, LoopFrogConfig::default());
        core.run_until_committed(40).unwrap();
        // Read an element far ahead of the architectural threadlet: it must
        // show the ORIGINAL value (speculative stores are invisible), i.e.
        // either 100 (untouched) or 105 (architecturally committed), never
        // a torn or speculative intermediate.
        let v = core.external_read(0x1000 + 63 * 8, 8).unwrap();
        assert!(v == 100 || v == 105, "external read saw {v}");
    }

    #[test]
    fn external_traffic_preserves_final_memory_consistency() {
        // Deterministic end state: flag flips from 5 to 9 at one point; the
        // final array must be prefix(105..) then suffix(109..)-consistent,
        // and no element may contain anything else.
        let p = flag_loop(64);
        let mut mem = Memory::new(0x4000);
        for i in 0..64 {
            mem.write_u64(0x1000 + i * 8, 100).unwrap();
        }
        mem.write_u64(0x3000, 5).unwrap();
        let mut core = LoopFrogCore::new(&p, mem, LoopFrogConfig::default());
        core.run_until_committed(120).unwrap();
        core.external_write(0x3000, 8, 9).unwrap();
        let stop = core.run_until_committed(u64::MAX).unwrap();
        assert_eq!(stop, crate::SimStop::Halted);
        let mut seen_new = false;
        for i in 0..64 {
            let v = core.mem().read_u64(0x1000 + i * 8).unwrap();
            assert!(v == 105 || v == 109, "element {i} = {v}: torn or speculative value leaked");
            if v == 109 {
                seen_new = true;
            } else {
                assert!(!seen_new, "old flag observed after the new one at element {i}");
            }
        }
    }
}
