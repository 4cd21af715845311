//! Functional-unit pools with initiation-interval modeling.
//!
//! Pipelined units accept a new operation every cycle; divide/sqrt units are
//! unpipelined and stay busy for the operation's full latency.

use crate::config::FuConfig;
use lf_isa::FuClass;

#[derive(Debug, Clone)]
struct Pool {
    busy_until: Vec<u64>,
}

impl Pool {
    fn new(count: usize) -> Pool {
        Pool { busy_until: vec![0; count] }
    }

    fn try_issue(&mut self, now: u64, occupy: u64) -> bool {
        if let Some(u) = self.busy_until.iter_mut().find(|u| **u <= now) {
            *u = now + occupy;
            true
        } else {
            false
        }
    }

    fn next_release(&self, now: u64) -> Option<u64> {
        self.busy_until.iter().copied().filter(|&u| u > now).min()
    }
}

/// All execution pipes of the core.
#[derive(Debug, Clone)]
pub struct FuPools {
    int_alu: Pool,
    int_mul_div: Pool,
    fp: Pool,
    fp_div_sqrt: Pool,
    load: Pool,
    store: Pool,
}

impl FuPools {
    /// Creates the pools from their configuration.
    pub fn new(cfg: &FuConfig) -> FuPools {
        FuPools {
            int_alu: Pool::new(cfg.int_alu),
            int_mul_div: Pool::new(cfg.int_mul_div),
            fp: Pool::new(cfg.fp),
            fp_div_sqrt: Pool::new(cfg.fp_div_sqrt),
            load: Pool::new(cfg.load),
            store: Pool::new(cfg.store),
        }
    }

    /// Attempts to claim a unit of `class` at cycle `now` for an operation of
    /// `latency` cycles. Pipelined classes occupy their unit for one cycle;
    /// divide/sqrt classes occupy it for the full latency.
    ///
    /// Returns `false` if every unit of the class is busy (structural
    /// hazard); the instruction retries next cycle. `FuClass::None` always
    /// succeeds.
    pub fn try_issue(&mut self, class: FuClass, now: u64, latency: u64) -> bool {
        match class {
            FuClass::IntAlu => self.int_alu.try_issue(now, 1),
            // Integer divide is unpipelined; multiply is pipelined. Treat
            // long-latency ops (> 3 cycles) on this pool as unpipelined.
            FuClass::IntMulDiv => {
                let occ = if latency > 3 { latency } else { 1 };
                self.int_mul_div.try_issue(now, occ)
            }
            FuClass::Fp => self.fp.try_issue(now, 1),
            FuClass::FpDivSqrt => self.fp_div_sqrt.try_issue(now, latency),
            FuClass::Load => self.load.try_issue(now, 1),
            FuClass::Store => self.store.try_issue(now, 1),
            FuClass::None => true,
        }
    }

    /// The earliest cycle after `now` at which a unit that is busy at
    /// `now` frees, or `None` when every unit is free by `now`. Until
    /// then, [`FuPools::try_issue`] answers every class as it does at
    /// `now`.
    pub fn next_release(&self, now: u64) -> Option<u64> {
        [&self.int_alu, &self.int_mul_div, &self.fp, &self.fp_div_sqrt, &self.load, &self.store]
            .into_iter()
            .filter_map(|p| p.next_release(now))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuPools {
        FuPools::new(&FuConfig {
            int_alu: 2,
            int_mul_div: 1,
            fp: 1,
            fp_div_sqrt: 1,
            load: 1,
            store: 1,
        })
    }

    #[test]
    fn pipelined_alu_reissues_every_cycle() {
        let mut fu = tiny();
        assert!(fu.try_issue(FuClass::IntAlu, 0, 1));
        assert!(fu.try_issue(FuClass::IntAlu, 0, 1));
        assert!(!fu.try_issue(FuClass::IntAlu, 0, 1), "only 2 ALUs");
        assert!(fu.try_issue(FuClass::IntAlu, 1, 1), "free again next cycle");
    }

    #[test]
    fn divider_blocks_for_full_latency() {
        let mut fu = tiny();
        assert!(fu.try_issue(FuClass::FpDivSqrt, 0, 12));
        assert!(!fu.try_issue(FuClass::FpDivSqrt, 5, 12));
        assert!(fu.try_issue(FuClass::FpDivSqrt, 12, 12));
    }

    #[test]
    fn int_divide_unpipelined_multiply_pipelined() {
        let mut fu = tiny();
        assert!(fu.try_issue(FuClass::IntMulDiv, 0, 12)); // divide
        assert!(!fu.try_issue(FuClass::IntMulDiv, 1, 3)); // multiply blocked
        let mut fu = tiny();
        assert!(fu.try_issue(FuClass::IntMulDiv, 0, 3));
        assert!(fu.try_issue(FuClass::IntMulDiv, 1, 3), "multiply pipelines");
    }

    #[test]
    fn next_release_is_the_earliest_busy_unit() {
        let mut fu = tiny();
        assert_eq!(fu.next_release(0), None, "all units idle");
        assert!(fu.try_issue(FuClass::FpDivSqrt, 0, 12));
        assert!(fu.try_issue(FuClass::IntAlu, 0, 1));
        assert_eq!(fu.next_release(0), Some(1));
        assert_eq!(fu.next_release(1), Some(12), "the ALU is free again at 1");
        assert_eq!(fu.next_release(12), None);
    }

    #[test]
    fn none_class_never_blocks() {
        let mut fu = tiny();
        for _ in 0..100 {
            assert!(fu.try_issue(FuClass::None, 0, 1));
        }
    }
}
