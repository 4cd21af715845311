//! Dominator analysis (iterative data-flow formulation).

use crate::cfg::Cfg;

/// Dominator sets for each block, as bitsets over block indices.
#[derive(Debug, Clone)]
pub struct Dominators {
    sets: Vec<Vec<u64>>,
}

impl Dominators {
    /// Computes dominators of every block reachable from the entry.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.len();
        let words = n.div_ceil(64).max(1);
        let full = {
            let mut v = vec![u64::MAX; words];
            // Mask off bits past n.
            let extra = words * 64 - n;
            if extra > 0 {
                v[words - 1] = u64::MAX >> extra;
            }
            v
        };
        let mut sets = vec![full.clone(); n];
        if n == 0 {
            return Dominators { sets };
        }
        // Every analysis root (entry and call targets) dominates only
        // itself, anchoring the fixpoint for callee subgraphs.
        for &r in cfg.roots() {
            sets[r] = vec![0; words];
            sets[r][r / 64] |= 1 << (r % 64);
        }

        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                if cfg.roots().contains(&b) {
                    continue;
                }
                let preds = &cfg.blocks()[b].preds;
                let mut new = full.clone();
                if preds.is_empty() {
                    // Unreachable block: dominated by everything (vacuous).
                    continue;
                }
                for &p in preds {
                    for w in 0..words {
                        new[w] &= sets[p][w];
                    }
                }
                new[b / 64] |= 1 << (b % 64);
                if new != sets[b] {
                    sets[b] = new;
                    changed = true;
                }
            }
        }
        Dominators { sets }
    }

    /// Whether block `a` dominates block `b`.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        self.sets[b][a / 64] >> (a % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_isa::{reg, AluOp, BranchCond, ProgramBuilder};

    #[test]
    fn diamond_dominators() {
        let mut b = ProgramBuilder::new();
        let t = b.label("t");
        let j = b.label("j");
        b.branch(BranchCond::Eq, reg::x(1), reg::ZERO, t);
        b.alui(AluOp::Add, reg::x(2), reg::x(2), 1);
        b.jump(j);
        b.bind(t);
        b.alui(AluOp::Add, reg::x(2), reg::x(2), 2);
        b.bind(j);
        b.halt();
        let p = b.build().unwrap();
        let cfg = crate::cfg::Cfg::build(&p);
        let dom = Dominators::compute(&cfg);
        // Entry dominates all; neither branch arm dominates the join.
        for b in 0..cfg.len() {
            assert!(dom.dominates(0, b));
        }
        let join = cfg.block_of(4);
        assert!(!dom.dominates(cfg.block_of(1), join));
        assert!(!dom.dominates(cfg.block_of(3), join));
        assert!(dom.dominates(join, join));
    }

    #[test]
    fn loop_header_dominates_body() {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        let inner = b.label("inner");
        b.li(reg::x(1), 4);
        b.bind(top);
        b.alui(AluOp::Sub, reg::x(1), reg::x(1), 1);
        b.branch(BranchCond::Eq, reg::x(1), reg::ZERO, inner);
        b.nop();
        b.bind(inner);
        b.branch(BranchCond::Ne, reg::x(1), reg::ZERO, top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = crate::cfg::Cfg::build(&p);
        let dom = Dominators::compute(&cfg);
        let header = cfg.block_of(1);
        let tail = cfg.block_of(4);
        assert!(dom.dominates(header, tail));
        assert!(!dom.dominates(tail, header));
    }
}
