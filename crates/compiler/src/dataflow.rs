//! Register data-flow analyses: per-block def/use sets, backward liveness,
//! and register loop-carried-dependence (LCD) detection (paper §3, §5.3).

use crate::cfg::Cfg;
use crate::loops::Loop;
use lf_isa::{Inst, Program, NUM_ARCH_REGS};

/// Caller-saved registers clobbered by a call under the kernel calling
/// convention (RISC-V-style: `ra`, `t0-t6`, `a0-a7`, `ft0-ft7`, `fa0-fa7`).
pub fn caller_saved() -> RegSet {
    let mut s = RegSet::empty();
    for r in [1usize, 5, 6, 7, 28, 29, 30, 31] {
        s.insert(r);
    }
    for r in 10..=17 {
        s.insert(r); // a0-a7
        s.insert(32 + r); // fa0-fa7
    }
    for r in 0..=7 {
        s.insert(32 + r); // ft0-ft7
    }
    s
}

/// Argument registers read by a call under the kernel calling convention.
pub fn call_args() -> RegSet {
    let mut s = RegSet::empty();
    for r in 10..=17 {
        s.insert(r);
        s.insert(32 + r);
    }
    s
}

/// Registers defined by `inst` for data-flow purposes (calls clobber the
/// caller-saved set).
pub fn df_defs(inst: &Inst) -> RegSet {
    if matches!(inst, Inst::Call { .. }) {
        let mut s = caller_saved();
        if let Some(d) = inst.def() {
            s.insert(d.index());
        }
        return s;
    }
    let mut s = RegSet::empty();
    if let Some(d) = inst.def() {
        s.insert(d.index());
    }
    s
}

/// Registers used by `inst` for data-flow purposes (calls read arguments).
pub fn df_uses(inst: &Inst) -> RegSet {
    if matches!(inst, Inst::Call { .. }) {
        return call_args();
    }
    let mut s = RegSet::empty();
    for u in inst.uses().iter().flatten() {
        s.insert(u.index());
    }
    s
}

/// A register set, as a fixed-width bitmask over architectural registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet(pub u64);

const _: () = assert!(NUM_ARCH_REGS <= 64, "RegSet assumes ≤64 architectural registers");

impl RegSet {
    /// The empty set.
    pub fn empty() -> RegSet {
        RegSet(0)
    }

    /// Inserts a register index.
    pub fn insert(&mut self, r: usize) {
        self.0 |= 1 << r;
    }

    /// Whether `r` is in the set.
    pub fn contains(&self, r: usize) -> bool {
        self.0 >> r & 1 == 1
    }

    /// Set union.
    pub fn union(self, o: RegSet) -> RegSet {
        RegSet(self.0 | o.0)
    }

    /// Set intersection.
    pub fn inter(self, o: RegSet) -> RegSet {
        RegSet(self.0 & o.0)
    }

    /// Set difference `self \ o`.
    pub fn minus(self, o: RegSet) -> RegSet {
        RegSet(self.0 & !o.0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates member register indices.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// Per-instruction and per-block def/use plus block liveness.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `use[b]`: registers read before any write within block `b`.
    pub use_: Vec<RegSet>,
    /// `def[b]`: registers written in block `b`.
    pub def: Vec<RegSet>,
    /// `live_in[b]`: registers live on entry to block `b`.
    pub live_in: Vec<RegSet>,
    /// `live_out[b]`: registers live on exit from block `b`.
    pub live_out: Vec<RegSet>,
}

impl Liveness {
    /// Computes liveness over `cfg`.
    pub fn compute(program: &Program, cfg: &Cfg) -> Liveness {
        let n = cfg.len();
        let mut use_ = vec![RegSet::empty(); n];
        let mut def = vec![RegSet::empty(); n];
        for (bi, b) in cfg.blocks().iter().enumerate() {
            for pc in b.range() {
                let inst = program.insts()[pc];
                use_[bi] = use_[bi].union(df_uses(&inst).minus(def[bi]));
                def[bi] = def[bi].union(df_defs(&inst));
            }
        }
        let mut live_in = vec![RegSet::empty(); n];
        let mut live_out = vec![RegSet::empty(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                let mut out = RegSet::empty();
                for &s in &cfg.blocks()[bi].succs {
                    out = out.union(live_in[s]);
                }
                let inn = use_[bi].union(out.minus(def[bi]));
                if out != live_out[bi] || inn != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        Liveness { use_, def, live_in, live_out }
    }

    /// Registers live just before instruction `pc` of block `bi` (computed
    /// by walking the block backward from `live_out`).
    pub fn live_before(&self, program: &Program, cfg: &Cfg, pc: usize) -> RegSet {
        let bi = cfg.block_of(pc);
        let b = &cfg.blocks()[bi];
        let mut live = self.live_out[bi];
        for i in b.range().rev() {
            if i < pc {
                break;
            }
            let inst = program.insts()[i];
            live = live.minus(df_defs(&inst)).union(df_uses(&inst));
        }
        live
    }
}

/// Register loop-carried dependencies of `l`: registers defined inside the
/// loop that are live on entry to the header (their values flow around the
/// back edge into the next iteration).
pub fn loop_lcds(_program: &Program, _cfg: &Cfg, live: &Liveness, l: &Loop) -> RegSet {
    let mut defined = RegSet::empty();
    for &bi in &l.blocks {
        defined = defined.union(live.def[bi]);
    }
    defined.inter(live.live_in[l.header])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Dominators;
    use crate::loops::find_loops;
    use lf_isa::{reg, AluOp, BranchCond, MemSize, ProgramBuilder};

    #[test]
    fn regset_basics() {
        let mut s = RegSet::empty();
        s.insert(3);
        s.insert(40);
        assert!(s.contains(3) && s.contains(40) && !s.contains(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 40]);
        assert_eq!(s.len(), 2);
        assert!(s.minus(s).is_empty());
    }

    #[test]
    fn liveness_through_diamond() {
        let mut b = ProgramBuilder::new();
        let t = b.label("t");
        let j = b.label("j");
        b.li(reg::x(5), 1);
        b.branch(BranchCond::Eq, reg::x(1), reg::ZERO, t);
        b.alu(AluOp::Add, reg::x(2), reg::x(5), reg::x(5));
        b.jump(j);
        b.bind(t);
        b.alui(AluOp::Add, reg::x(2), reg::x(5), 2);
        b.bind(j);
        b.store(reg::x(2), reg::ZERO, 0, MemSize::B8);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let live = Liveness::compute(&p, &cfg);
        // x5 is live into both arms; x2 is live into the join.
        let join = cfg.block_of(6);
        assert!(live.live_in[join].contains(2));
        let arm = cfg.block_of(2);
        assert!(live.live_in[arm].contains(5));
        assert!(!live.live_out[join].contains(2));
    }

    #[test]
    fn lcd_detection_finds_induction_variable_only() {
        // x1 is the IV; x3 is recomputed from memory every iteration (no
        // LCD); x2 is a loop-invariant bound (live-in but not defined).
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.li(reg::x(1), 0);
        b.li(reg::x(2), 80);
        b.bind(top);
        b.load(reg::x(3), reg::x(1), 0x100, MemSize::B8);
        b.alui(AluOp::Mul, reg::x(3), reg::x(3), 3);
        b.store(reg::x(3), reg::x(1), 0x100, MemSize::B8);
        b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
        b.branch(BranchCond::Lt, reg::x(1), reg::x(2), top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let dom = Dominators::compute(&cfg);
        let live = Liveness::compute(&p, &cfg);
        let loops = find_loops(&cfg, &dom);
        let lcds = loop_lcds(&p, &cfg, &live, &loops[0]);
        assert_eq!(lcds.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn reduction_register_is_an_lcd() {
        // x4 accumulates across iterations: must be an LCD.
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.li(reg::x(1), 0);
        b.li(reg::x(4), 0);
        b.bind(top);
        b.load(reg::x(3), reg::x(1), 0x100, MemSize::B8);
        b.alu(AluOp::Add, reg::x(4), reg::x(4), reg::x(3));
        b.alui(AluOp::Add, reg::x(1), reg::x(1), 8);
        b.branch(BranchCond::Lt, reg::x(1), reg::x(2), top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let dom = Dominators::compute(&cfg);
        let live = Liveness::compute(&p, &cfg);
        let loops = find_loops(&cfg, &dom);
        let lcds = loop_lcds(&p, &cfg, &live, &loops[0]);
        assert!(lcds.contains(1) && lcds.contains(4));
        assert!(!lcds.contains(3));
    }
}
