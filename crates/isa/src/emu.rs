//! Functional (golden) emulator.
//!
//! Executes programs sequentially with LoopFrog hints treated as NOPs —
//! exactly the programmer-visible semantics the microarchitecture must
//! preserve (paper §3.2). The timing simulator's architectural results are
//! differential-tested against this model.
//!
//! The emulator also collects an execution profile (per-instruction counts
//! and per-branch taken statistics) used by the compiler's profile-guided
//! loop selection (paper §5.1) and by SimPoint basic-block vectors.

use crate::checksum::fnv1a_u64;
use crate::inst::{AluOp, BranchCond, FpuOp, Inst, MemSize, Operand};
use crate::mem::{MemError, Memory};
use crate::program::Program;
use crate::reg::{Reg, NUM_ARCH_REGS};
use std::fmt;

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction was executed.
    Halted,
    /// The instruction budget was exhausted before `halt`.
    OutOfFuel,
}

/// Outcome of a step-bounded run ([`Emulator::run_to_inst_count`]).
///
/// Distinct from [`StopReason`] so that exhausting a step budget is never
/// mistaken for a normal halt: lockstep replay treats `FuelExhausted` at a
/// commit boundary as the expected "paused" state, while a fuzzer treats it
/// on a whole-program budget as "reject: did not terminate".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStop {
    /// The step budget ran out before a `halt` executed; the emulator is
    /// paused and can be stepped further.
    FuelExhausted,
    /// A `halt` instruction executed at or before the budget.
    Halted,
}

/// Errors raised during emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The program counter left the program.
    PcOutOfRange {
        /// Faulting program counter.
        pc: usize,
    },
    /// A data memory access faulted.
    Mem(MemError),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            EmuError::Mem(e) => write!(f, "memory fault: {e}"),
        }
    }
}

impl std::error::Error for EmuError {}

impl From<MemError> for EmuError {
    fn from(e: MemError) -> EmuError {
        EmuError::Mem(e)
    }
}

/// Execution profile collected by the emulator.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Per-static-instruction dynamic execution counts.
    pub exec_count: Vec<u64>,
    /// Per-static-instruction taken counts (for control instructions).
    pub taken_count: Vec<u64>,
}

impl Profile {
    fn new(len: usize) -> Profile {
        Profile { exec_count: vec![0; len], taken_count: vec![0; len] }
    }

    /// Fraction of executions of the branch at `pc` that were taken.
    pub fn taken_ratio(&self, pc: usize) -> f64 {
        if self.exec_count[pc] == 0 {
            0.0
        } else {
            self.taken_count[pc] as f64 / self.exec_count[pc] as f64
        }
    }
}

/// Final outcome of a run.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Why execution stopped.
    pub stop: StopReason,
    /// Dynamic instruction count (including hints and nops).
    pub insts: u64,
    /// Checksum over final registers and memory.
    pub checksum: u64,
}

/// The architectural state and sequential interpreter.
///
/// # Examples
///
/// ```
/// use lf_isa::{Emulator, ProgramBuilder, Memory, reg, AluOp};
///
/// let mut b = ProgramBuilder::new();
/// b.li(reg::x(1), 20);
/// b.alui(AluOp::Add, reg::x(1), reg::x(1), 22);
/// b.halt();
/// let p = b.build().unwrap();
/// let mut emu = Emulator::new(&p, Memory::new(64));
/// emu.run(1000).unwrap();
/// assert_eq!(emu.reg(reg::x(1)), 42);
/// ```
#[derive(Debug, Clone)]
pub struct Emulator<'p> {
    program: &'p Program,
    regs: [u64; NUM_ARCH_REGS],
    mem: Memory,
    pc: usize,
    halted: bool,
    insts: u64,
    profile: Profile,
}

/// Evaluates an integer ALU operation; shared with the timing simulator so
/// both models compute identical results.
pub fn eval_alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                u64::MAX
            } else {
                (a as i64).wrapping_div(b as i64) as u64
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                (a as i64).wrapping_rem(b as i64) as u64
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
        AluOp::Seq => (a == b) as u64,
    }
}

/// Evaluates a floating-point operation on raw bit patterns; shared with the
/// timing simulator.
pub fn eval_fpu(op: FpuOp, a: u64, b: u64) -> u64 {
    let fa = f64::from_bits(a);
    let fb = f64::from_bits(b);
    match op {
        FpuOp::FAdd => (fa + fb).to_bits(),
        FpuOp::FSub => (fa - fb).to_bits(),
        FpuOp::FMul => (fa * fb).to_bits(),
        FpuOp::FDiv => (fa / fb).to_bits(),
        FpuOp::FMin => fa.min(fb).to_bits(),
        FpuOp::FMax => fa.max(fb).to_bits(),
        FpuOp::FSqrt => fa.sqrt().to_bits(),
        FpuOp::FLt => (fa < fb) as u64,
        FpuOp::FEq => (fa == fb) as u64,
        FpuOp::CvtIF => ((a as i64) as f64).to_bits(),
        FpuOp::CvtFI => {
            // Truncating, saturating conversion.
            if fa.is_nan() {
                0
            } else {
                (fa as i64) as u64
            }
        }
    }
}

/// Evaluates a branch condition; shared with the timing simulator.
pub fn eval_branch(cond: BranchCond, a: u64, b: u64) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i64) < (b as i64),
        BranchCond::Ge => (a as i64) >= (b as i64),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

/// Sign- or zero-extends a loaded value of `size` bytes.
pub fn extend_load(value: u64, size: MemSize, signed: bool) -> u64 {
    if !signed {
        return value;
    }
    let bits = size.bytes() * 8;
    if bits == 64 {
        value
    } else {
        let shift = 64 - bits;
        (((value << shift) as i64) >> shift) as u64
    }
}

impl<'p> Emulator<'p> {
    /// Creates an emulator over `program` with the given initial memory.
    pub fn new(program: &'p Program, mem: Memory) -> Emulator<'p> {
        Emulator {
            program,
            regs: [0; NUM_ARCH_REGS],
            mem,
            pc: program.entry(),
            halted: false,
            insts: 0,
            profile: Profile::new(program.len()),
        }
    }

    /// Reads an architectural register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an architectural register (writes to `x0` are ignored).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The full architectural register file.
    pub fn regs(&self) -> &[u64; NUM_ARCH_REGS] {
        &self.regs
    }

    /// The data memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// The current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether a `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed so far.
    pub fn inst_count(&self) -> u64 {
        self.insts
    }

    /// The execution profile collected so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Checksum of registers plus memory; identical runs produce identical
    /// checksums.
    pub fn state_checksum(&self) -> u64 {
        fnv1a_u64(&self.regs) ^ self.mem.checksum()
    }

    /// Executes a single instruction, returning its `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] on PC or memory faults. A halted emulator
    /// returns `Ok(pc)` without advancing.
    pub fn step(&mut self) -> Result<usize, EmuError> {
        if self.halted {
            return Ok(self.pc);
        }
        let pc = self.pc;
        let inst = self.program.fetch(pc).ok_or(EmuError::PcOutOfRange { pc })?;
        self.profile.exec_count[pc] += 1;
        self.insts += 1;
        let mut next = pc + 1;
        match inst {
            Inst::Alu { op, dst, a, b } => {
                let bv = match b {
                    Operand::Reg(r) => self.reg(r),
                    Operand::Imm(i) => i as u64,
                };
                let v = eval_alu(op, self.reg(a), bv);
                self.set_reg(dst, v);
            }
            Inst::Fpu { op, dst, a, b } => {
                let v = eval_fpu(op, self.reg(a), self.reg(b));
                self.set_reg(dst, v);
            }
            Inst::MovImm { dst, imm } => self.set_reg(dst, imm as u64),
            Inst::Load { dst, base, offset, size, signed } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                let raw = self.mem.read(addr, size.bytes())?;
                self.set_reg(dst, extend_load(raw, size, signed));
            }
            Inst::Store { src, base, offset, size } => {
                let addr = self.reg(base).wrapping_add(offset as u64);
                self.mem.write(addr, size.bytes(), self.reg(src))?;
            }
            Inst::Branch { cond, a, b, target } => {
                if eval_branch(cond, self.reg(a), self.reg(b)) {
                    self.profile.taken_count[pc] += 1;
                    next = target;
                }
            }
            Inst::Jump { target } => {
                self.profile.taken_count[pc] += 1;
                next = target;
            }
            Inst::Call { target, link } => {
                self.profile.taken_count[pc] += 1;
                self.set_reg(link, (pc + 1) as u64);
                next = target;
            }
            Inst::JumpReg { base } => {
                self.profile.taken_count[pc] += 1;
                next = self.reg(base) as usize;
            }
            Inst::Hint { .. } | Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
                next = pc;
            }
        }
        self.pc = next;
        Ok(pc)
    }

    /// Runs until `halt` or until `fuel` instructions have executed.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] on PC or memory faults.
    pub fn run(&mut self, fuel: u64) -> Result<ExecResult, EmuError> {
        let budget = self.insts + fuel;
        while !self.halted && self.insts < budget {
            self.step()?;
        }
        Ok(ExecResult {
            stop: if self.halted { StopReason::Halted } else { StopReason::OutOfFuel },
            insts: self.insts,
            checksum: self.state_checksum(),
        })
    }

    /// Steps until the cumulative dynamic instruction count reaches
    /// `target` (a step budget, *not* a program counter) or the program
    /// halts, whichever comes first. The two outcomes are reported
    /// distinctly — a bounded run that stops on budget exhaustion is
    /// [`StepStop::FuelExhausted`], never conflated with a genuine
    /// [`StepStop::Halted`] — so callers (the lockstep differential
    /// checker, the fuzzer's non-termination screen) can tell "paused at
    /// the requested boundary" from "program finished early" without
    /// re-inspecting state.
    ///
    /// If the count is already at or past `target`, returns immediately.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] on PC or memory faults.
    pub fn run_to_inst_count(&mut self, target: u64) -> Result<StepStop, EmuError> {
        while !self.halted && self.insts < target {
            self.step()?;
        }
        Ok(if self.halted { StepStop::Halted } else { StepStop::FuelExhausted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg;

    fn run_program(b: ProgramBuilder, mem_size: usize) -> (Emulator<'static>, ExecResult) {
        let p = Box::leak(Box::new(b.build().unwrap()));
        let mut emu = Emulator::new(p, Memory::new(mem_size));
        let r = emu.run(1_000_000).unwrap();
        (emu, r)
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum = 0; for i in 0..100 { sum += i }
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.li(reg::x(1), 0); // i
        b.li(reg::x(2), 0); // sum
        b.li(reg::x(3), 100);
        b.bind(top);
        b.alu(AluOp::Add, reg::x(2), reg::x(2), reg::x(1));
        b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
        b.branch(BranchCond::Lt, reg::x(1), reg::x(3), top);
        b.halt();
        let (emu, r) = run_program(b, 64);
        assert_eq!(emu.reg(reg::x(2)), 4950);
        assert_eq!(r.stop, StopReason::Halted);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.li(reg::x(1), 0x100);
        b.li(reg::x(2), -7i64);
        b.store(reg::x(2), reg::x(1), 0, MemSize::B4);
        b.load_signed(reg::x(3), reg::x(1), 0, MemSize::B4);
        b.load(reg::x(4), reg::x(1), 0, MemSize::B4);
        b.halt();
        let (emu, _) = run_program(b, 0x200);
        assert_eq!(emu.reg(reg::x(3)) as i64, -7);
        assert_eq!(emu.reg(reg::x(4)), 0xffff_fff9);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new();
        let func = b.label("func");
        let after = b.label("after");
        b.call(func, reg::RA);
        b.bind(after);
        b.halt();
        b.bind(func);
        b.li(reg::x(5), 99);
        b.jump_reg(reg::RA);
        let (emu, _) = run_program(b, 16);
        assert_eq!(emu.reg(reg::x(5)), 99);
        assert!(emu.is_halted());
    }

    #[test]
    fn hints_are_nops_and_do_not_change_state() {
        let mut b = ProgramBuilder::new();
        let cont = b.label("cont");
        b.li(reg::x(1), 5);
        b.detach(cont);
        b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
        b.reattach(cont);
        b.bind(cont);
        b.sync(cont);
        b.halt();
        let p = b.build().unwrap();
        let mut e1 = Emulator::new(&p, Memory::new(16));
        e1.run(100).unwrap();
        let nohints = p.without_hints();
        let mut e2 = Emulator::new(&nohints, Memory::new(16));
        e2.run(100).unwrap();
        assert_eq!(e1.reg(reg::x(1)), 6);
        assert_eq!(e1.state_checksum(), e2.state_checksum());
    }

    #[test]
    fn fuel_exhaustion_reports_out_of_fuel() {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.bind(top);
        b.jump(top);
        let (_, r) = run_program(b, 16);
        assert_eq!(r.stop, StopReason::OutOfFuel);
    }

    #[test]
    fn step_bounded_run_distinguishes_fuel_from_halt() {
        // sum loop: 3 insts of setup + 3 per iteration + halt.
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.li(reg::x(1), 0);
        b.li(reg::x(3), 4);
        b.bind(top);
        b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
        b.branch(BranchCond::Lt, reg::x(1), reg::x(3), top);
        b.halt();
        let p = b.build().unwrap();
        let mut emu = Emulator::new(&p, Memory::new(16));
        // Pause mid-loop: budget exhausted, not halted.
        assert_eq!(emu.run_to_inst_count(5).unwrap(), StepStop::FuelExhausted);
        assert_eq!(emu.inst_count(), 5);
        assert!(!emu.is_halted());
        // Re-requesting a past boundary is a no-op.
        assert_eq!(emu.run_to_inst_count(3).unwrap(), StepStop::FuelExhausted);
        assert_eq!(emu.inst_count(), 5);
        // A generous budget runs to the genuine halt.
        assert_eq!(emu.run_to_inst_count(1000).unwrap(), StepStop::Halted);
        assert_eq!(emu.reg(reg::x(1)), 4);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut b = ProgramBuilder::new();
        b.li(reg::ZERO, 42);
        b.alui(AluOp::Add, reg::x(1), reg::ZERO, 0);
        b.halt();
        let (emu, _) = run_program(b, 16);
        assert_eq!(emu.reg(reg::x(1)), 0);
    }

    #[test]
    fn profile_counts_taken_branches() {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.li(reg::x(1), 0);
        b.li(reg::x(2), 4);
        b.bind(top);
        b.alui(AluOp::Add, reg::x(1), reg::x(1), 1);
        b.branch(BranchCond::Lt, reg::x(1), reg::x(2), top);
        b.halt();
        let (emu, _) = run_program(b, 16);
        // branch at pc=3 executes 4 times, taken 3.
        assert_eq!(emu.profile().exec_count[3], 4);
        assert_eq!(emu.profile().taken_count[3], 3);
        assert!((emu.profile().taken_ratio(3) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fpu_basic_math() {
        let mut b = ProgramBuilder::new();
        b.li(reg::x(1), 9);
        b.fpu(FpuOp::CvtIF, reg::f(0), reg::x(1), reg::ZERO);
        b.fpu(FpuOp::FSqrt, reg::f(1), reg::f(0), reg::f(0));
        b.fpu(FpuOp::CvtFI, reg::x(2), reg::f(1), reg::ZERO);
        b.halt();
        let (emu, _) = run_program(b, 16);
        assert_eq!(emu.reg(reg::x(2)), 3);
    }
}
