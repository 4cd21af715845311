//! Instruction set definition.
//!
//! A small RISC-like ISA extended with the three LoopFrog hint instructions
//! (`detach`, `reattach`, `sync`; paper §3.1). Hints carry the continuation
//! block's address, which doubles as a unique region identifier. Hints never
//! change sequential semantics: a core that treats them as NOPs executes the
//! program identically.
//!
//! Code is word-addressed: a program counter is an index into the program's
//! instruction vector. Data memory is byte-addressed.

use crate::reg::Reg;
use std::fmt;

/// A region identifier: the code address of the region's continuation block
/// (paper §3.1, "the machine instructions each carry the continuation block's
/// address, which serves as a unique region ID").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub usize);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Integer ALU operations. The `b` operand may be a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Multiplication (wrapping, low 64 bits).
    Mul,
    /// Signed division; division by zero yields `u64::MAX` (RISC-V style).
    Div,
    /// Signed remainder; remainder by zero yields the dividend.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set if less-than, signed (`1` or `0`).
    Slt,
    /// Set if less-than, unsigned.
    Sltu,
    /// Set if equal.
    Seq,
}

/// Floating-point operations over `f64` values stored in `f` registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Addition.
    FAdd,
    /// Subtraction.
    FSub,
    /// Multiplication.
    FMul,
    /// Division.
    FDiv,
    /// Minimum.
    FMin,
    /// Maximum.
    FMax,
    /// Square root of operand `a` (operand `b` is ignored).
    FSqrt,
    /// Set integer-style 1/0 if `a < b`.
    FLt,
    /// Set integer-style 1/0 if `a == b`.
    FEq,
    /// Convert signed integer in `a` to f64.
    CvtIF,
    /// Convert f64 in `a` to signed integer (truncating, saturating).
    CvtFI,
}

/// Branch conditions for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Taken if `a == b`.
    Eq,
    /// Taken if `a != b`.
    Ne,
    /// Taken if `a < b`, signed.
    Lt,
    /// Taken if `a >= b`, signed.
    Ge,
    /// Taken if `a < b`, unsigned.
    Ltu,
    /// Taken if `a >= b`, unsigned.
    Geu,
}

/// Memory access sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl MemSize {
    /// Access width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            MemSize::B1 => 1,
            MemSize::B2 => 2,
            MemSize::B4 => 4,
            MemSize::B8 => 8,
        }
    }
}

/// The three LoopFrog parallelization hints (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HintKind {
    /// Marks a potential fork point at the header→body boundary. The
    /// successor epoch may be launched at the continuation address.
    Detach,
    /// Marks the body→continuation boundary: a detached threadlet that
    /// reaches it has caught up to its successor's starting point and halts.
    Reattach,
    /// Annotates a loop-exit edge: successors were misspeculated and must be
    /// squashed; execution continues sequentially after the sync.
    Sync,
}

/// The second source operand of an ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// A 64-bit immediate.
    Imm(i64),
}

/// One machine instruction.
///
/// Branch and jump targets are word addresses (indices into the program's
/// instruction vector), pre-resolved by [`crate::ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Integer ALU operation `dst = op(a, b)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Reg,
        /// Second source (register or immediate).
        b: Operand,
    },
    /// Floating-point operation `dst = op(a, b)`.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Reg,
        /// Second source.
        b: Reg,
    },
    /// Load immediate: `dst = imm`.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Load from memory: `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access size.
        size: MemSize,
        /// Sign-extend the loaded value.
        signed: bool,
    },
    /// Store to memory: `mem[base + offset] = src`.
    Store {
        /// Data register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access size.
        size: MemSize,
    },
    /// Conditional branch to `target` if `cond(a, b)`.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First comparison source.
        a: Reg,
        /// Second comparison source.
        b: Reg,
        /// Word-addressed branch target.
        target: usize,
    },
    /// Unconditional direct jump.
    Jump {
        /// Word-addressed target.
        target: usize,
    },
    /// Direct call: `link = pc + 1; pc = target`.
    Call {
        /// Word-addressed target.
        target: usize,
        /// Link register receiving the return address.
        link: Reg,
    },
    /// Indirect jump through a register (used for returns).
    JumpReg {
        /// Register holding the word-addressed target.
        base: Reg,
    },
    /// A LoopFrog hint. Semantically a NOP.
    Hint {
        /// Which hint.
        kind: HintKind,
        /// The region (continuation address) the hint belongs to.
        region: RegionId,
    },
    /// No operation.
    Nop,
    /// Stop execution.
    Halt,
}

/// Functional-unit classes, used by the timing model to map instructions to
/// execution pipes (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Simple integer ALU / branch pipe.
    IntAlu,
    /// Integer multiply/divide pipe.
    IntMulDiv,
    /// Floating-point / SIMD pipe.
    Fp,
    /// FP divide / sqrt pipe.
    FpDivSqrt,
    /// Load pipe.
    Load,
    /// Store pipe.
    Store,
    /// Consumes no execution pipe (hints, nops, direct jumps).
    None,
}

impl Inst {
    /// The destination register written by this instruction, if any.
    /// Writes to the hardwired zero register are reported as `None`.
    pub fn def(&self) -> Option<Reg> {
        let d = match *self {
            Inst::Alu { dst, .. }
            | Inst::Fpu { dst, .. }
            | Inst::MovImm { dst, .. }
            | Inst::Load { dst, .. } => Some(dst),
            Inst::Call { link, .. } => Some(link),
            _ => None,
        };
        d.filter(|r| !r.is_zero())
    }

    /// The source registers read by this instruction (up to two).
    /// Reads of the zero register are included (they read the constant 0).
    pub fn uses(&self) -> [Option<Reg>; 2] {
        match *self {
            Inst::Alu { a, b, .. } => match b {
                Operand::Reg(rb) => [Some(a), Some(rb)],
                Operand::Imm(_) => [Some(a), None],
            },
            Inst::Fpu { op: FpuOp::FSqrt | FpuOp::CvtIF | FpuOp::CvtFI, a, .. } => [Some(a), None],
            Inst::Fpu { a, b, .. } => [Some(a), Some(b)],
            Inst::Load { base, .. } => [Some(base), None],
            Inst::Store { src, base, .. } => [Some(base), Some(src)],
            Inst::Branch { a, b, .. } => [Some(a), Some(b)],
            Inst::JumpReg { base } => [Some(base), None],
            _ => [None, None],
        }
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. })
    }

    /// Whether this is a LoopFrog hint.
    pub fn is_hint(&self) -> bool {
        matches!(self, Inst::Hint { .. })
    }

    /// The hint kind and region, if this is a hint.
    pub fn hint(&self) -> Option<(HintKind, RegionId)> {
        match *self {
            Inst::Hint { kind, region } => Some((kind, region)),
            _ => None,
        }
    }

    /// The functional-unit class this instruction executes on.
    pub fn fu_class(&self) -> FuClass {
        match self {
            Inst::Alu { op, .. } => match op {
                AluOp::Mul | AluOp::Div | AluOp::Rem => FuClass::IntMulDiv,
                _ => FuClass::IntAlu,
            },
            Inst::Fpu { op, .. } => match op {
                FpuOp::FDiv | FpuOp::FSqrt => FuClass::FpDivSqrt,
                _ => FuClass::Fp,
            },
            Inst::MovImm { .. } => FuClass::IntAlu,
            Inst::Load { .. } => FuClass::Load,
            Inst::Store { .. } => FuClass::Store,
            Inst::Branch { .. } | Inst::JumpReg { .. } => FuClass::IntAlu,
            Inst::Jump { .. } | Inst::Call { .. } => FuClass::None,
            Inst::Hint { .. } | Inst::Nop | Inst::Halt => FuClass::None,
        }
    }

    /// Execution latency in cycles for the timing model (pipelined unless the
    /// functional unit says otherwise).
    pub fn exec_latency(&self) -> u64 {
        match self {
            Inst::Alu { op, .. } => match op {
                AluOp::Mul => 3,
                AluOp::Div | AluOp::Rem => 12,
                _ => 1,
            },
            Inst::Fpu { op, .. } => match op {
                FpuOp::FAdd | FpuOp::FSub | FpuOp::FMin | FpuOp::FMax => 2,
                FpuOp::FMul => 3,
                FpuOp::FDiv => 12,
                FpuOp::FSqrt => 16,
                FpuOp::FLt | FpuOp::FEq | FpuOp::CvtIF | FpuOp::CvtFI => 2,
            },
            // Address generation only; cache latency is added by the memory
            // system.
            Inst::Load { .. } | Inst::Store { .. } => 1,
            _ => 1,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, dst, a, b } => {
                let opn = format!("{op:?}").to_lowercase();
                match b {
                    Operand::Reg(rb) => write!(f, "{opn} {dst}, {a}, {rb}"),
                    Operand::Imm(i) => write!(f, "{opn}i {dst}, {a}, {i}"),
                }
            }
            Inst::Fpu { op, dst, a, b } => {
                write!(f, "{} {dst}, {a}, {b}", format!("{op:?}").to_lowercase())
            }
            Inst::MovImm { dst, imm } => write!(f, "li {dst}, {imm}"),
            Inst::Load { dst, base, offset, size, signed } => {
                let s = if signed { "s" } else { "u" };
                write!(f, "ld{}{s} {dst}, {offset}({base})", size.bytes())
            }
            Inst::Store { src, base, offset, size } => {
                write!(f, "st{} {src}, {offset}({base})", size.bytes())
            }
            Inst::Branch { cond, a, b, target } => {
                write!(f, "b{} {a}, {b}, #{target}", format!("{cond:?}").to_lowercase())
            }
            Inst::Jump { target } => write!(f, "j #{target}"),
            Inst::Call { target, link } => write!(f, "call #{target}, {link}"),
            Inst::JumpReg { base } => write!(f, "jr {base}"),
            Inst::Hint { kind, region } => {
                write!(f, "{} {region}", format!("{kind:?}").to_lowercase())
            }
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg;

    #[test]
    fn def_filters_zero_register() {
        let i = Inst::Alu { op: AluOp::Add, dst: reg::ZERO, a: reg::x(1), b: Operand::Imm(1) };
        assert_eq!(i.def(), None);
        let i = Inst::Alu { op: AluOp::Add, dst: reg::x(3), a: reg::x(1), b: Operand::Imm(1) };
        assert_eq!(i.def(), Some(reg::x(3)));
    }

    #[test]
    fn uses_of_store_include_data_and_base() {
        let i = Inst::Store { src: reg::x(4), base: reg::x(5), offset: 8, size: MemSize::B8 };
        assert_eq!(i.uses(), [Some(reg::x(5)), Some(reg::x(4))]);
    }

    #[test]
    fn unary_fpu_uses_one_source() {
        let i = Inst::Fpu { op: FpuOp::FSqrt, dst: reg::f(0), a: reg::f(1), b: reg::f(2) };
        assert_eq!(i.uses(), [Some(reg::f(1)), None]);
    }

    #[test]
    fn fu_classes() {
        let mul = Inst::Alu { op: AluOp::Mul, dst: reg::x(1), a: reg::x(2), b: Operand::Imm(3) };
        assert_eq!(mul.fu_class(), FuClass::IntMulDiv);
        let hint = Inst::Hint { kind: HintKind::Detach, region: RegionId(7) };
        assert_eq!(hint.fu_class(), FuClass::None);
        assert!(hint.is_hint());
    }

    #[test]
    fn display_roundtrip_smoke() {
        let i = Inst::Load {
            dst: reg::x(1),
            base: reg::x(2),
            offset: -8,
            size: MemSize::B4,
            signed: true,
        };
        assert_eq!(i.to_string(), "ld4s x1, -8(x2)");
        let h = Inst::Hint { kind: HintKind::Sync, region: RegionId(12) };
        assert_eq!(h.to_string(), "sync @12");
    }
}
