//! Instruction definitions and dataflow metadata.

use std::fmt;

/// An integer register index (`r0`–`r31`; `r0` is hardwired to zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

/// A floating-point register index (`f0`–`f31`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FReg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A reference to either register file, used in dataflow metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegRef {
    /// Integer register.
    Int(Reg),
    /// Floating-point register.
    Fp(FReg),
}

/// Functional classes driving latency and functional-unit selection, shared
/// between the compiler's list scheduler and the out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Floating-point add/sub/compare/convert.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Unpipelined floating-point divide.
    FpDiv,
    /// Memory load (int or fp).
    Load,
    /// Memory store (int or fp).
    Store,
    /// Software prefetch (memory port, no destination).
    Prefetch,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
    /// Function call (writes the return-address register).
    Call,
    /// Indirect jump through a register (function return).
    Ret,
    /// No-op and program halt.
    Other,
}

/// Binary integer ALU operations sharing one instruction form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Set-less-than (signed): `rd = (rs < rt) as i64`.
    Slt,
    /// Set-equal: `rd = (rs == rt) as i64`.
    Seq,
}

/// Floating-point compare predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpOp {
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Equality.
    Eq,
}

/// Branch conditions comparing two integer registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `rs == rt`
    Eq,
    /// `rs != rt`
    Ne,
    /// `rs < rt` (signed)
    Lt,
    /// `rs >= rt` (signed)
    Ge,
}

/// One machine instruction.
///
/// Branch and jump targets are resolved instruction indices (the program
/// counter is an instruction index; byte addresses are `pc * INST_BYTES`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// `rd = rs <op> rt`
    Alu {
        op: AluOp,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// `rd = rs <op> imm`
    AluImm {
        op: AluOp,
        rd: Reg,
        rs: Reg,
        imm: i64,
    },
    /// `rd = imm` (64-bit immediate load)
    LoadImm { rd: Reg, imm: i64 },
    /// `rd = rs * rt`
    Mul { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs / rt` (signed; traps on zero)
    Div { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs % rt` (signed; traps on zero)
    Rem { rd: Reg, rs: Reg, rt: Reg },
    /// `fd = fs + ft`
    FAdd { fd: FReg, fs: FReg, ft: FReg },
    /// `fd = fs - ft`
    FSub { fd: FReg, fs: FReg, ft: FReg },
    /// `fd = fs * ft`
    FMul { fd: FReg, fs: FReg, ft: FReg },
    /// `fd = fs / ft`
    FDiv { fd: FReg, fs: FReg, ft: FReg },
    /// `rd = (fs <op> ft) as i64`
    FCmp {
        op: FCmpOp,
        rd: Reg,
        fs: FReg,
        ft: FReg,
    },
    /// `fd = rs as f64` (int to float convert)
    CvtIf { fd: FReg, rs: Reg },
    /// `rd = fs as i64` (float to int convert, truncating)
    CvtFi { rd: Reg, fs: FReg },
    /// `fd = imm`
    FLoadImm { fd: FReg, imm: f64 },
    /// `rd = mem64[rs + offset]`
    Load { rd: Reg, rs: Reg, offset: i64 },
    /// `mem64[rs + offset] = rt`
    Store { rt: Reg, rs: Reg, offset: i64 },
    /// `rd = mem8[rs + offset]` (zero-extended)
    LoadByte { rd: Reg, rs: Reg, offset: i64 },
    /// `mem8[rs + offset] = rt & 0xff`
    StoreByte { rt: Reg, rs: Reg, offset: i64 },
    /// `fd = fmem64[rs + offset]`
    FLoad { fd: FReg, rs: Reg, offset: i64 },
    /// `fmem64[rs + offset] = ft`
    FStore { ft: FReg, rs: Reg, offset: i64 },
    /// Software prefetch of `mem[rs + offset]`; never faults.
    Prefetch { rs: Reg, offset: i64 },
    /// Conditional branch to instruction index `target`.
    Branch {
        cond: BranchCond,
        rs: Reg,
        rt: Reg,
        target: u32,
    },
    /// Unconditional jump to instruction index `target`.
    Jump { target: u32 },
    /// Call: `ra = pc + 1; pc = target`.
    Call { target: u32 },
    /// Indirect jump: `pc = rs` (used for returns).
    JumpReg { rs: Reg },
    /// No operation.
    Nop,
    /// Stop execution; the exit value is read from the ABI return register.
    Halt,
}

impl Inst {
    /// The functional class of the instruction.
    #[inline]
    pub fn kind(&self) -> InstKind {
        match self {
            Inst::Alu { .. } | Inst::AluImm { .. } | Inst::LoadImm { .. } => InstKind::IntAlu,
            Inst::Mul { .. } => InstKind::IntMul,
            Inst::Div { .. } | Inst::Rem { .. } => InstKind::IntDiv,
            Inst::FAdd { .. }
            | Inst::FSub { .. }
            | Inst::FCmp { .. }
            | Inst::CvtIf { .. }
            | Inst::CvtFi { .. }
            | Inst::FLoadImm { .. } => InstKind::FpAdd,
            Inst::FMul { .. } => InstKind::FpMul,
            Inst::FDiv { .. } => InstKind::FpDiv,
            Inst::Load { .. } | Inst::LoadByte { .. } | Inst::FLoad { .. } => InstKind::Load,
            Inst::Store { .. } | Inst::StoreByte { .. } | Inst::FStore { .. } => InstKind::Store,
            Inst::Prefetch { .. } => InstKind::Prefetch,
            Inst::Branch { .. } => InstKind::Branch,
            Inst::Jump { .. } => InstKind::Jump,
            Inst::Call { .. } => InstKind::Call,
            Inst::JumpReg { .. } => InstKind::Ret,
            Inst::Nop | Inst::Halt => InstKind::Other,
        }
    }

    /// Calls `f` for every register the instruction writes — the
    /// allocation-free fast path used by the cycle simulator.
    pub fn visit_defs(&self, mut f: impl FnMut(RegRef)) {
        use RegRef::{Fp, Int};
        match *self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::LoadImm { rd, .. }
            | Inst::Mul { rd, .. }
            | Inst::Div { rd, .. }
            | Inst::Rem { rd, .. }
            | Inst::FCmp { rd, .. }
            | Inst::CvtFi { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::LoadByte { rd, .. }
                // Writes to the hardwired zero register are discarded.
                if rd != crate::abi::ZERO => {
                    f(Int(rd));
                }
            Inst::FAdd { fd, .. }
            | Inst::FSub { fd, .. }
            | Inst::FMul { fd, .. }
            | Inst::FDiv { fd, .. }
            | Inst::CvtIf { fd, .. }
            | Inst::FLoadImm { fd, .. }
            | Inst::FLoad { fd, .. } => f(Fp(fd)),
            Inst::Call { .. } => f(Int(crate::abi::RA)),
            _ => {}
        }
    }

    /// Calls `f` for every register the instruction reads.
    pub fn visit_uses(&self, mut f: impl FnMut(RegRef)) {
        use RegRef::{Fp, Int};
        match *self {
            Inst::Alu { rs, rt, .. } => {
                f(Int(rs));
                f(Int(rt));
            }
            Inst::AluImm { rs, .. } => f(Int(rs)),
            Inst::LoadImm { .. } | Inst::FLoadImm { .. } => {}
            Inst::Mul { rs, rt, .. } | Inst::Div { rs, rt, .. } | Inst::Rem { rs, rt, .. } => {
                f(Int(rs));
                f(Int(rt));
            }
            Inst::FAdd { fs, ft, .. }
            | Inst::FSub { fs, ft, .. }
            | Inst::FMul { fs, ft, .. }
            | Inst::FDiv { fs, ft, .. }
            | Inst::FCmp { fs, ft, .. } => {
                f(Fp(fs));
                f(Fp(ft));
            }
            Inst::CvtIf { rs, .. } => f(Int(rs)),
            Inst::CvtFi { fs, .. } => f(Fp(fs)),
            Inst::Load { rs, .. } | Inst::LoadByte { rs, .. } | Inst::FLoad { rs, .. } => {
                f(Int(rs))
            }
            Inst::Store { rt, rs, .. } | Inst::StoreByte { rt, rs, .. } => {
                f(Int(rt));
                f(Int(rs));
            }
            Inst::FStore { ft, rs, .. } => {
                f(Fp(ft));
                f(Int(rs));
            }
            Inst::Prefetch { rs, .. } => f(Int(rs)),
            Inst::Branch { rs, rt, .. } => {
                f(Int(rs));
                f(Int(rt));
            }
            Inst::JumpReg { rs } => f(Int(rs)),
            Inst::Jump { .. } | Inst::Call { .. } | Inst::Nop | Inst::Halt => {}
        }
    }

    /// Registers written by the instruction (collecting convenience over
    /// [`Inst::visit_defs`]).
    pub fn defs(&self) -> Vec<RegRef> {
        let mut out = Vec::with_capacity(1);
        self.visit_defs(|r| out.push(r));
        out
    }

    /// Registers read by the instruction (collecting convenience over
    /// [`Inst::visit_uses`]).
    pub fn uses(&self) -> Vec<RegRef> {
        let mut out = Vec::with_capacity(2);
        self.visit_uses(|r| out.push(r));
        out
    }

    /// Whether this instruction may redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self.kind(),
            InstKind::Branch | InstKind::Jump | InstKind::Call | InstKind::Ret
        )
    }

    /// Whether this instruction touches memory (including prefetch).
    pub fn is_mem(&self) -> bool {
        matches!(
            self.kind(),
            InstKind::Load | InstKind::Store | InstKind::Prefetch
        )
    }

    /// Static branch/jump target, if the instruction has one.
    pub fn static_target(&self) -> Option<u32> {
        match *self {
            Inst::Branch { target, .. } | Inst::Jump { target } | Inst::Call { target } => {
                Some(target)
            }
            _ => None,
        }
    }

    /// Rewrites the static control-flow target (used by program linkers).
    ///
    /// # Panics
    ///
    /// Panics if the instruction has no static target.
    pub fn with_target(self, new_target: u32) -> Inst {
        match self {
            Inst::Branch { cond, rs, rt, .. } => Inst::Branch {
                cond,
                rs,
                rt,
                target: new_target,
            },
            Inst::Jump { .. } => Inst::Jump { target: new_target },
            Inst::Call { .. } => Inst::Call { target: new_target },
            other => panic!("{:?} has no static target", other),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs, rt } => write!(f, "{:?} {}, {}, {}", op, rd, rs, rt),
            Inst::AluImm { op, rd, rs, imm } => write!(f, "{:?}i {}, {}, {}", op, rd, rs, imm),
            Inst::LoadImm { rd, imm } => write!(f, "li {}, {}", rd, imm),
            Inst::Mul { rd, rs, rt } => write!(f, "mul {}, {}, {}", rd, rs, rt),
            Inst::Div { rd, rs, rt } => write!(f, "div {}, {}, {}", rd, rs, rt),
            Inst::Rem { rd, rs, rt } => write!(f, "rem {}, {}, {}", rd, rs, rt),
            Inst::FAdd { fd, fs, ft } => write!(f, "fadd {}, {}, {}", fd, fs, ft),
            Inst::FSub { fd, fs, ft } => write!(f, "fsub {}, {}, {}", fd, fs, ft),
            Inst::FMul { fd, fs, ft } => write!(f, "fmul {}, {}, {}", fd, fs, ft),
            Inst::FDiv { fd, fs, ft } => write!(f, "fdiv {}, {}, {}", fd, fs, ft),
            Inst::FCmp { op, rd, fs, ft } => write!(f, "fcmp.{:?} {}, {}, {}", op, rd, fs, ft),
            Inst::CvtIf { fd, rs } => write!(f, "cvt.if {}, {}", fd, rs),
            Inst::CvtFi { rd, fs } => write!(f, "cvt.fi {}, {}", rd, fs),
            Inst::FLoadImm { fd, imm } => write!(f, "fli {}, {}", fd, imm),
            Inst::Load { rd, rs, offset } => write!(f, "ld {}, {}({})", rd, offset, rs),
            Inst::Store { rt, rs, offset } => write!(f, "st {}, {}({})", rt, offset, rs),
            Inst::LoadByte { rd, rs, offset } => write!(f, "ldb {}, {}({})", rd, offset, rs),
            Inst::StoreByte { rt, rs, offset } => write!(f, "stb {}, {}({})", rt, offset, rs),
            Inst::FLoad { fd, rs, offset } => write!(f, "fld {}, {}({})", fd, offset, rs),
            Inst::FStore { ft, rs, offset } => write!(f, "fst {}, {}({})", ft, offset, rs),
            Inst::Prefetch { rs, offset } => write!(f, "prefetch {}({})", offset, rs),
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => write!(f, "b{:?} {}, {}, @{}", cond, rs, rt, target),
            Inst::Jump { target } => write!(f, "j @{}", target),
            Inst::Call { target } => write!(f, "call @{}", target),
            Inst::JumpReg { rs } => write!(f, "jr {}", rs),
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_classified() {
        assert_eq!(
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg(1),
                rs: Reg(2),
                rt: Reg(3)
            }
            .kind(),
            InstKind::IntAlu
        );
        assert_eq!(
            Inst::FMul {
                fd: FReg(0),
                fs: FReg(1),
                ft: FReg(2)
            }
            .kind(),
            InstKind::FpMul
        );
        assert_eq!(
            Inst::Prefetch {
                rs: Reg(1),
                offset: 0
            }
            .kind(),
            InstKind::Prefetch
        );
        assert_eq!(Inst::Halt.kind(), InstKind::Other);
    }

    #[test]
    fn defs_and_uses() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rs: Reg(2),
            rt: Reg(3),
        };
        assert_eq!(i.defs(), vec![RegRef::Int(Reg(1))]);
        assert_eq!(i.uses(), vec![RegRef::Int(Reg(2)), RegRef::Int(Reg(3))]);
    }

    #[test]
    fn zero_register_writes_are_discarded() {
        let i = Inst::LoadImm {
            rd: Reg(0),
            imm: 42,
        };
        assert!(i.defs().is_empty());
    }

    #[test]
    fn call_defines_ra() {
        let i = Inst::Call { target: 7 };
        assert_eq!(i.defs(), vec![RegRef::Int(crate::abi::RA)]);
        assert!(i.is_control());
    }

    #[test]
    fn store_uses_both_registers() {
        let i = Inst::Store {
            rt: Reg(4),
            rs: Reg(5),
            offset: 8,
        };
        assert!(i.defs().is_empty());
        assert_eq!(i.uses().len(), 2);
        assert!(i.is_mem());
    }

    #[test]
    fn with_target_rewrites() {
        let b = Inst::Branch {
            cond: BranchCond::Lt,
            rs: Reg(1),
            rt: Reg(2),
            target: 3,
        };
        assert_eq!(b.static_target(), Some(3));
        assert_eq!(b.with_target(9).static_target(), Some(9));
    }

    #[test]
    #[should_panic(expected = "no static target")]
    fn with_target_panics_on_nop() {
        let _ = Inst::Nop.with_target(1);
    }

    #[test]
    fn display_is_nonempty() {
        for i in [
            Inst::Nop,
            Inst::Halt,
            Inst::Jump { target: 1 },
            Inst::FLoadImm {
                fd: FReg(3),
                imm: 1.5,
            },
        ] {
            assert!(!i.to_string().is_empty());
        }
    }
}
