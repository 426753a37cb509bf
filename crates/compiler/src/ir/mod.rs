//! The compiler's intermediate representation: a control-flow graph of
//! basic blocks holding three-address instructions over virtual registers.
//!
//! The IR is deliberately *not* SSA — like gcc 4.0's RTL (the level the
//! paper's flags mostly operate at), virtual registers are mutable, which
//! keeps loop transformations (unrolling in particular) simple and faithful.

pub mod analysis;

use std::fmt;

/// A virtual register index, unique within one [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A basic-block index within one [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer.
    I64,
    /// 64-bit IEEE float.
    F64,
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A virtual register.
    Reg(VReg),
    /// An integer constant (also used for global base addresses).
    ConstI(i64),
    /// A float constant.
    ConstF(f64),
}

impl Operand {
    /// The register, if the operand is one.
    pub fn as_reg(&self) -> Option<VReg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// The integer constant, if the operand is one.
    pub fn as_const_i(&self) -> Option<i64> {
        match self {
            Operand::ConstI(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{}", r),
            Operand::ConstI(v) => write!(f, "{}", v),
            Operand::ConstF(v) => write!(f, "{:?}f", v),
        }
    }
}

/// Integer binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (faults on a zero divisor).
    Div,
    /// Remainder (faults on a zero divisor).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl BinOp {
    /// Whether `a op b == b op a`.
    pub fn commutative(&self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Whether the operator can fault (divide by zero) and therefore must
    /// not be hoisted speculatively.
    pub fn can_fault(&self) -> bool {
        matches!(self, BinOp::Div | BinOp::Rem)
    }
}

/// Float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    /// Float addition.
    Add,
    /// Float subtraction.
    Sub,
    /// Float multiplication.
    Mul,
    /// Float division.
    Div,
}

/// Comparison predicates (used for both integer and float compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl CmpOp {
    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(&self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }
}

/// A three-address instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = lhs <op> rhs` (integer).
    Bin {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: VReg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = lhs <op> rhs` (float).
    FBin {
        /// The operator.
        op: FBinOp,
        /// Destination register.
        dst: VReg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = (lhs <op> rhs) as i64` (integer compare).
    Cmp {
        /// The predicate.
        op: CmpOp,
        /// Destination register.
        dst: VReg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = (lhs <op> rhs) as i64` (float compare).
    FCmp {
        /// The predicate.
        op: CmpOp,
        /// Destination register.
        dst: VReg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = src` (register or constant move; type from `dst`).
    Copy {
        /// Destination register.
        dst: VReg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = src as f64`.
    IntToFloat {
        /// Destination register.
        dst: VReg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = src as i64` (truncating).
    FloatToInt {
        /// Destination register.
        dst: VReg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = mem64[addr]`; `dst`'s type selects integer vs float load.
    Load {
        /// Destination register.
        dst: VReg,
        /// Byte-address operand.
        addr: Operand,
    },
    /// `mem64[addr] = value`.
    Store {
        /// Byte-address operand.
        addr: Operand,
        /// Value to store.
        value: Operand,
    },
    /// Software prefetch hint at `addr + offset` bytes.
    Prefetch {
        /// Byte-address operand.
        addr: Operand,
        /// Byte offset ahead of `addr`.
        offset: i64,
    },
    /// `dst = callee(args…)`.
    Call {
        /// Destination register, if the result is used.
        dst: Option<VReg>,
        /// Index of the called function in [`Module::funcs`].
        callee: usize,
        /// Argument operands, in ABI order.
        args: Vec<Operand>,
    },
}

impl Instr {
    /// The register the instruction writes, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Instr::Bin { dst, .. }
            | Instr::FBin { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::FCmp { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::IntToFloat { dst, .. }
            | Instr::FloatToInt { dst, .. }
            | Instr::Load { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } => *dst,
            Instr::Store { .. } | Instr::Prefetch { .. } => None,
        }
    }

    /// Operands the instruction reads.
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            Instr::Bin { lhs, rhs, .. }
            | Instr::FBin { lhs, rhs, .. }
            | Instr::Cmp { lhs, rhs, .. }
            | Instr::FCmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Instr::Copy { src, .. }
            | Instr::IntToFloat { src, .. }
            | Instr::FloatToInt { src, .. } => vec![*src],
            Instr::Load { addr, .. } => vec![*addr],
            Instr::Store { addr, value } => vec![*addr, *value],
            Instr::Prefetch { addr, .. } => vec![*addr],
            Instr::Call { args, .. } => args.clone(),
        }
    }

    /// Registers the instruction reads.
    pub fn uses(&self) -> Vec<VReg> {
        self.operands().iter().filter_map(Operand::as_reg).collect()
    }

    /// Rewrites the destination register.
    ///
    /// # Panics
    ///
    /// Panics if the instruction has no destination.
    pub fn set_def(&mut self, new_dst: VReg) {
        match self {
            Instr::Bin { dst, .. }
            | Instr::FBin { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::FCmp { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::IntToFloat { dst, .. }
            | Instr::FloatToInt { dst, .. }
            | Instr::Load { dst, .. } => *dst = new_dst,
            Instr::Call { dst: Some(d), .. } => *d = new_dst,
            other => panic!("{:?} has no destination", other),
        }
    }

    /// Rewrites every read of register `from` to the operand `to`.
    pub fn replace_use(&mut self, from: VReg, to: Operand) {
        let rewrite = |o: &mut Operand| {
            if o.as_reg() == Some(from) {
                *o = to;
            }
        };
        match self {
            Instr::Bin { lhs, rhs, .. }
            | Instr::FBin { lhs, rhs, .. }
            | Instr::Cmp { lhs, rhs, .. }
            | Instr::FCmp { lhs, rhs, .. } => {
                rewrite(lhs);
                rewrite(rhs);
            }
            Instr::Copy { src, .. }
            | Instr::IntToFloat { src, .. }
            | Instr::FloatToInt { src, .. } => rewrite(src),
            Instr::Load { addr, .. } => rewrite(addr),
            Instr::Store { addr, value } => {
                rewrite(addr);
                rewrite(value);
            }
            Instr::Prefetch { addr, .. } => rewrite(addr),
            Instr::Call { args, .. } => args.iter_mut().for_each(rewrite),
        }
    }

    /// Whether the instruction has side effects or reads mutable state
    /// (memory, calls) and therefore cannot be freely removed, reordered
    /// across stores, or hoisted.
    pub fn is_pure(&self) -> bool {
        match self {
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Prefetch { .. }
            | Instr::Call { .. } => false,
            Instr::Bin { op, .. } => !op.can_fault(),
            _ => true,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Bin { op, dst, lhs, rhs } => write!(f, "{} = {:?} {}, {}", dst, op, lhs, rhs),
            Instr::FBin { op, dst, lhs, rhs } => {
                write!(f, "{} = f{:?} {}, {}", dst, op, lhs, rhs)
            }
            Instr::Cmp { op, dst, lhs, rhs } => {
                write!(f, "{} = cmp.{:?} {}, {}", dst, op, lhs, rhs)
            }
            Instr::FCmp { op, dst, lhs, rhs } => {
                write!(f, "{} = fcmp.{:?} {}, {}", dst, op, lhs, rhs)
            }
            Instr::Copy { dst, src } => write!(f, "{} = {}", dst, src),
            Instr::IntToFloat { dst, src } => write!(f, "{} = i2f {}", dst, src),
            Instr::FloatToInt { dst, src } => write!(f, "{} = f2i {}", dst, src),
            Instr::Load { dst, addr } => write!(f, "{} = load [{}]", dst, addr),
            Instr::Store { addr, value } => write!(f, "store [{}] = {}", addr, value),
            Instr::Prefetch { addr, offset } => write!(f, "prefetch [{} + {}]", addr, offset),
            Instr::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    write!(f, "{} = ", d)?;
                }
                write!(f, "call @{}(", callee)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", a)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on `cond != 0`.
    Branch {
        /// The branch condition.
        cond: Operand,
        /// Successor when `cond != 0`.
        then_bb: BlockId,
        /// Successor when `cond == 0`.
        else_bb: BlockId,
    },
    /// Function return.
    Return(Operand),
}

impl Terminator {
    /// Successor blocks, in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Return(_) => vec![],
        }
    }

    /// Rewrites successor `from` to `to`.
    pub fn retarget(&mut self, from: BlockId, to: BlockId) {
        match self {
            Terminator::Jump(t) => {
                if *t == from {
                    *t = to;
                }
            }
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                if *then_bb == from {
                    *then_bb = to;
                }
                if *else_bb == from {
                    *else_bb = to;
                }
            }
            Terminator::Return(_) => {}
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The instructions, in order.
    pub instrs: Vec<Instr>,
    /// The terminator.
    pub term: Terminator,
}

/// A function: entry block is always `BlockId(0)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter registers, in ABI order.
    pub params: Vec<VReg>,
    /// The blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Type of each virtual register, indexed by `VReg.0`.
    pub vreg_types: Vec<Ty>,
}

impl Function {
    /// Creates an empty function with an entry block that returns 0.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            params: Vec::new(),
            blocks: vec![Block {
                instrs: Vec::new(),
                term: Terminator::Return(Operand::ConstI(0)),
            }],
            vreg_types: Vec::new(),
        }
    }

    /// Allocates a fresh virtual register of type `ty`.
    pub fn new_vreg(&mut self, ty: Ty) -> VReg {
        self.vreg_types.push(ty);
        VReg(self.vreg_types.len() as u32 - 1)
    }

    /// Type of a register.
    ///
    /// # Panics
    ///
    /// Panics if the register was not allocated by this function.
    pub fn ty(&self, r: VReg) -> Ty {
        self.vreg_types[r.0 as usize]
    }

    /// Type of an operand (constants carry their own type).
    pub fn operand_ty(&self, o: Operand) -> Ty {
        match o {
            Operand::Reg(r) => self.ty(r),
            Operand::ConstI(_) => Ty::I64,
            Operand::ConstF(_) => Ty::F64,
        }
    }

    /// Appends an empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block {
            instrs: Vec::new(),
            term: Terminator::Return(Operand::ConstI(0)),
        });
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Borrows a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutably borrows a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// All block ids, in storage order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Total instruction count (the "size" inlining/unrolling heuristics
    /// measure).
    pub fn size(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len() + 1).sum()
    }

    /// Checks structural invariants: every referenced register allocated,
    /// every successor in range.
    ///
    /// # Panics
    ///
    /// Panics with a description on violation (used in debug builds/tests).
    pub fn assert_valid(&self) {
        for (bi, b) in self.blocks.iter().enumerate() {
            for i in &b.instrs {
                if let Some(d) = i.def() {
                    assert!(
                        (d.0 as usize) < self.vreg_types.len(),
                        "{}: bb{}: def of unallocated {}",
                        self.name,
                        bi,
                        d
                    );
                }
                for u in i.uses() {
                    assert!(
                        (u.0 as usize) < self.vreg_types.len(),
                        "{}: bb{}: use of unallocated {}",
                        self.name,
                        bi,
                        u
                    );
                }
            }
            for s in b.term.successors() {
                assert!(
                    (s.0 as usize) < self.blocks.len(),
                    "{}: bb{}: successor {} out of range",
                    self.name,
                    bi,
                    s
                );
            }
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", p)?;
        }
        writeln!(f, ") {{")?;
        for (bi, b) in self.blocks.iter().enumerate() {
            writeln!(f, "bb{}:", bi)?;
            for inst in &b.instrs {
                writeln!(f, "    {}", inst)?;
            }
            match &b.term {
                Terminator::Jump(t) => writeln!(f, "    jump {}", t)?,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => writeln!(f, "    br {}, {}, {}", cond, then_bb, else_bb)?,
                Terminator::Return(v) => writeln!(f, "    ret {}", v)?,
            }
        }
        writeln!(f, "}}")
    }
}

/// A global array in the data segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Source-level name.
    pub name: String,
    /// Number of 8-byte elements.
    pub len: usize,
    /// Element type.
    pub ty: Ty,
    /// Assigned base byte address in the data segment.
    pub base: u64,
}

/// A compilation unit: functions plus global arrays.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// The functions; index is the `callee` id used by [`Instr::Call`].
    pub funcs: Vec<Function>,
    /// Global arrays with assigned data-segment addresses.
    pub globals: Vec<Global>,
}

impl Module {
    /// Index of the function named `name`.
    pub fn func_index(&self, name: &str) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }

    /// Base address of the global named `name`.
    pub fn global_base(&self, name: &str) -> Option<u64> {
        self.globals.iter().find(|g| g.name == name).map(|g| g.base)
    }

    /// Total IR size over all functions (the unit-growth baseline).
    pub fn size(&self) -> usize {
        self.funcs.iter().map(Function::size).sum()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.globals {
            writeln!(f, "global {}[{}] @ {:#x}", g.name, g.len, g.base)?;
        }
        for func in &self.funcs {
            writeln!(f, "{}", func)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_use_metadata() {
        let i = Instr::Bin {
            op: BinOp::Add,
            dst: VReg(3),
            lhs: Operand::Reg(VReg(1)),
            rhs: Operand::ConstI(4),
        };
        assert_eq!(i.def(), Some(VReg(3)));
        assert_eq!(i.uses(), vec![VReg(1)]);
        assert!(i.is_pure());
    }

    #[test]
    fn replace_use_rewrites_all_positions() {
        let mut i = Instr::Store {
            addr: Operand::Reg(VReg(1)),
            value: Operand::Reg(VReg(1)),
        };
        i.replace_use(VReg(1), Operand::ConstI(7));
        assert_eq!(
            i,
            Instr::Store {
                addr: Operand::ConstI(7),
                value: Operand::ConstI(7)
            }
        );
    }

    #[test]
    fn purity_classification() {
        assert!(!Instr::Load {
            dst: VReg(0),
            addr: Operand::ConstI(0)
        }
        .is_pure());
        assert!(!Instr::Bin {
            op: BinOp::Div,
            dst: VReg(0),
            lhs: Operand::ConstI(1),
            rhs: Operand::Reg(VReg(1))
        }
        .is_pure());
        assert!(Instr::Copy {
            dst: VReg(0),
            src: Operand::ConstI(1)
        }
        .is_pure());
    }

    #[test]
    fn terminator_successors_and_retarget() {
        let mut t = Terminator::Branch {
            cond: Operand::Reg(VReg(0)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        t.retarget(BlockId(2), BlockId(5));
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(5)]);
    }

    #[test]
    fn function_vreg_and_block_allocation() {
        let mut f = Function::new("t");
        let a = f.new_vreg(Ty::I64);
        let b = f.new_vreg(Ty::F64);
        assert_ne!(a, b);
        assert_eq!(f.ty(a), Ty::I64);
        assert_eq!(f.ty(b), Ty::F64);
        let bb = f.new_block();
        assert_eq!(bb, BlockId(1));
        f.assert_valid();
    }

    #[test]
    fn cmp_swapped_is_involutive_on_ordering() {
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.swapped().swapped(), CmpOp::Lt);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
    }

    #[test]
    fn display_renders_instructions() {
        let i = Instr::Load {
            dst: VReg(2),
            addr: Operand::Reg(VReg(1)),
        };
        assert_eq!(i.to_string(), "v2 = load [v1]");
    }

    #[test]
    #[should_panic(expected = "successor")]
    fn assert_valid_catches_bad_successor() {
        let mut f = Function::new("bad");
        f.blocks[0].term = Terminator::Jump(BlockId(9));
        f.assert_valid();
    }
}
