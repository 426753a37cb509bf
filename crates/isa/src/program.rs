//! Executable program images and a label-resolving builder.

use crate::inst::{BranchCond, Inst, Reg};
use std::collections::HashMap;
use std::fmt;

/// An executable image: instruction stream, entry point and initial data.
///
/// Instruction indices are program counters; the byte address of instruction
/// `pc` is `pc * INST_BYTES`, which is what the instruction cache sees.
#[derive(Debug, Clone, Default)]
pub struct Program {
    insts: Vec<Inst>,
    entry: u32,
    data: Vec<(u64, Vec<u8>)>,
}

impl Program {
    /// Creates a program from a raw instruction list with entry point 0 and
    /// no initial data.
    pub fn from_insts(insts: Vec<Inst>) -> Self {
        Program {
            insts,
            entry: 0,
            data: Vec::new(),
        }
    }

    /// The instruction stream.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The instruction at `pc`, if in range.
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<Inst> {
        self.insts.get(pc as usize).copied()
    }

    /// Number of instructions (static code size, the quantity inlining and
    /// unrolling heuristics bound).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Entry program counter.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Initial data segments as `(base address, bytes)` pairs.
    pub fn data_segments(&self) -> &[(u64, Vec<u8>)] {
        &self.data
    }

    /// Adds an initial data segment.
    pub fn add_data(&mut self, base: u64, bytes: Vec<u8>) {
        self.data.push((base, bytes));
    }

    /// Validates that every static control-flow target is in range.
    ///
    /// # Errors
    ///
    /// Returns the offending `(pc, target)` pair on failure.
    pub fn validate(&self) -> Result<(), (u32, u32)> {
        for (pc, inst) in self.insts.iter().enumerate() {
            if let Some(t) = inst.static_target() {
                if t as usize >= self.insts.len() {
                    return Err((pc as u32, t));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; entry @{}", self.entry)?;
        for (pc, inst) in self.insts.iter().enumerate() {
            writeln!(f, "{:>6}: {}", pc, inst)?;
        }
        Ok(())
    }
}

/// Errors from [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A control-flow instruction referenced a label never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(l) => write!(f, "undefined label `{}`", l),
            BuildError::DuplicateLabel(l) => write!(f, "duplicate label `{}`", l),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental assembler with symbolic labels.
///
/// # Examples
///
/// ```
/// use emod_isa::{abi, Inst, ProgramBuilder, Reg};
/// use emod_isa::Emulator;
///
/// // Sum 1..=5 with a loop.
/// let mut b = ProgramBuilder::new();
/// b.push(Inst::LoadImm { rd: Reg(1), imm: 0 });  // acc
/// b.push(Inst::LoadImm { rd: Reg(2), imm: 1 });  // i
/// b.push(Inst::LoadImm { rd: Reg(3), imm: 6 });  // bound
/// b.label("loop");
/// b.push(Inst::Alu { op: emod_isa::Inst::add_op(), rd: Reg(1), rs: Reg(1), rt: Reg(2) });
/// b.push(Inst::AluImm { op: emod_isa::Inst::add_op(), rd: Reg(2), rs: Reg(2), imm: 1 });
/// b.branch_to(emod_isa::Inst::blt_cond(), Reg(2), Reg(3), "loop");
/// b.push(Inst::Halt);
/// let prog = b.build()?;
/// assert_eq!(Emulator::new(&prog).run(1000).unwrap(), 15);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    labels: HashMap<String, u32>,
    fixups: Vec<(usize, String)>,
    data: Vec<(u64, Vec<u8>)>,
    entry_label: Option<String>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Current instruction index (the pc the next pushed instruction gets).
    pub fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Appends an instruction with already-resolved targets.
    pub fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Defines `label` at the current position.
    pub fn label(&mut self, label: impl Into<String>) {
        let here = self.here();
        // First definition wins; redefinitions are ignored.
        self.labels.entry(label.into()).or_insert(here);
    }

    /// Appends a conditional branch to `label`.
    pub fn branch_to(&mut self, cond: BranchCond, rs: Reg, rt: Reg, label: impl Into<String>) {
        self.fixups.push((self.insts.len(), label.into()));
        self.insts.push(Inst::Branch {
            cond,
            rs,
            rt,
            target: u32::MAX,
        });
    }

    /// Appends an unconditional jump to `label`.
    pub fn jump_to(&mut self, label: impl Into<String>) {
        self.fixups.push((self.insts.len(), label.into()));
        self.insts.push(Inst::Jump { target: u32::MAX });
    }

    /// Appends a call to `label`.
    pub fn call_to(&mut self, label: impl Into<String>) {
        self.fixups.push((self.insts.len(), label.into()));
        self.insts.push(Inst::Call { target: u32::MAX });
    }

    /// Adds an initial data segment.
    pub fn data(&mut self, base: u64, bytes: Vec<u8>) {
        self.data.push((base, bytes));
    }

    /// Selects the entry label (defaults to pc 0).
    pub fn entry(&mut self, label: impl Into<String>) {
        self.entry_label = Some(label.into());
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UndefinedLabel`] if a referenced or entry label
    /// is missing.
    pub fn build(self) -> Result<Program, BuildError> {
        let mut insts = self.insts;
        for (idx, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| BuildError::UndefinedLabel(label.clone()))?;
            insts[*idx] = insts[*idx].with_target(target);
        }
        let entry = match &self.entry_label {
            Some(l) => *self
                .labels
                .get(l)
                .ok_or_else(|| BuildError::UndefinedLabel(l.clone()))?,
            None => 0,
        };
        Ok(Program {
            insts,
            entry,
            data: self.data,
        })
    }
}

impl Inst {
    /// Convenience: the `Add` ALU opcode (keeps doc examples dependency-free).
    pub fn add_op() -> crate::inst::AluOp {
        crate::inst::AluOp::Add
    }

    /// Convenience: the signed less-than branch condition.
    pub fn blt_cond() -> BranchCond {
        BranchCond::Lt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::AluOp;

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        b.jump_to("fwd"); // forward reference
        b.label("back");
        b.push(Inst::Nop);
        b.label("fwd");
        b.branch_to(BranchCond::Eq, Reg(0), Reg(0), "back"); // backward
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.fetch(0).unwrap().static_target(), Some(2));
        assert_eq!(p.fetch(2).unwrap().static_target(), Some(1));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn undefined_label_errors() {
        let mut b = ProgramBuilder::new();
        b.jump_to("nowhere");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn entry_label_selects_start() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Nop);
        b.label("main");
        b.push(Inst::Halt);
        b.entry("main");
        let p = b.build().unwrap();
        assert_eq!(p.entry(), 1);
    }

    #[test]
    fn validate_catches_out_of_range_target() {
        let p = Program::from_insts(vec![Inst::Jump { target: 99 }]);
        assert_eq!(p.validate(), Err((0, 99)));
    }

    #[test]
    fn data_segments_preserved() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Halt);
        b.data(0x1000_0000, vec![1, 2, 3]);
        let p = b.build().unwrap();
        assert_eq!(p.data_segments(), &[(0x1000_0000u64, vec![1u8, 2, 3])]);
    }

    #[test]
    fn display_lists_instructions() {
        let p = Program::from_insts(vec![
            Inst::LoadImm { rd: Reg(1), imm: 7 },
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg(1),
                rs: Reg(1),
                rt: Reg(1),
            },
            Inst::Halt,
        ]);
        let s = p.to_string();
        assert!(s.contains("li r1, 7"));
        assert!(s.contains("halt"));
    }
}
